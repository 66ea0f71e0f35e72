"""Spans recorded from the benchmark's own files, and the layer views of them.

A span is ``{"name", "start", "end", "parent", "job"}``: the benchmark
opens one around each job and around every call it makes into a layer's
public entry point.  Spans stay in memory and are written out once, when
the run ends.  Per-layer numbers are self times: a span's duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

#: Span name -> per-layer metric.  Span names follow the package's own
#: ``<pipeline>.<stage>`` convention; stages without a metric (unroll,
#: roof duality, scaling, fault injection, repair) still nest their time
#: under the job, so it never counts as ``core.overhead_s``.
LAYER_OF_SPAN = {
    "compile.elaborate": "hdl.elaborate_s",
    "compile.optimize": "synth.optimize_s",
    "compile.techmap": "synth.techmap_s",
    "compile.emit_edif": "edif.emit_s",
    "compile.edif_roundtrip": "edif.roundtrip_s",
    "compile.translate_qmasm": "edif2qmasm.translate_s",
    "compile.assemble": "qmasm.assemble_s",
    "hardware.machine": "hardware.machine_s",
    "run.find_embedding": "hardware.find_embedding_s",
    "run.sample": "solvers.sample_s",
    "run.unembed": "qmasm.unembed_s",
    "run.postprocess": "qmasm.postprocess_s",
    "run.certify": "qmasm.certify_s",
}


class SpanRecorder:
    """In-memory spans of one thread of work (a closed-loop caller)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[Dict[str, Any]] = []
        self.job: Optional[int] = None
        self._clock = clock
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = {
            "name": name,
            "start": self._clock(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "job": self.job,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = self._clock()
            self._open.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def _covered(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: List[Mapping[str, Any]]) -> List[float]:
    """Each span's duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return [
        (span["end"] - span["start"])
        - _covered(children.get(index, []), span["start"], span["end"])
        for index, span in enumerate(spans)
    ]


def layer_self_times(
    spans: List[Mapping[str, Any]], num_jobs: int
) -> Dict[str, float]:
    """Mean self time per job of every layer, plus the jobs' own
    self time (``core.overhead_s``: job time spent outside every call
    into a layer)."""
    totals = {metric: 0.0 for metric in LAYER_OF_SPAN.values()}
    totals["core.overhead_s"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        if span["name"] == "job":
            totals["core.overhead_s"] += own
        elif span["name"] in LAYER_OF_SPAN:
            totals[LAYER_OF_SPAN[span["name"]]] += own
    return {name: value / max(1, num_jobs) for name, value in totals.items()}


def make_traced_stage(stage_base: type, inner: Any, recorder: SpanRecorder,
                      pipeline: str) -> Any:
    """Wrap one pipeline stage so its ``run`` is recorded as a span.

    ``stage_base`` is the package's ``Stage`` class, passed in so this
    module imports nothing from the package under test.  The wrapper
    keeps the stage's name and deadline policy, so the pass manager
    records and schedules it exactly as before.
    """

    class TracedStage(stage_base):
        name = inner.name
        deadline_policy = getattr(inner, "deadline_policy", "abort")

        def skip(self, artifact, context):
            return inner.skip(artifact, context)

        def run(self, artifact, context):
            with recorder.span(f"{pipeline}.{inner.name}") as span:
                artifact = inner.run(artifact, context)
            if inner.name == "sample" and artifact.sampleset is not None:
                info = artifact.sampleset.info
                span["read_sweeps"] = int(
                    info.get("num_reads", len(artifact.sampleset))
                ) * int(info.get("num_sweeps", 0))
            return artifact

        def counters(self, artifact, context):
            return inner.counters(artifact, context)

    return TracedStage()
