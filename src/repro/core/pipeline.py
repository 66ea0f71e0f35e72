"""Staged pass-pipeline infrastructure for the compiler and runner.

The paper's toolchain is a straight line (Verilog -> EDIF -> QMASM ->
logical Ising -> embedded physical Ising -> anneal), and qmasm itself
separates assemble / embed / anneal phases.  This module makes that
structure explicit: every lowering and execution step is a
:class:`Stage` with a uniform ``run(artifact, context)`` interface, and
a :class:`PassManager` drives an ordered stage list while recording, for
every stage, wall time and artifact-size counters into a
:class:`StageRecord`, keyed by stage name.

The payoff is threefold:

* **observability** -- ``CompiledProgram.stats`` and ``RunResult.stats``
  expose a per-stage timing/size table (``--time-passes`` on the CLI),
  and every stage runs inside a trace span for external profilers;
* **configurability** -- drivers hold plain stage lists that callers can
  reorder, extend, or replace;
* **cacheability** -- stages can consult the content-addressed caches in
  :mod:`repro.core.cache` and mark their records as cache hits, so
  repeated compilations and repeated embeddings of the same logical
  graph are skipped entirely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core import trace as _trace
from repro.core.deadline import Deadline
from repro.core.trace import MetricsRegistry

@dataclass
class StageRecord:
    """One stage's observation: how long it took and what it produced.

    Attributes:
        name: the stage's name.
        wall_time_s: wall-clock seconds spent inside the stage.
        counters: artifact-size counters after the stage ran (cells,
            variables, couplers, lines, ...), stage-specific.
        cached: the stage satisfied its work from a cache.
        skipped: the stage did not apply (e.g. ``unroll`` on a purely
            combinational design) and passed the artifact through.
    """

    name: str
    wall_time_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    cached: bool = False
    skipped: bool = False


#: Per-stage records of one pipeline execution, keyed by stage name in
#: execution order (``CompiledProgram.stats``, ``RunResult.stats``).
PipelineStats = Dict[str, StageRecord]


def format_pass_table(stats: PipelineStats, title: Optional[str] = None) -> str:
    """An aligned, human-readable per-stage table.

    This is what ``--time-passes`` prints::

        stage             time      notes
        elaborate         0.0021s   cells=13
        ...
        total             0.0214s
    """
    rows: List[tuple] = []
    for record in stats.values():
        notes = []
        if record.skipped:
            notes.append("skipped")
        if record.cached:
            notes.append("cached")
        notes.extend(
            f"{key}={_format_count(value)}"
            for key, value in record.counters.items()
        )
        rows.append((record.name, f"{record.wall_time_s:.4f}s", " ".join(notes)))
    total = sum(record.wall_time_s for record in stats.values())
    rows.append(("total", f"{total:.4f}s", ""))
    name_w = max(len(r[0]) for r in rows)
    time_w = max(len(r[1]) for r in rows)
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'stage':<{name_w}}  {'time':>{time_w}}  notes")
    for name, elapsed, notes in rows:
        lines.append(f"{name:<{name_w}}  {elapsed:>{time_w}}  {notes}".rstrip())
    return "\n".join(lines)


def _format_count(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3g}"
    if isinstance(value, (int, float)):
        return str(int(value))
    # Non-numeric counters (e.g. the sweep-kernel name) pass through.
    return str(value)


class PipelineContext:
    """Everything a stage may consult besides the artifact itself.

    Attributes:
        options: the driver's option object (:class:`CompileOptions` for
            compilation, a :class:`~repro.qmasm.runner.RunOptions` for
            execution).
        deadline: optional :class:`~repro.core.deadline.Deadline` the
            :class:`PassManager` enforces between stages (and stages
            may thread into their samplers for cooperative
            interruption).  None means unbounded.
        stats: the per-stage records, keyed by stage name in execution
            order.
        metrics: the run-scoped :class:`~repro.core.trace.MetricsRegistry`
            stages record counters into.  Parented to the ambient
            process registry, so every increment is visible both on this
            run's result and in the process-wide summary without ever
            being computed twice.
    """

    def __init__(self, options: Any = None, deadline: Optional[Deadline] = None):
        self.options = options
        self.deadline = deadline
        self.stats: PipelineStats = {}
        self.metrics = MetricsRegistry(parent=_trace.metrics())
        self._cached = False
        self._extra_counters: Dict[str, float] = {}

    # -- stage-facing hooks --------------------------------------------
    def mark_cached(self) -> None:
        """Flag the currently running stage's record as a cache hit."""
        self._cached = True

    def add_counters(self, **counters: float) -> None:
        """Attach extra counters to the currently running stage's record."""
        self._extra_counters.update(counters)

    # -- PassManager internals -----------------------------------------
    def _begin_stage(self) -> None:
        self._cached = False
        self._extra_counters = {}


class Stage:
    """One pipeline step: transform an artifact, report its size.

    Subclasses set :attr:`name` and implement :meth:`run`; they may
    override :meth:`skip` (stage does not apply to this artifact) and
    :meth:`counters` (artifact-size metrics recorded after the run).
    """

    name: str = "stage"

    #: What the :class:`PassManager` does when the context deadline has
    #: already expired before this stage starts:
    #:
    #: * ``"abort"`` (default) -- raise
    #:   :class:`~repro.core.deadline.DeadlineExceeded` carrying the
    #:   partial artifact and this stage's span name; right for stages
    #:   whose output later stages cannot do without.
    #: * ``"skip"`` -- record the stage as skipped and move on; right
    #:   for optional refinement (postprocess, repair).
    #: * ``"run"`` -- run anyway; right for cheap stages that convert
    #:   work already paid for into usable results (unembed, certify).
    deadline_policy: str = "abort"

    def run(self, artifact: Any, context: PipelineContext) -> Any:
        raise NotImplementedError

    def skip(self, artifact: Any, context: PipelineContext) -> bool:
        return False

    def counters(self, artifact: Any, context: PipelineContext) -> Dict[str, float]:
        return {}


class PassManager:
    """Run an ordered stage list, instrumenting every stage.

    Stages that declare themselves inapplicable (``skip``) still get a
    record (with ``skipped=True``) so the stats table always shows the
    full pipeline shape.  Records are keyed by stage name, so a stage
    list that repeats a name is a ``ValueError`` before any stage runs.

    Every stage additionally runs inside an ambient trace span named
    ``<pipeline>.<stage>`` (``compile.techmap``, ``run.sample``, ...)
    carrying the stage's cached/skipped flags and counters as span
    attributes -- a no-op unless a tracer is installed
    (:mod:`repro.core.trace`).
    """

    def __init__(self, stages: Sequence[Stage], name: Optional[str] = None):
        self.stages: List[Stage] = list(stages)
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")
        #: Span-name prefix for this pipeline ("compile", "run", ...).
        self.name = name

    def run(self, artifact: Any, context: PipelineContext) -> Any:
        prefix = f"{self.name}." if self.name else ""
        for stage in self.stages:
            if context.deadline is not None and context.deadline.expired():
                policy = getattr(stage, "deadline_policy", "abort")
                if policy == "abort":
                    context.metrics.counter("deadline.expired").inc()
                    context.deadline.check(
                        stage=prefix + stage.name, partial=artifact
                    )
                if policy == "skip":
                    context.metrics.counter("deadline.stages_skipped").inc()
                    context.stats[stage.name] = StageRecord(
                        name=stage.name, skipped=True
                    )
                    continue
                # policy == "run": proceed as normal.
            context._begin_stage()
            with _trace.span(prefix + stage.name) as span:
                start = time.perf_counter()
                skipped = stage.skip(artifact, context)
                if not skipped:
                    artifact = stage.run(artifact, context)
                elapsed = time.perf_counter() - start
                counters: Dict[str, float] = {}
                if not skipped:
                    counters.update(stage.counters(artifact, context))
                counters.update(context._extra_counters)
                span.set_attributes(
                    cached=context._cached, skipped=skipped, **counters
                )
            context.stats[stage.name] = StageRecord(
                name=stage.name,
                wall_time_s=elapsed,
                counters=counters,
                cached=context._cached,
                skipped=skipped,
            )
        return artifact
