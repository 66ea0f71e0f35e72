"""End-to-end observability: tracing + metrics through real runs.

Runs the paper's map-coloring example (Listing 7) under an installed
tracer and asserts the span tree covers every compile and run stage,
the solver/cache metrics land on the ambient registry, and -- the key
determinism property -- two same-seed runs produce *identical* trace
content once timestamps are stripped.  A second, smaller hardware run
exercises the embedding and retry/fallback instrumentation.
"""

import json

from repro.core import trace
from repro.core.compiler import VerilogAnnealerCompiler
from repro.core.faults import FaultSpec
from repro.qmasm.runner import QmasmRunner, RetryPolicy
from repro.solvers.machine import DWaveSimulator, MachineProperties

from tests.conftest import LISTING_7_AUSTRALIA

AND_PROGRAM = "!include <stdcell>\n!use_macro AND g\n"

COMPILE_STAGES = [
    "compile.elaborate",
    "compile.optimize",
    "compile.techmap",
    "compile.unroll",
    "compile.emit_edif",
    "compile.edif_roundtrip",
    "compile.translate_qmasm",
    "compile.assemble",
]
RUN_STAGES = [
    "run.roof_duality",
    "run.find_embedding",
    "run.scale_to_hardware",
    "run.sample",
    "run.unembed",
    "run.postprocess",
    "run.corrupt_reads",
    "run.certify",
    "run.repair",
]


def _map_coloring_run(seed=7):
    """One full compile+run of Listing 7 on a fresh compiler.

    A fresh compiler per call means fresh caches, so repeat calls do
    identical work -- which is what makes their traces comparable.
    """
    compiler = VerilogAnnealerCompiler(seed=seed)
    program = compiler.compile(LISTING_7_AUSTRALIA)
    result = compiler.run(
        program,
        pins=["valid := true"],
        solver="sa",
        num_reads=40,
        num_sweeps=64,
    )
    return program, result


class TestTracedRun:
    def test_span_tree_covers_all_stages(self):
        with trace.capture() as (tracer, metrics):
            _map_coloring_run()
        names = set(tracer.span_names())
        for stage in COMPILE_STAGES:
            assert stage in names, f"missing compile span {stage}"
        for stage in RUN_STAGES:
            assert stage in names, f"missing run span {stage}"
        # The stage spans nest under their pipeline roots.
        compile_root = tracer.find("compile")
        assert compile_root is not None
        assert "compile.techmap" in compile_root.span_names()
        run_root = tracer.find("run")
        assert run_root is not None
        assert run_root.attributes["solver"] == "sa"
        assert "run.sample" in run_root.span_names()
        # The solver's own span nests under the sample stage.
        sample = run_root.find("run.sample")
        assert sample.find("solver.sa.sample") is not None

    def test_stage_spans_carry_pipeline_attributes(self):
        with trace.capture() as (tracer, _):
            program, result = _map_coloring_run()
        techmap = tracer.find("compile.techmap")
        assert techmap.attributes["skipped"] is False
        assert techmap.attributes["cells"] == (
            program.stats["techmap"].counters["cells"]
        )
        sample = tracer.find("run.sample")
        assert sample.attributes["samples"] == len(result.sampleset)
        assert sample.attributes["kernel"] == result.sampleset.info["kernel"]

    def test_solver_and_cache_metrics_present(self):
        with trace.capture() as (_, metrics):
            _map_coloring_run()
        assert metrics.value("solver.sa.samples") >= 1
        kernel_counters = [
            name for name in metrics.names()
            if name.startswith("solver.kernel.")
        ]
        assert kernel_counters, "no kernel-choice counter recorded"
        assert metrics.histogram("solver.energy").count >= 40
        assert metrics.histogram("solver.sweeps_per_s").count >= 1
        assert metrics.value("cache.compile.misses") == 1
        assert metrics.value("cache.compile.stores") == 1

    def test_run_result_exposes_metrics_and_trace(self):
        with trace.capture():
            _, result = _map_coloring_run()
        assert result.trace is not None
        assert result.trace.name == "run"
        assert "run.sample" in result.trace.span_names()
        assert result.metrics is not None
        assert int(result.metrics.value("runner.sample_attempts")) == 0

    def test_trace_handle_is_none_when_disabled(self):
        _, result = _map_coloring_run()
        assert result.trace is None
        assert result.metrics is not None  # run-scoped registry always kept

    def test_same_seed_runs_trace_identically(self):
        """Trace *content* is deterministic; only timestamps differ."""
        with trace.capture() as (first, _):
            _map_coloring_run(seed=7)
        with trace.capture() as (second, _):
            _map_coloring_run(seed=7)
        first_content = first.content()
        second_content = second.content()
        assert first_content == second_content
        # And the equality is meaningful: the tree is substantial.
        text = json.dumps(first_content)
        assert len(first.span_names()) > 10
        assert "run.sample" in text

    def test_chrome_export_of_real_run(self, tmp_path):
        with trace.capture() as (tracer, _):
            _map_coloring_run()
        path = tmp_path / "run.json"
        tracer.write_chrome_trace(str(path))
        data = json.loads(path.read_text())
        names = {e["name"] for e in data["traceEvents"]}
        for stage in COMPILE_STAGES + RUN_STAGES:
            assert stage in names
        assert all("ts" in e and "pid" in e for e in data["traceEvents"])


class TestHardwareRunMetrics:
    def _machine(self, faults=None):
        return DWaveSimulator(
            properties=MachineProperties(cells=4, dropout_fraction=0.0),
            seed=0,
            faults=faults,
        )

    def test_embedding_metrics_recorded(self):
        with trace.capture() as (tracer, metrics):
            runner = QmasmRunner(machine=self._machine(), seed=0)
            result = runner.run(AND_PROGRAM, solver="dwave", num_reads=20)
        assert result.info["answered_by"] == "dwave"
        span = tracer.find("embed.find_embedding")
        assert span is not None
        assert span.attributes["attempts"] >= 1
        assert span.attributes["physical_qubits"] >= 1
        assert metrics.value("embed.attempts") >= 1
        assert metrics.value("embed.restarts") >= 1
        chains = metrics.histogram("embed.chain_length")
        assert chains.count >= 1
        assert chains.min >= 1
        # The machine's sample span is nested inside the run tree.
        assert tracer.find("solver.dwave.sample") is not None

    def test_retry_and_fallback_metrics(self):
        faults = FaultSpec(fail_first_samples=2, seed=3)
        with trace.capture() as (tracer, metrics):
            runner = QmasmRunner(machine=self._machine(faults=faults), seed=0)
            policy = RetryPolicy(max_sample_attempts=3)
            result = runner.run(
                AND_PROGRAM, solver="dwave", num_reads=20, retry_policy=policy
            )
        assert result.info["answered_by"] == "dwave"
        assert metrics.value("runner.sample_attempts") == 3
        assert metrics.value("runner.sample_retries") == 2
        assert metrics.value("runner.sample_failures") == 2
        # Retries surface as instant events inside the sample span.
        sample = tracer.find("run.sample")
        retry_events = [e for e in sample.events if e["name"] == "runner.retry"]
        assert len(retry_events) == 2
        # The single-source property: the run's own registry agrees with
        # info["resilience"] and the stage counters, because they are
        # all the same numbers.
        assert result.info["resilience"]["sample_retries"] == 2
        assert result.metrics.value("runner.sample_retries") == 2

    def test_fallback_metrics(self):
        faults = FaultSpec(fail_first_samples=99, seed=3)
        with trace.capture() as (tracer, metrics):
            runner = QmasmRunner(machine=self._machine(faults=faults), seed=0)
            policy = RetryPolicy(max_sample_attempts=2)
            result = runner.run(
                AND_PROGRAM, solver="dwave", num_reads=20, retry_policy=policy
            )
        assert result.info["answered_by"] != "dwave"
        assert metrics.value("runner.fallbacks") == 1
        assert metrics.value("runner.fallback_depth") >= 1
        assert result.info["resilience"]["fallback_depth"] >= 1

    def test_resilience_zeros_stay_omitted(self):
        """Quiet runs keep a quiet summary (no zero-valued entries)."""
        with trace.capture():
            runner = QmasmRunner(machine=self._machine(), seed=0)
            result = runner.run(AND_PROGRAM, solver="dwave", num_reads=10)
        assert result.info["resilience"].get("sample_retries") is None
        assert result.info["resilience"].get("fallback_depth") is None
        assert result.info["resilience"]["sample_attempts"] == 1
