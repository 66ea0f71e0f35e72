"""Tests for the staged pass-pipeline layer (pipeline, stats, caches).

Covers stage ordering, per-stage stats population on both the compile
and run pipelines, compilation-cache hit/miss/invalidation behavior,
embedding-cache reuse across runs of the same compiled program, and
the CLI flags.
"""

import os

import pytest

from repro import CompileOptions, VerilogAnnealerCompiler
from repro.core.cache import (
    CompilationCache,
    EmbeddingCache,
    options_fingerprint,
)
from repro.core.cli import main
from repro.core.pipeline import (
    PassManager,
    PipelineContext,
    Stage,
    StageRecord,
    format_pass_table,
)
from repro.hardware.embedding import graph_fingerprint
from repro.qmasm.runner import QmasmRunner
from repro.solvers.machine import DWaveSimulator, MachineProperties
from tests.conftest import FIGURE_2A, LISTING_3_COUNTER

COMPILE_STAGES = [
    "elaborate",
    "optimize",
    "techmap",
    "unroll",
    "emit_edif",
    "edif_roundtrip",
    "translate_qmasm",
    "assemble",
]
RUN_STAGES = [
    "roof_duality",
    "find_embedding",
    "scale_to_hardware",
    "sample",
    "unembed",
    "postprocess",
    "corrupt_reads",
    "certify",
    "repair",
]

AND_PROGRAM = "!include <stdcell>\n!use_macro AND g\n"

#: A one-gate design whose logical graph embeds into the tiny (C4) test
#: machine quickly; FIGURE_2A's ~74-variable graph needs the full C16.
TINY_AND = """
module tiny (a, b, y);
    input a, b;
    output y;
    assign y = a & b;
endmodule
"""


@pytest.fixture()
def fresh_compiler():
    """A compiler with its own (empty) caches, on a tiny machine."""
    machine = DWaveSimulator(
        properties=MachineProperties(cells=4, dropout_fraction=0.0), seed=0
    )
    return VerilogAnnealerCompiler(machine=machine, seed=0)


# ----------------------------------------------------------------------
# PassManager / stage-record mechanics
# ----------------------------------------------------------------------
class _Doubler(Stage):
    name = "double"

    def run(self, artifact, context):
        return artifact * 2

    def counters(self, artifact, context):
        return {"value": artifact}


class _DoubleAgain(_Doubler):
    name = "double_again"


class _SkipMe(Stage):
    name = "skipped_stage"

    def skip(self, artifact, context):
        return True

    def run(self, artifact, context):  # pragma: no cover
        raise AssertionError("skipped stage must not run")


def _executed(stats):
    return [name for name, record in stats.items() if not record.skipped]


def test_pass_manager_runs_stages_in_order():
    context = PipelineContext()
    result = PassManager([_Doubler(), _SkipMe(), _DoubleAgain()]).run(3, context)
    assert result == 12
    assert list(context.stats) == ["double", "skipped_stage", "double_again"]
    assert _executed(context.stats) == ["double", "double_again"]
    assert context.stats["skipped_stage"].skipped


def test_pass_manager_rejects_a_repeated_name():
    ran = []

    class _Twice(Stage):
        name = "double"

        def run(self, artifact, context):
            ran.append(self)
            return artifact

    with pytest.raises(ValueError, match="double"):
        PassManager([_Twice(), _Twice()]).run(3, PipelineContext())
    assert ran == []


def test_pass_manager_records_counters_and_times():
    context = PipelineContext()
    PassManager([_Doubler()]).run(5, context)
    record = context.stats["double"]
    assert record.counters == {"value": 10}
    assert record.wall_time_s >= 0.0
    with pytest.raises(KeyError):
        context.stats["missing"]


def test_stats_format_table_lists_every_stage():
    stats = {
        "alpha": StageRecord("alpha", 0.25, {"cells": 7}),
        "beta": StageRecord("beta", 0.5, cached=True),
    }
    table = format_pass_table(stats, "passes:")
    assert "passes:" in table
    assert "alpha" in table and "beta" in table
    assert "cells=7" in table
    assert "cached" in table
    assert "total" in table


# ----------------------------------------------------------------------
# Compile pipeline: ordering and stats population
# ----------------------------------------------------------------------
def test_compile_stats_cover_every_stage(fresh_compiler):
    program = fresh_compiler.compile(FIGURE_2A)
    assert list(program.stats) == COMPILE_STAGES
    # Combinational design: everything but unroll actually runs.
    assert _executed(program.stats) == [
        s for s in COMPILE_STAGES if s != "unroll"
    ]
    for record in program.stats.values():
        assert record.wall_time_s >= 0.0
    assert program.stats["elaborate"].counters["cells"] > 0
    assert program.stats["emit_edif"].counters["edif_lines"] > 0
    assert program.stats["translate_qmasm"].counters["qmasm_lines"] > 0
    assert program.stats["assemble"].counters["variables"] > 0
    assert program.stats["assemble"].counters["couplers"] > 0


def test_compile_stats_unroll_runs_for_sequential(fresh_compiler):
    program = fresh_compiler.compile(LISTING_3_COUNTER, unroll_steps=2)
    unroll = program.stats["unroll"]
    assert not unroll.skipped
    assert unroll.counters["steps"] == 2
    assert unroll.counters["cells"] > 0


def test_disabled_passes_are_recorded_as_skipped(fresh_compiler):
    program = fresh_compiler.compile(
        FIGURE_2A, run_optimizer=False, run_techmap=False
    )
    assert program.stats["optimize"].skipped
    assert program.stats["techmap"].skipped
    assert not program.stats["elaborate"].skipped


# ----------------------------------------------------------------------
# Compilation cache
# ----------------------------------------------------------------------
def test_repeated_compile_hits_cache(fresh_compiler):
    first = fresh_compiler.compile(FIGURE_2A)
    assert fresh_compiler.compile_cache.stats.hits == 0
    second = fresh_compiler.compile(FIGURE_2A)
    assert second is first
    assert fresh_compiler.compile_cache.stats.hits == 1


def test_cache_invalidated_by_option_change(fresh_compiler):
    first = fresh_compiler.compile(FIGURE_2A)
    other = fresh_compiler.compile(FIGURE_2A, run_techmap=False)
    assert other is not first
    assert fresh_compiler.compile_cache.stats.hits == 0
    # Equal options (object vs kwargs spelling) share one entry.
    again = fresh_compiler.compile(FIGURE_2A, CompileOptions(run_techmap=False))
    assert again is other


def test_cache_invalidated_by_source_change(fresh_compiler):
    first = fresh_compiler.compile(FIGURE_2A)
    changed = fresh_compiler.compile(FIGURE_2A + "\n// comment\n")
    assert changed is not first
    assert fresh_compiler.compile_cache.stats.hits == 0


def test_cache_disabled_recompiles():
    compiler = VerilogAnnealerCompiler(seed=0, cache=False)
    first = compiler.compile(FIGURE_2A)
    second = compiler.compile(FIGURE_2A)
    assert second is not first
    assert compiler.compile_cache.stats.hits == 0
    assert not compiler.runner.embedding_cache.enabled


def test_disk_cache_shared_between_compilers(tmp_path):
    cache_dir = str(tmp_path / "cache")
    producer = VerilogAnnealerCompiler(seed=0, cache_dir=cache_dir)
    producer.compile(FIGURE_2A)
    consumer = VerilogAnnealerCompiler(seed=0, cache_dir=cache_dir)
    program = consumer.compile(FIGURE_2A)
    assert consumer.compile_cache.stats.hits == 1
    assert program.statistics()["verilog_lines"] == 5


def test_options_fingerprint_is_field_sensitive():
    a = options_fingerprint(CompileOptions())
    b = options_fingerprint(CompileOptions(unroll_steps=4))
    c = options_fingerprint(CompileOptions())
    assert a != b
    assert a == c


def test_compilation_cache_key_depends_on_source_and_options():
    base = CompilationCache.key_for("module m; endmodule", CompileOptions())
    assert base == CompilationCache.key_for("module m; endmodule", CompileOptions())
    assert base != CompilationCache.key_for("module n; endmodule", CompileOptions())
    assert base != CompilationCache.key_for(
        "module m; endmodule", CompileOptions(unroll_steps=2)
    )


# ----------------------------------------------------------------------
# Crash-safe disk tier (atomic temp-file + rename writes)
# ----------------------------------------------------------------------
_KILL_MID_WRITE_CHILD = """
import os
import sys
import time

from repro.core.cache import ArtifactCache

cache = ArtifactCache(cache_dir=sys.argv[1])
real_fsync = os.fsync


def fsync_then_hang(fd):
    # The temp file's bytes are durable, but os.replace() has not run
    # yet: SIGKILL here is exactly "process died mid-store".
    real_fsync(fd)
    print("MID-WRITE", flush=True)
    time.sleep(60)


os.fsync = fsync_then_hang
cache.put(sys.argv[2], "NEW-" + "x" * 100000)
"""


def test_kill_mid_write_never_leaves_a_corrupt_entry(tmp_path):
    """SIGKILL between temp-write and rename must not corrupt the cache.

    A previous valid entry under the same key survives intact, the
    final path never shows a partial pickle, and a fresh cache reads
    cleanly with zero disk errors (the pre-atomic code wrote straight
    to ``<key>.pkl.tmp`` then renamed without fsync, and before PR 1
    to the final name directly -- both could leave torn entries).
    """
    import signal
    import subprocess
    import sys

    import repro.core.cache as cache_mod
    from repro.core.cache import ArtifactCache

    cache_dir = str(tmp_path / "cache")
    key = "entry"
    seeded = ArtifactCache(cache_dir=cache_dir)
    seeded.put(key, "OLD")

    src_dir = os.path.dirname(  # .../src, from src/repro/core/cache.py
        os.path.dirname(os.path.dirname(os.path.dirname(cache_mod.__file__)))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", _KILL_MID_WRITE_CHILD, cache_dir, key],
        stdout=subprocess.PIPE,
        env=env,
    )
    try:
        line = child.stdout.readline()
        assert b"MID-WRITE" in line, "child never reached the write window"
        child.kill()  # SIGKILL: no cleanup handlers run
    finally:
        child.wait()
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL

    # The interrupted overwrite left its temp file (if anything) but
    # the final name still holds the old, fully-written entry.
    leftovers = sorted(os.listdir(cache_dir))
    assert f"{key}.pkl" in leftovers
    assert all(
        name == f"{key}.pkl" or ".tmp" in name for name in leftovers
    )

    fresh = ArtifactCache(cache_dir=cache_dir)
    assert fresh.get(key) == "OLD"
    assert fresh.stats.disk_errors == 0


def test_failed_disk_write_cleans_up_temp_file(tmp_path, monkeypatch):
    """A failed rename degrades to memory-only and removes its temp."""
    from repro.core.cache import ArtifactCache

    cache_dir = str(tmp_path / "cache")
    cache = ArtifactCache(cache_dir=cache_dir)

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("repro.core.cache.os.replace", broken_replace)
    cache.put("key", "value")
    assert cache.stats.disk_errors == 1
    assert os.listdir(cache_dir) == []  # no final entry, no stray temp
    assert cache.get("key") == "value"  # memory tier still serves it

    monkeypatch.undo()
    fresh = ArtifactCache(cache_dir=cache_dir)
    assert fresh.get("key") is None  # disk tier was a clean miss


# ----------------------------------------------------------------------
# Run pipeline: stats and the embedding cache
# ----------------------------------------------------------------------
def test_run_stats_cover_every_stage(fresh_compiler):
    program = fresh_compiler.compile(FIGURE_2A)
    result = fresh_compiler.run(program, solver="exact")
    assert list(result.stats) == RUN_STAGES
    # Classical solver: only 'sample' runs, embedding stages skip.
    assert _executed(result.stats) == ["sample"]
    assert result.stats["sample"].counters["samples"] == len(result.sampleset)


def test_dwave_run_stats_populate_embedding_stages(fresh_compiler):
    result = fresh_compiler.run(TINY_AND, solver="dwave", num_reads=20)
    for name in ("find_embedding", "scale_to_hardware", "sample", "unembed"):
        assert not result.stats[name].skipped, name
    embed = result.stats["find_embedding"]
    assert embed.counters["physical_qubits"] >= embed.counters["variables"]
    scale = result.stats["scale_to_hardware"]
    assert scale.counters["physical_variables"] >= result.num_logical_variables()
    assert result.info["wall_time_s"] > 0.0


def test_embedding_cache_reused_across_runs(fresh_compiler):
    program = fresh_compiler.compile(TINY_AND)
    first = fresh_compiler.run(program, solver="dwave", num_reads=10)
    assert first.info["embedding_cache"] == "miss"
    assert not first.stats["find_embedding"].cached
    second = fresh_compiler.run(program, solver="dwave", num_reads=10)
    assert second.info["embedding_cache"] == "hit"
    assert second.stats["find_embedding"].cached
    assert second.embedding.chains == first.embedding.chains


def test_embedding_cache_reused_across_different_pins(fresh_compiler):
    """Pins only bias existing variables -- the interaction graph, and
    therefore the embedding, is identical."""
    program = fresh_compiler.compile(TINY_AND)
    fresh_compiler.run(
        program, pins=["a := 1", "b := 0"], solver="dwave", num_reads=10
    )
    rerun = fresh_compiler.run(
        program, pins=["a := 0", "b := 1"], solver="dwave", num_reads=10
    )
    assert rerun.info["embedding_cache"] == "hit"


def test_roof_duality_changes_embedding_cache_key(fresh_compiler):
    """Roof duality elides variables, producing a different logical
    graph -- it must never reuse the full graph's embedding."""
    program = fresh_compiler.compile(TINY_AND)
    fresh_compiler.run(
        program, pins=["a := 1", "b := 1"], solver="dwave", num_reads=10
    )
    elided = fresh_compiler.run(
        program,
        pins=["a := 1", "b := 1"],
        solver="dwave",
        num_reads=10,
        use_roof_duality=True,
    )
    assert elided.info["roof_duality_fixed"] > 0
    # Either the reduced graph embeds afresh, or everything was elided
    # and no embedding was needed at all -- but never a stale hit.
    assert elided.info.get("embedding_cache") != "hit"


def test_explicit_embedding_seed_misses_cache(fresh_compiler):
    """Section 6.1's variance sweep re-embeds per seed; an explicit
    seed must bypass entries recorded under other seeds."""
    program = fresh_compiler.compile(TINY_AND)
    fresh_compiler.run(program, solver="dwave", num_reads=10)
    reseeded = fresh_compiler.run(
        program, solver="dwave", num_reads=10, embedding_seed=123
    )
    assert reseeded.info["embedding_cache"] == "miss"


def test_runner_embedding_cache_disabled():
    machine = DWaveSimulator(
        properties=MachineProperties(cells=4, dropout_fraction=0.0), seed=0
    )
    runner = QmasmRunner(
        machine=machine, seed=0, embedding_cache=EmbeddingCache(enabled=False)
    )
    first = runner.run(AND_PROGRAM, solver="dwave", num_reads=10)
    second = runner.run(AND_PROGRAM, solver="dwave", num_reads=10)
    assert first.info["embedding_cache"] == "off"
    assert second.info["embedding_cache"] == "off"
    assert runner.embedding_cache.stats.hits == 0


def test_graph_fingerprint_tracks_structure():
    import networkx as nx

    a = nx.Graph([("x", "y"), ("y", "z")])
    b = nx.Graph([("y", "z"), ("x", "y")])  # same structure, other order
    c = nx.Graph([("x", "y")])
    assert graph_fingerprint(a) == graph_fingerprint(b)
    assert graph_fingerprint(a) != graph_fingerprint(c)


# ----------------------------------------------------------------------
# run() with raw source and compile options (satellite fix)
# ----------------------------------------------------------------------
def test_run_raw_source_accepts_compile_options(fresh_compiler):
    options = CompileOptions(unroll_steps=2, initial_state=0)
    result = fresh_compiler.run(
        LISTING_3_COUNTER,
        solver="sa",
        num_reads=40,
        compile_options=options,
    )
    assert result.solutions


def test_run_raw_sequential_source_without_options_still_raises(fresh_compiler):
    with pytest.raises(ValueError):
        fresh_compiler.run(LISTING_3_COUNTER, solver="sa")


def test_run_rejects_compile_options_for_compiled_program(fresh_compiler):
    program = fresh_compiler.compile(FIGURE_2A)
    with pytest.raises(TypeError):
        fresh_compiler.run(
            program, solver="exact", compile_options=CompileOptions()
        )


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
@pytest.fixture()
def verilog_file(tmp_path):
    path = tmp_path / "circuit.v"
    path.write_text(FIGURE_2A)
    return str(path)


def test_cli_time_passes(verilog_file, capsys):
    assert main([verilog_file, "--time-passes"]) == 0
    out = capsys.readouterr().out
    for stage in COMPILE_STAGES:
        assert stage in out
    assert "total" in out


def test_cli_time_passes_with_run(verilog_file, capsys):
    code = main(
        [
            verilog_file, "--run", "--solver", "exact", "--time-passes",
            "--pin", "s := 1", "--pin", "a := 1", "--pin", "b := 1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "compile passes:" in out
    assert "run passes:" in out
    assert "sample" in out


def test_cli_stats_flag(verilog_file, capsys):
    assert main([verilog_file, "--stats"]) == 0
    out = capsys.readouterr().out
    assert "logical variables" in out
    # --stats suppresses the default qmasm dump.
    assert "!use_macro" not in out


def test_cli_no_cache(verilog_file, capsys):
    assert main([verilog_file, "--no-cache"]) == 0
    assert "!use_macro" in capsys.readouterr().out
