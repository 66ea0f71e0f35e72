"""Integration tests for the end-to-end compiler pipeline."""

import pytest

from repro import CompileOptions, compile_verilog, run_verilog
from tests.conftest import FIGURE_2A, LISTING_3_COUNTER, LISTING_5_CIRCSAT


# ----------------------------------------------------------------------
# Compilation artifacts
# ----------------------------------------------------------------------
def test_compile_produces_every_artifact(figure2_program):
    program = figure2_program
    assert program.verilog_source.strip().startswith("module circuit")
    assert program.netlist.num_cells() > 0
    assert "(edif" in program.edif_text
    assert "!include <stdcell>" in program.qmasm_source
    assert len(program.logical.variables) > 0


def test_statistics_fields(figure2_program):
    stats = figure2_program.statistics()
    for key in (
        "verilog_lines", "edif_lines", "qmasm_lines",
        "cells", "num_cells", "logical_variables", "logical_terms",
    ):
        assert key in stats
    assert stats["verilog_lines"] == 5  # module/input/output/assign/endmodule
    assert stats["logical_variables"] > stats["num_cells"]


def test_compile_options_vs_kwargs(compiler):
    options = CompileOptions(run_techmap=False)
    by_options = compiler.compile(FIGURE_2A, options)
    by_kwargs = compiler.compile(FIGURE_2A, run_techmap=False)
    assert by_options.netlist.cell_histogram() == by_kwargs.netlist.cell_histogram()
    with pytest.raises(TypeError):
        compiler.compile(FIGURE_2A, options, run_techmap=False)


def test_optimizer_flag_controls_cell_count(compiler):
    unoptimized = compiler.compile(
        FIGURE_2A, run_optimizer=False, run_techmap=False
    )
    optimized = compiler.compile(FIGURE_2A, run_techmap=False)
    assert optimized.netlist.num_cells() <= unoptimized.netlist.num_cells()


def test_simulator_accessor(figure2_program):
    simulator = figure2_program.simulator()
    assert simulator.evaluate({"s": 1, "a": 1, "b": 1})["c"] == 2
    assert simulator.evaluate({"s": 0, "a": 1, "b": 1})["c"] == 0


def test_sequential_design_requires_unroll_steps(compiler):
    with pytest.raises(ValueError):
        compiler.compile(LISTING_3_COUNTER)


def test_sequential_design_unrolls(compiler):
    program = compiler.compile(LISTING_3_COUNTER, unroll_steps=2, initial_state=0)
    assert not program.netlist.has_sequential()
    assert "out@0" in program.netlist.ports
    assert "out@1" in program.netlist.ports


# ----------------------------------------------------------------------
# Execution: forward and backward
# ----------------------------------------------------------------------
def test_forward_run_matches_simulation(compiler, figure2_program):
    simulator = figure2_program.simulator()
    for s, a, b in ((0, 0, 0), (0, 1, 0), (1, 1, 1)):
        result = compiler.run(
            figure2_program,
            pins=[f"s := {s}", f"a := {a}", f"b := {b}"],
            solver="exact",
        )
        best = result.valid_solutions[0]
        assert best.value_of("c") == simulator.evaluate({"s": s, "a": a, "b": b})["c"]


def test_backward_run_inverts_circuit(compiler, figure2_program):
    # c = 10 with s = 1 (addition): a + b must be 2, so a = b = 1.
    result = compiler.run(
        figure2_program, pins=["s := 1", "c[1:0] := 10"], solver="exact"
    )
    best = result.valid_solutions[0]
    assert (best.value_of("a"), best.value_of("b")) == (1, 1)


def test_invalid_relation_not_in_ground_states(compiler, figure2_program):
    """The paper: H is minimized at valid relations, e.g. NOT at
    {s=1, a=0, b=0, c=11}."""
    result = compiler.run(
        figure2_program, pins=["s := 1", "a := 0", "b := 0"], solver="exact"
    )
    best = result.valid_solutions[0]
    assert best.value_of("c") == 0  # not 0b11


def test_run_accepts_raw_source(compiler):
    result = compiler.run(
        FIGURE_2A, pins=["s := 1", "a := 1", "b := 0"], solver="exact"
    )
    assert result.valid_solutions[0].value_of("c") == 1


def test_run_verilog_convenience():
    result = run_verilog(
        LISTING_5_CIRCSAT,
        pins=["y := true"],
        solver="exact",
        seed=0,
    )
    best = result.valid_solutions[0]
    assert (best.value_of("a"), best.value_of("b"), best.value_of("c")) == (1, 1, 0)


def test_run_verilog_passes_run_options_through():
    result = run_verilog(
        LISTING_5_CIRCSAT,
        pins=["y := true"],
        solver="exact",
        certify=True,
        seed=0,
    )
    assert result.certificate is not None
    assert result.certificate.total_reads == len(result.sampleset)


def test_run_verilog_rejects_unknown_keyword():
    with pytest.raises(TypeError, match="bogus_option"):
        run_verilog(LISTING_5_CIRCSAT, bogus_option=1)


def test_compile_verilog_convenience():
    program = compile_verilog(FIGURE_2A, seed=0)
    assert program.statistics()["verilog_lines"] == 5


# ----------------------------------------------------------------------
# Cross-check: annealed results always verify against the simulator
# ----------------------------------------------------------------------
def test_all_valid_solutions_verify_forward(compiler, circsat_program):
    """NP methodology (Section 5.1): check every proposal in poly time."""
    result = compiler.run(
        circsat_program, pins=["y := true"], solver="sa", num_reads=60
    )
    simulator = circsat_program.simulator()
    assert result.valid_solutions
    for solution in result.valid_solutions:
        inputs = {
            name: solution.value_of(name) for name in ("a", "b", "c")
        }
        assert simulator.evaluate(inputs)["y"] == 1
