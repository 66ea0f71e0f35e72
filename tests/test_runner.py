"""Tests for the qmasm runner (assemble -> embed -> anneal -> report)."""

import dataclasses

import pytest

from repro.core.compiler import VerilogAnnealerCompiler
from repro.core.pipeline import Stage
from repro.qmasm.program import QmasmError
from repro.qmasm.runner import QmasmRunner, RetryPolicy, RunOptions, Solution
from repro.solvers.machine import DWaveSimulator, MachineProperties

AND_PROGRAM = "!include <stdcell>\n!use_macro AND g\n"


@pytest.fixture(scope="module")
def runner():
    machine = DWaveSimulator(
        properties=MachineProperties(cells=4, dropout_fraction=0.0), seed=0
    )
    return QmasmRunner(machine=machine, seed=0)


# ----------------------------------------------------------------------
# Solver paths
# ----------------------------------------------------------------------
def test_exact_solver_enumerates_relation(runner):
    result = runner.run(AND_PROGRAM, solver="exact", num_reads=50)
    truth = {(a, b, a and b) for a in (0, 1) for b in (0, 1)}
    ground = {
        (s.values["g.A"], s.values["g.B"], s.values["g.Y"])
        for s in result.solutions
        if s.energy == pytest.approx(result.solutions[0].energy)
    }
    assert {(bool(a), bool(b), bool(y)) for a, b, y in truth} == ground


def test_sa_solver(runner):
    result = runner.run(AND_PROGRAM, solver="sa", num_reads=30)
    best = result.best
    assert best.values["g.Y"] == (best.values["g.A"] and best.values["g.B"])


def test_tabu_solver(runner):
    result = runner.run(AND_PROGRAM, solver="tabu", num_reads=5)
    assert result.best.valid


def test_qbsolv_solver(runner):
    result = runner.run(AND_PROGRAM, solver="qbsolv", num_reads=2)
    assert result.best.valid


def test_shard_solver(runner):
    result = runner.run(AND_PROGRAM, solver="shard", num_reads=2)
    assert result.best.valid
    assert result.sampleset.info["machines"] == runner.machines


@pytest.mark.parametrize("solver, returned", [("sa", 40), ("sqa", 32)])
def test_info_reports_requested_and_returned_reads(runner, solver, returned):
    """sqa caps a run at 32 reads; info says so instead of hiding it."""
    result = runner.run(AND_PROGRAM, solver=solver, num_reads=40)
    assert result.info["reads_requested"] == 40
    assert result.info["reads_returned"] == returned


def test_dwave_solver_embeds_and_runs(runner):
    result = runner.run(AND_PROGRAM, solver="dwave", num_reads=40)
    assert result.embedding is not None
    assert result.num_physical_qubits() >= result.num_logical_variables()
    assert result.physical_model is not None
    assert "timing" in result.info
    assert result.best.valid


def test_unknown_solver_rejected(runner):
    with pytest.raises(ValueError):
        runner.run(AND_PROGRAM, solver="oracle")


def test_unknown_solver_rejected_before_assembly(runner):
    """The options check fires before the source is even parsed."""
    with pytest.raises(ValueError, match="unknown solver 'bogus'") as error:
        runner.run("not qmasm", solver="bogus")
    assert not isinstance(error.value, QmasmError)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"num_reads": 0}, "num_reads must be positive"),
        ({"num_reads": -3}, "num_reads must be positive"),
        ({"num_sweeps": 0}, "num_sweeps must be positive"),
        ({"num_sweeps": -3}, "num_sweeps must be positive"),
    ],
)
def test_nonpositive_read_and_sweep_counts_rejected(runner, kwargs, message):
    with pytest.raises(ValueError, match=message):
        RunOptions(**kwargs)
    for solver in ("dwave", "sa", "tabu"):
        with pytest.raises(ValueError, match=message):
            runner.run(AND_PROGRAM, solver=solver, **kwargs)


# ----------------------------------------------------------------------
# RunOptions: the one declaration of a run's keywords
# ----------------------------------------------------------------------
class _RecordOptions(Stage):
    """Keeps the options the run's pipeline was given."""

    name = "record_options"

    def __init__(self):
        self.options = None

    def run(self, artifact, context):
        self.options = context.options
        return artifact


class _NoStage(Stage):
    name = "no_stage"

    def run(self, artifact, context):
        raise AssertionError("a stage ran for a run with bad options")


def _every_option():
    """Each RunOptions field by keyword, off its default where the fast
    exact path allows, so a keyword dropped on the way shows."""
    values = dict(
        solver="exact",
        num_reads=7,
        num_sweeps=5,
        max_workers=1,
        annealing_time_us=30.0,
        use_roof_duality=True,
        postprocess="none",
        retry_policy=RetryPolicy(max_sample_attempts=2),
        certify=True,
        repair=True,
        netlist=None,
    )
    assert set(values) == {f.name for f in dataclasses.fields(RunOptions)}
    return values


def test_dwave_postprocess_none_skips_the_stage(runner):
    refined = runner.run(AND_PROGRAM, solver="dwave", num_reads=20)
    assert not refined.stats["postprocess"].skipped
    assert refined.info["postprocess"] == "optimization"

    raw = runner.run(AND_PROGRAM, solver="dwave", num_reads=20, postprocess="none")
    assert raw.stats["postprocess"].skipped
    assert "postprocess" not in raw.info
    assert raw.info["answered_by"] == "dwave"


def test_unknown_postprocess_rejected_before_any_stage():
    with pytest.raises(ValueError, match="unknown postprocess 'sapi'"):
        RunOptions(postprocess="sapi")
    runner = QmasmRunner(seed=0)
    runner.run_stages = [_NoStage()]
    with pytest.raises(ValueError, match="unknown postprocess 'sapi'"):
        runner.run(AND_PROGRAM, postprocess="sapi")
    # Only the dwave tier postprocesses, so only it checks the value.
    assert RunOptions(solver="sa", postprocess="sapi").postprocess == "sapi"


def test_every_run_option_is_a_runner_keyword():
    runner = QmasmRunner(seed=0)
    recorder = _RecordOptions()
    runner.run_stages.insert(0, recorder)
    runner.run(AND_PROGRAM, **_every_option())
    assert recorder.options == RunOptions(**_every_option())


def test_every_run_option_is_a_compiler_keyword():
    compiler = VerilogAnnealerCompiler(seed=0)
    recorder = _RecordOptions()
    compiler.runner.run_stages.insert(0, recorder)
    program = compiler.compile(
        "module g (A, B, Y);\n input A;\n input B;\n output Y;\n"
        " assign Y = A & B;\nendmodule\n"
    )
    compiler.run(program, **_every_option())
    assert recorder.options == RunOptions(**_every_option())


@pytest.mark.parametrize(
    "knob", [{"energy_tolerance": 1e-3}, {"retry": RetryPolicy()}]
)
def test_deleted_run_knobs_rejected_before_assembly(knob, monkeypatch):
    runner = QmasmRunner(seed=0)

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled a program for a run with a bad keyword")

    monkeypatch.setattr(runner, "_to_logical", no_assembly)
    with pytest.raises(TypeError, match=next(iter(knob))):
        runner.run(AND_PROGRAM, solver="exact", **knob)


# ----------------------------------------------------------------------
# Pins (forward and backward execution, Section 4.3.6)
# ----------------------------------------------------------------------
def test_forward_execution(runner):
    result = runner.run(
        AND_PROGRAM, pins=["g.A := true", "g.B := false"], solver="exact"
    )
    best = result.valid_solutions[0]
    assert best.values == {"g.A": True, "g.B": False, "g.Y": False}


def test_backward_execution(runner):
    result = runner.run(AND_PROGRAM, pins=["g.Y := true"], solver="exact")
    best = result.valid_solutions[0]
    assert best.values == {"g.A": True, "g.B": True, "g.Y": True}


def test_pin_of_unknown_variable_rejected(runner):
    with pytest.raises(QmasmError):
        runner.run(AND_PROGRAM, pins=["nope := 1"], solver="exact")


def test_pins_do_not_leak_between_runs(runner):
    first = runner.run(AND_PROGRAM, pins=["g.Y := true"], solver="exact")
    second = runner.run(AND_PROGRAM, pins=["g.Y := false"], solver="exact")
    assert first.valid_solutions[0].values["g.Y"] is True
    assert {
        (s.values["g.A"], s.values["g.B"])
        for s in second.valid_solutions
        if s.energy == pytest.approx(second.valid_solutions[0].energy)
    } == {(False, False), (False, True), (True, False)}


# ----------------------------------------------------------------------
# Roof duality
# ----------------------------------------------------------------------
def test_roof_duality_elides_fully_pinned_program(runner):
    result = runner.run(
        AND_PROGRAM,
        pins=["g.A := true", "g.B := true"],
        solver="exact",
        use_roof_duality=True,
    )
    assert result.info["roof_duality_fixed"] >= 1
    assert result.valid_solutions[0].values["g.Y"] is True


def test_roof_duality_preserves_answers(runner):
    plain = runner.run(AND_PROGRAM, pins=["g.Y := true"], solver="exact")
    elided = runner.run(
        AND_PROGRAM, pins=["g.Y := true"], solver="exact", use_roof_duality=True
    )
    assert (
        plain.valid_solutions[0].values == elided.valid_solutions[0].values
    )


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def test_solutions_sorted_by_energy(runner):
    result = runner.run(AND_PROGRAM, solver="exact", num_reads=64)
    energies = [s.energy for s in result.solutions]
    assert energies == sorted(energies)


def test_dollar_variables_hidden(runner):
    result = runner.run(
        "!include <stdcell>\n!use_macro XOR $g\n", solver="exact"
    )
    assert all(
        "$" not in name for s in result.solutions for name in s.values
    )


def test_assertion_failures_flagged(runner):
    # Force Y toward TRUE while the inputs are pinned FALSE: the
    # energetically best state then violates the macro's Y = A&B assert.
    program = AND_PROGRAM + "g.A := false\ng.B := false\ng.Y -20\n"
    result = runner.run(program, solver="exact")
    worst = result.solutions[0]
    assert worst.failed_assertions or not worst.pins_respected


def test_value_of_assembles_integers():
    solution = Solution(
        values={"C[0]": True, "C[1]": False, "C[2]": True, "flag": False},
        energy=0.0,
        num_occurrences=1,
    )
    assert solution.value_of("C") == 5
    assert solution.value_of("flag") == 0
    with pytest.raises(KeyError):
        solution.value_of("missing")


def test_run_result_accessors(runner):
    result = runner.run(AND_PROGRAM, solver="exact")
    assert result.num_logical_variables() == 3
    assert result.num_physical_qubits() == 0  # no embedding for exact
    assert result.best is result.solutions[0]


def test_machine_created_lazily():
    runner = QmasmRunner(seed=1)
    assert runner.machine is None
    # 'exact' path must not build the (expensive) C16 machine.
    runner.run(AND_PROGRAM, solver="exact")
    assert runner.machine is None
