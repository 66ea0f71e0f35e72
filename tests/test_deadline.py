"""Tests for deadline-aware execution (repro.core.deadline).

Covers the Deadline/Budget primitives, the PassManager's per-stage
deadline policies, cooperative sampler interruption for every backend,
and the runner's end-to-end ``deadline=`` behavior including the
partial-result guarantee.
"""

import pickle
import random
import time

import numpy as np
import pytest

from repro.core.deadline import Budget, Deadline, DeadlineExceeded
from repro.core.pipeline import PassManager, PipelineContext, Stage
from repro.ising.model import IsingModel
from repro.qmasm.runner import QmasmRunner
from repro.solvers.greedy import SteepestDescentSolver
from repro.solvers.machine import DWaveSimulator, MachineProperties
from repro.solvers.neal import SimulatedAnnealingSampler
from repro.solvers.sqa import PathIntegralAnnealer
from repro.solvers.tabu import TabuSampler

AND_PROGRAM = "!include <stdcell>\n!use_macro AND g\n"


def _random_model(seed: int, n: int, density: float = 0.5) -> IsingModel:
    rng = random.Random(seed)
    model = IsingModel()
    for i in range(n):
        model.add_variable(i, rng.uniform(-1, 1))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                model.add_interaction(i, j, rng.uniform(-1, 1))
    return model


class _FakeClock:
    """An injectable monotonic clock tests can advance by hand."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Deadline / Budget primitives
# ----------------------------------------------------------------------
def test_deadline_elapsed_remaining_expired():
    clock = _FakeClock()
    deadline = Deadline(10.0, clock=clock)
    assert deadline.elapsed() == 0.0
    assert deadline.remaining() == 10.0
    assert not deadline.expired()
    clock.now += 4.0
    assert deadline.elapsed() == pytest.approx(4.0)
    assert deadline.remaining() == pytest.approx(6.0)
    clock.now += 7.0
    assert deadline.expired()
    assert deadline.remaining() == 0.0  # clamped, never negative


def test_deadline_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        Deadline(0.0)
    with pytest.raises(ValueError):
        Deadline(-1.0)


def test_deadline_check_raises_structured_error():
    clock = _FakeClock()
    deadline = Deadline(1.0, clock=clock)
    deadline.check(stage="run.sample")  # under budget: no-op
    clock.now += 2.0
    with pytest.raises(DeadlineExceeded) as excinfo:
        deadline.check(stage="run.sample", partial={"some": "artifact"})
    err = excinfo.value
    assert err.stage == "run.sample"
    assert err.budget_s == 1.0
    assert err.elapsed_s == pytest.approx(2.0)
    assert err.partial == {"some": "artifact"}
    assert "run.sample" in str(err)


def test_budget_snapshot_and_rearm():
    clock = _FakeClock()
    deadline = Deadline(10.0, clock=clock)
    clock.now += 4.0
    budget = deadline.budget()
    assert budget.seconds == pytest.approx(6.0)
    # Budgets cross process boundaries; monotonic readings must not.
    budget = pickle.loads(pickle.dumps(budget))
    worker_clock = _FakeClock()
    local = budget.start(clock=worker_clock)
    assert local.budget_s == pytest.approx(6.0)
    assert not local.expired()


def test_spent_budget_rearms_already_expired():
    local = Budget(0.0).start()
    assert local is not None
    assert local.expired()


# ----------------------------------------------------------------------
# PassManager deadline policies
# ----------------------------------------------------------------------
class _MarkStage(Stage):
    def __init__(self, name, policy="abort"):
        self.name = name
        self.deadline_policy = policy
        self.ran = False

    def run(self, artifact, context):
        self.ran = True
        return artifact


def _expired_context():
    clock = _FakeClock()
    deadline = Deadline(1.0, clock=clock)
    clock.now += 2.0
    return PipelineContext(deadline=deadline)


def test_pipeline_abort_policy_raises_with_partial():
    stage = _MarkStage("embed", policy="abort")
    manager = PassManager([stage], name="run")
    context = _expired_context()
    with pytest.raises(DeadlineExceeded) as excinfo:
        manager.run({"partial": True}, context)
    assert excinfo.value.stage == "run.embed"
    assert excinfo.value.partial == {"partial": True}
    assert not stage.ran
    assert context.metrics.counter("deadline.expired").value == 1


def test_pipeline_skip_policy_records_skipped_stage():
    stage = _MarkStage("postprocess", policy="skip")
    manager = PassManager([stage], name="run")
    context = _expired_context()
    artifact = manager.run("artifact", context)
    assert artifact == "artifact"
    assert not stage.ran
    record = context.stats["postprocess"]
    assert record.skipped
    assert context.metrics.counter("deadline.stages_skipped").value == 1


def test_pipeline_run_policy_still_runs():
    stage = _MarkStage("certify", policy="run")
    manager = PassManager([stage], name="run")
    context = _expired_context()
    manager.run("artifact", context)
    assert stage.ran


def test_pipeline_without_deadline_is_unconstrained():
    stage = _MarkStage("anything", policy="abort")
    manager = PassManager([stage], name="run")
    manager.run("artifact", PipelineContext())
    assert stage.ran


# ----------------------------------------------------------------------
# Cooperative sampler interruption
# ----------------------------------------------------------------------
def _expired_deadline():
    clock = _FakeClock()
    deadline = Deadline(1e-3, clock=clock)
    clock.now += 1.0
    return deadline


def test_sa_sampler_interrupts_and_flags():
    model = _random_model(0, 24)
    result = SimulatedAnnealingSampler(seed=0).sample(
        model, num_reads=4, num_sweeps=5000, deadline=_expired_deadline()
    )
    assert len(result) == 4  # partial results, never empty
    assert result.info["deadline_interrupted"] is True
    assert result.info["num_sweeps_completed"] < 5000


def test_sa_sampler_under_budget_is_bit_identical():
    """Deadline polling must consume no RNG: same seed, same samples."""
    model = _random_model(1, 16)
    free = SimulatedAnnealingSampler(seed=7).sample(
        model, num_reads=3, num_sweeps=64
    )
    bounded = SimulatedAnnealingSampler(seed=7).sample(
        model, num_reads=3, num_sweeps=64, deadline=Deadline(3600.0)
    )
    assert np.array_equal(free.records, bounded.records)
    assert "deadline_interrupted" not in bounded.info


def test_sqa_sampler_interrupts_and_flags():
    model = _random_model(2, 16)
    result = PathIntegralAnnealer(seed=0).sample(
        model, num_reads=3, num_sweeps=5000, deadline=_expired_deadline()
    )
    assert len(result) == 3
    assert result.info["deadline_interrupted"] is True
    assert result.info["num_sweeps_completed"] < 5000


def test_tabu_sampler_interrupts_and_flags():
    model = _random_model(3, 24)
    result = TabuSampler(seed=0).sample(
        model, num_reads=6, max_iter=100000, deadline=_expired_deadline()
    )
    assert len(result) == 6
    assert result.info["deadline_interrupted"] is True


def test_greedy_sampler_interrupts_and_flags():
    model = _random_model(4, 24)
    result = SteepestDescentSolver(seed=0).sample(
        model, num_reads=4, deadline=_expired_deadline()
    )
    assert len(result) == 4
    assert result.info["deadline_interrupted"] is True


def test_sweep_batch_overshoot_bound():
    """A real (ticking) deadline stops within ~one sweep batch."""
    model = _random_model(5, 48, density=0.8)
    budget = 0.05
    start = time.perf_counter()
    result = SimulatedAnnealingSampler(seed=0).sample(
        model, num_reads=64, num_sweeps=200000, deadline=Deadline(budget)
    )
    elapsed = time.perf_counter() - start
    assert result.info["deadline_interrupted"] is True
    # Generous slack for slow CI machines; the point is that a 4e6-sweep
    # request does not run to completion (~minutes) under a 50ms budget.
    assert elapsed < budget + 2.0


# ----------------------------------------------------------------------
# Machine: gauge batches under a budget
# ----------------------------------------------------------------------
def _machine(**kwargs):
    return DWaveSimulator(
        properties=MachineProperties(cells=4, dropout_fraction=0.0),
        seed=0,
        **kwargs,
    )


def _physical_model(machine):
    qubits = sorted(machine.working_graph.nodes())[:4]
    model = IsingModel()
    for q in qubits:
        model.add_variable(q, 0.5)
    for u, v in machine.working_graph.subgraph(qubits).edges():
        model.add_interaction(u, v, -0.7)
    return model


def test_machine_serial_deadline_interrupts():
    machine = _machine()
    model = _physical_model(machine)
    result = machine.sample_ising(
        model, num_reads=20, deadline=_expired_deadline()
    )
    assert len(result)
    assert result.info["deadline_interrupted"] is True


# ----------------------------------------------------------------------
# Runner end-to-end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def runner():
    return QmasmRunner(machine=_machine(), seed=0)


def test_runner_accepts_float_deadline(runner):
    result = runner.run(
        AND_PROGRAM, solver="sa", num_reads=10, deadline=3600.0
    )
    info = result.info["deadline"]
    assert info["budget_s"] == 3600.0
    assert not info["expired"]
    assert not info["sampler_interrupted"]


def test_runner_deadline_mid_sample_returns_partial(runner):
    """Expiry during sampling yields a usable (flagged) result."""
    result = runner.run(
        AND_PROGRAM,
        solver="sqa",
        num_reads=8,
        num_sweeps=200000,
        deadline=0.2,
    )
    info = result.info["deadline"]
    assert info["expired"]
    assert info["sampler_interrupted"]
    assert result.sampleset is not None and len(result.sampleset)
    # Optional refinement stages are skipped once time is up.
    assert result.stats["postprocess"].skipped


def test_runner_deadline_before_required_stage_raises():
    runner = QmasmRunner(machine=_machine(), seed=0)
    with pytest.raises(DeadlineExceeded) as excinfo:
        runner.run(
            AND_PROGRAM, solver="dwave", num_reads=5,
            deadline=_expired_deadline(),
        )
    assert excinfo.value.stage is not None
    assert excinfo.value.stage.startswith("run.")
    assert excinfo.value.partial is not None


def test_runner_deadline_wall_clock_bound():
    """End to end, the run terminates promptly after its budget."""
    runner = QmasmRunner(machine=_machine(), seed=0)
    budget = 0.3
    start = time.perf_counter()
    try:
        runner.run(
            AND_PROGRAM, solver="sqa", num_reads=16,
            num_sweeps=500000, deadline=budget,
        )
    except DeadlineExceeded:
        pass
    elapsed = time.perf_counter() - start
    assert elapsed < budget + 3.0  # slack for CI, not for the sampler
