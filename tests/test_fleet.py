"""Fleet resilience: health, breakers, re-dispatch, checkpoint/resume.

The acceptance story: with one of four machines crashed mid-run and
another straggling, a planted instance several times any single chip's
capacity still reaches its ground state; the results are bit-identical
across reruns with the same seed; and a run killed mid-solve resumes
from its last completed stitch round without re-solving finished work.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
import types

import numpy as np
import pytest

from repro.core import trace
from repro.core.cache import CheckpointCache
from repro.core.faults import (
    MachineCrashError,
    TransientSolverError,
    parse_fault_spec,
)
from repro.ising.model import IsingModel
from repro.solvers.fleet import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    Fleet,
    HealthPolicy,
    MachineFaultPlan,
    MachineHealth,
    modeled_latency_us,
    parse_fleet_spec,
)
from repro.solvers.machine import MachineProperties
from repro.solvers.shard import ShardSolver

SMALL_CHIP = MachineProperties(cells=2, dropout_fraction=0.0)


def _planted_model(n: int, seed: int = 5):
    """Planted-ground-state instance (same construction as test_shard)."""
    rng = np.random.default_rng(seed)
    planted = rng.choice([-1, 1], size=n)
    model = IsingModel()
    for i in range(n):
        model.add_variable(i, -0.25 * float(planted[i]))
    for i in range(n - 1):
        model.add_interaction(i, i + 1, -float(planted[i] * planted[i + 1]))
    for _ in range(n // 2):
        i, j = rng.choice(n, size=2, replace=False)
        model.add_interaction(int(i), int(j), -float(planted[i] * planted[j]))
    ground = model.energy({i: int(planted[i]) for i in range(n)})
    return model, ground


def _solver(**overrides) -> ShardSolver:
    kwargs = dict(
        properties=SMALL_CHIP, machines=4, seed=3, num_reads_per_shard=10,
        max_workers=1,
    )
    kwargs.update(overrides)
    return ShardSolver(**kwargs)


def _events(tracer, name):
    """All instant events named ``name``, as attribute dicts.

    Events fired inside an open span land on ``span.events``; with no
    open span the tracer records them as zero-length root spans.
    """
    out = []
    for span in tracer.walk():
        if span.name == name:
            out.append(span.attributes)
        for entry in span.events:
            if entry["name"] == name:
                out.append(entry.get("attributes", {}))
    return out


# ----------------------------------------------------------------------
# Health statistics
# ----------------------------------------------------------------------
class TestMachineHealth:
    def test_rolling_window_and_rates(self):
        health = MachineHealth(window=4)
        for _ in range(3):
            health.record_success(100.0, wall_s=0.1, chain_break_fraction=0.5)
        health.record_failure()
        assert health.samples == 4
        assert health.failure_rate() == pytest.approx(0.25)
        assert health.mean_latency_us() == pytest.approx(100.0)
        assert health.mean_chain_breaks() == pytest.approx(0.5)
        # The window slides: four more failures evict every success.
        for _ in range(4):
            health.record_failure()
        assert health.failure_rate() == pytest.approx(1.0)
        # Lifetime counters do not slide.
        assert health.successes == 3
        assert health.failures == 5

    def test_crash_kind_counts_separately(self):
        health = MachineHealth()
        health.record_failure(kind="crash")
        health.record_failure(kind="transient")
        assert health.crashes == 1
        assert health.failures == 2

    def test_state_round_trip(self):
        health = MachineHealth(window=8)
        health.record_success(42.0, wall_s=0.5, chain_break_fraction=0.1)
        health.record_failure()
        restored = MachineHealth()
        restored.load_state(health.state_dict())
        assert restored.state_dict() == health.state_dict()
        assert restored.failure_rate() == health.failure_rate()


# ----------------------------------------------------------------------
# Circuit breaker state machine
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_closed_to_open_to_half_open_to_recovered(self):
        breaker = CircuitBreaker(HealthPolicy(cooldown_rounds=2))
        assert breaker.admit(1)
        breaker.trip(1, reason="failure_rate")
        assert breaker.state == OPEN
        assert not breaker.admit(2)      # cooling down
        assert breaker.admit(3)          # cooldown over: half-open probe
        assert breaker.state == HALF_OPEN
        assert breaker.record(True, 3) == "recovered"
        assert breaker.state == CLOSED
        assert breaker.reason is None

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(HealthPolicy(cooldown_rounds=1))
        breaker.trip(1, reason="straggler")
        assert breaker.admit(2)
        assert breaker.state == HALF_OPEN
        assert breaker.record(False, 2) is None
        assert breaker.state == OPEN
        assert breaker.reason == "straggler"
        assert breaker.opens == 2

    def test_permanent_open_never_admits(self):
        breaker = CircuitBreaker(HealthPolicy(cooldown_rounds=1))
        breaker.trip(1, reason="crash", permanent=True)
        assert not breaker.admit(100)
        assert breaker.state == OPEN

    def test_state_round_trip(self):
        breaker = CircuitBreaker()
        breaker.trip(5, reason="corruption")
        restored = CircuitBreaker()
        restored.load_state(breaker.state_dict())
        assert restored.state == OPEN
        assert restored.reason == "corruption"
        assert restored.opened_round == 5

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HealthPolicy(window=0)
        with pytest.raises(ValueError):
            HealthPolicy(failure_threshold=0.0)
        with pytest.raises(ValueError):
            HealthPolicy(straggler_factor=1.0)
        with pytest.raises(ValueError):
            HealthPolicy(cooldown_rounds=0)


# ----------------------------------------------------------------------
# The deterministic fault plan
# ----------------------------------------------------------------------
class TestMachineFaultPlan:
    def test_crash_fires_at_scheduled_dispatch(self):
        plan = MachineFaultPlan(parse_fault_spec("machine_crash=1:3,seed=7"))
        assert plan.check_dispatch(1, 1) == 1.0
        assert plan.check_dispatch(1, 2) == 1.0
        with pytest.raises(MachineCrashError) as err:
            plan.check_dispatch(1, 3)
        assert err.value.machine == 1
        # Dead is dead: every later dispatch crashes too.
        with pytest.raises(MachineCrashError):
            plan.check_dispatch(1, 4)
        assert plan.crashes_fired == 2
        # Other machines are untouched.
        assert plan.check_dispatch(0, 99) == 1.0

    def test_straggler_factor_returned(self):
        plan = MachineFaultPlan(
            parse_fault_spec("machine_straggler=2:8,seed=7")
        )
        assert plan.check_dispatch(2, 1) == pytest.approx(8.0)
        assert plan.check_dispatch(0, 1) == 1.0

    def test_flaky_failures_are_seed_deterministic(self):
        def outcomes():
            plan = MachineFaultPlan(
                parse_fault_spec("machine_flaky=0:50%,seed=11")
            )
            out = []
            for dispatch in range(1, 21):
                try:
                    plan.check_dispatch(0, dispatch)
                    out.append(True)
                except TransientSolverError as exc:
                    assert exc.kind == "machine_flaky"
                    out.append(False)
            return out
        first, second = outcomes(), outcomes()
        assert first == second
        assert False in first and True in first

    def test_flaky_rng_state_round_trips(self):
        spec = parse_fault_spec("machine_flaky=0:50%,seed=11")
        plan = MachineFaultPlan(spec)
        for dispatch in range(1, 6):
            try:
                plan.check_dispatch(0, dispatch)
            except TransientSolverError:
                pass
        restored = MachineFaultPlan(spec)
        restored.load_state(plan.state_dict())

        def drain(p):
            out = []
            for dispatch in range(6, 16):
                try:
                    p.check_dispatch(0, dispatch)
                    out.append(True)
                except TransientSolverError:
                    out.append(False)
            return out
        assert drain(restored) == drain(plan)


# ----------------------------------------------------------------------
# Fleet construction and the spec grammar
# ----------------------------------------------------------------------
class TestFleetSpec:
    def test_letter_codes_prefixes_and_sizes(self):
        machines = parse_fleet_spec("C16,P8,Z6", template=SMALL_CHIP)
        assert [(m.topology, m.cells) for m in machines] == [
            ("chimera", 16), ("pegasus", 8), ("zephyr", 6),
        ]
        machines = parse_fleet_spec("chim4,pegasus-2,zephyr:3")
        assert [(m.topology, m.cells) for m in machines] == [
            ("chimera", 4), ("pegasus", 2), ("zephyr", 3),
        ]

    def test_sizeless_token_uses_flagship_default(self):
        (machine,) = parse_fleet_spec("C")
        assert machine.topology == "chimera"
        assert machine.cells is None

    def test_template_properties_are_inherited(self):
        template = MachineProperties(dropout_fraction=0.0, noise_h=0.005)
        machines = parse_fleet_spec("C2,P2", template=template)
        assert all(m.dropout_fraction == 0.0 for m in machines)
        assert all(m.noise_h == 0.005 for m in machines)

    def test_rejects_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_fleet_spec("C16,???")
        with pytest.raises(ValueError):
            parse_fleet_spec("Q16")  # unknown family
        with pytest.raises(ValueError):
            parse_fleet_spec("  ,  ,")  # names no machines

    def test_shard_solver_fleet_from_machines_or_spec(self):
        homogeneous = ShardSolver(properties=SMALL_CHIP, machines=3).fleet
        assert len(homogeneous) == 3
        assert all(m.properties == SMALL_CHIP for m in homogeneous)
        spec = ShardSolver(properties=SMALL_CHIP, fleet="C2,P2").fleet
        assert [m.properties.topology for m in spec] == ["chimera", "pegasus"]

    def test_machine_labels_and_class_keys(self):
        fleet = Fleet(parse_fleet_spec("C2,C2,P2", template=SMALL_CHIP))
        assert fleet.labels() == ["m0:chimera2", "m1:chimera2", "m2:pegasus2"]
        assert fleet.machines[0].class_key == fleet.machines[1].class_key
        assert fleet.machines[0].class_key != fleet.machines[2].class_key

    def test_modeled_latency_formula(self):
        props = MachineProperties(
            programming_time_us=1000.0, readout_time_us=100.0,
            delay_time_us=20.0,
        )
        assert modeled_latency_us(props, reads=10, annealing_time_us=30.0) == (
            pytest.approx(1000.0 + 10 * (30.0 + 100.0 + 20.0))
        )


# ----------------------------------------------------------------------
# Fleet-level quarantine policy
# ----------------------------------------------------------------------
class TestFleetPolicy:
    def _fleet(self, count=3, **policy):
        kwargs = dict(min_samples=2, cooldown_rounds=1)
        kwargs.update(policy)
        return Fleet([SMALL_CHIP] * count, policy=HealthPolicy(**kwargs))

    def test_failure_rate_trips_breaker(self):
        fleet = self._fleet()
        machine = fleet.machines[0]
        fleet.begin_round()
        fleet.record_failure(machine, kind="transient", reason="failure_rate")
        assert machine.breaker.state == CLOSED  # below min_samples
        fleet.record_failure(machine, kind="transient", reason="failure_rate")
        assert machine.breaker.state == OPEN
        assert machine.breaker.reason == "failure_rate"
        assert fleet.quarantined() == [machine.label]

    def test_crash_quarantines_permanently(self):
        fleet = self._fleet()
        machine = fleet.machines[1]
        fleet.begin_round()
        fleet.record_failure(machine, kind="crash", reason="crash")
        assert machine.breaker.permanent
        assert fleet.crashed() == [machine.label]
        fleet.begin_round()
        fleet.begin_round()
        assert machine not in fleet.admitted()

    def test_straggler_quarantine_uses_modeled_latency(self):
        fleet = self._fleet(straggler_factor=3.0)
        fleet.begin_round()
        for machine in fleet.machines:
            slow = 10.0 if machine.index == 2 else 1.0
            for _ in range(2):
                fleet.record_success(machine, 100.0 * slow, 0.0, 0.0)
        fleet.check_quarantines()
        assert fleet.quarantined() == [fleet.machines[2].label]
        assert fleet.machines[2].breaker.reason == "straggler"

    def test_corruption_quarantine_on_chain_breaks(self):
        fleet = self._fleet(corruption_threshold=0.4)
        fleet.begin_round()
        for machine in fleet.machines:
            breaks = 0.9 if machine.index == 0 else 0.0
            for _ in range(2):
                fleet.record_success(machine, 100.0, 0.0, breaks)
        fleet.check_quarantines()
        assert fleet.quarantined() == [fleet.machines[0].label]
        assert fleet.machines[0].breaker.reason == "corruption"

    def test_recovery_emits_event_and_counter(self):
        fleet = self._fleet()
        machine = fleet.machines[0]
        fleet.begin_round()
        machine.breaker.trip(fleet.round, reason="failure_rate")
        fleet.begin_round()
        fleet.begin_round()
        with trace.capture() as (tracer, metrics):
            assert machine in fleet.admitted()  # half-opens
            fleet.record_success(machine, 100.0, 0.0, 0.0)
            assert machine.breaker.state == CLOSED
            assert metrics.value("fleet.recoveries") == 1
        events = _events(tracer, "fleet.recovery")
        assert events and events[0]["machine"] == machine.label

    def test_state_dict_round_trips_everything(self):
        fleet = Fleet(
            [SMALL_CHIP] * 2,
            policy=HealthPolicy(min_samples=2),
            faults=parse_fault_spec("machine_flaky=0:50%,seed=3"),
        )
        fleet.begin_round()
        fleet.record_success(fleet.machines[0], 50.0, 0.1, 0.0)
        fleet.record_failure(fleet.machines[1], kind="crash", reason="crash")
        fleet.redispatches = 4
        restored = Fleet(
            [SMALL_CHIP] * 2,
            policy=HealthPolicy(min_samples=2),
            faults=parse_fault_spec("machine_flaky=0:50%,seed=3"),
        )
        restored.load_state(fleet.state_dict())
        assert restored.state_dict() == fleet.state_dict()
        assert restored.crashed() == fleet.crashed()
        assert restored.round == fleet.round


# ----------------------------------------------------------------------
# ShardSolver on a chaotic fleet
# ----------------------------------------------------------------------
CHAOS = "machine_crash=1:2,machine_straggler=2:8,seed=7"


def test_crashed_machine_orphans_are_redispatched():
    model, ground = _planted_model(48)
    with trace.capture() as (tracer, metrics):
        result = _solver(faults="machine_crash=1:1,seed=7").sample(model)
    info = result.info
    assert info["fleet"]["crashed"] == ["m1:chimera2"]
    assert info["redispatches"] >= 1
    assert info["shard_completion"] == 1.0
    assert result.first.energy == pytest.approx(ground)
    # The orphaned shards landed somewhere: the crash is an event, the
    # re-dispatches are counted, and machine 1 never ran a shard.
    assert _events(tracer, "fleet.redispatch")
    assert _events(tracer, "fleet.quarantine")
    assert metrics.value("fleet.redispatches") == info["redispatches"]
    assert metrics.value("fleet.crashes") == 1
    assert metrics.value("machine.1.samples") == 0


def test_chaos_acceptance_ground_state_and_bit_identity():
    """1 of 4 machines crashed + 1 straggling: ground state, identical."""
    capacity = ShardSolver(properties=SMALL_CHIP, machines=4).chip_qubits // 4
    model, ground = _planted_model(4 * capacity)
    first = _solver(faults=CHAOS).sample(model, num_reads=2)
    assert first.info["fleet"]["crashed"] == ["m1:chimera2"]
    assert "m2:chimera2" in first.info["fleet"]["quarantined"]
    assert first.info["shard_completion"] == 1.0
    assert first.first.energy == pytest.approx(ground)

    second = _solver(faults=CHAOS).sample(model, num_reads=2)
    assert np.array_equal(first.records, second.records)
    assert np.array_equal(first.energies, second.energies)


def test_chaos_results_identical_pooled_and_serial():
    model, _ = _planted_model(40)
    serial = _solver(faults=CHAOS).sample(model, max_workers=1)
    pooled = _solver(faults=CHAOS).sample(model, max_workers=4)
    assert np.array_equal(serial.records, pooled.records)


def test_straggler_is_quarantined_by_modeled_latency():
    model, _ = _planted_model(48)
    policy = HealthPolicy(min_samples=2, straggler_factor=4.0)
    result = _solver(
        faults="machine_straggler=2:8,seed=7", health_policy=policy,
        patience=4,
    ).sample(model)
    fleet_info = result.info["fleet"]
    assert "m2:chimera2" in fleet_info["quarantined"]
    assert "m2:chimera2" not in fleet_info["crashed"]


def test_flaky_machine_trips_breaker():
    model, _ = _planted_model(48)
    policy = HealthPolicy(min_samples=2, failure_threshold=0.5)
    with trace.capture() as (tracer, metrics):
        result = _solver(
            faults="machine_flaky=0:100%,seed=7", health_policy=policy,
        ).sample(model)
    info = result.info
    assert "m0:chimera2" in info["fleet"]["quarantined"]
    assert info["redispatches"] >= 2
    assert metrics.value("fleet.transient_failures") >= 2
    assert info["shard_completion"] == 1.0
    # Health snapshot shows the failures.
    assert info["fleet"]["health"]["m0:chimera2"]["failures"] >= 2


def test_whole_fleet_dead_degrades_to_local_fallback():
    model, ground = _planted_model(24)
    faults = "machine_crash=0:1+1:1+2:1+3:1,seed=7"
    with trace.capture() as (tracer, metrics):
        result = _solver(faults=faults).sample(model)
    info = result.info
    assert len(info["fleet"]["crashed"]) == 4
    assert info["shard_fallbacks"] >= 1
    assert info["shard_completion"] == 1.0
    assert result.first.energy == pytest.approx(ground)
    events = _events(tracer, "shard.fallback")
    assert events
    assert events[0]["reason"] == "no_healthy_machine"
    assert metrics.value("shard.fallbacks") == info["shard_fallbacks"]


def test_heterogeneous_fleet_solves_and_shares_embeddings():
    model, ground = _planted_model(40)
    solver = _solver(fleet="C2,C2,P2,Z2", shard_size=10)
    result = solver.sample(model)
    assert result.info["machines"] == 4
    assert result.info["fleet"]["machines"] == [
        "m0:chimera2", "m1:chimera2", "m2:pegasus2", "m3:zephyr2",
    ]
    # Embeddings are keyed per machine *class*: the two chimera machines
    # share entries, so there are at most 3 classes' worth of keys.
    classes = {key[0] for key in solver._embedding_cache}
    assert len(classes) <= 3
    # Shard size defaulted against the smallest machine would also work;
    # here it is explicit and every region fits every chip.
    rerun = _solver(fleet="C2,C2,P2,Z2", shard_size=10).sample(model)
    assert np.array_equal(result.records, rerun.records)


def test_fleet_state_gauges_exported():
    model, _ = _planted_model(32)
    with trace.capture() as (_tracer, metrics):
        _solver(faults="machine_crash=3:1,seed=7").sample(model)
    assert metrics.value("fleet.machine.3.state") == 2  # open
    assert metrics.value("fleet.machine.0.state") == 0  # closed


def test_runner_lifts_shard_fallbacks_into_resilience():
    from repro.core.trace import MetricsRegistry
    from repro.qmasm.runner import _RESILIENCE_COUNTERS, SampleStage

    assert "shard_fallbacks" in _RESILIENCE_COUNTERS
    assert "shard_redispatches" in _RESILIENCE_COUNTERS
    artifact = types.SimpleNamespace(
        sampleset=types.SimpleNamespace(
            info={"shard_fallbacks": 3, "redispatches": 2}
        )
    )
    context = types.SimpleNamespace(metrics=MetricsRegistry())
    SampleStage._lift_shard_stats(artifact, context)
    assert context.metrics.value("runner.shard_fallbacks") == 3
    assert context.metrics.value("runner.shard_redispatches") == 2


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
def test_checkpointed_run_resumes_complete_without_resolving(tmp_path):
    model, _ = _planted_model(40)
    kwargs = dict(checkpoint=str(tmp_path))
    first = _solver(**kwargs).sample(model, num_reads=2)
    resumed = _solver(resume=True, **kwargs).sample(model, num_reads=2)
    assert resumed.info.get("resumed") is True
    assert resumed.info["rounds_executed"] == 0  # nothing re-solved
    assert np.array_equal(first.records, resumed.records)
    assert np.array_equal(first.energies, resumed.energies)


def test_resume_ignores_checkpoints_of_other_runs(tmp_path):
    model, _ = _planted_model(40)
    other, _ = _planted_model(40, seed=9)
    _solver(checkpoint=str(tmp_path)).sample(other, num_reads=1)
    result = _solver(checkpoint=str(tmp_path), resume=True).sample(
        model, num_reads=1
    )
    assert "resumed" not in result.info
    assert result.info["rounds_executed"] > 0


def test_mid_run_checkpoint_resumes_bit_identically(tmp_path):
    """Kill after round K (simulated): resume matches the full run."""
    model, _ = _planted_model(48)
    reference = _solver().sample(model, num_reads=2)

    # Run a checkpointing solve that dies (by exception) mid-read --
    # after the first round completed (and checkpointed) but before the
    # second finishes.
    round_one_jobs = len(_solver()._partition(model, list(model.variables)))
    import repro.solvers.shard as shard_mod
    real = shard_mod._solve_shard
    calls = {"n": 0}
    boom = RuntimeError("simulated SIGKILL")

    def dying(job):
        calls["n"] += 1
        if calls["n"] > round_one_jobs + 1:
            raise boom
        return real(job)

    shard_mod._solve_shard = dying
    try:
        with pytest.raises(RuntimeError):
            _solver(checkpoint=str(tmp_path)).sample(model, num_reads=2)
    finally:
        shard_mod._solve_shard = real

    resumed = _solver(checkpoint=str(tmp_path), resume=True).sample(
        model, num_reads=2
    )
    assert resumed.info.get("resumed") is True
    assert resumed.info["rounds_executed"] < reference.info["rounds_executed"]
    assert np.array_equal(reference.records, resumed.records)
    assert np.array_equal(reference.energies, resumed.energies)


def test_sigkill_resume_completes_without_resolving(tmp_path):
    """A real SIGKILL mid-run, then an in-process --resume completes."""
    script = textwrap.dedent(
        """
        import numpy as np
        from tests.test_fleet import _planted_model, _solver
        model, _ = _planted_model(48)
        _solver(checkpoint={ckpt!r}).sample(model, num_reads=4)
        """
    ).format(ckpt=str(tmp_path))
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
    )
    child = subprocess.Popen([sys.executable, "-c", script], env=env)
    try:
        # Kill as soon as the first checkpoint lands on disk.
        deadline = time.time() + 120.0
        while time.time() < deadline:
            if any(name.endswith(".pkl") for name in os.listdir(tmp_path)):
                break
            if child.poll() is not None:
                break
            time.sleep(0.005)
        if child.poll() is None:
            child.send_signal(signal.SIGKILL)
        child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
    assert any(name.endswith(".pkl") for name in os.listdir(tmp_path))

    model, _ = _planted_model(48)
    reference = _solver().sample(model, num_reads=4)
    resumed = _solver(checkpoint=str(tmp_path), resume=True).sample(
        model, num_reads=4
    )
    assert resumed.info.get("resumed") is True
    # Finished iterations are not re-solved: the resumed run executes
    # strictly fewer rounds than the full run did.
    assert resumed.info["rounds_executed"] < reference.info["rounds_executed"]
    assert np.array_equal(reference.records, resumed.records)
    assert np.array_equal(reference.energies, resumed.energies)


def test_checkpoint_resume_with_chaos_is_bit_identical(tmp_path):
    """Fleet/breaker/fault-plan state survives the checkpoint too."""
    model, _ = _planted_model(48)
    reference = _solver(faults=CHAOS).sample(model, num_reads=2)

    round_one_jobs = len(_solver()._partition(model, list(model.variables)))
    import repro.solvers.shard as shard_mod
    real = shard_mod._solve_shard
    calls = {"n": 0}

    def dying(job):
        calls["n"] += 1
        if calls["n"] > round_one_jobs + 2:
            raise RuntimeError("simulated crash")
        return real(job)

    shard_mod._solve_shard = dying
    try:
        with pytest.raises(RuntimeError):
            _solver(faults=CHAOS, checkpoint=str(tmp_path)).sample(
                model, num_reads=2
            )
    finally:
        shard_mod._solve_shard = real

    resumed = _solver(
        faults=CHAOS, checkpoint=str(tmp_path), resume=True
    ).sample(model, num_reads=2)
    assert np.array_equal(reference.records, resumed.records)
    assert resumed.info["fleet"]["crashed"] == ["m1:chimera2"]


def test_checkpoint_cache_key_is_stable():
    key = CheckpointCache.key_for("some-run-fingerprint")
    assert key == CheckpointCache.key_for("some-run-fingerprint")
    assert key != CheckpointCache.key_for("another-run")


def test_run_fingerprint_covers_fleet_and_faults():
    model, _ = _planted_model(16)
    base = _solver()._run_fingerprint(model, 2)
    assert _solver()._run_fingerprint(model, 2) == base
    assert _solver(faults=CHAOS)._run_fingerprint(model, 2) != base
    assert _solver(fleet="C2,P2")._run_fingerprint(model, 2) != base
    assert _solver(seed=99)._run_fingerprint(model, 2) != base
    assert _solver()._run_fingerprint(model, 3) != base
