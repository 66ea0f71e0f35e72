"""Tests for the D-Wave 2000Q simulator front end."""

import pytest

from repro.hardware import dropout, make_topology
from repro.ising.model import IsingModel
from repro.solvers.machine import DWaveSimulator, MachineProperties


@pytest.fixture(scope="module")
def machine():
    # A small, noise-free, dropout-free machine keeps tests fast and exact.
    props = MachineProperties(cells=4, dropout_fraction=0.0)
    return DWaveSimulator(properties=props, seed=0)


def _chain_problem(machine, value=-1.0):
    """A two-qubit ferromagnet on a real coupler of the working graph."""
    u, v = next(iter(machine.working_graph.edges()))
    model = IsingModel({u: 0.5}, {(u, v): value})
    return model, u, v


@pytest.mark.parametrize("fraction", [0.0, 0.05])
def test_working_graph_is_an_own_copy_in_the_same_order(fraction):
    props = MachineProperties(cells=3, dropout_fraction=fraction)
    first, second = DWaveSimulator(props), DWaveSimulator(props)
    assert first.topology is second.topology
    assert first.working_graph is not first.topology.graph
    first.working_graph.remove_node(next(iter(first.working_graph)))
    assert len(second.working_graph) == len(first.working_graph) + 1
    # Node and adjacency order decide the embedder's tie-breaks: they
    # must match a fresh copy of the pristine graph put through dropout.
    expected = dropout(
        make_topology("chimera", size=3).graph.copy(), fraction=fraction, seed=42
    )
    assert _adjacency_order(second.working_graph) == _adjacency_order(expected)


def _adjacency_order(graph):
    return [(node, list(neighbors)) for node, neighbors in graph.adj.items()]


# ----------------------------------------------------------------------
# Validation (what the real SAPI rejects)
# ----------------------------------------------------------------------
def test_rejects_unknown_qubits(machine):
    model = IsingModel({999999: 1.0})
    with pytest.raises(ValueError):
        machine.sample_ising(model)


def test_rejects_missing_couplers(machine):
    # Qubits 0 and 1 share a unit-cell partition: no coupler.
    model = IsingModel(j={(0, 1): -1.0})
    with pytest.raises(ValueError):
        machine.sample_ising(model)


def test_rejects_out_of_range_coefficients(machine):
    model, u, v = _chain_problem(machine)
    model.add_variable(u, 10.0)
    with pytest.raises(ValueError):
        machine.sample_ising(model)


def test_rejects_bad_annealing_times(machine):
    model, _, _ = _chain_problem(machine)
    with pytest.raises(ValueError):
        machine.sample_ising(model, annealing_time_us=0.5)  # < 1 us
    with pytest.raises(ValueError):
        machine.sample_ising(model, annealing_time_us=3000.0)  # > 2000 us


@pytest.mark.parametrize("num_reads", [0, -3])
def test_rejects_nonpositive_read_counts(machine, num_reads):
    model, _, _ = _chain_problem(machine)
    with pytest.raises(ValueError, match="num_reads must be positive"):
        machine.sample_ising(model, num_reads=num_reads)


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
def test_solves_simple_chain(machine):
    model, u, v = _chain_problem(machine)
    result = machine.sample_ising(model, num_reads=20, apply_noise=False)
    best = result.first
    # h_u = +0.5 pushes u to -1; the ferromagnetic coupler drags v along.
    assert best.assignment[u] == -1
    assert best.assignment[v] == -1


def test_energies_reported_against_clean_problem(machine):
    model, _, _ = _chain_problem(machine)
    result = machine.sample_ising(model, num_reads=5, apply_noise=True)
    for sample in result:
        assert model.energy(sample.assignment) == pytest.approx(sample.energy)


def test_noise_perturbs_programmed_coefficients():
    props = MachineProperties(cells=2, dropout_fraction=0.0, noise_h=0.2)
    machine = DWaveSimulator(properties=props, seed=3)
    model = IsingModel({next(iter(machine.working_graph.nodes())): 1.0})
    noisy = machine._apply_control_noise(model)
    (v,) = noisy.variables
    assert noisy.get_linear(v) != pytest.approx(1.0)
    assert -2.0 <= noisy.get_linear(v) <= 2.0  # clipped to range


def test_timing_model_math(machine):
    model, _, _ = _chain_problem(machine)
    result = machine.sample_ising(model, num_reads=10, annealing_time_us=50.0)
    timing = result.info["timing"]
    props = machine.properties
    per_sample = 50.0 + props.readout_time_us + props.delay_time_us
    assert timing["qpu_sampling_time_us"] == pytest.approx(10 * per_sample)
    assert timing["qpu_access_time_us"] == pytest.approx(
        props.programming_time_us + 10 * per_sample
    )


def test_anneal_time_controls_sweeps(machine):
    model, _, _ = _chain_problem(machine)
    short = machine.sample_ising(model, num_reads=1, annealing_time_us=1.0)
    long = machine.sample_ising(model, num_reads=1, annealing_time_us=100.0)
    assert long.info["num_sweeps"] > short.info["num_sweeps"]


def test_dropout_shrinks_working_graph():
    full = DWaveSimulator(
        properties=MachineProperties(cells=4, dropout_fraction=0.0)
    )
    lossy = DWaveSimulator(
        properties=MachineProperties(cells=4, dropout_fraction=0.05)
    )
    assert lossy.num_qubits < full.num_qubits == 128


def test_default_machine_is_a_2000q():
    machine = DWaveSimulator(seed=0)
    assert machine.topology.family == "chimera"
    assert machine.topology.fingerprint() == "chimera:m=16,n=16,t=4"
    # nominal 2048 minus drop-out
    assert 1900 <= machine.num_qubits < 2048


def test_problem_on_dropped_qubit_rejected():
    machine = DWaveSimulator(
        properties=MachineProperties(cells=4, dropout_fraction=0.1), seed=0
    )
    full = set(range(128))
    dropped = sorted(full - set(machine.working_graph.nodes()))
    model = IsingModel({dropped[0]: 1.0})
    with pytest.raises(ValueError):
        machine.sample_ising(model)


# ----------------------------------------------------------------------
# Spin-reversal (gauge) transforms
# ----------------------------------------------------------------------
def test_gauge_transform_preserves_problem(machine):
    import numpy as np

    model, u, v = _chain_problem(machine)
    order = list(model.variables)
    rng = np.random.default_rng(0)
    gauge = rng.choice([-1.0, 1.0], size=len(order))
    gauged = machine._apply_gauge(model, order, gauge)
    # Energies match under the gauge map s -> g * s.
    for su in (-1, 1):
        for sv in (-1, 1):
            sample = {u: su, v: sv}
            index = {q: i for i, q in enumerate(order)}
            gauged_sample = {
                q: int(s * gauge[index[q]]) for q, s in sample.items()
            }
            assert gauged.energy(gauged_sample) == pytest.approx(
                model.energy(sample)
            )


def test_spin_reversal_transforms_return_correct_answers(machine):
    model, u, v = _chain_problem(machine)
    result = machine.sample_ising(
        model, num_reads=24, apply_noise=False,
        num_spin_reversal_transforms=4,
    )
    assert result.total_reads() == 24
    best = result.first
    assert best.assignment[u] == -1 and best.assignment[v] == -1
    assert result.info["num_spin_reversal_transforms"] == 4


def test_spin_reversal_transform_validation(machine):
    model, _, _ = _chain_problem(machine)
    with pytest.raises(ValueError):
        machine.sample_ising(model, num_spin_reversal_transforms=-1)
