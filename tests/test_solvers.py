"""Tests for the classical solvers: exact, SA, tabu, qbsolv."""

import random

import numpy as np
import pytest

from repro.ising.cells import cell_hamiltonian
from repro.ising.model import IsingModel
from repro.solvers.exact import ExactSolver
from repro.solvers.greedy import SteepestDescentSolver
from repro.solvers.neal import SimulatedAnnealingSampler, default_beta_range
from repro.solvers.qbsolv import QBSolv, clamped_subproblem
from repro.solvers.sqa import PathIntegralAnnealer
from repro.solvers.tabu import TabuSampler


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


# ----------------------------------------------------------------------
# ExactSolver
# ----------------------------------------------------------------------
def test_exact_enumerates_everything(triangle_model):
    ss = ExactSolver().sample(triangle_model)
    assert len(ss) == 8
    assert ss.first.energy == pytest.approx(-1.0)


def test_exact_ground_states_match_model(triangle_model):
    ground = ExactSolver().ground_states(triangle_model)
    energy, states = triangle_model.ground_states()
    assert len(ground) == len(states)
    assert ground.first.energy == pytest.approx(energy)


def test_exact_num_lowest_truncates(triangle_model):
    ss = ExactSolver().sample(triangle_model, num_lowest=3)
    assert len(ss) == 3


def test_exact_rejects_large_problems():
    model = IsingModel({i: 1.0 for i in range(30)})
    with pytest.raises(ValueError):
        ExactSolver().sample(model)


def test_exact_empty_model():
    assert len(ExactSolver().sample(IsingModel())) == 0


# ----------------------------------------------------------------------
# Simulated annealing
# ----------------------------------------------------------------------
def test_sa_finds_gate_ground_states():
    model = cell_hamiltonian("XOR")
    expected, _ = model.ground_states()
    ss = SimulatedAnnealingSampler(seed=0).sample(model, num_reads=20, num_sweeps=200)
    assert ss.first.energy == pytest.approx(expected)


def test_sa_energies_are_model_energies():
    model = _random_model(1, 8)
    ss = SimulatedAnnealingSampler(seed=1).sample(model, num_reads=5, num_sweeps=50)
    for sample in ss:
        assert model.energy(sample.assignment) == pytest.approx(sample.energy)


def test_sa_seed_reproducibility():
    model = _random_model(2, 10)
    a = SimulatedAnnealingSampler(seed=9).sample(model, num_reads=7, num_sweeps=60)
    b = SimulatedAnnealingSampler(seed=9).sample(model, num_reads=7, num_sweeps=60)
    assert np.array_equal(a.records, b.records)


def test_sa_matches_exact_on_random_models():
    exact = ExactSolver()
    sa = SimulatedAnnealingSampler(seed=3)
    for seed in range(5):
        model = _random_model(seed, 10)
        truth = exact.ground_states(model).first.energy
        found = sa.sample(model, num_reads=20, num_sweeps=500).first.energy
        assert found == pytest.approx(truth, abs=1e-9)


def test_sa_initial_states_respected():
    model = IsingModel({"a": -1.0})
    init = np.array([[1]], dtype=np.int8)
    # At effectively infinite beta from the start, a ground-state
    # initial condition never moves.
    ss = SimulatedAnnealingSampler(seed=0).sample(
        model, num_reads=1, num_sweeps=10, beta_range=(50.0, 100.0),
        initial_states=init,
    )
    assert ss.first.assignment["a"] == 1


def test_sa_initial_state_shape_validated():
    model = IsingModel({"a": -1.0, "b": 1.0})
    with pytest.raises(ValueError):
        SimulatedAnnealingSampler(seed=0).sample(
            model, num_reads=2, initial_states=np.ones((1, 2), dtype=np.int8)
        )


def test_sa_parameter_validation(triangle_model):
    sampler = SimulatedAnnealingSampler(seed=0)
    with pytest.raises(ValueError):
        sampler.sample(triangle_model, num_reads=0)
    with pytest.raises(ValueError):
        sampler.sample(triangle_model, beta_range=(2.0, 1.0))
    with pytest.raises(ValueError):
        sampler.sample(triangle_model, beta_range=(-1.0, 1.0))


@pytest.mark.parametrize("num_sweeps", [0, -3])
@pytest.mark.parametrize("annealer", [SimulatedAnnealingSampler, PathIntegralAnnealer])
def test_annealers_reject_non_positive_num_sweeps(triangle_model, annealer, num_sweeps):
    sampler = annealer(seed=0)
    before = sampler._rng.bit_generator.state
    with pytest.raises(ValueError, match="^num_sweeps must be positive$"):
        sampler.sample(triangle_model, num_sweeps=num_sweeps)
    assert sampler._rng.bit_generator.state == before


def test_steepest_descent_rejects_zero_num_reads(triangle_model):
    sampler = SteepestDescentSolver(seed=0)
    before = sampler._rng.bit_generator.state
    with pytest.raises(ValueError, match="^num_reads must be positive$"):
        sampler.sample(triangle_model, num_reads=0)
    assert sampler._rng.bit_generator.state == before


def test_sa_empty_model():
    assert len(SimulatedAnnealingSampler(seed=0).sample(IsingModel())) == 0


def test_default_beta_range_is_ordered():
    model = _random_model(4, 6)
    hot, cold = default_beta_range(model)
    assert 0 < hot < cold


def test_sa_info_fields(triangle_model):
    ss = SimulatedAnnealingSampler(seed=0).sample(
        triangle_model, num_reads=3, num_sweeps=10
    )
    assert ss.info["num_sweeps"] == 10
    assert "sampling_time_s" in ss.info
    assert ss.info["solver"] == "simulated-annealing"


# ----------------------------------------------------------------------
# Tabu
# ----------------------------------------------------------------------
def test_tabu_matches_exact_on_small_models():
    exact = ExactSolver()
    tabu = TabuSampler(seed=5)
    for seed in range(4):
        model = _random_model(seed + 10, 9)
        truth = exact.ground_states(model).first.energy
        found = tabu.sample(model, num_reads=4, max_iter=800).first.energy
        assert found == pytest.approx(truth, abs=1e-9)


def test_tabu_empty_model():
    assert len(TabuSampler(seed=0).sample(IsingModel())) == 0


def test_tabu_info(triangle_model):
    ss = TabuSampler(seed=0).sample(triangle_model, num_reads=2, max_iter=50)
    assert ss.info["solver"] == "tabu"
    assert ss.first.energy == pytest.approx(-1.0)


# ----------------------------------------------------------------------
# qbsolv decomposition
# ----------------------------------------------------------------------
def test_qbsolv_small_problem_delegates():
    model = _random_model(20, 10)
    truth = ExactSolver().ground_states(model).first.energy
    found = QBSolv(subproblem_size=48, seed=1).sample(model).first.energy
    assert found == pytest.approx(truth, abs=1e-9)


@pytest.mark.parametrize("size", [20, 60])
def test_qbsolv_rejects_nonpositive_read_counts(size):
    # Both the delegating (small) and the decomposing (large) paths.
    model = _random_model(23, size, density=0.15)
    with pytest.raises(ValueError, match="num_reads must be positive"):
        QBSolv(subproblem_size=48, seed=1).sample(model, num_reads=0)


def test_qbsolv_decomposes_large_problems():
    """A 60-variable problem with 20-variable subproblems still reaches
    a competitive energy (within a few percent of long-run SA)."""
    model = _random_model(21, 60, density=0.15)
    qb = QBSolv(subproblem_size=20, seed=2).sample(model, num_repeats=12)
    sa = SimulatedAnnealingSampler(seed=2).sample(
        model, num_reads=30, num_sweeps=2000
    )
    assert qb.first.energy <= sa.first.energy * 0.9 + 1e-9 or (
        qb.first.energy <= sa.first.energy + abs(sa.first.energy) * 0.05
    )


def test_qbsolv_clamped_subproblem_energy_identity():
    """Clamping must preserve energies: E_sub(region) == E_full(joined)."""
    model = _random_model(22, 12)
    rng = random.Random(0)
    assignment = {v: rng.choice([-1, 1]) for v in model.variables}
    region = list(model.variables)[:5]
    sub = clamped_subproblem(model, assignment, region)
    for _ in range(10):
        candidate = dict(assignment)
        for v in region:
            candidate[v] = rng.choice([-1, 1])
        sub_sample = {v: candidate[v] for v in region}
        assert sub.energy(sub_sample) == pytest.approx(model.energy(candidate))


def test_qbsolv_chained_ferromagnet():
    # A 70-spin ferromagnetic chain (ground energy -69): decomposition
    # must align the chain to at most one residual domain wall, even
    # though every subproblem sees only 16 of the 70 spins.
    model = IsingModel()
    for i in range(69):
        model.add_interaction(i, i + 1, -1.0)
    result = QBSolv(subproblem_size=16, seed=4).sample(model, num_repeats=30)
    assert result.first.energy <= -67.0
