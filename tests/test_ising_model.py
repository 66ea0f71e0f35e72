"""Unit and property tests for the IsingModel core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ising.model import (
    SPIN_FALSE,
    SPIN_TRUE,
    IsingModel,
    bool_to_spin,
    spin_to_bool,
    spins_to_bits,
)


# ----------------------------------------------------------------------
# Spin conventions
# ----------------------------------------------------------------------
def test_spin_constants_match_paper():
    # The paper: False == -1, True == +1 ("physics Booleans").
    assert SPIN_FALSE == -1
    assert SPIN_TRUE == +1


def test_bool_spin_roundtrip():
    assert bool_to_spin(True) == 1
    assert bool_to_spin(False) == -1
    assert spin_to_bool(1) is True
    assert spin_to_bool(-1) is False


def test_spin_to_bool_rejects_non_spins():
    with pytest.raises(ValueError):
        spin_to_bool(0)
    with pytest.raises(ValueError):
        spin_to_bool(2)


# ----------------------------------------------------------------------
# Construction and inspection
# ----------------------------------------------------------------------
def test_add_variable_accumulates():
    model = IsingModel()
    model.add_variable("x", 1.0)
    model.add_variable("x", 0.5)
    assert model.get_linear("x") == pytest.approx(1.5)


def test_add_interaction_is_order_independent():
    model = IsingModel()
    model.add_interaction("a", "b", 0.5)
    model.add_interaction("b", "a", 0.25)
    assert model.get_interaction("a", "b") == pytest.approx(0.75)
    assert model.get_interaction("b", "a") == pytest.approx(0.75)


def test_self_interaction_rejected():
    model = IsingModel()
    with pytest.raises(ValueError):
        model.add_interaction("a", "a", 1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coefficients_rejected(value):
    model = IsingModel()
    model.add_interaction("a", "b", 1.0)
    with pytest.raises(ValueError, match="bias of variable 'x' is"):
        model.add_variable("x", value)
    with pytest.raises(ValueError, match="coupling of variables 'a' and 'b' is"):
        model.add_interaction("a", "b", value)
    assert "x" not in model and model.get_interaction("a", "b") == 1.0


def test_interaction_creates_variables():
    model = IsingModel()
    model.add_interaction("a", "b", 1.0)
    assert "a" in model and "b" in model
    assert len(model) == 2


def test_num_terms_counts_nonzero_only():
    model = IsingModel()
    model.add_variable("a", 0.0)
    model.add_variable("b", 1.0)
    model.add_interaction("a", "b", 0.0)
    model.add_interaction("b", "c", -2.0)
    assert model.num_terms() == 2


def test_degree_and_neighbors():
    model = IsingModel()
    model.add_interaction("a", "b", 1.0)
    model.add_interaction("a", "c", 1.0)
    assert model.degree("a") == 2
    assert set(model.neighbors("a")) == {"b", "c"}
    assert model.degree("b") == 1


def test_equality_ignores_zero_terms():
    left = IsingModel({"a": 1.0, "b": 0.0})
    right = IsingModel({"a": 1.0})
    assert left == right


# ----------------------------------------------------------------------
# Energy evaluation
# ----------------------------------------------------------------------
def test_energy_simple():
    model = IsingModel({"a": 1.0}, {("a", "b"): -2.0}, offset=0.5)
    assert model.energy({"a": 1, "b": 1}) == pytest.approx(1 - 2 + 0.5)
    assert model.energy({"a": -1, "b": 1}) == pytest.approx(-1 + 2 + 0.5)


def test_energy_bool_uses_spin_convention():
    model = IsingModel({"a": 1.0})
    assert model.energy_bool({"a": True}) == pytest.approx(1.0)
    assert model.energy_bool({"a": False}) == pytest.approx(-1.0)


def test_vectorized_energies_match_scalar(triangle_model):
    order, _, _ = triangle_model.to_arrays()
    samples = np.array(
        [[1, 1, 1], [1, -1, 1], [-1, -1, -1], [1, 1, -1]], dtype=float
    )
    vector = triangle_model.energies(samples, order=order)
    for row, expected in zip(samples, vector):
        assert triangle_model.energy(dict(zip(order, row))) == pytest.approx(
            expected
        )


def test_energies_handles_permuted_order(triangle_model):
    order = ["c", "a", "b"]
    samples = np.array([[1, -1, 1]], dtype=float)
    expected = triangle_model.energy({"c": 1, "a": -1, "b": 1})
    assert triangle_model.energies(samples, order=order)[0] == pytest.approx(expected)


def test_spins_to_bits_matches_spin_to_bool():
    spins = np.array([[1, -1], [-1, -1]], dtype=np.int8)
    assert spins_to_bits(spins).tolist() == [[True, False], [False, False]]
    with pytest.raises(ValueError, match="not a spin value: 0"):
        spins_to_bits(np.array([[1, 0], [2, 1]]))


# ----------------------------------------------------------------------
# Ground states
# ----------------------------------------------------------------------
def test_triangle_frustration(triangle_model):
    energy, states = triangle_model.ground_states()
    # Antiferromagnetic triangle: cannot satisfy all three edges.
    assert energy == pytest.approx(-1.0)
    assert len(states) == 6  # all non-aligned configurations


def test_ground_states_refuses_large_models():
    model = IsingModel({i: 1.0 for i in range(30)})
    with pytest.raises(ValueError):
        model.ground_states()


# ----------------------------------------------------------------------
# Composition (Section 4.3.5)
# ----------------------------------------------------------------------
def test_update_accumulates_models():
    left = IsingModel({"x": 1.0}, {("x", "y"): -1.0}, offset=1.0)
    right = IsingModel({"x": -0.5}, {("y", "x"): 0.25}, offset=2.0)
    left.update(right)
    assert left.get_linear("x") == pytest.approx(0.5)
    assert left.get_interaction("x", "y") == pytest.approx(-0.75)
    assert left.offset == pytest.approx(3.0)


def test_addition_minimizers_intersect():
    # H_P minimized by x=y; H_Q minimized by y=+1.  Sum: x=y=+1.
    chain = IsingModel(j={("x", "y"): -1.0})
    pin = IsingModel({"y": -1.0})
    _, states = (chain + pin).ground_states()
    assert states == [{"x": 1, "y": 1}]


# ----------------------------------------------------------------------
# Relabeling and contraction
# ----------------------------------------------------------------------
def test_relabel_renames():
    model = IsingModel({"a": 1.0}, {("a", "b"): 2.0})
    renamed = model.relabel({"a": "x"})
    assert renamed.get_linear("x") == pytest.approx(1.0)
    assert renamed.get_interaction("x", "b") == pytest.approx(2.0)
    assert "a" not in renamed


def test_relabel_merges_terms_to_offset():
    model = IsingModel(j={("a", "b"): 3.0})
    merged = model.relabel({"b": "a"})
    # sigma_a * sigma_a == 1: coupling becomes constant offset.
    assert merged.offset == pytest.approx(3.0)
    assert merged.num_interactions() == 0


def test_contract_same_sign():
    model = IsingModel({"a": 1.0, "b": 2.0}, {("a", "c"): 1.0, ("b", "c"): 1.0})
    merged = model.contract("a", "b")
    assert merged.get_linear("a") == pytest.approx(3.0)
    assert merged.get_interaction("a", "c") == pytest.approx(2.0)
    assert "b" not in merged


def test_contract_opposite_sign():
    model = IsingModel({"b": 2.0}, {("b", "c"): 1.0})
    merged = model.contract("a", "b", same_sign=False)
    assert merged.get_linear("a") == pytest.approx(-2.0)
    assert merged.get_interaction("a", "c") == pytest.approx(-1.0)


def test_contract_preserves_energy_on_consistent_samples():
    model = IsingModel({"a": 0.5, "b": -1.0}, {("a", "b"): 0.75, ("b", "c"): -0.5})
    merged = model.contract("a", "b")
    for sa in (-1, 1):
        for sc in (-1, 1):
            full = model.energy({"a": sa, "b": sa, "c": sc})
            small = merged.energy({"a": sa, "c": sc})
            assert full == pytest.approx(small)


def test_contract_self_rejected():
    model = IsingModel({"a": 1.0})
    with pytest.raises(ValueError):
        model.contract("a", "a")


# ----------------------------------------------------------------------
# Variable fixing
# ----------------------------------------------------------------------
def test_fix_variable_energy_consistency():
    model = IsingModel({"a": 1.0, "b": -0.5}, {("a", "b"): 2.0}, offset=0.25)
    fixed = model.fix_variable("a", SPIN_TRUE)
    for sb in (-1, 1):
        assert fixed.energy({"b": sb}) == pytest.approx(
            model.energy({"a": 1, "b": sb})
        )
    assert "a" not in fixed


def test_fix_variable_validates_input():
    model = IsingModel({"a": 1.0})
    with pytest.raises(ValueError):
        model.fix_variable("a", 0)
    with pytest.raises(KeyError):
        model.fix_variable("zz", 1)


# ----------------------------------------------------------------------
# QUBO conversion
# ----------------------------------------------------------------------
def test_qubo_roundtrip_small():
    model = IsingModel({"a": 0.5, "b": -1.5}, {("a", "b"): 2.0}, offset=3.0)
    qubo, offset = model.to_qubo()
    back = IsingModel.from_qubo(qubo, offset)
    assert back == model


def test_scaled_multiplies_everything():
    model = IsingModel({"a": 1.0}, {("a", "b"): -2.0}, offset=4.0)
    scaled = model.scaled(0.5)
    assert scaled.get_linear("a") == pytest.approx(0.5)
    assert scaled.get_interaction("a", "b") == pytest.approx(-1.0)
    assert scaled.offset == pytest.approx(2.0)


def test_scaled_preserves_ground_states(triangle_model):
    _, original = triangle_model.ground_states()
    _, scaled = triangle_model.scaled(0.37).ground_states()
    key = lambda states: {tuple(sorted(s.items())) for s in states}
    assert key(original) == key(scaled)


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
coefficients = st.floats(
    min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
)


@st.composite
def small_models(draw, max_variables: int = 5):
    n = draw(st.integers(min_value=1, max_value=max_variables))
    model = IsingModel(offset=draw(coefficients))
    for i in range(n):
        model.add_variable(i, draw(coefficients))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                model.add_interaction(i, j, draw(coefficients))
    return model


@st.composite
def models_with_samples(draw):
    model = draw(small_models())
    sample = {v: draw(st.sampled_from((-1, 1))) for v in model.variables}
    return model, sample


@given(models_with_samples())
@settings(max_examples=60, deadline=None)
def test_qubo_preserves_energy(model_sample):
    """Ising and QUBO forms agree at every point, not just the argmin."""
    model, sample = model_sample
    qubo, offset = model.to_qubo()
    x = {v: (s + 1) // 2 for v, s in sample.items()}
    qubo_energy = offset + sum(
        coeff * x[u] * x[v] for (u, v), coeff in qubo.items()
    )
    assert math.isclose(qubo_energy, model.energy(sample), abs_tol=1e-9)


@given(models_with_samples())
@settings(max_examples=60, deadline=None)
def test_fix_variable_pointwise(model_sample):
    model, sample = model_sample
    variable = next(iter(model.variables))
    fixed = model.fix_variable(variable, sample[variable])
    rest = {v: s for v, s in sample.items() if v != variable}
    assert math.isclose(fixed.energy(rest), model.energy(sample), abs_tol=1e-9)


@given(models_with_samples())
@settings(max_examples=60, deadline=None)
def test_relabel_preserves_energy(model_sample):
    model, sample = model_sample
    mapping = {v: f"v{v}" for v in model.variables}
    renamed = model.relabel(mapping)
    renamed_sample = {mapping[v]: s for v, s in sample.items()}
    assert math.isclose(
        renamed.energy(renamed_sample), model.energy(sample), abs_tol=1e-9
    )


@given(small_models())
@settings(max_examples=30, deadline=None)
def test_vectorized_energy_matches_scalar_property(model):
    order, _, _ = model.to_arrays()
    rng = np.random.default_rng(0)
    samples = rng.choice([-1.0, 1.0], size=(8, len(order)))
    energies = model.energies(samples, order=order)
    for row, energy in zip(samples, energies):
        assert math.isclose(
            model.energy(dict(zip(order, row))), energy, abs_tol=1e-9
        )
