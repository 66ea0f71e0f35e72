"""Tests for SampleSet: the statistics container for annealer reads."""

import numpy as np
import pytest

from repro.ising.model import IsingModel
from repro.solvers.sampleset import Sample, SampleSet
from tests.certify_reference import aggregate as reference_aggregate


@pytest.fixture()
def model():
    return IsingModel({"a": 1.0}, {("a", "b"): -1.0})


def _sampleset(model, rows):
    return SampleSet.from_array(["a", "b"], np.array(rows, dtype=np.int8), model)


def test_sorted_by_energy(model):
    ss = _sampleset(model, [[1, 1], [-1, -1], [-1, 1]])
    assert list(ss.energies) == sorted(ss.energies)
    assert ss.first.energy == ss.energies[0]


def test_first_is_argmin(model):
    ss = _sampleset(model, [[1, 1], [-1, -1]])
    # E(1,1) = 1 - 1 = 0;  E(-1,-1) = -1 - 1 = -2.
    assert ss.first.assignment == {"a": -1, "b": -1}
    assert ss.first.energy == pytest.approx(-2.0)


def test_sample_booleans(model):
    ss = _sampleset(model, [[-1, 1]])
    assert ss.first.booleans() == {"a": False, "b": True}


def test_sample_getitem(model):
    sample = _sampleset(model, [[-1, 1]]).first
    assert sample["a"] == -1
    assert sample["b"] == 1


def test_lowest_filters_to_ground(model):
    ss = _sampleset(model, [[1, 1], [-1, -1], [-1, -1], [1, -1]])
    lowest = ss.lowest()
    assert len(lowest) == 2
    assert all(e == pytest.approx(-2.0) for e in lowest.energies)


def test_aggregate_merges_duplicates(model):
    ss = _sampleset(model, [[-1, -1], [-1, -1], [1, 1]])
    agg = ss.aggregate()
    assert len(agg) == 2
    assert agg.total_reads() == 3
    assert agg.first.num_occurrences == 2


@pytest.mark.parametrize("rows", [
    [],
    [[1, -1]],
    [[1, 1]] * 5,
    "random",
])
def test_aggregate_matches_the_row_loop(model, rows):
    """One ``np.unique`` pass gives what the old per-row loop gave."""
    rng = np.random.default_rng(3)
    if rows == "random":
        rows = rng.choice([-1, 1], size=(60, 2))
    records = np.array(rows, dtype=np.int8).reshape(len(rows), 2)
    energies = rng.normal(size=len(records)).round(1)  # ties keep row order
    occurrences = rng.integers(0, 4, size=len(records))
    ss = SampleSet(["a", "b"], records, energies, occurrences, {"k": 1})
    got, want = ss.aggregate(), reference_aggregate(ss)
    assert got.variables == want.variables
    assert got.records.dtype == want.records.dtype
    assert np.array_equal(got.records, want.records)
    assert np.array_equal(got.energies, want.energies)
    assert np.array_equal(got.occurrences, want.occurrences)
    assert got.info == want.info


def test_histogram(model):
    ss = _sampleset(model, [[-1, -1], [-1, -1], [1, 1]])
    hist = ss.histogram()
    assert hist[(-1, -1)] == 2
    assert hist[(1, 1)] == 1


def test_select_projects_variables(model):
    ss = _sampleset(model, [[-1, 1]])
    only_b = ss.select(["b"])
    assert only_b.variables == ["b"]
    assert only_b.records[0][0] == 1


def test_relabeled(model):
    ss = _sampleset(model, [[-1, 1]]).relabeled({"a": "x"})
    assert ss.variables == ["x", "b"]
    assert ss.first.assignment == {"x": -1, "b": 1}


def test_from_samples_dicts(model):
    ss = SampleSet.from_samples(
        [{"a": -1, "b": -1}, {"a": 1, "b": 1}], model
    )
    assert len(ss) == 2
    assert ss.first.energy == pytest.approx(-2.0)


def test_from_samples_empty_rejected(model):
    with pytest.raises(ValueError):
        SampleSet.from_samples([], model)


def test_empty_sampleset():
    ss = SampleSet.empty(["a"])
    assert len(ss) == 0
    with pytest.raises(ValueError):
        _ = ss.first
    assert ss.lowest() is ss


def test_shape_validation(model):
    with pytest.raises(ValueError):
        SampleSet(
            ["a", "b"],
            np.zeros((2, 3), dtype=np.int8),
            np.zeros(2),
            np.ones(2, dtype=int),
        )
    with pytest.raises(ValueError):
        SampleSet(
            ["a", "b"],
            np.zeros((2, 2), dtype=np.int8),
            np.zeros(3),
            np.ones(2, dtype=int),
        )


def test_energies_match_model(model):
    rows = [[1, -1], [-1, 1], [1, 1]]
    ss = _sampleset(model, rows)
    for sample in ss:
        assert model.energy(sample.assignment) == pytest.approx(sample.energy)


def test_iteration_yields_samples(model):
    ss = _sampleset(model, [[1, 1], [-1, -1]])
    samples = list(ss)
    assert all(isinstance(s, Sample) for s in samples)
    assert len(samples) == 2
