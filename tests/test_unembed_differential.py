"""Differential test: the array unembedding against its per-read loop.

:func:`repro.hardware.embedding.unembed_sampleset` gathers every chain's
columns once and votes on whole arrays; ``tests/unembed_reference.py``
keeps the per-read, per-variable loop it replaced.  Both must give the
same C-ordered ``int8`` records, occurrences, energies and
``chain_break_fraction``, bit for bit, on reads with broken chains,
tied votes, every read discarded and no reads at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.embedding import Embedding, EmbeddingError, unembed_sampleset
from repro.ising.model import IsingModel
from repro.solvers.sampleset import SampleSet
from tests.unembed_reference import reference_unembed_sampleset


@st.composite
def unembedding_cases(draw):
    """A logical model, disjoint chains of 1-4 qubits (even lengths make
    tied votes), physical reads that keep or break each chain, and a
    method."""
    strings = draw(st.booleans())
    num_vars = draw(st.integers(0, 6))
    variables = [f"v{i}" if strings else i for i in range(num_vars)]
    draw(st.randoms()).shuffle(variables)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = IsingModel(h={v: float(rng.normal()) for v in variables})
    for a in range(num_vars):
        for b in range(a + 1, num_vars):
            if rng.random() < 0.4:
                model.add_interaction(variables[a], variables[b], float(rng.normal()))
    sizes = [int(rng.integers(1, 5)) for _ in variables]
    spare = int(rng.integers(0, 4))
    qubits = [int(q) for q in rng.permutation(100 + sum(sizes) + spare)[: sum(sizes) + spare]]
    chains, at = {}, 0
    for v, size in zip(variables, sizes):
        chains[v] = frozenset(qubits[at : at + size])
        at += size
    order = list(rng.permutation(qubits))
    num_reads = draw(st.integers(0, 8))
    whole = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    records = np.empty((num_reads, len(order)), dtype=np.int8)
    column = {q: i for i, q in enumerate(order)}
    for r in range(num_reads):
        records[r] = rng.choice([-1, 1], size=len(order))
        for chain in chains.values():
            if rng.random() < whole:
                records[r, [column[q] for q in chain]] = rng.choice([-1, 1])
    energies = rng.normal(size=num_reads).round(1)  # ties keep the stable sort busy
    occurrences = rng.integers(1, 6, size=num_reads)
    physical = SampleSet(order, records, energies, occurrences, {"solver": "test"})
    method = draw(st.sampled_from(["majority", "discard"]))
    return physical, Embedding(chains), model, method


def _assert_same_sampleset(ours, expected):
    assert ours.variables == expected.variables
    assert ours.records.dtype == expected.records.dtype == np.int8
    assert ours.records.flags["C_CONTIGUOUS"] and expected.records.flags["C_CONTIGUOUS"]
    assert ours.records.shape == expected.records.shape
    assert ours.records.tobytes() == expected.records.tobytes()
    assert ours.energies.dtype == expected.energies.dtype
    assert ours.energies.tobytes() == expected.energies.tobytes()
    assert ours.occurrences.dtype == expected.occurrences.dtype
    assert ours.occurrences.tobytes() == expected.occurrences.tobytes()
    assert ours.info == expected.info
    assert (
        np.float64(ours.info["chain_break_fraction"]).tobytes()
        == np.float64(expected.info["chain_break_fraction"]).tobytes()
    )


@settings(max_examples=300, deadline=None)
@given(case=unembedding_cases())
def test_unembed_matches_the_per_read_loop(case):
    physical, embedding, model, method = case
    _assert_same_sampleset(
        unembed_sampleset(physical, embedding, model, method=method),
        reference_unembed_sampleset(physical, embedding, model, method=method),
    )


def _two_qubit_chain_case():
    """x on qubits {3, 1}, y on {2}: read 0 keeps both chains, read 1
    ties x at 0 (qubit 1, first in sorted order, reads -1), read 2
    breaks nothing, read 3 ties x the other way."""
    model = IsingModel(h={"x": 0.5, "y": -0.25}, j={("x", "y"): -1.0})
    embedding = Embedding({"x": frozenset({3, 1}), "y": frozenset({2})})
    order = [2, 3, 1]
    records = np.array(
        [[1, 1, 1], [1, 1, -1], [-1, -1, -1], [-1, -1, 1]], dtype=np.int8
    )
    physical = SampleSet(order, records, np.arange(4.0), np.array([1, 2, 3, 4]))
    return physical, embedding, model


def test_tied_votes_follow_the_first_qubit_in_sorted_order():
    physical, embedding, model = _two_qubit_chain_case()
    logical = unembed_sampleset(physical, embedding, model)
    rows = {
        tuple(record): int(count)
        for record, count in zip(logical.records.tolist(), logical.occurrences)
    }
    assert rows == {(1, 1): 1, (-1, 1): 2, (-1, -1): 3, (1, -1): 4}
    assert logical.info["chain_break_fraction"] == 0.25
    _assert_same_sampleset(
        logical, reference_unembed_sampleset(physical, embedding, model)
    )


def test_every_read_discarded_and_no_reads():
    physical, embedding, model = _two_qubit_chain_case()
    broken = SampleSet(
        physical.variables, physical.records[[1, 3]], np.zeros(2), np.ones(2)
    )
    for samples in (broken, SampleSet.empty(physical.variables)):
        logical = unembed_sampleset(samples, embedding, model, method="discard")
        assert len(logical) == 0 and logical.variables == ["x", "y"]
        _assert_same_sampleset(
            logical,
            reference_unembed_sampleset(samples, embedding, model, method="discard"),
        )
    assert unembed_sampleset(broken, embedding, model, "discard").info[
        "chain_break_fraction"
    ] == 0.5


@pytest.mark.parametrize("method", ["discrad", "Majority", ""])
def test_unknown_method_is_an_error(method):
    """A misspelt method once majority-voted silently: "discrad" kept
    two reads where "discard" keeps one."""
    physical, embedding, model = _two_qubit_chain_case()
    with pytest.raises(ValueError, match="unknown unembedding method"):
        unembed_sampleset(physical, embedding, model, method=method)


def test_empty_chain_is_an_error():
    physical, _, model = _two_qubit_chain_case()
    embedding = Embedding({"x": frozenset(), "y": frozenset({2})})
    with pytest.raises(EmbeddingError, match="empty chain for 'x'"):
        unembed_sampleset(physical, embedding, model)
