"""Tests for minor embedding (Section 4.4)."""

import hashlib
import os
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

from repro.hardware import make_topology
from repro.hardware.chimera import chimera_graph
from repro.hardware.embedding import (
    Embedding,
    EmbeddingError,
    default_chain_strength,
    embed_ising,
    find_embedding,
    source_graph_of,
    unembed_sampleset,
)
from repro.ising.cells import cell_hamiltonian
from repro.ising.model import IsingModel
from repro.solvers.exact import ExactSolver
from repro.solvers.sampleset import SampleSet


@pytest.fixture(scope="module")
def c4():
    return chimera_graph(4)


# ----------------------------------------------------------------------
# find_embedding
# ----------------------------------------------------------------------
def test_k5_embeds_validly(c4):
    source = nx.complete_graph(5)
    embedding = find_embedding(source, c4, seed=0)
    embedding.validate(source.edges(), c4)
    assert embedding.total_qubits() >= 5  # K5 is non-planar: needs chains
    assert embedding.max_chain_length() >= 2


def test_triangle_needs_chains_on_bipartite_target(c4):
    """Chimera has no odd cycles, so a triangle cannot map 1:1."""
    source = nx.complete_graph(3)
    embedding = find_embedding(source, c4, seed=1)
    embedding.validate(source.edges(), c4)
    assert embedding.total_qubits() > 3


def test_path_graph_embeds_with_singletons(c4):
    source = nx.path_graph(6)
    embedding = find_embedding(source, c4, seed=2)
    embedding.validate(source.edges(), c4)


def test_cell_hamiltonian_interaction_graphs_embed(c4):
    for cell in ("XOR", "MUX", "AOI3", "OAI4"):
        model = cell_hamiltonian(cell)
        source = source_graph_of(model)
        embedding = find_embedding(source, c4, seed=3)
        embedding.validate(source.edges(), c4)


def test_embedding_is_seed_dependent(c4):
    """Section 6.1: 'a randomized, heuristic minor embedder ... the
    number of physical qubits varies from compilation to compilation'."""
    source = nx.complete_graph(6)
    embeddings = set()
    for s in range(6):
        chains = find_embedding(source, c4, seed=s).chains
        embeddings.add(
            tuple(sorted(tuple(sorted(chain)) for chain in chains.values()))
        )
    assert len(embeddings) > 1  # different runs, different embeddings


def test_empty_source(c4):
    assert len(find_embedding(nx.Graph(), c4)) == 0


def test_too_large_source_rejected():
    tiny = chimera_graph(1)
    big = nx.complete_graph(9)
    with pytest.raises(EmbeddingError):
        find_embedding(big, tiny, seed=0, tries=2)


def test_infeasible_embedding_raises():
    # K9 needs more couplers than one unit cell (8 qubits) offers.
    tiny = chimera_graph(1)
    with pytest.raises(EmbeddingError):
        find_embedding(nx.complete_graph(8), tiny, seed=0, tries=2, rounds=4)


def test_disconnected_source(c4):
    source = nx.Graph()
    source.add_edge("a", "b")
    source.add_edge("c", "d")
    source.add_node("e")
    embedding = find_embedding(source, c4, seed=4)
    embedding.validate(source.edges(), c4)
    assert "e" in embedding


# ----------------------------------------------------------------------
# Embedding validation
# ----------------------------------------------------------------------
def test_validate_rejects_overlap(c4):
    bad = Embedding({"a": frozenset({0}), "b": frozenset({0})})
    with pytest.raises(EmbeddingError):
        bad.validate([], c4)


def test_validate_rejects_disconnected_chain(c4):
    # Qubits 0 and 1 are both "vertical" in cell (0,0): no edge.
    bad = Embedding({"a": frozenset({0, 1})})
    with pytest.raises(EmbeddingError):
        bad.validate([], c4)


def test_validate_rejects_uncoupled_edge(c4):
    bad = Embedding({"a": frozenset({0}), "b": frozenset({1})})
    with pytest.raises(EmbeddingError):
        bad.validate([("a", "b")], c4)


def test_validate_rejects_empty_chain(c4):
    bad = Embedding({"a": frozenset()})
    with pytest.raises(EmbeddingError):
        bad.validate([], c4)


def test_validate_rejects_foreign_qubits(c4):
    bad = Embedding({"a": frozenset({99999})})
    with pytest.raises(EmbeddingError):
        bad.validate([], c4)


# ----------------------------------------------------------------------
# embed_ising
# ----------------------------------------------------------------------
def _embedded_pair(c4, seed=0):
    model = cell_hamiltonian("AND")
    model.update(IsingModel({"Y": -0.5}))  # bias to break degeneracy
    source = source_graph_of(model)
    embedding = find_embedding(source, c4, seed=seed)
    physical = embed_ising(model, embedding, c4)
    return model, embedding, physical


def test_embed_ising_energy_identity(c4):
    """For chain-consistent samples, physical energy == logical energy
    minus chain_strength per intra-chain coupler (a constant)."""
    model, embedding, physical = _embedded_pair(c4)
    strength = default_chain_strength(model)
    intra_edges = sum(
        c4.subgraph(chain).number_of_edges()
        for chain in embedding.chains.values()
    )
    for logical_sample in (
        {"Y": 1, "A": 1, "B": 1},
        {"Y": -1, "A": 1, "B": -1},
        {"Y": -1, "A": -1, "B": -1},
    ):
        physical_sample = {
            q: logical_sample[v]
            for v, chain in embedding.chains.items()
            for q in chain
        }
        expected = model.energy(logical_sample) - strength * intra_edges
        assert physical.energy(physical_sample) == pytest.approx(expected)


def test_embed_ising_ground_states_project_correctly(c4):
    """The physical argmin, unembedded, is the logical argmin."""
    model, embedding, physical = _embedded_pair(c4)
    if len(physical) > 20:
        pytest.skip("physical model too large for exhaustive check")
    physical_ground = ExactSolver(max_variables=20).ground_states(physical)
    logical = unembed_sampleset(physical_ground, embedding, model)
    truth, _ = model.ground_states()
    assert logical.first.energy == pytest.approx(truth)


def test_embed_ising_respects_topology(c4):
    model, embedding, physical = _embedded_pair(c4)
    for (u, v), coupling in physical.quadratic.items():
        if coupling != 0.0:
            assert c4.has_edge(u, v)


def test_embed_ising_splits_linear_bias(c4):
    model, embedding, physical = _embedded_pair(c4)
    for v, bias in model.linear.items():
        chain_total = sum(
            physical.get_linear(q) for q in embedding[v]
        )
        assert chain_total == pytest.approx(bias)


def test_embed_requires_positive_chain_strength(c4):
    model, embedding, _ = _embedded_pair(c4)
    with pytest.raises(ValueError):
        embed_ising(model, embedding, c4, chain_strength=-1.0)


def test_default_chain_strength_rule():
    """QMASM's default: twice the largest-in-magnitude J."""
    model = IsingModel(j={("a", "b"): -1.5, ("b", "c"): 0.25})
    assert default_chain_strength(model) == pytest.approx(3.0)


# ----------------------------------------------------------------------
# unembed_sampleset
# ----------------------------------------------------------------------
def test_unembed_majority_vote(c4):
    model = IsingModel(j={("x", "y"): -1.0})
    embedding = find_embedding(source_graph_of(model), c4, seed=5)
    physical = embed_ising(model, embedding, c4)
    qubits = list(physical.variables)
    # Build one physical sample with all +1.
    records = np.ones((1, len(qubits)), dtype=np.int8)
    physical_samples = SampleSet.from_array(qubits, records, physical)
    logical = unembed_sampleset(physical_samples, embedding, model)
    assert logical.first.assignment == {"x": 1, "y": 1}
    assert logical.info["chain_break_fraction"] == 0.0


def test_unembed_counts_broken_chains(c4):
    model = IsingModel(j={("x", "y"): -1.0})
    embedding = Embedding({"x": frozenset({0, 4}), "y": frozenset({5})})
    physical = embed_ising(model, embedding, c4)
    qubits = sorted(physical.variables)
    records = np.array([[1, -1, 1]], dtype=np.int8)  # chain {0,4} disagrees
    physical_samples = SampleSet.from_array(qubits, records, physical)
    logical = unembed_sampleset(physical_samples, embedding, model)
    assert logical.info["chain_break_fraction"] == pytest.approx(0.5)


def test_unembed_discard_method(c4):
    model = IsingModel(j={("x", "y"): -1.0})
    embedding = Embedding({"x": frozenset({0, 4}), "y": frozenset({5})})
    physical = embed_ising(model, embedding, c4)
    qubits = sorted(physical.variables)
    records = np.array([[1, -1, 1], [1, 1, 1]], dtype=np.int8)
    physical_samples = SampleSet.from_array(qubits, records, physical)
    kept = unembed_sampleset(physical_samples, embedding, model, method="discard")
    assert len(kept) == 1


def test_source_graph_of_skips_zero_couplings():
    model = IsingModel(j={("a", "b"): 0.0, ("b", "c"): 1.0})
    graph = source_graph_of(model)
    assert not graph.has_edge("a", "b")
    assert graph.has_edge("b", "c")
    assert set(graph.nodes()) == {"a", "b", "c"}


# ----------------------------------------------------------------------
# Property test: random graphs embed validly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_random_graphs_embed_validly(seed, c4):
    import random as _random

    rng = _random.Random(seed)
    n = rng.randint(3, 10)
    source = nx.gnp_random_graph(n, 0.4, seed=seed)
    embedding = find_embedding(source, c4, seed=seed)
    embedding.validate(source.edges(), c4)
    assert set(embedding.chains) == set(source.nodes())


# ----------------------------------------------------------------------
# Pinned embeddings: the embedder's output contract
# ----------------------------------------------------------------------
def _chain_digest(embedding):
    text = repr(sorted((repr(v), sorted(c)) for v, c in embedding.chains.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


PINNED_SOURCES = {
    "K5": lambda: nx.complete_graph(5),
    "K6": lambda: nx.complete_graph(6),
    "K8-str": lambda: nx.relabel_nodes(nx.complete_graph(8), lambda i: f"v{i}"),
    "XOR": lambda: source_graph_of(cell_hamiltonian("XOR")),
    "gnp10": lambda: nx.gnp_random_graph(10, 0.4, seed=2),
}


PINNED_EMBEDDINGS = [
    ("K5", "chimera", 4, 0, "ccc3952f5cba7ce9"),
    ("K8-str", "chimera", 4, 0, "c21e01685957ecac"),
    ("XOR", "chimera", 4, 3, "ec74979c53a6a571"),
    ("gnp10", "pegasus", 3, 2, "29da3a9059b10799"),
    ("K6", "zephyr", 2, 5, "5b36956e201e0470"),
]


def _pinned_embedding_digest(source_name, family, size, seed):
    target = make_topology(family, size=size).graph
    embedding = find_embedding(PINNED_SOURCES[source_name](), target, seed=seed)
    return _chain_digest(embedding)


@pytest.mark.parametrize("source_name, family, size, seed, digest", PINNED_EMBEDDINGS)
def test_pinned_embeddings(source_name, family, size, seed, digest):
    """The same (source, target, seed) gives the same chains.

    A change to these digests changes every cached embedding: bump
    ``EMBEDDER_VERSION`` with it, in one reviewed re-pin."""
    assert _pinned_embedding_digest(source_name, family, size, seed) == digest


@pytest.mark.parametrize("source_name, family, size, seed, digest", PINNED_EMBEDDINGS)
def test_pinned_embeddings_on_scipy(
    source_name, family, size, seed, digest, native_fallback
):
    """A process whose native library does not build finds the same chains."""
    assert _pinned_embedding_digest(source_name, family, size, seed) == digest


# ----------------------------------------------------------------------
# Determinism across interpreter hash seeds
# ----------------------------------------------------------------------
_HASH_SEED_CHILD = """
import json
import networkx as nx
from repro.hardware.chimera import chimera_graph
from repro.hardware.embedding import find_embedding

source = nx.relabel_nodes(nx.complete_graph(8), lambda i: f"v{i}")
embedding = find_embedding(source, chimera_graph(4), seed=0)
print(json.dumps(sorted((v, sorted(c)) for v, c in embedding.chains.items())))
"""


def test_string_labelled_embedding_ignores_hash_seed():
    """String variable names must not leak their hash order into the
    embedding: K8 on C4 needs overlap moves, whose order once did."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_CHILD],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.add(child.stdout)
    assert len(outputs) == 1
