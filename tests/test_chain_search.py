"""The embedder's neighbour search: the native call against full scipy searches.

``_SearchGraphs.search`` runs all of a variable's neighbour-chain
searches in one native call, which pops each search in scipy's order and
stops once no unknown node can beat the best total, or, where the native
library cannot load, as full scipy searches.  Both must choose the root
``np.argmin`` picks over the full totals, give the same predecessors
along every path from it into a chain, and find no root exactly when no
total is finite.  The scipy fallback's agreement rests on scipy's pop
order, pinned here, and both paths read one noise draw, also pinned.
"""

import functools
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.hardware import make_topology
from repro.hardware.chimera import dropout
from repro.hardware.embedding import _random_floats, _SearchGraphs
from tests.conftest import require_native_tier


def test_scipy_pops_equal_distances_larger_index_first():
    """Sources 1 and 3 on the unit-cost diamond 0-1-2-3-0 both reach 2
    at distance 1; scipy must record the larger index, 3, whichever
    source comes first."""
    ends = np.array([(0, 1), (1, 2), (2, 3), (3, 0)])
    rows = np.concatenate((ends[:, 0], ends[:, 1]))
    cols = np.concatenate((ends[:, 1], ends[:, 0]))
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(4, 4))
    (dist, pred, _), (dist_reversed, pred_reversed, _) = (
        dijkstra(graph, directed=True, indices=sources,
                 return_predecessors=True, min_only=True)
        for sources in ([1, 3], [3, 1])
    )
    message = (
        "scipy's dijkstra no longer pops equal distances larger index "
        "first, whatever the source order; the scipy fallback of the "
        "embedder would then stop matching the native search"
    )
    assert pred[2] == 3, message
    assert np.array_equal(dist, dist_reversed), message
    assert np.array_equal(pred, pred_reversed), message


@pytest.mark.parametrize("n", [1, 2, 1152, 5640])
def test_one_draw_noise_is_random_random_bit_for_bit(n):
    seeds = random.Random(n)
    for seed in [seeds.getrandbits(64) for _ in range(200)]:
        drawn, listed = random.Random(seed), random.Random(seed)
        floats = _random_floats(drawn, n)
        expected = np.array([listed.random() for _ in range(n)])
        assert floats.dtype == np.float64 and floats.shape == (n,)
        assert floats.tobytes() == expected.tobytes()
        assert drawn.getstate() == listed.getstate()


# ----------------------------------------------------------------------
# The native call against full scipy searches
# ----------------------------------------------------------------------
TOPOLOGIES = [("chimera", 3), ("chimera", 4), ("pegasus", 3), ("zephyr", 2)]


@functools.lru_cache(maxsize=None)
def _target(family: str, size: int, dead: float, seed: int) -> nx.Graph:
    return dropout(make_topology(family, size=size).graph, fraction=dead, seed=seed)


@st.composite
def search_cases(draw):
    """A damaged target, usage 0-3, 1-8 connected chains that may share
    qubits, and a noise amplitude.  Some cases let usage reach 9, where
    costs pass 2**53 and a sum can absorb a cost of 1."""
    family, size = draw(st.sampled_from(TOPOLOGIES))
    dead = draw(st.sampled_from([0.0, 0.05, 0.3, 0.6]))
    target = _target(family, size, dead, draw(st.integers(0, 3)))
    nodes = list(target.nodes())
    n = len(nodes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    busy = draw(st.sampled_from([0.0, 0.1, 0.5]))
    most = draw(st.sampled_from([3, 3, 9]))
    usage = np.where(rng.random(n) < busy, rng.integers(1, most + 1, size=n), 0)
    share = draw(st.booleans())
    chains = []
    for _ in range(draw(st.integers(1, 8))):
        if share and chains and rng.random() < 0.5:
            start = sorted(chains[rng.integers(len(chains))])[0]
        else:
            start = nodes[rng.integers(n)]
        chain = {start}
        for _ in range(rng.integers(0, 6)):
            frontier = sorted({r for q in chain for r in target.adj[q]} - chain)
            if not frontier:
                break
            chain.add(frontier[rng.integers(len(frontier))])
        chains.append(chain)
    # 0 makes ties between totals common, which the smaller index wins.
    amplitude = draw(st.sampled_from([0.0, 0.5, 8.0]))
    noise = _random_floats(random.Random(draw(st.integers(0, 2**32))), n)
    return target, usage, chains, amplitude, noise


def _full_searches(target, costs, chains, amplitude, noise):
    """Full scipy searches over a CSR built from the edges, as the
    embedder once did: the root np.argmin picks (-1 when no total is
    finite) and every search's predecessors."""
    nodes = list(target.nodes())
    index = {q: i for i, q in enumerate(nodes)}
    ends = np.array([(index[u], index[v]) for u, v in target.edges()]).reshape(-1, 2)
    rows = np.concatenate((ends[:, 0], ends[:, 1]))
    cols = np.concatenate((ends[:, 1], ends[:, 0]))
    graph = csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(len(nodes), len(nodes))
    )
    graph.data = costs[graph.indices]
    total = costs.copy()
    parents = []
    for chain in chains:
        dist, parent, _ = dijkstra(
            graph, directed=True, indices=[index[q] for q in chain],
            return_predecessors=True, min_only=True,
        )
        total = total + dist
        parents.append(parent)
    total = total + amplitude * noise
    root = int(np.argmin(total))
    return (root if np.isfinite(total[root]) else -1), parents


def _path(root, parent, chain):
    """The nodes from ``root`` along ``parent`` until one in ``chain``."""
    path = [root]
    while path[-1] >= 0 and path[-1] not in chain:
        path.append(int(parent[path[-1]]))
    return path


def _assert_same_choice(graphs, search, costs, chains, amplitude, noise):
    root, parents = search(costs, chains, noise, amplitude)
    expected_root, expected_parents = _full_searches(
        graphs.target, costs, chains, amplitude, noise
    )
    assert root == expected_root
    if root < 0:
        return
    for chain, parent, expected in zip(chains, parents, expected_parents):
        indices = {graphs.index[q] for q in chain}
        assert _path(root, parent, indices) == _path(root, expected, indices)
        assert _path(root, parent, indices)[-1] in indices


@pytest.fixture(scope="module")
def native_search():
    require_native_tier()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=search_cases())
def test_native_search_matches_full_scipy_searches(native_search, case):
    target, usage, chains, amplitude, noise = case
    graphs = _SearchGraphs(nx.Graph(), target)
    assert graphs.search_name == "native"
    costs = np.power(max(8.0, float(len(graphs.nodes))), usage.astype(float))
    for search in (graphs.search, graphs._scipy_search):
        _assert_same_choice(graphs, search, costs, chains, amplitude, noise)


def test_distances_equal_to_the_best_total_are_still_searched(native_search):
    """A cost of 2**60 absorbs a cost of 1, so nodes 3 and 1 both total
    2**60, their own distance.  Node 3 is known first; node 1 is pushed
    and popped at exactly the best total, and wins on its index."""
    big = 2.0**60
    target = nx.Graph()
    target.add_nodes_from(range(5))
    target.add_edges_from([(0, 4), (4, 3), (3, 1)])
    graphs = _SearchGraphs(nx.Graph(), target)
    costs = np.array([4 * big, 1.0, 1.0, 1.0, big])
    noise = _random_floats(random.Random(0), 5)
    for search in (graphs.search, graphs._scipy_search):
        _assert_same_choice(graphs, search, costs, [{0}], 0.5, noise)
        assert search(costs, [{0}], noise, 0.5)[0] == 1


def test_search_rejects_arrays_of_the_wrong_size_and_empty_chains():
    graphs = _SearchGraphs(nx.Graph(), nx.path_graph(3))
    ones = np.ones(3)
    for costs, chains, noise in (
        (np.ones(2), [{0}], ones),
        (ones, [{0}], np.ones(4)),
        (ones, [], ones),
        (ones, [{0}, set()], ones),
    ):
        with pytest.raises(ValueError, match="3 costs, 3 noise values"):
            graphs.search(costs, chains, noise, 0.5)


def test_no_root_when_no_qubit_reaches_every_chain(native_search):
    """Chains in different components: no total is finite on either path."""
    target = nx.Graph([(0, 1), (1, 2), (3, 4), (4, 5)])
    graphs = _SearchGraphs(nx.Graph(), target)
    costs = np.ones(6)
    noise = np.zeros(6)
    for search in (graphs.search, graphs._scipy_search):
        assert search(costs, [{0}, {5}], noise, 0.5)[0] == -1
        assert search(costs, [{0}, {2}], noise, 0.5)[0] in (0, 1, 2)
