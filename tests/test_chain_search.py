"""The embedder's neighbour search: the native calls against scipy and Python.

``_SearchGraphs.search`` runs all of a variable's neighbour-chain
searches in one native call, which pops each search in scipy's order and
stops once no unknown qubit can reach the best total, or, where the
native library cannot load, as full scipy searches.  Both must choose
the root ``np.argmin`` picks over the full totals, give the same
predecessors along every path from it into a chain, and find no root
exactly when no total is finite.  ``_SearchGraphs.grow`` takes the whole
``embed_variable`` step in one native call -- the searches, the walks
from the root and the trim of their union -- and must return the
fallback's root, walks and removal order, from which the embedder builds
the chain's set by the reference embedder's own set operations.  The
scipy fallback's agreement rests on scipy's pop order, pinned here, and
both paths read one noise draw, also pinned.
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

from repro.core import native
from repro.hardware import make_topology
from repro.hardware.chimera import dropout
from repro.hardware.embedding import (
    _EmbedderState,
    _grown,
    _random_floats,
    _SearchGraphs,
)
from tests import embedding_reference
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
    """Both conversions of the draw's bytes, numpy's and the native
    library's (where it loads), give random.random()'s floats."""
    conversions = [None]
    if native.unavailable_reason() is None:
        conversions.append(native.function("repro_random_floats"))
    seeds = random.Random(n)
    for seed in [seeds.getrandbits(64) for _ in range(200)]:
        listed = random.Random(seed)
        expected = np.array([listed.random() for _ in range(n)])
        for convert in conversions:
            drawn = random.Random(seed)
            floats = _random_floats(drawn, n, convert)
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
    """A damaged target, costs, 1-8 connected chains that may share
    qubits, noise and a noise amplitude.

    Costs have the embedder's shape, a base to the power of each qubit's
    usage: the target's own base with usage 0-3, or 0-7 or 0-9, or the
    base of a C12 or a P16 (1152, 5640).  So free qubits fill the
    searches' level bitsets and occupied ones their heaps, and costs and
    totals pass 2**53, where a sum can absorb a cost of 1.  Some cases
    scale the costs by 0.1, so level distances are not integers, and
    some zero a fifth of them, so pushes land at the popped distance.
    Some list the target's qubits out of label order, so that label
    order and index order differ."""
    family, size = draw(st.sampled_from(TOPOLOGIES))
    dead = draw(st.sampled_from([0.0, 0.05, 0.3, 0.6]))
    target = _target(family, size, dead, draw(st.integers(0, 3)))
    if draw(st.booleans()):
        shuffled = nx.Graph()
        shuffled.add_nodes_from(draw(st.permutations(list(target.nodes()))))
        shuffled.add_edges_from(target.edges())
        target = shuffled
    nodes = list(target.nodes())
    n = len(nodes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    busy = draw(st.sampled_from([0.0, 0.1, 0.5]))
    most = draw(st.sampled_from([3, 3, 7, 9]))
    usage = np.where(rng.random(n) < busy, rng.integers(1, most + 1, size=n), 0)
    base = draw(st.sampled_from([max(8.0, float(n)), max(8.0, float(n)), 1152.0, 5640.0]))
    costs = np.power(base, usage.astype(float))
    shape = draw(st.sampled_from(["powers", "powers", "tenths", "zeros"]))
    if shape == "tenths":
        costs = costs * 0.1
    elif shape == "zeros":
        costs[rng.random(n) < 0.2] = 0.0
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
    return target, costs, chains, amplitude, noise


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
    target, costs, chains, amplitude, noise = case
    graphs = _SearchGraphs(nx.Graph(), target)
    assert graphs.search_name == "native"
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


# ----------------------------------------------------------------------
# The one-call step against the fallback's search, walk and trim
# ----------------------------------------------------------------------
def _chain_as_built(target, root, parents, chains):
    """The chain's set as the reference embedder builds it: the root,
    each path's set joined in turn, then its trim's set copy and one
    difference per removed qubit.  The set's iteration order is the
    order ``embed_ising`` gives the chain's qubits."""
    source = nx.Graph([("v", i) for i in range(len(chains))])
    state = embedding_reference._EmbedderState(source, target, random.Random(0))
    state.chains = dict(enumerate(chains))
    chain = {state._nodes[root]}
    for parent, neighbor_chain in zip(parents, chains):
        chain |= state._path_to_chain(root, parent, neighbor_chain)
    return state._trimmed("v", chain)


def _assert_same_step(graphs, costs, chains, amplitude, noise):
    """``grow`` against the scipy search, the Python walks and the Python
    trim, and the chain it builds against the reference's set."""
    root, walks, removed = graphs.grow(costs, chains, noise, amplitude)
    expected_root, parents = graphs._scipy_search(costs, chains, noise, amplitude)
    assert root == expected_root
    if root < 0:
        assert walks == [] and removed == []
        return root, walks, removed
    expected_walks = [
        graphs._path_to_chain(root, parent, chain)
        for parent, chain in zip(parents, chains)
    ]
    assert walks == expected_walks
    union = {graphs.nodes[root]}.union(*walks)
    assert removed == graphs._python_trim(union, chains)
    chain = _grown(graphs.nodes[root], walks, removed)
    assert list(chain) == list(_chain_as_built(graphs.target, root, parents, chains))
    return root, walks, removed


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=search_cases())
def test_one_call_step_matches_the_fallback(native_search, case):
    target, costs, chains, amplitude, noise = case
    graphs = _SearchGraphs(nx.Graph(), target)
    assert graphs.search_name == "native"
    _assert_same_step(graphs, costs, chains, amplitude, noise)


def _path_target(labels):
    """A path through ``labels`` in order, its qubits listed in that
    order."""
    target = nx.Graph()
    target.add_nodes_from(labels)
    target.add_edges_from(zip(labels, labels[1:]))
    return target


@pytest.mark.parametrize("n", [5, 1152, 5640])
def test_the_kept_cost_vector_is_np_power_bit_for_bit(n):
    """The embedder updates ``penalty_base ** usage`` only at the qubits
    a claim or a release touches.  After every step of a random sequence
    of them, with usage up to 8, the vector must be the one np.power
    gives over the whole usage vector, bit for bit, at bases 8, 1152 and
    5640 (past 1152 ** 5 the powers are no longer exact)."""
    graphs = _SearchGraphs(nx.empty_graph(8), nx.path_graph(n))
    rng = random.Random(n)
    state = _EmbedderState(graphs, rng)
    shared = list(range(min(n, 4)))
    moves = [("claim", v) for v in range(8)]
    moves += [("toggle", rng.randrange(8)) for _ in range(300)]
    peak = 0
    for move, v in moves:
        if move == "toggle" and v in state.chains:
            state._release(v)
        else:
            chain = set(rng.sample(shared, rng.randint(1, len(shared))))
            state._claim(v, chain | {rng.randrange(n), shared[0]})
        expected = np.power(state.penalty_base, state.usage.astype(float))
        assert state.costs.tobytes() == expected.tobytes()
        peak = max(peak, int(state.usage.max()))
    assert peak == 8


# (edges, costs, chains, noise, root): amplitude 0, so totals are exact
# small integers.  The path case's qubit 0 is known to search {0} only
# when the best total is qubit 1's 2; its bound, 1 + 0 + 1, equals it,
# and the search from {1} then finds it at total 2 too.  In the triangle,
# qubit 2 totals 1 first; qubit 1, which no search has popped yet, is
# bounded by the smallest cost plus the next distance, also 1.
TIES = {
    "partly-known": ([(0, 1), (1, 2)], [1.0, 1.0, 1.0], [{0}, {1}], [0.5, 0.5, 0.75], 0),
    "never-popped": ([(0, 1), (0, 2), (1, 2)], [3.0, 1.0, 1.0], [{1, 2}], [0.75, 0.5, 0.5], 1),
}


@pytest.mark.parametrize("case", sorted(TIES))
def test_an_unknown_qubit_tying_the_best_total_wins_on_its_smaller_index(
    native_search, case
):
    edges, costs, chains, noise, root = TIES[case]
    graphs = _SearchGraphs(nx.Graph(), nx.Graph(edges))
    costs, noise = np.array(costs), np.array(noise)
    for search in (graphs.search, graphs._scipy_search):
        assert search(costs, chains, noise, 0.0)[0] == root
    assert _assert_same_step(graphs, costs, chains, 0.0, noise)[0] == root


def test_the_bound_counts_amplitude_times_noise(native_search):
    """On the path 0-1-3-2 from chains {0, 1} and {2}, qubits 3 and then
    2 total 7.  Qubit 1, popped by the first search only, is bounded by
    3 + 0 + 4 (the second search's next distance) plus 8 * 0.25: 9 with
    the noise, which beats 7, but 7 without it, which would tie and keep
    the searches going.  So the second search never relaxes qubit 0."""
    graphs = _SearchGraphs(nx.Graph(), nx.Graph([(0, 1), (1, 3), (2, 3)]))
    costs = np.array([3.0, 3.0, 1.0, 1.0])
    noise = np.array([0.75, 0.25, 0.5, 0.5])
    chains = [{0, 1}, {2}]
    root, parents = graphs.search(costs, chains, noise, 8.0)
    assert root == 2 and parents[1][0] == -9999
    assert _assert_same_step(graphs, costs, chains, 8.0, noise)[0] == 2


def _levels_case(costs, noise):
    """130 qubits, listed in label order so that index and label agree
    and the bitsets span three words, with chains {0} and {129}."""
    target = nx.Graph()
    target.add_nodes_from(range(130))
    target.add_edges_from([
        (0, 1), (0, 2), (2, 100), (1, 50), (100, 50), (50, 129),
        (1, 3), (3, 4), (0, 5), (4, 6), (5, 6), (6, 129),
    ])
    full_costs, full_noise = np.ones(130), np.full(130, 0.5)
    full_costs[list(costs)] = list(costs.values())
    full_noise[list(noise)] = list(noise.values())
    return target, full_costs, full_noise


# Each case's search from {0} must pop a pending qubit of a higher bitset
# word first.  "zero cost" and "absorbed push": the search reaches 1 and
# 2 at one distance, and 2, popped first as the larger, pushes 100 at
# that same distance, through a cost of 0 or a cost of 1 that 2**53
# absorbs (there 1 waits in the heap, 100 in a bitset).  100 must pop
# before 1, so 50 takes 100 as its predecessor, and the noise puts the
# root at 50: its walk into {0} is [50, 100, 2], where popping 1 first
# would give [50, 1].  "fractional cost": with a smallest cost of 0.1
# the levels sit at 0.1, 0.2 and 0.30000000000000004, none an integer,
# and qubit 5, at a cost of 0.3, pops between the last two from the
# heap; so 6 is reached first from 5 at 0.4, not from 4 at
# 0.4000000000000001, and the root 6 walks [6, 5] into {0}.
LEVELS = {
    "zero cost": (
        {1: 0.0, 2: 0.0, 100: 0.0, 3: 9.0, 5: 9.0}, {50: 0.0}, 50,
        [[50, 100, 2], [50]],
    ),
    "absorbed push": (
        {1: 2.0**53, 2: 2.0**53, 3: 2.0**60, 5: 2.0**60}, {50: 0.0}, 50,
        [[50, 100, 2], [50]],
    ),
    "fractional cost": (
        {q: 0.1 for q in (0, 1, 3, 4, 6, 129)} | {5: 0.3, 2: 9.0, 50: 9.0},
        {6: 0.0}, 6, [[6, 5], [6]],
    ),
}


@pytest.mark.parametrize("case", sorted(LEVELS))
def test_the_level_queue_pops_in_the_strict_order(native_search, case):
    costs, noise, root, walks = LEVELS[case]
    target, costs, noise = _levels_case(costs, noise)
    graphs = _SearchGraphs(nx.Graph(), target)
    chains = [{0}, {129}]
    for search in (graphs.search, graphs._scipy_search):
        _assert_same_choice(graphs, search, costs, chains, 8.0, noise)
    assert _assert_same_step(graphs, costs, chains, 8.0, noise) == (root, walks, [])


def test_root_inside_a_neighbour_chain_is_trimmed_away(native_search):
    """On the path 0-4 every qubit totals 5 from chains {0} and {4}, so
    the root is 0, inside the first chain: its walk is empty, the other
    walk passes 0-3, and trimming removes 0, the only qubit neither a
    cut qubit nor the last one beside a chain."""
    graphs = _SearchGraphs(nx.Graph(), _path_target([0, 1, 2, 3, 4]))
    costs, noise = np.ones(5), np.zeros(5)
    step = _assert_same_step(graphs, costs, [{0}, {4}], 0.0, noise)
    assert step == (0, [[], [0, 1, 2, 3]], [0])
    assert _grown(0, step[1], step[2]) == {1, 2, 3}


def test_trim_stops_at_once_when_a_halo_is_untouched(native_search):
    """The chain 0-1-2 touches the halo of chain {3} at 2 but not that of
    {5} (qubit 4 alone): it is not coupled to {5}, so trimming removes
    nothing, where against {3} alone it removes 0 and then 1."""
    graphs = _SearchGraphs(nx.Graph(), _path_target([0, 1, 2, 3, 4, 5]))
    for trim in (graphs.trim, graphs._python_trim):
        assert trim({0, 1, 2}, [{3}, {5}]) == []
        assert trim({0, 1, 2}, [{3}]) == [0, 1]


def test_trim_follows_label_order_not_index_order(native_search):
    """The path 30-20-10-0, its qubits listed in that order (index order
    the reverse of label order), trimmed against a chain beside 20: label
    order removes 0, 10 and then 30, where index order would remove 30
    first."""
    labels = [30, 20, 10, 0]
    target = _path_target(labels)
    target.add_edge(20, 99)
    graphs = _SearchGraphs(nx.Graph(), target)
    for trim in (graphs.trim, graphs._python_trim):
        assert trim(set(labels), [{99}]) == [0, 10, 30]


@pytest.mark.parametrize("amplitude", [-8.0, -0.0 - 1e-300, float("nan"), float("inf")])
def test_search_and_grow_reject_a_negative_or_nan_amplitude(amplitude):
    graphs = _SearchGraphs(nx.Graph(), nx.path_graph(3))
    for call in (graphs.search, graphs.grow):
        with pytest.raises(ValueError, match="amplitude must be finite and non-negative"):
            call(np.ones(3), [{0}], np.zeros(3), amplitude)


def test_search_and_grow_reject_negative_or_nan_costs_and_noise():
    graphs = _SearchGraphs(nx.Graph(), nx.path_graph(3))
    ones = np.ones(3)
    for costs, noise in (
        (np.array([1.0, -1.0, 1.0]), ones),
        (np.array([1.0, np.nan, 1.0]), ones),
        (ones, np.array([0.5, -0.5, 0.5])),
        (ones, np.array([np.nan, 0.5, 0.5])),
    ):
        for call in (graphs.search, graphs.grow, graphs._scipy_search):
            with pytest.raises(ValueError, match="must be non-negative"):
                call(costs, [{0}], noise, 0.5)


def test_the_fallback_rejects_what_the_native_calls_reject(native_fallback):
    graphs = _SearchGraphs(nx.Graph(), nx.path_graph(3))
    assert graphs.search_name == "scipy"
    for call in (graphs.search, graphs.grow):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            call(np.ones(3), [{0}], np.zeros(3), -8.0)
        with pytest.raises(ValueError, match="must be non-negative"):
            call(np.array([1.0, -1.0, 1.0]), [{0}], np.zeros(3), 0.5)


def test_grow_finds_no_root_when_no_qubit_reaches_every_chain(native_search):
    target = nx.Graph([(0, 1), (1, 2), (3, 4), (4, 5)])
    graphs = _SearchGraphs(nx.Graph(), target)
    assert graphs.grow(np.ones(6), [{0}, {5}], np.zeros(6), 0.5) == (-1, [], [])


def test_labels_with_no_one_order_search_on_the_fallback():
    """A rank needs every label comparable; without one the graph trims
    in Python, which sorts each chain on its own, and searches on scipy."""
    graphs = _SearchGraphs(nx.Graph(), nx.Graph([(0, "a"), ("a", 1)]))
    assert graphs.search_name == "scipy"
    assert graphs.grow(np.ones(3), [{0}], np.zeros(3), 0.5) == (0, [[]], [])
