"""Minor embedding: mapping logical variables onto chains of qubits.

The Chimera graph contains no odd cycles, so almost none of the cell
Hamiltonians of Table 5 fit the hardware directly (Section 4.4).  The
fix is *minor embedding* (Choi 2008): replace a logical variable with a
connected chain of physical qubits tied together by strong ferromagnetic
(negative-J) couplers, such that every logical coupling is backed by at
least one physical coupler between the two chains.

We reproduce the randomized heuristic of Cai, Macready & Roy (the
algorithm inside D-Wave's SAPI, which the paper uses): variables are
embedded one at a time by growing shortest-path trees from the chains of
already-embedded neighbors, with qubit costs that grow exponentially
with how many chains already occupy a qubit; several improvement rounds
then re-embed each variable in turn until no qubit is shared.  Because
the heuristic is randomized, the physical qubit count varies from
compilation to compilation -- exactly the behaviour Section 6.1 reports
(369 +/- 26 qubits over 25 compilations).
"""

from __future__ import annotations

import hashlib
import math
import random
import time
import weakref
from dataclasses import dataclass
from itertools import accumulate
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core import native, trace
from repro.ising.model import IsingModel
from repro.solvers.sampleset import SampleSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

Variable = Hashable
Qubit = int

#: Bumped whenever the embedder's output for a given (source, target,
#: seed) changes, so cached embeddings from an older embedder miss
#: instead of being served.  2: overlap moves visit chains in dict
#: order, no longer in string-hash order.
EMBEDDER_VERSION = 2


class EmbeddingError(Exception):
    """No valid embedding was found within the retry budget.

    Carries structured diagnostics so failures on degraded hardware are
    debuggable from the message alone: how big the source and target
    graphs were and how much retry budget was burned.  All fields are
    optional -- low-level checks raise with whatever context they have.

    Attributes:
        source_size: logical variable count of the source graph.
        source_edges: logical coupling count of the source graph.
        target_size: qubit count of the (working) target graph.
        attempts: escalation attempts used before giving up.
        restarts: total randomized restarts across all attempts.
    """

    def __init__(
        self,
        message: str,
        source_size: Optional[int] = None,
        source_edges: Optional[int] = None,
        target_size: Optional[int] = None,
        attempts: Optional[int] = None,
        restarts: Optional[int] = None,
    ):
        self.source_size = source_size
        self.source_edges = source_edges
        self.target_size = target_size
        self.attempts = attempts
        self.restarts = restarts
        details = []
        if source_size is not None:
            graph = f"source={source_size} vars"
            if source_edges is not None:
                graph += f"/{source_edges} edges"
            details.append(graph)
        if target_size is not None:
            details.append(f"target={target_size} qubits")
        if attempts is not None:
            details.append(f"attempts={attempts}")
        if restarts is not None:
            details.append(f"restarts={restarts}")
        if details:
            message = f"{message} [{', '.join(details)}]"
        super().__init__(message)


@dataclass
class Embedding:
    """A minor embedding: each logical variable's chain of qubits."""

    chains: Dict[Variable, FrozenSet[Qubit]]

    def __getitem__(self, v: Variable) -> FrozenSet[Qubit]:
        return self.chains[v]

    def __contains__(self, v: Variable) -> bool:
        return v in self.chains

    def __len__(self) -> int:
        return len(self.chains)

    def total_qubits(self) -> int:
        """Physical qubit count -- the paper's Section 6.1 metric."""
        return sum(len(chain) for chain in self.chains.values())

    def max_chain_length(self) -> int:
        return max((len(chain) for chain in self.chains.values()), default=0)

    def validate(self, source_edges: Iterable[Tuple[Variable, Variable]], target: nx.Graph) -> None:
        """Raise ``EmbeddingError`` unless this is a proper minor embedding.

        Checks chain disjointness, chain connectivity in the target, and
        that every source edge is backed by at least one target coupler.
        Raised errors carry the source and target sizes so validation
        failures on degraded working graphs are diagnosable.
        """
        import networkx as nx

        sizes = dict(source_size=len(self.chains), target_size=len(target))
        seen: Set[Qubit] = set()
        for v, chain in self.chains.items():
            if not chain:
                raise EmbeddingError(f"empty chain for {v!r}", **sizes)
            overlap = seen & chain
            if overlap:
                raise EmbeddingError(
                    f"qubits {overlap} shared by multiple chains", **sizes
                )
            seen |= chain
            if not all(q in target for q in chain):
                raise EmbeddingError(
                    f"chain for {v!r} uses qubits outside the target", **sizes
                )
            if len(chain) > 1 and not nx.is_connected(target.subgraph(chain)):
                raise EmbeddingError(f"chain for {v!r} is not connected", **sizes)
        for u, v in source_edges:
            if u == v:
                continue
            if not self._chains_coupled(u, v, target):
                raise EmbeddingError(
                    f"no coupler backs source edge ({u!r}, {v!r})", **sizes
                )

    def _chains_coupled(self, u: Variable, v: Variable, target: nx.Graph) -> bool:
        chain_u, chain_v = self.chains[u], self.chains[v]
        return any(target.has_edge(a, b) for a in chain_u for b in chain_v)


# ----------------------------------------------------------------------
# The heuristic embedder
# ----------------------------------------------------------------------
class _SearchGraphs:
    """The source and target graphs as plain containers, read once.

    ``find_embedding`` builds one per call and every restart shares it.
    The search loop reads adjacency from here and never calls networkx.
    The target's CSR holds each edge in both directions, each row's
    columns ascending, built with numpy, and ``rank`` gives each qubit's
    place in label order.  :meth:`grow` takes a whole ``embed_variable``
    step, :meth:`search` its searches alone and :meth:`trim` a trim
    alone.  Each runs in the native library when it loads
    (``search_name`` ``"native"``) and otherwise through scipy's
    Dijkstra and the Python walk and trim (``"scipy"``), with the same
    results, so scipy is imported only by a process whose library cannot
    load.
    """

    def __init__(self, source: nx.Graph, target: nx.Graph):
        self.source = source
        self.target = target
        self.variables: List[Variable] = list(source.nodes())
        self.neighbors: Dict[Variable, Tuple[Variable, ...]] = {
            v: tuple(source.adj[v]) for v in self.variables
        }
        self.nodes: List[Qubit] = list(target.nodes())
        self.index: Dict[Qubit, int] = {q: i for i, q in enumerate(self.nodes)}
        self.adjacency: Dict[Qubit, Tuple[Qubit, ...]] = {
            q: tuple(target.adj[q]) for q in self.nodes
        }
        n = len(self.nodes)
        ends = np.array(
            [(self.index[u], self.index[v]) for u, v in target.edges()],
            dtype=np.int64,
        ).reshape(-1, 2)
        rows = np.concatenate((ends[:, 0], ends[:, 1]))
        cols = np.concatenate((ends[:, 1], ends[:, 0]))
        self.indices = cols[np.lexsort((cols, rows))]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=self.indptr[1:])
        self._searches = native.function("repro_chain_searches")
        self._grow = native.function("repro_grow_chain")
        self._trim = native.function("repro_trim_chain")
        #: Forms the noise floats from their bytes in C (None: numpy).
        self.floats = native.function("repro_random_floats")
        self.rank = np.empty(n, dtype=np.int32)
        try:
            self.rank[sorted(range(n), key=self.nodes.__getitem__)] = np.arange(n)
        except TypeError:
            # Labels with no one order: only the Python trim, which
            # sorts each chain on its own, can trim them as before.
            self._searches = self._grow = self._trim = None
        self.search_name = "scipy" if self._grow is None else "native"
        self._scipy_graph = None
        #: The ``embed_variable`` calls that ran a search, over every
        #: restart that shares these graphs.
        self.steps = 0
        # The native step's output buffers, grown to the most chains
        # seen, and the addresses of the arrays every call passes.
        self._out = np.empty(0, dtype=np.int32)
        self._counts = np.empty(0, dtype=np.int64)
        self._graph_args = (
            n, self.indptr.ctypes.data, self.indices.ctypes.data
        )
        self._rank_address = self.rank.ctypes.data

    def grow(
        self,
        costs: np.ndarray,
        chains: List[Set[Qubit]],
        noise: np.ndarray,
        amplitude: float,
    ) -> Tuple[int, List[List[Qubit]], List[Qubit]]:
        """One ``embed_variable`` step for a variable whose neighbours
        hold ``chains``.

        Chooses the root as :meth:`search` does, walks from it into each
        chain along that chain's search, and trims the walks' union as
        :meth:`trim` does.  Returns the root's index (-1 when no qubit
        reaches every chain, with no walks), each walk's qubits in walk
        order, and the qubits trimming removes, in removal order: the
        lists ``embed_variable`` replays to build the chain's set.
        """
        costs, noise = self._checked(costs, chains, noise, amplitude)
        return self.step(
            costs, chains, [self.members(chain) for chain in chains], noise, amplitude
        )

    def step(
        self,
        costs: np.ndarray,
        chains: List[Set[Qubit]],
        members: List[np.ndarray],
        noise: np.ndarray,
        amplitude: float,
    ) -> Tuple[int, List[List[Qubit]], List[Qubit]]:
        """:meth:`grow` on arrays the embedder owns, unchecked and
        uncopied.

        ``costs`` and ``noise`` are C-contiguous float64 arrays of the
        target's size, each of ``chains`` is non-empty, ``members`` holds
        each chain's qubit indices (:meth:`members`, in any order) and
        ``amplitude`` is finite and non-negative.  The native call still
        rejects a negative or NaN cost or noise value.
        """
        if self._grow is None:
            root, parents = self._scipy_search(costs, chains, noise, amplitude)
            if root < 0:
                return root, [], []
            walks = [
                self._path_to_chain(root, parent, chain)
                for parent, chain in zip(parents, chains)
            ]
            union = {self.nodes[root]}.union(*walks)
            return root, walks, self._python_trim(union, chains)
        n = len(self.nodes)
        size = (len(members) + 1) * n
        if len(self._out) < size:
            self._out = np.empty(size, dtype=np.int32)
            self._counts = np.empty(len(members) + 1, dtype=np.int64)
        out, counts = self._out, self._counts
        starts, sources = self._sources(members)
        root = self._grow(
            *self._graph_args, costs.ctypes.data, len(members), starts.ctypes.data,
            sources.ctypes.data, noise.ctypes.data, amplitude, self._rank_address,
            out.ctypes.data, counts.ctypes.data,
        )
        _raise_for_status(root)
        if root < 0:
            return root, [], []
        lengths = counts[: len(members) + 1].tolist()
        nodes = self.nodes
        qubits = [nodes[i] for i in out[: sum(lengths)].tolist()]
        walks = []
        at = 0
        for length in lengths[:-1]:
            walks.append(qubits[at : at + length])
            at += length
        return root, walks, qubits[at:]

    def search(
        self,
        costs: np.ndarray,
        chains: List[Set[Qubit]],
        noise: np.ndarray,
        amplitude: float,
    ) -> Tuple[int, Sequence[np.ndarray]]:
        """Choose a root for a variable whose neighbours hold ``chains``.

        Each chain's search is a node-weighted multi-source Dijkstra:
        entering node ``i`` costs ``costs[i]`` and the chain's own qubits
        are free.  The root minimizes ``costs + sum(distances) +
        amplitude * noise``, the first index on a tie.  Returns the
        root's index, -1 when no qubit is reachable from every chain, and
        each search's predecessor array, exact along every path from the
        root into its chain.  The native searches stop early, which is
        exact only while every term of a total is non-negative: a
        negative or NaN amplitude, cost or noise value is a
        ``ValueError`` on either path.
        """
        costs, noise = self._checked(costs, chains, noise, amplitude)
        if self._searches is None:
            return self._scipy_search(costs, chains, noise, amplitude)
        n = len(self.nodes)
        starts, sources = self._sources([self.members(chain) for chain in chains])
        parents = np.empty((len(chains), n), dtype=np.int32)
        root = self._searches(
            n, self.indptr.ctypes.data, self.indices.ctypes.data,
            costs.ctypes.data, len(chains), starts.ctypes.data,
            sources.ctypes.data, noise.ctypes.data, amplitude,
            parents.ctypes.data,
        )
        _raise_for_status(root)
        return root, parents

    def trim(self, chain: Set[Qubit], neighbor_chains: List[Set[Qubit]]) -> List[Qubit]:
        """The qubits trimming removes from the connected ``chain``, in
        removal order.

        Each pass removes the first qubit, in label order, that is
        neither a cut qubit of the chain nor the chain's only qubit
        touching some neighbour chain's halo (the qubits adjacent to that
        chain).  Trimming stops when no qubit qualifies, when one is
        left, or at once when the chain touches some halo nowhere.
        """
        if len(chain) < 2:
            return []
        if self._trim is None:
            return self._python_trim(chain, neighbor_chains)
        starts, sources = self._sources(
            [self.members(neighbor_chain) for neighbor_chain in neighbor_chains]
        )
        members = self.members(chain).astype(np.int32)
        removed = np.empty(len(chain), dtype=np.int32)
        count = self._trim(
            len(self.nodes), self.indptr.ctypes.data, self.indices.ctypes.data,
            self.rank.ctypes.data, len(neighbor_chains), starts.ctypes.data,
            sources.ctypes.data, len(chain), members.ctypes.data,
            removed.ctypes.data,
        )
        _raise_for_status(count)
        return [self.nodes[i] for i in removed[:count].tolist()]

    def _checked(self, costs, chains, noise, amplitude):
        n = len(self.nodes)
        costs = np.ascontiguousarray(costs, dtype=np.float64)
        noise = np.ascontiguousarray(noise, dtype=np.float64)
        if costs.shape != (n,) or noise.shape != (n,) or not chains or not all(chains):
            raise ValueError(
                f"a search needs {n} costs, {n} noise values and non-empty chains"
            )
        if not 0.0 <= amplitude < math.inf:
            raise ValueError(
                f"the noise amplitude must be finite and non-negative, got {amplitude!r}"
            )
        return costs, noise

    def members(self, chain: Set[Qubit]) -> np.ndarray:
        """The qubit indices of ``chain``, in its iteration order."""
        return np.fromiter(
            map(self.index.__getitem__, chain), dtype=np.int64, count=len(chain)
        )

    @staticmethod
    def _sources(members: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """Each chain's offset into the sources, and every chain's qubit
        indices, chain after chain."""
        starts = np.array([0, *accumulate(map(len, members))], dtype=np.int64)
        sources = np.concatenate(members) if members else np.empty(0, np.int64)
        return starts, sources

    def _scipy_search(self, costs, chains, noise, amplitude):
        """:meth:`search` through full scipy searches, for hosts without
        the native library: scipy pops in the native search's order."""
        from scipy.sparse.csgraph import dijkstra

        if not ((costs >= 0.0).all() and (noise >= 0.0).all()):
            _raise_for_status(_BAD_INPUT)
        if self._scipy_graph is None:
            from scipy.sparse import csr_matrix

            n = len(self.nodes)
            self._scipy_graph = csr_matrix(
                (
                    np.ones(len(self.indices)),
                    self.indices.astype(np.int32),
                    self.indptr.astype(np.int32),
                ),
                shape=(n, n),
            )
        graph = self._scipy_graph
        graph.data = costs[graph.indices]
        total = costs.copy()
        parents = []
        for chain in chains:
            dist, parent, _ = dijkstra(
                graph,
                directed=True,
                indices=[self.index[q] for q in chain],
                return_predecessors=True,
                min_only=True,
            )
            total = total + dist
            parents.append(parent)
        total = total + amplitude * noise
        root = int(np.argmin(total))
        return (root if np.isfinite(total[root]) else -1), parents

    def _path_to_chain(self, start: int, parent: np.ndarray, chain: Set[Qubit]) -> List[Qubit]:
        """The qubits of the tree path from ``start`` up to ``chain``, in
        walk order: the walk of :meth:`grow` in Python."""
        out: List[Qubit] = []
        node = start
        while node >= 0 and self.nodes[node] not in chain:
            out.append(self.nodes[node])
            node = int(parent[node])
        if node < 0 and self.nodes[start] not in chain:
            raise EmbeddingError("disconnected shortest-path tree")
        return out

    def _python_trim(self, chain: Set[Qubit], neighbor_chains: List[Set[Qubit]]) -> List[Qubit]:
        """:meth:`trim` in Python, for hosts without the native library."""
        adjacency = self.adjacency
        halos: List[Set[Qubit]] = []
        for neighbor_chain in neighbor_chains:
            halo: Set[Qubit] = set()
            for q in neighbor_chain:
                halo.update(adjacency[q])
            halos.append(halo)
        chain = set(chain)
        removed: List[Qubit] = []
        while len(chain) > 1:
            pinned: Set[Qubit] = set()
            for halo in halos:
                touching = chain & halo
                if not touching:
                    return removed
                if len(touching) == 1:
                    pinned |= touching
            cut = self._cut_qubits(chain)
            for q in sorted(chain):
                if q not in pinned and q not in cut:
                    chain.discard(q)
                    removed.append(q)
                    break
            else:
                return removed
        return removed

    def _cut_qubits(self, chain: Set[Qubit]) -> Set[Qubit]:
        """The chain's cut qubits: those whose removal disconnects it.

        Chains are connected -- a root plus tree paths into neighbor
        chains, trimmed only at non-cut qubits -- so removing any other
        qubit leaves a connected chain.  An iterative depth-first search
        over the target adjacency finds them in one pass (Hopcroft and
        Tarjan's low-point rule).
        """
        adjacency = self.adjacency
        root = next(iter(chain))
        order = {root: 0}
        low = {root: 0}
        cut: Set[Qubit] = set()
        root_children = 0
        stack = [(root, iter(adjacency[root]))]
        while stack:
            q, neighbors = stack[-1]
            for r in neighbors:
                if r not in chain:
                    continue
                if r in order:
                    if order[r] < low[q]:
                        low[q] = order[r]
                    continue
                order[r] = low[r] = len(order)
                stack.append((r, iter(adjacency[r])))
                break
            else:
                stack.pop()
                if not stack:
                    break
                parent = stack[-1][0]
                if low[q] < low[parent]:
                    low[parent] = low[q]
                if parent == root:
                    root_children += 1
                elif low[q] >= order[parent]:
                    cut.add(parent)
        if root_children > 1:
            cut.add(root)
        return cut


#: What the native calls return for a negative or NaN cost or noise
#: value, and when memory runs out.
_BAD_INPUT, _NO_MEMORY = -3, -2


def _raise_for_status(status: int) -> None:
    if status == _BAD_INPUT:
        raise ValueError("search costs and noise values must be non-negative")
    if status == _NO_MEMORY:
        raise MemoryError("the native chain search ran out of memory")


def _grown(root: Qubit, walks: List[List[Qubit]], removed: Sequence[Qubit]) -> Set[Qubit]:
    """The chain of one :meth:`_SearchGraphs.grow` step, as a set built
    by the operations that always built it: the root, each walk's set
    joined in turn, then :func:`_trimmed`."""
    chain = {root}
    for walk in walks:
        chain |= set(walk)
    return _trimmed(chain, removed)


def _trimmed(chain: Set[Qubit], removed: Sequence[Qubit]) -> Set[Qubit]:
    """``chain`` without ``removed``, through the set operations trimming
    has always run: one copy, then one difference per removed qubit.

    A chain's iteration order is the order ``embed_ising`` gives its
    qubits, and these operations fix it; a set built from the final
    qubits would hold the same qubits in another order.
    """
    chain = set(chain)
    for q in removed:
        chain = chain - {q}
    return chain


def _random_floats(
    rng: random.Random, n: int, convert: Optional[Callable[..., None]] = None
) -> np.ndarray:
    """``[rng.random() for _ in range(n)]`` as an array, from one draw.

    ``random()`` builds each float from two 32-bit Mersenne Twister
    outputs ``a`` and ``b`` as ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``.
    One ``getrandbits(64 * n)`` call consumes the same ``2n`` outputs,
    least significant word first, and leaves the generator in the same
    state, so the floats and every later draw are bit for bit the same.
    ``convert``, the native ``repro_random_floats``
    (:attr:`_SearchGraphs.floats`), forms the floats from the draw's
    bytes in C; without it numpy does, with the same bits, as every step
    is exact.
    """
    data = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
    if convert is not None:
        floats = np.empty(n)
        convert(n, data, floats.ctypes.data)
        return floats
    words = np.frombuffer(data, dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0


class _EmbedderState:
    """One attempt at embedding a source graph into a target graph.

    Each variable's shortest paths, walks and trim run in one call,
    :meth:`_SearchGraphs.step`, over a directed adjacency whose edge
    weight into a node is that node's usage cost, so a full-C16 search
    stays fast enough for the 25-compilation sweep of Section 6.1.
    Chains are sets of qubit labels, each kept beside its qubit indices
    (``members``).  The searches ignore the sets' iteration order, as
    both pop equal distances larger index first whatever the order of
    their sources, but ``embed_ising`` follows it, so each chain's set is
    built by the same operations as always.
    """

    def __init__(self, graphs: _SearchGraphs, rng: random.Random):
        self.graphs = graphs
        self.rng = rng
        self.chains: Dict[Variable, Set[Qubit]] = {}
        self.members: Dict[Variable, np.ndarray] = {}
        # Exponential overlap penalty base.  Sharing one qubit must cost
        # more than any detour through free qubits, and detours can be
        # as long as the target's diameter times the source degree, so
        # the base scales with the target size.
        self.penalty_base = max(8.0, float(len(graphs.nodes)))
        #: Root-selection noise amplitude (breaks deterministic cycles).
        self._noise = 0.5
        self._nodes = graphs.nodes
        self._n = len(graphs.nodes)
        self.usage = np.zeros(self._n, dtype=np.int32)
        # No qubit is in more chains than there are variables, so these
        # powers cover every usage; np.power works element by element,
        # so a table entry has the bits np.power(penalty_base, usage)
        # gives that qubit.
        self._powers = np.power(
            self.penalty_base, np.arange(len(graphs.variables) + 1, dtype=float)
        )
        #: ``penalty_base ** usage``, updated at the qubits each claim and
        #: release touches.
        self.costs = self._powers[self.usage]

    # -- chain bookkeeping ------------------------------------------------
    def _claim(self, v: Variable, chain: Set[Qubit]) -> None:
        self.chains[v] = chain
        members = self.members[v] = self.graphs.members(chain)
        self._count(members, 1)

    def _release(self, v: Variable) -> None:
        if self.chains.pop(v, None) is not None:
            self._count(self.members.pop(v), -1)

    def _count(self, members: np.ndarray, change: int) -> None:
        usage = self.usage[members] + change
        self.usage[members] = usage
        self.costs[members] = self._powers[usage]

    # -- embedding a single variable ---------------------------------------
    def embed_variable(self, v: Variable) -> None:
        embedded_neighbors = [
            u for u in self.graphs.neighbors[v] if u in self.chains
        ]
        if not embedded_neighbors:
            q = self._cheapest_free_qubit()
            self._claim(v, {q})
            return
        graphs = self.graphs
        graphs.steps += 1
        # Random noise breaks root ties and the cycles a fully
        # deterministic improvement sweep can fall into.  It is drawn
        # before the searches; when no root exists the error below ends
        # the restart, whose generator is then discarded.
        noise = _random_floats(self.rng, self._n, graphs.floats)
        root, walks, removed = graphs.step(
            self.costs,
            [self.chains[u] for u in embedded_neighbors],
            [self.members[u] for u in embedded_neighbors],
            noise,
            self._noise,
        )
        if root < 0:
            raise EmbeddingError(f"variable {v!r} cannot reach its neighbors")
        self._claim(v, _grown(self._nodes[root], walks, removed))

    def _cheapest_free_qubit(self) -> Qubit:
        min_usage = int(self.usage.min())
        candidates = np.where(self.usage == min_usage)[0]
        return self._nodes[int(self.rng.choice(list(candidates)))]

    # -- whole-graph passes --------------------------------------------------
    def initial_pass(self) -> None:
        """Scatter singleton chains across the target.

        Spreading the initial placement (rather than growing one dense
        cluster) leaves routing room everywhere; the improvement rounds
        then pull connected variables together.
        """
        free = list(self._nodes)
        self.rng.shuffle(free)
        variables = list(self.graphs.variables)
        self.rng.shuffle(variables)
        for v, q in zip(variables, free):
            self._claim(v, {q})

    def improvement_round(self) -> None:
        order = list(self.graphs.variables)
        self.rng.shuffle(order)
        for v in order:
            self._release(v)
            self.embed_variable(v)

    def overlap_move(self, bystanders: int = 2, shake_noise: float = 8.0) -> None:
        """Jointly rip out and re-embed every chain involved in overlap.

        Releasing all overlap participants (plus a couple of random
        bystanders to open space) *before* re-embedding any of them lets
        the group relocate as a whole -- single-variable sweeps stall in
        local minima where each chain individually has nowhere better
        to go.
        """
        shared = {self._nodes[i] for i in np.flatnonzero(self.usage > 1)}
        if not shared:
            return
        owners = {
            v for v, chain in self.chains.items() if not shared.isdisjoint(chain)
        }
        others = [v for v in self.chains if v not in owners]
        self.rng.shuffle(others)
        owners.update(others[:bystanders])
        # Chain order, not set order: variable names are often strings,
        # whose set order follows PYTHONHASHSEED.
        order = [v for v in self.chains if v in owners]
        self.rng.shuffle(order)
        for v in owners:
            self._release(v)
        saved_noise = self._noise
        self._noise = shake_noise
        try:
            for v in order:
                self.embed_variable(v)
        finally:
            self._noise = saved_noise

    def max_usage(self) -> int:
        return int(self.usage.max()) if self._n else 0

    # -- post-processing -------------------------------------------------------
    def trim_chains(self) -> None:
        """Re-trim every chain against its final neighborhood.

        Keeping chains tight as they are built (not just at the end) is
        what lets the improvement rounds converge: bloated path unions
        crowd the graph and force overlaps.
        """
        for v in list(self.chains):
            neighbor_chains = [
                self.chains[u] for u in self.graphs.neighbors[v] if u in self.chains
            ]
            chain = _trimmed(
                self.chains[v], self.graphs.trim(self.chains[v], neighbor_chains)
            )
            self._release(v)
            self._claim(v, chain)


def _one_restart(
    graphs: _SearchGraphs, rng: random.Random, rounds: int
) -> Optional[Embedding]:
    """One randomized restart of the embedder; ``None`` on contention."""
    state = _EmbedderState(graphs, rng)
    state.initial_pass()
    # Two full sweeps route everything; overlap moves then dissolve the
    # remaining contention.
    state.improvement_round()
    state.improvement_round()
    for _ in range(rounds):
        if state.max_usage() <= 1:
            break
        state.overlap_move()
    if state.max_usage() > 1:
        return None
    # Polish: extra sweeps shorten chains; keep the last valid
    # configuration in case a sweep re-introduces overlap.
    snapshot = {v: set(c) for v, c in state.chains.items()}
    for _ in range(2):
        state.improvement_round()
        for _ in range(rounds // 2):
            if state.max_usage() <= 1:
                break
            state.overlap_move()
        if state.max_usage() > 1:
            break
        if int(state.usage.sum()) <= sum(len(c) for c in snapshot.values()):
            snapshot = {v: set(c) for v, c in state.chains.items()}
    if state.max_usage() > 1:
        for v in list(state.chains):
            state._release(v)
        for v, chain in snapshot.items():
            state._claim(v, chain)
    state.trim_chains()
    embedding = Embedding(
        {v: frozenset(chain) for v, chain in state.chains.items()}
    )
    embedding.validate(graphs.source.edges(), graphs.target)
    return embedding


def find_embedding(
    source: nx.Graph,
    target: nx.Graph,
    seed: Optional[int] = None,
    tries: int = 16,
    rounds: int = 32,
    max_attempts: int = 1,
    stats: Optional[Dict[str, float]] = None,
) -> Embedding:
    """Find a minor embedding of ``source`` into ``target``.

    The retry budget *escalates*: attempt ``a`` (1-based) runs ``tries``
    reseeded randomized restarts with ``rounds * 2**(a-1)`` improvement
    rounds each.  Degraded working graphs (dead qubits/couplers) that
    defeat the default budget usually yield to the deeper later
    attempts; a final failure raises an :class:`EmbeddingError` carrying
    the source size, target size, and budget actually used.

    Args:
        source: the logical interaction graph (one node per variable,
            one edge per non-zero J coefficient).
        target: the hardware graph (e.g. a possibly degraded
            ``chimera_graph(16)`` working graph).
        seed: RNG seed; different seeds give different embeddings, which
            is what makes Section 6.1's qubit counts vary per compile.
        tries: independent randomized restarts per attempt.
        rounds: improvement rounds per restart (first attempt).
        max_attempts: escalation attempts (1 = the classic behavior).
        stats: optional dict populated on success with ``attempts``
            (attempts used), ``restarts`` (total restarts) and ``steps``
            (the ``embed_variable`` calls that ran a search, over every
            restart).

    Raises:
        ValueError: if ``tries`` or ``max_attempts`` is below 1 or
            ``rounds`` below 0, before any work.
        EmbeddingError: if no valid embedding is found.
    """
    if tries < 1:
        raise ValueError(f"tries must be >= 1, got {tries!r}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds!r}")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if len(source) == 0:
        if stats is not None:
            stats.update(attempts=0, restarts=0, steps=0)
        return Embedding({})
    if len(source) > len(target):
        raise EmbeddingError(
            "more logical variables than physical qubits",
            source_size=len(source),
            source_edges=source.number_of_edges(),
            target_size=len(target),
        )
    graphs = _SearchGraphs(source, target)
    rng = random.Random(seed)
    last_error: Optional[Exception] = None
    restarts = 0
    started = time.perf_counter()
    for attempt in range(1, max_attempts + 1):
        attempt_rounds = rounds * (1 << (attempt - 1))
        for _ in range(tries):
            restarts += 1
            try:
                embedding = _one_restart(
                    graphs, random.Random(rng.getrandbits(64)), attempt_rounds
                )
            except EmbeddingError as exc:
                last_error = exc
                continue
            if embedding is not None:
                if stats is not None:
                    stats.update(attempts=attempt, restarts=restarts, steps=graphs.steps)
                _observe_embedding(
                    embedding,
                    time.perf_counter() - started,
                    attempts=attempt,
                    restarts=restarts,
                    steps=graphs.steps,
                    source_size=len(source),
                    target_size=len(target),
                    search=graphs.search_name,
                )
                return embedding
    trace.metrics().counter("embed.failures").inc()
    raise EmbeddingError(
        "no embedding found within the retry budget"
        + (f" (last error: {last_error})" if last_error else ""),
        source_size=len(source),
        source_edges=source.number_of_edges(),
        target_size=len(target),
        attempts=max_attempts,
        restarts=restarts,
    )


def _observe_embedding(
    embedding: "Embedding",
    elapsed_s: float,
    **attributes: Any,
) -> None:
    """Record a successful embedding search on the ambient collectors.

    The span's ``search`` attribute names the neighbour search that ran,
    ``"native"`` or ``"scipy"``, and ``steps`` counts the
    ``embed_variable`` calls that ran one, so the span's duration over
    ``steps`` is the cost of a step.
    """
    if not trace.enabled():
        return
    chain_lengths = [len(chain) for chain in embedding.chains.values()]
    trace.record(
        "embed.find_embedding",
        duration_s=elapsed_s,
        physical_qubits=sum(chain_lengths),
        max_chain=max(chain_lengths, default=0),
        **attributes,
    )
    registry = trace.metrics()
    registry.counter("embed.attempts").inc(attributes.get("attempts", 0))
    registry.counter("embed.restarts").inc(attributes.get("restarts", 0))
    registry.histogram("embed.chain_length").observe_many(chain_lengths)


def source_graph_of(model: IsingModel) -> nx.Graph:
    """The logical interaction graph of an Ising model."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(model.variables)
    for (u, v), coupling in model.quadratic.items():
        if coupling != 0.0:
            graph.add_edge(u, v)
    return graph


#: Memoized fingerprints for long-lived graphs (a full C16 working graph
#: has ~6000 edges; re-hashing it on every run would be measurable).
_graph_fingerprints: "weakref.WeakKeyDictionary[nx.Graph, str]" = (
    weakref.WeakKeyDictionary()
)


def graph_fingerprint(graph: nx.Graph) -> str:
    """A stable content fingerprint of a graph's node and edge sets.

    Node identity and adjacency are all the minor embedder looks at, so
    two graphs with equal fingerprints admit exactly the same
    embeddings -- which makes this the cache key for the embedding cache
    in :mod:`repro.core.cache`.  Hardware graphs are long-lived, so the
    digest is memoized per graph object via weak references.
    """
    try:
        cached = _graph_fingerprints.get(graph)
    except TypeError:  # graph subclass without weakref support
        cached = None
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for node in sorted(repr(n) for n in graph.nodes()):
        digest.update(node.encode("utf-8"))
        digest.update(b"\x00")
    digest.update(b"\x01")
    for edge in sorted(
        "|".join(sorted((repr(u), repr(v)))) for u, v in graph.edges()
    ):
        digest.update(edge.encode("utf-8"))
        digest.update(b"\x00")
    fingerprint = digest.hexdigest()
    try:
        _graph_fingerprints[graph] = fingerprint
    except TypeError:
        pass
    return fingerprint


# ----------------------------------------------------------------------
# Applying an embedding to a model and undoing it on samples
# ----------------------------------------------------------------------
def default_chain_strength(model: IsingModel) -> float:
    """QMASM's default: twice the largest-magnitude J in the program."""
    strongest = max(model.max_abs_quadratic(), model.max_abs_linear(), 0.5)
    return 2.0 * strongest


def embed_ising(
    model: IsingModel,
    embedding: Embedding,
    target: nx.Graph,
    chain_strength: Optional[float] = None,
) -> IsingModel:
    """Produce the physical Hamiltonian of Section 4.4.

    Linear biases are split evenly across each chain's qubits; each
    logical coupling is split evenly across every available physical
    coupler between the two chains; intra-chain couplers get the strong
    ferromagnetic ``-chain_strength`` that equates the chain's qubits.
    """
    if chain_strength is None:
        chain_strength = default_chain_strength(model)
    if chain_strength <= 0:
        raise ValueError("chain_strength must be positive")

    physical = IsingModel(offset=model.offset)
    for v, bias in model.linear.items():
        chain = embedding[v]
        for q in chain:
            physical.add_variable(q, bias / len(chain))
    for (u, v), coupling in model.quadratic.items():
        if coupling == 0.0:
            continue
        couplers = [
            (a, b)
            for a in embedding[u]
            for b in embedding[v]
            if target.has_edge(a, b)
        ]
        if not couplers:
            raise EmbeddingError(f"no coupler for logical edge ({u!r}, {v!r})")
        for a, b in couplers:
            physical.add_interaction(a, b, coupling / len(couplers))
    for v in model.variables:
        chain = embedding[v]
        if len(chain) > 1:
            for a, b in target.subgraph(chain).edges():
                physical.add_interaction(a, b, -chain_strength)
    return physical


def unembed_sampleset(
    physical_samples: SampleSet,
    embedding: Embedding,
    logical_model: IsingModel,
    method: str = "majority",
) -> SampleSet:
    """Map physical samples back to logical variables.

    Broken chains (qubits disagreeing within one chain) are resolved by
    majority vote by default, a tie going to the chain's first qubit in
    sorted order, or their reads are discarded with
    ``method="discard"``; any other method is a ``ValueError``.  The
    returned set's ``info["chain_break_fraction"]`` records how often
    chains broke, over every read, a standard health metric for embedded
    problems.  Every chain's columns are gathered once and summed per
    chain in ``int64``, so each step is one array pass over the reads.
    """
    if method not in ("majority", "discard"):
        raise ValueError(
            f"unknown unembedding method {method!r}: use 'majority' or 'discard'"
        )
    variables = list(logical_model.variables)
    qubit_index = {q: i for i, q in enumerate(physical_samples.variables)}
    chains = []
    for v in variables:
        if not embedding[v]:
            raise EmbeddingError(f"empty chain for {v!r}")
        chains.append([qubit_index[q] for q in sorted(embedding[v])])
    lengths = np.array([len(chain) for chain in chains], dtype=np.int64)
    starts = np.zeros(len(chains), dtype=np.intp)
    np.cumsum(lengths[:-1], out=starts[1:])
    columns = np.array([i for chain in chains for i in chain], dtype=np.intp)
    spins = physical_samples.records[:, columns]
    totals = np.add.reduceat(spins.astype(np.int64), starts, axis=1)
    broken = np.abs(totals) != lengths
    records = np.sign(totals).astype(np.int8, order="C")
    ties = totals == 0
    records[ties] = spins[:, starts][ties]
    occurrences = physical_samples.occurrences
    if method == "discard":
        kept = ~broken.any(axis=1)
        records, occurrences = records[kept], occurrences[kept]

    info = dict(physical_samples.info)
    info["chain_break_fraction"] = (
        int(np.count_nonzero(broken)) / broken.size if broken.size else 0.0
    )
    if not len(records):
        out = SampleSet.empty(variables)
        out.info = info
        return out
    energies = logical_model.energies(records.astype(float), order=variables)
    return SampleSet(variables, records, energies, occurrences, info)
