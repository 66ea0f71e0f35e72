"""Reference minor embedder: the networkx implementation, kept verbatim.

This is ``_EmbedderState`` and ``_one_restart`` as they stood before the
embedder's search loop moved onto arrays (after the hash-seed order fix).
It rebuilds a CSR matrix before every search, checks chain connectivity
with ``nx.is_connected`` on a subgraph view and chain coupling with
``has_edge`` over every qubit pair.  ``tests/test_embedder_differential.py``
holds :func:`repro.hardware.embedding.find_embedding` to the exact chains
this code finds for the same (source, target, seed).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _sparse_dijkstra

from repro.hardware.embedding import Embedding, EmbeddingError, Qubit, Variable


class _EmbedderState:
    """One attempt at embedding a source graph into a target graph.

    Shortest paths run through scipy's C-level Dijkstra over a directed
    adjacency whose edge weight into a node is that node's usage cost,
    so a full-C16 search stays fast enough for the 25-compilation sweep
    of Section 6.1.
    """

    def __init__(self, source: nx.Graph, target: nx.Graph, rng: random.Random):
        self.source = source
        self.target = target
        self.rng = rng
        self.chains: Dict[Variable, Set[Qubit]] = {}
        # Exponential overlap penalty base.  Sharing one qubit must cost
        # more than any detour through free qubits, and detours can be
        # as long as the target's diameter times the source degree, so
        # the base scales with the target size.
        self.penalty_base = max(8.0, float(len(target)))
        #: Root-selection noise amplitude (breaks deterministic cycles).
        self._noise = 0.5

        self._nodes: List[Qubit] = list(target.nodes())
        self._index: Dict[Qubit, int] = {q: i for i, q in enumerate(self._nodes)}
        n = len(self._nodes)
        rows, cols = [], []
        for u, v in target.edges():
            iu, iv = self._index[u], self._index[v]
            rows.append(iu)
            cols.append(iv)
            rows.append(iv)
            cols.append(iu)
        self._rows = np.array(rows, dtype=np.int32)
        self._cols = np.array(cols, dtype=np.int32)
        self._n = n
        self.usage = np.zeros(n, dtype=np.int32)

    # -- chain bookkeeping ------------------------------------------------
    def _claim(self, v: Variable, chain: Set[Qubit]) -> None:
        self.chains[v] = chain
        for q in chain:
            self.usage[self._index[q]] += 1

    def _release(self, v: Variable) -> None:
        for q in self.chains.pop(v, ()):  # pragma: no branch
            self.usage[self._index[q]] -= 1

    def _cost_vector(self) -> np.ndarray:
        return np.power(self.penalty_base, self.usage.astype(float))

    # -- shortest-path machinery ------------------------------------------
    def _dijkstra_from_chain(self, chain: Set[Qubit], costs: np.ndarray):
        """Node-weighted multi-source Dijkstra (vectorized).

        Distance to q counts the costs of the nodes *entered* along the
        way (the chain's own qubits are free).  Returns (dist, parent)
        as index-based numpy arrays.
        """
        graph = csr_matrix(
            (costs[self._cols], (self._rows, self._cols)), shape=(self._n, self._n)
        )
        sources = [self._index[q] for q in chain]
        dist, predecessors, _ = _sparse_dijkstra(
            graph,
            directed=True,
            indices=sources,
            return_predecessors=True,
            min_only=True,
        )
        return dist, predecessors

    def _path_to_chain(self, start: int, parent: np.ndarray, chain: Set[Qubit]) -> Set[Qubit]:
        """Interior qubits of the tree path from ``start`` into ``chain``."""
        out: Set[Qubit] = set()
        node = start
        while node >= 0 and self._nodes[node] not in chain:
            out.add(self._nodes[node])
            node = int(parent[node])
        if node < 0 and self._nodes[start] not in chain:
            raise EmbeddingError("disconnected shortest-path tree")
        return out

    # -- embedding a single variable ---------------------------------------
    def embed_variable(self, v: Variable) -> None:
        embedded_neighbors = [u for u in self.source.neighbors(v) if u in self.chains]
        if not embedded_neighbors:
            q = self._cheapest_free_qubit()
            self._claim(v, {q})
            return
        costs = self._cost_vector()
        searches = [
            self._dijkstra_from_chain(self.chains[u], costs)
            for u in embedded_neighbors
        ]
        total = costs.copy()
        for dist, _ in searches:
            total = total + dist
        # Tiny random noise breaks argmin ties and the cycles a fully
        # deterministic improvement sweep can fall into.
        finite = np.isfinite(total)
        if finite.any():
            total = total + self._noise * np.array(
                [self.rng.random() for _ in range(self._n)]
            )
        best_root = int(np.argmin(total))
        if not np.isfinite(total[best_root]):
            raise EmbeddingError(f"variable {v!r} cannot reach its neighbors")
        chain: Set[Qubit] = {self._nodes[best_root]}
        for u, (dist, parent) in zip(embedded_neighbors, searches):
            chain |= self._path_to_chain(best_root, parent, self.chains[u])
        self._claim(v, self._trimmed(v, chain))

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
        variables = list(self.source.nodes())
        self.rng.shuffle(variables)
        for v, q in zip(variables, free):
            self._claim(v, {q})

    def improvement_round(self) -> None:
        order = list(self.source.nodes())
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
        qubit_owners: Dict[int, List[Variable]] = {}
        for v, chain in self.chains.items():
            for q in chain:
                qubit_owners.setdefault(self._index[q], []).append(v)
        owners: Set[Variable] = set()
        for owner_list in qubit_owners.values():
            if len(owner_list) > 1:
                owners.update(owner_list)
        if not owners:
            return
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
    def _trimmed(self, v: Variable, chain: Set[Qubit]) -> Set[Qubit]:
        """Drop chain qubits not needed for connectivity or coupling.

        Keeping chains tight as they are built (not just at the end) is
        what lets the improvement rounds converge: bloated path unions
        crowd the graph and force overlaps.
        """
        neighbor_chains = [
            self.chains[u] for u in self.source.neighbors(v) if u in self.chains
        ]
        chain = set(chain)
        changed = True
        while changed and len(chain) > 1:
            changed = False
            for q in sorted(chain):
                candidate = chain - {q}
                if not nx.is_connected(self.target.subgraph(candidate)):
                    continue
                if all(
                    any(
                        self.target.has_edge(a, b)
                        for a in candidate
                        for b in nc
                    )
                    for nc in neighbor_chains
                ):
                    chain = candidate
                    changed = True
                    break
        return chain

    def trim_chains(self) -> None:
        """Re-trim every chain against its final neighborhood."""
        for v in list(self.chains):
            chain = self._trimmed(v, self.chains[v])
            self._release(v)
            self._claim(v, chain)


def _one_restart(
    source: nx.Graph, target: nx.Graph, rng: random.Random, rounds: int
) -> Optional[Embedding]:
    """One randomized restart of the embedder; ``None`` on contention."""
    state = _EmbedderState(source, target, rng)
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
    embedding.validate(source.edges(), target)
    return embedding


def reference_find_embedding(
    source: nx.Graph,
    target: nx.Graph,
    seed: Optional[int] = None,
    tries: int = 16,
    rounds: int = 32,
    max_attempts: int = 1,
) -> Embedding:
    """``find_embedding``'s restart loop over the reference restarts."""
    rng = random.Random(seed)
    for attempt in range(1, max_attempts + 1):
        attempt_rounds = rounds * (1 << (attempt - 1))
        for _ in range(tries):
            try:
                embedding = _one_restart(
                    source, target, random.Random(rng.getrandbits(64)),
                    attempt_rounds,
                )
            except EmbeddingError:
                continue
            if embedding is not None:
                return embedding
    raise EmbeddingError("no embedding found within the retry budget")
