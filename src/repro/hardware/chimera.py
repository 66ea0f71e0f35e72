"""Chimera graphs: the D-Wave 2000Q on-chip topology (Section 2, Figure 1).

A Chimera graph C_m is an m x m mesh of *unit cells*.  Each unit cell is
a complete bipartite K_{4,4}: four "vertical" qubits (orientation u=0)
and four "horizontal" qubits (u=1).  Each vertical qubit couples to its
same-position peer in the cells to the north and south; each horizontal
qubit couples to its peer east and west.  A D-Wave 2000Q is a C16 --
16 x 16 cells x 8 qubits = 2048 nominal qubits, minus fabrication
drop-out.

Qubits are numbered linearly in the D-Wave convention:
``index = ((row * n) + col) * 2t + u * t + k`` for coordinate
``(row, col, u, k)`` with tile size t = 4.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

#: A D-Wave 2000Q is a C16 Chimera graph.
DWAVE_2000Q_CELLS = 16

Coordinate = Tuple[int, int, int, int]


class ChimeraCoordinates:
    """Conversions between linear qubit numbers and (row, col, u, k)."""

    def __init__(self, m: int, n: Optional[int] = None, t: int = 4):
        self.m = m
        self.n = n if n is not None else m
        self.t = t

    def linear(self, coord: Coordinate) -> int:
        row, col, u, k = coord
        self._check(coord)
        return ((row * self.n) + col) * 2 * self.t + u * self.t + k

    def coordinate(self, index: int) -> Coordinate:
        if not 0 <= index < self.m * self.n * 2 * self.t:
            raise ValueError(f"qubit index {index} out of range")
        k = index % self.t
        u = (index // self.t) % 2
        col = (index // (2 * self.t)) % self.n
        row = index // (2 * self.t * self.n)
        return (row, col, u, k)

    def _check(self, coord: Coordinate) -> None:
        row, col, u, k = coord
        if not (0 <= row < self.m and 0 <= col < self.n and u in (0, 1) and 0 <= k < self.t):
            raise ValueError(f"invalid Chimera coordinate {coord!r}")

    def unit_cell(self, row: int, col: int) -> List[int]:
        """The eight linear indices of one unit cell."""
        return [
            self.linear((row, col, u, k)) for u in (0, 1) for k in range(self.t)
        ]


def chimera_graph(m: int, n: Optional[int] = None, t: int = 4) -> nx.Graph:
    """Build a C_{m,n} Chimera graph with K_{t,t} unit cells.

    ``chimera_graph(16)`` is the D-Wave 2000Q working graph before
    drop-out.  Node labels are linear qubit indices; each node stores its
    ``chimera_coordinate`` attribute.
    """
    import networkx as nx

    if n is None:
        n = m
    coords = ChimeraCoordinates(m, n, t)
    graph = nx.Graph(family="chimera", rows=m, columns=n, tile=t)
    for row in range(m):
        for col in range(n):
            for u in (0, 1):
                for k in range(t):
                    index = coords.linear((row, col, u, k))
                    graph.add_node(index, chimera_coordinate=(row, col, u, k))
    for row in range(m):
        for col in range(n):
            # Internal couplers: complete bipartite within the cell.
            for k0 in range(t):
                for k1 in range(t):
                    graph.add_edge(
                        coords.linear((row, col, 0, k0)),
                        coords.linear((row, col, 1, k1)),
                    )
            # External couplers: vertical qubits north-south,
            # horizontal qubits east-west (Figure 1).
            if row + 1 < m:
                for k in range(t):
                    graph.add_edge(
                        coords.linear((row, col, 0, k)),
                        coords.linear((row + 1, col, 0, k)),
                    )
            if col + 1 < n:
                for k in range(t):
                    graph.add_edge(
                        coords.linear((row, col, 1, k)),
                        coords.linear((row, col + 1, 1, k)),
                    )
    return graph


def dropout(
    graph: nx.Graph,
    fraction: float = 0.0,
    num_qubits: Optional[int] = None,
    seed: Optional[int] = None,
) -> nx.Graph:
    """Remove random qubits, modeling fabrication drop-out.

    The paper notes a 2000Q provides "a nominal 2048 qubits, although
    there is inevitably some drop-out".  Specify either a ``fraction`` of
    qubits to remove or an exact ``num_qubits`` count.  Returns a new
    graph, even when nothing is removed; ``graph`` is left as it is.
    """
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    if num_qubits is None:
        num_qubits = int(round(fraction * len(nodes)))
    if not 0 <= num_qubits <= len(nodes):
        raise ValueError(f"cannot drop {num_qubits} of {len(nodes)} qubits")
    removed = rng.sample(nodes, num_qubits)
    out = graph.copy()
    out.remove_nodes_from(removed)
    return out


def coupler_dropout(
    graph: nx.Graph,
    fraction: float = 0.0,
    num_couplers: Optional[int] = None,
    seed: Optional[int] = None,
) -> nx.Graph:
    """Remove random couplers, modeling fabrication coupler drop-out.

    Real units lose couplers as well as qubits; a yield model without
    dead couplers would overstate the routing freedom the embedder has.
    Specify either a ``fraction`` of couplers to remove or an exact
    ``num_couplers`` count.  Qubits are never removed, only edges.
    """
    rng = random.Random(seed)
    edges = sorted(tuple(sorted(edge)) for edge in graph.edges())
    if num_couplers is None:
        num_couplers = int(round(fraction * len(edges)))
    if not 0 <= num_couplers <= len(edges):
        raise ValueError(
            f"cannot drop {num_couplers} of {len(edges)} couplers"
        )
    removed = rng.sample(edges, num_couplers)
    out = graph.copy()
    out.remove_edges_from(removed)
    return out


def is_chimera_edge(graph: nx.Graph, u: int, v: int) -> bool:
    """True if (u, v) is a coupler in the working graph."""
    return graph.has_edge(u, v)


def odd_cycles_absent(graph: nx.Graph) -> bool:
    """Chimera graphs are bipartite (no odd cycles) -- the reason only
    NOT and DFF from Table 5 embed directly (Section 4.4)."""
    import networkx as nx

    return nx.is_bipartite(graph)
