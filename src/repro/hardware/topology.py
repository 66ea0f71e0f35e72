"""Annealer topologies: Chimera, Pegasus-style, Zephyr-style.

The paper targets one fixed device -- a D-Wave 2000Q whose C16 Chimera
graph caps every workload -- but nothing in the toolchain above the
hardware layer actually needs Chimera: the embedder, scaler, fault
models, and runner only need a *working graph*, a coordinate scheme,
and a stable fingerprint.  This module factors that contract into a
:class:`Topology` interface and provides three implementations:

* :class:`ChimeraTopology` -- the 2000Q graph (Section 2, Figure 1),
  delegating to :mod:`repro.hardware.chimera`.
* :class:`PegasusTopology` -- a Pegasus-style graph (Advantage-class
  chips), built from the geometric crossing construction: each qubit is
  a length-12 segment on a vertical or horizontal wire line; segments
  couple where they cross ("internal"), where they run side by side
  with equal offsets ("odd"), and where they abut along a line
  ("external").  Boundary segments that cross nothing are trimmed,
  which reproduces the published node count 8(m-1)(3m-1) exactly
  (P16 = 5640 qubits, maximum degree 15).
* :class:`ZephyrTopology` -- a Zephyr-style graph (Advantage2-class),
  same construction with length-``2t`` segments overlapping in half
  steps: 16 internal + 2 odd + 2 external couplers per interior qubit
  (degree 20), node count ``4 t m (2m+1)`` (Z15, t=4 = 7440 qubits).

The Pegasus/Zephyr builders reproduce the published family parameters
(node counts, degrees, coupler classes) but use their own linear
numbering; they are untrimmed-nominal models of the *family*, not
serializations of a specific calibrated chip.

Concrete chips are obtained through the fixed family table in
:mod:`repro.hardware.registry` (``make_topology("pegasus", size=16)``);
everything outside ``repro/hardware/`` goes through that table rather
than importing :mod:`repro.hardware.chimera` directly (a guard test
enforces this).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.hardware.chimera import (
    DWAVE_2000Q_CELLS,
    ChimeraCoordinates,
    chimera_graph,
    coupler_dropout,
    dropout,
)

__all__ = [
    "DWAVE_2000Q_CELLS",
    "Topology",
    "ChimeraTopology",
    "PegasusTopology",
    "ZephyrTopology",
    "coupler_dropout",
    "dropout",
]

#: Offsets of Pegasus wire segments: four consecutive k's share an
#: offset, giving the three K_{4,4}-like bands per crossing block.
_PEGASUS_OFFSETS = (2, 2, 2, 2, 6, 6, 6, 6, 10, 10, 10, 10)


class Topology(ABC):
    """One annealer chip family instance: graph + coordinates + tiles.

    The contract every layer above the hardware package relies on:

    * :attr:`graph` -- the pristine (pre-dropout) working graph whose
      node labels are linear qubit indices;
    * :meth:`coordinates` / :meth:`linear` -- the coordinate scheme;
    * :meth:`tile_of` / :meth:`tiles` -- the native-cell structure, a
      2-D tiling used by occupancy rendering and per-cell yield faults;
    * :meth:`fingerprint` -- a canonical string naming the family and
      its parameters, mixed into embedding/compilation cache keys so
      two topologies can never share a cache entry.
    """

    #: Family name, e.g. ``"chimera"``; set by subclasses.
    family: str = ""

    def __init__(self) -> None:
        self._graph: Optional[nx.Graph] = None
        self._tiles: Optional[Dict[Tuple[int, int], List[int]]] = None

    # -- graph ----------------------------------------------------------
    @abstractmethod
    def build_graph(self) -> nx.Graph:
        """Construct the pristine graph (called once, then cached)."""

    @property
    def graph(self) -> nx.Graph:
        """The cached pristine graph.  Copy before mutating."""
        if self._graph is None:
            self._graph = self.build_graph()
        return self._graph

    @property
    def num_qubits(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def num_couplers(self) -> int:
        return self.graph.number_of_edges()

    # -- coordinates ----------------------------------------------------
    @abstractmethod
    def coordinates(self, index: int) -> Tuple[int, ...]:
        """The family coordinate of linear qubit ``index``."""

    @abstractmethod
    def linear(self, coord: Tuple[int, ...]) -> int:
        """The linear index of family coordinate ``coord``."""

    # -- native-cell structure ------------------------------------------
    @abstractmethod
    def tile_of(self, index: int) -> Tuple[int, int]:
        """The (row, col) tile a qubit belongs to.

        For Chimera a tile is a unit cell; for Pegasus/Zephyr it is the
        crossing neighborhood of one (z, w) segment block -- the local
        cluster a fabrication defect would take out together.
        """

    @property
    @abstractmethod
    def tile_shape(self) -> Tuple[int, int]:
        """(rows, cols) bounds of the tile grid."""

    def tiles(self) -> Dict[Tuple[int, int], List[int]]:
        """Map each tile to its sorted member qubits (cached)."""
        if self._tiles is None:
            grouped: Dict[Tuple[int, int], List[int]] = {}
            for node in sorted(self.graph.nodes()):
                grouped.setdefault(self.tile_of(node), []).append(node)
            self._tiles = grouped
        return self._tiles

    # -- identity -------------------------------------------------------
    @abstractmethod
    def fingerprint(self) -> str:
        """Canonical ``family:params`` string for cache keys."""

    def describe(self) -> str:
        """A one-line human summary for reports and ``--stats``."""
        return (
            f"{self.fingerprint()}: {self.num_qubits} qubits, "
            f"{self.num_couplers} couplers"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.fingerprint()}>"


class ChimeraTopology(Topology):
    """C_{m,n} Chimera with K_{t,t} unit cells (the 2000Q family)."""

    family = "chimera"

    def __init__(self, m: int = DWAVE_2000Q_CELLS, n: Optional[int] = None,
                 t: int = 4):
        super().__init__()
        if m < 1 or (n is not None and n < 1) or t < 1:
            raise ValueError(f"invalid Chimera shape ({m}, {n}, {t})")
        self.m = m
        self.n = n if n is not None else m
        self.t = t
        self._coords = ChimeraCoordinates(self.m, self.n, self.t)

    def build_graph(self) -> nx.Graph:
        return chimera_graph(self.m, self.n, self.t)

    def coordinates(self, index: int) -> Tuple[int, int, int, int]:
        return self._coords.coordinate(index)

    def linear(self, coord: Tuple[int, ...]) -> int:
        return self._coords.linear(tuple(coord))

    def tile_of(self, index: int) -> Tuple[int, int]:
        row, col, _, _ = self._coords.coordinate(index)
        return (row, col)

    @property
    def tile_shape(self) -> Tuple[int, int]:
        return (self.m, self.n)

    def fingerprint(self) -> str:
        return f"chimera:m={self.m},n={self.n},t={self.t}"


class PegasusTopology(Topology):
    """Pegasus-style P_m graph via the crossing construction.

    Coordinates are ``(u, w, k, z)``: orientation ``u`` (0 = vertical),
    perpendicular line group ``w`` in ``[0, m)``, line-in-group ``k`` in
    ``[0, 12)``, and segment ``z`` in ``[0, m-1)`` along the line.  The
    qubit ``(0, w, k, z)`` occupies vertical line ``12 w + k`` over the
    horizontal span ``[12 z + O_k, 12 z + O_k + 11]`` with the offset
    table ``O = (2,2,2,2, 6,6,6,6, 10,10,10,10)``; horizontal qubits
    mirror the roles.  Couplers: *internal* where two perpendicular
    segments cross, *odd* between same-offset neighbors ``2j``/``2j+1``
    on the same span, *external* between consecutive segments of one
    line.  Boundary lines whose segments cross nothing (positions 0, 1
    and ``12m-2``, ``12m-1``) are trimmed, landing exactly on the
    published count ``8(m-1)(3m-1)`` with maximum degree 15.
    """

    family = "pegasus"

    def __init__(self, m: int = 16):
        super().__init__()
        if m < 2:
            raise ValueError(f"Pegasus size must be >= 2, got {m}")
        self.m = m

    # Linear numbering: ((u*m + w)*12 + k)*(m-1) + z.
    def linear(self, coord: Tuple[int, ...]) -> int:
        u, w, k, z = coord
        if not (u in (0, 1) and 0 <= w < self.m and 0 <= k < 12
                and 0 <= z < self.m - 1):
            raise ValueError(f"invalid Pegasus coordinate {coord!r}")
        return ((u * self.m + w) * 12 + k) * (self.m - 1) + z

    def coordinates(self, index: int) -> Tuple[int, int, int, int]:
        span = self.m - 1
        if not 0 <= index < 2 * self.m * 12 * span:
            raise ValueError(f"qubit index {index} out of range")
        z = index % span
        k = (index // span) % 12
        w = (index // (span * 12)) % self.m
        u = index // (span * 12 * self.m)
        return (u, w, k, z)

    def _extent(self, k: int, z: int) -> Tuple[int, int]:
        start = 12 * z + _PEGASUS_OFFSETS[k]
        return start, start + 11

    def build_graph(self) -> nx.Graph:
        m = self.m
        graph = nx.Graph(family=self.family, rows=m, columns=m, tile=12)
        for u in (0, 1):
            for w in range(m):
                for k in range(12):
                    for z in range(m - 1):
                        graph.add_node(
                            self.linear((u, w, k, z)),
                            pegasus_coordinate=(u, w, k, z),
                        )
        # Internal couplers: a vertical and a horizontal segment couple
        # iff each one's line position falls inside the other's span.
        for w in range(m):
            for k in range(12):
                line = 12 * w + k  # vertical line position
                for z in range(m - 1):
                    lo, hi = self._extent(k, z)
                    for pos in range(lo, hi + 1):
                        w2, k2 = divmod(pos, 12)
                        if w2 >= m:
                            continue
                        # Horizontal segments of line `pos` covering `line`.
                        z2 = (line - _PEGASUS_OFFSETS[k2]) // 12
                        if 0 <= z2 < m - 1:
                            graph.add_edge(
                                self.linear((0, w, k, z)),
                                self.linear((1, w2, k2, z2)),
                            )
        for u in (0, 1):
            for w in range(m):
                for k in range(12):
                    for z in range(m - 1):
                        node = self.linear((u, w, k, z))
                        # Odd couplers: equal-offset neighbors 2j/2j+1.
                        if k % 2 == 0:
                            graph.add_edge(node, self.linear((u, w, k + 1, z)))
                        # External couplers: consecutive segments.
                        if z + 1 < m - 1:
                            graph.add_edge(node, self.linear((u, w, k, z + 1)))
        # Trim boundary lines that cross nothing (the real-chip trim):
        # a segment with no internal coupler can only reach its own
        # line, so the whole line is dead silicon.
        internal_degree = {node: 0 for node in graph.nodes()}
        for a, b in graph.edges():
            ua = graph.nodes[a]["pegasus_coordinate"][0]
            ub = graph.nodes[b]["pegasus_coordinate"][0]
            if ua != ub:
                internal_degree[a] += 1
                internal_degree[b] += 1
        graph.remove_nodes_from(
            [node for node, deg in internal_degree.items() if deg == 0]
        )
        return graph

    def tile_of(self, index: int) -> Tuple[int, int]:
        u, w, k, z = self.coordinates(index)
        return (z, w) if u == 0 else (w, z)

    @property
    def tile_shape(self) -> Tuple[int, int]:
        return (self.m, self.m)

    def fingerprint(self) -> str:
        return f"pegasus:m={self.m}"


class ZephyrTopology(Topology):
    """Zephyr-style Z_{m,t} graph via the crossing construction.

    Coordinates are ``(u, w, k, j, z)``: orientation ``u``, line group
    ``w`` in ``[0, 2m]``, line-in-group ``k`` in ``[0, t)``, half-step
    phase ``j`` and segment ``z`` in ``[0, m)``.  Qubit
    ``(0, w, k, j, z)`` occupies vertical line ``t w + k`` over span
    ``[2tz + tj, 2tz + tj + 2t - 1]`` -- length-``2t`` segments
    overlapping by ``t``, so every crossing sees two segments per line
    (``4t = 16`` internal couplers at t=4).  Odd couplers join the two
    overlapping segments of one line; external couplers join segments
    one full period apart.  Node count ``4 t m (2m+1)`` (Z15 = 7440),
    maximum degree ``4t + 4 = 20``; no trimming is needed because the
    half-step phases cover every line position.
    """

    family = "zephyr"

    def __init__(self, m: int = 15, t: int = 4):
        super().__init__()
        if m < 1 or t < 1:
            raise ValueError(f"invalid Zephyr shape ({m}, {t})")
        self.m = m
        self.t = t

    # Linear numbering: ((((u*(2m+1)) + w)*t + k)*2 + j)*m + z.
    def linear(self, coord: Tuple[int, ...]) -> int:
        u, w, k, j, z = coord
        if not (u in (0, 1) and 0 <= w <= 2 * self.m and 0 <= k < self.t
                and j in (0, 1) and 0 <= z < self.m):
            raise ValueError(f"invalid Zephyr coordinate {coord!r}")
        return ((((u * (2 * self.m + 1)) + w) * self.t + k) * 2 + j) * self.m + z

    def coordinates(self, index: int) -> Tuple[int, int, int, int, int]:
        m, t = self.m, self.t
        if not 0 <= index < 4 * t * m * (2 * m + 1):
            raise ValueError(f"qubit index {index} out of range")
        z = index % m
        j = (index // m) % 2
        k = (index // (m * 2)) % t
        w = (index // (m * 2 * t)) % (2 * m + 1)
        u = index // (m * 2 * t * (2 * m + 1))
        return (u, w, k, j, z)

    def _extent(self, j: int, z: int) -> Tuple[int, int]:
        start = self.t * (2 * z + j)
        return start, start + 2 * self.t - 1

    def build_graph(self) -> nx.Graph:
        m, t = self.m, self.t
        graph = nx.Graph(family=self.family, rows=m + 1, columns=m + 1,
                         tile=t)
        for u in (0, 1):
            for w in range(2 * m + 1):
                for k in range(t):
                    for j in (0, 1):
                        for z in range(m):
                            graph.add_node(
                                self.linear((u, w, k, j, z)),
                                zephyr_coordinate=(u, w, k, j, z),
                            )
        # Internal couplers: mutual-crossing test, as in Pegasus but
        # with overlapping half-step segments (two matches per line).
        for w in range(2 * m + 1):
            for k in range(t):
                for j in (0, 1):
                    for z in range(m):
                        lo, hi = self._extent(j, z)
                        node = self.linear((0, w, k, j, z))
                        for pos in range(lo, hi + 1):
                            w2, k2 = divmod(pos, t)
                            if w2 > 2 * m:
                                continue
                            # Horizontal segments covering line t*w + k:
                            # the half-steps s = 2z2 + j2 with
                            # t*s <= t*w + k <= t*s + 2t - 1.
                            for s in (w - 1, w):
                                if not 0 <= s < 2 * m:
                                    continue
                                graph.add_edge(
                                    node,
                                    self.linear((1, w2, k2, s % 2, s // 2)),
                                )
        for u in (0, 1):
            for w in range(2 * m + 1):
                for k in range(t):
                    for z in range(m):
                        a = self.linear((u, w, k, 0, z))
                        b = self.linear((u, w, k, 1, z))
                        # Odd couplers: overlapping half-step segments.
                        graph.add_edge(a, b)
                        if z + 1 < m:
                            nxt0 = self.linear((u, w, k, 0, z + 1))
                            graph.add_edge(b, nxt0)
                            # External couplers: one full period apart.
                            graph.add_edge(a, nxt0)
                            graph.add_edge(
                                b, self.linear((u, w, k, 1, z + 1))
                            )
        return graph

    def tile_of(self, index: int) -> Tuple[int, int]:
        u, w, k, j, z = self.coordinates(index)
        return (z, w // 2) if u == 0 else (w // 2, z)

    @property
    def tile_shape(self) -> Tuple[int, int]:
        return (self.m + 1, self.m + 1)

    def fingerprint(self) -> str:
        return f"zephyr:m={self.m},t={self.t}"
