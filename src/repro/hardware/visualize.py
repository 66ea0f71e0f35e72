"""Text rendering of annealer topologies and minor embeddings.

Terminal-friendly views of what the place-and-route step did: which
native cells (topology tiles) an embedding occupies, how long each
chain is, and a Figure-1-style close-up of a single Chimera unit cell.
Useful when debugging embeddings or explaining the §6.1 qubit-count
numbers.  The occupancy map works for any topology family via its
:meth:`~repro.hardware.topology.Topology.tile_of` scheme; passing
``rows``/``columns``/``tile`` keeps the historical Chimera-only
signature working.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

import networkx as nx

from repro.hardware.chimera import ChimeraCoordinates
from repro.hardware.embedding import Embedding
from repro.hardware.topology import ChimeraTopology, Topology


def render_occupancy(
    embedding: Embedding,
    rows: Optional[int] = None,
    columns: Optional[int] = None,
    tile: int = 4,
    topology: Optional[Topology] = None,
) -> str:
    """A tile-grid map of native cells: qubits used per cell.

    Each cell prints its used-qubit count (``.`` for empty), giving an
    at-a-glance picture of how the embedding spreads over the chip.
    Pass either a :class:`Topology` or the historical Chimera shape
    (``rows``/``columns``/``tile``).
    """
    if topology is None:
        if rows is None:
            raise ValueError("render_occupancy needs a topology or rows")
        topology = ChimeraTopology(rows, columns, tile)
    grid_rows, grid_cols = topology.tile_shape
    cell_size = max(len(members) for members in topology.tiles().values())
    used_per_cell: Dict[tuple, int] = {}
    for chain in embedding.chains.values():
        for qubit in chain:
            key = topology.tile_of(qubit)
            used_per_cell[key] = used_per_cell.get(key, 0) + 1

    lines = [
        f"{topology.family} cell occupancy (qubits used of up to "
        f"{cell_size} per cell; '.' = empty)"
    ]
    for row in range(grid_rows):
        cells = []
        for col in range(grid_cols):
            used = used_per_cell.get((row, col), 0)
            cells.append(f"{used}" if used else ".")
        lines.append(" ".join(f"{c:>2}" for c in cells))
    total = embedding.total_qubits()
    lines.append(
        f"{len(embedding)} chains, {total} qubits, "
        f"{len(used_per_cell)} cells touched"
    )
    return "\n".join(lines)


def render_chains(embedding: Embedding, limit: int = 30) -> str:
    """A per-variable chain-length table, longest chains first."""
    entries = sorted(
        embedding.chains.items(), key=lambda kv: (-len(kv[1]), str(kv[0]))
    )
    lines = ["chain lengths (longest first)"]
    for variable, chain in entries[:limit]:
        bar = "#" * len(chain)
        lines.append(f"  {str(variable):>24} {len(chain):>3} {bar}")
    if len(entries) > limit:
        lines.append(f"  ... {len(entries) - limit} more")
    histogram: Dict[int, int] = {}
    for chain in embedding.chains.values():
        histogram[len(chain)] = histogram.get(len(chain), 0) + 1
    summary = ", ".join(
        f"{count}x len {length}" for length, count in sorted(histogram.items())
    )
    lines.append(f"  distribution: {summary}")
    return "\n".join(lines)


def render_unit_cell(
    graph: nx.Graph,
    row: int,
    col: int,
    rows: int,
    columns: Optional[int] = None,
    tile: int = 4,
    occupied: Optional[Dict[int, Hashable]] = None,
) -> str:
    """A Figure-1-style close-up of one unit cell.

    Vertical-partition qubits on the left, horizontal on the right,
    with ``*`` marking couplers present in the (possibly dropped-out)
    working graph and owner labels when ``occupied`` maps qubits to
    variables.
    """
    if columns is None:
        columns = rows
    coords = ChimeraCoordinates(rows, columns, tile)
    vertical = [coords.linear((row, col, 0, k)) for k in range(tile)]
    horizontal = [coords.linear((row, col, 1, k)) for k in range(tile)]
    occupied = occupied or {}

    def label(qubit: int) -> str:
        owner = occupied.get(qubit)
        dead = qubit not in graph
        mark = "x" if dead else ("o" if owner is not None else " ")
        text = f"{qubit:>5}{mark}"
        if owner is not None:
            text += f" ({owner})"
        return text

    lines = [f"unit cell ({row}, {col}):  vertical | horizontal"]
    for k in range(tile):
        couplers = "".join(
            "*" if graph.has_edge(vertical[k], horizontal[j]) else "-"
            for j in range(tile)
        )
        lines.append(f"  {label(vertical[k]):<18} {couplers} {label(horizontal[k])}")
    lines.append("  ('*' = working coupler, 'x' = dropped qubit, 'o' = used)")
    return "\n".join(lines)


def embedding_report(
    embedding: Embedding,
    rows: Optional[int] = None,
    columns: Optional[int] = None,
    tile: int = 4,
    topology: Optional[Topology] = None,
) -> str:
    """Occupancy map plus chain table in one report string."""
    return (
        render_occupancy(embedding, rows, columns, tile, topology=topology)
        + "\n\n"
        + render_chains(embedding)
    )
