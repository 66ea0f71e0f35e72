"""Technology mapping onto the richer Table 5 cells.

The paper's cell set is "the set of gates considered by default by the
ABC optimizer" and includes inverted and compound gates (NAND, NOR,
XNOR, AOI3, OAI3, AOI4, OAI4) that the word-level lowering never emits
directly.  Using them "can reduce the required qubit count at the
expense of increased compilation time" (Section 4.3.2): an AOI4 cell
costs 6 variables where the discrete NOT+OR+AND+AND network costs 10
plus three connecting nets.

This pass pattern-matches single-fanout gate clusters and rewrites:

    NOT(AND(a,b))                -> NAND(a,b)
    NOT(OR(a,b))                 -> NOR(a,b)
    NOT(XOR(a,b))                -> XNOR(a,b)
    NOT(OR(AND(a,b), c))         -> AOI3(a,b,c)
    NOT(AND(OR(a,b), c))         -> OAI3(a,b,c)
    NOT(OR(AND(a,b), AND(c,d)))  -> AOI4(a,b,c,d)
    NOT(AND(OR(a,b), OR(c,d)))   -> OAI4(a,b,c,d)

Inner gates are only absorbed when the NOT is their sole reader, so the
rewrite never duplicates logic.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

from repro.synth.netlist import Cell, Net, Netlist


def techmap(netlist: Netlist, max_passes: int = 20) -> Netlist:
    """Return a copy with compound-cell rewrites applied to fixpoint."""
    return techmap_in_place(copy.deepcopy(netlist), max_passes)


def techmap_in_place(netlist: Netlist, max_passes: int = 20) -> Netlist:
    """Rewrite ``netlist`` itself and return it.

    For a caller that owns the netlist (the compile stages do); anyone
    else calls :func:`techmap`.
    """
    for _ in range(max_passes):
        if not _map_pass(netlist):
            break
    return netlist


def _fanout_counts(netlist: Netlist) -> Dict[Net, int]:
    counts: Dict[Net, int] = {}
    for cell in netlist.cells.values():
        for net in cell.input_nets:
            counts[net] = counts.get(net, 0) + 1
    for port in netlist.outputs():
        for net in port.bits:
            counts[net] = counts.get(net, 0) + 1
    return counts


def _map_pass(netlist: Netlist) -> bool:
    fanout = _fanout_counts(netlist)
    by_output: Dict[Net, Cell] = {c.output_net: c for c in netlist.cells.values()}

    def absorbable(net: Net, kinds: Tuple[str, ...]) -> Optional[Cell]:
        """The cell driving ``net`` if it matches and has fanout 1."""
        cell = by_output.get(net)
        if cell is not None and cell.kind in kinds and fanout.get(net, 0) == 1:
            return cell
        return None

    for cell in list(netlist.cells.values()):
        if cell.kind != "NOT":
            continue
        inner = absorbable(cell.connections["A"], ("AND", "OR", "XOR"))
        if inner is None:
            continue
        rewrite = _match(inner, by_output, fanout)
        if rewrite is None:
            continue
        kind, connections, absorbed = rewrite
        for victim in absorbed:
            del netlist.cells[victim.name]
        del netlist.cells[cell.name]
        netlist.add_cell(kind, dict(connections, Y=cell.output_net), name=cell.name)
        return True
    return False


def _match(
    inner: Cell, by_output: Dict[Net, Cell], fanout: Dict[Net, int]
) -> Optional[Tuple[str, Dict[str, Net], List[Cell]]]:
    """Match the inner gate of a NOT against the compound patterns."""

    def absorbable(net: Net, kind: str) -> Optional[Cell]:
        cell = by_output.get(net)
        if cell is not None and cell.kind == kind and fanout.get(net, 0) == 1:
            return cell
        return None

    a_net, b_net = inner.connections["A"], inner.connections["B"]
    if inner.kind == "XOR":
        return ("XNOR", {"A": a_net, "B": b_net}, [inner])

    if inner.kind == "OR":
        and_a, and_b = absorbable(a_net, "AND"), absorbable(b_net, "AND")
        if and_a is not None and and_b is not None:
            return (
                "AOI4",
                {
                    "A": and_a.connections["A"],
                    "B": and_a.connections["B"],
                    "C": and_b.connections["A"],
                    "D": and_b.connections["B"],
                },
                [inner, and_a, and_b],
            )
        if and_a is not None:
            return (
                "AOI3",
                {
                    "A": and_a.connections["A"],
                    "B": and_a.connections["B"],
                    "C": b_net,
                },
                [inner, and_a],
            )
        if and_b is not None:
            return (
                "AOI3",
                {
                    "A": and_b.connections["A"],
                    "B": and_b.connections["B"],
                    "C": a_net,
                },
                [inner, and_b],
            )
        return ("NOR", {"A": a_net, "B": b_net}, [inner])

    if inner.kind == "AND":
        or_a, or_b = absorbable(a_net, "OR"), absorbable(b_net, "OR")
        if or_a is not None and or_b is not None:
            return (
                "OAI4",
                {
                    "A": or_a.connections["A"],
                    "B": or_a.connections["B"],
                    "C": or_b.connections["A"],
                    "D": or_b.connections["B"],
                },
                [inner, or_a, or_b],
            )
        if or_a is not None:
            return (
                "OAI3",
                {
                    "A": or_a.connections["A"],
                    "B": or_a.connections["B"],
                    "C": b_net,
                },
                [inner, or_a],
            )
        if or_b is not None:
            return (
                "OAI3",
                {
                    "A": or_b.connections["A"],
                    "B": or_b.connections["B"],
                    "C": a_net,
                },
                [inner, or_b],
            )
        return ("NAND", {"A": a_net, "B": b_net}, [inner])

    return None
