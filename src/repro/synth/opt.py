"""Netlist optimization: the ABC role in the paper's flow.

Yosys hands its netlist to ABC for logic optimization before emitting
EDIF.  Our equivalents, run to a fixpoint:

- constant propagation (``AND(x, GND) -> GND``, ``MUX`` with constant
  select, cells with fully-constant inputs, ...),
- wire aliasing (``AND(x, VCC) -> x``), with alias chains resolved
  through all cell connections and port bits,
- double-inverter removal (``NOT(NOT(x)) -> x``),
- common-subexpression elimination (structurally identical cells share
  one output), and
- dead-cell elimination (anything not transitively driving an output
  port disappears -- every qubit matters on a 2048-qubit machine).

All passes preserve the input/output behaviour of the netlist, which the
test suite checks by differential simulation against the unoptimized
circuit.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Tuple

from repro.ising.cells import CELL_LIBRARY
from repro.synth.netlist import CONSTANT_CELLS, Cell, Net, Netlist


def optimize(netlist: Netlist, max_passes: int = 50) -> Netlist:
    """Return an optimized copy of ``netlist``."""
    return optimize_in_place(copy.deepcopy(netlist), max_passes)


def optimize_in_place(netlist: Netlist, max_passes: int = 50) -> Netlist:
    """Optimize ``netlist`` itself and return it.

    For a caller that owns the netlist (the compile stages do); anyone
    else calls :func:`optimize`.
    """
    for _ in range(max_passes):
        changed = _constant_and_alias_pass(netlist)
        changed |= _cse_pass(netlist)
        if not changed:
            break
    _dead_cell_pass(netlist)
    return netlist


# ----------------------------------------------------------------------
# Constant propagation + aliasing
# ----------------------------------------------------------------------
def _constant_and_alias_pass(netlist: Netlist) -> bool:
    constants: Dict[Net, bool] = {}
    not_of: Dict[Net, Net] = {}  # output net -> input net for NOT cells
    for cell in netlist.cells.values():
        if cell.kind in CONSTANT_CELLS:
            constants[cell.output_net] = CONSTANT_CELLS[cell.kind]

    aliases: Dict[Net, Net] = {}
    removals = []
    const_cells: Dict[bool, Net] = {}
    for value, net in (
        (CONSTANT_CELLS[c.kind], c.output_net)
        for c in netlist.cells.values()
        if c.kind in CONSTANT_CELLS
    ):
        const_cells.setdefault(value, net)

    def const_net(value: bool) -> Net:
        if value not in const_cells:
            net = netlist.new_net()
            netlist.add_cell("VCC" if value else "GND", {"Y": net})
            const_cells[value] = net
            constants[net] = value
        return const_cells[value]

    changed = False
    try:
        ordered = netlist.topological_cells()
    except Exception:
        ordered = list(netlist.cells.values())
    for cell in ordered:
        if cell.kind in CONSTANT_CELLS or cell.is_sequential:
            continue
        result = _fold_cell(cell, constants, not_of)
        if result is None:
            if cell.kind == "NOT":
                not_of[cell.output_net] = cell.connections["A"]
            continue
        kind, payload = result
        if kind == "const":
            constants[cell.output_net] = payload
            aliases[cell.output_net] = const_net(payload)
            removals.append(cell.name)
        elif kind == "alias":
            aliases[cell.output_net] = payload
            if payload in constants:
                constants[cell.output_net] = constants[payload]
            removals.append(cell.name)
        elif kind == "rewrite":
            new_kind, connections = payload
            del netlist.cells[cell.name]
            netlist.add_cell(new_kind, connections, name=cell.name)
        changed = True

    for name in removals:
        del netlist.cells[name]
    if aliases:
        _apply_aliases(netlist, aliases)
    return changed


def _fold_cell(
    cell: Cell, constants: Dict[Net, bool], not_of: Dict[Net, Net]
) -> Optional[Tuple[str, object]]:
    """Decide a simplification for one cell, or None.

    Returns ("const", value) / ("alias", net) / ("rewrite", (kind, conns)).
    """
    kind = cell.kind
    conns = cell.connections
    values = {p: constants.get(conns[p]) for p in cell.input_ports}

    if all(v is not None for v in values.values()):
        spec = CELL_LIBRARY[kind]
        args = [values[p] for p in spec.inputs]
        return ("const", bool(spec.function(*args)))

    if kind == "NOT":
        inner = not_of.get(conns["A"])
        if inner is not None:
            return ("alias", inner)
        return None

    if kind in ("AND", "OR", "XOR", "NAND", "NOR", "XNOR"):
        a, b = conns["A"], conns["B"]
        va, vb = values["A"], values["B"]
        folded = _fold_binary(kind, a, b, va, vb)
        if folded is not None and folded[0] == "rewrite":
            new_kind, new_conns = folded[1]
            new_conns = dict(new_conns, Y=conns["Y"])
            return ("rewrite", (new_kind, new_conns))
        return folded

    if kind == "MUX":
        select, a, b = conns["S"], conns["A"], conns["B"]
        vs = values["S"]
        if vs is True:
            return ("alias", b)
        if vs is False:
            return ("alias", a)
        if a == b:
            return ("alias", a)
        va, vb = values["A"], values["B"]
        if va is False and vb is True:
            return ("alias", select)
        if va is True and vb is False:
            return ("rewrite", ("NOT", {"A": select, "Y": conns["Y"]}))
        if va is False:
            return ("rewrite", ("AND", {"A": select, "B": b, "Y": conns["Y"]}))
        # Other constant-arm cases need an extra inverter, which a single
        # cell rewrite cannot express; the builder already folds them at
        # construction time.
        return None

    return None


def _fold_binary(kind: str, a: Net, b: Net, va, vb) -> Optional[Tuple[str, object]]:
    same = a == b
    if kind == "AND":
        if va is False or vb is False:
            return ("const", False)
        if va is True:
            return ("alias", b)
        if vb is True:
            return ("alias", a)
        if same:
            return ("alias", a)
    elif kind == "OR":
        if va is True or vb is True:
            return ("const", True)
        if va is False:
            return ("alias", b)
        if vb is False:
            return ("alias", a)
        if same:
            return ("alias", a)
    elif kind == "XOR":
        if same:
            return ("const", False)
        if va is False:
            return ("alias", b)
        if vb is False:
            return ("alias", a)
        if va is True:
            return ("rewrite", ("NOT", {"A": b, "Y": None}))
        if vb is True:
            return ("rewrite", ("NOT", {"A": a, "Y": None}))
    elif kind == "XNOR":
        if same:
            return ("const", True)
        if va is True:
            return ("alias", b)
        if vb is True:
            return ("alias", a)
        if va is False:
            return ("rewrite", ("NOT", {"A": b, "Y": None}))
        if vb is False:
            return ("rewrite", ("NOT", {"A": a, "Y": None}))
    elif kind == "NAND":
        if va is False or vb is False:
            return ("const", True)
        if va is True:
            return ("rewrite", ("NOT", {"A": b, "Y": None}))
        if vb is True:
            return ("rewrite", ("NOT", {"A": a, "Y": None}))
    elif kind == "NOR":
        if va is True or vb is True:
            return ("const", False)
        if va is False:
            return ("rewrite", ("NOT", {"A": b, "Y": None}))
        if vb is False:
            return ("rewrite", ("NOT", {"A": a, "Y": None}))
    return None


def _apply_aliases(netlist: Netlist, aliases: Dict[Net, Net]) -> None:
    def resolve(net: Net) -> Net:
        seen = set()
        while net in aliases:
            if net in seen:
                raise RuntimeError("alias cycle")
            seen.add(net)
            net = aliases[net]
        return net

    for cell in netlist.cells.values():
        cell.connections = {p: resolve(n) for p, n in cell.connections.items()}
    for port in netlist.ports.values():
        port.bits = [resolve(n) for n in port.bits]
    for name, bits in netlist.net_names.items():
        netlist.net_names[name] = [resolve(n) for n in bits]


# ----------------------------------------------------------------------
# Common-subexpression elimination
# ----------------------------------------------------------------------
_COMMUTATIVE = {"AND", "OR", "XOR", "NAND", "NOR", "XNOR"}


def _cse_pass(netlist: Netlist) -> bool:
    seen: Dict[Tuple, Net] = {}
    aliases: Dict[Net, Net] = {}
    removals = []
    for cell in netlist.cells.values():
        if cell.is_sequential:
            continue
        if cell.kind in CONSTANT_CELLS:
            key: Tuple = (cell.kind,)
        elif cell.kind in _COMMUTATIVE:
            key = (cell.kind, tuple(sorted(cell.input_nets)))
        else:
            key = (cell.kind, cell.input_nets)
        if key in seen:
            aliases[cell.output_net] = seen[key]
            removals.append(cell.name)
        else:
            seen[key] = cell.output_net
    for name in removals:
        del netlist.cells[name]
    if aliases:
        _apply_aliases(netlist, aliases)
    return bool(removals)


# ----------------------------------------------------------------------
# Dead-cell elimination
# ----------------------------------------------------------------------
def _dead_cell_pass(netlist: Netlist) -> bool:
    live_nets = set()
    for port in netlist.outputs():
        live_nets.update(port.bits)
    by_output: Dict[Net, Cell] = {c.output_net: c for c in netlist.cells.values()}

    worklist = list(live_nets)
    live_cells = set()
    while worklist:
        net = worklist.pop()
        cell = by_output.get(net)
        if cell is None or cell.name in live_cells:
            continue
        live_cells.add(cell.name)
        for input_net in cell.input_nets:
            if input_net not in live_nets:
                live_nets.add(input_net)
                worklist.append(input_net)
        if cell.is_sequential:
            d_net = cell.connections["D"]
            if d_net not in live_nets:
                live_nets.add(d_net)
                worklist.append(d_net)

    dead = [name for name in netlist.cells if name not in live_cells]
    for name in dead:
        del netlist.cells[name]
    return bool(dead)
