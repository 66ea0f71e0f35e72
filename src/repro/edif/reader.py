"""EDIF -> netlist parsing (the front half of edif2qmasm).

Accepts the documents produced by :mod:`repro.edif.writer` (and, by
construction, the same structural subset Yosys emits): external cell
libraries, ``(rename ...)`` identifiers, scalar and ``(array ...)``
ports with ``(member ...)`` references, instances, and joined nets.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from repro.ising.cells import CELL_LIBRARY
from repro.edif.sexp import SExp, Symbol, format_sexp, parse_sexp
from repro.synth.netlist import CONSTANT_CELLS, Netlist, PortDirection


class EdifError(Exception):
    """Structurally invalid or unsupported EDIF."""


def _is_form(expr: SExp, keyword: str) -> bool:
    return (
        isinstance(expr, list)
        and bool(expr)
        and isinstance(expr[0], Symbol)
        and expr[0].lower() == keyword.lower()
    )


def _find_all(expr: List[SExp], keyword: str) -> List[List[SExp]]:
    return [item for item in expr if _is_form(item, keyword)]


def _find_one(expr: List[SExp], keyword: str) -> List[SExp]:
    matches = _find_all(expr, keyword)
    if len(matches) != 1:
        raise EdifError(f"expected exactly one ({keyword} ...), found {len(matches)}")
    return matches[0]


def _show(expr: SExp) -> str:
    """``expr`` as one line of EDIF text, cut short for an error message."""
    text = format_sexp(expr, width=sys.maxsize)
    return text if len(text) <= 60 else text[:57] + "..."


def _operand(form: List[SExp], index: int, what: str) -> SExp:
    """``form[index]``, or an EdifError naming the form that lacks it."""
    if len(form) <= index:
        raise EdifError(f"{_show(form)} has no {what}")
    return form[index]


def _integer(form: List[SExp], index: int, what: str) -> int:
    value = _operand(form, index, what)
    if not isinstance(value, int):
        raise EdifError(f"{_show(form)}: {what} {_show(value)} is not an integer")
    return value


def _identifier(expr: SExp) -> str:
    """A name, resolving ``(rename safe "original")`` to the original."""
    if isinstance(expr, Symbol):
        return str(expr)
    if _is_form(expr, "rename"):
        if len(expr) != 3 or not isinstance(expr[2], str):
            raise EdifError(f"malformed rename: {_show(expr)}")
        return expr[2]
    raise EdifError(f"not an identifier: {_show(expr)}")


def read_edif(text: str) -> Netlist:
    """Parse an EDIF document into a gate-level netlist."""
    document = parse_sexp(text)
    if not _is_form(document, "edif"):
        raise EdifError("document is not an (edif ...) form")

    design = _find_one(document, "design")
    cell_ref = _find_one(design, "cellRef")
    top_name = _identifier(_operand(cell_ref, 1, "name"))

    top_cell = None
    for library in _find_all(document, "library"):
        for cell in _find_all(library, "cell"):
            if _identifier(_operand(cell, 1, "name")) == top_name:
                top_cell = cell
    if top_cell is None:
        raise EdifError(f"design cell {top_name!r} not found in any library")

    view = _find_one(top_cell, "view")
    interface = _find_one(view, "interface")
    contents = _find_one(view, "contents")

    netlist = Netlist(top_name)

    # Ports.
    port_bits: Dict[str, List[int]] = {}
    port_dirs: Dict[str, PortDirection] = {}
    for port in _find_all(interface, "port"):
        spec = _operand(port, 1, "name")
        if _is_form(spec, "array"):
            name = _identifier(_operand(spec, 1, "name"))
            width = _integer(spec, 2, "width")
            if width < 0:
                raise EdifError(f"{_show(spec)}: width {width} is negative")
        else:
            name = _identifier(spec)
            width = 1
        direction_form = _find_one(port, "direction")
        direction = (
            PortDirection.INPUT
            if str(_operand(direction_form, 1, "direction")).upper() == "INPUT"
            else PortDirection.OUTPUT
        )
        port_bits[name] = netlist.new_nets(width)
        port_dirs[name] = direction

    # Instances.
    instance_kind: Dict[str, str] = {}
    for instance in _find_all(contents, "instance"):
        name = _identifier(_operand(instance, 1, "name"))
        view_ref = _find_one(instance, "viewRef")
        kind = _identifier(_operand(_find_one(view_ref, "cellRef"), 1, "name"))
        if kind not in CELL_LIBRARY and kind not in CONSTANT_CELLS:
            raise EdifError(f"instance {name!r} has unknown cell type {kind!r}")
        instance_kind[name] = kind

    # Nets: each (net ... (joined portRef...)) merges its endpoints.
    connections: Dict[str, Dict[str, int]] = {name: {} for name in instance_kind}
    merged: Dict[int, int] = {}  # module port bits joined onto one net

    def resolve(net: int) -> int:
        while net in merged:
            net = merged[net]
        return net

    for net_form in _find_all(contents, "net"):
        joined = _find_one(net_form, "joined")
        endpoints = _find_all(joined, "portRef")
        if not endpoints:
            continue
        net_id: Optional[int] = None
        module_refs: List[Tuple[str, Optional[int], SExp]] = []
        instance_refs: List[Tuple[str, str]] = []
        for ref in endpoints:
            port_spec = _operand(ref, 1, "port")
            if _is_form(port_spec, "member"):
                port_name = _identifier(_operand(port_spec, 1, "port"))
                bit: Optional[int] = _integer(port_spec, 2, "index")
            else:
                port_name = _identifier(port_spec)
                bit = None
            inst_forms = _find_all(ref, "instanceRef")
            if inst_forms:
                inst_name = _identifier(_operand(inst_forms[0], 1, "name"))
                instance_refs.append((inst_name, port_name))
            else:
                module_refs.append((port_name, bit, ref))
        # Module port bits own their pre-created nets; if one EDIF net
        # joins several module port bits (e.g. assign out = in), merge.
        for port_name, bit, ref in module_refs:
            if port_name not in port_bits:
                raise EdifError(f"net references unknown port {port_name!r}")
            bits = port_bits[port_name]
            if bit is None and len(bits) != 1:
                raise EdifError(
                    f"{_show(ref)}: port {port_name!r} has {len(bits)} bits; "
                    "name one with (member ...)"
                )
            index = 0 if bit is None else bit
            if not 0 <= index < len(bits):
                raise EdifError(
                    f"{_show(ref)}: index {index} is outside port "
                    f"{port_name!r}, bits 0..{len(bits) - 1}"
                )
            candidate = resolve(bits[index])
            if net_id is None:
                net_id = candidate
            elif net_id != candidate:
                merged[candidate] = net_id
        if net_id is None:
            net_id = netlist.new_net()
        for inst_name, port_name in instance_refs:
            if inst_name not in connections:
                raise EdifError(f"net references unknown instance {inst_name!r}")
            if port_name in connections[inst_name]:
                raise EdifError(
                    f"port {port_name!r} of {inst_name!r} joined twice"
                )
            connections[inst_name][port_name] = net_id

    for name, kind in instance_kind.items():
        netlist.add_cell(
            kind, {p: resolve(n) for p, n in connections[name].items()}, name=name
        )

    for name, bits in port_bits.items():
        netlist.add_port(name, port_dirs[name], [resolve(n) for n in bits])

    netlist.validate()
    return netlist
