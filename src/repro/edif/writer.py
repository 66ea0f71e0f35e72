"""Netlist -> EDIF serialization, in the style Yosys emits.

The output contains an ``external`` library declaring the standard-cell
interfaces, a ``library`` holding the design cell with its interface and
contents (instances + joined nets), and a ``design`` stanza naming the
top cell.  Identifiers that are not legal EDIF names are emitted with
the standard ``(rename safe "original")`` form, and multi-bit ports use
``(array name width)`` with ``(member name index)`` references, matching
Yosys conventions.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.ising.cells import CELL_LIBRARY
from repro.edif.sexp import SExp, Symbol, format_sexp
from repro.synth.netlist import CONSTANT_CELLS, Net, Netlist

_SAFE_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

#: One shared Symbol for each EDIF keyword the writer emits and each name
#: in the cell library.  The set is fixed, so the table never grows.
_SYMBOLS: Dict[str, Symbol] = {
    word: Symbol(word)
    for word in (
        "edif edifVersion edifLevel keywordMap keywordLevel external library "
        "design technology numberDefinition cell cellType GENERIC view "
        "VIEW_NETLIST viewType NETLIST interface contents port direction "
        "INPUT OUTPUT array member instance viewRef cellRef libraryRef LIB "
        "DESIGN net joined portRef instanceRef rename"
    ).split()
    + list(CONSTANT_CELLS)
    + [
        name
        for spec in CELL_LIBRARY.values()
        for name in (spec.name, spec.output, *spec.inputs)
    ]
}
#: ``_sym("port")`` is the table's Symbol; a word missing from it is a KeyError.
_sym = _SYMBOLS.__getitem__


def _name(identifier: str) -> SExp:
    """A bare symbol if legal, else ``(rename safe "original")``."""
    if _SAFE_RE.match(identifier):
        return Symbol(identifier)
    safe = re.sub(r"[^A-Za-z0-9_]", "_", identifier)
    if not safe or not safe[0].isalpha():
        safe = "id_" + safe
    return [_sym("rename"), Symbol(safe), identifier]


class _Names(dict):
    """One document's identifiers, each named by :func:`_name` once.

    A cell or port name recurs in every net that joins it; the table
    lives for one :func:`write_edif` call, so it never outgrows the
    design it serves.
    """

    def __missing__(self, identifier: str) -> SExp:
        named = self[identifier] = _name(identifier)
        return named


def _cell_interface(kind: str) -> SExp:
    ports: List[SExp] = []
    if kind in CONSTANT_CELLS:
        ports.append([_sym("port"), _sym("Y"), [_sym("direction"), _sym("OUTPUT")]])
    else:
        spec = CELL_LIBRARY[kind]
        ports.append(
            [_sym("port"), _sym(spec.output), [_sym("direction"), _sym("OUTPUT")]]
        )
        for port in spec.inputs:
            ports.append(
                [_sym("port"), _sym(port), [_sym("direction"), _sym("INPUT")]]
            )
    return [
        _sym("cell"),
        _sym(kind),
        [_sym("cellType"), _sym("GENERIC")],
        [
            _sym("view"),
            _sym("VIEW_NETLIST"),
            [_sym("viewType"), _sym("NETLIST")],
            [_sym("interface")] + ports,
        ],
    ]


def write_edif(netlist: Netlist) -> str:
    """Serialize a gate-level netlist as an EDIF 2.0.0 document."""
    used_kinds = sorted({cell.kind for cell in netlist.cells.values()})
    names = _Names()

    interface: List[SExp] = [_sym("interface")]
    for port in netlist.ports.values():
        direction = [_sym("direction"), _sym(port.direction.value.upper())]
        if port.width == 1:
            interface.append([_sym("port"), names[port.name], direction])
        else:
            interface.append(
                [
                    _sym("port"),
                    [_sym("array"), names[port.name], port.width],
                    direction,
                ]
            )

    contents: List[SExp] = [_sym("contents")]
    for cell in netlist.cells.values():
        contents.append(
            [
                _sym("instance"),
                names[cell.name],
                [
                    _sym("viewRef"),
                    _sym("VIEW_NETLIST"),
                    [_sym("cellRef"), _sym(cell.kind), [_sym("libraryRef"), _sym("LIB")]],
                ],
            ]
        )

    for net, joined in _net_connections(netlist).items():
        refs: List[SExp] = []
        for instance, port, bit in joined:
            if bit is None:
                port_ref: SExp = names[port]
            else:
                port_ref = [_sym("member"), names[port], bit]
            if instance is None:
                refs.append([_sym("portRef"), port_ref])
            else:
                refs.append(
                    [_sym("portRef"), port_ref, [_sym("instanceRef"), names[instance]]]
                )
        contents.append(
            [_sym("net"), _name(f"net_{net}"), [_sym("joined")] + refs]
        )

    top = names[netlist.name]
    document: SExp = [
        _sym("edif"),
        top,
        [_sym("edifVersion"), 2, 0, 0],
        [_sym("edifLevel"), 0],
        [_sym("keywordMap"), [_sym("keywordLevel"), 0]],
        [
            _sym("external"),
            _sym("LIB"),
            [_sym("edifLevel"), 0],
            [_sym("technology"), [_sym("numberDefinition")]],
        ]
        + [_cell_interface(kind) for kind in used_kinds],
        [
            _sym("library"),
            _sym("DESIGN"),
            [_sym("edifLevel"), 0],
            [_sym("technology"), [_sym("numberDefinition")]],
            [
                _sym("cell"),
                top,
                [_sym("cellType"), _sym("GENERIC")],
                [
                    _sym("view"),
                    _sym("VIEW_NETLIST"),
                    [_sym("viewType"), _sym("NETLIST")],
                    interface,
                    contents,
                ],
            ],
        ],
        [
            _sym("design"),
            top,
            [_sym("cellRef"), top, [_sym("libraryRef"), _sym("DESIGN")]],
        ],
    ]
    return format_sexp(document) + "\n"


def _net_connections(netlist: Netlist):
    """Group every (instance, port[, bit]) endpoint by net.

    Endpoints with ``instance None`` are module-level port bits; their
    ``bit`` is None for scalar ports.
    """
    joined: Dict[Net, List[Tuple]] = {}
    for port in netlist.ports.values():
        for i, net in enumerate(port.bits):
            bit = None if port.width == 1 else i
            joined.setdefault(net, []).append((None, port.name, bit))
    for cell in netlist.cells.values():
        for port_name, net in cell.connections.items():
            joined.setdefault(net, []).append((cell.name, port_name, None))
    # Nets with a single endpoint still appear (dangling), matching Yosys.
    return dict(sorted(joined.items()))
