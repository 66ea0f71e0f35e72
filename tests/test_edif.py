"""Tests for s-expressions and the EDIF writer/reader."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edif.reader import EdifError, read_edif
from repro.edif.sexp import SExpError, Symbol, format_sexp, parse_sexp
from repro.edif.writer import write_edif
from repro.hdl import elaborate
from repro.synth.netlist import Netlist, PortDirection
from repro.synth.opt import optimize
from repro.synth.simulate import NetlistSimulator
from tests.conftest import FIGURE_2A, LISTING_5_CIRCSAT


# ----------------------------------------------------------------------
# S-expressions
# ----------------------------------------------------------------------
def test_parse_atoms():
    assert parse_sexp("42") == 42
    assert parse_sexp("foo") == Symbol("foo")
    assert parse_sexp('"a string"') == "a string"


def test_parse_nested_lists():
    assert parse_sexp("(a (b 1) (c (d 2)))") == [
        Symbol("a"),
        [Symbol("b"), 1],
        [Symbol("c"), [Symbol("d"), 2]],
    ]


def test_symbols_and_strings_are_distinct():
    symbol, string = parse_sexp('(x "x")')
    assert isinstance(symbol, Symbol)
    assert isinstance(string, str) and not isinstance(string, Symbol)


def test_string_escapes():
    assert parse_sexp('"say \\"hi\\""') == 'say "hi"'


@pytest.mark.parametrize("bad", ["", "(a", "a)", "(a))", '"open'])
def test_malformed_sexp_rejected(bad):
    with pytest.raises(SExpError):
        parse_sexp(bad)


def test_format_parse_roundtrip():
    expr = [Symbol("top"), [Symbol("x"), 1, "a b"], Symbol("y")]
    assert parse_sexp(format_sexp(expr)) == expr


@st.composite
def sexprs(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return draw(st.integers(-1000, 1000))
        if kind == 1:
            return Symbol("s" + draw(st.text("abcxyz059_", min_size=1, max_size=6)))
        return draw(st.text(min_size=0, max_size=8))
    return [
        draw(sexprs(depth=depth - 1))
        for _ in range(draw(st.integers(0, 4)))
    ]


@given(sexprs())
@settings(max_examples=60, deadline=None)
def test_format_parse_roundtrip_property(expr):
    rendered = format_sexp(expr)
    if isinstance(expr, list) or rendered.strip():
        assert parse_sexp(rendered) == expr


# ----------------------------------------------------------------------
# EDIF writing
# ----------------------------------------------------------------------
def test_edif_structure(figure2_program):
    document = parse_sexp(figure2_program.edif_text)
    heads = [item[0] for item in document if isinstance(item, list)]
    for expected in ("edifVersion", "external", "library", "design"):
        assert Symbol(expected) in heads


def test_edif_declares_used_cells_only(figure2_program):
    text = figure2_program.edif_text
    used = set(figure2_program.netlist.cell_histogram())
    for kind in used:
        assert f"(cell {kind} " in text.replace("\n", " ") or f"cell\n    {kind}" in text or kind in text


def test_edif_multibit_ports_use_arrays(figure2_program):
    assert "(array c 2)" in figure2_program.edif_text.replace("\n  ", " ")


def test_edif_renames_awkward_identifiers():
    nl = Netlist("top")
    a, y = nl.new_net(), nl.new_net()
    nl.add_port("in@0", PortDirection.INPUT, [a])
    nl.add_port("out", PortDirection.OUTPUT, [y])
    nl.add_cell("NOT", {"A": a, "Y": y}, name="g@weird")
    text = write_edif(nl)
    assert '(rename' in text
    back = read_edif(text)
    assert "in@0" in back.ports
    assert "g@weird" in back.cells


# ----------------------------------------------------------------------
# EDIF round-trips
# ----------------------------------------------------------------------
def _roundtrip_equivalent(source: str, widths):
    netlist = optimize(elaborate(source))
    back = read_edif(write_edif(netlist))
    sim_a, sim_b = NetlistSimulator(netlist), NetlistSimulator(back)
    names = list(widths)
    total = sum(widths.values())
    for value in range(1 << total):
        inputs, shift = {}, 0
        for name in names:
            inputs[name] = (value >> shift) & ((1 << widths[name]) - 1)
            shift += widths[name]
        assert sim_a.evaluate(inputs) == sim_b.evaluate(inputs)


def test_roundtrip_figure2():
    _roundtrip_equivalent(FIGURE_2A, {"s": 1, "a": 1, "b": 1})


def test_roundtrip_circsat():
    _roundtrip_equivalent(LISTING_5_CIRCSAT, {"a": 1, "b": 1, "c": 1})


def test_roundtrip_preserves_cell_histogram(figure2_program):
    back = read_edif(figure2_program.edif_text)
    assert back.cell_histogram() == figure2_program.netlist.cell_histogram()


def test_roundtrip_passthrough_port_sharing():
    netlist = elaborate(
        "module p (i, o); input i; output o; assign o = i; endmodule"
    )
    back = read_edif(write_edif(netlist))
    assert NetlistSimulator(back).evaluate({"i": 1})["o"] == 1
    assert NetlistSimulator(back).evaluate({"i": 0})["o"] == 0


# ----------------------------------------------------------------------
# EDIF reader validation
# ----------------------------------------------------------------------
def test_reader_rejects_non_edif():
    with pytest.raises(EdifError):
        read_edif("(nonsense)")


def test_reader_rejects_unknown_cell_types():
    bad = """
    (edif t (edifVersion 2 0 0) (edifLevel 0) (keywordMap (keywordLevel 0))
      (library DESIGN (edifLevel 0) (technology (numberDefinition))
        (cell t (cellType GENERIC)
          (view VIEW_NETLIST (viewType NETLIST)
            (interface (port y (direction OUTPUT)))
            (contents
              (instance bad (viewRef VIEW_NETLIST
                (cellRef WIDGET (libraryRef LIB))))
              (net n (joined (portRef y) (portRef Y (instanceRef bad))))))))
      (design t (cellRef t (libraryRef DESIGN))))
    """
    with pytest.raises(EdifError):
        read_edif(bad)


def test_reader_rejects_missing_design_cell():
    bad = """
    (edif t (edifVersion 2 0 0) (edifLevel 0) (keywordMap (keywordLevel 0))
      (library DESIGN (edifLevel 0) (technology (numberDefinition)))
      (design t (cellRef ghost (libraryRef DESIGN))))
    """
    with pytest.raises(EdifError):
        read_edif(bad)


# ----------------------------------------------------------------------
# EDIF round-trips of escaped / pathological identifiers
# ----------------------------------------------------------------------
#: Names no EDIF symbol can carry directly: every one must survive the
#: writer's ``(rename safe "original")`` form and come back verbatim.
PATHOLOGICAL_NAMES = [
    "1bad",  # leading digit
    "42",  # all digits
    "\\state.q[3]",  # Verilog backslash-escaped hierarchical name
    "has space",  # embedded space
    'say "hi"',  # embedded quotes (sexp string escaping)
    "a+b-c*d",  # operator soup
]


@pytest.mark.parametrize("name", PATHOLOGICAL_NAMES)
def test_pathological_port_name_roundtrips(name):
    nl = Netlist("top")
    a, y = nl.new_net(), nl.new_net()
    nl.add_port(name, PortDirection.INPUT, [a])
    nl.add_port("y", PortDirection.OUTPUT, [y])
    nl.add_cell("NOT", {"A": a, "Y": y})
    text = write_edif(nl)
    assert "(rename " in text
    back = read_edif(text)
    assert set(back.ports) == {name, "y"}
    assert back.ports[name].direction == PortDirection.INPUT
    sim = NetlistSimulator(back)
    assert sim.evaluate({name: 0})["y"] == 1
    assert sim.evaluate({name: 1})["y"] == 0


def test_pathological_multibit_port_roundtrips():
    """(array (rename ...) width) and its (member ...) references."""
    nl = Netlist("top")
    bits = nl.new_nets(2)
    y = nl.new_net()
    nl.add_port("2 wide\\bus", PortDirection.INPUT, bits)
    nl.add_port("y", PortDirection.OUTPUT, [y])
    nl.add_cell("AND", {"A": bits[0], "B": bits[1], "Y": y})
    back = read_edif(write_edif(nl))
    assert back.ports["2 wide\\bus"].width == 2
    sim = NetlistSimulator(back)
    assert sim.evaluate({"2 wide\\bus": 3})["y"] == 1
    assert sim.evaluate({"2 wide\\bus": 1})["y"] == 0


def test_pathological_cell_and_module_names_roundtrip():
    nl = Netlist("9 weird \\module")
    a, y = nl.new_net(), nl.new_net()
    nl.add_port("a", PortDirection.INPUT, [a])
    nl.add_port("y", PortDirection.OUTPUT, [y])
    nl.add_cell("NOT", {"A": a, "Y": y}, name="\\gen[0].u$not")
    back = read_edif(write_edif(nl))
    assert back.name == "9 weird \\module"
    assert "\\gen[0].u$not" in back.cells
    assert back.cell_histogram() == {"NOT": 1}


def test_sanitized_name_collisions_stay_distinct():
    """'a b' and 'a+b' both sanitize to 'a_b'; originals must win."""
    nl = Netlist("top")
    a, b, y = nl.new_net(), nl.new_net(), nl.new_net()
    nl.add_port("a b", PortDirection.INPUT, [a])
    nl.add_port("a+b", PortDirection.INPUT, [b])
    nl.add_port("y", PortDirection.OUTPUT, [y])
    nl.add_cell("AND", {"A": a, "B": b, "Y": y})
    back = read_edif(write_edif(nl))
    assert {"a b", "a+b", "y"} == set(back.ports)
    sim = NetlistSimulator(back)
    assert sim.evaluate({"a b": 1, "a+b": 0})["y"] == 0
    assert sim.evaluate({"a b": 1, "a+b": 1})["y"] == 1


# ----------------------------------------------------------------------
# EDIF reader: malformed forms are EdifErrors naming the form
# ----------------------------------------------------------------------
#: A 2-bit input A, an output y and one AND gate; each case below swaps
#: one well-formed piece for a malformed one.
_TEMPLATE = """
(edif t (edifVersion 2 0 0) (edifLevel 0) (keywordMap (keywordLevel 0))
  (external LIB (edifLevel 0) (technology (numberDefinition))
    (cell AND (cellType GENERIC) (view VIEW_NETLIST (viewType NETLIST)
      (interface (port Y (direction OUTPUT)) (port A (direction INPUT))
                 (port B (direction INPUT))))))
  (library DESIGN (edifLevel 0) (technology (numberDefinition))
    (cell t (cellType GENERIC)
      (view VIEW_NETLIST (viewType NETLIST)
        (interface PORT_A (port y (direction OUTPUT)))
        (contents
          (instance g (viewRef VIEW_NETLIST CELL_REF))
          (net n0 (joined (portRef MEMBER_0) (portRef A (instanceRef g))))
          (net n1 (joined (portRef (member A 1)) (portRef B (instanceRef g))))
          (net n2 (joined (portRef y) (portRef Y (instanceRef g))))))))
  (design t (cellRef t (libraryRef DESIGN))))
"""
_GOOD = {
    "PORT_A": "(port (array A 2) (direction INPUT))",
    "CELL_REF": "(cellRef AND (libraryRef LIB))",
    "MEMBER_0": "(member A 0)",
}


def _document(**swaps):
    text = _TEMPLATE
    for key, good in _GOOD.items():
        text = text.replace(key, swaps.get(key, good))
    return text


def test_malformed_form_template_reads_when_well_formed():
    netlist = read_edif(_document())
    assert netlist.ports["A"].width == 2
    sim = NetlistSimulator(netlist)
    assert sim.evaluate({"A": 3})["y"] == 1
    assert sim.evaluate({"A": 1})["y"] == 0


@pytest.mark.parametrize(
    "swaps, message",
    [
        ({"PORT_A": "(port)"}, r"\(port\) has no name"),
        ({"CELL_REF": "(cellRef)"}, r"\(cellRef\) has no name"),
        ({"PORT_A": "(port (array A x) (direction INPUT))"},
         r"\(array A x\): width x is not an integer"),
        ({"MEMBER_0": "(member A q)"}, r"\(member A q\): index q is not an integer"),
        ({"MEMBER_0": "(member A 7)"},
         r"\(portRef \(member A 7\)\): index 7 is outside port 'A', bits 0\.\.1"),
        ({"MEMBER_0": "(member A -1)"},
         r"\(portRef \(member A -1\)\): index -1 is outside port 'A', bits 0\.\.1"),
        ({"MEMBER_0": "A"}, r"\(portRef A\): port 'A' has 2 bits"),
        ({"PORT_A": "(port (array A -2) (direction INPUT))"},
         r"\(array A -2\): width -2 is negative"),
    ],
    ids=["port", "cellRef", "array-width", "member-index", "member-high",
         "member-negative", "bare-bus-ref", "negative-width"],
)
def test_reader_rejects_malformed_form(swaps, message):
    with pytest.raises(EdifError, match=message):
        read_edif(_document(**swaps))
