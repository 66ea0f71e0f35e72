"""Tests for the QMASM language: parser, assembler, stdcell library."""

import pytest

from repro.ising.cells import CELL_LIBRARY
from repro.ising.model import SPIN_FALSE, SPIN_TRUE
from repro.qmasm.assembler import assemble
from repro.qmasm.parser import parse_pin, parse_qmasm
from repro.qmasm.program import (
    Chain,
    Coupler,
    Pin,
    QmasmError,
    UseMacro,
    Weight,
)
from repro.qmasm.stdcell import STDCELL_NAME, stdcell_source


# ----------------------------------------------------------------------
# Parser: plain statements
# ----------------------------------------------------------------------
def test_parse_weight_coupler_chain():
    program = parse_qmasm("A -1\nA B -5\nA = B\nC /= D\n")
    kinds = [type(s) for s in program.statements]
    assert kinds == [Weight, Coupler, Chain, Chain]
    assert program.statements[0].value == -1.0
    assert program.statements[2].same is True
    assert program.statements[3].same is False


def test_parse_listing1_verbatim():
    """The paper's Listing 1 parses as 2 weights + 6 couplers."""
    listing1 = "A   -1\nB    2\nA B -5\nB C -5\nC D -5\nD A -5\nA C 10\nB D 10\n"
    program = parse_qmasm(listing1)
    weights = [s for s in program.statements if isinstance(s, Weight)]
    couplers = [s for s in program.statements if isinstance(s, Coupler)]
    assert len(weights) == 2 and len(couplers) == 6


def test_comments_and_blanks_ignored():
    program = parse_qmasm("# full comment\n\nA 1  # trailing\n")
    assert len(program.statements) == 1


def test_invalid_statements_rejected():
    for bad in ("A", "1 2 3 4", "A B C 5", "A notanumber"):
        with pytest.raises(QmasmError):
            parse_qmasm(bad)


# ----------------------------------------------------------------------
# Parser: pins
# ----------------------------------------------------------------------
def test_scalar_pin_forms():
    for text, expected in (
        ("x := true", True), ("x := TRUE", True), ("x := 1", True),
        ("x := false", False), ("x := 0", False),
    ):
        assert parse_pin(text).assignments == {"x": expected}


def test_vector_pin_binary_string():
    """The paper: --pin="C[7:0] := 10001111" (143, MSB first)."""
    pin = parse_pin("C[7:0] := 10001111")
    assert pin.assignments == {
        "C[7]": True, "C[6]": False, "C[5]": False, "C[4]": False,
        "C[3]": True, "C[2]": True, "C[1]": True, "C[0]": True,
    }


def test_vector_pin_integer():
    pin = parse_pin("C[3:0] := 5")
    assert pin.assignments == {
        "C[3]": False, "C[2]": True, "C[1]": False, "C[0]": True
    }


def test_single_bit_pin():
    assert parse_pin("C[2] := 1").assignments == {"C[2]": True}


def test_ascending_pin_range():
    pin = parse_pin("x[0:2] := 101")
    assert pin.assignments == {"x[0]": True, "x[1]": False, "x[2]": True}


def test_pin_validation():
    with pytest.raises(QmasmError):
        parse_pin("x = 1")  # wrong operator
    with pytest.raises(QmasmError):
        parse_pin("x := maybe")
    with pytest.raises(QmasmError):
        parse_pin("x[1:0] := 9")  # doesn't fit


@pytest.mark.parametrize(
    "source", ["A nan\n", "A 1\nA B inf\n", "A 1\n\nB -Infinity\n", "A 1e999\n"]
)
def test_non_finite_weights_rejected_with_line(source):
    line = len(source.rstrip("\n").splitlines())
    with pytest.raises(QmasmError, match=rf"non-finite number .* \(line {line}\)"):
        parse_qmasm(source)


def test_pins_inside_programs():
    program = parse_qmasm("A 1\nA := true\n")
    pins = [s for s in program.statements if isinstance(s, Pin)]
    assert pins[0].assignments == {"A": True}


# ----------------------------------------------------------------------
# Parser: directives
# ----------------------------------------------------------------------
def test_macro_definition_and_use():
    program = parse_qmasm(
        "!begin_macro CHAINED\nA B -1\n!end_macro CHAINED\n"
        "!use_macro CHAINED one two\n"
    )
    assert "CHAINED" in program.macros
    use = [s for s in program.statements if isinstance(s, UseMacro)][0]
    assert use.instances == ["one", "two"]


def test_macro_errors():
    with pytest.raises(QmasmError):
        parse_qmasm("!begin_macro M\nA 1\n")  # unterminated
    with pytest.raises(QmasmError):
        parse_qmasm("!end_macro M\n")
    with pytest.raises(QmasmError):
        parse_qmasm("!begin_macro M\n!end_macro OTHER\n")
    with pytest.raises(QmasmError):
        parse_qmasm("!begin_macro M\n!end_macro M\n!begin_macro M\n!end_macro M\n")
    with pytest.raises(QmasmError):
        parse_qmasm("!use_macro M\n")  # no instance name


def test_include_via_resolver():
    library = "!begin_macro GADGET\nA B -2\n!end_macro GADGET\n"

    def resolver(target):
        assert target == "mylib"
        return library

    program = parse_qmasm(
        "!include <mylib>\n!use_macro GADGET g\n", include_resolver=resolver
    )
    assert "GADGET" in program.macros


def test_include_stdcell_builtin():
    program = parse_qmasm(f"!include <{STDCELL_NAME}>")
    assert set(CELL_LIBRARY) <= set(program.macros)


def test_include_missing_target():
    with pytest.raises(QmasmError):
        parse_qmasm("!include <no_such_thing>")


def test_unknown_directive():
    with pytest.raises(QmasmError):
        parse_qmasm("!frobnicate A\n")


def test_assert_parses_and_evaluates():
    program = parse_qmasm("!assert Y = A|B\nA 1\nB 1\nY 1\n")
    logical = assemble(program)
    good = {"Y": SPIN_TRUE, "A": SPIN_TRUE, "B": SPIN_FALSE}
    bad = {"Y": SPIN_FALSE, "A": SPIN_TRUE, "B": SPIN_FALSE}
    assert logical.check_assertions(good) == []
    assert logical.check_assertions(bad) == ["Y = A|B"]


def test_assert_expression_grammar():
    source = "\n".join(
        [
            "!assert ~(A&B) = Y",
            "!assert A + B <= 2",
            "!assert (A ^ B) | C >= 0",
            "A 1", "B 1", "C 1", "Y 1",
        ]
    )
    logical = assemble(parse_qmasm(source))
    sample = {"A": SPIN_TRUE, "B": SPIN_FALSE, "C": SPIN_TRUE, "Y": SPIN_TRUE}
    assert logical.check_assertions(sample) == []


def test_assert_syntax_errors():
    with pytest.raises(QmasmError):
        parse_qmasm("!assert A &&& B")
    with pytest.raises(QmasmError):
        parse_qmasm("!assert (A")


# ----------------------------------------------------------------------
# Assembler
# ----------------------------------------------------------------------
def test_assemble_weights_and_couplers():
    logical = assemble(parse_qmasm("A -1\nB 2\nA B -5\n"))
    assert logical.model.get_linear("A") == pytest.approx(-1.0)
    assert logical.model.get_interaction("A", "B") == pytest.approx(-5.0)


def test_macro_expansion_prefixes_names():
    source = (
        "!begin_macro PAIR\nX Y -1\nX 0.5\n!end_macro PAIR\n"
        "!use_macro PAIR p1 p2\n"
    )
    logical = assemble(parse_qmasm(source))
    assert logical.model.get_interaction("p1.X", "p1.Y") == pytest.approx(-1.0)
    assert logical.model.get_linear("p2.X") == pytest.approx(0.5)


def test_nested_macros():
    source = (
        "!begin_macro INNER\nA 1\n!end_macro INNER\n"
        "!begin_macro OUTER\n!use_macro INNER kid\nB 2\n!end_macro OUTER\n"
        "!use_macro OUTER top\n"
    )
    logical = assemble(parse_qmasm(source))
    assert logical.model.get_linear("top.kid.A") == pytest.approx(1.0)
    assert logical.model.get_linear("top.B") == pytest.approx(2.0)


def test_undefined_macro_rejected():
    with pytest.raises(QmasmError):
        assemble(parse_qmasm("!use_macro GHOST g\n"))


def test_chain_contraction_merges_variables():
    logical = assemble(parse_qmasm("A 1\nB 2\nA = B\n"))
    model, representative = logical.to_ising()
    assert representative["A"] == representative["B"]
    merged = representative["A"]
    assert model.get_linear(merged) == pytest.approx(3.0)


def test_chain_contraction_prefers_visible_names():
    logical = assemble(parse_qmasm("$g.Y 1\nout 0\n$g.Y = out\n"))
    _, representative = logical.to_ising()
    assert representative["$g.Y"] == "out"


def test_chains_can_be_kept_as_couplers():
    logical = assemble(parse_qmasm("A 1\nB 2\nA = B\n"))
    model, representative = logical.to_ising(contract_chains=False)
    assert representative["A"] != representative["B"]
    assert model.get_interaction("A", "B") < 0


def test_anti_chain_becomes_positive_coupler():
    logical = assemble(parse_qmasm("A 0\nB 0\nA /= B\n"))
    model, _ = logical.to_ising(chain_strength=3.0)
    assert model.get_interaction("A", "B") == pytest.approx(3.0)
    _, states = model.ground_states()
    assert all(s["A"] != s["B"] for s in states)


def test_conflicting_chains_rejected():
    with pytest.raises(QmasmError):
        assemble(parse_qmasm("A 0\nB 0\nA = B\nA /= B\n"))


def test_default_chain_strength_rule():
    """Twice the largest-in-magnitude literal J (paper Section 4.3.5)."""
    logical = assemble(parse_qmasm("A B -5\nB C 10\n"))
    assert logical.default_chain_strength() == pytest.approx(20.0)


def test_pins_become_biases():
    logical = assemble(parse_qmasm("A 0\nB 0\nA B -1\nA := true\n"))
    model, rep = logical.to_ising(pin_strength=4.0)
    assert model.get_linear(rep["A"]) == pytest.approx(-4.0)
    _, states = model.ground_states()
    assert all(s[rep["A"]] == SPIN_TRUE for s in states)


def test_with_pins_does_not_mutate():
    logical = assemble(parse_qmasm("A 0\n"))
    pinned = logical.with_pins({"A": True})
    assert logical.pins == {}
    assert pinned.pins == {"A": True}


def test_alias_renames_variables():
    logical = assemble(parse_qmasm("!alias OUT Y\nY -1\nOUT := true\n"))
    assert logical.model.get_linear("Y") == pytest.approx(-1.0)
    assert logical.pins == {"Y": True}


def test_visible_variables_hide_dollar_names():
    logical = assemble(parse_qmasm("visible 1\n$hidden 1\ninner.$x 1\n"))
    assert logical.visible_variables() == ["visible"]


# ----------------------------------------------------------------------
# stdcell.qmasm
# ----------------------------------------------------------------------
def test_stdcell_source_has_every_cell_macro():
    source = stdcell_source()
    for name in CELL_LIBRARY:
        assert f"!begin_macro {name}" in source
        assert f"!end_macro {name}" in source


def test_stdcell_macros_reproduce_cell_hamiltonians():
    """Assembling '!use_macro CELL g' must yield exactly the verified
    Table 5 Hamiltonian, instance-prefixed."""
    for name, spec in CELL_LIBRARY.items():
        source = f"!include <stdcell>\n!use_macro {name} g\n"
        logical = assemble(parse_qmasm(source))
        expected = spec.hamiltonian().relabel(
            {v: f"g.{v}" for v in spec.hamiltonian().variables}
        )
        assert logical.model == expected, name


def test_stdcell_asserts_hold_on_all_ground_states():
    for name, spec in CELL_LIBRARY.items():
        source = f"!include <stdcell>\n!use_macro {name} g\n"
        logical = assemble(parse_qmasm(source))
        _, states = logical.model.ground_states()
        for state in states:
            assert logical.check_assertions(state) == [], (name, state)


def test_stdcell_or_macro_matches_listing2():
    """Listing 2's OR macro body, line for line."""
    source = stdcell_source()
    or_block = source.split("!begin_macro OR")[1].split("!end_macro OR")[0]
    for line in ("A 0.5", "B 0.5", "Y -1", "A B 0.5", "A Y -1", "B Y -1"):
        assert line in or_block
