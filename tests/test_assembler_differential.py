"""Differential test: the bulk model builder against its reference.

``IsingModel``'s constructor, ``update`` and ``relabel`` and QMASM's
``assemble`` and lowering accumulate their terms in one pass
(``IsingModel._add_terms``).  They must give the per-term code kept in
``tests/assembler_reference.py`` the same models: ``_h`` and ``_j`` in
the same insertion order with bit-identical floats (each sum added in
the same order, ``0.0 + -0.0`` included), the same repr-ordered edge
keys, the same offset and the same errors.  Assembled programs must
also agree on their chains, pins, assertions, representative map and
the iteration order of their ``variables`` set, which the lowering
follows.  Every compile digest rests on this.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ising.model import IsingModel
from repro.qmasm.assembler import assemble
from repro.qmasm.parser import parse_qmasm
from tests import assembler_reference as reference

#: ``"ab!"`` sorts before ``"ab"`` by repr but after it as a string;
#: ``1`` and ``True`` are one dict key with two reprs.
LABELS = ["a", "ab", "ab!", "b", "x.y", 0, 1, 2, True, -3]

#: Zeros of both signs, values whose sums depend on their order, and
#: ordinary ones.
VALUES = st.sampled_from([0.0, -0.0, 1e16, -1e16, 1.0, 0.1, 0.2, -0.3]) | st.floats(
    -1e6, 1e6, allow_nan=False, allow_infinity=False
)

labels = st.sampled_from(LABELS)
linear_terms = st.lists(st.tuples(labels, VALUES), max_size=12)
pairs = st.tuples(labels, labels)
quadratic_terms = st.lists(st.tuples(pairs, VALUES), max_size=16)


def _hex(value):
    return float(value).hex()


def _snapshot(model):
    """Everything the builders decide, with floats as exact hex."""
    return (
        [(type(v), v, _hex(bias)) for v, bias in model._h.items()],
        [(tuple(map(type, edge)), edge, _hex(c)) for edge, c in model._j.items()],
        _hex(model.offset),
    )


def _outcome(build):
    """The snapshot of what ``build()`` returns, or the error it raises."""
    try:
        return ("ok", _snapshot(build()))
    except ValueError as exc:
        return ("error", str(exc))


def _built(cls, linear, quadratic):
    """A model made by the per-term primitives both classes share, so
    it holds repeated labels and both orientations of an edge."""
    model = cls()
    for v, bias in linear:
        model.add_variable(v, bias)
    for (u, v), coupling in quadratic:
        if u != v:
            model.add_interaction(u, v, coupling)
    return model


@settings(max_examples=300, deadline=None)
@given(
    h=st.dictionaries(labels, VALUES | st.sampled_from([math.nan, math.inf])),
    j=st.dictionaries(pairs, VALUES | st.sampled_from([math.nan, -math.inf])),
    offset=VALUES,
)
# 1 and True are one label whose edges to 2 order differently by repr:
# the repr of one must never stand in for the other's.
@example(h={}, j={(1, "a"): 1.0, (True, 2): 0.5}, offset=0.0)
@example(h={}, j={("a", 1): 1.0, (2, True): 0.5}, offset=0.0)
def test_constructor_matches_reference(h, j, offset):
    assert _outcome(lambda: IsingModel(h, j, offset)) == _outcome(
        lambda: reference.ReferenceIsingModel(h, j, offset)
    )


@settings(max_examples=300, deadline=None)
@given(
    base=st.tuples(linear_terms, quadratic_terms),
    other=st.tuples(linear_terms, quadratic_terms),
    offsets=st.tuples(VALUES, VALUES),
)
def test_update_matches_reference(base, other, offsets):
    snapshots = []
    for cls in (IsingModel, reference.ReferenceIsingModel):
        model, addend = _built(cls, *base), _built(cls, *other)
        model.offset, addend.offset = offsets
        model.update(addend)
        snapshots.append(_snapshot(model))
    assert snapshots[0] == snapshots[1]


@settings(max_examples=300, deadline=None)
@given(
    terms=st.tuples(linear_terms, quadratic_terms),
    mapping=st.dictionaries(labels, labels),
    offset=VALUES,
)
def test_relabel_matches_reference(terms, mapping, offset):
    """Includes mappings that merge labels, so some couplings collapse
    onto one variable and join the offset."""
    snapshots = []
    for cls in (IsingModel, reference.ReferenceIsingModel):
        model = _built(cls, *terms)
        model.offset = offset
        snapshots.append(_snapshot(model.relabel(mapping)))
    assert snapshots[0] == snapshots[1]


# ----------------------------------------------------------------------
# Whole QMASM programs
# ----------------------------------------------------------------------
#: Valid QMASM names; ``ab$`` sorts before ``ab`` by repr, as ``ab!``
#: does above.
NAMES = ["a", "ab", "ab$", "b", "c", "$t", "x.y"]
NUMBERS = ["0", "-0.0", "0.0", "1", "-1", "0.5", "-0.25", "1e16", "-1e16", "0.1"]
ASSERTS = ["a = b", "a & ~c", "ab + ab$ = 1", "(a | b) ^ c", "b"]


@st.composite
def _statement(draw, names):
    kind = draw(st.sampled_from(["weight", "coupler", "coupler", "chain", "pin", "assert"]))
    a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    if kind == "weight":
        return f"{a} {draw(st.sampled_from(NUMBERS))}"
    if kind == "coupler":
        return f"{a} {b} {draw(st.sampled_from(NUMBERS))}"
    if kind == "chain":
        return f"{a} {draw(st.sampled_from(['=', '/=']))} {b}"
    if kind == "pin":
        return f"{a} := {draw(st.sampled_from(['true', 'false']))}"
    return f"!assert {draw(st.sampled_from(ASSERTS))}"


@st.composite
def qmasm_programs(draw):
    """A macro, top-level statements, instances, and maybe aliases."""
    lines = ["!begin_macro m"]
    lines += draw(st.lists(_statement(NAMES), max_size=6))
    lines.append("!end_macro m")
    names = NAMES + ["i.a", "i.ab", "i.ab$", "j.b", "j.c"]
    lines += draw(st.lists(_statement(names), max_size=14))
    lines.append("!use_macro m i j")
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            new = draw(st.sampled_from(["p", "q", "ab$", "c"]))
            lines.append(f"!alias {new} {draw(st.sampled_from(names))}")
        lines += draw(st.lists(_statement(names + ["p", "q"]), max_size=6))
    return "\n".join(lines)


def _program_outcome(assembler, source):
    try:
        program = assembler(parse_qmasm(source))
    except Exception as exc:  # the same error, type and message
        return ("error", type(exc).__name__, str(exc))
    lowered, representative = program.lowering
    return (
        "ok",
        _snapshot(program.model),
        program.chains,
        list(program.pins.items()),
        program.assertions,
        list(program.variables),
        _snapshot(lowered),
        list(representative.items()),
        _snapshot(program.pinned_ising()[0]),
    )


@settings(max_examples=400, deadline=None)
@given(source=qmasm_programs())
def test_assemble_matches_reference(source):
    assert _program_outcome(assemble, source) == _program_outcome(
        reference.reference_assemble, source
    )

