"""Differential test: the one-pass s-expression layer against its reference.

:mod:`repro.edif.sexp` must give the recursive implementation kept in
``tests/sexp_reference.py`` the same token list, the same tree (compared
type by type: ``Symbol``, ``str``, ``int`` or list), the same
``format_sexp`` text at any indent and width, and the same ``SExpError``
message on malformed input.  The EDIF text and its parsed netlist, and
so every compile-cache key and sample digest, rest on this.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edif import sexp
from repro.edif.sexp import SExpError, Symbol
from tests import sexp_reference as reference

#: Bare tokens on both sides of the ``int()`` boundary: signs, a lone
#: sign, underscores, a non-ASCII digit, whitespace ``int()`` strips but
#: the tokenizer keeps (vertical tab, form feed, no-break space).
ATOMS = [
    "-", "+", "+5", "-0", "0", "007", "1_000", "1__0", "_1", "1_", "٣", "٣4",
    "0x10", "1e3", "--1", "x", "foo_1", "a.b", "é", "Ⅷ", "\\", "$", "a\\",
    "\x0b7", "7\x0c", "\xa05", "LIB", "net_12",
]

#: Characters that steer the tokenizer, plus a few of every other kind.
ALPHABET = ' \t\r\n()"\\' + "ax_-+05٣\x0b\xa0é"


def _typed(expr):
    """``expr`` as a flat list of (type, value) pairs, without recursion."""
    out, todo = [], [expr]
    while todo:
        item = todo.pop()
        if isinstance(item, list):
            out.append((list, len(item)))
            todo.extend(reversed(item))
        else:
            out.append((type(item), item))
    return out


def _outcome(fn, *args):
    """What ``fn`` returns, or the type and message of what it raises."""
    try:
        return ("ok", fn(*args))
    except SExpError as exc:
        return ("error", str(exc))


def _parsed(fn, text):
    kind, value = _outcome(fn, text)
    return (kind, _typed(value) if kind == "ok" else value)


def _quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


@st.composite
def sexprs(draw, depth=4):
    """Trees of every atom kind, with empty lists and list heads."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return draw(st.integers(-10**6, 10**6))
        if kind == 1:
            name = st.sampled_from(ATOMS) | st.text("abcxyz_1", min_size=1, max_size=8)
            return Symbol(draw(name))
        if kind == 2:
            return draw(st.text(alphabet='ab \\"\n()٣', max_size=8))
        return []
    return [draw(sexprs(depth=depth - 1)) for _ in range(draw(st.integers(0, 5)))]


@st.composite
def documents(draw):
    """S-expression text with varied spacing, escapes and odd atoms."""
    pieces = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            pieces.append("(")
        elif kind == 1:
            pieces.append(")")
        elif kind == 2:
            pieces.append(draw(st.sampled_from(ATOMS)))
        elif kind == 3:
            pieces.append(_quoted(draw(st.text(alphabet='ab \\"\n', max_size=6))))
        elif kind == 4:
            pieces.append(draw(st.text(alphabet=ALPHABET, min_size=1, max_size=4)))
        else:
            pieces.append(str(draw(st.integers(-999, 999))))
        pieces.append(draw(st.sampled_from([" ", "", "\n", "\t", "\r\n", "  "])))
    return "".join(pieces)


# ----------------------------------------------------------------------
# Tokens
# ----------------------------------------------------------------------
@given(st.text(alphabet=ALPHABET, max_size=40) | documents())
@settings(max_examples=200, deadline=None)
def test_tokens_match_reference(text):
    assert _outcome(sexp._tokenize, text) == _outcome(reference._tokenize, text)


@pytest.mark.parametrize(
    "text",
    [
        '"', '(a "', 'a "b', '"a\\"', '"a\\', '"\\\\"', '"a\\\\\\""', '""', '"\n"x',
        '"a\\\nb"', '("\\\n" x)', '"\\\r\\\t"',
    ],
)
def test_string_edge_tokens_match_reference(text):
    assert _outcome(sexp._tokenize, text) == _outcome(reference._tokenize, text)


# ----------------------------------------------------------------------
# Trees
# ----------------------------------------------------------------------
@given(st.text(alphabet=ALPHABET, max_size=40) | documents())
@settings(max_examples=200, deadline=None)
def test_trees_match_reference(text):
    assert _parsed(sexp.parse_sexp, text) == _parsed(reference.parse_sexp, text)


@given(sexprs())
@settings(max_examples=200, deadline=None)
def test_formatted_trees_parse_like_reference(expr):
    text = reference.format_sexp(expr)
    assert _parsed(sexp.parse_sexp, text) == _parsed(reference.parse_sexp, text)


@pytest.mark.parametrize("atom", ATOMS)
def test_atoms_parse_like_reference(atom):
    for text in (atom, f"({atom})", f"(a {atom} {atom})"):
        assert _parsed(sexp.parse_sexp, text) == _parsed(reference.parse_sexp, text)


def test_quoted_escapes_parse_like_reference():
    for raw in ['a\\b', 'say "hi"', '\\"', '\\\\"', '"', "\\", ""]:
        text = f"(x {_quoted(raw)})"
        assert _parsed(sexp.parse_sexp, text) == _parsed(reference.parse_sexp, text)
        assert sexp.parse_sexp(text)[1] == raw


def test_one_symbol_per_distinct_token():
    first, second, other = sexp.parse_sexp("(net net (net))")
    assert first is second and other[0] is first


# ----------------------------------------------------------------------
# Formatting
# ----------------------------------------------------------------------
@given(sexprs(), st.integers(0, 12), st.sampled_from([0, 1, 2, 8, 20, 40, 100]))
@settings(max_examples=200, deadline=None)
def test_format_matches_reference(expr, indent, width):
    assert sexp.format_sexp(expr, indent, width) == reference.format_sexp(
        expr, indent, width
    )


def test_format_matches_reference_on_list_heads_and_empty_lists():
    expr = [[Symbol("head"), [1, 2, 3] * 20], [], [[]], "a \"q\" \\", -7]
    for indent in (0, 3, 99, 150):
        for width in (0, 10, 100):
            assert sexp.format_sexp(expr, indent, width) == reference.format_sexp(
                expr, indent, width
            )


def test_shared_subtrees_format_like_reference():
    shared = [Symbol("portRef"), Symbol("Y"), [Symbol("instanceRef"), Symbol("g")]]
    expr = [Symbol("joined")] + [shared] * 5
    for width in (20, 100):
        assert sexp.format_sexp(expr, 0, width) == reference.format_sexp(expr, 0, width)


# ----------------------------------------------------------------------
# Malformed input
# ----------------------------------------------------------------------
MALFORMED = {
    "empty input": ["", " \t\r\n"],
    "unterminated string": ['"', '(a "b', '"abc\\"', "x \"\n"],
    "trailing backslash": ['"abc\\', '(a "\\'],
    "unbalanced (": ["(", "(a (b)", "((a)"],
    "stray )": [")", ") a", "))"],
    "trailing tokens": ["a b", "a )", "(a) b c d e f g", "(a))", '"x" ("y")'],
}


@pytest.mark.parametrize(
    "text", [text for texts in MALFORMED.values() for text in texts]
)
def test_malformed_input_raises_reference_message(text):
    outcome = _outcome(sexp.parse_sexp, text)
    assert outcome[0] == "error"
    assert outcome == _outcome(reference.parse_sexp, text)


# ----------------------------------------------------------------------
# Depth
# ----------------------------------------------------------------------
def test_deep_nesting_parses_where_reference_recursion_fails():
    depth = 1500
    text = "(" * depth + "leaf" + ")" * depth
    with pytest.raises(RecursionError):
        reference.parse_sexp(text)
    expr = sexp.parse_sexp(text)
    levels = 0
    while isinstance(expr, list):
        assert len(expr) == 1
        expr, levels = expr[0], levels + 1
    assert levels == depth and expr == Symbol("leaf")
    tree = sexp.parse_sexp(text)
    assert _typed(sexp.parse_sexp(sexp.format_sexp(tree))) == _typed(tree)
