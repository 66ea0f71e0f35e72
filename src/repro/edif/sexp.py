"""S-expression reading and writing.

EDIF is one large s-expression (the paper cites Rivest's s-expression
note).  We need symbols, integers, and double-quoted strings; lists are
Python lists.

Each step makes one pass: the tokenizer is one regular expression, the
parser walks the tokens once with an explicit stack (so nesting depth is
bounded by memory, not by Python's recursion limit), and the formatter
builds every list's one-line text once, bottom-up, before laying the
tree out top-down.  Tokens, trees, texts and error messages must match
the reference in ``tests/sexp_reference.py`` exactly: the EDIF bytes,
and with them every compile-cache key, rest on them.
"""

from __future__ import annotations

import re
from typing import Dict, List, Union


class SExpError(Exception):
    """Malformed s-expression input."""


class Symbol(str):
    """A bare identifier, distinct from a quoted string."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"Symbol({str.__repr__(self)})"


SExp = Union[Symbol, str, int, List["SExp"]]

# Whitespace (exactly " \t\r\n"), then a parenthesis, a string (a
# backslash escapes the next character, a newline included) or a bare
# atom.  The last branch matches only where a string never closes: it
# takes the rest of the text, so an unterminated string is always the
# last token.  Every non-blank character starts a token, so on text with
# no trailing whitespace no match attempt fails and ``findall`` is linear.
_STRING = r'"(?:[^"\\]|\\.)*"'
_TOKEN_RE = re.compile(
    r'[ \t\r\n]*([()]|' + _STRING + r'|[^ \t\r\n()"]+|".*)', re.DOTALL
)
_STRING_RE = re.compile(_STRING, re.DOTALL)


def parse_sexp(text: str) -> SExp:
    """Parse a single s-expression from ``text``."""
    tokens = _tokenize(text)
    if not tokens:
        raise SExpError("empty input")
    atoms: Dict[str, SExp] = {}  # one Symbol per distinct token
    first = tokens[0]
    if first == ")":
        raise SExpError("unexpected ')'")
    if first != "(":
        expr: SExp = _atom(first)
        end = 1
    else:
        expr = items = []
        stack: List[list] = []
        end = 0
        for index, token in enumerate(tokens[1:], 1):
            if token == "(":
                child: list = []
                items.append(child)
                stack.append(items)
                items = child
            elif token == ")":
                if not stack:
                    end = index + 1
                    break
                items = stack.pop()
            else:
                atom = atoms.get(token)
                if atom is None:
                    atom = atoms[token] = _atom(token)
                items.append(atom)
        if not end:
            raise SExpError("unbalanced parentheses")
    if end != len(tokens):
        raise SExpError(f"trailing tokens after expression: {tokens[end:][:5]}")
    return expr


def _tokenize(text: str) -> List[str]:
    tokens = _TOKEN_RE.findall(text.rstrip(" \t\r\n"))
    if tokens and tokens[-1][0] == '"' and not _STRING_RE.fullmatch(tokens[-1]):
        raise SExpError("unterminated string")
    return tokens


def _atom(token: str) -> SExp:
    if token[0] == '"':
        return token[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    if token[0].isalpha():  # int() accepts no token that starts with a letter
        return Symbol(token)
    try:
        return int(token)
    except ValueError:
        return Symbol(token)


def format_sexp(expr: SExp, indent: int = 0, width: int = 100) -> str:
    """Pretty-print an s-expression with line breaks for long lists.

    A list whose one-line text fits in ``width`` columns after ``indent``
    prints on one line.  A longer one prints its head on the opening
    line, each further item on a line of its own two columns deeper, and
    its closing parenthesis on a line of its own.
    """
    if not isinstance(expr, list):
        return _atom_text(expr)
    flat = _flat_texts(expr)
    text = flat[id(expr)]
    if len(text) + indent <= width:
        return text
    out = [_open(expr, flat)]
    # One frame per list being broken over lines: its remaining items,
    # their indent, and the text before each of them.
    stack = [(iter(expr[1:]), indent + 2, "\n" + " " * (indent + 2))]
    while stack:
        items, depth, pad = stack[-1]
        for item in items:
            if type(item) is Symbol:
                out.append(pad + item)
            elif not isinstance(item, list):
                out.append(pad + _atom_text(item))
            elif len(flat[id(item)]) + depth <= width:
                out.append(pad + flat[id(item)])
            else:
                out.append(pad + _open(item, flat))
                stack.append((iter(item[1:]), depth + 2, pad + "  "))
                break
        else:
            stack.pop()
            out.append(pad[:-2] + ")")
    return "".join(out)


def _open(expr: list, flat: Dict[int, str]) -> str:
    """The opening line of a broken list: ``(`` and its head's text."""
    if not expr:
        return "("
    head = expr[0]
    return "(" + (flat[id(head)] if isinstance(head, list) else _atom_text(head))


def _flat_texts(root: list) -> Dict[int, str]:
    """The one-line text of every list under ``root``, keyed by ``id``.

    A depth-first walk with an explicit stack joins each list's text
    once, from its items' texts, when its last item is done.
    """
    flat: Dict[int, str] = {}
    stack = [(root, iter(root), [])]
    while stack:
        node, items, parts = stack[-1]
        for item in items:
            if type(item) is Symbol:
                parts.append(item)
            elif isinstance(item, list):
                stack.append((item, iter(item), []))
                break
            else:
                parts.append(_atom_text(item))
        else:
            stack.pop()
            text = flat[id(node)] = "(" + " ".join(parts) + ")"
            if stack:
                stack[-1][2].append(text)
    return flat


def _atom_text(expr: SExp) -> str:
    if isinstance(expr, Symbol):
        return str(expr)
    if isinstance(expr, str):
        escaped = expr.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return str(expr)
