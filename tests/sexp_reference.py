"""Reference s-expression layer: the recursive implementation, kept verbatim.

These are ``parse_sexp``, ``_tokenize``, ``_parse``, ``_atom``,
``format_sexp`` and ``_format_flat`` as they stood before the layer
moved to one pass per step: the tokenizer walked the text one character
at a time, the parser recursed once per list, ``_atom`` tried ``int()``
on every bare token, and the formatter rebuilt every subtree's one-line
text at every depth.  ``tests/test_sexp_differential.py`` holds
:mod:`repro.edif.sexp` to the exact tokens, trees, texts and error
messages this code produces.  Only the imports below are new.
"""

from __future__ import annotations

from typing import List

from repro.edif.sexp import SExp, SExpError, Symbol



def parse_sexp(text: str) -> SExp:
    """Parse a single s-expression from ``text``."""
    tokens = _tokenize(text)
    if not tokens:
        raise SExpError("empty input")
    expr, index = _parse(tokens, 0)
    if index != len(tokens):
        raise SExpError(f"trailing tokens after expression: {tokens[index:][:5]}")
    return expr


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            j = i + 1
            while j < length and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                j += 1
            if j >= length:
                raise SExpError("unterminated string")
            tokens.append(text[i:j + 1])
            i = j + 1
        else:
            j = i
            while j < length and text[j] not in ' \t\r\n()"':
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _parse(tokens: List[str], index: int):
    token = tokens[index]
    if token == "(":
        items: List[SExp] = []
        index += 1
        while index < len(tokens) and tokens[index] != ")":
            item, index = _parse(tokens, index)
            items.append(item)
        if index >= len(tokens):
            raise SExpError("unbalanced parentheses")
        return items, index + 1
    if token == ")":
        raise SExpError("unexpected ')'")
    return _atom(token), index + 1


def _atom(token: str) -> SExp:
    if token.startswith('"'):
        return token[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    try:
        return int(token)
    except ValueError:
        return Symbol(token)


def format_sexp(expr: SExp, indent: int = 0, width: int = 100) -> str:
    """Pretty-print an s-expression with line breaks for long lists."""
    flat = _format_flat(expr)
    if len(flat) + indent <= width or not isinstance(expr, list):
        return flat
    head = _format_flat(expr[0]) if expr else ""
    lines = ["(" + head]
    pad = " " * (indent + 2)
    for item in expr[1:]:
        lines.append(pad + format_sexp(item, indent + 2, width))
    return "\n".join(lines) + "\n" + " " * indent + ")"


def _format_flat(expr: SExp) -> str:
    if isinstance(expr, list):
        return "(" + " ".join(_format_flat(e) for e in expr) + ")"
    if isinstance(expr, Symbol):
        return str(expr)
    if isinstance(expr, str):
        escaped = expr.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return str(expr)
