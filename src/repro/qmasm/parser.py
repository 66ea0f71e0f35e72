"""QMASM source parser.

QMASM is line-oriented: comments start with ``#``; each line is a
weight, coupler, chain, pin, or ``!``-directive.  ``!include`` targets
are resolved through a pluggable resolver so the standard-cell library
can live in memory (see :mod:`repro.qmasm.stdcell`) or on disk.
"""

from __future__ import annotations

import math
import os
import re
from typing import Callable, Dict, List, Optional

from repro.qmasm.program import (
    Alias,
    AssertBinary,
    AssertConst,
    AssertExpr,
    AssertUnary,
    AssertVar,
    Assertion,
    Chain,
    Coupler,
    Include,
    MacroDef,
    Pin,
    Program,
    QmasmError,
    UseMacro,
    Weight,
)

#: A QMASM variable: letters/digits/_/$/. plus an optional [index].
_VAR_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$.@]*(?:\[\d+\])?")
_PIN_LHS_RE = re.compile(
    r"^([A-Za-z_$][A-Za-z0-9_$.@]*)(?:\[(\d+)(?::(\d+))?\])?$"
)

IncludeResolver = Callable[[str], str]


def default_include_resolver(target: str) -> str:
    """Resolve ``!include`` against the built-in registry, then disk."""
    from repro.qmasm.stdcell import STDCELL_NAME, stdcell_source

    if target in (STDCELL_NAME, f"{STDCELL_NAME}.qmasm"):
        return stdcell_source()
    for candidate in (target, f"{target}.qmasm"):
        if os.path.exists(candidate):
            with open(candidate, "r", encoding="utf-8") as handle:
                return handle.read()
    raise QmasmError(f"cannot resolve !include target {target!r}")


def parse_qmasm(
    source: str,
    include_resolver: Optional[IncludeResolver] = None,
    _depth: int = 0,
) -> Program:
    """Parse QMASM source into a :class:`Program` (includes expanded)."""
    if _depth > 16:
        raise QmasmError("include nesting too deep (cycle?)")
    resolver = include_resolver or default_include_resolver
    result = Program()
    macro_stack: List[MacroDef] = []

    def emit(statement) -> None:
        if macro_stack:
            macro_stack[-1].body.append(statement)
        else:
            result.statements.append(statement)

    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("!"):
            _parse_directive(
                line, line_number, emit, macro_stack, result, resolver, _depth
            )
            continue
        emit(_parse_plain(line, line_number))

    if macro_stack:
        raise QmasmError(f"unterminated macro {macro_stack[-1].name!r}")
    return result


def _parse_directive(
    line: str,
    line_number: int,
    emit,
    macro_stack: List[MacroDef],
    result: Program,
    resolver: IncludeResolver,
    depth: int,
) -> None:
    tokens = line.split()
    directive = tokens[0]

    if directive == "!begin_macro":
        if len(tokens) != 2:
            raise QmasmError("!begin_macro needs a name", line_number)
        macro_stack.append(MacroDef(line=line_number, name=tokens[1]))
    elif directive == "!end_macro":
        if not macro_stack:
            raise QmasmError("!end_macro without !begin_macro", line_number)
        macro = macro_stack.pop()
        if len(tokens) > 1 and tokens[1] != macro.name:
            raise QmasmError(
                f"!end_macro {tokens[1]} does not match {macro.name!r}", line_number
            )
        if macro.name in result.macros:
            raise QmasmError(f"duplicate macro {macro.name!r}", line_number)
        result.macros[macro.name] = macro
    elif directive == "!use_macro":
        if len(tokens) < 3:
            raise QmasmError(
                "!use_macro needs a macro name and at least one instance",
                line_number,
            )
        emit(UseMacro(line=line_number, macro=tokens[1], instances=tokens[2:]))
    elif directive == "!include":
        if len(tokens) < 2:
            raise QmasmError("!include needs a target", line_number)
        target = " ".join(tokens[1:]).strip("\"'<>")
        included = parse_qmasm(resolver(target), resolver, depth + 1)
        # Included macros become available; included statements inline.
        for name, macro in included.macros.items():
            if name in result.macros:
                raise QmasmError(
                    f"macro {name!r} redefined by include {target!r}", line_number
                )
            result.macros[name] = macro
        for statement in included.statements:
            emit(statement)
        emit(Include(line=line_number, target=target))
    elif directive == "!alias":
        if len(tokens) != 3:
            raise QmasmError("!alias needs two names", line_number)
        emit(Alias(line=line_number, new=tokens[1], old=tokens[2]))
    elif directive == "!assert":
        expression_text = line[len("!assert"):].strip()
        expression = _parse_assert(expression_text, line_number)
        emit(Assertion(line=line_number, expression=expression, source=expression_text))
    else:
        raise QmasmError(f"unknown directive {directive!r}", line_number)


def _parse_plain(line: str, line_number: int):
    if ":=" in line:
        return _parse_pin_line(line, line_number)
    tokens = line.split()
    if len(tokens) == 3 and tokens[1] in ("=", "/="):
        _check_var(tokens[0], line_number)
        _check_var(tokens[2], line_number)
        return Chain(
            line=line_number,
            variable_a=tokens[0],
            variable_b=tokens[2],
            same=tokens[1] == "=",
        )
    if len(tokens) == 2:
        _check_var(tokens[0], line_number)
        return Weight(
            line=line_number, variable=tokens[0], value=_number(tokens[1], line_number)
        )
    if len(tokens) == 3:
        _check_var(tokens[0], line_number)
        _check_var(tokens[1], line_number)
        return Coupler(
            line=line_number,
            variable_a=tokens[0],
            variable_b=tokens[1],
            value=_number(tokens[2], line_number),
        )
    raise QmasmError(f"cannot parse statement {line!r}", line_number)


def _check_var(token: str, line_number: int) -> None:
    if not _VAR_RE.fullmatch(token):
        raise QmasmError(f"invalid variable name {token!r}", line_number)


def _number(token: str, line_number: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise QmasmError(f"invalid number {token!r}", line_number) from None
    if not math.isfinite(value):  # float() reads "nan", "inf", "-Infinity"
        raise QmasmError(f"non-finite number {token!r}", line_number)
    return value


# ----------------------------------------------------------------------
# Pins
# ----------------------------------------------------------------------
_TRUE_WORDS = {"true", "t", "1", "+1"}
_FALSE_WORDS = {"false", "f", "0", "-1"}


def _parse_pin_line(line: str, line_number: int) -> Pin:
    lhs_text, rhs_text = (part.strip() for part in line.split(":=", 1))
    return Pin(line=line_number, assignments=_pin_assignments(lhs_text, rhs_text, line_number))


def parse_pin(text: str) -> Pin:
    """Parse a ``--pin`` option value such as ``"C[7:0] := 10001111"``."""
    if ":=" not in text:
        raise QmasmError(f"pin {text!r} needs ':='")
    lhs, rhs = (part.strip() for part in text.split(":=", 1))
    return Pin(assignments=_pin_assignments(lhs, rhs, None))


def _pin_assignments(lhs: str, rhs: str, line_number) -> Dict[str, bool]:
    match = _PIN_LHS_RE.match(lhs)
    if not match:
        raise QmasmError(f"invalid pin target {lhs!r}", line_number)
    base, first, second = match.groups()

    if first is None:
        # Scalar pin: NAME := true/false/0/1
        word = rhs.lower()
        if word in _TRUE_WORDS:
            return {base: True}
        if word in _FALSE_WORDS:
            return {base: False}
        raise QmasmError(f"invalid scalar pin value {rhs!r}", line_number)

    if second is None:
        # Single bit: NAME[i] := 0/1/true/false
        word = rhs.lower()
        if word in _TRUE_WORDS:
            return {f"{base}[{first}]": True}
        if word in _FALSE_WORDS:
            return {f"{base}[{first}]": False}
        raise QmasmError(f"invalid bit pin value {rhs!r}", line_number)

    msb, lsb = int(first), int(second)
    indices = (
        list(range(msb, lsb - 1, -1)) if msb >= lsb else list(range(msb, lsb + 1))
    )
    width = len(indices)
    bits = rhs.strip()
    if re.fullmatch(r"[01]+", bits) and len(bits) == width:
        values = [bit == "1" for bit in bits]  # MSB first, like the paper
    else:
        try:
            integer = int(bits, 0)
        except ValueError:
            raise QmasmError(f"invalid pin value {rhs!r}", line_number) from None
        if integer < 0 or integer >= (1 << width):
            raise QmasmError(
                f"pin value {integer} does not fit {width} bits", line_number
            )
        values = [bool((integer >> (width - 1 - i)) & 1) for i in range(width)]
    return {
        f"{base}[{index}]": value for index, value in zip(indices, values)
    }


# ----------------------------------------------------------------------
# Assertion expressions
# ----------------------------------------------------------------------
_ASSERT_TOKEN_RE = re.compile(
    r"\s*(/=|<=|>=|[()&|^~+\-*=<>]|\d+|[A-Za-z_$][A-Za-z0-9_$.@]*(?:\[\d+\])?)"
)

_PRECEDENCE = {
    "=": 1, "/=": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
    "|": 2,
    "^": 3,
    "&": 4,
    "+": 5, "-": 5,
    "*": 6,
}


def _parse_assert(text: str, line_number: int) -> AssertExpr:
    tokens: List[str] = []
    position = 0
    while position < len(text):
        match = _ASSERT_TOKEN_RE.match(text, position)
        if not match:
            raise QmasmError(
                f"cannot tokenize assertion at {text[position:]!r}", line_number
            )
        tokens.append(match.group(1))
        position = match.end()

    def parse_expression(index: int, min_precedence: int):
        index, left = parse_unary(index)
        while index < len(tokens):
            op = tokens[index]
            precedence = _PRECEDENCE.get(op, 0)
            if precedence < min_precedence or precedence == 0:
                break
            index, right = parse_expression(index + 1, precedence + 1)
            left = AssertBinary(op, left, right)
        return index, left

    def parse_unary(index: int):
        if index >= len(tokens):
            raise QmasmError("assertion ends unexpectedly", line_number)
        token = tokens[index]
        if token in ("~", "-"):
            index, operand = parse_unary(index + 1)
            return index, AssertUnary(token, operand)
        if token == "(":
            index, inner = parse_expression(index + 1, 1)
            if index >= len(tokens) or tokens[index] != ")":
                raise QmasmError("missing ')' in assertion", line_number)
            return index + 1, inner
        if token.isdigit():
            return index + 1, AssertConst(int(token))
        if _VAR_RE.fullmatch(token):
            return index + 1, AssertVar(token)
        raise QmasmError(f"unexpected token {token!r} in assertion", line_number)

    index, expression = parse_expression(0, 1)
    if index != len(tokens):
        raise QmasmError(
            f"trailing tokens in assertion: {tokens[index:]!r}", line_number
        )
    return expression
