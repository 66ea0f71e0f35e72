"""QMASM program representation: statements, macros, assert expressions."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np


class QmasmError(Exception):
    """Parse or assembly failure in QMASM source."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


@dataclass
class Statement:
    line: int = 0


@dataclass
class Weight(Statement):
    """``A -1`` -- a linear coefficient h_A."""

    variable: str = ""
    value: float = 0.0


@dataclass
class Coupler(Statement):
    """``A B 10`` -- a quadratic coefficient J_{A,B}."""

    variable_a: str = ""
    variable_b: str = ""
    value: float = 0.0


@dataclass
class Chain(Statement):
    """``A = B`` (same value) or ``A /= B`` (opposite value)."""

    variable_a: str = ""
    variable_b: str = ""
    same: bool = True


@dataclass
class Pin(Statement):
    """``A := true`` or ``C[7:0] := 10001111`` -- argument passing."""

    assignments: Dict[str, bool] = field(default_factory=dict)


@dataclass
class Alias(Statement):
    """``!alias NEW OLD`` -- NEW becomes another name for OLD."""

    new: str = ""
    old: str = ""


@dataclass
class Assertion(Statement):
    """``!assert expr`` -- checked on every returned sample."""

    expression: "AssertExpr" = None
    source: str = ""


@dataclass
class MacroDef(Statement):
    """``!begin_macro NAME`` ... ``!end_macro NAME``."""

    name: str = ""
    body: List[Statement] = field(default_factory=list)


@dataclass
class UseMacro(Statement):
    """``!use_macro NAME inst1 inst2 ...``."""

    macro: str = ""
    instances: List[str] = field(default_factory=list)


@dataclass
class Include(Statement):
    """``!include <file>``; resolved against a registry or directory."""

    target: str = ""


@dataclass
class Program:
    """A parsed QMASM compilation unit."""

    statements: List[Statement] = field(default_factory=list)
    macros: Dict[str, MacroDef] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Assertion expressions ("!assert Y = A|B")
# ----------------------------------------------------------------------
#
# An assertion is evaluated on columns, every read at once.  A variable
# stands for a column of 0/1 values, one per read, held as Python ints
# in a numpy object array, so the arithmetic keeps Python's unbounded
# integers (a constant may have any number of digits).  A comparison or
# ``~`` gives 0 or 1, like ``int(a == b)``.


def _flag(truth):
    """A truth column (or a single truth) as 0/1."""
    return truth.astype(object) if isinstance(truth, np.ndarray) else int(truth)


_BINARY_OPERATIONS = {
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "=": lambda a, b: _flag(a == b),
    "/=": lambda a, b: _flag(a != b),
    "<": lambda a, b: _flag(a < b),
    ">": lambda a, b: _flag(a > b),
    "<=": lambda a, b: _flag(a <= b),
    ">=": lambda a, b: _flag(a >= b),
}


class AssertExpr:
    """Base class for assertion expression nodes."""

    def evaluate(self, values: Mapping[str, np.ndarray]):
        """The expression's value on every read.

        ``values`` maps each variable to its column of 0/1 Python ints;
        the result is such a column, or one int when the expression
        names no variable.  Raises :class:`QmasmError` on a variable
        missing from ``values`` or an unknown operator.
        """
        raise NotImplementedError

    def variables(self) -> List[str]:
        raise NotImplementedError


@dataclass
class AssertVar(AssertExpr):
    name: str

    def evaluate(self, values: Mapping[str, np.ndarray]):
        if self.name not in values:
            raise QmasmError(f"assertion references unknown variable {self.name!r}")
        return values[self.name]

    def variables(self) -> List[str]:
        return [self.name]

    def rename(self, mapping: Mapping[str, str]) -> "AssertVar":
        return AssertVar(mapping.get(self.name, self.name))


@dataclass
class AssertConst(AssertExpr):
    value: int

    def evaluate(self, values: Mapping[str, np.ndarray]):
        return self.value

    def variables(self) -> List[str]:
        return []


@dataclass
class AssertUnary(AssertExpr):
    op: str
    operand: AssertExpr

    def evaluate(self, values: Mapping[str, np.ndarray]):
        value = self.operand.evaluate(values)
        if self.op == "~":
            return _flag(value == 0)
        if self.op == "-":
            return -value
        raise QmasmError(f"unknown unary operator {self.op!r}")

    def variables(self) -> List[str]:
        return self.operand.variables()


@dataclass
class AssertBinary(AssertExpr):
    op: str
    left: AssertExpr
    right: AssertExpr

    def evaluate(self, values: Mapping[str, np.ndarray]):
        a = self.left.evaluate(values)
        b = self.right.evaluate(values)
        operation = _BINARY_OPERATIONS.get(self.op)
        if operation is None:
            raise QmasmError(f"unknown operator {self.op!r} in assertion")
        return operation(a, b)

    def variables(self) -> List[str]:
        return self.left.variables() + self.right.variables()


def rename_assert(expr: AssertExpr, mapping: Mapping[str, str]) -> AssertExpr:
    """Rewrite variable names in an assertion (macro instantiation)."""
    if isinstance(expr, AssertVar):
        return AssertVar(mapping.get(expr.name, expr.name))
    if isinstance(expr, AssertConst):
        return expr
    if isinstance(expr, AssertUnary):
        return AssertUnary(expr.op, rename_assert(expr.operand, mapping))
    if isinstance(expr, AssertBinary):
        return AssertBinary(
            expr.op,
            rename_assert(expr.left, mapping),
            rename_assert(expr.right, mapping),
        )
    raise QmasmError(f"unknown assertion node {expr!r}")


def prefix_assert(expr: AssertExpr, prefix: str) -> AssertExpr:
    """Prefix every variable in an assertion with an instance name."""
    if isinstance(expr, AssertVar):
        return AssertVar(prefix + expr.name)
    if isinstance(expr, AssertConst):
        return expr
    if isinstance(expr, AssertUnary):
        return AssertUnary(expr.op, prefix_assert(expr.operand, prefix))
    if isinstance(expr, AssertBinary):
        return AssertBinary(
            expr.op,
            prefix_assert(expr.left, prefix),
            prefix_assert(expr.right, prefix),
        )
    raise QmasmError(f"unknown assertion node {expr!r}")
