"""QMASM assembly: macro expansion down to a logical Ising model.

``assemble`` flattens a parsed :class:`Program` -- expanding
``!use_macro`` instantiations with dotted instance prefixes
(``my_and.A``), applying ``!alias``, and collecting weights, couplers,
chains, pins, and assertions -- into a :class:`LogicalProgram`.

``LogicalProgram.to_ising`` then produces the logical quadratic
pseudo-Boolean function: explicit ``A = B`` chains are contracted into a
single variable (the qmasm optimization of Section 4.4), ``A /= B``
anti-chains become positive couplers, and pins become strong H_VCC /
H_GND biases (Section 4.3.6).  A program is lowered once, when it is
built; each run re-pins a copy of that lowering
(:meth:`LogicalProgram.pinned_ising`), forward or backward.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ising.model import IsingModel, spins_to_bits
from repro.qmasm.program import (
    Alias,
    AssertExpr,
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
    prefix_assert,
    rename_assert,
)


@dataclass
class _Flattened:
    weights: List[Tuple[str, float]] = field(default_factory=list)
    couplers: List[Tuple[str, str, float]] = field(default_factory=list)
    chains: List[Tuple[str, str, bool]] = field(default_factory=list)
    pins: Dict[str, bool] = field(default_factory=dict)
    assertions: List[Tuple[AssertExpr, str]] = field(default_factory=list)
    aliases: Dict[str, str] = field(default_factory=dict)


def _expand(
    statements,
    macros: Mapping[str, MacroDef],
    prefix: str,
    out: _Flattened,
    depth: int = 0,
) -> None:
    if depth > 32:
        raise QmasmError("macro expansion too deep (recursive macro?)")
    for statement in statements:
        if isinstance(statement, Weight):
            out.weights.append((prefix + statement.variable, statement.value))
        elif isinstance(statement, Coupler):
            out.couplers.append(
                (prefix + statement.variable_a, prefix + statement.variable_b,
                 statement.value)
            )
        elif isinstance(statement, Chain):
            out.chains.append(
                (prefix + statement.variable_a, prefix + statement.variable_b,
                 statement.same)
            )
        elif isinstance(statement, Pin):
            for variable, value in statement.assignments.items():
                out.pins[prefix + variable] = value
        elif isinstance(statement, Assertion):
            expression = (
                prefix_assert(statement.expression, prefix) if prefix
                else statement.expression
            )
            out.assertions.append((expression, statement.source))
        elif isinstance(statement, Alias):
            out.aliases[prefix + statement.new] = prefix + statement.old
        elif isinstance(statement, UseMacro):
            macro = macros.get(statement.macro)
            if macro is None:
                raise QmasmError(
                    f"!use_macro of undefined macro {statement.macro!r}",
                    statement.line,
                )
            for instance in statement.instances:
                _expand(
                    macro.body, macros, f"{prefix}{instance}.", out, depth + 1
                )
        elif isinstance(statement, Include):
            pass  # contents were inlined at parse time
        else:
            raise QmasmError(f"unexpected statement {statement!r}")


class _UnionFind:
    def __init__(self):
        self._parent: Dict[str, str] = {}

    def find(self, item: str) -> str:
        root = item
        while root in self._parent:
            root = self._parent[root]
        while item in self._parent:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, keep: str, merge: str) -> None:
        keep_root, merge_root = self.find(keep), self.find(merge)
        if keep_root != merge_root:
            self._parent[merge_root] = keep_root


def _preference(name: str) -> Tuple:
    """Chain-contraction representative choice: visible, shallow names win."""
    return ("$" in name, name.count("."), len(name), name)


@dataclass
class LogicalProgram:
    """An assembled QMASM program, pre-embedding.

    Attributes:
        model: the raw Ising model from weights and couplers (chains and
            pins not yet applied).
        chains: ``(a, b, same)`` equality/inequality biases.
        pins: variable -> Boolean argument bindings.
        assertions: ``(expression, source_text)`` debug checks.
        variables: every variable name mentioned anywhere.
        lowering: the unpinned lowering, ``to_ising(apply_pins=False)``,
            made once when the program is built and shared by every
            :meth:`with_pins` copy.  Nothing may mutate it: a run copies
            it (:meth:`pinned_ising`).
    """

    model: IsingModel
    chains: List[Tuple[str, str, bool]]
    pins: Dict[str, bool]
    assertions: List[Tuple[AssertExpr, str]]
    variables: Set[str]
    lowering: Optional[Tuple[IsingModel, Dict[str, str]]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.lowering is None:
            self.lowering = self.to_ising(apply_pins=False)

    def with_pins(self, pins: Mapping[str, bool]) -> "LogicalProgram":
        """A copy with extra pins added (the original is untouched, so
        one compiled program can be run many times with different
        arguments -- forward, backward, or partially pinned)."""
        merged = dict(self.pins)
        merged.update(pins)
        return dataclasses.replace(self, pins=merged)

    # -- derived properties -------------------------------------------------
    def visible_variables(self) -> List[str]:
        """Variables reported to the user ('$' marks internal ones)."""
        return sorted(v for v in self.variables if "$" not in v)

    def default_chain_strength(self) -> float:
        """QMASM's default: twice the largest-in-magnitude literal J."""
        return 2.0 * max(
            (abs(c) for c in self.model.quadratic.values()), default=1.0
        )

    # -- lowering ------------------------------------------------------------
    def to_ising(
        self,
        contract_chains: bool = True,
        chain_strength: Optional[float] = None,
        pin_strength: Optional[float] = None,
        apply_pins: bool = True,
    ) -> Tuple[IsingModel, Dict[str, str]]:
        """Lower to a logical Ising model.

        Args:
            contract_chains: merge ``A = B`` chains into one variable
                (the paper's explicit-chain optimization); if False they
                become ferromagnetic couplers instead.
            chain_strength: coupling magnitude for non-contracted chains
                and anti-chains; defaults to twice the largest literal J.
            pin_strength: bias magnitude for pins; defaults to the chain
                strength.
            apply_pins: include pin biases (disable to get the bare
                program relation).

        Returns:
            ``(model, representative_map)`` where ``representative_map``
            maps every original variable to the variable that now stands
            for it in the model.
        """
        if chain_strength is None:
            chain_strength = self.default_chain_strength()

        union = _UnionFind()
        if contract_chains:
            for a, b, same in self.chains:
                if same:
                    union.union(a, b)
        # Choose preferred representatives deterministically.
        groups: Dict[str, List[str]] = {}
        for variable in self.variables:
            groups.setdefault(union.find(variable), []).append(variable)
        representative: Dict[str, str] = {}
        for members in groups.values():
            best = min(members, key=_preference)
            for member in members:
                representative[member] = best

        model = self.model.relabel(representative)
        model._add_terms([(representative[v], 0.0) for v in self.variables])

        for a, b, same in self.chains:
            rep_a, rep_b = representative[a], representative[b]
            if same:
                if rep_a != rep_b:  # contract_chains False
                    model.add_interaction(rep_a, rep_b, -abs(chain_strength))
            else:
                if rep_a == rep_b:
                    raise QmasmError(
                        f"variables {a!r} and {b!r} are chained both equal "
                        "and opposite"
                    )
                model.add_interaction(rep_a, rep_b, abs(chain_strength))

        if apply_pins:
            self._add_pins(
                model,
                representative,
                chain_strength if pin_strength is None else pin_strength,
            )
        return model, representative

    def pinned_ising(self) -> Tuple[IsingModel, Dict[str, str]]:
        """``to_ising()`` without lowering again.

        A copy of the stored :attr:`lowering` plus this program's pin
        biases, through the same pin step: term for term, and in the
        same order, the model :meth:`to_ising` returns.
        """
        bare, representative = self.lowering
        model = bare.copy()
        self._add_pins(model, representative, self.default_chain_strength())
        return model, dict(representative)

    def _add_pins(
        self, model: IsingModel, representative: Mapping[str, str], pin_strength: float
    ) -> None:
        """Bias each pinned variable toward its value, in pin order."""
        for variable, value in self.pins.items():
            rep = representative.get(variable)
            if rep is None:
                raise QmasmError(f"pin of unknown variable {variable!r}")
            bias = -abs(pin_strength) if value else abs(pin_strength)
            model.add_variable(rep, bias)

    # -- sample handling ---------------------------------------------------
    def expand_sample(
        self, sample: Mapping[str, int], representative: Mapping[str, str]
    ) -> Dict[str, int]:
        """Spread representative spins back over all original variables."""
        return {
            variable: sample[rep]
            for variable, rep in representative.items()
            if rep in sample
        }

    def check_assertions(self, sample: Mapping[str, int]) -> List[str]:
        """Return the source text of every failed ``!assert`` (one read)."""
        bits = spins_to_bits(np.array([list(sample.values())]))
        column = {variable: j for j, variable in enumerate(sample)}
        return list(self.failed_assertions(bits, column)[0])

    def failed_assertions(
        self, bits: np.ndarray, column: Mapping[str, int]
    ) -> List[Tuple[str, ...]]:
        """Per read, the source text of every failed ``!assert``.

        ``bits`` is a ``(reads, variables)`` Boolean matrix whose
        columns ``column`` names.  Each assertion is evaluated once, on
        whole columns; one on a variable missing from ``column`` fails
        on every read.
        """
        names = {
            name for expression, _ in self.assertions
            for name in expression.variables() if name in column
        }
        ints = bits[:, [column[name] for name in names]].view(np.int8).astype(object)
        values = dict(zip(names, ints.T))
        failed = np.zeros((len(bits), len(self.assertions)), dtype=bool)
        for k, (expression, _source) in enumerate(self.assertions):
            try:
                value = expression.evaluate(values)
            except QmasmError:
                failed[:, k] = True  # references a variable that was optimized out
                continue
            holds = value.astype(bool) if isinstance(value, np.ndarray) else bool(value)
            failed[:, k] = np.logical_not(holds)
        return labels_per_row(failed, [source for _, source in self.assertions])

    def pins_respected(
        self, bits: np.ndarray, column: Mapping[str, int]
    ) -> np.ndarray:
        """Per read, whether every pinned variable in ``column`` holds
        its pinned value (``bits`` as in :meth:`failed_assertions`)."""
        present = [variable for variable in self.pins if variable in column]
        want = np.array([self.pins[v] for v in present], dtype=bool)
        return (bits[:, [column[v] for v in present]] == want).all(axis=1)


def labels_per_row(mask: np.ndarray, labels: Sequence[str]) -> List[Tuple[str, ...]]:
    """For each row of a Boolean matrix, the labels of its True columns."""
    out: List[List[str]] = [[] for _ in range(len(mask))]
    for row, k in zip(*(index.tolist() for index in np.nonzero(mask))):
        out[row].append(labels[k])
    return [tuple(row) for row in out]


def assemble(program: Program) -> LogicalProgram:
    """Flatten a parsed QMASM program into a :class:`LogicalProgram`."""
    flat = _Flattened()
    _expand(program.statements, program.macros, "", flat)

    # Apply aliases (new name -> existing variable); a program without
    # any keeps every name as written.
    def resolve_alias(name: str) -> str:
        seen = set()
        while name in flat.aliases:
            if name in seen:
                raise QmasmError(f"alias cycle through {name!r}")
            seen.add(name)
            name = flat.aliases[name]
        return name

    weights, chains, pins, assertions = flat.weights, flat.chains, flat.pins, flat.assertions
    if flat.aliases:
        weights = [(resolve_alias(v), value) for v, value in weights]
    couplers = []
    for a, b, value in flat.couplers:
        if flat.aliases:
            a, b = resolve_alias(a), resolve_alias(b)
        if a == b:
            raise QmasmError(f"self-coupler on {a!r}")
        couplers.append(((a, b), value))
    if flat.aliases:
        chains = [(resolve_alias(a), resolve_alias(b), same) for a, b, same in chains]
        pins = {resolve_alias(v): value for v, value in pins.items()}
        alias_map = {
            name: resolve_alias(name)
            for expression, _src in assertions
            for name in expression.variables()
        }
        assertions = [
            (rename_assert(expression, alias_map), source)
            for expression, source in assertions
        ]

    model = IsingModel()
    model._add_terms(weights, couplers)
    # A set iterates in an order its insertion sequence decides, and
    # to_ising follows that order: names go in one at a time, weights,
    # couplers and chains first, then the pins as one dict.
    variables: Set[str] = {variable for variable, _ in weights}
    variables.update(itertools.chain.from_iterable(pair for pair, _ in couplers))
    variables.update(itertools.chain.from_iterable((a, b) for a, b, _ in chains))
    variables.update(pins)
    for expression, _source in assertions:
        variables.update(expression.variables())

    return LogicalProgram(
        model=model,
        chains=chains,
        pins=pins,
        assertions=assertions,
        variables=variables,
    )
