"""Reference builder: the per-term logical-model code, kept verbatim.

These are the :class:`~repro.ising.model.IsingModel` constructor loop,
``update`` and ``relabel``, ``assemble`` and the lowering loop of
``LogicalProgram.to_ising`` as they stood before one bulk accumulation
(``IsingModel._add_terms``) built every model: each term was one
``add_variable`` or ``add_interaction`` call, which ordered its pair by
the ``repr`` of both labels and dropped the CSR cache, and ``assemble``
resolved every name through the alias table and rewrote every
``!assert`` tree even in a program without ``!alias``.
``tests/test_assembler_differential.py`` holds the bulk builder to the
models, representative maps and variable sets this code gives.

The methods live on subclasses (``ReferenceIsingModel``,
``ReferenceLogicalProgram``), so ``relabel`` and ``to_ising`` dispatch
to the reference code; ``add_variable`` and ``add_interaction`` are the
package's own, which the bulk path did not change.  Everything else is
the old code.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.ising.model import Edge, IsingModel, Variable
from repro.qmasm.assembler import (
    LogicalProgram,
    _expand,
    _Flattened,
    _preference,
    _UnionFind,
)
from repro.qmasm.program import Program, QmasmError, rename_assert


class ReferenceIsingModel(IsingModel):
    """``IsingModel`` with the per-term constructor, update and relabel."""

    def __init__(
        self,
        h: Optional[Mapping[Variable, float]] = None,
        j: Optional[Mapping[Edge, float]] = None,
        offset: float = 0.0,
    ):
        self._h: Dict[Variable, float] = {}
        self._j: Dict[Edge, float] = {}
        self.offset = float(offset)
        self._csr: Optional[tuple] = None
        if h:
            for v, bias in h.items():
                self.add_variable(v, bias)
        if j:
            for (u, v), coupling in j.items():
                self.add_interaction(u, v, coupling)

    def update(self, other: "IsingModel") -> None:
        for v, bias in other._h.items():
            self.add_variable(v, bias)
        for (u, v), coupling in other._j.items():
            self.add_interaction(u, v, coupling)
        self.offset += other.offset

    def relabel(self, mapping: Mapping[Variable, Variable]) -> "ReferenceIsingModel":
        out = ReferenceIsingModel(offset=self.offset)
        for v, bias in self._h.items():
            out.add_variable(mapping.get(v, v), bias)
        for (u, v), coupling in self._j.items():
            new_u = mapping.get(u, u)
            new_v = mapping.get(v, v)
            if new_u == new_v:
                # sigma * sigma == 1: the term becomes a constant.
                out.offset += coupling
            else:
                out.add_interaction(new_u, new_v, coupling)
        return out


class ReferenceLogicalProgram(LogicalProgram):
    """``LogicalProgram`` with the per-variable lowering loop."""

    def to_ising(
        self,
        contract_chains: bool = True,
        chain_strength: Optional[float] = None,
        pin_strength: Optional[float] = None,
        apply_pins: bool = True,
    ) -> Tuple[IsingModel, Dict[str, str]]:
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
        for variable in self.variables:
            model.add_variable(representative[variable], 0.0)

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


def reference_assemble(program: Program) -> ReferenceLogicalProgram:
    """The per-term ``assemble``."""
    flat = _Flattened()
    _expand(program.statements, program.macros, "", flat)

    # Apply aliases (new name -> existing variable).
    def resolve_alias(name: str) -> str:
        seen = set()
        while name in flat.aliases:
            if name in seen:
                raise QmasmError(f"alias cycle through {name!r}")
            seen.add(name)
            name = flat.aliases[name]
        return name

    model = ReferenceIsingModel()
    variables: Set[str] = set()
    for variable, value in flat.weights:
        variable = resolve_alias(variable)
        model.add_variable(variable, value)
        variables.add(variable)
    for a, b, value in flat.couplers:
        a, b = resolve_alias(a), resolve_alias(b)
        if a == b:
            raise QmasmError(f"self-coupler on {a!r}")
        model.add_interaction(a, b, value)
        variables.update((a, b))
    chains = []
    for a, b, same in flat.chains:
        a, b = resolve_alias(a), resolve_alias(b)
        chains.append((a, b, same))
        variables.update((a, b))
    pins = {resolve_alias(v): value for v, value in flat.pins.items()}
    variables.update(pins)
    alias_map = {
        name: resolve_alias(name)
        for expression, _src in flat.assertions
        for name in expression.variables()
    }
    assertions = [
        (rename_assert(expression, alias_map), source)
        for expression, source in flat.assertions
    ]
    for expression, _source in assertions:
        variables.update(expression.variables())

    return ReferenceLogicalProgram(
        model=model,
        chains=chains,
        pins=pins,
        assertions=assertions,
        variables=variables,
    )
