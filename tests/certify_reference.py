"""Reference checker: the per-read certification code, kept verbatim.

These are ``certify_sampleset`` and ``_netlist_gate_checks`` from
:mod:`repro.qmasm.certify`, ``_report`` from :mod:`repro.qmasm.runner`,
``SampleSet.aggregate``, ``LogicalProgram.check_assertions`` and
``pins_satisfied``, and the ``evaluate`` methods of the ``!assert``
nodes, as they stood before the checks moved to one array pass per
call: every read was expanded into a dict over every QMASM variable,
every cell's truth function was called on Python Booleans, and every
``!assert`` tree was walked once per read, then again per distinct
solution in the report.  ``tests/test_certify_differential.py`` holds
the array checker to the certificates and solutions this code gives.

Methods became functions taking their object first, and the
``evaluate`` methods became one function over the node types.  One
behaviour is new: a cell whose nets the program lacks is listed in
``unchecked_cells`` and left out of ``gates_checked``, as the
``Certificate`` docstring says (the per-read loop skipped such cells
without a word).  Everything else is the old code.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core import trace as _trace
from repro.ising.cells import CELL_LIBRARY
from repro.ising.model import IsingModel, bool_to_spin, spin_to_bool
from repro.qmasm.assembler import LogicalProgram
from repro.qmasm.certify import (
    CERTIFIED,
    CONSTRAINT_VIOLATION,
    ENERGY_MISMATCH,
    STATES,
    Certificate,
    ReadCheck,
    expand_read,
)
from repro.qmasm.program import (
    AssertBinary,
    AssertConst,
    AssertUnary,
    AssertVar,
    QmasmError,
)
from repro.qmasm.runner import RunResult, Solution
from repro.solvers.sampleset import SampleSet


# ----------------------------------------------------------------------
# The assertion nodes' per-read evaluate methods
# ----------------------------------------------------------------------
def evaluate(expr, values: Mapping[str, bool]) -> int:
    if isinstance(expr, AssertVar):
        if expr.name not in values:
            raise QmasmError(f"assertion references unknown variable {expr.name!r}")
        return int(values[expr.name])
    if isinstance(expr, AssertConst):
        return expr.value
    if isinstance(expr, AssertUnary):
        value = evaluate(expr.operand, values)
        if expr.op == "~":
            return int(not value)
        if expr.op == "-":
            return -value
        raise QmasmError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, AssertBinary):
        a = evaluate(expr.left, values)
        b = evaluate(expr.right, values)
        operations = {
            "&": lambda: a & b,
            "|": lambda: a | b,
            "^": lambda: a ^ b,
            "+": lambda: a + b,
            "-": lambda: a - b,
            "*": lambda: a * b,
            "=": lambda: int(a == b),
            "/=": lambda: int(a != b),
            "<": lambda: int(a < b),
            ">": lambda: int(a > b),
            "<=": lambda: int(a <= b),
            ">=": lambda: int(a >= b),
        }
        if expr.op not in operations:
            raise QmasmError(f"unknown operator {expr.op!r} in assertion")
        return operations[expr.op]()
    raise NotImplementedError


# ----------------------------------------------------------------------
# LogicalProgram.check_assertions / pins_satisfied
# ----------------------------------------------------------------------
def check_assertions(logical: LogicalProgram, sample: Mapping[str, int]) -> List[str]:
    """Return the source text of every failed ``!assert``."""
    values = {v: spin_to_bool(s) for v, s in sample.items()}
    failures = []
    for expression, source in logical.assertions:
        try:
            passed = bool(evaluate(expression, values))
        except QmasmError:
            passed = False  # references a variable that was optimized out
        if not passed:
            failures.append(source)
    return failures


def pins_satisfied(logical: LogicalProgram, sample: Mapping[str, int]) -> bool:
    return all(
        variable not in sample
        or sample[variable] == bool_to_spin(value)
        for variable, value in logical.pins.items()
    )


# ----------------------------------------------------------------------
# SampleSet.aggregate
# ----------------------------------------------------------------------
def aggregate(sampleset: SampleSet) -> SampleSet:
    """Merge duplicate rows, summing occurrence counts."""
    if not len(sampleset):
        return sampleset
    seen: Dict[Tuple[int, ...], int] = {}
    rows, energies, counts = [], [], []
    for i in range(len(sampleset)):
        key = tuple(int(s) for s in sampleset.records[i])
        if key in seen:
            counts[seen[key]] += int(sampleset.occurrences[i])
        else:
            seen[key] = len(rows)
            rows.append(sampleset.records[i])
            energies.append(sampleset.energies[i])
            counts.append(int(sampleset.occurrences[i]))
    return SampleSet(
        sampleset.variables,
        np.array(rows, dtype=np.int8),
        np.array(energies),
        np.array(counts, dtype=int),
        dict(sampleset.info),
    )


# ----------------------------------------------------------------------
# repro.qmasm.certify
# ----------------------------------------------------------------------
#: One replayable gate: (cell name, input variables, output variable,
#: truth function).  Constants get ``()`` inputs and a constant lambda.
_GateCheck = Tuple[str, Tuple[str, ...], str, object]


def _netlist_gate_checks(netlist) -> Tuple[List[_GateCheck], List[str]]:
    """Compile the netlist into per-read gate checks over QMASM names."""
    from repro.edif2qmasm.translate import net_variable_names
    from repro.synth.netlist import CONSTANT_CELLS

    net_vars = net_variable_names(netlist)
    checks: List[_GateCheck] = []
    unchecked: List[str] = []
    for cell in netlist.cells.values():
        if cell.is_sequential:
            # Flip-flops relate two *time steps*; unrolled designs have
            # none, and un-unrolled ones cannot be checked statically.
            unchecked.append(cell.name)
            continue
        output = net_vars[cell.output_net]
        if cell.kind in CONSTANT_CELLS:
            value = bool(CONSTANT_CELLS[cell.kind])
            checks.append((cell.name, (), output, lambda v=value: v))
            continue
        spec = CELL_LIBRARY[cell.kind]
        inputs = tuple(net_vars[cell.connections[p]] for p in spec.inputs)
        checks.append((cell.name, inputs, output, spec.function))
    return checks, unchecked


def certify_sampleset(
    sampleset: SampleSet,
    logical: LogicalProgram,
    representative: Mapping[str, str],
    model: IsingModel,
    fixed: Optional[Mapping[str, int]] = None,
    netlist=None,
    energy_tolerance: float = 1e-6,
) -> Certificate:
    """Certify every read of a logical sample set."""
    checks: List[_GateCheck] = []
    unchecked: List[str] = []
    if netlist is not None:
        checks, unchecked = _netlist_gate_checks(netlist)
        # New: cells whose nets the program lacks are reported.
        present = expand_read(
            dict.fromkeys(sampleset.variables, 1), logical, representative, fixed
        )
        skipped = {
            name for name, inputs, output, _ in checks
            if output not in present or any(v not in present for v in inputs)
        }
        reported = set(unchecked) | skipped
        unchecked = [
            cell.name for cell in netlist.cells.values() if cell.name in reported
        ]
        checks = [check for check in checks if check[0] not in skipped]

    certificate = Certificate(
        counts={state: 0 for state in STATES},
        gates_checked=len(checks),
        unchecked_cells=tuple(unchecked),
        energy_tolerance=energy_tolerance,
    )
    with _trace.span(
        "certify.check", reads=len(sampleset), gates=len(checks)
    ):
        # Recompute every row's energy in one vectorized pass.
        if len(sampleset):
            recomputed_all = model.energies(
                sampleset.records.astype(float), order=list(sampleset.variables)
            )
        else:
            recomputed_all = []
        for index, sample in enumerate(sampleset):
            full = expand_read(
                sample.assignment, logical, representative, fixed
            )
            recomputed = float(recomputed_all[index])
            tolerance = energy_tolerance * max(
                1.0, abs(sample.energy)
            )
            energy_ok = abs(recomputed - sample.energy) <= tolerance

            values = {v: spin_to_bool(s) for v, s in full.items()}
            violations: List[str] = []
            for name, inputs, output, function in checks:
                if output not in values or any(
                    v not in values for v in inputs
                ):
                    continue  # net optimized out of the logical program
                expected = bool(function(*(values[v] for v in inputs)))
                if values[output] != expected:
                    violations.append(name)
            pins_ok = pins_satisfied(logical, full)
            failed = tuple(check_assertions(logical, full))

            if violations or failed or not pins_ok:
                state = CONSTRAINT_VIOLATION
            elif not energy_ok:
                state = ENERGY_MISMATCH
            else:
                state = CERTIFIED
            read = ReadCheck(
                index=index,
                state=state,
                energy_reported=float(sample.energy),
                energy_recomputed=float(recomputed),
                gate_violations=tuple(violations),
                failed_assertions=failed,
                pins_respected=pins_ok,
                num_occurrences=sample.num_occurrences,
            )
            certificate.reads.append(read)
            certificate.counts[state] += read.num_occurrences
            for name in violations:
                certificate.gate_violation_counts[name] = (
                    certificate.gate_violation_counts.get(name, 0)
                    + read.num_occurrences
                )
    _trace.event(
        "certify.result",
        reads=certificate.total_reads,
        certified_fraction=certificate.certified_fraction,
    )
    return certificate


# ----------------------------------------------------------------------
# repro.qmasm.runner._report
# ----------------------------------------------------------------------
def report(result: RunResult) -> List[Solution]:
    """The run's reads as distinct solutions, best energy first."""
    logical = result.logical
    sampleset = result.sampleset
    fixed = result.fixed_spins
    solutions: List[Solution] = []
    seen: Dict[tuple, int] = {}
    visible = logical.visible_variables()

    rows = list(aggregate(sampleset)) if len(sampleset) else [None]
    for row in rows:
        full = expand_read(
            row.assignment if row is not None else {},
            logical, result.representative, fixed,
        )
        values = {
            v: spin_to_bool(full[v]) for v in visible if v in full
        }
        key = tuple(sorted(values.items()))
        occurrences = row.num_occurrences if row is not None else 1
        if key in seen:
            solutions[seen[key]].num_occurrences += occurrences
            continue
        energy = (
            row.energy if row is not None else result.logical_model.energy(fixed)
        )
        seen[key] = len(solutions)
        solutions.append(
            Solution(
                values=values,
                energy=energy,
                num_occurrences=occurrences,
                failed_assertions=check_assertions(logical, full),
                pins_respected=pins_satisfied(logical, full),
            )
        )
    solutions.sort(key=lambda s: (s.energy, -s.num_occurrences))
    return solutions
