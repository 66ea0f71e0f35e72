"""Penalty-model synthesis: truth tables -> gate Hamiltonians.

This implements Section 4.3.2 of the paper.  A quantum-annealing version
of a logic cell is a quadratic pseudo-Boolean function that is minimized
*exactly* on the valid rows of the cell's truth table.  Finding one means
solving a system of (in)equalities over the ``h`` and ``J`` coefficients
(Table 2 for AND).  When the system is infeasible -- famously for XOR and
XNOR -- ancilla variables add truth-table columns until it becomes
feasible (Tables 3 and 4).

The paper solves these systems with MiniZinc; we use scipy's ``linprog``,
which handles the same linear systems, and we *maximize the energy gap*
between valid and invalid rows subject to coefficient-range bounds, the
same objective the paper used to pick the Table 5 cell functions
("maximizing the gap ... tends to lead to more robust output on D-Wave
hardware").
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ising.model import SPIN_FALSE, SPIN_TRUE, IsingModel

#: D-Wave 2000Q coefficient ranges (Section 2).  The J range is the
#: symmetric [-1, 1] subset used for *logical* cell design; the hardware
#: asymmetry (J in [-2, 1]) is handled later by repro.hardware.scaling.
DEFAULT_H_RANGE = (-2.0, 2.0)
DEFAULT_J_RANGE = (-1.0, 1.0)

#: Enumerate ancilla augmentations exhaustively up to this many options;
#: beyond it, fall back to seeded random search.
_EXHAUSTIVE_LIMIT = 4096
_RANDOM_ATTEMPTS = 2000


class PenaltySynthesisError(Exception):
    """No feasible penalty model within the allowed ancilla budget."""


@dataclass
class PenaltyModel:
    """A synthesized gate Hamiltonian.

    Attributes:
        model: the Ising model over ``variables + ancillas``.
        variables: the decision (truth-table) variable names, in order.
        ancillas: names of any ancilla variables that were added.
        ground_energy: H evaluated at any valid row (the paper's ``k``).
        gap: minimum H(invalid) - H(valid); larger is more noise-robust.
        augmentation: for each valid row, the spin values assigned to the
            ancillas (the extra truth-table columns of Table 3).
    """

    model: IsingModel
    variables: List[str]
    ancillas: List[str] = field(default_factory=list)
    ground_energy: float = 0.0
    gap: float = 0.0
    augmentation: List[Tuple[int, ...]] = field(default_factory=list)


def _rows_as_spins(rows: Iterable[Sequence[int]], width: int) -> List[Tuple[int, ...]]:
    """Normalize truth-table rows (bools or spins) to spin tuples."""
    out = []
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row {row!r} has width {len(row)}, expected {width}")
        spins = []
        for value in row:
            if value in (0, False):
                spins.append(SPIN_FALSE)
            elif value in (1, True):
                spins.append(SPIN_TRUE)
            elif value in (SPIN_FALSE, SPIN_TRUE):
                spins.append(int(value))
            else:
                raise ValueError(f"truth-table entry {value!r} is not Boolean")
        out.append(tuple(spins))
    return out


def _term_vector(spins: Sequence[int], n: int) -> np.ndarray:
    """Coefficient row of the LP: [sigma_0..sigma_{n-1}, sigma_i*sigma_j...].

    This is one row of Table 2/Table 4: evaluating H at a specific spin
    assignment yields a linear expression in the unknown h and J.
    """
    linear = list(spins)
    quadratic = [spins[i] * spins[j] for i, j in itertools.combinations(range(n), 2)]
    return np.array(linear + quadratic, dtype=float)


def _solve_system(
    valid: List[Tuple[int, ...]],
    n: int,
    h_range: Tuple[float, float],
    j_range: Tuple[float, float],
    min_gap: float,
) -> Optional[Tuple[np.ndarray, float, float]]:
    """Solve the Section 4.3.2 system of (in)equalities by LP.

    Unknowns: n linear coefficients, C(n,2) quadratic coefficients, the
    ground energy k, and the gap g.  Valid rows pin H == k; every other
    spin assignment requires H >= k + g.  The objective maximizes g.

    Returns ``(coefficients, k, g)`` or None if infeasible.
    """
    # Only the Tables 2-4 synthesis solves an LP; compiling and running
    # use the transcribed Table 5 cells, so scipy loads on first use.
    from scipy.optimize import linprog

    valid_set = set(valid)
    num_quad = n * (n - 1) // 2
    num_unknowns = n + num_quad + 2  # + k + g
    k_idx, g_idx = n + num_quad, n + num_quad + 1

    eq_rows, ineq_rows = [], []
    for spins in itertools.product((SPIN_FALSE, SPIN_TRUE), repeat=n):
        coeffs = np.zeros(num_unknowns)
        coeffs[: n + num_quad] = _term_vector(spins, n)
        if spins in valid_set:
            coeffs[k_idx] = -1.0  # H(row) - k == 0
            eq_rows.append(coeffs)
        else:
            # H(row) - k - g >= 0   ->   -H(row) + k + g <= 0
            row = -coeffs
            row[k_idx] = 1.0
            row[g_idx] = 1.0
            ineq_rows.append(row)

    objective = np.zeros(num_unknowns)
    objective[g_idx] = -1.0  # maximize g

    bounds = (
        [h_range] * n
        + [j_range] * num_quad
        + [(None, None)]  # k is free
        + [(min_gap, None)]  # require a strictly positive gap
    )
    result = linprog(
        objective,
        A_ub=np.array(ineq_rows) if ineq_rows else None,
        b_ub=np.zeros(len(ineq_rows)) if ineq_rows else None,
        A_eq=np.array(eq_rows) if eq_rows else None,
        b_eq=np.zeros(len(eq_rows)) if eq_rows else None,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        return None
    x = result.x
    return x[: n + num_quad], float(x[k_idx]), float(x[g_idx])


def _build_model(
    coeffs: np.ndarray, names: Sequence[str], tol: float = 1e-9
) -> IsingModel:
    """Turn an LP solution vector into an IsingModel over named variables."""
    n = len(names)
    model = IsingModel()
    for i, name in enumerate(names):
        model.add_variable(name, 0.0)
    for i, name in enumerate(names):
        if abs(coeffs[i]) > tol:
            model.add_variable(name, float(coeffs[i]))
    for idx, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        value = coeffs[n + idx]
        if abs(value) > tol:
            model.add_interaction(names[i], names[j], float(value))
    return model


def _augmentations(
    num_valid: int, num_ancillas: int, rng: random.Random
) -> Iterable[Tuple[Tuple[int, ...], ...]]:
    """Yield candidate ancilla columns: one spin tuple per valid row.

    Exhaustive when the space is small (Table 3 shows one of XOR's eight
    workable single-ancilla augmentations), randomized otherwise.
    """
    per_row = list(
        itertools.product((SPIN_FALSE, SPIN_TRUE), repeat=num_ancillas)
    )
    space = len(per_row) ** num_valid
    if space <= _EXHAUSTIVE_LIMIT:
        yield from itertools.product(per_row, repeat=num_valid)
    else:
        seen = set()
        for _ in range(_RANDOM_ATTEMPTS):
            candidate = tuple(rng.choice(per_row) for _ in range(num_valid))
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def synthesize_penalty(
    valid_rows: Iterable[Sequence[int]],
    variables: Sequence[str],
    max_ancillas: int = 2,
    h_range: Tuple[float, float] = DEFAULT_H_RANGE,
    j_range: Tuple[float, float] = DEFAULT_J_RANGE,
    min_gap: float = 1e-3,
    seed: int = 2019,
) -> PenaltyModel:
    """Synthesize a gate Hamiltonian for a truth table.

    Args:
        valid_rows: the valid truth-table rows, each a sequence of
            Booleans (or spins) over ``variables`` in order.
        variables: names for the decision variables (e.g. ``["Y","A","B"]``).
        max_ancillas: how many ancilla variables may be added when the
            plain system is infeasible (XOR/XNOR need exactly one).
        h_range / j_range: coefficient bounds, defaulting to the logical
            design ranges used for the paper's Table 5.
        min_gap: smallest acceptable valid/invalid energy gap.
        seed: RNG seed for randomized augmentation search (the search is
            deterministic for the small tables that fit the exhaustive
            path).

    Returns:
        A :class:`PenaltyModel` whose Ising model is minimized exactly on
        the valid rows, with the gap maximized by the LP.

    Raises:
        PenaltySynthesisError: if no feasible model exists within
            ``max_ancillas`` ancillas.
    """
    variables = list(variables)
    n = len(variables)
    valid = _rows_as_spins(valid_rows, n)
    if not valid:
        raise ValueError("truth table needs at least one valid row")
    if len(set(valid)) != len(valid):
        raise ValueError("duplicate truth-table rows")
    rng = random.Random(seed)

    for num_ancillas in range(max_ancillas + 1):
        names = variables + [f"$anc{i + 1}" for i in range(num_ancillas)]
        best: Optional[PenaltyModel] = None
        for augmentation in _augmentations(len(valid), num_ancillas, rng):
            augmented = [
                row + anc for row, anc in zip(valid, augmentation)
            ]
            if len(set(augmented)) != len(augmented):
                continue  # two valid rows collapsed onto one point
            solution = _solve_system(
                augmented, n + num_ancillas, h_range, j_range, min_gap
            )
            if solution is None:
                continue
            coeffs, k, gap = solution
            candidate = PenaltyModel(
                model=_build_model(coeffs, names),
                variables=variables,
                ancillas=names[n:],
                ground_energy=k,
                gap=gap,
                augmentation=list(augmentation),
            )
            if best is None or candidate.gap > best.gap:
                best = candidate
            if num_ancillas == 0:
                break  # no augmentation choices to compare
        if best is not None:
            return best

    raise PenaltySynthesisError(
        f"no penalty model for {len(valid)}-row table over {n} variables "
        f"within {max_ancillas} ancillas"
    )


def verify_penalty(
    penalty: PenaltyModel, valid_rows: Iterable[Sequence[int]], tol: float = 1e-6
) -> bool:
    """Check that a penalty model's ground states are exactly the valid rows.

    For each assignment of the decision variables, minimize over the
    ancillas; the result must equal the ground energy on valid rows and
    exceed it (by at least ``gap`` - tol) elsewhere.
    """
    valid = set(_rows_as_spins(valid_rows, len(penalty.variables)))
    names = penalty.variables
    ancillas = penalty.ancillas
    for spins in itertools.product((SPIN_FALSE, SPIN_TRUE), repeat=len(names)):
        best = min(
            penalty.model.energy(
                {**dict(zip(names, spins)), **dict(zip(ancillas, anc))}
            )
            for anc in itertools.product(
                (SPIN_FALSE, SPIN_TRUE), repeat=len(ancillas)
            )
        ) if ancillas else penalty.model.energy(dict(zip(names, spins)))
        if spins in valid:
            if abs(best - penalty.ground_energy) > tol:
                return False
        else:
            if best < penalty.ground_energy + penalty.gap - tol:
                return False
    return True


def truth_table_of(func, num_inputs: int) -> List[Tuple[int, ...]]:
    """Enumerate valid rows ``(Y, A, B, ...)`` of a Boolean function.

    ``func`` maps a tuple of input Booleans to the output Boolean; the
    output is listed *first* to match the paper's Table 2/4 column order.
    """
    rows = []
    for bits in itertools.product((False, True), repeat=num_inputs):
        rows.append((bool(func(*bits)),) + bits)
    return rows
