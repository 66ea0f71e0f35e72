"""Quadratic pseudo-Boolean functions over spin variables.

The paper's Equation (2):

    H(sigma) = sum_i h_i sigma_i  +  sum_{i<j} J_ij sigma_i sigma_j

with sigma_i in {-1, +1}.  An :class:`IsingModel` stores the linear
coefficients ``h``, the quadratic coefficients ``J``, and a constant
``offset`` (the offset does not affect the argmin but lets models compose
and convert to/from QUBO form without losing energies).

Variables are arbitrary hashable labels: the QMASM layer uses strings
such as ``"my_and.A"``, the hardware layer uses integer qubit numbers.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

Variable = Hashable
Edge = Tuple[Variable, Variable]

#: The paper represents False as -1 and True as +1 ("physics Booleans").
SPIN_FALSE = -1
SPIN_TRUE = +1


def bool_to_spin(value: bool) -> int:
    """Map a Python Boolean to the paper's {-1, +1} spin convention."""
    return SPIN_TRUE if value else SPIN_FALSE


def spin_to_bool(spin: int) -> bool:
    """Map a {-1, +1} spin back to a Python Boolean.

    Raises ``ValueError`` on anything that is not exactly +/-1, because a
    spin outside that set indicates an upstream bug (e.g. reading a QUBO
    sample as spins).
    """
    if spin == SPIN_TRUE:
        return True
    if spin == SPIN_FALSE:
        return False
    raise ValueError(f"not a spin value: {spin!r}")


def spins_to_bits(spins: np.ndarray) -> np.ndarray:
    """:func:`spin_to_bool` on every entry of a spin array, at once.

    Raises ``ValueError`` naming the first entry, in row-major order,
    that is not exactly +/-1.
    """
    spins = np.asarray(spins)
    bits = spins == SPIN_TRUE
    bad = ~bits & (spins != SPIN_FALSE)
    if bad.any():
        raise ValueError(f"not a spin value: {spins[bad][0].item()!r}")
    return bits


def _edge(u: Variable, v: Variable) -> Edge:
    """Canonical (order-independent) key for the pair {u, v}."""
    if u == v:
        raise ValueError(f"self-coupling on variable {u!r} is not quadratic")
    # Sort by repr for a deterministic canonical order across mixed types.
    return (u, v) if repr(u) <= repr(v) else (v, u)


class IsingModel:
    """A quadratic pseudo-Boolean function H(sigma) = h.sigma + sigma.J.sigma.

    Supports incremental construction (``add_variable``,
    ``add_interaction``), composition (``update``, ``+``), evaluation
    (``energy``), exact ground-state enumeration for small models,
    variable fixing/contraction (used by chains and roof duality), and
    conversion to dense numpy arrays for the samplers.
    """

    def __init__(
        self,
        h: Optional[Mapping[Variable, float]] = None,
        j: Optional[Mapping[Edge, float]] = None,
        offset: float = 0.0,
    ):
        self._h: Dict[Variable, float] = {}
        self._j: Dict[Edge, float] = {}
        self.offset = float(offset)
        #: Cached CSR adjacency export; invalidated on any mutation of
        #: ``_h`` or ``_j`` (the offset is not part of the adjacency).
        self._csr: Optional[tuple] = None
        self._add_terms(h.items() if h else (), j.items() if j else ())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._csr = None

    def add_variable(self, v: Variable, bias: float = 0.0) -> None:
        """Add ``bias`` to the linear coefficient of ``v`` (creating it).

        A NaN or infinite ``bias`` is a ``ValueError``: every sampler
        would anneal on it and return NaN energies.
        """
        bias = float(bias)
        if not math.isfinite(bias):
            raise ValueError(f"bias of variable {v!r} is {bias}, not a finite number")
        self._invalidate()
        self._h[v] = self._h.get(v, 0.0) + bias

    def add_interaction(self, u: Variable, v: Variable, coupling: float) -> None:
        """Add ``coupling`` to the quadratic coefficient of the pair {u, v}.

        A NaN or infinite ``coupling`` is a ``ValueError``, as in
        :meth:`add_variable`.
        """
        coupling = float(coupling)
        if not math.isfinite(coupling):
            raise ValueError(
                f"coupling of variables {u!r} and {v!r} is {coupling}, "
                "not a finite number"
            )
        edge = _edge(u, v)
        self._invalidate()
        self._h.setdefault(u, 0.0)
        self._h.setdefault(v, 0.0)
        self._j[edge] = self._j.get(edge, 0.0) + coupling

    def _add_terms(
        self,
        linear: Iterable[Tuple[Variable, float]] = (),
        quadratic: Iterable[Tuple[Edge, float]] = (),
    ) -> None:
        """Add every ``(v, bias)``, then every ``((u, v), coupling)``.

        The bulk form of :meth:`add_variable` per linear term followed
        by :meth:`add_interaction` per quadratic term: the same key
        insertion order, the same float sums in the same order and the
        same errors, but the CSR cache is dropped once and each string
        label's ``repr`` (the edge-key order) is computed once.
        """
        self._invalidate()
        h = self._h
        isfinite = math.isfinite
        for v, bias in linear:
            bias = float(bias)
            if not isfinite(bias):
                raise ValueError(
                    f"bias of variable {v!r} is {bias}, not a finite number"
                )
            h[v] = h.get(v, 0.0) + bias
        j = self._j
        reprs: Dict[str, str] = {}
        for (u, v), coupling in quadratic:
            coupling = float(coupling)
            if not isfinite(coupling):
                raise ValueError(
                    f"coupling of variables {u!r} and {v!r} is {coupling}, "
                    "not a finite number"
                )
            if u == v:
                raise ValueError(f"self-coupling on variable {u!r} is not quadratic")
            # Equal strings have equal reprs; other labels (1 and True,
            # an int and a numpy int) may not, so only strings are cached.
            if type(u) is str:
                repr_u = reprs.get(u)
                if repr_u is None:
                    repr_u = reprs[u] = repr(u)
            else:
                repr_u = repr(u)
            if type(v) is str:
                repr_v = reprs.get(v)
                if repr_v is None:
                    repr_v = reprs[v] = repr(v)
            else:
                repr_v = repr(v)
            edge = (u, v) if repr_u <= repr_v else (v, u)
            if u not in h:
                h[u] = 0.0
            if v not in h:
                h[v] = 0.0
            j[edge] = j.get(edge, 0.0) + coupling

    def update(self, other: "IsingModel") -> None:
        """Accumulate ``other`` into this model (Section 4.3.5: H_P + H_Q)."""
        self._add_terms(other._h.items(), other._j.items())
        self.offset += other.offset

    def __add__(self, other: "IsingModel") -> "IsingModel":
        out = self.copy()
        out.update(other)
        return out

    def copy(self) -> "IsingModel":
        out = IsingModel(offset=self.offset)
        out._h = dict(self._h)
        out._j = dict(self._j)
        return out

    def relabel(self, mapping: Mapping[Variable, Variable]) -> "IsingModel":
        """Return a copy with variables renamed via ``mapping``.

        Variables absent from ``mapping`` keep their labels.  If two old
        labels map to the same new label their terms merge, which is how
        QMASM contracts explicit ``A = B`` chains into one variable.
        """
        out = IsingModel(offset=self.offset)
        get = mapping.get
        quadratic = []
        for (u, v), coupling in self._j.items():
            new_u = get(u, u)
            new_v = get(v, v)
            if new_u == new_v:
                # sigma * sigma == 1: the term becomes a constant.
                out.offset += coupling
            else:
                quadratic.append(((new_u, new_v), coupling))
        out._add_terms([(get(v, v), bias) for v, bias in self._h.items()], quadratic)
        return out

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def variables(self) -> Iterable[Variable]:
        return self._h.keys()

    @property
    def linear(self) -> Dict[Variable, float]:
        return dict(self._h)

    @property
    def quadratic(self) -> Dict[Edge, float]:
        return dict(self._j)

    def __len__(self) -> int:
        return len(self._h)

    def __contains__(self, v: Variable) -> bool:
        return v in self._h

    def num_interactions(self) -> int:
        return len(self._j)

    def num_terms(self) -> int:
        """Count non-zero terms, the paper's Section 6.1 'terms' metric."""
        nonzero_h = sum(1 for bias in self._h.values() if bias != 0.0)
        nonzero_j = sum(1 for coupling in self._j.values() if coupling != 0.0)
        return nonzero_h + nonzero_j

    def get_linear(self, v: Variable) -> float:
        return self._h[v]

    def get_interaction(self, u: Variable, v: Variable) -> float:
        return self._j.get(_edge(u, v), 0.0)

    def degree(self, v: Variable) -> int:
        return sum(1 for edge in self._j if v in edge)

    def neighbors(self, v: Variable) -> Iterator[Variable]:
        for u, w in self._j:
            if u == v:
                yield w
            elif w == v:
                yield u

    def max_abs_linear(self) -> float:
        return max((abs(bias) for bias in self._h.values()), default=0.0)

    def max_abs_quadratic(self) -> float:
        return max((abs(coupling) for coupling in self._j.values()), default=0.0)

    def __repr__(self) -> str:
        return (
            f"IsingModel({len(self._h)} variables, "
            f"{len(self._j)} interactions, offset={self.offset:g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IsingModel):
            return NotImplemented
        return (
            self._nonzero_h() == other._nonzero_h()
            and self._nonzero_j() == other._nonzero_j()
            and math.isclose(self.offset, other.offset, abs_tol=1e-12)
        )

    def _nonzero_h(self) -> Dict[Variable, float]:
        return {v: bias for v, bias in self._h.items() if bias != 0.0}

    def _nonzero_j(self) -> Dict[Edge, float]:
        return {edge: c for edge, c in self._j.items() if c != 0.0}

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def energy(self, sample: Mapping[Variable, int]) -> float:
        """Evaluate H at a full spin assignment (values in {-1, +1})."""
        total = self.offset
        for v, bias in self._h.items():
            total += bias * sample[v]
        for (u, v), coupling in self._j.items():
            total += coupling * sample[u] * sample[v]
        return total

    def energy_bool(self, sample: Mapping[Variable, bool]) -> float:
        """Evaluate H at a Boolean assignment via the spin convention."""
        return self.energy({v: bool_to_spin(bool(b)) for v, b in sample.items()})

    # ------------------------------------------------------------------
    # Dense form (for vectorized samplers)
    # ------------------------------------------------------------------
    def to_arrays(self) -> Tuple[list, np.ndarray, np.ndarray]:
        """Return ``(variable_order, h_vector, J_matrix)``.

        ``J_matrix`` is symmetric with each coupling split evenly across
        (i, j) and (j, i); samplers compute ``s @ J @ s / 1`` using only the
        upper triangle or use the local-field trick ``2 * J @ s``.
        """
        order = list(self._h)
        index = {v: i for i, v in enumerate(order)}
        h_vec = np.array([self._h[v] for v in order], dtype=float)
        j_mat = np.zeros((len(order), len(order)), dtype=float)
        for (u, v), coupling in self._j.items():
            i, j = index[u], index[v]
            j_mat[i, j] += coupling
            j_mat[j, i] += coupling
        return order, h_vec, j_mat

    # ------------------------------------------------------------------
    # Sparse form (for the sweep kernels)
    # ------------------------------------------------------------------
    def to_csr(self) -> Tuple[list, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(order, h, indptr, indices, data)``: CSR adjacency.

        The symmetric coupling matrix in compressed-sparse-row form:
        variable ``order[i]``'s neighbors are ``indices[indptr[i]:
        indptr[i+1]]`` with couplings ``data[indptr[i]:indptr[i+1]]``,
        column indices sorted ascending.  Zero couplings are dropped, so
        on hardware-topology models (Chimera degree <= 6) this is the
        O(nnz) structure the sparse sweep kernels in
        :mod:`repro.solvers.kernels` iterate over instead of the O(n^2)
        dense matrix.

        The export is cached on the model and invalidated by any
        coefficient mutation (``add_variable``, ``add_interaction``,
        ``update``).  The returned arrays are marked read-only because
        they are shared with the cache; copy before mutating.
        """
        if self._csr is not None:
            return self._csr
        order = list(self._h)
        index = {v: i for i, v in enumerate(order)}
        n = len(order)
        h_vec = np.array([self._h[v] for v in order], dtype=float)
        neighbors: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        for (u, v), coupling in self._j.items():
            if coupling == 0.0:
                continue
            i, j = index[u], index[v]
            neighbors[i].append((j, coupling))
            neighbors[j].append((i, coupling))
        indptr = np.zeros(n + 1, dtype=np.int64)
        for i, adj in enumerate(neighbors):
            adj.sort()
            indptr[i + 1] = indptr[i] + len(adj)
        nnz = int(indptr[-1])
        indices = np.empty(nnz, dtype=np.int64)
        data = np.empty(nnz, dtype=float)
        for i, adj in enumerate(neighbors):
            start = indptr[i]
            for k, (j, coupling) in enumerate(adj):
                indices[start + k] = j
                data[start + k] = coupling
        for array in (h_vec, indptr, indices, data):
            array.setflags(write=False)
        self._csr = (order, h_vec, indptr, indices, data)
        return self._csr

    def energies(self, samples: np.ndarray, order: Optional[list] = None) -> np.ndarray:
        """Vectorized energy of ``samples`` (n_samples x n_variables spins)."""
        from repro.solvers import kernels

        csr_order, h_vec, indptr, indices, data = self.to_csr()
        if order is not None:
            if list(order) != csr_order:
                perm = [list(order).index(v) for v in csr_order]
                samples = samples[:, perm]
        return kernels.batched_energies(
            h_vec, indptr, indices, data, samples, self.offset
        )

    # ------------------------------------------------------------------
    # Exact solutions (small models only)
    # ------------------------------------------------------------------
    def ground_states(self, tol: float = 1e-9) -> Tuple[float, list]:
        """Exhaustively find all minimizing spin assignments.

        Returns ``(minimum_energy, [sample, ...])``.  Exponential in the
        variable count; intended for verifying gate Hamiltonians and for
        tests (the cell library tops out at 6 variables).
        """
        order = list(self._h)
        if len(order) > 24:
            raise ValueError(
                f"refusing exhaustive enumeration over {len(order)} variables"
            )
        best_energy = math.inf
        best: list = []
        for bits in itertools.product((SPIN_FALSE, SPIN_TRUE), repeat=len(order)):
            sample = dict(zip(order, bits))
            e = self.energy(sample)
            if e < best_energy - tol:
                best_energy = e
                best = [sample]
            elif abs(e - best_energy) <= tol:
                best.append(sample)
        return best_energy, best

    # ------------------------------------------------------------------
    # Variable elimination
    # ------------------------------------------------------------------
    def fix_variable(self, v: Variable, spin: int) -> "IsingModel":
        """Return a copy with ``v`` fixed to ``spin`` and eliminated.

        Used both for pinning program inputs/outputs (Section 4.3.6 is
        instead expressed as a strong bias, but roof duality uses true
        elimination) and for decomposition solvers.
        """
        if spin not in (SPIN_FALSE, SPIN_TRUE):
            raise ValueError(f"spin must be +/-1, got {spin!r}")
        if v not in self._h:
            raise KeyError(f"unknown variable {v!r}")
        out = IsingModel(offset=self.offset + self._h[v] * spin)
        for u, bias in self._h.items():
            if u != v:
                out.add_variable(u, bias)
        for (a, b), coupling in self._j.items():
            if a == v:
                out.add_variable(b, coupling * spin)
            elif b == v:
                out.add_variable(a, coupling * spin)
            else:
                out.add_interaction(a, b, coupling)
        return out

    def contract(self, keep: Variable, remove: Variable, same_sign: bool = True) -> "IsingModel":
        """Merge ``remove`` into ``keep`` (equal or opposite value).

        This is QMASM's handling of explicit ``A = B`` / ``A /= B``
        statements (Section 4.4): rather than spending a coupler, the two
        logical variables become one.
        """
        if keep == remove:
            raise ValueError("cannot contract a variable with itself")
        out = IsingModel(offset=self.offset)
        sign = 1.0 if same_sign else -1.0
        for v, bias in self._h.items():
            if v == remove:
                out.add_variable(keep, sign * bias)
            else:
                out.add_variable(v, bias)
        for (u, v), coupling in self._j.items():
            new_u = keep if u == remove else u
            new_v = keep if v == remove else v
            factor = coupling
            if u == remove or v == remove:
                factor = sign * coupling
            if new_u == new_v:
                out.offset += factor
            else:
                out.add_interaction(new_u, new_v, factor)
        return out

    # ------------------------------------------------------------------
    # QUBO conversion
    # ------------------------------------------------------------------
    def to_qubo(self) -> Tuple[Dict[Edge, float], float]:
        """Convert to QUBO form: minimize x.Q.x over x in {0,1}^N.

        Uses sigma = 2x - 1.  Returns ``(Q, offset)`` with diagonal terms
        stored under ``(v, v)`` keys.
        """
        q: Dict[Edge, float] = {}
        offset = self.offset
        for v, bias in self._h.items():
            q[(v, v)] = q.get((v, v), 0.0) + 2.0 * bias
            offset -= bias
        for (u, v), coupling in self._j.items():
            q[_edge(u, v)] = q.get(_edge(u, v), 0.0) + 4.0 * coupling
            q[(u, u)] = q.get((u, u), 0.0) - 2.0 * coupling
            q[(v, v)] = q.get((v, v), 0.0) - 2.0 * coupling
            offset += coupling
        return q, offset

    @classmethod
    def from_qubo(cls, q: Mapping[Edge, float], offset: float = 0.0) -> "IsingModel":
        """Build an Ising model from QUBO coefficients (x = (sigma + 1)/2)."""
        model = cls(offset=offset)
        for (u, v), coeff in q.items():
            if u == v:
                model.add_variable(u, coeff / 2.0)
                model.offset += coeff / 2.0
            else:
                model.add_interaction(u, v, coeff / 4.0)
                model.add_variable(u, coeff / 4.0)
                model.add_variable(v, coeff / 4.0)
                model.offset += coeff / 4.0
        return model

    # ------------------------------------------------------------------
    # Scaling
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "IsingModel":
        """Return a copy with every coefficient multiplied by ``factor``."""
        out = IsingModel(offset=self.offset * factor)
        out._h = {v: bias * factor for v, bias in self._h.items()}
        out._j = {edge: c * factor for edge, c in self._j.items()}
        return out
