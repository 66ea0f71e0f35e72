"""Sample sets: collections of spin assignments returned by samplers.

All quantum computers are fundamentally stochastic (Section 5.4), so a
run is always *many* anneals, and qmasm "can run a program arbitrarily
many times and report statistics on the results".  A :class:`SampleSet`
is that collection: rows of spins over a fixed variable order, each with
an energy and an occurrence count, sorted by energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.ising.model import IsingModel, spin_to_bool

Variable = Hashable


@dataclass(frozen=True)
class Sample:
    """One spin assignment with its energy and occurrence count."""

    assignment: Mapping[Variable, int]
    energy: float
    num_occurrences: int = 1

    def booleans(self) -> Dict[Variable, bool]:
        """The assignment as Booleans (spin -1 -> False, +1 -> True)."""
        return {v: spin_to_bool(s) for v, s in self.assignment.items()}

    def __getitem__(self, v: Variable) -> int:
        return self.assignment[v]


def merge_rows(
    matrix: np.ndarray, occurrences: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a matrix, in order of first occurrence.

    Returns ``(first, counts)``: the index of each distinct row's first
    occurrence, ascending, and the summed ``occurrences`` of its rows.
    """
    _, first, inverse = np.unique(
        matrix, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    counts = np.zeros(len(first), dtype=int)
    # inverse's shape differs across numpy versions.
    np.add.at(counts, rank[inverse.reshape(-1)], occurrences)
    return first[order], counts


class SampleSet:
    """An energy-sorted collection of samples over a shared variable order.

    Construction is normally via :meth:`from_array` (samplers produce
    numpy spin matrices) or :meth:`from_samples` (dict-shaped results).
    """

    def __init__(
        self,
        variables: Sequence[Variable],
        records: np.ndarray,
        energies: np.ndarray,
        occurrences: np.ndarray,
        info: Optional[Dict] = None,
    ):
        if records.ndim != 2 or records.shape[1] != len(variables):
            raise ValueError("records must be (num_samples, num_variables)")
        if records.shape[0] != len(energies) or len(energies) != len(occurrences):
            raise ValueError("records/energies/occurrences length mismatch")
        order = np.argsort(energies, kind="stable")
        self.variables: List[Variable] = list(variables)
        self.records = records[order]
        self.energies = np.asarray(energies, dtype=float)[order]
        self.occurrences = np.asarray(occurrences, dtype=int)[order]
        self.info: Dict = info or {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_array(
        cls,
        variables: Sequence[Variable],
        records: np.ndarray,
        model: IsingModel,
        info: Optional[Dict] = None,
    ) -> "SampleSet":
        """Build from a spin matrix, computing energies from ``model``."""
        records = np.asarray(records, dtype=np.int8)
        energies = model.energies(records.astype(float), order=list(variables))
        occurrences = np.ones(len(records), dtype=int)
        return cls(variables, records, energies, occurrences, info)

    @classmethod
    def from_samples(
        cls,
        samples: Sequence[Mapping[Variable, int]],
        model: IsingModel,
        info: Optional[Dict] = None,
    ) -> "SampleSet":
        if not samples:
            raise ValueError("empty sample list")
        variables = list(samples[0])
        records = np.array(
            [[s[v] for v in variables] for s in samples], dtype=np.int8
        )
        return cls.from_array(variables, records, model, info)

    @classmethod
    def empty(cls, variables: Sequence[Variable]) -> "SampleSet":
        return cls(
            variables,
            np.zeros((0, len(variables)), dtype=np.int8),
            np.zeros(0),
            np.zeros(0, dtype=int),
        )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Sample]:
        for i in range(len(self)):
            yield self._sample(i)

    def _sample(self, i: int) -> Sample:
        assignment = dict(zip(self.variables, (int(s) for s in self.records[i])))
        return Sample(assignment, float(self.energies[i]), int(self.occurrences[i]))

    @property
    def first(self) -> Sample:
        """The lowest-energy sample."""
        if not len(self):
            raise ValueError("empty sample set")
        return self._sample(0)

    def lowest(self, tol: float = 1e-9) -> "SampleSet":
        """The subset of samples within ``tol`` of the minimum energy."""
        if not len(self):
            return self
        mask = self.energies <= self.energies[0] + tol
        return SampleSet(
            self.variables,
            self.records[mask],
            self.energies[mask],
            self.occurrences[mask],
            dict(self.info),
        )

    def total_reads(self) -> int:
        return int(self.occurrences.sum())

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def aggregate(self) -> "SampleSet":
        """Merge duplicate rows, summing occurrence counts.

        Each distinct row keeps the place and the energy of its first
        occurrence.
        """
        if not len(self):
            return self
        first, counts = merge_rows(self.records, self.occurrences)
        return SampleSet(
            self.variables,
            self.records[first].astype(np.int8, copy=False),
            self.energies[first],
            counts,
            dict(self.info),
        )

    def select(self, variables: Sequence[Variable]) -> "SampleSet":
        """Project onto a subset of variables (energies are kept as-is)."""
        indices = [self.variables.index(v) for v in variables]
        return SampleSet(
            list(variables),
            self.records[:, indices],
            self.energies,
            self.occurrences,
            dict(self.info),
        )

    def relabeled(self, mapping: Mapping[Variable, Variable]) -> "SampleSet":
        return SampleSet(
            [mapping.get(v, v) for v in self.variables],
            self.records,
            self.energies,
            self.occurrences,
            dict(self.info),
        )

    def histogram(self) -> Dict[Tuple[int, ...], int]:
        """Occurrence counts keyed by spin tuples (in variable order)."""
        agg = self.aggregate()
        return {
            tuple(int(s) for s in agg.records[i]): int(agg.occurrences[i])
            for i in range(len(agg))
        }

    def __repr__(self) -> str:
        if not len(self):
            return "SampleSet(empty)"
        return (
            f"SampleSet({len(self)} rows, {self.total_reads()} reads, "
            f"best energy {self.energies[0]:g})"
        )
