"""Reference unembedding: the per-read, per-variable loop, kept verbatim.

This is :func:`repro.hardware.embedding.unembed_sampleset` as it stood
before it became array passes.  ``tests/test_unembed_differential.py``
holds the array version to the records, occurrences, energies and
``chain_break_fraction`` this loop gives, bit for bit.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.hardware.embedding import Embedding
from repro.ising.model import IsingModel
from repro.solvers.sampleset import SampleSet


def reference_unembed_sampleset(
    physical_samples: SampleSet,
    embedding: Embedding,
    logical_model: IsingModel,
    method: str = "majority",
) -> SampleSet:
    """Map physical samples back to logical variables.

    Broken chains (qubits disagreeing within one chain) are resolved by
    majority vote by default, or discarded with ``method="discard"``.
    The returned set's ``info["chain_break_fraction"]`` records how often
    chains broke, a standard health metric for embedded problems.
    """
    variables = list(logical_model.variables)
    qubit_order = physical_samples.variables
    qubit_index = {q: i for i, q in enumerate(qubit_order)}
    chain_indices = {
        v: [qubit_index[q] for q in sorted(embedding[v])] for v in variables
    }

    rows: List[List[int]] = []
    occurrences: List[int] = []
    breaks = 0
    total_chains = 0
    for i in range(len(physical_samples)):
        record = physical_samples.records[i]
        logical_row = []
        broken = False
        for v in variables:
            spins = record[chain_indices[v]]
            total = int(np.sum(spins))
            total_chains += 1
            if abs(total) != len(spins):
                breaks += 1
                broken = True
            if total > 0:
                logical_row.append(1)
            elif total < 0:
                logical_row.append(-1)
            else:
                logical_row.append(int(spins[0]))
        if method == "discard" and broken:
            continue
        rows.append(logical_row)
        occurrences.append(int(physical_samples.occurrences[i]))

    info = dict(physical_samples.info)
    info["chain_break_fraction"] = breaks / total_chains if total_chains else 0.0
    if not rows:
        out = SampleSet.empty(variables)
        out.info = info
        return out
    records = np.array(rows, dtype=np.int8)
    energies = logical_model.energies(records.astype(float), order=variables)
    return SampleSet(variables, records, energies, np.array(occurrences), info)
