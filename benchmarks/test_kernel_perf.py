"""Sweep-kernel performance: the dense and sparse tiers.

The paper's methodology (Section 5.4) amortizes overhead over thousands
of reads, which only pays if each read is cheap.  This benchmark anneals
the Section 6 map-coloring Hamiltonian, minor-embedded onto a pristine
Chimera C16 (the 2000Q working graph, degree <= 6), at 1000 reads and
times both kernel tiers:

* ``dense``  -- the pre-kernel-refactor cost model (every flip updates
  all n local-field columns);
* ``sparse`` -- the CSR neighbor-list kernel (flip cost O(deg)).

Both tiers' samples are asserted bit-identical (the exactness
criterion), and the sparse tier must beat the dense one by at least 5x.
The committed ``BENCH_kernels.json`` at the repo root is the
**regression baseline**: a full run compares its sparse-over-dense
speedup against the stored one with a 20% tolerance band (absolute wall
times are machine-specific, so only the ratio gates).  The file is
rewritten only once every gate has passed, so a failing run never moves
the baseline it is judged against (see ``_trajectory.py``).

Set ``REPRO_BENCH_SMOKE=1`` to run a scaled-down model (C8, 50 reads);
smoke runs still check exactness but skip every timing gate, so CI
jitter can never block a merge, and write the git-ignored
``BENCH_kernels.smoke.json`` instead of the committed file.

Reproduce the numbers with::

    PYTHONPATH=src python -m pytest benchmarks/test_kernel_perf.py -s -q
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.mapcolor import unary_map_coloring_model
from repro.hardware.chimera import chimera_graph
from repro.hardware.embedding import embed_ising, find_embedding, source_graph_of
from repro.solvers import kernels
from repro.solvers.neal import SimulatedAnnealingSampler

from _trajectory import SMOKE, gate_ratio, load_baseline, write_results

# Smoke keeps the same logical problem but embeds into a C8 (a C4 is too
# small for the 28-variable coloring graph) with a fraction of the reads.
CELLS = 8 if SMOKE else 16
NUM_READS = 50 if SMOKE else 1000
NUM_SWEEPS = 8 if SMOKE else 32
REPEATS = 1 if SMOKE else 3
#: Acceptance floor on this machine's own sparse-over-dense ratio.
SPARSE_SPEEDUP_FLOOR = 5.0


def _embedded_mapcolor_model():
    """The Australia map-coloring Hamiltonian on Chimera qubits."""
    logical = unary_map_coloring_model()
    target = chimera_graph(CELLS)
    embedding = find_embedding(
        source_graph_of(logical), target, seed=0, tries=4
    )
    return logical, embed_ising(logical, embedding, target)


def _time_kernel(model, kernel):
    """Best-of-REPEATS wall time for a fixed-seed anneal on one kernel."""
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        sampler = SimulatedAnnealingSampler(seed=0)
        start = time.perf_counter()
        result = sampler.sample(
            model, num_reads=NUM_READS, num_sweeps=NUM_SWEEPS, kernel=kernel
        )
        best = min(best, time.perf_counter() - start)
    return best, result


def test_kernel_tiers_speedup_on_embedded_mapcolor():
    logical, physical = _embedded_mapcolor_model()
    order, _, indptr, indices, _ = physical.to_csr()
    n = len(order)
    nnz = len(indices)

    timings = {}
    results = {}
    for tier in kernels.KERNELS:
        timings[tier], results[tier] = _time_kernel(physical, tier)

    # Exactness at scale: the tiers must be sample-for-sample
    # interchangeable, not merely statistically equivalent.
    reference = results[kernels.DENSE]
    for tier, result in results.items():
        np.testing.assert_array_equal(reference.records, result.records)
        np.testing.assert_array_equal(reference.energies, result.energies)

    sparse_speedup = (
        timings[kernels.DENSE] / timings[kernels.SPARSE]
        if timings[kernels.SPARSE] > 0
        else float("inf")
    )
    print(
        f"\nkernel_perf: n={n} nnz={nnz} reads={NUM_READS} "
        f"dense={timings[kernels.DENSE]:.3f}s "
        f"sparse={timings[kernels.SPARSE]:.3f}s "
        f"sparse_speedup={sparse_speedup:.1f}x"
    )

    # The embedded problem must auto-select the sparse tier for wide
    # read batches.
    assert kernels.choose_kernel(n, nnz, num_reads=NUM_READS) == kernels.SPARSE
    if not SMOKE:
        # Absolute floor on this machine.
        assert sparse_speedup >= SPARSE_SPEEDUP_FLOOR, (
            f"sparse kernel speedup {sparse_speedup:.2f}x below the "
            f"{SPARSE_SPEEDUP_FLOOR}x acceptance floor"
        )
        # Trajectory gate vs the committed baseline (ratios only --
        # wall times are machine-specific).
        baseline = load_baseline("kernels", "tiers")
        if baseline is not None:
            gate_ratio(
                "kernels",
                "sparse-over-dense speedup",
                sparse_speedup,
                baseline.get("speedup_sparse_over_dense"),
            )

    write_results("kernels", {
        "benchmark": "kernel_perf",
        "version": 4,
        "smoke": SMOKE,
        "problem": {
            "name": "australia-map-coloring",
            "logical_variables": len(logical),
            "chimera_cells": CELLS,
            "physical_qubits": n,
            "csr_stored_entries": nnz,
            "density": nnz / float(n * n),
            "max_degree": int(np.max(np.diff(indptr))),
        },
        "num_reads": NUM_READS,
        "num_sweeps": NUM_SWEEPS,
        "repeats": REPEATS,
        "tiers": {
            kernels.DENSE: timings[kernels.DENSE],
            kernels.SPARSE: timings[kernels.SPARSE],
        },
        "speedup_sparse_over_dense": sparse_speedup,
        "auto_kernel": kernels.choose_kernel(n, nnz, num_reads=NUM_READS),
        "samples_identical": True,
    })
