"""Sweep-kernel performance: the dense and sparse tiers.

The paper's methodology (Section 5.4) amortizes overhead over thousands
of reads, which only pays if each read is cheap.  This benchmark anneals
the Section 6 map-coloring Hamiltonian, minor-embedded onto a pristine
Chimera C16 (the 2000Q working graph, degree <= 6), at 1000 reads and
times both kernel tiers:

* ``dense``  -- the pre-kernel-refactor cost model (every flip updates
  all n local-field columns);
* ``sparse`` -- the CSR neighbor-list kernel (flip cost O(deg)).

The run times ``PAIRS`` pairs of anneals, one per tier, alternating
which tier goes first, and gates on the median of the per-pair
dense-over-sparse time ratios -- one slow run on a busy machine moves a
single pair, not the verdict.  Every run's samples are asserted
bit-identical to the first dense run's (the exactness criterion), and
the median speedup of the sparse tier must be at least 5x.  The
committed ``BENCH_kernels.json`` at the repo root is the **regression
baseline**: a full run compares its median sparse-over-dense speedup
against the stored one with a 20% tolerance band (absolute wall times
are machine-specific, so only the ratio gates).  The file is
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

import statistics
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
#: Timed (dense, sparse) pairs; the gate reads their median ratio.
PAIRS = 1 if SMOKE else 5
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
    """Wall time of one fixed-seed anneal on one kernel, and its samples."""
    sampler = SimulatedAnnealingSampler(seed=0)
    start = time.perf_counter()
    result = sampler.sample(
        model, num_reads=NUM_READS, num_sweeps=NUM_SWEEPS, kernel=kernel
    )
    return time.perf_counter() - start, result


def test_kernel_tiers_speedup_on_embedded_mapcolor():
    logical, physical = _embedded_mapcolor_model()
    order, _, indptr, indices, _ = physical.to_csr()
    n = len(order)
    nnz = len(indices)

    tiers = (kernels.DENSE, kernels.SPARSE)
    timings = {tier: [] for tier in tiers}
    reference = None
    for pair in range(PAIRS):
        for tier in tiers if pair % 2 == 0 else reversed(tiers):
            elapsed, result = _time_kernel(physical, tier)
            timings[tier].append(elapsed)
            # Exactness at scale, on every run: the tiers must be
            # sample-for-sample interchangeable, not merely
            # statistically equivalent.
            if reference is None:
                reference = result
            np.testing.assert_array_equal(reference.records, result.records)
            np.testing.assert_array_equal(reference.energies, result.energies)

    pair_ratios = [
        dense / sparse if sparse > 0 else float("inf")
        for dense, sparse in zip(timings[kernels.DENSE], timings[kernels.SPARSE])
    ]
    sparse_speedup = statistics.median(pair_ratios)
    print(
        f"\nkernel_perf: n={n} nnz={nnz} reads={NUM_READS} "
        f"dense={statistics.median(timings[kernels.DENSE]):.3f}s "
        f"sparse={statistics.median(timings[kernels.SPARSE]):.3f}s "
        f"pair_ratios={[round(r, 2) for r in pair_ratios]} "
        f"sparse_speedup={sparse_speedup:.1f}x (median of {PAIRS})"
    )

    # The embedded problem must auto-select the sparse tier for wide
    # read batches.
    assert kernels.choose_kernel(n, nnz, num_reads=NUM_READS) == kernels.SPARSE
    if not SMOKE:
        # Absolute floor on this machine.
        assert sparse_speedup >= SPARSE_SPEEDUP_FLOOR, (
            f"median sparse kernel speedup {sparse_speedup:.2f}x below the "
            f"{SPARSE_SPEEDUP_FLOOR}x acceptance floor (pair ratios "
            f"{[round(r, 2) for r in pair_ratios]})"
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
        "version": 5,
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
        "pairs": PAIRS,
        # Median wall time per tier, and each pair's dense/sparse ratio.
        "tiers": {
            kernels.DENSE: statistics.median(timings[kernels.DENSE]),
            kernels.SPARSE: statistics.median(timings[kernels.SPARSE]),
        },
        "pair_ratios": pair_ratios,
        "speedup_sparse_over_dense": sparse_speedup,
        "auto_kernel": kernels.choose_kernel(n, nnz, num_reads=NUM_READS),
        "samples_identical": True,
    })
