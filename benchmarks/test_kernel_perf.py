"""Sweep-kernel performance: the native, dense and sparse tiers.

The paper's methodology (Section 5.4) amortizes overhead over thousands
of reads, which only pays if each read is cheap.  This benchmark anneals
the Section 6 map-coloring Hamiltonian, minor-embedded onto a pristine
Chimera C16 (the 2000Q working graph, degree <= 6), at 1000 reads and
times all three kernel tiers:

* ``dense``  -- the pre-kernel-refactor cost model (every flip updates
  all n local-field columns);
* ``sparse`` -- the CSR neighbor-list kernel (flip cost O(deg));
* ``native`` -- the same sweep as ``sparse`` in one C call per sweep,
  with numpy still drawing each sweep's permutation and uniforms.

The run times ``ROUNDS`` rounds of anneals, one per tier, rotating
which tier goes first, and gates on the medians of the per-round
dense-over-sparse and sparse-over-native time ratios -- one slow run
on a busy machine moves a single round, not the verdict.  Every run's
samples, smoke runs included, are asserted bit-identical to the first
dense run's (the exactness criterion).  The median sparse speedup must
be at least 5x and the median native speedup over sparse at least
2.5x.  The committed ``BENCH_kernels.json`` at the repo root is the
**regression baseline**: a full run compares both median speedups
against the stored ones with a 20% tolerance band (absolute wall times
are machine-specific, so only the ratios gate).  The file is rewritten
only once every gate has passed, so a failing run never moves the
baseline it is judged against (see ``_trajectory.py``).

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
#: Timed rounds (one anneal per tier each); the gates read their medians.
ROUNDS = 1 if SMOKE else 5
TIERS = (kernels.DENSE, kernels.SPARSE, kernels.NATIVE)
#: Acceptance floor on this machine's own sparse-over-dense ratio.
SPARSE_SPEEDUP_FLOOR = 5.0
#: Acceptance floor on the native-over-sparse ratio.  numpy's per-sweep
#: draw is about half of native time at this size; a run where the
#: native tier did not run reads about 1x.
NATIVE_SPEEDUP_FLOOR = 2.5


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


def _assert_same_samples(reference, result):
    # Exactness at scale, on every run: the tiers must be
    # sample-for-sample interchangeable, not merely statistically
    # equivalent.
    np.testing.assert_array_equal(reference.records, result.records)
    np.testing.assert_array_equal(reference.energies, result.energies)


def test_kernel_tiers_speedup_on_embedded_mapcolor():
    logical, physical = _embedded_mapcolor_model()
    order, _, indptr, indices, _ = physical.to_csr()
    n = len(order)
    nnz = len(indices)

    timings = {tier: [] for tier in TIERS}
    reference = None
    for round_index in range(ROUNDS):
        shift = round_index % len(TIERS)
        for tier in TIERS[shift:] + TIERS[:shift]:
            elapsed, result = _time_kernel(physical, tier)
            timings[tier].append(elapsed)
            if reference is None:
                reference = result
            _assert_same_samples(reference, result)
    # Auto-selection runs the native tier, with the same samples.
    _, auto = _time_kernel(physical, None)
    _assert_same_samples(reference, auto)

    def ratios(slow, fast):
        return [
            s / f if f > 0 else float("inf")
            for s, f in zip(timings[slow], timings[fast])
        ]

    round_ratios = {
        "sparse_over_dense": ratios(kernels.DENSE, kernels.SPARSE),
        "native_over_sparse": ratios(kernels.SPARSE, kernels.NATIVE),
    }
    sparse_speedup = statistics.median(round_ratios["sparse_over_dense"])
    native_speedup = statistics.median(round_ratios["native_over_sparse"])
    medians = {tier: statistics.median(timings[tier]) for tier in TIERS}
    print(
        f"\nkernel_perf: n={n} nnz={nnz} reads={NUM_READS} "
        + " ".join(f"{tier}={medians[tier]:.3f}s" for tier in TIERS)
        + " round_ratios="
        + str({k: [round(r, 2) for r in v] for k, v in round_ratios.items()})
        + f" sparse_speedup={sparse_speedup:.1f}x"
        f" native_speedup={native_speedup:.1f}x (medians of {ROUNDS})"
        f" auto={auto.info['kernel']}"
    )

    # The numpy crossover sends the embedded problem's wide read batches
    # to the sparse tier; auto-selection runs native above it.
    assert kernels.choose_kernel(n, nnz, num_reads=NUM_READS) == kernels.SPARSE
    assert auto.info["kernel"] == kernels.NATIVE
    if not SMOKE:
        # Absolute floors on this machine.
        assert sparse_speedup >= SPARSE_SPEEDUP_FLOOR, (
            f"median sparse kernel speedup {sparse_speedup:.2f}x below the "
            f"{SPARSE_SPEEDUP_FLOOR}x acceptance floor (round ratios "
            f"{[round(r, 2) for r in round_ratios['sparse_over_dense']]})"
        )
        assert native_speedup >= NATIVE_SPEEDUP_FLOOR, (
            f"median native speedup over sparse {native_speedup:.2f}x below "
            f"the {NATIVE_SPEEDUP_FLOOR}x acceptance floor (round ratios "
            f"{[round(r, 2) for r in round_ratios['native_over_sparse']]})"
        )
        # Trajectory gates vs the committed baseline (ratios only --
        # wall times are machine-specific).
        baseline = load_baseline("kernels", "tiers")
        if baseline is not None:
            gate_ratio(
                "kernels",
                "sparse-over-dense speedup",
                sparse_speedup,
                baseline.get("speedup_sparse_over_dense"),
            )
            gate_ratio(
                "kernels",
                "native-over-sparse speedup",
                native_speedup,
                baseline.get("speedup_native_over_sparse"),
            )

    write_results("kernels", {
        "benchmark": "kernel_perf",
        "version": 6,
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
        "rounds": ROUNDS,
        # Median wall time per tier, and each round's time ratios.
        "tiers": medians,
        "round_ratios": round_ratios,
        "speedup_sparse_over_dense": sparse_speedup,
        "speedup_native_over_sparse": native_speedup,
        # The tier an auto-selected anneal ran.
        "auto_kernel": auto.info["kernel"],
        "samples_identical": True,
    })
