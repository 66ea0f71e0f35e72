"""Sweep-kernel performance: the two tiers plus batching.

The paper's methodology (Section 5.4) amortizes overhead over thousands
of reads, which only pays if each read is cheap.  This benchmark anneals
the Section 6 map-coloring Hamiltonian, minor-embedded onto a pristine
Chimera C16 (the 2000Q working graph, degree <= 6), at 1000 reads and
times both kernel tiers:

* ``dense``  -- the pre-kernel-refactor cost model (every flip updates
  all n local-field columns);
* ``sparse`` -- the CSR neighbor-list kernel (flip cost O(deg)).

A second benchmark times cross-problem batching: 8 small independent
problems annealed sequentially vs. packed into one
:class:`~repro.solvers.batch.BatchedSweepJob` invocation.

Results are persisted to ``BENCH_kernels.json`` at the repo root.  The
committed file doubles as a **regression baseline**: when it holds
full-scale numbers, the run compares its relative speedups against the
stored ones with a 20% tolerance band -- a regression beyond the band
fails the test, while improvements pass and auto-refresh the file (the
absolute wall times are machine-specific, so only ratios gate).  Both
tiers' samples are also asserted bit-identical (the exactness
criterion).

Set ``REPRO_BENCH_SMOKE=1`` to run a scaled-down model (C8, 50 reads);
smoke runs still write the JSON and check exactness but skip every
timing gate, so CI jitter can never block a merge.

Reproduce the numbers with::

    PYTHONPATH=src python -m pytest benchmarks/test_kernel_perf.py -s -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.mapcolor import unary_map_coloring_model
from repro.hardware.chimera import chimera_graph
from repro.hardware.embedding import embed_ising, find_embedding, source_graph_of
from repro.ising.model import IsingModel
from repro.solvers import kernels
from repro.solvers.batch import BatchedSweepJob
from repro.solvers.neal import SimulatedAnnealingSampler

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
# Smoke keeps the same logical problem but embeds into a C8 (a C4 is too
# small for the 28-variable coloring graph) with a fraction of the reads.
CELLS = 8 if SMOKE else 16
NUM_READS = 50 if SMOKE else 1000
NUM_SWEEPS = 8 if SMOKE else 32
REPEATS = 1 if SMOKE else 3
#: Acceptance floors on this machine's own ratios.
SPARSE_SPEEDUP_FLOOR = 5.0  # sparse vs dense
BATCH_GAIN_FLOOR = 2.0  # packed vs sequential dispatch
#: Regression band vs the committed baseline's ratios: a new ratio may
#: drop to 80% of the stored one before the gate trips.
REGRESSION_TOLERANCE = 0.20
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

BATCH_PROBLEMS = 8
BATCH_VARIABLES = 16 if SMOKE else 48
BATCH_READS = 10 if SMOKE else 25
BATCH_SWEEPS = 8 if SMOKE else 64


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


def _small_problems():
    """BATCH_PROBLEMS independent ring models, service-traffic sized."""
    problems = []
    for p in range(BATCH_PROBLEMS):
        rng = np.random.default_rng(100 + p)
        model = IsingModel()
        n = BATCH_VARIABLES
        for i in range(n):
            model.add_variable(i, float(rng.normal(0, 0.5)))
            model.add_interaction(
                i, (i + 1) % n, float(rng.choice([-1.0, 1.0]))
            )
        problems.append(model)
    return problems


def _load_baseline():
    """The committed baseline, when it can gate: full-scale, new schema."""
    if SMOKE or not RESULT_PATH.exists():
        return None
    try:
        baseline = json.loads(RESULT_PATH.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if baseline.get("smoke") or "tiers" not in baseline:
        return None
    return baseline


def _gate_ratio(name, new, old):
    """Fail on a regression beyond the band; improvements always pass."""
    if old is None or new is None:
        return
    floor = old * (1.0 - REGRESSION_TOLERANCE)
    assert new >= floor, (
        f"{name} regressed: {new:.2f}x vs committed baseline {old:.2f}x "
        f"(tolerance floor {floor:.2f}x) -- investigate before refreshing "
        f"BENCH_kernels.json"
    )


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

    # --- cross-problem batching ------------------------------------
    problems = _small_problems()
    sequential_start = time.perf_counter()
    for p, model in enumerate(problems):
        SimulatedAnnealingSampler(seed=100 + p).sample(
            model, num_reads=BATCH_READS, num_sweeps=BATCH_SWEEPS
        )
    sequential_s = time.perf_counter() - sequential_start
    job = BatchedSweepJob(seed=100)
    for model in problems:
        job.add(model, num_reads=BATCH_READS)
    batched_start = time.perf_counter()
    job.run(num_sweeps=BATCH_SWEEPS)
    batched_s = time.perf_counter() - batched_start
    batch_gain = sequential_s / batched_s if batched_s > 0 else float("inf")

    baseline = _load_baseline()
    payload = {
        "benchmark": "kernel_perf",
        "version": 3,
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
        "batched": {
            "problems": BATCH_PROBLEMS,
            "variables": BATCH_VARIABLES,
            "num_reads": BATCH_READS,
            "num_sweeps": BATCH_SWEEPS,
            "sequential_s": sequential_s,
            "batched_s": batched_s,
            "throughput_gain": batch_gain,
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nkernel_perf: n={n} nnz={nnz} reads={NUM_READS} "
        f"dense={timings[kernels.DENSE]:.3f}s "
        f"sparse={timings[kernels.SPARSE]:.3f}s "
        f"sparse_speedup={sparse_speedup:.1f}x "
        f"batch_gain={batch_gain:.1f}x"
    )

    # The embedded problem must auto-select the sparse tier for wide
    # read batches.
    assert kernels.choose_kernel(n, nnz, num_reads=NUM_READS) == kernels.SPARSE
    if SMOKE:
        return

    # Absolute floors on this machine.
    assert sparse_speedup >= SPARSE_SPEEDUP_FLOOR, (
        f"sparse kernel speedup {sparse_speedup:.2f}x below the "
        f"{SPARSE_SPEEDUP_FLOOR}x acceptance floor"
    )
    assert batch_gain >= BATCH_GAIN_FLOOR, (
        f"batched throughput gain {batch_gain:.2f}x below the "
        f"{BATCH_GAIN_FLOOR}x acceptance floor "
        f"(sequential {sequential_s:.3f}s, batched {batched_s:.3f}s)"
    )

    # Trajectory gate vs the committed baseline (ratios only -- wall
    # times are machine-specific).  Improvements refreshed the file
    # above; regressions beyond the band fail here.
    if baseline is not None:
        _gate_ratio(
            "sparse-over-dense speedup",
            sparse_speedup,
            baseline.get("speedup_sparse_over_dense"),
        )
        _gate_ratio(
            "batched throughput gain",
            batch_gain,
            (baseline.get("batched") or {}).get("throughput_gain"),
        )
