"""Sharded-decomposition scaling: past the C16 ceiling on a fleet.

The paper's toolchain targets one 2000Q: a C16 working graph embeds at
most a few hundred logical variables (Section 6.1 measures ~3.7
physical qubits per logical variable), so larger netlists simply do not
fit.  This benchmark drives :class:`repro.solvers.shard.ShardSolver`
over planted-ground-state problems from well under one chip's capacity
to several times it, recording for each size the shard count, wall time
(serial vs pooled dispatch), and the stitched incumbent's energy
against the planted optimum.

Results are persisted to ``BENCH_decompose.json`` at the repo root,
once every check below has passed.  Smoke mode
(``REPRO_BENCH_SMOKE=1``) shrinks the fleet's chips and the problem
ladder so CI finishes in seconds and writes the git-ignored
``BENCH_decompose.smoke.json`` instead; smoke still asserts the
serial/pooled bit-identity and the quality floor on the largest
problem.  There is no speedup assertion at all, because pool wins
depend on core count.

Reproduce the numbers with::

    PYTHONPATH=src python -m pytest benchmarks/test_decompose_perf.py -s -q
"""

from __future__ import annotations

import time

import numpy as np

from repro.ising.model import IsingModel
from repro.solvers.machine import DWaveSimulator, MachineProperties
from repro.solvers.shard import ShardSolver

from _trajectory import SMOKE, write_results

#: The fleet's chip: smoke uses C2 (32 qubits) so the ladder tops out
#: quickly; the full run uses C4 chips against problems up to ~6x their
#: logical capacity.
CELLS = 2 if SMOKE else 4
MACHINES = 4
#: Problem sizes as multiples of one chip's logical-variable capacity.
CAPACITY_MULTIPLES = (0.5, 2, 6) if SMOKE else (0.5, 1, 2, 4, 6)
NUM_READS_PER_SHARD = 8 if SMOKE else 25

C16_QUBITS = 2048
#: Section 6.1's measured physical-per-logical ratio on Chimera.
CHAIN_COST = 4


def _planted_model(n: int, seed: int):
    """A planted-optimum instance shaped like a compiled netlist."""
    rng = np.random.default_rng(seed)
    planted = rng.choice([-1, 1], size=n)
    model = IsingModel()
    for i in range(n):
        model.add_variable(i, -0.25 * float(planted[i]))
    for i in range(n - 1):
        model.add_interaction(i, i + 1, -float(planted[i] * planted[i + 1]))
    for _ in range(n // 2):
        i, j = rng.choice(n, size=2, replace=False)
        model.add_interaction(int(i), int(j), -float(planted[i] * planted[j]))
    ground = model.energy({i: int(planted[i]) for i in range(n)})
    return model, ground


def _solver(seed: int = 3) -> ShardSolver:
    return ShardSolver(
        properties=MachineProperties(cells=CELLS, dropout_fraction=0.0),
        machines=MACHINES,
        seed=seed,
        num_reads_per_shard=NUM_READS_PER_SHARD,
    )


def test_sharded_decomposition_scaling():
    chip = DWaveSimulator(
        properties=MachineProperties(cells=CELLS, dropout_fraction=0.0)
    )
    capacity = chip.num_qubits // CHAIN_COST
    rows = []
    for multiple in CAPACITY_MULTIPLES:
        n = max(4, int(capacity * multiple))
        model, ground = _planted_model(n, seed=n)

        start = time.perf_counter()
        serial = _solver().sample(model, num_reads=1, max_workers=1)
        serial_s = time.perf_counter() - start

        start = time.perf_counter()
        pooled = _solver().sample(model, num_reads=1, max_workers=MACHINES)
        pooled_s = time.perf_counter() - start

        # Exactness: dispatch order must never change the answer.
        np.testing.assert_array_equal(serial.records, pooled.records)

        best = float(serial.first.energy)
        rows.append({
            "logical_variables": n,
            "capacity_multiple": round(n / capacity, 2),
            "c16_capacity_multiple": round(
                n / (C16_QUBITS // CHAIN_COST), 4
            ),
            "shards": serial.info["shards"],
            "rounds": serial.info["rounds"],
            "serial_seconds": round(serial_s, 4),
            "pooled_seconds": round(pooled_s, 4),
            "stitched_energy": best,
            "planted_energy": float(ground),
            "energy_gap": round(best - ground, 6),
            "reached_ground": bool(abs(best - ground) < 1e-9),
        })
        print(
            f"n={n:4d} ({n / capacity:.1f}x chip) shards={rows[-1]['shards']:2d} "
            f"serial={serial_s:6.2f}s pooled={pooled_s:6.2f}s "
            f"gap={rows[-1]['energy_gap']:g}"
        )

    # Quality floor: the over-capacity problems must stitch down to (or
    # within a whisker of) the planted optimum -- decomposition that
    # fans out but cannot land the ground state is not breaking any
    # ceiling, just burning machines.
    over_capacity = [r for r in rows if r["capacity_multiple"] >= 2]
    assert over_capacity, "ladder must exercise the over-capacity regime"
    assert any(r["reached_ground"] for r in over_capacity)
    largest = rows[-1]
    assert largest["energy_gap"] <= abs(largest["planted_energy"]) * 0.02

    write_results("decompose", {
        "benchmark": "decompose_perf",
        "smoke": SMOKE,
        "fleet": {
            "machines": MACHINES,
            "chimera_cells": CELLS,
            "chip_qubits": chip.num_qubits,
            "chip_logical_capacity": capacity,
            "chain_cost_model": CHAIN_COST,
            "c16_logical_capacity": C16_QUBITS // CHAIN_COST,
            "num_reads_per_shard": NUM_READS_PER_SHARD,
        },
        "results": rows,
    })
