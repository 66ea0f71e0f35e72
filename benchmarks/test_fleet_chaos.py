"""Fleet chaos: throughput and quality while machines die under load.

The sharded decomposer (:class:`repro.solvers.shard.ShardSolver`)
promises that losing machines degrades *throughput*, never *answers*:
orphaned shards are re-dispatched deterministically, so a fleet with
crashed members still completes 100% of its shards and still stitches
down to the planted optimum.  This benchmark drives a 4-machine
heterogeneous fleet (Chimera, Pegasus, and Zephyr chips side by side)
over a planted problem ~4x one chip's logical capacity while crashing
0, 1, and 2 machines at dispatch time, recording for each scenario the
reads/second, the stitched energy against the planted optimum, and the
fleet's re-dispatch/quarantine bookkeeping.

Gates (all scenarios):

* shard completion is exactly 1.0 -- a crash may orphan a shard but
  the round must re-place it on a surviving machine;
* the stitched energy lands within 2% of the planted optimum.

The crash seed comes from ``REPRO_FAULT_SEED`` (CI runs a matrix of
them); once every gate has passed, results are persisted to
``BENCH_fleet.json`` at the repo root.  Smoke mode
(``REPRO_BENCH_SMOKE=1``) shrinks the chips (C2/P2/Z2) and the read
count so CI finishes in seconds, and writes the git-ignored
``BENCH_fleet.smoke.json`` instead.

Reproduce the numbers with::

    PYTHONPATH=src python -m pytest benchmarks/test_fleet_chaos.py -s -q
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.ising.model import IsingModel
from repro.solvers.shard import ShardSolver

from _trajectory import SMOKE, write_results

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "7"))
SIZE = 2 if SMOKE else 4
#: Four machines, three topology families: re-dispatch must cope with
#: per-class embeddings, not just identical spares.
FLEET = f"C{SIZE},C{SIZE},P{SIZE},Z{SIZE}"
NUM_READS = 2 if SMOKE else 4
NUM_READS_PER_SHARD = 8 if SMOKE else 25
CAPACITY_MULTIPLE = 4
#: Crash on the very first dispatch: the machine never serves a shard,
#: so every shard placed on it is orphaned and must be re-dispatched.
SCENARIOS = (
    ("lost_0", None),
    ("lost_1", "machine_crash=1:1"),
    ("lost_2", "machine_crash=1:1+2:1"),
)


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


def _solver(faults: str | None) -> ShardSolver:
    spec = faults if faults is None else f"{faults},seed={FAULT_SEED}"
    return ShardSolver(
        fleet=FLEET,
        seed=3,
        num_reads_per_shard=NUM_READS_PER_SHARD,
        faults=spec,
    )


def test_fleet_chaos_matrix():
    probe = _solver(None)
    capacity = probe.chip_qubits // 4  # the Section 6.1 chain-cost ratio
    n = capacity * CAPACITY_MULTIPLE
    model, ground = _planted_model(n, seed=n)

    rows = []
    for name, faults in SCENARIOS:
        start = time.perf_counter()
        result = _solver(faults).sample(
            model, num_reads=NUM_READS, max_workers=1
        )
        elapsed = time.perf_counter() - start
        info = result.info
        best = float(result.first.energy)
        fleet = info["fleet"]
        rows.append({
            "scenario": name,
            "faults": faults,
            "machines_lost": len(fleet["crashed"]),
            "reads": info["num_reads"],
            "seconds": round(elapsed, 4),
            "reads_per_second": round(info["num_reads"] / elapsed, 4),
            "shards_dispatched": info["shards_dispatched"],
            "shard_completion": info["shard_completion"],
            "redispatches": info["redispatches"],
            "quarantined": fleet["quarantined"],
            "crashed": fleet["crashed"],
            "stitched_energy": best,
            "planted_energy": float(ground),
            "energy_gap": round(best - ground, 6),
            "reached_ground": bool(abs(best - ground) < 1e-9),
        })
        print(
            f"{name}: crashed={fleet['crashed']} "
            f"redispatches={info['redispatches']} "
            f"completion={info['shard_completion']:.2f} "
            f"{rows[-1]['reads_per_second']:.2f} reads/s "
            f"gap={rows[-1]['energy_gap']:g}"
        )

    # Gate 1: losing machines must never lose shards.  Every dispatched
    # shard completes (on its original machine or a re-dispatch target).
    for row in rows:
        assert row["shard_completion"] == 1.0, row
    # Gate 2: the crash scenarios actually lost the machines they claim.
    assert [r["machines_lost"] for r in rows] == [0, 1, 2]
    assert rows[1]["redispatches"] >= 1
    assert rows[2]["redispatches"] >= 2
    # Gate 3: quality floor -- degraded fleets still stitch to (or
    # within a whisker of) the planted optimum.
    for row in rows:
        assert row["energy_gap"] <= abs(row["planted_energy"]) * 0.02, row

    write_results("fleet", {
        "benchmark": "fleet_chaos",
        "smoke": SMOKE,
        "fault_seed": FAULT_SEED,
        "fleet": {
            "spec": FLEET,
            "machines": len(probe.fleet),
            "chip_qubits": probe.chip_qubits,
            "chip_logical_capacity": capacity,
            "num_reads_per_shard": NUM_READS_PER_SHARD,
        },
        "problem": {
            "logical_variables": n,
            "capacity_multiple": CAPACITY_MULTIPLE,
        },
        "results": rows,
    })
