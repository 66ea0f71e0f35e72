"""Pinned sample digests: the samplers' output contract.

Every solver is seed-deterministic, and the sweep-kernel tiers and
pool widths that share an outcome must keep sharing it.
Each case below pins a 16-hex sha256 digest of a sample set's variable
order, records and energies at a fixed seed.  A refactor of the
sampling paths must leave every digest unchanged; a change that alters
what a seed samples re-pins them together, in one reviewed change.

Energies are hashed rounded to 1e-9 so the digests hold on any BLAS;
the records and their order are hashed exactly.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core.compiler import VerilogAnnealerCompiler
from repro.ising.model import IsingModel
from repro.solvers.greedy import SteepestDescentSolver
from repro.solvers.machine import DWaveSimulator, MachineProperties
from repro.solvers.neal import SimulatedAnnealingSampler
from repro.solvers.qbsolv import QBSolv
from repro.solvers.shard import ShardSolver
from repro.solvers.sqa import PathIntegralAnnealer
from repro.solvers.tabu import TabuSampler

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(__file__)), "examples")


def _digest(sampleset):
    digest = hashlib.sha256()
    digest.update(json.dumps([str(v) for v in sampleset.variables]).encode())
    digest.update(np.ascontiguousarray(sampleset.records, dtype=np.int8).tobytes())
    energies = np.round(np.asarray(sampleset.energies, dtype=float), 9) + 0.0
    digest.update(json.dumps([repr(float(e)) for e in energies]).encode())
    return digest.hexdigest()[:16]


def _sparse_model(n=80, seed=7):
    """Random and sparse: wide read batches auto-select the sparse tier."""
    rng = np.random.default_rng(seed)
    model = IsingModel()
    for i in range(n):
        model.add_variable(i, float(rng.normal(0, 0.5)))
        model.add_interaction(i, (i + 1) % n, float(rng.choice([-1.0, 1.0])))
    for _ in range(n):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            model.add_interaction(int(u), int(v), float(rng.normal(0, 0.5)))
    return model


def _ring_model(n, seed):
    rng = np.random.default_rng(seed)
    model = IsingModel()
    for i in range(n):
        model.add_variable(i, float(rng.normal(0, 0.3)))
        model.add_interaction(i, (i + 1) % n, float(rng.choice([-1.0, 1.0])))
    return model


# ----------------------------------------------------------------------
# Software samplers, on every sweep-kernel tier
# ----------------------------------------------------------------------
SAMPLERS = {
    "sa": lambda kernel: SimulatedAnnealingSampler(seed=42).sample(
        _sparse_model(), num_reads=8, num_sweeps=30, kernel=kernel
    ),
    "sqa": lambda kernel: PathIntegralAnnealer(seed=42).sample(
        _sparse_model(), num_reads=4, num_sweeps=15, trotter_slices=4,
        kernel=kernel,
    ),
    "tabu": lambda kernel: TabuSampler(seed=42).sample(
        _sparse_model(), num_reads=4, max_iter=150, kernel=kernel
    ),
    "greedy": lambda kernel: SteepestDescentSolver(seed=42).sample(
        _sparse_model(), num_reads=8, kernel=kernel
    ),
}

SAMPLER_DIGESTS = {
    "sa": "169db7e414fd8ba4",
    "sqa": "36f489b1071a4586",
    "tabu": "66e52f4e5c1bff84",
    "greedy": "15f1fdb90495a606",
}


@pytest.mark.parametrize("kernel", [None, "dense", "sparse"])
@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_pinned_sampler_digests(name, kernel):
    """Auto-selected, dense and sparse tiers all sample the pinned set."""
    assert _digest(SAMPLERS[name](kernel)) == SAMPLER_DIGESTS[name]


# ----------------------------------------------------------------------
# The simulated machine, with and without spin-reversal gauges
# ----------------------------------------------------------------------
def _machine_problem():
    props = MachineProperties(cells=4, dropout_fraction=0.0)
    machine = DWaveSimulator(properties=props, seed=11)
    model = IsingModel()
    for u, v in list(machine.working_graph.edges())[:12]:
        model.add_variable(u, 0.25)
        model.add_variable(v, -0.25)
        model.add_interaction(u, v, -1.0)
    return props, model


@pytest.mark.parametrize(
    "gauges, digest",
    [
        (0, "a1c241c167bfaf0d"),
        (1, "73354d082455eecb"),
        (4, "4bcb83537109ed8b"),
    ],
)
def test_pinned_machine_digests(gauges, digest):
    props, model = _machine_problem()
    result = DWaveSimulator(properties=props, seed=11).sample_ising(
        model, num_reads=12, num_spin_reversal_transforms=gauges
    )
    assert _digest(result) == digest


# ----------------------------------------------------------------------
# Decomposing solvers: pool widths share one outcome
# ----------------------------------------------------------------------
QBSOLV_DIGEST = "97462c9cea1fbd82"


@pytest.mark.parametrize("workers", [None, 2])
def test_pinned_qbsolv_digest(workers):
    result = QBSolv(subproblem_size=16, seed=5).sample(
        _sparse_model(40, seed=9), num_repeats=4, num_reads=3,
        max_workers=workers,
    )
    assert _digest(result) == QBSOLV_DIGEST


SHARD_DIGEST = "51b0948af6cc8495"


@pytest.mark.parametrize("workers", [1, None])
def test_pinned_shard_digests(workers):
    props = MachineProperties(cells=2, dropout_fraction=0.0)
    solver = ShardSolver(
        properties=props, machines=4, seed=7, num_reads_per_shard=2,
    )
    result = solver.sample(_ring_model(48, seed=2), num_reads=2, max_workers=workers)
    assert _digest(result) == SHARD_DIGEST


def test_pinned_shard_checkpoint_fingerprint():
    """Checkpoints written by an earlier run of this setup still resume."""
    props = MachineProperties(cells=2, dropout_fraction=0.0)
    solver = ShardSolver(
        properties=props, machines=4, seed=7, num_reads_per_shard=2,
    )
    assert solver._run_fingerprint(_ring_model(48, seed=2), 2) == (
        "cd7786686e890a7088711ae94dcce98c0368fed6ec122079b7c02c45266e407c"
    )


# ----------------------------------------------------------------------
# End to end: Listing 7 map colouring, certified
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def map_coloring_source():
    with open(os.path.join(EXAMPLES, "map_coloring.v")) as handle:
        return handle.read()


@pytest.mark.parametrize(
    "solver, num_reads, digest, certified",
    [
        ("sa", 40, "615b7950a74c6933", 18),
        ("dwave", 40, "93a47de14aa0e427", 10),
        ("qbsolv", 4, "231dd3624197ee32", 0),
    ],
)
def test_pinned_map_coloring_runs(
    map_coloring_source, solver, num_reads, digest, certified
):
    # A fresh compiler per run: the machine's RNG advances across runs.
    result = VerilogAnnealerCompiler(seed=3, cache=False).run(
        map_coloring_source, pins=["valid := true"], solver=solver,
        num_reads=num_reads, certify=True,
    )
    assert (_digest(result.sampleset), result.certificate.certified_reads) == (
        digest,
        certified,
    )
