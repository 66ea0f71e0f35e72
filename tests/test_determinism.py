"""Seed-determinism suite: every solver must be bit-reproducible.

Three invariants, per the sparse-kernel acceptance criteria:

1. a fixed seed yields bit-identical SampleSets across runs;
2. the dense and sparse sweep kernels are sample-for-sample identical
   (they share the accept logic and per-sweep RNG draw order; the
   dense field update only adds exact zeros where the sparse one
   touches nothing);
3. ``max_workers > 1`` (process-pool qbsolv reads / shard rounds) is
   bit-identical to serial, because every seed is drawn in the parent
   RNG before dispatch.
"""

import numpy as np
import pytest

from repro.ising.model import IsingModel
from repro.solvers.greedy import SteepestDescentSolver
from repro.solvers.machine import DWaveSimulator, MachineProperties
from repro.solvers.neal import SimulatedAnnealingSampler
from repro.solvers.qbsolv import QBSolv
from repro.solvers.sqa import PathIntegralAnnealer
from repro.solvers.tabu import TabuSampler


def _sparse_model(n=80, seed=7):
    """A random sparse model big enough to auto-select the sparse kernel."""
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


def _assert_identical(a, b):
    assert list(a.variables) == list(b.variables)
    np.testing.assert_array_equal(a.records, b.records)
    np.testing.assert_array_equal(a.energies, b.energies)


SOLVERS = {
    "neal": lambda seed, kernel: SimulatedAnnealingSampler(seed=seed).sample(
        _sparse_model(), num_reads=8, num_sweeps=30, kernel=kernel
    ),
    "sqa": lambda seed, kernel: PathIntegralAnnealer(seed=seed).sample(
        _sparse_model(),
        num_reads=4,
        num_sweeps=15,
        trotter_slices=4,
        kernel=kernel,
    ),
    "tabu": lambda seed, kernel: TabuSampler(seed=seed).sample(
        _sparse_model(), num_reads=4, max_iter=150, kernel=kernel
    ),
    "greedy": lambda seed, kernel: SteepestDescentSolver(seed=seed).sample(
        _sparse_model(), num_reads=8, kernel=kernel
    ),
}


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_fixed_seed_is_bit_reproducible(name):
    run = SOLVERS[name]
    _assert_identical(run(123, None), run(123, None))


@pytest.mark.parametrize("name", sorted(SOLVERS))
@pytest.mark.parametrize("kernel", ["sparse"])
def test_kernel_tiers_identical(name, kernel):
    run = SOLVERS[name]
    dense = run(42, "dense")
    assert dense.info.get("kernel", "dense") == "dense"
    other = run(42, kernel)
    _assert_identical(dense, other)
    assert other.info.get("kernel", kernel) == kernel


def test_auto_kernel_selects_sparse_on_embedded_scale_model():
    # Wide read batches at embedded scale leave the dense einsum's
    # comfort zone; narrow ones (num_reads <= DENSE_MAX_BATCH_READS)
    # stay dense because the batched row update amortizes poorly.
    wide = SimulatedAnnealingSampler(seed=0).sample(
        _sparse_model(), num_reads=8, num_sweeps=5
    )
    assert wide.info["kernel"] == "sparse"
    narrow = SimulatedAnnealingSampler(seed=0).sample(
        _sparse_model(), num_reads=2, num_sweeps=5
    )
    assert narrow.info["kernel"] == "dense"


# ----------------------------------------------------------------------
# The machine and the parallel outer loops
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


@pytest.mark.parametrize("kernel", ["sparse"])
def test_machine_kernel_tiers_identical(kernel):
    props, model = _machine_problem()

    def run(tier):
        return DWaveSimulator(properties=props, seed=11).sample_ising(
            model, num_reads=6, kernel=tier
        )

    _assert_identical(run("dense"), run(kernel))


def test_machine_same_seed_reproducible():
    props, model = _machine_problem()
    first = DWaveSimulator(properties=props, seed=3).sample_ising(
        model, num_reads=10, num_spin_reversal_transforms=2
    )
    second = DWaveSimulator(properties=props, seed=3).sample_ising(
        model, num_reads=10, num_spin_reversal_transforms=2
    )
    _assert_identical(first, second)


def test_qbsolv_parallel_reads_identical_to_serial():
    model = _sparse_model(40, seed=9)
    serial = QBSolv(subproblem_size=16, seed=5).sample(
        model, num_repeats=4, num_reads=3
    )
    pooled = QBSolv(subproblem_size=16, seed=5).sample(
        model, num_repeats=4, num_reads=3, max_workers=2
    )
    _assert_identical(serial, pooled)


# ----------------------------------------------------------------------
# Cross-topology determinism: every hardware family, same guarantees
# ----------------------------------------------------------------------
def _topology_problem(topology, cells):
    props = MachineProperties(
        topology=topology, cells=cells, dropout_fraction=0.0
    )
    machine = DWaveSimulator(properties=props, seed=11)
    model = IsingModel()
    # Small per-edge biases: dense families (Zephyr degree 20) revisit
    # the same node across the edge slice, and the accumulated field
    # must stay inside the machine's h_range.
    for u, v in list(machine.working_graph.edges())[:12]:
        model.add_variable(u, 0.05)
        model.add_variable(v, -0.05)
        model.add_interaction(u, v, -1.0)
    return props, model


@pytest.mark.parametrize(
    "topology,cells", [("chimera", 4), ("pegasus", 3), ("zephyr", 2)]
)
def test_machine_same_seed_reproducible_per_topology(topology, cells):
    props, model = _topology_problem(topology, cells)
    first = DWaveSimulator(properties=props, seed=3).sample_ising(
        model, num_reads=10, num_spin_reversal_transforms=2
    )
    second = DWaveSimulator(properties=props, seed=3).sample_ising(
        model, num_reads=10, num_spin_reversal_transforms=2
    )
    _assert_identical(first, second)
    assert first.info["topology"] == second.info["topology"]


def test_shard_parallel_dispatch_identical_to_serial():
    from repro.solvers.shard import ShardSolver

    rng = np.random.default_rng(2)
    model = IsingModel()
    for i in range(48):
        model.add_variable(i, float(rng.normal(0, 0.3)))
        model.add_interaction(i, (i + 1) % 48, float(rng.choice([-1.0, 1.0])))
    props = MachineProperties(cells=2, dropout_fraction=0.0)

    def run(workers):
        return ShardSolver(
            properties=props, machines=4, seed=7, num_reads_per_shard=8
        ).sample(model, num_reads=2, max_workers=workers)

    _assert_identical(run(1), run(4))
