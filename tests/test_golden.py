"""Pinned digests: the compile path's and the samplers' output contract.

The compile path is deterministic: a design's EDIF text, its QMASM
source and its logical Ising model are pinned as 16-hex sha256 digests
for four designs, so a rewrite of the EDIF writer, the S-expression
reader or the QMASM emitter must reproduce them byte for byte.

Every solver is seed-deterministic, and the sweep-kernel tiers and
pool widths that share an outcome must keep sharing it.
Each sampler case below pins a 16-hex sha256 digest of a sample set's
variable order, records and energies at a fixed seed.  A refactor of
the sampling paths must leave every digest unchanged; a change that
alters what a seed samples re-pins them together, in one reviewed
change.

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
from repro.solvers import kernels
from repro.solvers.greedy import SteepestDescentSolver
from repro.solvers.machine import DWaveSimulator, MachineProperties
from repro.solvers.neal import SimulatedAnnealingSampler
from repro.solvers.qbsolv import QBSolv
from repro.solvers.shard import ShardSolver
from repro.solvers.sqa import PathIntegralAnnealer
from repro.solvers.tabu import TabuSampler
from tests.conftest import require_native_tier

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


def test_pinned_sa_digest_on_native_tier():
    """The native tier, which only ``sa`` runs, samples the pinned set."""
    require_native_tier()
    assert _digest(SAMPLERS["sa"]("native")) == SAMPLER_DIGESTS["sa"]


def test_pinned_sa_digest_when_native_build_fails(tmp_path, monkeypatch):
    """A source that does not compile leaves auto ``sa`` on numpy, same set."""
    broken = tmp_path / "broken.c"
    broken.write_text("int repro_metropolis_sweep(void) { return }\n")
    monkeypatch.setattr(kernels, "NATIVE_SOURCE", str(broken))
    monkeypatch.setattr(kernels, "_native_state", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with pytest.warns(RuntimeWarning, match="native Metropolis tier unavailable") as caught:
        result = SAMPLERS["sa"](None)
        reason = kernels.native_unavailable_reason()
    warned = [w for w in caught if w.category is RuntimeWarning]
    assert len(warned) == 1 and reason in str(warned[0].message)
    assert reason and "\n" not in reason
    assert _digest(result) == SAMPLER_DIGESTS["sa"]
    assert result.info["kernel"] in ("dense", "sparse")
    with pytest.raises(ValueError, match="kernel 'native' is unavailable") as error:
        SAMPLERS["sa"]("native")
    assert reason in str(error.value)
    for name in ("sqa", "tabu", "greedy"):
        with pytest.raises(ValueError, match="runs only Metropolis sweeps"):
            SAMPLERS[name]("native")


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


# ----------------------------------------------------------------------
# The compile path: EDIF text, QMASM source and logical model
# ----------------------------------------------------------------------
#: The paper's Listing 6 multiplier; ``_mult_source(4)`` is Listing 6 itself.
MULT_TEMPLATE = """module mult (A, B, C);
   input [{w1}:0] A;
   input [{w1}:0] B;
   output [{w2}:0] C;
   assign C = A * B;
endmodule
"""


def _mult_source(width):
    return MULT_TEMPLATE.format(w1=width - 1, w2=2 * width - 1)


def _text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _model_digest(logical):
    """Variable order, biases, couplings and offset of the bare relation."""
    model, _ = logical.to_ising(apply_pins=False)
    payload = {
        "variables": [str(v) for v in model.variables],
        "linear": [repr(float(model.linear[v])) for v in model.variables],
        "quadratic": [
            [str(u), str(v), repr(float(c))]
            for (u, v), c in model.quadratic.items()
        ],
        "offset": repr(float(model.offset)),
    }
    return _text_digest(json.dumps(payload))


@pytest.mark.parametrize(
    "design, edif, qmasm, logical",
    [
        ("map_coloring", "464ea0c75b186ae4", "28108cac4e4f50ff", "697b3b5a4a88e9c2"),
        ("mult4", "b5c8eae4576f4f03", "570143bc852f386e", "ec0e53a24486a372"),
        ("mult8", "8d2cc672fd0ab1ca", "95ed2b8116abe4c5", "8591fdccb4a92284"),
        ("mult12", "54b4ab3fde7f429b", "4d299037978ca0a4", "9fb4d9844d35069b"),
    ],
)
def test_pinned_compile_digests(map_coloring_source, design, edif, qmasm, logical):
    source = (
        map_coloring_source if design == "map_coloring"
        else _mult_source(int(design[len("mult"):]))
    )
    program = VerilogAnnealerCompiler(cache=False).compile(source)
    assert (
        _text_digest(program.edif_text),
        _text_digest(program.qmasm_source),
        _model_digest(program.logical),
    ) == (edif, qmasm, logical)
