"""Tests for the CSR export and the shared sweep-kernel tiers."""

import hashlib
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core import native
from repro.ising.model import IsingModel
from repro.qmasm.runner import QmasmRunner
from repro.solvers import kernels
from repro.solvers.greedy import SteepestDescentSolver
from repro.solvers.neal import SimulatedAnnealingSampler
from repro.solvers.sampleset import SampleSet
from repro.solvers.sqa import PathIntegralAnnealer
from tests.conftest import LISTING_6_MULT, require_native_tier


def _ring_model(n=10, chords=()):
    """A +-J ring with optional chord couplings and small fields."""
    model = IsingModel()
    for i in range(n):
        model.add_variable(i, 0.1 * ((-1) ** i))
        model.add_interaction(i, (i + 1) % n, -1.0 if i % 3 else 0.5)
    for u, v in chords:
        model.add_interaction(u, v, 0.25)
    return model


# ----------------------------------------------------------------------
# IsingModel.to_csr
# ----------------------------------------------------------------------
def test_csr_matches_dense_arrays():
    model = _ring_model(12, chords=[(0, 6), (2, 9)])
    order_a, h_a, j_mat = model.to_arrays()
    order_c, h_c, indptr, indices, data = model.to_csr()
    assert order_a == order_c
    np.testing.assert_array_equal(h_a, h_c)
    np.testing.assert_array_equal(
        kernels.densify(len(order_c), indptr, indices, data), j_mat
    )


def test_csr_neighbor_lists_sorted():
    model = _ring_model(8, chords=[(0, 4)])
    _, _, indptr, indices, _ = model.to_csr()
    for i in range(len(indptr) - 1):
        row = indices[indptr[i]:indptr[i + 1]]
        assert list(row) == sorted(row)


def test_csr_skips_zero_couplings():
    model = IsingModel({0: 1.0, 1: -1.0, 2: 0.5})
    model.add_interaction(0, 1, -1.0)
    model.add_interaction(1, 2, 0.0)  # must not appear as a stored entry
    _, _, _, indices, data = model.to_csr()
    assert len(indices) == 2  # one coupling, stored symmetrically
    assert not np.any(data == 0.0)


def test_csr_is_cached_until_mutation():
    model = _ring_model(6)
    first = model.to_csr()
    assert model.to_csr() is first  # cache hit: identical tuple object
    model.add_interaction(0, 3, -0.5)  # mutation invalidates
    second = model.to_csr()
    assert second is not first
    assert len(second[3]) == len(first[3]) + 2


def test_csr_invalidated_by_add_variable_and_update():
    model = _ring_model(6)
    first = model.to_csr()
    model.add_variable(0, 1.0)
    assert model.to_csr() is not first
    second = model.to_csr()
    other = IsingModel({99: -1.0})
    model.update(other)
    assert model.to_csr() is not second
    assert 99 in model.to_csr()[0]


def test_csr_arrays_are_readonly():
    model = _ring_model(6)
    _, h, indptr, indices, data = model.to_csr()
    for array in (h, indptr, indices, data):
        with pytest.raises(ValueError):
            array[0] = 123


# ----------------------------------------------------------------------
# Kernel selection and primitives
# ----------------------------------------------------------------------
def test_choose_kernel_crossover():
    small = kernels.SPARSE_MIN_VARIABLES - 1
    big = kernels.SPARSE_MIN_VARIABLES * 4
    assert kernels.choose_kernel(small, small * small) == kernels.DENSE
    assert kernels.choose_kernel(big, 6 * big) == kernels.SPARSE
    # A dense large model stays on the dense kernel.
    assert kernels.choose_kernel(big, big * big // 2) == kernels.DENSE
    # Explicit requests win regardless of size.
    assert kernels.choose_kernel(small, 0, kernel="sparse") == kernels.SPARSE
    assert kernels.choose_kernel(big, 6 * big, kernel="dense") == kernels.DENSE
    with pytest.raises(ValueError):
        kernels.choose_kernel(10, 10, kernel="blas")


def test_choose_kernel_num_reads_heuristic():
    big = kernels.SPARSE_MIN_VARIABLES * 4
    huge = kernels.DENSE_BATCH_CROSSOVER_VARIABLES * 2
    narrow = kernels.DENSE_MAX_BATCH_READS
    assert kernels.choose_kernel(big, 6 * big, num_reads=narrow) == kernels.DENSE
    assert (
        kernels.choose_kernel(big, 6 * big, num_reads=narrow + 1)
        == kernels.SPARSE
    )
    # Width never rescues dense past the variable crossover: the O(n)
    # row update loses to O(deg) regardless of batch shape.
    assert (
        kernels.choose_kernel(huge, 6 * huge, num_reads=1) == kernels.SPARSE
    )
    # Unknown width keeps the width-agnostic behavior.
    assert kernels.choose_kernel(big, 6 * big) == kernels.SPARSE


def test_batched_energies_match_model_energy():
    model = _ring_model(9, chords=[(1, 5)])
    order, h, indptr, indices, data = model.to_csr()
    rng = np.random.default_rng(3)
    spins = rng.choice([-1, 1], size=(17, len(order)))
    energies = kernels.batched_energies(
        h, indptr, indices, data, spins, model.offset
    )
    for row, energy in zip(spins, energies):
        assert energy == pytest.approx(
            model.energy(dict(zip(order, row)))
        )


def test_model_energies_uses_csr_and_matches():
    model = _ring_model(9, chords=[(1, 5)])
    model.offset = 2.5
    order = list(model.variables)
    rng = np.random.default_rng(4)
    spins = rng.choice([-1, 1], size=(8, len(order)))
    np.testing.assert_allclose(
        model.energies(spins),
        [model.energy(dict(zip(order, row))) for row in spins],
    )


def test_flip_updaters_dense_sparse_bitwise_equal():
    model = _ring_model(20, chords=[(0, 10), (3, 14)])
    _, h, indptr, indices, data = model.to_csr()
    rng = np.random.default_rng(5)
    spins_d = rng.choice([-1.0, 1.0], size=(7, 20))
    spins_s = spins_d.copy()
    fields_d = kernels.init_local_fields(h, indptr, indices, data, spins_d)
    fields_s = fields_d.copy()
    flip_d = kernels.make_flip_updater(kernels.DENSE, indptr, indices, data)
    flip_s = kernels.make_flip_updater(kernels.SPARSE, indptr, indices, data)
    for i in [0, 3, 10, 19, 3]:
        rows = np.array([0, 2, 5])
        flip_d(spins_d, fields_d, i, rows)
        flip_s(spins_s, fields_s, i, rows)
    # Bitwise equality, not approx: the acceptance criterion is that the
    # two backends are sample-for-sample interchangeable.
    np.testing.assert_array_equal(spins_d, spins_s)
    np.testing.assert_array_equal(fields_d, fields_s)


class _ExpireAfter:
    """Duck-typed deadline: expires on the Nth expired() poll."""

    def __init__(self, polls):
        self.polls = polls
        self.calls = 0

    def expired(self):
        self.calls += 1
        return self.calls > self.polls


def _anneal(kernel, model, deadline=None, num_reads=6, num_sweeps=40):
    """Anneal ``model``, an IsingModel or the arrays of its ``to_csr()``."""
    _, h, indptr, indices, data = model if isinstance(model, tuple) else model.to_csr()
    rng = np.random.default_rng(99)
    spins = rng.choice([-1.0, 1.0], size=(num_reads, len(h)))
    fields = kernels.init_local_fields(h, indptr, indices, data, spins)
    betas = np.geomspace(0.1, 3.0, num_sweeps)
    stats = {}
    accepted = kernels.run_metropolis_sweeps(
        rng, spins, fields, betas, kernel, indptr, indices, data,
        deadline=deadline, stats=stats,
    )
    return spins, fields, accepted, stats


#: Read counts for the tier tests.  The native tier runs blocks of 8
#: reads, one AVX-512 vector each, and a scalar loop for the rest, so
#: these cover the scalar loop alone (1, 6), one full block (8), a block
#: plus a tail (13) and many blocks (64).  On a host without AVX-512 the
#: native tier runs every read in its scalar loop, so there these cases
#: test the scalar loop only.
READ_COUNTS = (1, 6, 8, 13, 64)


def _tier_cases(*tiers):
    """(kernel, num_reads) cases; 6 reads, ``_anneal``'s default, keeps
    the bare tier id."""
    return [
        pytest.param(kernel, reads, id=kernel if reads == 6 else f"{kernel}-{reads}")
        for kernel in tiers
        for reads in READ_COUNTS
    ]


@pytest.mark.parametrize("kernel, num_reads", _tier_cases("sparse", "native"))
def test_run_metropolis_sweeps_tiers_bitwise_equal(kernel, num_reads):
    """Every tier matches the dense one bit for bit (see READ_COUNTS)."""
    if kernel == kernels.NATIVE:
        require_native_tier()
    model = _ring_model(70, chords=[(0, 35), (10, 50), (22, 61)])
    spins_d, fields_d, acc_d, _ = _anneal("dense", model, num_reads=num_reads)
    spins_k, fields_k, acc_k, _ = _anneal(kernel, model, num_reads=num_reads)
    np.testing.assert_array_equal(spins_d, spins_k)
    np.testing.assert_array_equal(fields_d, fields_k)
    assert acc_d == acc_k


@pytest.mark.parametrize(
    "kernel, num_reads", _tier_cases("dense", "sparse", "native")
)
def test_run_metropolis_sweeps_deadline_contract(kernel, num_reads):
    """Every tier stops at the same sweep boundary with the same polls.

    The second expired() poll (sweep DEADLINE_SWEEP_BATCH) reports
    expiry, so exactly one full batch of sweeps completes, and the
    native tier writes that state back into the caller's arrays (see
    READ_COUNTS for the read counts).
    """
    if kernel == kernels.NATIVE:
        require_native_tier()
    model = _ring_model(70, chords=[(0, 35)])
    deadline = _ExpireAfter(1)
    spins, fields, _, stats = _anneal(
        kernel, model, deadline=deadline, num_reads=num_reads,
        num_sweeps=kernels.DEADLINE_SWEEP_BATCH * 3,
    )
    assert stats["sweeps_completed"] == kernels.DEADLINE_SWEEP_BATCH
    assert deadline.calls == 2
    # Every tier lands on the bit-identical partial state.
    ref_spins, ref_fields, _, _ = _anneal(
        "dense", model, deadline=_ExpireAfter(1), num_reads=num_reads,
        num_sweeps=kernels.DEADLINE_SWEEP_BATCH * 3,
    )
    np.testing.assert_array_equal(spins, ref_spins)
    np.testing.assert_array_equal(fields, ref_fields)


@pytest.mark.parametrize("num_reads", READ_COUNTS, ids=lambda reads: f"{reads}reads")
def test_native_tier_matches_sparse_on_nan_and_inf_coefficients(num_reads):
    """A NaN x rejects on both tiers (numpy's minimum propagates NaN).

    IsingModel refuses non-finite coefficients, so the NaN bias and the
    inf coupling go straight into the arrays the kernels anneal.  The
    vector loop must leave a rejected lane's field bit for bit as it was
    (multiplying the update by a 0/1 mask would give inf * 0 = NaN); see
    READ_COUNTS for the read counts.
    """
    require_native_tier()
    order, h, indptr, indices, data = _ring_model(
        70, chords=[(0, 35), (10, 50), (22, 61)]
    ).to_csr()
    h, data = h.copy(), data.copy()
    h[order.index(5)] = float("nan")
    for u, v in ((20, 21), (21, 20)):
        row, col = order.index(u), order.index(v)
        start, stop = indptr[row], indptr[row + 1]
        data[start + list(indices[start:stop]).index(col)] = float("inf")
    model = (order, h, indptr, indices, data)
    with np.errstate(invalid="ignore"):
        spins_s, fields_s, acc_s, _ = _anneal("sparse", model, num_reads=num_reads)
    spins_n, fields_n, acc_n, _ = _anneal("native", model, num_reads=num_reads)
    assert np.isnan(fields_s).any() and np.isinf(fields_s).any()
    np.testing.assert_array_equal(spins_s, spins_n)
    # Bits, not values: NaN payloads and the sign of a zero count too.
    np.testing.assert_array_equal(fields_s.view(np.int64), fields_n.view(np.int64))
    assert acc_s == acc_n


def test_native_tier_matches_sparse_on_the_warm_anneal_model(compiler):
    """The 4-bit Listing 6 lowering (92 variables) at 200 reads, the
    shape of a perfbench ``warm-anneal`` job: 25 full AVX-512 blocks
    (the scalar loop only, on a host without AVX-512)."""
    require_native_tier()
    model, _ = compiler.compile(LISTING_6_MULT).logical.lowering
    assert len(model.variables) == 92
    spins_s, fields_s, acc_s, _ = _anneal("sparse", model, num_reads=200)
    spins_n, fields_n, acc_n, _ = _anneal("native", model, num_reads=200)
    np.testing.assert_array_equal(spins_s, spins_n)
    np.testing.assert_array_equal(fields_s.view(np.int64), fields_n.view(np.int64))
    assert acc_s == acc_n


def test_native_tier_rejects_arrays_it_cannot_update_in_place():
    require_native_tier()
    model = _ring_model(70)
    _, h, indptr, indices, data = model.to_csr()
    spins = np.ones((4, 70))
    fields = kernels.init_local_fields(h, indptr, indices, data, spins)
    for bad_spins, bad_fields in [
        (np.asfortranarray(spins), fields),
        (spins, np.asfortranarray(fields)),
        (spins.astype(np.float32), fields),
    ]:
        with pytest.raises(ValueError, match="C-contiguous float64"):
            kernels.run_metropolis_sweeps(
                np.random.default_rng(0), bad_spins, bad_fields,
                np.ones(2), "native", indptr, indices, data,
            )


def test_neal_fortran_ordered_initial_states_sample_like_c_ordered():
    """The runner's refine anneal passes a column slice (Fortran order)."""
    model = _ring_model(70, chords=[(0, 35)])
    starts = np.random.default_rng(3).choice([-1, 1], size=(70, 12)).astype(np.int8).T
    assert starts.flags.f_contiguous and not starts.flags.c_contiguous
    runs = [
        SimulatedAnnealingSampler(seed=5).sample(
            model, num_reads=12, num_sweeps=20, initial_states=states
        )
        for states in (starts, np.ascontiguousarray(starts))
    ]
    np.testing.assert_array_equal(runs[0].records, runs[1].records)
    np.testing.assert_array_equal(runs[0].energies, runs[1].energies)
    assert runs[0].info["kernel"] == runs[1].info["kernel"]


def test_native_tier_loads_when_cc_is_present():
    """Fails, never skips, when a compiler exists and the tier did not load.

    Every native leg skips when the tier is unavailable; this test keeps
    a host with ``cc`` from testing only the fallback.
    """
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert native.unavailable_reason() is None
    result = SimulatedAnnealingSampler(seed=0).sample(
        _ring_model(70), num_reads=8, num_sweeps=5
    )
    assert result.info["kernel"] == kernels.NATIVE


#: ``_ring_model(70)`` annealed on the native tier, as a script.
_NATIVE_ANNEAL = """
import hashlib
import numpy as np
from repro.ising.model import IsingModel
from repro.solvers.neal import SimulatedAnnealingSampler

model = IsingModel()
for i in range(70):
    model.add_variable(i, 0.1 * ((-1) ** i))
    model.add_interaction(i, (i + 1) % 70, -1.0 if i % 3 else 0.5)
result = SimulatedAnnealingSampler(seed=4).sample(
    model, num_reads=16, num_sweeps=50, kernel="native"
)
print(hashlib.sha256(result.records.tobytes()).hexdigest())
"""


def test_concurrent_first_builds_share_one_cache(tmp_path):
    """Two processes building into one empty cache both run native."""
    require_native_tier()
    cache = tmp_path / "cache"
    env = dict(
        os.environ,
        XDG_CACHE_HOME=str(cache),
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _NATIVE_ANNEAL], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outputs.append(out.strip())
    reference = SimulatedAnnealingSampler(seed=4).sample(
        _ring_model(70), num_reads=16, num_sweeps=50, kernel="sparse"
    )
    expected = hashlib.sha256(reference.records.tobytes()).hexdigest()
    assert outputs == [expected, expected]
    # One installed library, no temporary files left behind.
    assert [path.suffix for path in (cache / "repro").iterdir()] == [".so"]


def test_native_build_prunes_stale_libraries(tmp_path, monkeypatch):
    """Installing a build removes the libraries older sources left,
    including the sweep-only ``metropolis-*.so`` of older versions."""
    require_native_tier()
    cache = tmp_path / "cache" / "repro"
    cache.mkdir(parents=True)
    stale = [cache / "metropolis-0123456789abcdef.so", cache / "native-0123456789abcdef.so"]
    for path in stale:
        path.write_bytes(b"a build of older sources")
    in_progress = cache / "native-fedcba9876543210.so.4242.tmp"
    in_progress.write_bytes(b"another process's install")
    monkeypatch.setattr(native, "_state", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    result = SimulatedAnnealingSampler(seed=0).sample(
        _ring_model(70), num_reads=8, num_sweeps=5, kernel="native"
    )
    assert result.info["kernel"] == kernels.NATIVE
    assert not any(path.exists() for path in stale)
    assert in_progress.exists()
    libraries = list(cache.glob("*.so"))
    assert len(libraries) == 1 and libraries[0].name.startswith("native-")


@pytest.mark.parametrize("n, tier", [(20, "dense"), (80, "sparse")])
def test_polish_rows_matches_steepest_descent(n, tier):
    """Repair's row polish and the greedy solver share one descent loop."""
    model = _ring_model(n, chords=[(0, n // 2), (3, n - 5)])
    starts = np.random.default_rng(11).choice([-1, 1], size=(8, n))
    rough = SampleSet.from_array(list(model.variables), starts, model)
    greedy = SteepestDescentSolver().sample(model, initial_states=rough.records)
    assert greedy.info["kernel"] == tier
    polished = QmasmRunner()._polish_rows(
        model, rough, range(len(rough)), max_sweeps=1000
    )
    assert not np.array_equal(polished.records, rough.records)
    np.testing.assert_array_equal(polished.records, greedy.records)
    np.testing.assert_array_equal(polished.energies, greedy.energies)


# ----------------------------------------------------------------------
# Satellite: initial_states validation in neal
# ----------------------------------------------------------------------
def test_neal_rejects_non_spin_initial_states():
    model = _ring_model(4)
    sampler = SimulatedAnnealingSampler(seed=0)
    states = np.ones((3, 4))
    states[1, 2] = 0.0
    with pytest.raises(ValueError, match=r"\+/-1"):
        sampler.sample(model, num_reads=3, num_sweeps=5, initial_states=states)


def test_neal_rejects_out_of_range_initial_states():
    model = _ring_model(4)
    sampler = SimulatedAnnealingSampler(seed=0)
    states = np.ones((2, 4), dtype=np.int64)
    states[0, 0] = 257  # would silently wrap to 1 under a naive int8 cast
    with pytest.raises(ValueError, match="257"):
        sampler.sample(model, num_reads=2, num_sweeps=5, initial_states=states)


def test_neal_rejects_wrong_shape_initial_states():
    model = _ring_model(4)
    sampler = SimulatedAnnealingSampler(seed=0)
    with pytest.raises(ValueError, match="must be"):
        sampler.sample(
            model, num_reads=3, num_sweeps=5, initial_states=np.ones((2, 4))
        )


def test_neal_accepts_valid_initial_states():
    model = _ring_model(4)
    sampler = SimulatedAnnealingSampler(seed=0)
    states = np.array([[1, -1, 1, -1], [-1, 1, -1, 1]])
    result = sampler.sample(
        model, num_reads=2, num_sweeps=5, initial_states=states
    )
    assert len(result) == 2


# ----------------------------------------------------------------------
# Satellite: SQA throughput counters
# ----------------------------------------------------------------------
def test_sqa_reports_throughput_counters():
    model = _ring_model(6)
    result = PathIntegralAnnealer(seed=1).sample(
        model, num_reads=4, num_sweeps=20, trotter_slices=4
    )
    info = result.info
    assert info["num_reads"] == 4
    assert info["num_sweeps"] == 20
    assert info["sampling_time_s"] > 0
    assert info["sweeps_per_s"] > 0
    assert info["kernel"] in kernels.KERNELS
