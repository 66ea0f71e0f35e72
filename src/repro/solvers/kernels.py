"""Shared sweep kernels for the software annealers.

Every software minimizer in this package (neal, SQA, tabu, steepest
descent, and the simulated D-Wave machine behind them) sweeps the same
inner loop: propose flipping one spin, look at the local field
``f_i = h_i + sum_j J_ij s_j``, accept or reject, and incrementally
update the fields of ``i``'s neighbors.  On embedded problems the
neighbors are few -- Chimera C16 qubits have degree <= 6, so >99% of a
dense 2048 x 2048 J matrix is zeros -- which makes the dense
``O(num_reads * n)``-per-flip update the dominant cost.

This module centralizes the sweep primitives with three interchangeable
tiers:

* ``native`` -- one Metropolis sweep over the whole spin matrix in a
  small C function (``metropolis.c``), compiled with the system ``cc``
  on the first native anneal, cached under ``$XDG_CACHE_HOME/repro``
  (``~/.cache/repro`` when unset) and loaded through :mod:`ctypes`.  It
  runs only :func:`run_metropolis_sweeps`, the loop behind simulated
  annealing, the simulated D-Wave machine and the runner's postprocess
  anneal;
* ``dense`` -- updates against a dense row of the J matrix (fast for
  small or high-density models, where BLAS beats indexing overhead);
* ``sparse`` -- updates only the CSR neighbor list of the flipped spin
  (``IsingModel.to_csr()``), turning a flip into ``O(num_reads * deg)``.

All tiers are **bit-identical**: they share the same initial-field
computation, the same accept rule, and the same RNG consumption
pattern, and the dense update only ever adds exact zeros where the
sparse update touches nothing.  The Metropolis accept runs in the *log
domain*: instead of ``u < exp(min(2 beta s_i f_i, 0))`` we test
``log(u) < min(2 beta s_i f_i, 0)``, with the log taken by numpy on the
whole uniform block.  (The two accept rules are mathematically
equivalent; ``u = 0`` maps to ``log(u) = -inf`` which is still always
accepted.)  The native tier receives numpy's permutation and
log-uniform block for each sweep, keeps the numpy tiers' operation
order, is built with ``-ffp-contract=off`` so no multiply-add is fused,
and tests ``log(u) < x && log(u) < 0``, which rejects a NaN ``x`` just
as numpy's NaN-propagating ``minimum`` does.

:func:`choose_metropolis_kernel` picks ``native`` whenever its library
loads; if the build or the load fails it warns once per process and
falls back to :func:`choose_kernel`, the dense/sparse crossover on the
model's size, density, and read-batch width, which also serves the
flip-updater loops of tabu, SQA, greedy and the repair polish.  Every
sampler accepts ``kernel="dense"``/``"sparse"`` to force a numpy tier;
simulated annealing also accepts ``kernel="native"``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
import threading
import warnings
from typing import Callable, Optional, Tuple

import numpy as np

#: Kernel names.
NATIVE = "native"
DENSE = "dense"
SPARSE = "sparse"
KERNELS = (NATIVE, DENSE, SPARSE)
#: The tiers of the flip-updater loops (tabu, SQA, greedy, repair polish).
FLIP_KERNELS = (DENSE, SPARSE)

#: Below this variable count the dense kernel always wins: the whole J
#: matrix fits in cache and BLAS/vector ops beat per-row indexing.
SPARSE_MIN_VARIABLES = 64
#: Above this nnz/n^2 density the dense kernel wins even for large n.
SPARSE_MAX_DENSITY = 0.25
#: At or below this many reads the sparse tier's fancy-indexing overhead
#: (np.ix_ gather/scatter per flip) is not amortized by vector width: a
#: 1..4-row flip via np.ix_ costs several times a contiguous dense-row
#: update.  Re-tuned with the num_reads-aware crossover (2026-08): tabu
#: (read width 1) and single-state polish calls land here.
DENSE_MAX_BATCH_READS = 4
#: ... but only while the dense J matrix stays cheap to materialize and
#: walk: above ~2048 variables (a 2048 x 2048 float64 J is 32 MB) the
#: O(n) dense row update loses to O(deg) regardless of read width.
DENSE_BATCH_CROSSOVER_VARIABLES = 2048

#: A flip updater: ``flip(spins, fields, i, rows)`` negates column ``i``
#: of ``spins`` at ``rows`` and updates ``fields`` incrementally.
FlipUpdater = Callable[[np.ndarray, np.ndarray, int, np.ndarray], None]
#: A mixed flip updater, ``flip(spins, fields, rows, cols)``.
MixedFlipUpdater = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], None]

def choose_kernel(
    num_variables: int,
    nnz: int,
    kernel: Optional[str] = None,
    num_reads: Optional[int] = None,
) -> str:
    """Pick a sweep tier: explicit request, or the tuned crossover.

    The automatic crossover:

    1. tiny models (``n < SPARSE_MIN_VARIABLES``) or dense models
       (``nnz/n^2 > SPARSE_MAX_DENSITY``) -> ``dense``;
    2. otherwise ``sparse``, *except* that narrow read batches
       (``num_reads <= DENSE_MAX_BATCH_READS`` on models up to
       ``DENSE_BATCH_CROSSOVER_VARIABLES`` variables) take ``dense``:
       with 1-4 rows in flight the np.ix_ gather/scatter per flip costs
       more than the contiguous dense row it avoids.

    Args:
        num_variables: model size n.
        nnz: stored CSR entries (2x the non-zero coupling count).
        kernel: ``"dense"``/``"sparse"`` to force a tier, or None.
        num_reads: read-batch width of the upcoming sweep calls, when
            the caller knows it.  None preserves the width-agnostic
            behavior.
    """
    if kernel is not None:
        if kernel == NATIVE:
            raise ValueError(
                "kernel 'native' runs only Metropolis sweeps; "
                f"this sampler takes one of {FLIP_KERNELS}"
            )
        if kernel not in FLIP_KERNELS:
            raise ValueError(
                f"unknown kernel {kernel!r}; expected one of {KERNELS}"
            )
        return kernel
    if num_variables < SPARSE_MIN_VARIABLES:
        return DENSE
    density = nnz / float(num_variables * num_variables)
    if density > SPARSE_MAX_DENSITY:
        return DENSE
    if (
        num_reads is not None
        and num_reads <= DENSE_MAX_BATCH_READS
        and num_variables <= DENSE_BATCH_CROSSOVER_VARIABLES
    ):
        return DENSE
    return SPARSE


def choose_metropolis_kernel(
    num_variables: int,
    nnz: int,
    kernel: Optional[str] = None,
    num_reads: Optional[int] = None,
) -> str:
    """Pick the tier of :func:`run_metropolis_sweeps`.

    ``native`` whenever its library loads, else :func:`choose_kernel`'s
    crossover; an explicit ``"dense"``/``"sparse"`` runs that numpy
    tier.  An explicit ``"native"`` that cannot load raises
    ``ValueError`` with the reason (the build's first error line).
    """
    if kernel is None or kernel == NATIVE:
        sweep, reason = _load_native()
        if sweep is not None:
            return NATIVE
        if kernel == NATIVE:
            raise ValueError(f"kernel 'native' is unavailable: {reason}")
    return choose_kernel(num_variables, nnz, kernel, num_reads)


def densify(
    num_variables: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
) -> np.ndarray:
    """Expand a CSR adjacency back into a symmetric dense J matrix."""
    j_mat = np.zeros((num_variables, num_variables), dtype=float)
    if len(indices):
        rows = np.repeat(np.arange(num_variables), np.diff(indptr))
        j_mat[rows, indices] = data
    return j_mat


def init_local_fields(
    h: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    spins: np.ndarray,
) -> np.ndarray:
    """Batched local fields ``fields[r, i] = h_i + sum_j J_ij s_rj``.

    Shared by all kernel tiers (and by :func:`batched_energies`) so the
    sweep paths start from bit-identical state: the sum over each
    variable's neighbors runs in ascending column order either way.
    """
    spins = np.asarray(spins, dtype=float)
    num_reads, n = spins.shape
    fields = np.empty((num_reads, n), dtype=float)
    for i in range(n):
        start, end = indptr[i], indptr[i + 1]
        if start == end:
            fields[:, i] = h[i]
        else:
            fields[:, i] = h[i] + spins[:, indices[start:end]] @ data[start:end]
    return fields


def batched_energies(
    h: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    spins: np.ndarray,
    offset: float = 0.0,
) -> np.ndarray:
    """Vectorized energies of a spin matrix against a CSR model.

    ``E_r = offset + s_r . h + (1/2) s_r . (J s_r)``, evaluated in
    O(num_reads * nnz) instead of O(num_reads * n^2).
    """
    spins = np.asarray(spins, dtype=float)
    fields = init_local_fields(h, indptr, indices, data, spins)
    linear = spins @ h
    quad = 0.5 * np.einsum("ri,ri->r", spins, fields - h[None, :])
    return linear + quad + offset


def log_uniforms(rng: np.random.Generator, shape) -> np.ndarray:
    """Draw a uniform block and return its elementwise log.

    This is THE accept-threshold draw shared by every tier: one uniform
    per (proposal, read).  ``u = 0`` maps to ``-inf`` (still a
    guaranteed accept), so the divide-by-zero warning is suppressed.
    """
    uniforms = rng.random(shape)
    with np.errstate(divide="ignore"):
        return np.log(uniforms)


def make_flip_updater(
    kernel: str,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
) -> FlipUpdater:
    """Build the per-column flip updater for a tier.

    The returned callable flips ``spins[rows, i]`` and applies the
    incremental field update ``f_j -= 2 J_ij s_i^old`` -- to every
    column (dense) or only to ``i``'s CSR neighbors (sparse).  The two
    are bit-identical because the dense row is zero off the neighbor
    list (``x - 0.0 == x`` exactly).
    """
    if kernel == DENSE:
        j_mat = densify(len(indptr) - 1, indptr, indices, data)

        def flip(spins, fields, i, rows):
            old = spins[rows, i]
            spins[rows, i] = -old
            fields[rows, :] -= (2.0 * old)[:, None] * j_mat[i][None, :]

        return flip
    if kernel != SPARSE:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {FLIP_KERNELS}")

    def flip(spins, fields, i, rows):
        old = spins[rows, i]
        spins[rows, i] = -old
        start, end = indptr[i], indptr[i + 1]
        if start != end:
            fields[np.ix_(rows, indices[start:end])] -= (
                (2.0 * old)[:, None] * data[start:end][None, :]
            )

    return flip


def make_mixed_flip_updater(
    kernel: str,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
) -> MixedFlipUpdater:
    """Flip updater where every row flips its *own* column.

    ``flip(spins, fields, rows, cols)`` flips ``spins[rows[k],
    cols[k]]`` for each k -- the steepest-descent pattern, where each
    read picks a different best flip per sweep.
    """
    if kernel == DENSE:
        j_mat = densify(len(indptr) - 1, indptr, indices, data)

        def flip(spins, fields, rows, cols):
            old = spins[rows, cols]
            spins[rows, cols] = -old
            fields[rows, :] -= (2.0 * old)[:, None] * j_mat[cols, :]

        return flip
    if kernel != SPARSE:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {FLIP_KERNELS}")

    def flip(spins, fields, rows, cols):
        old = spins[rows, cols]
        spins[rows, cols] = -old
        for k in range(len(rows)):
            i = cols[k]
            start, end = indptr[i], indptr[i + 1]
            if start != end:
                fields[rows[k], indices[start:end]] -= (
                    2.0 * old[k] * data[start:end]
                )

    return flip


#: The native tier's C source; :func:`_load_native` compiles it.
NATIVE_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "metropolis.c")
#: ``-ffp-contract=off`` stops the compiler fusing ``f - step * J`` into
#: one multiply-add, which rounds differently from numpy.  No
#: ``-march``: the build must not assume the build host's CPU.
NATIVE_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_native_lock = threading.Lock()
#: ``(sweep function, None)`` after a successful load, ``(None, reason)``
#: after a failed one, None before the first native anneal.
_native_state: Optional[Tuple[Optional[Callable[..., int]], Optional[str]]] = None


def native_unavailable_reason() -> Optional[str]:
    """Why the native tier cannot run here, or None when it loads.

    Builds and loads the library on the first call in a process.
    """
    return _load_native()[1]


def _load_native() -> Tuple[Optional[Callable[..., int]], Optional[str]]:
    """The native sweep function, or the reason it cannot run.

    Built and loaded once per process; a failure warns once.
    """
    global _native_state
    with _native_lock:
        if _native_state is None:
            _native_state = _open_native()
            if _native_state[1] is not None:
                warnings.warn(
                    "native Metropolis tier unavailable, using the numpy "
                    f"tiers: {_native_state[1]}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return _native_state


def _open_native() -> Tuple[Optional[Callable[..., int]], Optional[str]]:
    """Build the library into the per-user cache if needed, then load it."""
    try:
        with open(NATIVE_SOURCE, "rb") as handle:
            source = handle.read()
        key = hashlib.sha256(
            b"\0".join([
                source,
                " ".join(NATIVE_CFLAGS).encode(),
                platform.machine().encode(),
            ])
        ).hexdigest()[:16]
        cache_dir = os.path.join(
            os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"),
            "repro",
        )
        path = os.path.join(cache_dir, f"metropolis-{key}.so")
        if not os.path.exists(path):
            error = _compile_native(path)
            if error is not None:
                return None, error
        sweep = ctypes.CDLL(path).repro_metropolis_sweep
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    pointer = ctypes.c_void_p
    sweep.argtypes = [
        ctypes.c_int64, ctypes.c_int64, pointer, pointer, pointer, pointer,
        ctypes.c_double, pointer, pointer, pointer,
    ]
    sweep.restype = ctypes.c_int64
    return sweep, None


def _compile_native(path: str) -> Optional[str]:
    """Compile into a private directory, then install at ``path``.

    Returns the compiler's first error line on failure.  The atomic
    install lets processes that build at the same moment each replace
    the file whole, so none can load a partial library.
    """
    from repro.core.cache import atomic_write_bytes

    with tempfile.TemporaryDirectory() as scratch:
        built = os.path.join(scratch, "metropolis.so")
        proc = subprocess.run(
            ["cc", *NATIVE_CFLAGS, "-o", built, NATIVE_SOURCE],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            lines = [line for line in proc.stderr.splitlines() if line.strip()]
            errors = [line for line in lines if "error" in line]
            return (errors or lines or [f"cc exited with status {proc.returncode}"])[0]
        with open(built, "rb") as handle:
            atomic_write_bytes(path, handle.read())
    return None


#: One tier's sweep body, ``sweep(variables, log_u, two_beta) ->
#: accepted``: it proposes ``variables[k]`` with threshold row
#: ``log_u[k]`` across every read and updates the spins and fields it
#: was built over in place.
Sweeper = Callable[[np.ndarray, np.ndarray, float], int]


def _numpy_sweeper(kernel, spins, fields, indptr, indices, data) -> Sweeper:
    flip = make_flip_updater(kernel, indptr, indices, data)

    def sweep(variables, log_u, two_beta):
        accepted = 0
        for k in range(len(variables)):
            i = variables[k]
            # One-shot Metropolis accept: x = -beta * delta_i
            # = 2 beta s_i f_i, clipped at 0 so downhill proposals get
            # threshold 0 (always accepted, as log(u) < 0 strictly).
            x = two_beta * spins[:, i] * fields[:, i]
            rows = np.nonzero(log_u[k] < np.minimum(x, 0.0))[0]
            if len(rows):
                flip(spins, fields, i, rows)
                accepted += len(rows)
        return accepted

    return sweep


def _native_sweeper(spins, fields, indptr, indices, data) -> Sweeper:
    function, reason = _load_native()
    if function is None:
        raise ValueError(f"kernel 'native' is unavailable: {reason}")
    for name, array in (("spins", spins), ("fields", fields)):
        if (
            not isinstance(array, np.ndarray)
            or array.ndim != 2
            or array.dtype != np.float64
            or not array.flags.c_contiguous
            or not array.flags.writeable
        ):
            raise ValueError(
                f"the native tier updates {name} in place and needs a "
                "writeable C-contiguous float64 (reads, n) array"
            )
    num_reads, n = spins.shape
    if fields.shape != spins.shape:
        raise ValueError(
            f"fields shape {fields.shape} does not match spins {spins.shape}"
        )
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    data = np.ascontiguousarray(data, dtype=np.float64)
    if (
        indptr.shape != (n + 1,)
        or indptr[0] != 0
        or indptr[-1] != len(indices)
        or len(data) != len(indices)
        or np.any(np.diff(indptr) < 0)
        or (len(indices) and (indices.min() < 0 or indices.max() >= n))
    ):
        raise ValueError(f"malformed CSR adjacency for {n} variables")
    head = (num_reads, n, spins.ctypes.data, fields.ctypes.data)
    tail = (indptr.ctypes.data, indices.ctypes.data, data.ctypes.data)

    def sweep(variables, log_u, two_beta):
        return function(
            *head, variables.ctypes.data, log_u.ctypes.data, two_beta, *tail
        )

    # Holding the arrays keeps every address in head and tail valid for
    # as long as the sweep body can be called.
    sweep.arrays = (spins, fields, indptr, indices, data)
    return sweep


#: How many sweeps run between deadline polls: the sweep-batch
#: granularity of cooperative cancellation.  A deadline-bounded anneal
#: can overshoot its budget by at most this many sweeps.
DEADLINE_SWEEP_BATCH = 16


def run_metropolis_sweeps(
    rng: np.random.Generator,
    spins: np.ndarray,
    fields: np.ndarray,
    betas: np.ndarray,
    kernel: str,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    deadline=None,
    stats: Optional[dict] = None,
) -> int:
    """Run Metropolis single-spin-flip sweeps over a batch of reads.

    One sweep per entry of ``betas``; each sweep proposes one flip per
    variable (in a fresh random permutation) simultaneously across every
    read.  ``spins`` and ``fields`` are updated in place by the
    ``kernel`` tier's sweep body.  Returns the number of accepted flips.

    The sweep loop -- the deadline polls, each sweep's permutation and
    log-uniform draw, and therefore the RNG consumption pattern -- is
    the single definition shared by every kernel tier, and each tier
    applies the same accept rule, which is what makes the tiers
    sample-for-sample identical.  Every proposal consumes one uniform
    per read (drawn per sweep in a single block), so acceptance math
    never feeds back into the RNG stream.  The accept test runs in the
    log domain (``log(u) < min(2 beta s f, 0)``; see the module
    docstring).

    The ``native`` tier writes through raw pointers: ``spins`` and
    ``fields`` must be writeable C-contiguous float64 arrays, and
    anything else is a ``ValueError``.

    Args:
        deadline: optional :class:`~repro.core.deadline.Deadline`; the
            loop polls it every :data:`DEADLINE_SWEEP_BATCH` sweeps and
            stops cleanly (no exception) when it expires, leaving
            ``spins`` at the last completed sweep.  Deadline polling
            never consumes RNG state, so a run that finishes under its
            budget is bit-identical to an unbounded one.
        stats: optional dict; receives ``sweeps_completed``.
    """
    if kernel == NATIVE:
        sweep = _native_sweeper(spins, fields, indptr, indices, data)
    else:
        sweep = _numpy_sweeper(kernel, spins, fields, indptr, indices, data)
    n = spins.shape[1]
    num_reads = spins.shape[0]
    accepted = 0
    completed = 0
    for index, beta in enumerate(betas):
        if (
            deadline is not None
            and index % DEADLINE_SWEEP_BATCH == 0
            and deadline.expired()
        ):
            break
        variables = rng.permutation(n)
        log_u = log_uniforms(rng, (n, num_reads))
        accepted += sweep(variables, log_u, 2.0 * beta)
        completed += 1
    if stats is not None:
        stats["sweeps_completed"] = completed
    return accepted


def steepest_descent(
    spins: np.ndarray,
    fields: np.ndarray,
    flip: MixedFlipUpdater,
    max_sweeps: int,
    deadline=None,
) -> bool:
    """Greedy single-spin-flip descent over a batch of reads, in place.

    Each sweep flips, in every read that can still improve, the spin
    whose flip lowers that read's energy most (``flip`` is a
    :func:`make_mixed_flip_updater` updater), until no read improves or
    ``max_sweeps`` sweeps have run.  Consumes no randomness.

    Returns True when ``deadline`` expired before the descent finished
    (checked once per sweep; the reads may not yet be local minima).
    """
    for _ in range(max_sweeps):
        if deadline is not None and deadline.expired():
            return True
        # Energy change of each candidate flip; positive s*field
        # means flipping lowers the energy by 2*s*field.
        gains = 2.0 * spins * fields
        best = np.argmax(gains, axis=1)
        rows = np.arange(len(spins))
        improving = gains[rows, best] > 1e-12
        if not improving.any():
            break
        flip(spins, fields, rows[improving], best[improving])
    return False
