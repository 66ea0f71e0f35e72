"""The package's C code: one library, built on first use and cached.

Two C sources run the package's innermost loops: ``metropolis.c`` the
Metropolis sweep of :mod:`repro.solvers.kernels`, and ``chain_search.c``
the neighbour-chain searches and chain trims of
:mod:`repro.hardware.embedding`.  The
first call that needs either compiles both into one shared library with
the system ``cc``, installs it in the per-user cache
(``$XDG_CACHE_HOME/repro``, ``~/.cache/repro`` when unset) under a name
that hashes every source, the flags and the machine type, and loads it
through :mod:`ctypes`, once per process and never at import.  A failed
build or load warns once per process; the sweep then runs on numpy and
the searches on scipy, with the same outputs.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import tempfile
import threading
import warnings
from typing import Callable, Dict, Optional, Tuple

_PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The C sources compiled into the library, in build order.
SOURCES = (
    os.path.join(_PACKAGE, "solvers", "metropolis.c"),
    os.path.join(_PACKAGE, "hardware", "chain_search.c"),
)
#: ``-ffp-contract=off`` stops the compiler fusing a multiply and an add
#: into one instruction, which rounds differently from numpy.  No
#: ``-march``: the build must not assume the build host's CPU.
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
#: Every function the library exports: ``name -> (restype, argtypes)``.
_SIGNATURES = {
    "repro_metropolis_sweep": (
        _I64, (_I64, _I64, _PTR, _PTR, _PTR, _PTR, _F64, _PTR, _PTR, _PTR)
    ),
    "repro_chain_searches": (
        _I64, (_I64, _PTR, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _F64, _PTR)
    ),
    "repro_grow_chain": (
        _I64, (_I64, _PTR, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _F64, _PTR, _PTR, _PTR)
    ),
    "repro_trim_chain": (
        _I64, (_I64, _PTR, _PTR, _PTR, _I64, _PTR, _PTR, _I64, _PTR, _PTR)
    ),
    "repro_random_floats": (None, (_I64, _PTR, _PTR)),
}

_lock = threading.Lock()
#: ``(functions by name, None)`` after a successful load, ``(None,
#: reason)`` after a failed one, None before the first use.
_state: Optional[Tuple[Optional[Dict[str, Callable[..., int]]], Optional[str]]] = None


def function(name: str) -> Optional[Callable[..., int]]:
    """The named C function, ready to call, or None when the library
    cannot load here.  Builds and loads the library on first use."""
    functions, _ = _load()
    return None if functions is None else functions[name]


def unavailable_reason() -> Optional[str]:
    """Why the library cannot load here, or None when it loads."""
    return _load()[1]


def _load() -> Tuple[Optional[Dict[str, Callable[..., int]]], Optional[str]]:
    global _state
    with _lock:
        if _state is None:
            _state = _open()
            if _state[1] is not None:
                warnings.warn(
                    "native library unavailable, so Metropolis sweeps run on "
                    f"numpy and embedder searches on scipy: {_state[1]}",
                    RuntimeWarning,
                    stacklevel=3,
                )
        return _state


def _open() -> Tuple[Optional[Dict[str, Callable[..., int]]], Optional[str]]:
    """Build the library into the per-user cache if needed, then load it."""
    try:
        parts = []
        for source in SOURCES:
            with open(source, "rb") as handle:
                parts.append(handle.read())
        key = hashlib.sha256(
            b"\0".join([
                *parts,
                " ".join(CFLAGS).encode(),
                platform.machine().encode(),
            ])
        ).hexdigest()[:16]
        cache_dir = os.path.join(
            os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"),
            "repro",
        )
        path = os.path.join(cache_dir, f"native-{key}.so")
        if not os.path.exists(path):
            error = _compile(path)
            if error is not None:
                return None, error
        library = ctypes.CDLL(path)
        functions = {}
        for name, (restype, argtypes) in _SIGNATURES.items():
            functions[name] = getattr(library, name)
            functions[name].restype = restype
            functions[name].argtypes = argtypes
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return functions, None


def _compile(path: str) -> Optional[str]:
    """Compile into a private directory, then install at ``path``.

    Returns the compiler's first error line on failure.  The atomic
    install lets processes that build at the same moment each replace
    the file whole, so none can load a partial library.
    """
    from repro.core.cache import atomic_write_bytes

    with tempfile.TemporaryDirectory() as scratch:
        built = os.path.join(scratch, "native.so")
        proc = subprocess.run(
            ["cc", *CFLAGS, "-o", built, *SOURCES],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            lines = [line for line in proc.stderr.splitlines() if line.strip()]
            errors = [line for line in lines if "error" in line]
            return (errors or lines or [f"cc exited with status {proc.returncode}"])[0]
        with open(built, "rb") as handle:
            atomic_write_bytes(path, handle.read())
    # Best effort: delete the libraries other sources left here, those
    # of older versions that built the sweep alone included (never an
    # install's ``*.tmp``).  A process of another version may lose its
    # library between building and loading it; it then warns once and
    # falls back, with the same outputs.
    directory, current = os.path.split(path)
    for pattern in ("native-*.so", "metropolis-*.so"):
        for stale in glob.glob(os.path.join(glob.escape(directory), pattern)):
            if os.path.basename(stale) != current:
                try:
                    os.remove(stale)
                except OSError:
                    pass
    return None
