"""Content-addressed caches for compiled programs and minor embeddings.

Minor embedding dominates end-to-end latency and is a pure function of
the logical interaction graph (plus the target hardware graph and the
embedder's seed), so recomputing it on every run of the same design is
wasted work -- the same observation that leads Bian et al. (2018) to
treat encoding and embedding as cacheable, independently tuned steps.
Likewise a full compilation is a pure function of the Verilog source and
the :class:`~repro.core.compiler.CompileOptions`.

Two cache classes cover those cases:

* :class:`CompilationCache` -- keyed by ``hash(source, options)``;
* :class:`EmbeddingCache` -- keyed by the logical-graph fingerprint,
  the target-graph fingerprint, and the embedder parameters.

Both are in-memory by default and optionally spill to an on-disk
directory (pickle files named by key), so a serving fleet can share a
warm cache across processes.  Disk failures are never fatal: a cache
that cannot read or write simply behaves as a miss -- but they are
never *silent* either: the first failure logs a warning (via the
``repro.core.cache`` logger), corrupt entry files are deleted so they
cannot poison later lookups, and ``CacheStats.disk_errors`` counts
every incident.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import threading
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Dict, Optional

import networkx as nx

from repro.core import trace
from repro.hardware.embedding import EMBEDDER_VERSION, graph_fingerprint

logger = logging.getLogger(__name__)


def atomic_write_bytes(path: str, data: bytes, fsync: bool = True) -> None:
    """Crash-safe file replacement: write-temp, fsync, atomic rename.

    The shared durability primitive behind the cache disk tier, the
    shard checkpoints, and the service's job-journal compaction: a
    process killed at any instant leaves either the previous file or
    the new one under ``path``, never a torn hybrid.  The temp name
    includes the PID so two processes writing the same path cannot
    clobber each other's partial writes.  Errors propagate to the
    caller (callers own their degrade-vs-fail policy).
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except Exception:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Disk-tier incidents: unreadable/corrupt entries and failed writes.
    disk_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.stores = self.disk_errors = 0


def stable_hash(*parts: str) -> str:
    """A stable hex digest over an ordered sequence of strings."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def options_fingerprint(options: Any) -> str:
    """A canonical string for an options object.

    Dataclasses are rendered field-by-field in declaration order so two
    equal option sets always produce the same fingerprint; anything else
    falls back to ``repr``.
    """
    if is_dataclass(options) and not isinstance(options, type):
        parts = [
            f"{f.name}={getattr(options, f.name)!r}" for f in fields(options)
        ]
        return f"{type(options).__name__}({', '.join(parts)})"
    return repr(options)


class ArtifactCache:
    """A content-addressed key/value cache: memory first, disk second.

    Args:
        cache_dir: optional directory for the on-disk tier (created on
            first store).  ``None`` keeps the cache purely in memory.
        enabled: a disabled cache misses every lookup and stores
            nothing, so ``--no-cache`` paths need no special casing.
        max_entries: in-memory entry cap; the oldest entries are evicted
            first (insertion order) once the cap is exceeded.

    Besides the per-instance :attr:`stats`, every incident is counted on
    the ambient metrics registry under ``cache.<metric_name>.*``
    (:mod:`repro.core.trace`) -- the process-wide aggregate across all
    instances of a cache kind, from which the summary renderer derives
    ``cache.<metric_name>.hit_ratio``.
    """

    #: Namespace for this cache kind's ambient metrics.
    metric_name = "artifact"

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        enabled: bool = True,
        max_entries: int = 256,
    ):
        self.cache_dir = cache_dir
        self.enabled = enabled
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._memory: Dict[str, Any] = {}
        self._disk_warned = False
        # Shared across the service's worker threads; reentrant because
        # get() promotes disk hits into memory under the same lock.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def _count(self, event: str) -> None:
        """Bump the ambient per-kind counter (no-op unless installed)."""
        trace.metrics().counter(f"cache.{self.metric_name}.{event}").inc()

    def get(self, key: str) -> Optional[Any]:
        if not self.enabled:
            with self._lock:
                self.stats.misses += 1
            self._count("misses")
            return None
        with self._lock:
            if key in self._memory:
                self.stats.hits += 1
                self._count("hits")
                return self._memory[key]
        value = self._disk_get(key)
        with self._lock:
            if value is not None:
                self._memory_put(key, value)
                self.stats.hits += 1
                self._count("hits")
                return value
            self.stats.misses += 1
        self._count("misses")
        return None

    def contains(self, key: str) -> bool:
        """Non-counting presence check (memory or disk tier).

        Unlike :meth:`get`, this records neither a hit nor a miss --
        it exists so callers (the service's warm-path detection) can
        probe without perturbing the hit-ratio statistics, and without
        deserializing a disk entry.
        """
        if not self.enabled:
            return False
        with self._lock:
            if key in self._memory:
                return True
        path = self._disk_path(key)
        return path is not None and os.path.exists(path)

    def put(self, key: str, value: Any) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._memory_put(key, value)
            self.stats.stores += 1
        self._disk_put(key, value)
        self._count("stores")

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    # ------------------------------------------------------------------
    def _memory_put(self, key: str, value: Any) -> None:
        self._memory[key] = value
        while len(self._memory) > self.max_entries:
            self._memory.pop(next(iter(self._memory)))

    def _disk_path(self, key: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{key}.pkl")

    def _disk_warn(self, action: str, path: str, exc: Exception) -> None:
        """Record a disk-tier incident; warn on the first one only.

        The tier degrades to memory-only behavior either way, but a
        corrupt pickle or a permission problem should be visible in the
        logs, not swallowed.
        """
        self.stats.disk_errors += 1
        self._count("disk_errors")
        if not self._disk_warned:
            self._disk_warned = True
            logger.warning(
                "cache disk tier failed to %s %s (%s: %s); degrading to "
                "memory-only for such entries (further failures logged "
                "at debug level)",
                action, path, type(exc).__name__, exc,
            )
        else:
            logger.debug(
                "cache disk tier failed to %s %s (%s: %s)",
                action, path, type(exc).__name__, exc,
            )

    def _disk_get(self, key: str) -> Optional[Any]:
        path = self._disk_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except Exception as exc:
            self._disk_warn("load", path, exc)
            # A corrupt entry would fail on every future lookup; delete
            # it so the slot heals into a clean miss.
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def _disk_put(self, key: str, value: Any) -> None:
        """Crash-safe store: write-temp, fsync, then atomic rename.

        A process killed mid-write must never leave a truncated pickle
        under the final name (readers would count a disk error and heal
        it away, but the entry would be lost) -- so the bytes go to a
        per-process temp file first, are flushed *and fsynced* to stable
        storage, and only then atomically renamed over the final path.
        The temp name includes the PID so two processes warming the same
        cache directory cannot clobber each other's partial writes.
        """
        path = self._disk_path(key)
        if path is None:
            return
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            atomic_write_bytes(path, pickle.dumps(value))
        except Exception as exc:
            # An unwritable disk tier degrades to memory-only.
            self._disk_warn("store", path, exc)


#: The shape of a cached :class:`~repro.core.compiler.CompiledProgram`.
#: Part of every compile-cache key: bump it when that shape changes, so
#: a disk tier written by older code misses instead of returning a
#: program without what newer code reads.
COMPILE_FORMAT = 2


class CompilationCache(ArtifactCache):
    """Caches :class:`~repro.core.compiler.CompiledProgram` objects.

    Keyed by :data:`COMPILE_FORMAT`, the Verilog source text, the full
    :class:`~repro.core.compiler.CompileOptions`, and the target
    topology fingerprint, so any option change (e.g. a different
    ``unroll_steps``) is a distinct entry and programs compiled against
    different hardware families never alias.  Callers compiling without
    a concrete machine pass the default target-agnostic marker.
    """

    metric_name = "compile"

    @staticmethod
    def key_for(source: str, options: Any, target: str = "any") -> str:
        return stable_hash(
            f"format:{COMPILE_FORMAT}",
            "verilog:" + source,
            "options:" + options_fingerprint(options),
            "target:" + target,
        )


class CheckpointCache(ArtifactCache):
    """Persists shard-solver run state through the crash-safe disk tier.

    The sharded decomposer (:mod:`repro.solvers.shard`) writes one
    entry per run -- completed reads, the in-progress read's incumbent,
    the parent RNG state, and the fleet's health/breaker state -- after
    every stitch round.  Because :meth:`ArtifactCache._disk_put` is
    write-temp + fsync + atomic rename, a run killed mid-write always
    leaves either the previous round's checkpoint or the new one, never
    a torn file; a ``--resume`` therefore continues from the last
    *completed* iteration, bit-identical to the run that died.

    Keyed by a run fingerprint covering the model, the full solver
    configuration (fleet shape, fault spec, seeds), and the requested
    reads, so a resume can never pick up state from a different
    problem, a differently-damaged fleet, or a different seed.
    """

    metric_name = "checkpoint"

    @staticmethod
    def key_for(run_fingerprint: str) -> str:
        return stable_hash("checkpoint:" + run_fingerprint)


class EmbeddingCache(ArtifactCache):
    """Caches :class:`~repro.hardware.embedding.Embedding` objects.

    Keyed by the *logical interaction graph* fingerprint -- not the
    model coefficients -- because an embedding depends only on which
    couplings are non-zero.  Re-running a compiled program with
    different pins therefore reuses the same embedding (pins only bias
    existing variables).  The target graph, seed, and retry budget are
    part of the key so distinct hardware or a runner with another seed
    still embeds afresh (Section 6.1's 25-embedding variance sweep
    relies on per-seed variation).

    The target fingerprint is computed over the machine's *working*
    graph, so a degraded machine (dead qubits/couplers from the yield
    model or fault injection) never reuses an embedding found for a
    healthier -- or differently damaged -- unit.  The ``topology``
    component additionally names the hardware family and its parameters
    (:meth:`repro.hardware.topology.Topology.fingerprint`): two
    topologies whose working graphs could ever hash alike -- or whose
    yield models differ only in provenance -- still get distinct
    entries.
    """

    metric_name = "embedding"

    @staticmethod
    def key_for(
        source_graph: nx.Graph,
        target_graph: nx.Graph,
        seed: Optional[int] = None,
        tries: int = 16,
        max_attempts: int = 1,
        topology: str = "",
    ) -> str:
        return stable_hash(
            "source:" + graph_fingerprint(source_graph),
            "target:" + graph_fingerprint(target_graph),
            "topology:" + topology,
            f"seed:{seed!r}",
            f"tries:{tries}",
            f"max_attempts:{max_attempts}",
            f"embedder:{EMBEDDER_VERSION}",
        )
