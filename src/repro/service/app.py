"""The annealing service HTTP layer: stdlib-only, thread-per-request.

:class:`AnnealingService` is the transport-agnostic core -- job store,
worker pool, shared caches, rate limiter, metrics registry --
and :class:`AnnealingServer` mounts it on a
:class:`http.server.ThreadingHTTPServer`.  No framework, no new
dependencies: the request handlers parse/emit JSON by hand, which keeps
the service importable anywhere the compiler itself is.

Cache sharing is the point of the long-lived process: every job
executes through a *per-job* :class:`VerilogAnnealerCompiler` seeded
from the request (so concurrent identical submissions are bit-identical
to a serial run), but all jobs share the service's content-addressed
:class:`~repro.core.cache.CompilationCache` and
:class:`~repro.core.cache.EmbeddingCache` -- a warm submission skips
compilation and embedding entirely and goes straight to sampling,
surfaced as the ``service.cache_warm`` counter and the job's
``cache_warm`` field.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import logging
import os
import re
import secrets
import signal
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.cache import CompilationCache, EmbeddingCache, stable_hash
from repro.core.compiler import CompileOptions, VerilogAnnealerCompiler
from repro.core.deadline import Deadline, DeadlineExceeded
from repro.core.trace import MetricsRegistry
from repro.hardware.registry import make_topology
from repro.hdl.errors import VerilogError, format_diagnostic
from repro.qmasm.program import QmasmError
from repro.qmasm.runner import RunResult, json_safe
from repro.service.jobs import (
    Job,
    JobRequest,
    JobState,
    JobStore,
    ServiceError,
)
from repro.service.journal import JobJournal
from repro.service.queue import WorkerPool
from repro.service.ratelimit import RateLimiter
from repro.service.recovery import RecoveryReport, recover

logger = logging.getLogger(__name__)

_JOB_PATH_RE = re.compile(r"^/jobs/([A-Za-z0-9_\-]+)(/trace)?$")

#: Chaos-testing hook: when set to a pipeline stage name (``elaborate``,
#: ``find_embedding``, ``sample``, ...), the worker hard-exits the
#: process (``os._exit(137)``, indistinguishable from a SIGKILL) the
#: moment that stage begins, even for a stage that would then skip
#: itself (``find_embedding`` under ``sa``).  The recovery kill-matrix
#: tests use it to crash the service deterministically at each pipeline
#: stage.
CRASH_STAGE_ENV = "REPRO_SERVICE_CRASH_STAGE"

#: Submission cap on Idempotency-Key length.
MAX_IDEMPOTENCY_KEY_LEN = 256
#: Bound on tracked (tenant, Idempotency-Key) pairs; oldest dropped.
MAX_IDEMPOTENCY_KEYS = 4096
#: Request-body bound, in bytes.
MAX_BODY_BYTES = 2_000_000


def _payload_fingerprint(payload: Any) -> str:
    """Canonical digest of a submission body (idempotency conflict check)."""
    return stable_hash(
        "payload:" + json.dumps(payload, sort_keys=True, default=str)
    )


def _crash(artifact: Any, context: Any) -> bool:
    """A stage's ``skip`` under the crash hook: the stage's first call."""
    os._exit(137)


@dataclass
class ServiceConfig:
    """Everything one serving process is configured by."""

    host: str = "127.0.0.1"
    port: int = 8000
    #: Worker threads draining the job queue.
    workers: int = 2
    #: Bound on queued (not yet running) jobs; full -> HTTP 503.
    queue_size: int = 64
    #: Per-tenant token-bucket refill rate (submissions/second); None
    #: disables rate limiting.
    rate_limit_per_s: Optional[float] = 20.0
    #: Per-tenant burst capacity (bucket size).
    rate_limit_burst: float = 40.0
    #: Optional on-disk tier for the shared compile/embedding caches,
    #: so a restarted (or co-located) server starts warm.
    cache_dir: Optional[str] = None
    #: Retained-job bound for the store (oldest terminals evicted).
    max_jobs: int = 1024
    #: Hardware family for jobs that need a machine (dwave/shard).
    topology: str = "chimera"
    topology_size: Optional[int] = None
    #: Simulated fleet size for shard jobs.
    machines: int = 4
    #: Directory for the write-ahead job journal; None keeps all job
    #: state in memory (a crash loses queued/in-flight jobs).
    state_dir: Optional[str] = None
    #: Replay the journal on startup (re-enqueue orphans, restore
    #: terminal results).  Only meaningful with ``state_dir``.
    recover: bool = True


class AnnealingService:
    """The transport-agnostic service core (store, pool, caches, limits)."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        cfg = self.config
        self.started_s = time.time()
        self.store = JobStore(max_jobs=cfg.max_jobs)
        self.compile_cache = CompilationCache(cache_dir=self._cache_dir("compile"))
        self.embedding_cache = EmbeddingCache(cache_dir=self._cache_dir("embedding"))
        self.limiter = RateLimiter(cfg.rate_limit_per_s, burst=cfg.rate_limit_burst)
        self.pool = WorkerPool(
            self.execute, workers=cfg.workers, queue_size=cfg.queue_size
        )
        self.journal: Optional[JobJournal] = (
            JobJournal(cfg.state_dir) if cfg.state_dir else None
        )
        self.recovery_report: Optional[RecoveryReport] = None
        self._idempotency: "OrderedDict[Tuple[str, str], Tuple[str, Optional[str]]]" = (
            OrderedDict()
        )
        self._idempotency_lock = threading.Lock()
        self._crash_stage = os.environ.get(CRASH_STAGE_ENV) or None
        self.metrics = MetricsRegistry()
        self._metrics_lock = threading.Lock()
        self._cache_sync: Dict[str, float] = {}
        # Pre-register the serving metrics so a freshly started server's
        # /metrics is complete and well-defined at zero requests (the
        # derived cache hit ratios render as "n/a (0 lookups)", never a
        # divide-by-zero or NaN).
        for name in (
            "service.requests",
            "service.jobs_submitted",
            "service.jobs_completed",
            "service.jobs_failed",
            "service.jobs_timeout",
            "service.cache_warm",
            "service.cache_cold",
            "service.rate_limited",
            "service.queue_rejections",
            "service.idempotent_hits",
            "service.idempotency_conflicts",
            "service.recovered_jobs",
            "service.requeued_jobs",
            "service.quarantined_jobs",
            "service.gone_410",
            "journal.records",
            "journal.torn_records",
            "cache.compile.hits",
            "cache.compile.misses",
            "cache.embedding.hits",
            "cache.embedding.misses",
        ):
            self.metrics.counter(name)
        self.metrics.gauge("service.queue_depth")
        self.metrics.gauge("service.workers_alive").set(0)
        self.metrics.gauge("service.recovery_replay_s").set(0.0)

    def _cache_dir(self, kind: str) -> Optional[str]:
        if self.config.cache_dir is None:
            return None
        return os.path.join(self.config.cache_dir, kind)

    # -- metrics helpers ----------------------------------------------
    def _count(self, name: str, amount: float = 1) -> None:
        """Exact (lock-guarded) counter increment across worker threads."""
        with self._metrics_lock:
            self.metrics.counter(name).inc(amount)

    def _observe(self, name: str, value: float) -> None:
        with self._metrics_lock:
            self.metrics.histogram(name).observe(value)

    def _sync_cache_metrics(self) -> None:
        """Mirror the shared caches' stats into the registry as counters.

        The caches count on their own :class:`CacheStats`; at render
        time the deltas since the last sync are folded into
        ``cache.<kind>.*`` counters so ``render_summary`` derives the
        hit ratios the load-test benchmark reports.
        """
        with self._metrics_lock:
            for kind, cache in (
                ("compile", self.compile_cache),
                ("embedding", self.embedding_cache),
            ):
                for field in ("hits", "misses", "stores", "disk_errors"):
                    current = getattr(cache.stats, field)
                    key = f"cache.{kind}.{field}"
                    previous = self._cache_sync.get(key, 0)
                    if current > previous:
                        self.metrics.counter(key).inc(current - previous)
                        self._cache_sync[key] = current
            self.metrics.gauge("service.queue_depth").set(self.pool.queue_depth())
            self.metrics.gauge("service.workers_alive").set(
                self.pool.alive_workers()
            )
            self.metrics.gauge("service.uptime_s").set(
                time.time() - self.started_s
            )

    # -- journal plumbing ----------------------------------------------
    def _bind_journal(self, job: Job) -> None:
        """Attach the terminal sink so every finish() is journaled."""
        if self.journal is not None:
            job.bind_terminal_sink(self._journal_terminal)

    def _journal_terminal(self, job: Job) -> None:
        try:
            self.journal.terminal(job.id, job.terminal_record())
            self._count("journal.records")
        except Exception:  # pragma: no cover - disk failure guard
            # Durability degraded, but a journal write failure must not
            # take the worker (or the job's in-memory result) with it.
            logger.exception("failed to journal terminal for job %s", job.id)

    def _register_idempotency_key(
        self, tenant: str, key: str, job_id: str, fingerprint: Optional[str]
    ) -> None:
        with self._idempotency_lock:
            self._idempotency[(tenant, key)] = (job_id, fingerprint)
            self._idempotency.move_to_end((tenant, key))
            while len(self._idempotency) > MAX_IDEMPOTENCY_KEYS:
                self._idempotency.popitem(last=False)

    def _idempotency_lookup(
        self, tenant: str, key: str
    ) -> Optional[Tuple[str, Optional[str]]]:
        with self._idempotency_lock:
            entry = self._idempotency.get((tenant, key))
            if entry is not None:
                self._idempotency.move_to_end((tenant, key))
            return entry

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Recover journaled jobs (if configured), then start serving."""
        requeue: List[Job] = []
        if self.journal is not None and self.config.recover:
            requeue, report = recover(self)
            self.recovery_report = report
            self._count("service.recovered_jobs", report.recovered_jobs)
            self._count("service.quarantined_jobs", report.quarantined_jobs)
            self._count("journal.torn_records", report.torn_records)
            with self._metrics_lock:
                self.metrics.gauge("service.recovery_replay_s").set(
                    report.replay_s
                )
            if report.recovered_jobs:
                logger.info(
                    "recovered %d journaled job(s) in %.0fms "
                    "(%d terminal, %d requeued, %d quarantined)",
                    report.recovered_jobs,
                    report.replay_s * 1000,
                    report.terminal_jobs,
                    report.requeued_jobs,
                    report.quarantined_jobs,
                )
        self.pool.start()
        for job in requeue:
            if self.pool.submit(job):
                self._count("service.requeued_jobs")
            else:
                job.finish(
                    JobState.ERROR,
                    error={
                        "error": "queue_full",
                        "message": "recovered job could not be re-enqueued "
                        "(queue full); resubmit it",
                        "status": 503,
                    },
                )

    def shutdown(self, drain: bool = True, timeout_s: float = 30.0) -> bool:
        """Stop the worker pool; True iff it wound down cleanly.

        With a journal, the drain is what makes restarts exact: every
        in-flight job reaches a journaled terminal state before the
        final flush-and-close, so the next recovery has nothing to
        re-run.
        """
        clean = self.pool.shutdown(drain=drain, timeout_s=timeout_s)
        if self.journal is not None:
            self.journal.close()
        return clean

    # -- submission ----------------------------------------------------
    def _extract_idempotency_key(
        self, payload: Any, header_key: Optional[str]
    ) -> Tuple[Any, Optional[str]]:
        """Pull the key out of the body (or take the header's); validate."""
        key = header_key
        if isinstance(payload, dict) and "idempotency_key" in payload:
            payload = dict(payload)
            field_key = payload.pop("idempotency_key")
            if field_key is not None:
                key = key or field_key
        if key is not None:
            if (
                not isinstance(key, str)
                or not key.strip()
                or len(key) > MAX_IDEMPOTENCY_KEY_LEN
            ):
                raise ServiceError(
                    400,
                    "invalid_request",
                    "idempotency key must be a non-empty string of at most "
                    f"{MAX_IDEMPOTENCY_KEY_LEN} characters",
                    field="idempotency_key",
                )
            key = key.strip()
        return payload, key

    def submit(
        self,
        payload: Any,
        tenant: str = "anonymous",
        idempotency_key: Optional[str] = None,
    ) -> Tuple[Job, bool]:
        """Validate and enqueue one submission (or raise ServiceError).

        Returns ``(job, deduplicated)``: a resubmission carrying an
        already-seen ``Idempotency-Key`` (with a byte-identical payload)
        returns the *original* job without executing anything -- the
        retry-after-a-lost-202 path -- and never spends a rate-limit
        token.  The same key with a *different* payload is a structured
        409 conflict.
        """
        payload, key = self._extract_idempotency_key(payload, idempotency_key)
        fingerprint: Optional[str] = None
        if key is not None:
            fingerprint = _payload_fingerprint(payload)
            existing = self._idempotency_lookup(tenant, key)
            if existing is not None:
                job_id, stored_fp = existing
                if stored_fp is not None and stored_fp != fingerprint:
                    self._count("service.idempotency_conflicts")
                    raise ServiceError(
                        409,
                        "idempotency_conflict",
                        f"idempotency key {key!r} was already used with a "
                        "different payload",
                        idempotency_key=key,
                    )
                job = self.store.get(job_id)
                if job is not None:
                    self._count("service.idempotent_hits")
                    return job, True
                # The original job aged out of retention; surfacing
                # that beats silently re-running a request the client
                # believes already executed.
                raise ServiceError(
                    410,
                    "gone",
                    f"the job for idempotency key {key!r} was evicted by "
                    "the retention bound",
                    idempotency_key=key,
                    original_job_id=job_id,
                )
        allowed, retry_after = self.limiter.acquire(tenant)
        if not allowed:
            self._count("service.rate_limited")
            raise ServiceError(
                429,
                "rate_limited",
                f"tenant {tenant!r} exceeded its submission rate",
                retry_after_s=retry_after,
                tenant=tenant,
            )
        request = JobRequest.from_payload(payload)
        if self.journal is not None and request.seed is None:
            # Materialize the seed now so it lands in the accept record:
            # a journal replay re-runs the job bit-identically to the
            # run the crash interrupted.
            request = dataclasses.replace(request, seed=secrets.randbits(31))
        job = self.store.create(request, tenant)
        job.idempotency_key = key
        self._bind_journal(job)
        if self.journal is not None:
            # WAL ordering: the accept record is fsynced before the job
            # is enqueued (and before the caller's 202 goes out), so an
            # acknowledged job can never be lost to a crash.
            self.journal.accept(
                job.id,
                tenant,
                dataclasses.asdict(request),
                job.created_s,
                idempotency_key=key,
                fingerprint=fingerprint,
            )
            self._count("journal.records")
        if not self.pool.submit(job):
            job.finish(
                JobState.ERROR,
                error={
                    "error": "queue_full",
                    "message": "job queue is full; retry later",
                    "status": 503,
                },
            )
            self._count("service.queue_rejections")
            raise ServiceError(
                503,
                "queue_full",
                "job queue is full; retry later",
                retry_after_s=1.0,
            )
        self._count("service.jobs_submitted")
        if key is not None:
            self._register_idempotency_key(tenant, key, job.id, fingerprint)
        return job, False

    # -- execution -----------------------------------------------------
    def _make_compiler(self, request: JobRequest) -> VerilogAnnealerCompiler:
        """A per-job compiler seeded from the request, on shared caches.

        Fresh per job so each job's RNG state is a pure function of its
        seed (concurrent identical submissions stay bit-identical to a
        serial run); the content-addressed caches are the shared,
        order-insensitive tier.
        """
        machine = None
        if request.solver in ("dwave", "shard"):
            from repro.solvers.machine import DWaveSimulator, MachineProperties

            machine = DWaveSimulator(
                properties=MachineProperties(
                    topology=self.config.topology,
                    cells=self.config.topology_size,
                ),
                seed=request.seed,
            )
        compiler = VerilogAnnealerCompiler(
            machine=machine,
            seed=request.seed,
            cache=self.compile_cache,
            machines=self.config.machines,
        )
        compiler.runner.embedding_cache = self.embedding_cache
        if self._crash_stage is not None:
            # Stage lists belong to this job's compiler, so the hook
            # never leaks into another job's pipeline.
            for stage in (*compiler.compile_stages, *compiler.runner.run_stages):
                if stage.name == self._crash_stage:
                    stage.skip = _crash
        return compiler

    def _run_request(
        self, request: JobRequest, deadline: Optional[Deadline]
    ) -> Tuple[RunResult, bool, List[Dict[str, Any]]]:
        """Execute one request; returns (result, cache_warm, stages)."""
        compiler = self._make_compiler(request)
        stages: List[Dict[str, Any]] = []
        run_kwargs = dict(
            pins=list(request.pins),
            solver=request.solver,
            num_reads=request.num_reads,
            num_sweeps=request.num_sweeps,
            use_roof_duality=request.use_roof_duality,
            certify=request.certify,
            deadline=deadline,
        )
        if request.language == "verilog":
            options = CompileOptions(
                top=request.top, unroll_steps=request.unroll_steps
            )
            machine = compiler.runner.machine
            target = (
                machine.topology.fingerprint() if machine is not None else "any"
            )
            key = CompilationCache.key_for(request.source, options, target)
            warm = self.compile_cache.contains(key)
            program = compiler.compile(request.source, options)
            stages.extend(_stage_payload("compile", program.stats, cached=warm))
            result = compiler.run(program, **run_kwargs)
        else:
            warm = False
            result = compiler.runner.run(request.source, **run_kwargs)
        # An embedding served from the shared cache is just as warm as a
        # cached compilation: the job skipped straight to sampling.
        warm = warm or result.info.get("embedding_cache") == "hit"
        stages.extend(_stage_payload("run", result.stats))
        return result, warm, stages

    def execute(self, job: Job) -> None:
        """Worker entrypoint: run one job to a terminal state."""
        attempt = job.mark_running()
        if self.journal is not None:
            # The running record is what lets recovery count crashed
            # attempts: reach the quarantine threshold with no terminal
            # and the job is poison, not merely unlucky.
            self.journal.running(job.id, attempt)
            self._count("journal.records")
        request = job.request
        deadline = (
            Deadline(request.deadline_s) if request.deadline_s is not None else None
        )
        try:
            result, warm, stages = self._run_request(request, deadline)
            payload = result.result_payload(
                max_solutions=request.max_solutions,
                include_samples=request.return_samples,
            )
            job.finish(
                JobState.DONE, result=payload, cache_warm=warm, stage_records=stages
            )
            self._count("service.jobs_completed")
            self._count("service.cache_warm" if warm else "service.cache_cold")
        except DeadlineExceeded as exc:
            job.finish(
                JobState.TIMEOUT,
                error={
                    "error": "deadline_exceeded",
                    "message": str(exc),
                    # The classic request-timeout status, surfaced in the
                    # job body (the poll itself still answers 200).
                    "status": 408,
                    "stage": exc.stage,
                    "budget_s": exc.budget_s,
                    "elapsed_s": exc.elapsed_s,
                },
            )
            self._count("service.jobs_timeout")
        except ServiceError as exc:
            job.finish(JobState.ERROR, error=exc.payload())
            self._count("service.jobs_failed")
        except (VerilogError, QmasmError) as exc:
            # Parse-clean source can still fail elaboration/assembly
            # (unknown top module, width errors, unknown pin targets).
            job.finish(
                JobState.ERROR,
                error={
                    "error": "invalid_source",
                    "message": str(exc),
                    "status": 400,
                    "diagnostic": format_diagnostic(
                        str(exc), source=request.language
                    ),
                },
            )
            self._count("service.jobs_failed")
        except ValueError as exc:
            job.finish(
                JobState.ERROR,
                error={
                    "error": "unprocessable",
                    "message": str(exc),
                    "status": 422,
                },
            )
            self._count("service.jobs_failed")
        except Exception as exc:  # pragma: no cover - last-resort guard
            logger.exception("job %s failed unexpectedly", job.id)
            job.finish(
                JobState.ERROR,
                error={
                    "error": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                    "status": 500,
                },
            )
            self._count("service.jobs_failed")
        finally:
            snapshot = job.snapshot()
            if "queue_wait_s" in snapshot:
                self._observe("service.job_queue_wait_s", snapshot["queue_wait_s"])
            if "run_s" in snapshot:
                self._observe("service.job_run_s", snapshot["run_s"])

    # -- views ---------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        body = {
            "status": "ok",
            "uptime_s": time.time() - self.started_s,
            "workers": self.pool.workers,
            "workers_alive": self.pool.alive_workers(),
            "queue_depth": self.pool.queue_depth(),
            "jobs": self.store.counts(),
            "journal": {
                "enabled": self.journal is not None,
                "records_written": (
                    self.journal.records_written if self.journal else 0
                ),
            },
        }
        if self.recovery_report is not None:
            body["recovery"] = self.recovery_report.as_dict()
        return body

    def metrics_text(self) -> str:
        self._sync_cache_metrics()
        with self._metrics_lock:
            return self.metrics.render_summary(title="service metrics:")

    def metrics_json(self) -> Dict[str, Any]:
        self._sync_cache_metrics()
        with self._metrics_lock:
            body = self.metrics.as_dict()
        body["derived"] = {
            "cache.compile.hit_ratio": self.compile_cache.stats.hit_rate,
            "cache.embedding.hit_ratio": self.embedding_cache.stats.hit_rate,
        }
        return body


def _stage_payload(
    pipeline: str, stats, cached: bool = False
) -> List[Dict[str, Any]]:
    """Stage records -> JSON-safe per-stage records for the trace view."""
    records = []
    for record in stats.values():
        records.append(
            {
                "pipeline": pipeline,
                "name": record.name,
                "wall_time_s": record.wall_time_s,
                "cached": bool(record.cached or cached),
                "skipped": bool(record.skipped),
                "counters": {k: json_safe(v) for k, v in record.counters.items()},
            }
        )
    return records


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """Routes requests into the mounted :class:`AnnealingService`."""

    #: Set by :class:`AnnealingServer` on its per-instance subclass.
    service: AnnealingService = None  # type: ignore[assignment]
    server_version = "repro-anneald/1.0"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        retry_after_s: Optional[float] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            self.send_header("Retry-After", f"{max(retry_after_s, 0.0):.3f}")
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_payload(self, exc: ServiceError) -> None:
        self._send_json(exc.status, exc.payload(), retry_after_s=exc.retry_after_s)

    def _tenant(self) -> str:
        tenant = self.headers.get("X-Tenant", "anonymous").strip() or "anonymous"
        return tenant[:128]

    def _read_body(self) -> bytes:
        length_text = self.headers.get("Content-Length")
        try:
            length = int(length_text) if length_text is not None else 0
        except ValueError:
            raise ServiceError(400, "invalid_request", "bad Content-Length")
        if length <= 0:
            raise ServiceError(400, "invalid_request", "request body required")
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                413,
                "payload_too_large",
                f"request body exceeds {MAX_BODY_BYTES} bytes",
            )
        return self.rfile.read(length)

    def _dispatch(self, method: str) -> None:
        service = self.service
        start = time.perf_counter()
        url = urlsplit(self.path)
        try:
            service._count("service.requests")
            if method == "POST" and url.path == "/jobs":
                service._count("service.requests.jobs_post")
                self._post_jobs()
            elif method == "GET" and url.path == "/healthz":
                service._count("service.requests.healthz")
                self._send_json(200, service.health())
            elif method == "GET" and url.path == "/metrics":
                service._count("service.requests.metrics")
                query = parse_qs(url.query)
                if query.get("format", [""])[0] == "json":
                    self._send_json(200, service.metrics_json())
                else:
                    self._send_text(200, service.metrics_text() + "\n")
            elif method == "GET" and _JOB_PATH_RE.match(url.path):
                service._count("service.requests.jobs_get")
                self._get_job(_JOB_PATH_RE.match(url.path))
            else:
                raise ServiceError(
                    404, "not_found", f"no route for {method} {url.path}"
                )
        except ServiceError as exc:
            self._send_error_payload(exc)
        except BrokenPipeError:  # client went away mid-reply
            pass
        except Exception as exc:  # pragma: no cover - last-resort guard
            logger.exception("unhandled error serving %s %s", method, self.path)
            self._send_json(
                500,
                {
                    "error": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                    "status": 500,
                },
            )
        finally:
            service._observe(
                "service.http_latency_s", time.perf_counter() - start
            )

    # -- routes --------------------------------------------------------
    def _post_jobs(self) -> None:
        body = self._read_body()
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                400, "invalid_json", f"request body is not valid JSON: {exc}"
            ) from exc
        job, deduplicated = self.service.submit(
            payload,
            tenant=self._tenant(),
            idempotency_key=self.headers.get("Idempotency-Key"),
        )
        body = {
            "id": job.id,
            "state": job.state,
            "links": {
                "self": f"/jobs/{job.id}",
                "trace": f"/jobs/{job.id}/trace",
            },
        }
        if deduplicated:
            # The retry-after-a-lost-202 path: same key, same payload,
            # the original job -- nothing was re-executed.
            body["deduplicated"] = True
        self._send_json(202, body)

    def _get_job(self, match: "re.Match[str]") -> None:
        job_id, trace = match.group(1), match.group(2)
        job = self.service.store.get(job_id)
        if job is None:
            evicted = self.service.store.evicted_info(job_id)
            if evicted is not None:
                # "Existed, completed, aged out" is not "never existed":
                # a 410 with the eviction metadata lets clients stop
                # retrying instead of treating the id as a typo.
                self.service._count("service.gone_410")
                raise ServiceError(
                    410,
                    "gone",
                    f"job {job_id!r} was evicted by the retention bound",
                    **evicted,
                )
            raise ServiceError(404, "not_found", f"no job {job_id!r}")
        if trace:
            self._send_json(200, job.trace_payload())
        else:
            self._send_json(200, job.snapshot())

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("POST")


class AnnealingServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer bound to one :class:`AnnealingService`.

    ``daemon_threads`` keeps per-request handler threads from pinning
    process exit; worker threads are owned (and joined) by the service's
    pool, through :meth:`shutdown_service`.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, config: Optional[ServiceConfig] = None):
        config = config or ServiceConfig()
        self.service = AnnealingService(config)
        handler = type("BoundHandler", (_Handler,), {"service": self.service})
        super().__init__((config.host, config.port), handler)
        self.service.start()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown_service(self, drain: bool = True, timeout_s: float = 30.0) -> bool:
        """Stop accepting, close the socket, and wind down the workers.

        Returns True iff every queued/in-flight job reached a terminal
        state (``drain=True``) and every worker thread exited within
        the bound.  Safe to call more than once.
        """
        self.shutdown()
        self.server_close()
        return self.service.shutdown(drain=drain, timeout_s=timeout_s)


# ----------------------------------------------------------------------
# CLI: ``python -m repro serve``
# ----------------------------------------------------------------------
def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve the Verilog/QMASM -> annealer pipeline as a long-lived "
            "HTTP/JSON job service (POST /jobs, GET /jobs/<id>, /healthz, "
            "/metrics)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument(
        "--workers", type=int, default=2, help="job worker threads (default: 2)"
    )
    parser.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="queued-job bound; a full queue answers 503 (default: 64)",
    )
    parser.add_argument(
        "--rate-limit",
        type=float,
        default=20.0,
        metavar="PER_S",
        help="per-tenant submissions/second (0 disables; default: 20)",
    )
    parser.add_argument(
        "--burst",
        type=float,
        default=40.0,
        help="per-tenant burst capacity (default: 40)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk tier for the shared compile/embedding caches",
    )
    parser.add_argument(
        "--topology",
        default="chimera",
        help="hardware family for dwave/shard jobs (default: chimera)",
    )
    parser.add_argument(
        "--topology-size",
        type=int,
        default=None,
        metavar="M",
        help="grid parameter for --topology (default: family flagship)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        help=(
            "directory for the write-ahead job journal; acknowledged jobs "
            "survive crashes/restarts and are replayed on startup"
        ),
    )
    recover = parser.add_mutually_exclusive_group()
    recover.add_argument(
        "--recover",
        dest="recover",
        action="store_true",
        default=True,
        help="replay the journal on startup (default with --state-dir)",
    )
    recover.add_argument(
        "--no-recover",
        dest="recover",
        action="store_false",
        help="skip journal replay (new jobs are still journaled)",
    )
    return parser


class _GracefulSignal(BaseException):
    """Raised out of ``serve_forever`` by the SIGTERM handler.

    A ``BaseException``, as ``KeyboardInterrupt`` is: the handler may
    fire inside ``process_request``, whose ``except Exception`` would
    log the signal as a failed request and keep serving.
    """


def _sigterm_handler(signum, frame):  # pragma: no cover - signal path
    raise _GracefulSignal()


def _serve_usage_error(args: argparse.Namespace) -> Optional[str]:
    """What is wrong with a setting no job could be served with, or None.

    The topology is instantiated here, which builds no graph, so an
    unknown family or a size it rejects fails before the server
    listens rather than in every dwave or shard job.
    """
    for flag, value in (
        ("--workers", args.workers),
        ("--queue-size", args.queue_size),
        ("--topology-size", args.topology_size),
    ):
        if value is not None and value < 1:
            return f"{flag} must be at least 1, got {value}"
    if not args.rate_limit >= 0:
        return f"--rate-limit must be at least 0 (0 disables), got {args.rate_limit:g}"
    if args.rate_limit > 0 and not args.burst >= 1:
        return f"--burst must be at least 1, got {args.burst:g}"
    try:
        make_topology(args.topology, size=args.topology_size)
    except KeyError as exc:
        return f"--topology: {exc.args[0]}"
    except ValueError as exc:
        return f"--topology-size: {exc}"
    return None


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro serve ...``.

    Blocks until SIGINT (^C) or SIGTERM -- both take the same
    drain-and-flush path, so a container stop (docker/k8s sends
    SIGTERM) is exactly as graceful as an interactive ^C: in-flight
    jobs finish, the journal is flushed, and the exit code reports
    whether the wind-down was clean.
    """
    args = build_serve_parser().parse_args(argv)
    problem = _serve_usage_error(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        raise SystemExit(2)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        rate_limit_per_s=args.rate_limit if args.rate_limit > 0 else None,
        rate_limit_burst=args.burst,
        cache_dir=args.cache_dir,
        topology=args.topology,
        topology_size=args.topology_size,
        state_dir=args.state_dir,
        recover=args.recover,
    )
    server = AnnealingServer(config)
    # What start-up built (modules, caches, the replayed journal) lives
    # about as long as the process: keep the cycle collector from
    # walking it again in every full collection.
    gc.freeze()
    report = server.service.recovery_report
    if report is not None:
        print(
            f"journal replay: {report.recovered_jobs} job(s) recovered in "
            f"{report.replay_s * 1000:.0f}ms ({report.terminal_jobs} "
            f"terminal, {report.requeued_jobs} requeued, "
            f"{report.quarantined_jobs} quarantined)",
            flush=True,
        )
    print(
        f"annealing service listening on {server.url} "
        f"({config.workers} workers, queue {config.queue_size})",
        flush=True,
    )
    try:
        # Only the main thread may install handlers; embedded callers
        # (tests driving serve_main from a thread) just skip SIGTERM
        # grace and rely on explicit shutdown.
        signal.signal(signal.SIGTERM, _sigterm_handler)
    except ValueError:
        pass
    try:
        server.serve_forever()
    except (KeyboardInterrupt, _GracefulSignal) as exc:
        cause = "SIGTERM" if isinstance(exc, _GracefulSignal) else "^C"
        print(
            f"shutting down on {cause} (draining in-flight jobs, "
            "flushing journal)...",
            flush=True,
        )
        clean = server.service.shutdown(drain=True, timeout_s=30.0)
        server.server_close()
        return 0 if clean else 1
    return 0
