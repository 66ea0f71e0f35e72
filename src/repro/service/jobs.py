"""Job model for the annealing service: requests, states, and the store.

A *job* is one submitted problem (Verilog or QMASM source, pins, run
options) moving through ``queued -> running -> {done, error, timeout}``.
Submission-time validation happens in :meth:`JobRequest.from_payload`
so malformed requests are rejected synchronously with a structured
HTTP 400 (diagnostics formatted by
:func:`repro.hdl.errors.format_diagnostic`, the same house style the
CLI uses); everything that can only fail at execution time (elaboration
errors, deadline expiry, solver failures) lands on the job as a
structured terminal error instead.
"""

from __future__ import annotations

import re
import secrets
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.hdl.errors import VerilogError, format_diagnostic
from repro.qmasm.parser import parse_pin, parse_qmasm
from repro.qmasm.program import QmasmError
from repro.qmasm.runner import SOLVERS


class JobState:
    """The job lifecycle states (plain strings, JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    ERROR = "error"
    TIMEOUT = "timeout"

    TERMINAL = frozenset({DONE, ERROR, TIMEOUT})
    ALL = (QUEUED, RUNNING, DONE, ERROR, TIMEOUT)


class ServiceError(Exception):
    """A structured service-level failure, mapped 1:1 onto an HTTP reply.

    Attributes:
        status: the HTTP status code (400/404/429/503/...).
        code: a stable machine-readable error code
            (``"invalid_source"``, ``"rate_limited"``, ...).
        retry_after_s: when set, rendered as a ``Retry-After`` header.
        details: extra JSON-safe fields merged into the error payload
            (line/column numbers, the formatted diagnostic, ...).
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after_s: Optional[float] = None,
        **details: Any,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s
        self.details = details

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "error": self.code,
            "message": self.message,
            "status": self.status,
        }
        if self.retry_after_s is not None:
            body["retry_after_s"] = round(self.retry_after_s, 6)
        body.update(self.details)
        return body


#: Solvers a job may request: the runner's, as on the CLI.
ALLOWED_SOLVERS = SOLVERS
ALLOWED_LANGUAGES = ("verilog", "qmasm")

#: Submission hard caps: a served endpoint must bound what one request
#: can ask of the fleet (the deadline bounds wall time; these bound the
#: requested work shape).
MAX_NUM_READS = 100_000
MAX_NUM_SWEEPS = 1_000_000
MAX_SOURCE_BYTES = 1_000_000
MAX_SOLUTIONS_CAP = 256


def _invalid(message: str, **details: Any) -> ServiceError:
    return ServiceError(400, "invalid_request", message, **details)


def _require_int(
    payload: Dict[str, Any],
    key: str,
    default: Optional[int],
    minimum: int,
    maximum: int,
) -> Optional[int]:
    value = payload.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _invalid(f"{key!r} must be an integer", field=key)
    if not minimum <= value <= maximum:
        raise _invalid(
            f"{key!r} must be in [{minimum}, {maximum}], got {value}", field=key
        )
    return value


@dataclass(frozen=True)
class JobRequest:
    """A validated submission: everything one job execution needs."""

    source: str
    language: str = "verilog"
    pins: Tuple[str, ...] = ()
    solver: str = "sa"
    num_reads: int = 100
    num_sweeps: Optional[int] = None
    seed: Optional[int] = None
    deadline_s: Optional[float] = None
    top: Optional[str] = None
    unroll_steps: Optional[int] = None
    use_roof_duality: bool = False
    certify: bool = False
    return_samples: bool = False
    max_solutions: int = 16

    @classmethod
    def from_payload(cls, payload: Any) -> "JobRequest":
        """Validate a decoded JSON body into a request (or raise 400).

        Source and pins are *parsed* here -- a submission with a syntax
        error is rejected synchronously with a 400 whose payload
        carries the one-line :func:`format_diagnostic` rendering plus
        the raw line/column, rather than burning a worker slot to
        discover the same thing asynchronously.
        """
        if not isinstance(payload, dict):
            raise _invalid("request body must be a JSON object")
        unknown = sorted(
            set(payload)
            - {f for f in cls.__dataclass_fields__}  # noqa: C416 (py39)
            - {"tenant"}
        )
        if unknown:
            raise _invalid(f"unknown field(s): {', '.join(unknown)}")

        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            raise _invalid("'source' must be a non-empty string", field="source")
        if len(source.encode("utf-8")) > MAX_SOURCE_BYTES:
            raise _invalid(
                f"'source' exceeds {MAX_SOURCE_BYTES} bytes", field="source"
            )
        language = payload.get("language", "verilog")
        if language not in ALLOWED_LANGUAGES:
            raise _invalid(
                f"'language' must be one of {', '.join(ALLOWED_LANGUAGES)}",
                field="language",
            )
        solver = payload.get("solver", "sa")
        if solver not in ALLOWED_SOLVERS:
            raise _invalid(
                f"'solver' must be one of {', '.join(ALLOWED_SOLVERS)}",
                field="solver",
            )

        pins_raw = payload.get("pins", [])
        if isinstance(pins_raw, str):
            pins_raw = [pins_raw]
        if not isinstance(pins_raw, list) or not all(
            isinstance(p, str) for p in pins_raw
        ):
            raise _invalid("'pins' must be a list of strings", field="pins")
        for text in pins_raw:
            try:
                parse_pin(text)
            except QmasmError as exc:
                raise ServiceError(
                    400,
                    "invalid_pin",
                    str(exc),
                    field="pins",
                    diagnostic=format_diagnostic(
                        str(exc), source=f"pin {text!r}"
                    ),
                ) from exc

        num_reads = _require_int(payload, "num_reads", 100, 1, MAX_NUM_READS)
        num_sweeps = _require_int(payload, "num_sweeps", None, 1, MAX_NUM_SWEEPS)
        seed = _require_int(payload, "seed", None, -(2**62), 2**62)
        unroll_steps = _require_int(payload, "unroll_steps", None, 1, 64)
        max_solutions = _require_int(
            payload, "max_solutions", 16, 1, MAX_SOLUTIONS_CAP
        )

        deadline_s = payload.get("deadline_s")
        if deadline_s is not None:
            if isinstance(deadline_s, bool) or not isinstance(
                deadline_s, (int, float)
            ):
                raise _invalid("'deadline_s' must be a number", field="deadline_s")
            if not 0.0 < float(deadline_s) <= 3600.0:
                raise _invalid(
                    "'deadline_s' must be in (0, 3600]", field="deadline_s"
                )
            deadline_s = float(deadline_s)

        top = payload.get("top")
        if top is not None and not isinstance(top, str):
            raise _invalid("'top' must be a string", field="top")
        flags = {}
        for key in ("use_roof_duality", "certify", "return_samples"):
            value = payload.get(key, False)
            if not isinstance(value, bool):
                raise _invalid(f"{key!r} must be a boolean", field=key)
            flags[key] = value

        # Syntax-check the source now: submission is the synchronous
        # moment, and the frontend errors carry line/column positions.
        if language == "verilog":
            try:
                from repro.hdl.parser import parse as parse_verilog

                parse_verilog(source)
            except VerilogError as exc:
                raise ServiceError(
                    400,
                    "invalid_source",
                    str(exc),
                    language="verilog",
                    line=exc.line,
                    column=exc.column,
                    diagnostic=format_diagnostic(str(exc), source="verilog"),
                ) from exc
        else:
            try:
                parse_qmasm(source)
            except QmasmError as exc:
                raise ServiceError(
                    400,
                    "invalid_source",
                    str(exc),
                    language="qmasm",
                    line=exc.line,
                    diagnostic=format_diagnostic(str(exc), source="qmasm"),
                ) from exc

        return cls(
            source=source,
            language=language,
            pins=tuple(pins_raw),
            solver=solver,
            num_reads=num_reads,
            num_sweeps=num_sweeps,
            seed=seed,
            deadline_s=deadline_s,
            top=top,
            unroll_steps=unroll_steps,
            max_solutions=max_solutions,
            **flags,
        )


@dataclass
class Job:
    """One submission moving through the queue; mutated under its lock."""

    id: str
    request: JobRequest
    tenant: str = "anonymous"
    state: str = JobState.QUEUED
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    cache_warm: bool = False
    stage_records: List[Dict[str, Any]] = field(default_factory=list)
    #: Worker pickups so far (journaled; recovery quarantines a job
    #: whose attempts reach the poison threshold with no terminal).
    attempts: int = 0
    #: The submission's Idempotency-Key, when one was given.
    idempotency_key: Optional[str] = None
    #: True when this job was rebuilt from the journal after a restart.
    recovered: bool = False

    def __post_init__(self):
        self._lock = threading.Lock()
        self._terminal_sink: Optional[Callable[["Job"], None]] = None

    def bind_terminal_sink(self, sink: Callable[["Job"], None]) -> None:
        """Install the journal callback invoked on every terminal transition.

        Bound at creation (and at recovery), so *every* path that
        finishes a job -- the executor, the pool's crash guard, the
        queue-full rejection, shutdown fail-out -- durably records the
        terminal state without each call site remembering to.
        """
        self._terminal_sink = sink

    # -- lifecycle -----------------------------------------------------
    def mark_running(self) -> int:
        """Transition to running; returns the (1-based) attempt number."""
        with self._lock:
            self.state = JobState.RUNNING
            self.started_s = time.time()
            self.attempts += 1
            return self.attempts

    def finish(
        self,
        state: str,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[Dict[str, Any]] = None,
        cache_warm: bool = False,
        stage_records: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        if state not in JobState.TERMINAL:
            raise ValueError(f"{state!r} is not a terminal job state")
        with self._lock:
            self.state = state
            self.finished_s = time.time()
            self.result = result
            self.error = error
            self.cache_warm = cache_warm
            if stage_records is not None:
                self.stage_records = stage_records
            sink = self._terminal_sink
        # The sink fsyncs; invoke it outside the lock so snapshot
        # readers are never blocked behind journal I/O.
        if sink is not None:
            sink(self)

    # -- views ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A consistent JSON-safe view of this job's current state."""
        with self._lock:
            body: Dict[str, Any] = {
                "id": self.id,
                "state": self.state,
                "tenant": self.tenant,
                "solver": self.request.solver,
                "language": self.request.language,
                "created_s": self.created_s,
                "started_s": self.started_s,
                "finished_s": self.finished_s,
                "cache_warm": self.cache_warm,
                "links": {
                    "self": f"/jobs/{self.id}",
                    "trace": f"/jobs/{self.id}/trace",
                },
            }
            if self.started_s is not None:
                body["queue_wait_s"] = self.started_s - self.created_s
            if self.finished_s is not None and self.started_s is not None:
                body["run_s"] = self.finished_s - self.started_s
            if self.result is not None:
                body["result"] = self.result
            if self.error is not None:
                body["error"] = self.error
            if self.attempts > 1:
                body["attempts"] = self.attempts
            if self.recovered:
                body["recovered"] = True
            return body

    def terminal_record(self) -> Dict[str, Any]:
        """The journal's ``terminal`` payload: everything a restarted
        server needs to keep answering ``GET /jobs/<id>`` for this job."""
        with self._lock:
            return {
                "state": self.state,
                "result": self.result,
                "error": self.error,
                "cache_warm": self.cache_warm,
                "stage_records": list(self.stage_records),
                "started_s": self.started_s,
                "finished_s": self.finished_s,
                "attempts": self.attempts,
            }

    def trace_payload(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "id": self.id,
                "state": self.state,
                "stages": list(self.stage_records),
            }

    def is_terminal(self) -> bool:
        with self._lock:
            return self.state in JobState.TERMINAL


_JOB_ID_SEQ_RE = re.compile(r"^job-(\d+)-")


class JobStore:
    """Thread-safe registry of jobs, bounded by evicting old terminals.

    Completed jobs are retained so clients can poll results, but a
    serving process must not grow without bound: once ``max_jobs`` is
    exceeded the oldest *terminal* jobs are evicted first (active jobs
    are never dropped).  Evictions leave a bounded *tombstone* behind,
    so a poll for a recently-evicted job can answer a structured
    ``410 Gone`` (with eviction metadata) instead of an
    indistinguishable-from-a-typo 404.
    """

    def __init__(self, max_jobs: int = 1024, max_tombstones: Optional[int] = None):
        self.max_jobs = max_jobs
        self.max_tombstones = (
            max_tombstones if max_tombstones is not None else max(1024, 4 * max_jobs)
        )
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._tombstones: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self._next_seq = 1

    def create(self, request: JobRequest, tenant: str) -> Job:
        with self._lock:
            job_id = f"job-{self._next_seq:06d}-{secrets.token_hex(4)}"
            self._next_seq += 1
            job = Job(id=job_id, request=request, tenant=tenant)
            self._jobs[job_id] = job
            self._evict_locked()
            return job

    def restore(self, job: Job) -> None:
        """Re-insert a journal-recovered job under its original id.

        Bumps the sequence counter past the recovered id so post-restart
        submissions never reuse a journaled sequence number.
        """
        with self._lock:
            match = _JOB_ID_SEQ_RE.match(job.id)
            if match:
                self._next_seq = max(self._next_seq, int(match.group(1)) + 1)
            self._jobs[job.id] = job
            self._evict_locked()

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def all_jobs(self) -> List[Job]:
        """Retained jobs in insertion order (for journal compaction)."""
        with self._lock:
            return list(self._jobs.values())

    def evicted_info(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Eviction metadata for a job dropped by the retention bound."""
        with self._lock:
            info = self._tombstones.get(job_id)
            return dict(info) if info is not None else None

    def counts(self) -> Dict[str, int]:
        with self._lock:
            by_state = {state: 0 for state in JobState.ALL}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            return by_state

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def _evict_locked(self) -> None:
        if len(self._jobs) <= self.max_jobs:
            return
        for job_id in list(self._jobs):
            if len(self._jobs) <= self.max_jobs:
                break
            job = self._jobs[job_id]
            if job.state in JobState.TERMINAL:
                del self._jobs[job_id]
                self._tombstones[job_id] = {
                    "state_at_eviction": job.state,
                    "created_s": job.created_s,
                    "finished_s": job.finished_s,
                    "evicted_s": time.time(),
                    "tenant": job.tenant,
                }
                while len(self._tombstones) > self.max_tombstones:
                    self._tombstones.popitem(last=False)
