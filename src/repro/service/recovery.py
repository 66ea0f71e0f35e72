"""Journal replay: rebuild a crashed service's jobs on startup.

Recovery is the read side of the write-ahead contract in
:mod:`repro.service.journal`.  On startup with a ``--state-dir``, the
service replays the journal and sorts every journaled job into one of
three buckets:

* **terminal** -- the job finished before the crash; it is re-inserted
  into the store with its journaled result, so clients polling across
  the restart still get their answer.
* **orphaned** -- accepted (and possibly picked up) but never finished;
  it is re-enqueued through the exact same deterministic pipeline.
  Because the seed was materialized and journaled at accept time, the
  replayed result is bit-identical to the run the crash interrupted.
* **poison** -- a job whose ``running`` count reached
  :data:`QUARANTINE_AFTER` with no terminal record: it crashed the
  worker process that many times, and re-enqueueing it would
  crash-loop the service.  It is finished as a structured
  ``quarantined`` error instead.

After the rebuild the journal is *compacted* -- rewritten (atomically)
to just the accept/terminal pairs of the jobs actually retained -- so
it stays bounded across restarts instead of accreting every job the
server ever saw.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.service.jobs import Job, JobRequest, JobState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.app import AnnealingService

logger = logging.getLogger(__name__)

#: Terminal error codes whose idempotency keys must NOT be replayed
#: into the dedup map: the submission never actually ran, so a client
#: retry with the same key *should* re-run it.
_NON_BINDING_ERRORS = frozenset({"queue_full", "shutdown_pending"})

#: A job whose journaled attempts reach this count with no terminal
#: record crashed the worker that many times: quarantine it on recovery
#: instead of re-enqueueing it into a crash loop.
QUARANTINE_AFTER = 2


@dataclass
class RecoveryReport:
    """What one recovery pass found and did (rendered into /healthz)."""

    replay_s: float = 0.0
    journal_records: int = 0
    torn_records: int = 0
    #: Jobs rebuilt into the store (terminal + requeued + quarantined).
    recovered_jobs: int = 0
    terminal_jobs: int = 0
    requeued_jobs: int = 0
    quarantined_jobs: int = 0
    idempotency_keys: int = 0
    quarantined_ids: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _request_from_record(record: Dict[str, Any]) -> JobRequest:
    """Rebuild the validated request from its journaled fields.

    Unknown keys (from a newer schema) are dropped rather than fatal,
    so a journal written by a later build still recovers.
    """
    fields_ = {
        name: record[name]
        for name in JobRequest.__dataclass_fields__
        if name in record
    }
    if "pins" in fields_:
        fields_["pins"] = tuple(fields_["pins"])
    return JobRequest(**fields_)


def _rebuild_job(ledger) -> Tuple[Job, str]:
    """One ledger -> (job, bucket); bucket in {terminal, requeue, poison}."""
    accept = ledger.accept
    job = Job(
        id=ledger.job_id,
        request=_request_from_record(accept.get("request", {})),
        tenant=accept.get("tenant", "anonymous"),
        created_s=accept.get("created_s", accept.get("ts", time.time())),
        idempotency_key=accept.get("key"),
        attempts=ledger.attempts,
        recovered=True,
    )
    terminal = ledger.terminal
    if terminal is not None:
        job.state = terminal.get("state", JobState.ERROR)
        job.result = terminal.get("result")
        job.error = terminal.get("error")
        job.cache_warm = bool(terminal.get("cache_warm", False))
        job.stage_records = list(terminal.get("stage_records") or [])
        job.started_s = terminal.get("started_s")
        job.finished_s = terminal.get("finished_s", terminal.get("ts"))
        job.attempts = max(job.attempts, int(terminal.get("attempts", 0)))
        return job, "terminal"
    if ledger.attempts >= QUARANTINE_AFTER:
        return job, "poison"
    job.state = JobState.QUEUED
    return job, "requeue"


def recover(service: "AnnealingService") -> Tuple[List[Job], RecoveryReport]:
    """Replay the service's journal into its store.

    Returns the orphaned jobs to re-enqueue (the caller does so after
    starting the worker pool) and the report.  Poison jobs are finished
    as quarantined here -- with the terminal sink bound, so the verdict
    itself is journaled and survives the *next* restart too.
    """
    journal = service.journal
    assert journal is not None, "recover() requires a journaled service"
    start = time.perf_counter()
    replay = journal.replay()
    report = RecoveryReport(
        journal_records=replay.records, torn_records=replay.torn_records
    )
    requeue: List[Job] = []
    accepts: Dict[str, Dict[str, Any]] = {}
    for ledger in replay.ledgers.values():
        if ledger.accept is None:
            # running/terminal records whose accept predates the last
            # compaction horizon: nothing to rebuild from.
            report.torn_records += 1
            continue
        job, bucket = _rebuild_job(ledger)
        accepts[job.id] = ledger.accept
        service._bind_journal(job)
        service.store.restore(job)
        report.recovered_jobs += 1
        if bucket == "terminal":
            report.terminal_jobs += 1
        elif bucket == "poison":
            report.quarantined_jobs += 1
            report.quarantined_ids.append(job.id)
            job.finish(
                JobState.ERROR,
                error={
                    "error": "quarantined",
                    "message": (
                        f"job crashed the worker {ledger.attempts} times; "
                        "quarantined instead of re-enqueueing"
                    ),
                    "status": 500,
                    "attempts": ledger.attempts,
                },
            )
            logger.warning(
                "quarantined poison job %s after %d crashed attempts",
                job.id,
                ledger.attempts,
            )
        else:
            requeue.append(job)
        # Rebuild the idempotency map -- except for keys whose job
        # never ran (queue-full / shutdown fail-outs): a retry of
        # those must be allowed to actually execute.
        key = ledger.accept.get("key")
        error_code = (job.error or {}).get("error")
        if key and error_code not in _NON_BINDING_ERRORS:
            service._register_idempotency_key(
                job.tenant, key, job.id, ledger.accept.get("fingerprint")
            )
            report.idempotency_keys += 1

    # Compact: keep exactly the retained jobs' accept/terminal pairs.
    entries = []
    for job in service.store.all_jobs():
        accept = accepts.get(job.id)
        if accept is None:
            continue
        terminal: Optional[Dict[str, Any]] = None
        if job.state in JobState.TERMINAL:
            terminal = {"type": "terminal", "job_id": job.id, **job.terminal_record()}
        entries.append((accept, terminal))
    journal.compact(entries)

    report.requeued_jobs = len(requeue)
    report.replay_s = time.perf_counter() - start
    return requeue, report
