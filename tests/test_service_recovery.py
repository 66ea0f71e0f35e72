"""Durability: the write-ahead job journal and startup recovery.

The contract under test is the service's crash-safety story:

* **Journal** -- every state transition is an fsynced JSONL record;
  replay folds records into per-job ledgers, tolerates (and counts) a
  torn tail line, and compaction atomically rewrites the file to the
  retained jobs.
* **Recovery** -- a restarted service keeps answering ``GET
  /jobs/<id>`` for jobs that finished before the crash, re-enqueues
  orphans through the deterministic pipeline (seeds journaled at
  accept time make the replayed result bit-identical), and quarantines
  poison jobs that crashed the worker twice instead of crash-looping.
* **Idempotency** -- a retried submission carrying the same
  ``Idempotency-Key`` dedups to the original job, across restarts;
  keys whose job never ran (queue-full fail-outs) are *not* rebound.
* **Kill matrix** -- a real server process SIGKILLed (``os._exit``)
  mid-pipeline at each stage, restarted against the same
  ``--state-dir``, completes every acknowledged job bit-identically
  to an undisturbed run.
* **Graceful SIGTERM** -- a container stop drains and exits 0 through
  the same path as ^C.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import VerilogAnnealerCompiler
from repro.service.app import (
    CRASH_STAGE_ENV,
    AnnealingService,
    ServiceConfig,
)
from repro.service.jobs import JobRequest, JobState
from repro.service.journal import JobJournal
from tests.conftest import LISTING_6_MULT

MULT_PAYLOAD = {
    "source": LISTING_6_MULT,
    "pins": ["C[7:0] := 10001111"],
    "solver": "sa",
    "num_reads": 100,
    "seed": 4242,
    "return_samples": True,
}

TINY_PAYLOAD = {
    "source": "A -1\nA B -5\n",
    "language": "qmasm",
    "solver": "exact",
    "seed": 11,
}


def _service(state_dir, **overrides):
    cfg = dict(port=0, workers=1, rate_limit_per_s=None, state_dir=str(state_dir))
    cfg.update(overrides)
    return AnnealingService(ServiceConfig(**cfg))


def _await_job(job, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if job.is_terminal():
            return job.snapshot()
        time.sleep(0.02)
    raise AssertionError(f"job {job.id} still {job.state} after {timeout_s}s")


def _accept_record(payload, job_id, tenant="tests", key=None):
    request = JobRequest.from_payload(dict(payload))
    return job_id, tenant, dataclasses.asdict(request), key


# ----------------------------------------------------------------------
# Journal unit tests.
# ----------------------------------------------------------------------
class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.accept(
            "job-000001-aaaaaaaa",
            "alice",
            {"source": "x"},
            123.0,
            idempotency_key="k1",
            fingerprint="fp1",
        )
        journal.running("job-000001-aaaaaaaa", 1)
        journal.terminal(
            "job-000001-aaaaaaaa", {"state": "done", "result": {"ok": 1}}
        )
        journal.close()

        replay = JobJournal.replay_path(journal.path)
        assert replay.records == 3 and replay.torn_records == 0
        ledger = replay.ledgers["job-000001-aaaaaaaa"]
        assert ledger.accept["tenant"] == "alice"
        assert ledger.accept["key"] == "k1"
        assert ledger.accept["fingerprint"] == "fp1"
        assert ledger.attempts == 1
        assert ledger.terminal["state"] == "done"
        assert ledger.terminal["result"] == {"ok": 1}

    def test_torn_tail_is_skipped_and_counted(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.accept("job-000001-aaaaaaaa", "t", {"source": "x"}, 1.0)
        journal.accept("job-000002-bbbbbbbb", "t", {"source": "y"}, 2.0)
        journal.close()
        # A crash mid-append leaves a truncated final line.
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "terminal", "job_id": "job-0000')

        replay = JobJournal.replay_path(journal.path)
        assert replay.records == 2
        assert replay.torn_records == 1
        assert set(replay.ledgers) == {
            "job-000001-aaaaaaaa",
            "job-000002-bbbbbbbb",
        }

    def test_missing_journal_is_empty(self, tmp_path):
        replay = JobJournal.replay_path(str(tmp_path / "journal.jsonl"))
        assert replay.records == 0 and not replay.ledgers

    def test_compact_keeps_only_given_entries(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.accept("job-000001-aaaaaaaa", "t", {"source": "x"}, 1.0)
        journal.running("job-000001-aaaaaaaa", 1)
        journal.terminal("job-000001-aaaaaaaa", {"state": "done"})
        journal.accept("job-000002-bbbbbbbb", "t", {"source": "y"}, 2.0)

        replay = journal.replay()
        keep = replay.ledgers["job-000001-aaaaaaaa"]
        journal.compact([(keep.accept, keep.terminal)])
        assert journal.compactions == 1

        after = journal.replay()
        assert set(after.ledgers) == {"job-000001-aaaaaaaa"}
        # Running records are dropped by compaction (a retained
        # terminal job no longer needs its attempt history).
        assert after.ledgers["job-000001-aaaaaaaa"].attempts == 0

        # The journal still appends after compaction.
        journal.accept("job-000003-cccccccc", "t", {"source": "z"}, 3.0)
        journal.close()
        final = JobJournal.replay_path(journal.path)
        assert set(final.ledgers) == {
            "job-000001-aaaaaaaa",
            "job-000003-cccccccc",
        }


# ----------------------------------------------------------------------
# In-process recovery: terminal replay, orphan requeue, quarantine.
# ----------------------------------------------------------------------
class TestRecovery:
    def test_terminal_results_survive_restart(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        try:
            job, _ = service.submit(dict(MULT_PAYLOAD))
            before = _await_job(job)
            assert before["state"] == "done"
        finally:
            assert service.shutdown(drain=True, timeout_s=60.0)

        restarted = _service(tmp_path)
        restarted.start()
        try:
            report = restarted.recovery_report
            assert report is not None
            assert report.recovered_jobs == 1 and report.terminal_jobs == 1
            assert report.requeued_jobs == 0 and report.quarantined_jobs == 0
            recovered = restarted.store.get(job.id)
            assert recovered is not None
            after = recovered.snapshot()
            assert after["state"] == "done"
            assert after["recovered"] is True
            np.testing.assert_array_equal(
                np.asarray(after["result"]["samples"]["records"]),
                np.asarray(before["result"]["samples"]["records"]),
            )
            assert after["result"]["solutions"] == before["result"]["solutions"]
        finally:
            assert restarted.shutdown(drain=True, timeout_s=60.0)

    def test_orphan_requeued_and_bit_identical(self, tmp_path):
        # A journal holding an acknowledged-but-never-finished job: the
        # accept record exists (and carries the seed), no terminal.
        job_id, tenant, fields, _ = _accept_record(
            MULT_PAYLOAD, "job-000007-0badf00d"
        )
        journal = JobJournal(str(tmp_path))
        journal.accept(job_id, tenant, fields, 100.0)
        journal.close()

        service = _service(tmp_path)
        service.start()
        try:
            report = service.recovery_report
            assert report.requeued_jobs == 1 and report.terminal_jobs == 0
            job = service.store.get(job_id)
            assert job is not None
            replayed = _await_job(job)
            assert replayed["state"] == "done"
            assert replayed["recovered"] is True

            # Control: the same request through an undisturbed service.
            control_service = AnnealingService(
                ServiceConfig(port=0, workers=1, rate_limit_per_s=None)
            )
            control_service.start()
            try:
                control_job, _ = control_service.submit(dict(MULT_PAYLOAD))
                control = _await_job(control_job)
            finally:
                assert control_service.shutdown(drain=True, timeout_s=60.0)
            np.testing.assert_array_equal(
                np.asarray(replayed["result"]["samples"]["records"]),
                np.asarray(control["result"]["samples"]["records"]),
            )
            np.testing.assert_array_equal(
                np.asarray(replayed["result"]["samples"]["energies"]),
                np.asarray(control["result"]["samples"]["energies"]),
            )
            assert (
                replayed["result"]["solutions"] == control["result"]["solutions"]
            )
        finally:
            assert service.shutdown(drain=True, timeout_s=60.0)

    def test_unseeded_submission_journals_a_materialized_seed(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        try:
            payload = dict(MULT_PAYLOAD)
            payload.pop("seed")
            job, _ = service.submit(payload)
            assert job.request.seed is not None
            _await_job(job)
        finally:
            assert service.shutdown(drain=True, timeout_s=60.0)
        replay = JobJournal.replay_path(
            os.path.join(str(tmp_path), "journal.jsonl")
        )
        accept = replay.ledgers[job.id].accept
        assert accept["request"]["seed"] == job.request.seed

    def test_poison_job_is_quarantined(self, tmp_path):
        job_id, tenant, fields, _ = _accept_record(
            MULT_PAYLOAD, "job-000003-deadbeef"
        )
        journal = JobJournal(str(tmp_path))
        journal.accept(job_id, tenant, fields, 100.0)
        journal.running(job_id, 1)
        journal.running(job_id, 2)  # crashed the worker twice
        journal.close()

        service = _service(tmp_path)
        service.start()
        try:
            report = service.recovery_report
            assert report.quarantined_jobs == 1
            assert report.quarantined_ids == [job_id]
            assert report.requeued_jobs == 0
            job = service.store.get(job_id)
            assert job is not None and job.state == JobState.ERROR
            assert job.error["error"] == "quarantined"
            assert job.error["attempts"] == 2
        finally:
            assert service.shutdown(drain=True, timeout_s=60.0)

        # The quarantine verdict itself was journaled: the *next*
        # restart sees a terminal job, not a poison one to re-judge.
        replay = JobJournal.replay_path(
            os.path.join(str(tmp_path), "journal.jsonl")
        )
        ledger = replay.ledgers[job_id]
        assert ledger.terminal is not None
        assert ledger.terminal["error"]["error"] == "quarantined"

    def test_one_crash_is_requeued_not_quarantined(self, tmp_path):
        job_id, tenant, fields, _ = _accept_record(
            TINY_PAYLOAD, "job-000004-00c0ffee"
        )
        journal = JobJournal(str(tmp_path))
        journal.accept(job_id, tenant, fields, 100.0)
        journal.running(job_id, 1)  # one crash: unlucky, not poison
        journal.close()

        service = _service(tmp_path)
        service.start()
        try:
            assert service.recovery_report.requeued_jobs == 1
            assert service.recovery_report.quarantined_jobs == 0
            job = service.store.get(job_id)
            snapshot = _await_job(job)
            assert snapshot["state"] == "done"
        finally:
            assert service.shutdown(drain=True, timeout_s=60.0)

    def test_recovery_compacts_the_journal(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        try:
            job, _ = service.submit(dict(TINY_PAYLOAD))
            _await_job(job)
        finally:
            assert service.shutdown(drain=True, timeout_s=60.0)
        # accept + running + terminal = 3 lines before compaction.
        with open(os.path.join(str(tmp_path), "journal.jsonl")) as handle:
            assert len(handle.readlines()) == 3

        restarted = _service(tmp_path)
        restarted.start()
        try:
            assert restarted.journal.compactions == 1
        finally:
            assert restarted.shutdown(drain=True, timeout_s=60.0)
        # Compacted to the accept/terminal pair; the running record
        # (and any duplicate history) is gone.
        with open(os.path.join(str(tmp_path), "journal.jsonl")) as handle:
            lines = [json.loads(l) for l in handle if l.strip()]
        assert [r["type"] for r in lines] == ["accept", "terminal"]

    def test_health_reports_journal_and_recovery(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        try:
            body = service.health()
            assert body["journal"]["enabled"] is True
            assert body["recovery"]["recovered_jobs"] == 0
        finally:
            assert service.shutdown(drain=True, timeout_s=60.0)


# ----------------------------------------------------------------------
# Idempotency across restarts.
# ----------------------------------------------------------------------
class TestIdempotencyRecovery:
    def test_key_survives_restart_and_dedups(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        try:
            job, deduplicated = service.submit(
                dict(TINY_PAYLOAD), tenant="alice", idempotency_key="k-restart"
            )
            assert deduplicated is False
            _await_job(job)
        finally:
            assert service.shutdown(drain=True, timeout_s=60.0)

        restarted = _service(tmp_path)
        restarted.start()
        try:
            again, deduplicated = restarted.submit(
                dict(TINY_PAYLOAD), tenant="alice", idempotency_key="k-restart"
            )
            assert deduplicated is True
            assert again.id == job.id
        finally:
            assert restarted.shutdown(drain=True, timeout_s=60.0)

    def test_queue_full_key_is_not_rebound(self, tmp_path):
        # A journaled job that never ran (queue-full fail-out): its key
        # must not dedup a later retry into the failed husk.
        job_id, tenant, fields, _ = _accept_record(
            TINY_PAYLOAD, "job-000005-0defaced", key="k-full"
        )
        journal = JobJournal(str(tmp_path))
        journal.accept(job_id, tenant, fields, 100.0, idempotency_key="k-full")
        journal.terminal(
            job_id,
            {
                "state": "error",
                "error": {"error": "queue_full", "status": 503},
                "result": None,
            },
        )
        journal.close()

        service = _service(tmp_path)
        service.start()
        try:
            job, deduplicated = service.submit(
                dict(TINY_PAYLOAD), tenant=tenant, idempotency_key="k-full"
            )
            assert deduplicated is False
            assert job.id != job_id
            snapshot = _await_job(job)
            assert snapshot["state"] == "done"
        finally:
            assert service.shutdown(drain=True, timeout_s=60.0)


# ----------------------------------------------------------------------
# The crash hook the kill matrix drives, checked in-process.
# ----------------------------------------------------------------------
AND_GATE = """
module and2 (a, b, y);
   input a, b;
   output y;
   assign y = a & b;
endmodule
"""


class _Exited(Exception):
    pass


@pytest.mark.parametrize(
    "stage, pipeline",
    [
        ("elaborate", "compile"),
        # Skipped under ``sa``, yet the process still dies as it begins.
        ("find_embedding", "run"),
        ("sample", "run"),
    ],
)
def test_crash_hook_exits_as_the_named_stage_begins(monkeypatch, stage, pipeline):
    from repro.core import trace as _trace

    codes = []

    def fake_exit(code):
        codes.append(code)
        raise _Exited(code)

    monkeypatch.setattr(os, "_exit", fake_exit)
    monkeypatch.setenv(CRASH_STAGE_ENV, stage)
    config = ServiceConfig(port=0, workers=1, rate_limit_per_s=None)
    service = AnnealingService(config)
    request = JobRequest.from_payload(
        {"source": AND_GATE, "solver": "sa", "num_reads": 4, "seed": 3}
    )
    with _trace.capture(_trace.Tracer()) as (tracer, _metrics):
        with pytest.raises(_Exited):
            service._run_request(request, None)
    assert codes == [137]
    stages = [
        name for name in tracer.span_names()
        if name.split(".")[0] in ("compile", "run") and "." in name
    ]
    # The named stage is the last one begun, and its body never ran.
    assert stages[-1] == f"{pipeline}.{stage}"
    assert not tracer.find("solver.sa.sample")
    # The hook lives on that job's stage instances only: a service
    # started without it runs the same job to the end.
    monkeypatch.delenv(CRASH_STAGE_ENV)
    result, _warm, _stages = AnnealingService(config)._run_request(request, None)
    assert result.solutions


# ----------------------------------------------------------------------
# The kill matrix: a real server process killed at each pipeline stage.
# ----------------------------------------------------------------------
_LISTEN_RE = re.compile(r"listening on (http://\S+)")


def _spawn_server(state_dir, extra_env=None, extra_args=()):
    env = os.environ.copy()
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if extra_env:
        env.update(extra_env)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--workers",
            "1",
            "--state-dir",
            str(state_dir),
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    lines = []
    while True:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"server exited before listening (rc={proc.poll()}):\n"
                + "".join(lines)
            )
        lines.append(line)
        match = _LISTEN_RE.search(line)
        if match:
            return proc, match.group(1)


def _http(url, payload=None, headers=None, timeout_s=30.0):
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    all_headers = {"Content-Type": "application/json"}
    if headers:
        all_headers.update(headers)
    request = urllib.request.Request(
        url, data=data, headers=all_headers, method="POST" if data else "GET"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def _poll_done(base, job_id, timeout_s=90.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, snapshot = _http(f"{base}/jobs/{job_id}")
        assert status == 200, f"poll failed: {status} {snapshot}"
        if snapshot.get("state") in ("done", "error", "timeout"):
            return snapshot
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} not terminal after {timeout_s}s")


@pytest.mark.slow
class TestKillMatrix:
    """SIGKILL the worker at each stage; the restart must not notice."""

    # One compile-pipeline stage, one (skipped-for-sa but still traced)
    # embedding stage, one sampling stage: the acknowledged job dies at
    # three different depths and must replay bit-identically from each.
    STAGES = ["elaborate", "find_embedding", "sample"]

    @pytest.fixture(scope="class")
    def control_result(self):
        compiler = VerilogAnnealerCompiler(seed=MULT_PAYLOAD["seed"])
        program = compiler.compile(LISTING_6_MULT)
        result = compiler.run(
            program,
            pins=list(MULT_PAYLOAD["pins"]),
            solver="sa",
            num_reads=MULT_PAYLOAD["num_reads"],
        )
        return result.result_payload(include_samples=True)

    @pytest.mark.parametrize("stage", STAGES)
    def test_killed_at_stage_replays_bit_identically(
        self, stage, tmp_path, control_result
    ):
        state_dir = tmp_path / f"state-{stage}"
        proc, base = _spawn_server(
            state_dir, extra_env={CRASH_STAGE_ENV: stage}
        )
        key = f"kill-{stage}"
        try:
            # The 202 may race the crash; the journaled accept is the
            # acknowledgement that matters, and the idempotency key
            # recovers the id either way (the lost-202 retry path).
            try:
                _http(
                    f"{base}/jobs",
                    dict(MULT_PAYLOAD),
                    headers={"Idempotency-Key": key},
                )
            except OSError:
                pass
            rc = proc.wait(timeout=90)
            assert rc == 137, f"server should have died at {stage}, rc={rc}"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        # Restart (no crash env) against the same state dir.
        proc, base = _spawn_server(state_dir)
        try:
            status, body = _http(
                f"{base}/jobs",
                dict(MULT_PAYLOAD),
                headers={"Idempotency-Key": key},
            )
            assert status == 202
            assert body.get("deduplicated") is True, (
                "restart should dedup the retried key to the journaled job"
            )
            snapshot = _poll_done(base, body["id"])
            assert snapshot["state"] == "done"
            assert snapshot.get("recovered") is True
            np.testing.assert_array_equal(
                np.asarray(snapshot["result"]["samples"]["records"]),
                np.asarray(control_result["samples"]["records"]),
            )
            np.testing.assert_array_equal(
                np.asarray(snapshot["result"]["samples"]["energies"]),
                np.asarray(control_result["samples"]["energies"]),
            )
            assert (
                snapshot["result"]["solutions"] == control_result["solutions"]
            )

            status, health = _http(f"{base}/healthz")
            assert health["recovery"]["requeued_jobs"] == 1
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0


@pytest.mark.slow
def test_sigterm_drains_and_exits_clean(tmp_path):
    proc, base = _spawn_server(tmp_path / "state")
    status, body = _http(f"{base}/jobs", dict(TINY_PAYLOAD))
    assert status == 202
    proc.send_signal(signal.SIGTERM)
    rc = proc.wait(timeout=60)
    output = proc.stdout.read()
    assert rc == 0, f"SIGTERM exit was not clean (rc={rc}):\n{output}"
    assert "shutting down on SIGTERM" in output
    assert "draining" in output
