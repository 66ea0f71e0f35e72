"""Annealing-as-a-service: lifecycle, limits, and determinism.

The serving contract under test:

* **Lifecycle** -- ``POST /jobs`` answers 202 with an id; polling
  ``GET /jobs/<id>`` reaches ``done`` with the structured result;
  ``GET /jobs/<id>/trace`` exposes the per-stage pipeline record.
* **Structured failure** -- invalid source is a synchronous 400 whose
  payload carries the :func:`repro.hdl.errors.format_diagnostic`
  rendering (plus line/column); an unknown job id is a structured 404;
  a deadline-exceeded job lands in the terminal ``timeout`` state with
  an HTTP-408-style error body naming the stage that hit the wall.
* **Rate limiting** -- per-tenant token buckets answer 429 with a
  ``Retry-After`` that, when honored, admits the retry; other tenants
  are unaffected.
* **Determinism** -- N identical seeded submissions running
  concurrently return results bit-identical to a serial
  ``VerilogAnnealerCompiler.run()`` with the same seed, and a warm
  resubmission returns the identical result while recording
  ``service.cache_warm``.
* **Clean shutdown** -- a draining shutdown finishes in-flight jobs and
  leaves no threads behind (asserted by the ``service_server`` fixture
  on every test here).
"""

from __future__ import annotations

import gc
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro import VerilogAnnealerCompiler
from repro.service import app
from repro.service.app import AnnealingService, ServiceConfig, serve_main
from repro.service.jobs import Job, JobRequest, JobState, JobStore, ServiceError
from repro.service.queue import WorkerPool
from repro.service.ratelimit import RateLimiter, TokenBucket
from tests.conftest import LISTING_5_CIRCSAT, LISTING_6_MULT, start_service_server

MULT_JOB = {
    "source": LISTING_6_MULT,
    "pins": ["C[7:0] := 10001111"],
    "solver": "sa",
    "num_reads": 200,
    "seed": 7,
}


# ----------------------------------------------------------------------
# Token bucket / rate limiter units (fake clock: exact arithmetic).
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_deny_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0, now_s=100.0)
        for _ in range(3):
            allowed, retry = bucket.try_acquire(100.0)
            assert allowed and retry == 0.0
        allowed, retry = bucket.try_acquire(100.0)
        assert not allowed
        # Empty bucket at 2 tokens/s: the next token is 0.5s away.
        assert retry == pytest.approx(0.5)
        allowed, _ = bucket.try_acquire(100.0 + retry)
        assert allowed

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now_s=0.0)
        bucket.try_acquire(0.0)
        bucket.try_acquire(0.0)
        # A long idle period refills to burst, never beyond.
        allowed, _ = bucket.try_acquire(1000.0)
        assert allowed
        assert bucket.tokens == pytest.approx(1.0)

    def test_limiter_isolates_tenants(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=lambda: clock[0])
        assert limiter.acquire("alice") == (True, 0.0)
        allowed, retry = limiter.acquire("alice")
        assert not allowed and retry > 0
        # Bob has his own bucket.
        allowed, _ = limiter.acquire("bob")
        assert allowed
        clock[0] += retry
        allowed, _ = limiter.acquire("alice")
        assert allowed

    def test_limiter_disabled_admits_everything(self):
        limiter = RateLimiter(rate=None)
        assert not limiter.enabled
        for _ in range(1000):
            assert limiter.acquire("anyone") == (True, 0.0)

    def test_limiter_bounds_tracked_tenants(self):
        limiter = RateLimiter(rate=1.0, burst=5.0, clock=lambda: 0.0, max_tenants=3)
        for name in ("a", "b", "c", "d"):
            limiter.acquire(name)
        tenants = limiter.tenants()
        assert len(tenants) == 3
        assert "a" not in tenants  # least recently used was evicted


# ----------------------------------------------------------------------
# Submission validation (no server needed).
# ----------------------------------------------------------------------
class TestValidation:
    def _reject(self, payload, code, status=400):
        with pytest.raises(ServiceError) as excinfo:
            JobRequest.from_payload(payload)
        assert excinfo.value.status == status
        assert excinfo.value.code == code
        return excinfo.value

    def test_rejects_non_object_and_missing_source(self):
        self._reject(["not", "an", "object"], "invalid_request")
        self._reject({}, "invalid_request")
        self._reject({"source": "   "}, "invalid_request")

    def test_rejects_unknown_fields_and_bad_enums(self):
        exc = self._reject({"source": "x", "frobnicate": 1}, "invalid_request")
        assert "frobnicate" in exc.message
        self._reject({"source": "x", "solver": "quantum9000"}, "invalid_request")
        self._reject({"source": "x", "language": "cobol"}, "invalid_request")

    def test_rejects_bad_numbers(self):
        self._reject(
            {"source": LISTING_6_MULT, "num_reads": 0}, "invalid_request"
        )
        self._reject(
            {"source": LISTING_6_MULT, "num_reads": True}, "invalid_request"
        )
        self._reject(
            {"source": LISTING_6_MULT, "deadline_s": -1}, "invalid_request"
        )
        self._reject(
            {"source": LISTING_6_MULT, "deadline_s": 1e9}, "invalid_request"
        )

    def test_invalid_pin_carries_diagnostic(self):
        exc = self._reject(
            {"source": LISTING_6_MULT, "pins": ["C[7:0] walrus 3"]},
            "invalid_pin",
        )
        assert "diagnostic" in exc.details
        assert "pin" in exc.details["diagnostic"]

    def test_invalid_verilog_carries_line_and_diagnostic(self):
        bad = "module broken (a);\n  input a;\n  assign = ;\nendmodule\n"
        exc = self._reject({"source": bad}, "invalid_source")
        payload = exc.payload()
        assert payload["language"] == "verilog"
        assert isinstance(payload.get("line"), int)
        assert "diagnostic" in payload and payload["diagnostic"]

    def test_invalid_qmasm_rejected(self):
        exc = self._reject(
            {"source": "A B C D toomany\n", "language": "qmasm"},
            "invalid_source",
        )
        assert exc.payload()["language"] == "qmasm"

    def test_non_finite_qmasm_weight_rejected(self):
        exc = self._reject(
            {"source": "A 1\nA B nan\n", "language": "qmasm"},
            "invalid_source",
        )
        payload = exc.payload()
        assert payload["status"] == 400 and payload["line"] == 2
        assert "non-finite number 'nan'" in payload["message"]

    def test_valid_request_roundtrips(self):
        request = JobRequest.from_payload(dict(MULT_JOB))
        assert request.solver == "sa"
        assert request.pins == ("C[7:0] := 10001111",)
        assert request.seed == 7


# ----------------------------------------------------------------------
# Worker pool unit tests (no HTTP, no sampling).
# ----------------------------------------------------------------------
def _job(job_id="j1"):
    return Job(id=job_id, request=JobRequest(source="x", language="qmasm"))


class TestWorkerPool:
    def test_executes_submitted_jobs(self):
        done = []
        pool = WorkerPool(lambda job: done.append(job.id), workers=2)
        pool.start()
        assert pool.submit(_job("a")) and pool.submit(_job("b"))
        assert pool.shutdown(drain=True, timeout_s=10.0)
        assert sorted(done) == ["a", "b"]

    def test_full_queue_rejects(self):
        release = threading.Event()
        pool = WorkerPool(lambda job: release.wait(10.0), workers=1, queue_size=1)
        pool.start()
        accepted = [pool.submit(_job(f"j{i}")) for i in range(8)]
        # One job occupies the worker, one the queue slot; the rest of
        # the burst must be rejected, deterministically.
        assert accepted.count(True) <= 2
        assert accepted[-1] is False
        release.set()
        assert pool.shutdown(drain=True, timeout_s=10.0)

    def test_drain_finishes_in_flight_work(self):
        started = threading.Event()
        finished = []

        def slow(job):
            started.set()
            time.sleep(0.2)
            finished.append(job.id)

        pool = WorkerPool(slow, workers=1)
        pool.start()
        assert pool.submit(_job("slow"))
        assert started.wait(5.0)
        assert pool.shutdown(drain=True, timeout_s=10.0)
        assert finished == ["slow"]

    def test_non_drain_fails_queued_jobs(self):
        release = threading.Event()
        pool = WorkerPool(lambda job: release.wait(10.0), workers=1, queue_size=4)
        pool.start()
        blocker, queued = _job("blocker"), _job("queued")
        assert pool.submit(blocker)
        time.sleep(0.05)  # let the worker pick up the blocker
        assert pool.submit(queued)
        release.set()
        assert pool.shutdown(drain=False, timeout_s=10.0)
        assert queued.is_terminal()
        assert queued.error["error"] == "shutdown_pending"
        assert queued.error["status"] == 503

    def test_shutdown_is_idempotent_and_closes_submissions(self):
        pool = WorkerPool(lambda job: None, workers=1)
        pool.start()
        assert pool.shutdown()
        assert pool.shutdown()  # settled verdict, no deadlock
        assert pool.submit(_job()) is False

    def test_executor_crash_does_not_kill_worker(self):
        def explode(job):
            raise RuntimeError("boom")

        pool = WorkerPool(explode, workers=1)
        pool.start()
        first, second = _job("a"), _job("b")
        assert pool.submit(first) and pool.submit(second)
        assert pool.shutdown(drain=True, timeout_s=10.0)
        for job in (first, second):
            assert job.is_terminal()
            assert job.error["error"] == "internal"


# ----------------------------------------------------------------------
# Job store.
# ----------------------------------------------------------------------
def test_store_evicts_only_terminal_jobs():
    store = JobStore(max_jobs=2)
    a = store.create(JobRequest(source="x"), "t")
    b = store.create(JobRequest(source="x"), "t")
    a.finish(JobState.DONE, result={})
    c = store.create(JobRequest(source="x"), "t")
    # a (terminal) was evicted; b (active) survived the bound.
    assert store.get(a.id) is None
    assert store.get(b.id) is not None and store.get(c.id) is not None


# ----------------------------------------------------------------------
# HTTP lifecycle against a live server.
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_submit_poll_result(self, service_server):
        _, client = service_server
        status, body = client.post("/jobs", MULT_JOB)
        assert status == 202
        assert body["state"] == "queued"
        assert body["links"]["self"] == f"/jobs/{body['id']}"

        snapshot = client.await_terminal(body["id"])
        assert snapshot["state"] == "done"
        assert snapshot["queue_wait_s"] >= 0
        assert snapshot["run_s"] > 0
        result = snapshot["result"]
        assert result["num_valid_solutions"] >= 1
        best = result["solutions"][0]
        assert best["valid"]
        # 143 = 11 x 13: backward execution factored the pinned product.
        values = best["values"]
        a = sum(values[f"A[{i}]"] << i for i in range(4))
        b = sum(values[f"B[{i}]"] << i for i in range(4))
        assert sorted([a, b]) == [11, 13]

        status, trace = client.get(f"/jobs/{body['id']}/trace")
        assert status == 200
        names = [s["name"] for s in trace["stages"]]
        assert "elaborate" in names and "sample" in names
        # The solution report is the run's last stage.
        last = trace["stages"][-1]
        assert (last["pipeline"], last["name"]) == ("run", "report")
        assert not last["skipped"]
        assert last["counters"]["solutions"] == result["num_solutions"]

    def test_unknown_job_is_structured_404(self, service_server):
        _, client = service_server
        status, body = client.get("/jobs/job-999999-deadbeef")
        assert status == 404
        assert body == {
            "error": "not_found",
            "message": "no job 'job-999999-deadbeef'",
            "status": 404,
        }
        status, body = client.get("/nope")
        assert status == 404 and body["error"] == "not_found"

    def test_invalid_source_is_structured_400(self, service_server):
        _, client = service_server
        bad = "module broken (a);\n  input a;\n  assign = ;\nendmodule\n"
        status, body = client.post("/jobs", {"source": bad})
        assert status == 400
        assert body["error"] == "invalid_source"
        assert body["status"] == 400
        assert isinstance(body["line"], int)
        assert body["diagnostic"].startswith("verilog:")

    def test_unknown_top_module_is_invalid_source(self, service_server):
        # The source parses, so the job is accepted; elaboration then
        # fails on the top module and the job ends as a 400, not a 500.
        _, client = service_server
        status, body = client.post("/jobs", dict(MULT_JOB, top="nosuch"))
        assert status == 202
        snapshot = client.await_terminal(body["id"])
        assert snapshot["state"] == "error"
        error = snapshot["error"]
        assert (error["error"], error["status"]) == ("invalid_source", 400)
        assert "'nosuch'" in error["message"]

    def test_recursive_instantiation_is_invalid_source(self, service_server):
        _, client = service_server
        source = "module m (a, b); input a; output b; m u (.a(a), .b(b)); endmodule\n"
        status, body = client.post("/jobs", {"source": source, "solver": "sa"})
        assert status == 202
        snapshot = client.await_terminal(body["id"])
        assert snapshot["state"] == "error"
        error = snapshot["error"]
        assert (error["error"], error["status"]) == ("invalid_source", 400)
        assert "m -> m" in error["message"]

    def test_invalid_json_body_is_400(self, service_server):
        import json as json_mod
        import urllib.error
        import urllib.request

        _, client = service_server
        req = urllib.request.Request(
            client.base_url + "/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            urllib.request.urlopen(req, timeout=10)
            raise AssertionError("malformed body was accepted")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
            body = json_mod.loads(exc.read())
            assert body["error"] == "invalid_json"

    def test_deadline_exceeded_job_times_out(self, service_server):
        _, client = service_server
        job = dict(MULT_JOB)
        # Armed when the worker picks the job up, expired long before
        # the run pipeline's first stage can start.
        job["deadline_s"] = 0.001
        status, body = client.post("/jobs", job)
        assert status == 202
        snapshot = client.await_terminal(body["id"])
        assert snapshot["state"] == "timeout"
        error = snapshot["error"]
        assert error["error"] == "deadline_exceeded"
        assert error["status"] == 408
        assert error["budget_s"] == pytest.approx(0.001)
        assert error["stage"]  # names the stage that hit the wall

    def test_queue_full_is_503(self, service_server):
        server, client = service_server
        original = server.service.pool.submit
        server.service.pool.submit = lambda job: False
        try:
            status, body = client.post("/jobs", MULT_JOB)
        finally:
            server.service.pool.submit = original
        assert status == 503
        assert body["error"] == "queue_full"
        assert "retry_after_s" in body

    def test_healthz_reports_counts(self, service_server):
        _, client = service_server
        status, body = client.get("/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["workers_alive"] == body["workers"] == 2
        assert set(body["jobs"]) == {
            "queued",
            "running",
            "done",
            "error",
            "timeout",
        }

    def test_qmasm_job_runs(self, service_server):
        _, client = service_server
        status, body = client.post(
            "/jobs",
            {
                "source": "A -1\nA B -5\n",
                "language": "qmasm",
                "solver": "exact",
                "pins": ["A := true"],
            },
        )
        assert status == 202
        snapshot = client.await_terminal(body["id"])
        assert snapshot["state"] == "done"
        best = snapshot["result"]["solutions"][0]
        # Pinned A true; the -5 coupling aligns B with A.
        assert best["values"]["A"] is True and best["values"]["B"] is True


# ----------------------------------------------------------------------
# Fresh-server metrics: the zero-request rendering must be well-defined.
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_fresh_server_metrics_well_defined(self, service_server):
        import re

        _, client = service_server
        status, text = client.get("/metrics")
        assert status == 200
        # The healthz-readiness probe already counted a request, but no
        # cache was ever consulted: the derived ratios must render as
        # explicit n/a, never 0/0, never NaN, never a crash.
        assert re.search(r"cache\.compile\.hit_ratio\s+n/a \(0 lookups\)", text)
        assert re.search(r"cache\.embedding\.hit_ratio\s+n/a \(0 lookups\)", text)
        assert "nan" not in text.lower()
        assert "service.jobs_submitted" in text

    def test_json_metrics_after_a_job(self, service_server):
        _, client = service_server
        status, body = client.post("/jobs", MULT_JOB)
        client.await_terminal(body["id"])
        status, metrics = client.get("/metrics?format=json")
        assert status == 200
        counters = metrics["counters"]
        assert counters["service.jobs_submitted"] == 1
        assert counters["service.jobs_completed"] == 1
        assert counters["cache.compile.misses"] >= 1
        assert 0.0 <= metrics["derived"]["cache.compile.hit_ratio"] <= 1.0


# ----------------------------------------------------------------------
# Rate limiting over HTTP (dedicated server with a tiny budget).
# ----------------------------------------------------------------------
class TestRateLimiting:
    @pytest.fixture()
    def limited_server(self):
        server, client = start_service_server(
            ServiceConfig(
                port=0, workers=1, rate_limit_per_s=5.0, rate_limit_burst=2.0
            )
        )
        yield server, client
        assert server.shutdown_service(drain=True, timeout_s=30.0)

    def test_burst_then_429_with_retry_after(self, limited_server):
        _, client = limited_server
        job = {"source": "A -1\n", "language": "qmasm", "solver": "exact"}
        for _ in range(2):
            status, _ = client.post("/jobs", job, tenant="alice")
            assert status == 202
        status, body, headers = client.request(
            "POST", "/jobs", payload=job, tenant="alice"
        )
        assert status == 429
        assert body["error"] == "rate_limited"
        retry_after = float(headers["Retry-After"])
        assert retry_after > 0
        assert body["retry_after_s"] == pytest.approx(retry_after, abs=1e-3)

        # Another tenant is unaffected by alice's exhausted bucket.
        status, _ = client.post("/jobs", job, tenant="bob")
        assert status == 202

        # Honoring Retry-After admits the retry.
        time.sleep(retry_after + 0.05)
        status, _ = client.post("/jobs", job, tenant="alice")
        assert status == 202


# ----------------------------------------------------------------------
# Concurrency determinism: the acceptance criterion.
# ----------------------------------------------------------------------
def _submit_and_fetch(client, payload, results, index):
    status, body = client.post("/jobs", payload)
    assert status == 202
    results[index] = client.await_terminal(body["id"], timeout_s=120.0)


def _assert_samples_identical(result_a, result_b):
    """Bit-identity over the full energy-sorted sample matrix."""
    sa, sb = result_a["samples"], result_b["samples"]
    assert sa["variables"] == sb["variables"]
    np.testing.assert_array_equal(np.asarray(sa["records"]), np.asarray(sb["records"]))
    np.testing.assert_array_equal(
        np.asarray(sa["energies"]), np.asarray(sb["energies"])
    )
    np.testing.assert_array_equal(
        np.asarray(sa["occurrences"]), np.asarray(sb["occurrences"])
    )


class TestConcurrencyDeterminism:
    JOB = {
        "source": LISTING_5_CIRCSAT,
        "pins": ["y := true"],
        "solver": "sa",
        "num_reads": 100,
        "seed": 2019,
        "return_samples": True,
    }

    def test_concurrent_submissions_bit_identical_to_serial_run(self):
        # Serial ground truth: the library API, same seed, no service.
        compiler = VerilogAnnealerCompiler(seed=2019)
        program = compiler.compile(LISTING_5_CIRCSAT)
        serial = compiler.run(
            program, pins=["y := true"], solver="sa", num_reads=100
        )
        serial_payload = serial.result_payload(include_samples=True)

        server, client = start_service_server(
            ServiceConfig(port=0, workers=4, rate_limit_per_s=None)
        )
        try:
            results = [None] * 4
            threads = [
                threading.Thread(
                    target=_submit_and_fetch,
                    args=(client, dict(self.JOB), results, i),
                )
                for i in range(len(results))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert all(r is not None for r in results), "a submission hung"

            for snapshot in results:
                assert snapshot["state"] == "done"
                _assert_samples_identical(snapshot["result"], serial_payload)
                assert (
                    snapshot["result"]["solutions"] == serial_payload["solutions"]
                )
        finally:
            assert server.shutdown_service(drain=True, timeout_s=30.0)

    def test_warm_resubmission_identical_and_counted(self, service_server):
        _, client = service_server
        status, body = client.post("/jobs", dict(self.JOB))
        cold = client.await_terminal(body["id"])
        assert cold["state"] == "done" and cold["cache_warm"] is False

        status, body = client.post("/jobs", dict(self.JOB))
        warm = client.await_terminal(body["id"])
        assert warm["state"] == "done"
        assert warm["cache_warm"] is True
        _assert_samples_identical(warm["result"], cold["result"])
        assert warm["result"]["solutions"] == cold["result"]["solutions"]

        status, metrics = client.get("/metrics?format=json")
        assert metrics["counters"]["service.cache_warm"] == 1
        assert metrics["counters"]["service.cache_cold"] == 1
        status, text = client.get("/metrics")
        assert "service.cache_warm" in text


# ----------------------------------------------------------------------
# Shutdown drains in-flight work (the AnnealingService layer directly).
# ----------------------------------------------------------------------
def test_shutdown_drains_in_flight_jobs():
    service = AnnealingService(
        ServiceConfig(port=0, workers=1, rate_limit_per_s=None)
    )
    service.start()
    job, deduplicated = service.submit(
        {
            "source": LISTING_6_MULT,
            "pins": ["C[7:0] := 10001111"],
            "solver": "sa",
            "num_reads": 500,
            "seed": 1,
        }
    )
    assert deduplicated is False
    assert service.shutdown(drain=True, timeout_s=60.0)
    assert job.is_terminal()
    assert job.snapshot()["state"] == "done"


# ----------------------------------------------------------------------
# Eviction tombstones: "aged out" answers 410, never a typo-like 404.
# ----------------------------------------------------------------------
def test_store_eviction_leaves_tombstone():
    store = JobStore(max_jobs=1)
    a = store.create(JobRequest(source="x"), "alice")
    a.finish(JobState.DONE, result={})
    store.create(JobRequest(source="x"), "alice")
    assert store.get(a.id) is None
    info = store.evicted_info(a.id)
    assert info is not None
    assert info["state_at_eviction"] == "done"
    assert info["tenant"] == "alice"
    assert info["evicted_s"] >= info["created_s"]
    # Never-seen ids have no tombstone.
    assert store.evicted_info("job-999999-cafecafe") is None


def test_tombstones_are_bounded():
    store = JobStore(max_jobs=1, max_tombstones=3)
    evicted = []
    for _ in range(6):
        job = store.create(JobRequest(source="x"), "t")
        job.finish(JobState.DONE, result={})
        evicted.append(job.id)
    # Only the newest max_tombstones eviction records survive.
    remembered = [jid for jid in evicted if store.evicted_info(jid) is not None]
    assert len(remembered) == 3
    assert remembered == evicted[-4:-1]  # the last job is still retained


class TestEvictedJobsHTTP:
    @pytest.fixture()
    def tiny_server(self):
        server, client = start_service_server(
            ServiceConfig(port=0, workers=1, rate_limit_per_s=None, max_jobs=1)
        )
        yield server, client
        assert server.shutdown_service(drain=True, timeout_s=30.0)

    def test_evicted_job_is_structured_410(self, tiny_server):
        _, client = tiny_server
        job = {"source": "A -1\n", "language": "qmasm", "solver": "exact"}
        status, first = client.post("/jobs", job)
        assert status == 202
        client.await_terminal(first["id"])
        # A second submission evicts the finished first (max_jobs=1).
        status, second = client.post("/jobs", job)
        assert status == 202
        client.await_terminal(second["id"])

        status, body = client.get(f"/jobs/{first['id']}")
        assert status == 410
        assert body["error"] == "gone"
        assert body["state_at_eviction"] == "done"
        assert "evicted_s" in body
        # A never-submitted id is still a plain 404.
        status, body = client.get("/jobs/job-999999-deadbeef")
        assert status == 404 and body["error"] == "not_found"

        status, metrics = client.get("/metrics?format=json")
        assert metrics["counters"]["service.gone_410"] >= 1


# ----------------------------------------------------------------------
# Idempotent submission: retried POSTs dedup to the original job.
# ----------------------------------------------------------------------
class TestIdempotency:
    JOB = {"source": "A -1\n", "language": "qmasm", "solver": "exact"}

    def test_header_key_dedups_resubmission(self, service_server):
        _, client = service_server
        headers = {"Idempotency-Key": "retry-123"}
        status, first = client.request(
            "POST", "/jobs", payload=self.JOB, headers=headers
        )[:2]
        assert status == 202
        assert "deduplicated" not in first
        client.await_terminal(first["id"])

        status, second = client.request(
            "POST", "/jobs", payload=self.JOB, headers=headers
        )[:2]
        assert status == 202
        assert second["id"] == first["id"]
        assert second["deduplicated"] is True

        status, metrics = client.get("/metrics?format=json")
        counters = metrics["counters"]
        assert counters["service.jobs_submitted"] == 1
        assert counters["service.idempotent_hits"] == 1

    def test_body_field_key_dedups(self, service_server):
        _, client = service_server
        job = dict(self.JOB, idempotency_key="body-key-1")
        status, first = client.post("/jobs", job)
        assert status == 202
        status, second = client.post("/jobs", job)
        assert status == 202
        assert second["id"] == first["id"] and second["deduplicated"] is True

    def test_same_key_different_payload_is_409(self, service_server):
        _, client = service_server
        headers = {"Idempotency-Key": "conflicted"}
        status, _ = client.request(
            "POST", "/jobs", payload=self.JOB, headers=headers
        )[:2]
        assert status == 202
        other = dict(self.JOB, num_reads=7)
        status, body = client.request(
            "POST", "/jobs", payload=other, headers=headers
        )[:2]
        assert status == 409
        assert body["error"] == "idempotency_conflict"
        status, metrics = client.get("/metrics?format=json")
        assert metrics["counters"]["service.idempotency_conflicts"] == 1

    def test_invalid_key_is_400(self, service_server):
        _, client = service_server
        status, body = client.post(
            "/jobs", dict(self.JOB, idempotency_key="   ")
        )
        assert status == 400
        assert body["field"] == "idempotency_key"
        status, body = client.post(
            "/jobs", dict(self.JOB, idempotency_key="x" * 300)
        )
        assert status == 400

    def test_tenants_do_not_share_keys(self, service_server):
        _, client = service_server
        headers = {"Idempotency-Key": "shared-key"}
        status, alice = client.request(
            "POST", "/jobs", payload=self.JOB, tenant="alice", headers=headers
        )[:2]
        status, bob = client.request(
            "POST", "/jobs", payload=self.JOB, tenant="bob", headers=headers
        )[:2]
        assert alice["id"] != bob["id"]
        assert "deduplicated" not in bob


# ----------------------------------------------------------------------
# ``python -m repro serve``: usage errors and the SIGTERM path
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--workers", "0"], "--workers must be at least 1, got 0"),
        (["--queue-size", "-1"], "--queue-size must be at least 1, got -1"),
        (["--burst", "0.5"], "--burst must be at least 1, got 0.5"),
        (
            ["--topology", "hexagon"],
            "--topology: unknown topology 'hexagon'; available: chimera, pegasus, zephyr",
        ),
        (["--topology-size", "0"], "--topology-size must be at least 1, got 0"),
        (
            ["--topology", "pegasus", "--topology-size", "1"],
            "--topology-size: Pegasus size must be >= 2, got 1",
        ),
        (["--rate-limit", "-1"], "--rate-limit must be at least 0 (0 disables), got -1"),
    ],
    ids=["workers", "queue-size", "burst", "topology", "topology-size", "family-size",
         "rate-limit"],
)
def test_bad_serve_settings_exit_2_before_listening(argv, message, capsys, monkeypatch):
    def listen(config):
        raise AssertionError("the server was started")

    monkeypatch.setattr(app, "AnnealingServer", listen)
    with pytest.raises(SystemExit) as exc:
        serve_main(["--port", "0", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_burst_is_free_when_rate_limiting_is_off(monkeypatch):
    class Started(Exception):
        pass

    def listen(config):
        raise Started(config)

    monkeypatch.setattr(app, "AnnealingServer", listen)
    with pytest.raises(Started) as started:
        serve_main(["--port", "0", "--rate-limit", "0", "--burst", "0"])
    assert started.value.args[0].rate_limit_per_s is None


def test_sigterm_inside_process_request_drains_the_server(monkeypatch, capsys):
    """The SIGTERM handler may raise while the main thread is inside
    ``process_request``, under socketserver's per-request ``except
    Exception``: the signal must still stop the server and drain it.
    Only ``serve_main`` freezes the start-up heap, not the server."""
    servers = []
    frozen = gc.get_freeze_count()
    build = app.AnnealingServer.__init__

    def recording_init(self, config=None):
        build(self, config)
        assert gc.get_freeze_count() == frozen
        servers.append(self)

    def signalled(self, request, client_address):
        raise app._GracefulSignal()

    monkeypatch.setattr(app.AnnealingServer, "__init__", recording_init)
    monkeypatch.setattr(app.AnnealingServer, "process_request", signalled)
    finished = threading.Event()

    def connect():
        deadline = time.monotonic() + 30
        while not servers and time.monotonic() < deadline:
            time.sleep(0.01)
        if not servers:
            return
        socket.create_connection(servers[0].server_address[:2], timeout=5).close()
        # A swallowed signal leaves serve_forever running: stop it, so
        # the test fails instead of hanging.
        if not finished.wait(15):
            servers[0].shutdown()

    poker = threading.Thread(target=connect, daemon=True)
    previous = signal.getsignal(signal.SIGTERM)
    poker.start()
    try:
        assert serve_main(["--port", "0", "--workers", "1"]) == 0
        frozen_after = gc.get_freeze_count()
    finally:
        finished.set()
        poker.join(timeout=30)
        signal.signal(signal.SIGTERM, previous)
        gc.unfreeze()
        for server in servers:
            server.service.shutdown(drain=False, timeout_s=5.0)
            server.server_close()
    assert "shutting down on SIGTERM" in capsys.readouterr().out
    assert not servers[0].service.pool.alive_workers()
    assert frozen_after > frozen
