"""Annealing-service load test: throughput, latency, and cache warmth.

Drives an in-process :class:`~repro.service.app.AnnealingServer` (real
HTTP over a loopback socket, real worker pool) through a cold/warm
workload and records the serving numbers:

* **requests/s** -- sequential ``GET /healthz`` round-trips, the raw
  HTTP + dispatch overhead floor;
* **cold p50/p99** -- end-to-end submit->done latency for distinct
  designs (every job compiles, embeds, and samples);
* **warm p50/p99** -- the same designs resubmitted, now served from the
  shared content-addressed caches (compilation skipped, straight to
  sampling);
* **cache hit ratio** -- the compile cache's measured ratio after the
  workload, cross-checked against the ``service.cache_warm`` counter.
* **recovery** -- journal-replay cost after a simulated mid-load crash:
  a state dir holding finished jobs plus orphaned (acknowledged, never
  finished) accepts is recovered by a fresh service; the gate is hard
  on completeness (100% of acknowledged jobs must reach ``done``) and
  trajectory-style on replay time per job.

Both measurements repeat: a full run makes :data:`PASSES` cold/warm
passes, each on a fresh in-process server with empty caches, and
:data:`RECOVERIES` recoveries, each on its own state dir.  Every gate
reads the *median* pass or recovery, so one pass slowed by a noisy host
cannot fail (or pass) the run; the completeness and cache checks hold
on every pass.

Results are persisted to ``BENCH_service.json`` at the repo root in the
tracked-trajectory style of ``BENCH_kernels.json``, per-pass values
included: the committed file is a regression baseline -- the median
warm-over-cold speedup may drop at most 20% below the stored ratio
before the gate fails, and each section is rewritten only once its
gates have passed (see ``_trajectory.py``).  Absolute latencies are
machine-specific and never gate.

The acceptance criterion rides here too: at full scale the median
pass's warm p50 must be **measurably below** its cold p50 (at most 80%
of it) -- the whole point of sharing caches across requests.

Set ``REPRO_BENCH_SMOKE=1`` for a scaled-down run (2 designs, fewer
reads, 2 passes) that checks warm/cold sanity but skips every timing
gate and writes the git-ignored ``BENCH_service.smoke.json`` instead.

Reproduce with::

    PYTHONPATH=src python -m pytest benchmarks/test_service_perf.py -s -q
"""

from __future__ import annotations

import faulthandler
import json
import statistics
import threading
import time
import urllib.request

from repro.service.app import AnnealingServer, ServiceConfig

from _trajectory import (
    SMOKE,
    gate_ratio,
    load_baseline,
    read_results,
    write_results,
)

NUM_DESIGNS = 2 if SMOKE else 8
#: Cold/warm passes per run, each on a fresh server; gates read the
#: median pass.
PASSES = 2 if SMOKE else 5
#: Compile-heavy, sample-light: a wide multiplier costs hundreds of
#: milliseconds to lower (elaborate -> techmap -> EDIF -> QMASM ->
#: assemble) while a few short anneals cost tens -- so the workload
#: exposes exactly what the shared compilation cache buys a warm job.
MULT_WIDTH = 6 if SMOKE else 12
NUM_READS = 4
NUM_SWEEPS = 4
HEALTH_PINGS = 20 if SMOKE else 200
#: Full-scale acceptance: warm p50 at most this fraction of cold p50.
WARM_P50_CEILING = 0.8

#: A distinct design per index: the tag comment changes the content
#: hash (distinct cache entries) while keeping the compile/embed/sample
#: workload identical across designs, so cold latencies are comparable.
MULT_TEMPLATE = """
// service-load-test design {tag}
module mult (A, B, C);
   input [{w1}:0] A;
   input [{w1}:0] B;
   output [{w2}:0] C;
   assign C = A * B;
endmodule
"""


def _design(tag):
    return MULT_TEMPLATE.format(tag=tag, w1=MULT_WIDTH - 1, w2=2 * MULT_WIDTH - 1)


def _client(base_url):
    def request(method, path, payload=None, timeout_s=60.0):
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        req = urllib.request.Request(
            base_url + path,
            data=data,
            headers={"Content-Type": "application/json", "X-Tenant": "bench"},
            method=method,
        )
        with urllib.request.urlopen(req, timeout=timeout_s) as reply:
            return json.loads(reply.read().decode("utf-8"))

    return request


def _submit_and_wait(request, design_index):
    """One job end-to-end; returns the client-observed latency."""
    payload = {
        "source": _design(design_index),
        "solver": "sa",
        "num_reads": NUM_READS,
        "num_sweeps": NUM_SWEEPS,
        "seed": 1000 + design_index,
    }
    start = time.perf_counter()
    submitted = request("POST", "/jobs", payload)
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        snapshot = request("GET", f"/jobs/{submitted['id']}")
        if snapshot["state"] in ("done", "error", "timeout"):
            break
        time.sleep(0.005)
    latency = time.perf_counter() - start
    assert snapshot["state"] == "done", f"job failed: {snapshot.get('error')}"
    return latency, snapshot


def _percentile(values, q):
    ranked = sorted(values)
    index = min(len(ranked) - 1, max(0, int(round(q * (len(ranked) - 1)))))
    return ranked[index]


def _serve_pass():
    """One cold-then-warm pass on a fresh server with empty caches."""
    server = AnnealingServer(
        ServiceConfig(port=0, workers=2, rate_limit_per_s=None)
    )
    threading.Thread(target=server.serve_forever, daemon=True).start()
    request = _client(server.url)
    try:
        assert request("GET", "/healthz")["status"] == "ok"

        # Raw HTTP floor: sequential healthz round-trips.
        ping_start = time.perf_counter()
        for _ in range(HEALTH_PINGS):
            request("GET", "/healthz")
        ping_elapsed = time.perf_counter() - ping_start

        cold = [_submit_and_wait(request, i) for i in range(NUM_DESIGNS)]
        warm = [_submit_and_wait(request, i) for i in range(NUM_DESIGNS)]

        metrics = request("GET", "/metrics?format=json")
        counters = metrics["counters"]
        hit_ratio = metrics["derived"]["cache.compile.hit_ratio"]
    finally:
        clean = server.shutdown_service(drain=True, timeout_s=30.0)
    assert clean, "benchmark server did not shut down cleanly"

    assert all(not snap["cache_warm"] for _, snap in cold)
    assert all(snap["cache_warm"] for _, snap in warm)
    assert counters["service.cache_warm"] == NUM_DESIGNS
    assert counters["service.cache_cold"] == NUM_DESIGNS
    # Every warm job hit the compile cache: the measured ratio is the
    # warm half of the workload.
    assert hit_ratio >= 0.5 - 1e-9

    cold_latencies = [latency for latency, _ in cold]
    warm_latencies = [latency for latency, _ in warm]
    cold_p50 = statistics.median(cold_latencies)
    warm_p50 = statistics.median(warm_latencies)
    return {
        "requests_per_s": HEALTH_PINGS / ping_elapsed,
        "cold": {
            "p50_s": cold_p50,
            "p99_s": _percentile(cold_latencies, 0.99),
            "latencies_s": cold_latencies,
        },
        "warm": {
            "p50_s": warm_p50,
            "p99_s": _percentile(warm_latencies, 0.99),
            "latencies_s": warm_latencies,
        },
        "warm_speedup_p50": (
            cold_p50 / warm_p50 if warm_p50 > 0 else float("inf")
        ),
        "compile_cache_hit_ratio": hit_ratio,
        "cache_warm_jobs": counters["service.cache_warm"],
    }


def test_service_throughput_and_cache_warmth():
    faulthandler.dump_traceback_later(600.0, exit=True)
    try:
        passes = [_serve_pass() for _ in range(PASSES)]
    finally:
        faulthandler.cancel_dump_traceback_later()

    requests_per_s = statistics.median(p["requests_per_s"] for p in passes)
    cold_p50 = statistics.median(p["cold"]["p50_s"] for p in passes)
    warm_p50 = statistics.median(p["warm"]["p50_s"] for p in passes)
    pass_speedups = [p["warm_speedup_p50"] for p in passes]
    warm_speedup = statistics.median(pass_speedups)

    payload = {
        "benchmark": "service_perf",
        "version": 2,
        "smoke": SMOKE,
        "workload": {
            "designs": NUM_DESIGNS,
            "mult_width": MULT_WIDTH,
            "num_reads": NUM_READS,
            "num_sweeps": NUM_SWEEPS,
            "workers": 2,
            "health_pings": HEALTH_PINGS,
            "passes": PASSES,
        },
        # Medians over the passes; the gates read these.
        "requests_per_s": requests_per_s,
        "cold_p50_s": cold_p50,
        "warm_p50_s": warm_p50,
        "warm_speedup_p50": warm_speedup,
        "pass_speedups": pass_speedups,
        "passes": passes,
    }
    per_pass = ", ".join(f"{speedup:.2f}x" for speedup in pass_speedups)
    print(
        f"\nservice_perf ({PASSES} passes, medians): "
        f"{requests_per_s:.0f} req/s (healthz), "
        f"cold p50={cold_p50 * 1000:.0f}ms, warm p50={warm_p50 * 1000:.0f}ms, "
        f"warm speedup={warm_speedup:.2f}x (per pass: {per_pass})"
    )

    # Smoke still proves warmth is plumbed, but never gates timing.
    if not SMOKE:
        # Acceptance: on the median pass the warm path is measurably
        # faster than cold (warm p50 at most 80% of cold p50).
        assert warm_speedup >= 1.0 / WARM_P50_CEILING, (
            f"median warm-over-cold speedup {warm_speedup:.2f}x: warm p50 "
            f"not measurably below cold p50 (ceiling {WARM_P50_CEILING:.0%})"
        )
        # Trajectory gate: ratios only, with the standard 20% band.
        baseline = load_baseline("service", "warm_speedup_p50")
        if baseline is not None:
            gate_ratio(
                "service",
                "warm-over-cold speedup",
                warm_speedup,
                baseline["warm_speedup_p50"],
            )

    # Preserve the recovery section (written by its own benchmark).
    existing = read_results("service")
    if "recovery" in existing:
        payload["recovery"] = existing["recovery"]
    write_results("service", payload)


# ----------------------------------------------------------------------
# Recovery benchmark: journal replay after a simulated mid-load crash.
# ----------------------------------------------------------------------
#: Jobs that finished (journaled terminal) before the "crash".
RECOVERY_TERMINAL_JOBS = 1 if SMOKE else 4
#: Jobs acknowledged (journaled accept) but never finished: the orphans
#: recovery must re-enqueue and complete.
RECOVERY_ORPHAN_JOBS = 2 if SMOKE else 8
#: Replay time is dominated by journal parse + store rebuild, which is
#: cheap and noisy at this scale -- the band is deliberately wide (the
#: hard gate is completeness, not speed).
RECOVERY_REGRESSION_FACTOR = 5.0
#: Timed recoveries per run, each on its own state dir; the replay gate
#: reads the median.
RECOVERIES = 2 if SMOKE else 5

RECOVERY_PAYLOAD = {
    "source": "A -1\nA B -5\n",
    "language": "qmasm",
    "solver": "exact",
    "pins": ["A := true"],
}


def _await_terminal_job(job, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if job.is_terminal():
            return job.snapshot()
        time.sleep(0.01)
    raise AssertionError(f"job {job.id} did not finish within {timeout_s}s")


def _recover_once(state_dir):
    """Crash-and-recover one journaled service; returns its timings.

    Every acknowledged job must reach ``done`` after the restart (the
    hard gate); returns ``(replay_s, startup_s)``.
    """
    import dataclasses

    from repro.service.app import AnnealingService
    from repro.service.jobs import JobRequest
    from repro.service.journal import JobJournal

    acknowledged = []

    # Phase 1: a real journaled service completes some jobs cleanly.
    service = AnnealingService(
        ServiceConfig(port=0, workers=2, rate_limit_per_s=None, state_dir=state_dir)
    )
    service.start()
    try:
        for index in range(RECOVERY_TERMINAL_JOBS):
            payload = dict(RECOVERY_PAYLOAD, seed=500 + index)
            job, _ = service.submit(payload)
            snapshot = _await_terminal_job(job)
            assert snapshot["state"] == "done"
            acknowledged.append(job.id)
    finally:
        assert service.shutdown(drain=True, timeout_s=60.0)

    # Phase 2: the "crash": orphaned accepts -- acknowledged jobs whose
    # process died before any worker finished them.  Appending real
    # accept records to the same journal reproduces exactly what a
    # SIGKILL between the fsynced 202 and the terminal leaves behind.
    journal = JobJournal(state_dir)
    for index in range(RECOVERY_ORPHAN_JOBS):
        payload = dict(RECOVERY_PAYLOAD, seed=900 + index)
        request = JobRequest.from_payload(payload)
        job_id = f"job-{100 + index:06d}-0badc0de"
        journal.accept(job_id, "bench", dataclasses.asdict(request), 100.0 + index)
        acknowledged.append(job_id)
    journal.close()

    # Phase 3: restart against the same state dir; time the replay and
    # hold the service to 100% of its acknowledgements.
    start = time.perf_counter()
    restarted = AnnealingService(
        ServiceConfig(port=0, workers=2, rate_limit_per_s=None, state_dir=state_dir)
    )
    restarted.start()
    try:
        startup_s = time.perf_counter() - start
        report = restarted.recovery_report
        assert report is not None
        assert report.recovered_jobs == RECOVERY_TERMINAL_JOBS + RECOVERY_ORPHAN_JOBS
        assert report.terminal_jobs == RECOVERY_TERMINAL_JOBS
        assert report.requeued_jobs == RECOVERY_ORPHAN_JOBS
        assert report.quarantined_jobs == 0

        # Hard gate: every acknowledged job reaches done.
        for job_id in acknowledged:
            job = restarted.store.get(job_id)
            assert job is not None, f"acknowledged job {job_id} was lost"
            snapshot = _await_terminal_job(job, timeout_s=120.0)
            assert snapshot["state"] == "done", (
                f"acknowledged job {job_id} ended {snapshot['state']}: "
                f"{snapshot.get('error')}"
            )
    finally:
        clean = restarted.shutdown(drain=True, timeout_s=60.0)
    assert clean, "recovered service did not shut down cleanly"
    return report.replay_s, startup_s


def test_recovery_replay_cost_and_completeness(tmp_path):
    faulthandler.dump_traceback_later(600.0, exit=True)
    try:
        runs = [
            _recover_once(str(tmp_path / f"state-{index}"))
            for index in range(RECOVERIES)
        ]
    finally:
        faulthandler.cancel_dump_traceback_later()

    total = RECOVERY_TERMINAL_JOBS + RECOVERY_ORPHAN_JOBS
    run_ms_per_job = [replay_s * 1000.0 / total for replay_s, _ in runs]
    replay_s = statistics.median(replay_s for replay_s, _ in runs)
    replay_ms_per_job = statistics.median(run_ms_per_job)
    results = read_results("service")
    previous = results.get("recovery") if not SMOKE else None
    results["recovery"] = {
        "smoke": SMOKE,
        "recoveries": RECOVERIES,
        "terminal_jobs": RECOVERY_TERMINAL_JOBS,
        "orphan_jobs": RECOVERY_ORPHAN_JOBS,
        "recovered_jobs": total,
        "completed_jobs": total,
        # Medians over the recoveries; the gate reads replay_ms_per_job.
        "replay_s": replay_s,
        "replay_ms_per_job": replay_ms_per_job,
        "startup_s": statistics.median(startup_s for _, startup_s in runs),
        "run_replay_ms_per_job": run_ms_per_job,
    }
    print(
        f"\nservice_recovery: {RECOVERIES} recoveries of {total} jobs "
        f"({RECOVERY_ORPHAN_JOBS} requeued), median replay "
        f"{replay_s * 1000:.1f}ms ({replay_ms_per_job:.2f}ms/job), "
        f"100% completed"
    )

    # Trajectory gate: wide band on the median replay cost per job
    # (completeness above is the hard gate; this only catches
    # order-of-magnitude regressions in the replay path).  Smoke runs
    # never gate timing.
    if (
        previous
        and not previous.get("smoke")
        and previous.get("replay_ms_per_job")
    ):
        ceiling = previous["replay_ms_per_job"] * RECOVERY_REGRESSION_FACTOR
        assert replay_ms_per_job <= ceiling, (
            f"journal replay regressed: median {replay_ms_per_job:.2f}ms/job "
            f"vs committed {previous['replay_ms_per_job']:.2f}ms/job "
            f"(ceiling {ceiling:.2f}) -- investigate before refreshing "
            f"BENCH_service.json"
        )
    write_results("service", results)
