"""One pass of a benchmark workload, in a process of its own.

``run.py`` starts this under the workload's ``PYTHONHASHSEED`` with the
checkout's ``src`` on ``PYTHONPATH``, and reads the JSON summary it
prints as its last line.  Modes:

* ``setup`` -- set the workload up, report the CPU time that took, stop;
* ``run`` -- set up, run the timed jobs, check every answer;
* ``probe`` -- set up and run job 0 only, for the hash-seed check.

``--trace`` records spans around every call into a layer and adds the
per-layer numbers to the summary.

Every cost is CPU time of the process doing the work: this worker for the
library workloads, the server for ``serve-compile``.  Wall time on a
shared host also holds the time the hypervisor gives other tenants,
which swung a fixed loop's wall time by up to 2x while its CPU time held.
The library workloads also time reference slices beside every job, so
``run.py`` can scale the host's drift out of their CPU times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

import tracing
import workloads as wl

#: Scratch space inside the checkout (spans, server state and logs).
SCRATCH_DIR = ".perfbench"
#: Reference slices timed after set-up, and around every closed-loop job
#: (an open loop times them before and after its jobs, for the record).
SETUP_SLICES = 5
JOB_SLICES = 3
HTTP_TIMEOUT_S = 10.0
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0
#: Between sweeps over the outstanding jobs; each poll is an HTTP request
#: the server's GIL-bound workers must make room for.
POLL_INTERVAL_S = 0.05
JOB_TIMEOUT_S = 60.0
TERMINAL_STATES = ("done", "error", "timeout")


def reference_slice() -> float:
    """A fixed slice of the program's two kinds of work, a pure-Python
    loop and numpy arithmetic on a 20k array; returns the CPU seconds of
    the calling thread.  It never changes, so its drift is the host's.
    """
    import numpy as np

    start = time.thread_time()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    x = np.linspace(-1.0, 1.0, 20_000)
    for _ in range(50):
        x = np.tanh(x * 1.5 + 0.25)
    return time.thread_time() - start


def reference_slices(count: int) -> List[float]:
    """``count`` reference slices: how fast the host runs fixed work now.

    Other tenants of a shared host slow its cores: identical jobs cost
    2.05-2.92 CPU seconds in five runs a minute apart, and a job's cost
    and the slices timed beside it, in the same thread, rose and fell
    together (correlation 0.79 over 16 jobs).  ``workloads.host_scaled``
    divides that drift out of the closed loops' jobs and set-ups.
    """
    return [reference_slice() for _ in range(count)]


def proc_cpu_s(pid: str = "self") -> float:
    """CPU seconds (user + system, every thread, exited ones too) a
    process has used; the host's steal time is not in them."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _sample_digest(sampleset) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps([str(v) for v in sampleset.variables]).encode())
    digest.update(sampleset.records.tobytes())
    digest.update(sampleset.energies.tobytes())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Library workloads: cold-embed and warm-anneal (closed loop, one caller)
# ----------------------------------------------------------------------
class LibraryWorkload:
    """Runs cold-embed or warm-anneal jobs through the library API."""

    def __init__(self, workload: str, recorder: Optional[tracing.SpanRecorder]):
        from repro import DWaveSimulator, VerilogAnnealerCompiler
        from repro.core.cache import CompilationCache
        from repro.core.pipeline import Stage
        from repro.core.workloads import map_coloring_verilog
        from repro.qmasm.certify import expand_read
        from repro.solvers.machine import MachineProperties

        self.workload = workload
        self.recorder = recorder
        self._machine_cls = DWaveSimulator
        self._machine_properties = MachineProperties(cells=wl.MACHINE_CELLS)
        self._compiler_cls = VerilogAnnealerCompiler
        self._stage_cls = Stage
        self._map_coloring = map_coloring_verilog
        self._expand_read = expand_read
        # cold-embed: every job gets an empty cache of its own.
        self.compile_cache: Optional[CompilationCache] = None
        if workload == "warm-anneal":
            self.compile_cache = CompilationCache()
        self.cpu_s = 0.0
        self.last_cpu_s = 0.0

    def setup(self) -> None:
        """warm-anneal: compile Listing 6 once, so every job's compile is
        a cache hit.  cold-embed has nothing to set up."""
        if self.workload == "warm-anneal":
            self._compiler(1, traced=False).compile(wl.mult_source(wl.WARM_WIDTH))

    def _compiler(self, seed: int, traced: bool):
        if self.workload == "cold-embed":
            span = self.recorder.span("hardware.machine") if traced else contextlib.nullcontext()
            with span:
                machine = self._machine_cls(self._machine_properties, seed=seed)
            compiler = self._compiler_cls(machine=machine, seed=seed)
        else:
            compiler = self._compiler_cls(seed=seed, cache=self.compile_cache)
        if traced:
            compiler.compile_stages = [
                tracing.make_traced_stage(self._stage_cls, s, self.recorder, "compile")
                for s in compiler.compile_stages
            ]
            compiler.runner.run_stages = [
                tracing.make_traced_stage(self._stage_cls, s, self.recorder, "run")
                for s in compiler.runner.run_stages
            ]
        return compiler

    def _design(self, job) -> Tuple[str, List[str]]:
        if job["kind"] == "factor":
            width = job["width"]
            return wl.mult_source(width), [f"C[{2 * width - 1}:0] := {job['product']}"]
        source = self._map_coloring(
            job["regions"], job["adjacent"], num_colors=wl.COLD_NUM_COLORS
        )
        return source, ["valid := true"]

    def run_job(self, job) -> Tuple[float, Any, Any, bool]:
        """One job from call to result; returns (wall seconds, program,
        result, whether the compile was a cache hit) and adds the job's
        CPU time, failed or not, to ``cpu_s``."""
        source, pins = self._design(job)
        traced = self.recorder is not None
        if self.workload == "cold-embed":
            run_kwargs = dict(
                solver="dwave",
                num_reads=wl.COLD_NUM_READS,
                annealing_time_us=wl.COLD_ANNEALING_TIME_US,
            )
        else:
            run_kwargs = dict(
                solver="sa", num_reads=wl.WARM_NUM_READS, num_sweeps=wl.WARM_NUM_SWEEPS
            )
        if traced:
            self.recorder.job = job["index"]
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            with self.recorder.span("job") if traced else contextlib.nullcontext():
                compiler = self._compiler(job["seed"], traced=traced)
                hits = compiler.compile_cache.stats.hits
                program = compiler.compile(source)
                result = compiler.run(program, pins=pins, certify=True, **run_kwargs)
        finally:
            self.last_cpu_s = time.process_time() - cpu_start
            self.cpu_s += self.last_cpu_s
        elapsed = time.perf_counter() - start
        return elapsed, program, result, compiler.compile_cache.stats.hits > hits

    def outcome(self, job, elapsed, program, result, compile_hit) -> Dict[str, Any]:
        """Everything the summary needs from one job, checked."""
        errors = []
        requested = (
            wl.COLD_NUM_READS if self.workload == "cold-embed" else wl.WARM_NUM_READS
        )
        if self.workload == "warm-anneal" and not compile_hit:
            errors.append(f"job {job['index']}: compile cache miss, expected a hit")
        certificate = result.certificate
        sampleset = result.sampleset
        for check in certificate.reads:
            if not check.certified:
                continue
            assignment = dict(
                zip(sampleset.variables, (int(s) for s in sampleset.records[check.index]))
            )
            full = self._expand_read(
                assignment, result.logical, result.representative, result.fixed_spins
            )
            values = {name: spin > 0 for name, spin in full.items()}
            if not wl.check_answer(job, values):
                errors.append(
                    f"job {job['index']}: certified read {check.index} fails the "
                    "independent check"
                )
                break
        embedding = result.embedding
        if embedding is None:  # sa anneals the logical model itself
            chains: List[Any] = []
            physical_qubits = result.num_logical_variables()
            chain_max = restarts = 0
        else:
            chains = sorted((str(v), sorted(c)) for v, c in embedding.chains.items())
            physical_qubits = result.num_physical_qubits()
            chain_max = embedding.max_chain_length()
            restarts = int(result.stats["find_embedding"].counters.get("restarts", 0))
        return {
            "index": job["index"],
            "job_s": elapsed,
            "cpu_s": self.last_cpu_s,
            "solved": wl.check_answer(job, result.best.values),
            "physical_qubits": physical_qubits,
            "logical_vars": result.num_logical_variables(),
            "chain_max": chain_max,
            "embed_restarts": restarts,
            "embedding_cache_hit": result.info.get("embedding_cache") == "hit",
            "compile_cache_hit": compile_hit,
            "cells": int(program.stats["techmap"].counters.get("cells", 0)),
            "edif_bytes": len(program.edif_text.encode("utf-8")),
            "reads_requested": requested,
            "reads_returned": result.sampleset.total_reads(),
            "certified_reads": certificate.certified_reads,
            "total_reads": certificate.total_reads,
            "digest": wl.digest([chains, _sample_digest(sampleset)]),
            "errors": errors,
        }


def run_library(args, jobs) -> Dict[str, Any]:
    recorder = tracing.SpanRecorder(clock=time.process_time) if args.trace else None
    bench = LibraryWorkload(args.workload, recorder)
    bench.setup()
    summary: Dict[str, Any] = {"setup_cpu_s": time.process_time()}  # since the process started
    summary["setup_ref_s"] = statistics.median(reference_slices(SETUP_SLICES))
    if args.mode == "setup":
        return summary
    if args.mode == "probe":
        jobs = jobs[:1]
    before = reference_slices(JOB_SLICES)
    slices = list(before)
    outcomes = []
    for job in jobs:
        try:
            elapsed, program, result, compile_hit = bench.run_job(job)
        except Exception as exc:  # a failed job is counted, not fatal
            outcome = {"index": job["index"], "failed": f"{type(exc).__name__}: {exc}"}
        else:
            outcome = bench.outcome(job, elapsed, program, result, compile_hit)
        after = reference_slices(JOB_SLICES)
        outcome["ref_s"] = statistics.median(before + after)
        outcomes.append(outcome)
        slices.extend(after)
        before = after
    summary.update(cpu_s=bench.cpu_s, ref_slices=slices, jobs=outcomes)
    if args.mode == "run":
        summary["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        spans = recorder.spans
        done = [o for o in outcomes if "failed" not in o]
        layers = tracing.layer_self_times(spans, len(done))
        sample_s = sum(
            own for span, own in zip(spans, tracing.self_times(spans))
            if span["name"] == "run.sample"
        )
        read_sweeps = sum(s.get("read_sweeps", 0) for s in spans if s["name"] == "run.sample")
        layers.update(_library_counts(done))
        layers["solvers.sweeps_per_s"] = read_sweeps / sample_s if sample_s > 0 else 0.0
        summary["layers"] = layers
        recorder.write(_scratch_path(f"spans-{args.workload}-{args.seed}.json"))
    return summary


def _library_counts(done: List[Dict[str, Any]]) -> Dict[str, float]:
    def median(key):
        return float(statistics.median(o[key] for o in done)) if done else 0.0

    def ratio(key):
        return sum(1 for o in done if o[key]) / len(done) if done else 0.0

    total_reads = sum(o["total_reads"] for o in done)
    return {
        "synth.cells": median("cells"),
        "edif.bytes": median("edif_bytes"),
        "ising.logical_vars": median("logical_vars"),
        "hardware.embed_restarts": (
            sum(o["embed_restarts"] for o in done) / len(done) if done else 0.0
        ),
        "hardware.chain_max": median("chain_max"),
        "solvers.reads_returned_fraction": (
            sum(1 for o in done if o["reads_returned"] == o["reads_requested"])
            / len(done) if done else 0.0
        ),
        "qmasm.certified_fraction": (
            sum(o["certified_reads"] for o in done) / total_reads if total_reads else 0.0
        ),
        "core.compile_cache_hit_ratio": ratio("compile_cache_hit"),
        "core.embedding_cache_hit_ratio": ratio("embedding_cache_hit"),
    }


# ----------------------------------------------------------------------
# serve-compile: open loop against `python -m repro serve`
# ----------------------------------------------------------------------
def _http(method: str, url: str, payload=None) -> Tuple[int, Any]:
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json", "X-Tenant": "perfbench"},
    )
    try:
        with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        with exc:
            body = exc.read()
        try:
            return exc.code, json.loads(body.decode("utf-8"))
        except ValueError:
            return exc.code, None


class Server:
    """``python -m repro serve --port 0`` on a fresh state directory.

    Its output goes to a log file, so the server never blocks on a full
    pipe; the listening line in that log gives the bound port.
    """

    _LISTENING = re.compile(r"listening on (http://[0-9.]+:[0-9]+)")

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.spawned_at = time.monotonic()
        self._log = open(os.path.join(run_dir, "server.log"), "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--state-dir", os.path.join(run_dir, "state"),
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            self.url = self._wait_ready()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self._log.close()
            raise

    def _wait_ready(self) -> str:
        limit = self.spawned_at + SERVER_START_TIMEOUT_S
        log_path = os.path.join(self.run_dir, "server.log")
        url = None
        while time.monotonic() < limit:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            if url is None:
                with open(log_path, encoding="utf-8", errors="replace") as handle:
                    match = self._LISTENING.search(handle.read())
                url = match.group(1) if match else None
            if url is not None:
                try:
                    status, _ = _http("GET", url + "/healthz")
                except OSError:
                    status = None
                if status == 200:
                    return url
            time.sleep(0.005)
        raise RuntimeError("server did not become ready")

    def stop(self) -> None:
        """SIGTERM (the server drains and flushes its journal), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class OpenLoop:
    """A seeded open-loop load: the main thread sends each job when it
    is due, one poller thread follows every accepted job to a terminal
    state."""

    def __init__(self, url: str, jobs: List[Dict[str, Any]], spans: Optional[List]):
        self.url = url
        self.jobs = jobs
        self.spans = spans
        self.records = [{"index": job["index"], "polls": []} for job in jobs]
        self._outstanding: Dict[int, str] = {}
        self._lock = threading.Lock()
        self._sent_all = threading.Event()

    def _span(self, name: str, index: int, start: float, end: float) -> None:
        if self.spans is not None:
            self.spans.append(
                {"name": name, "start": start, "end": end, "parent": None, "job": index}
            )

    def run(self) -> None:
        """Send every job on schedule, then wait until each is followed up."""
        poller = threading.Thread(target=self._poll, name="perfbench-poller")
        origin = time.monotonic() + 0.05
        poller.start()
        try:
            for job, record in zip(self.jobs, self.records):
                due = origin + job["due_s"]
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                record.update(due=due, sent=sent)
                try:
                    status, body = _http("POST", self.url + "/jobs", wl.serve_payload(job))
                except OSError as exc:
                    status, body = None, None
                    record["error"] = f"submit: {exc}"
                end = time.monotonic()
                record["submit_s"] = end - sent
                self._span("http.submit", job["index"], sent, end)
                if status == 202:
                    with self._lock:
                        self._outstanding[job["index"]] = body["id"]
                elif status is not None:
                    record["error"] = f"submit answered HTTP {status}"
        finally:
            self._sent_all.set()
            poller.join()

    def _poll(self) -> None:
        while True:
            with self._lock:
                pending = sorted(self._outstanding.items())
            if not pending and self._sent_all.is_set():
                return
            for index, job_id in pending:
                record = self.records[index]
                start = time.monotonic()
                try:
                    status, body = _http("GET", f"{self.url}/jobs/{job_id}")
                except OSError:
                    status, body = None, None
                now = time.monotonic()
                record["polls"].append(now - start)
                self._span("http.poll", index, start, now)
                finished = status == 200 and body["state"] in TERMINAL_STATES
                if finished:
                    record.update(done=now, snapshot=body, id=job_id)
                    if body["state"] != "done":
                        record["error"] = f"job ended {body['state']}: {body.get('error')}"
                elif now - record["due"] > JOB_TIMEOUT_S:
                    record["error"] = "timed out"
                if finished or "error" in record:
                    with self._lock:
                        del self._outstanding[index]
            time.sleep(POLL_INTERVAL_S)


def _reference_run(job, cache):
    """One serve-compile request run through ``VerilogAnnealerCompiler.run``
    in this process; returns (program, result)."""
    from repro import VerilogAnnealerCompiler

    payload = wl.serve_payload(job)
    compiler = VerilogAnnealerCompiler(seed=payload["seed"], cache=cache)
    program = compiler.compile(payload["source"])
    result = compiler.run(
        program,
        pins=payload["pins"],
        solver=payload["solver"],
        num_reads=payload["num_reads"],
        num_sweeps=payload["num_sweeps"],
    )
    return program, result


def _check_against_reference(jobs, records) -> Tuple[List[str], Dict[int, str]]:
    """Compare every completed job's samples and solutions with the same
    request run in this process (timing fields are not compared)."""
    from repro.core.cache import CompilationCache

    cache = CompilationCache()
    errors = []
    digests: Dict[int, str] = {}
    for job, record in zip(jobs, records):
        if "snapshot" not in record or "error" in record:
            continue
        program, result = _reference_run(job, cache)
        expected = result.result_payload(include_samples=True)
        served = record["snapshot"]["result"]
        same = all(served.get(k) == expected[k] for k in ("samples", "solutions"))
        record.update(
            matches_reference=same,
            logical_vars=expected["logical_variables"],
            reads_returned=sum(served["samples"]["occurrences"]),
            cells=int(program.stats["techmap"].counters.get("cells", 0)),
            edif_bytes=len(program.edif_text.encode("utf-8")),
        )
        if not same:
            errors.append(f"job {job['index']}: service result differs from the library's")
        digests[job["index"]] = _sample_digest(result.sampleset)
    return errors, digests


def _scratch_path(name: str) -> str:
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    return os.path.join(SCRATCH_DIR, name)


def run_serve(args, jobs) -> Dict[str, Any]:
    run_dir = _scratch_path(f"serve-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(run_dir)
    try:
        return _run_serve(args, jobs, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run_serve(args, jobs, run_dir) -> Dict[str, Any]:
    if args.mode == "probe":
        from repro.core.cache import CompilationCache

        _, result = _reference_run(jobs[0], CompilationCache())
        return {"jobs": [{"index": 0, "digest": _sample_digest(result.sampleset)}]}
    server = Server(run_dir)
    try:
        summary: Dict[str, Any] = {"setup_cpu_s": proc_cpu_s(str(server.proc.pid))}
        if args.mode == "setup":
            return summary
        slices = reference_slices(SETUP_SLICES)
        spans: Optional[List] = [] if args.trace else None
        loop = OpenLoop(server.url, jobs, spans)
        cpu_start = proc_cpu_s(str(server.proc.pid))
        loop.run()
        cpu_s = proc_cpu_s(str(server.proc.pid)) - cpu_start
        records = loop.records
        stages: Dict[int, List[Dict[str, Any]]] = {}
        if args.trace:
            for record in records:
                if "snapshot" in record and "error" not in record:
                    start = time.monotonic()
                    _, body = _http("GET", f"{server.url}/jobs/{record['id']}/trace")
                    loop._span("http.trace", record["index"], start, time.monotonic())
                    stages[record["index"]] = body["stages"]
        _, metrics = _http("GET", server.url + "/metrics?format=json")
        rss = peak_rss_mb(str(server.proc.pid))
    finally:
        server.stop()
    errors, digests = _check_against_reference(jobs, records)
    summary.update({
        "cpu_s": cpu_s,
        "ref_slices": slices + reference_slices(SETUP_SLICES),
        "jobs": _serve_outcomes(records),
        "errors": errors,
        "peak_rss_mb": rss,
        "job0_digest": digests.get(0),
    })
    if args.trace:
        summary["layers"] = _serve_layers(records, stages, metrics)
        cold = [r for r in records if r["index"] in stages and not r["snapshot"]["cache_warm"]]
        summary["cold_layers"] = dict(
            _serve_layers(cold, stages, metrics),
            **{"service.run_s": statistics.mean(r["snapshot"]["run_s"] for r in cold)},
        )
        with open(_scratch_path(f"spans-{args.workload}-{args.seed}.json"), "w") as handle:
            json.dump({"spans": spans, "stages": stages}, handle)
    return summary


def _serve_outcomes(records) -> List[Dict[str, Any]]:
    done = [r for r in records if "error" not in r and "done" in r]
    due = [r["due"] for r in done]
    times = wl.open_loop_job_times(due, [r["done"] for r in done])
    late = wl.lateness(due, [r["sent"] for r in done])
    completed = {r["index"] for r in done}
    outcomes = [
        {"index": r["index"], "failed": r.get("error", "not done")}
        for r in records
        if r["index"] not in completed
    ]
    for record, job_s, late_s in zip(done, times, late):
        outcomes.append(
            {
                "index": record["index"],
                "job_s": job_s,
                "due": record["due"],
                "done": record["done"],
                "late_s": late_s,
                "solved": bool(record.get("matches_reference")),
                "physical_qubits": record.get("logical_vars", 0),
                "reads_returned": record.get("reads_returned", 0),
                "reads_requested": wl.SERVE_NUM_READS,
            }
        )
    return sorted(outcomes, key=lambda o: o["index"])


def _serve_layers(records, stages, metrics) -> Dict[str, float]:
    """Per-layer numbers from the service's stage records, the client's
    timings of each HTTP call and the server's counters."""
    done = [r for r in records if r["index"] in stages]
    layers = {metric: 0.0 for metric in tracing.LAYER_OF_SPAN.values()}
    overhead = 0.0
    read_sweeps = sample_s = 0.0
    logical, cells, edif_bytes = [], [], []
    for record in done:
        staged = 0.0
        for stage in stages[record["index"]]:
            if stage["cached"] or stage["skipped"]:
                continue
            metric = tracing.LAYER_OF_SPAN.get(f"{stage['pipeline']}.{stage['name']}")
            staged += stage["wall_time_s"]
            if metric is not None:
                layers[metric] += stage["wall_time_s"]
            if stage["name"] == "sample":
                sample_s += stage["wall_time_s"]
                read_sweeps += wl.SERVE_NUM_READS * wl.SERVE_NUM_SWEEPS
        overhead += record["snapshot"]["run_s"] - staged
        logical.append(record.get("logical_vars", 0))
        cells.append(record.get("cells", 0))
        edif_bytes.append(record.get("edif_bytes", 0))
    n = max(1, len(done))
    layers = {name: value / n for name, value in layers.items()}
    counters = metrics["counters"]
    derived = metrics["derived"]
    polls = [p for r in done for p in r["polls"]]

    def median(values):
        return float(statistics.median(values)) if values else 0.0

    layers.update(
        {
            "core.overhead_s": overhead / n,
            "synth.cells": median(cells),
            "edif.bytes": median(edif_bytes),
            "ising.logical_vars": median(logical),
            "hardware.embed_restarts": 0.0,
            "hardware.chain_max": 0.0,
            "solvers.sweeps_per_s": read_sweeps / sample_s if sample_s > 0 else 0.0,
            "solvers.reads_returned_fraction": (
                sum(1 for r in done if r.get("reads_returned") == wl.SERVE_NUM_READS) / n
            ),
            "qmasm.certified_fraction": 0.0,
            "core.compile_cache_hit_ratio": float(derived["cache.compile.hit_ratio"]),
            "core.embedding_cache_hit_ratio": float(derived["cache.embedding.hit_ratio"]),
            "service.submit_s.p50": median([r["submit_s"] for r in done]),
            "service.poll_s.p50": median(polls),
            "service.queue_wait_s.p50": median(
                [r["snapshot"]["queue_wait_s"] for r in done]
            ),
            "service.run_s.p50": median([r["snapshot"]["run_s"] for r in done]),
            "service.journal_records": float(counters.get("journal.records", 0)),
        }
    )
    return layers


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "probe"))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import repro

    src = os.path.abspath("src") + os.sep
    if not os.path.abspath(repro.__file__).startswith(src):
        raise SystemExit(f"repro was imported from {repro.__file__}, not {src}")
    jobs = wl.job_list(args.workload, args.seed, wl.job_count(args.workload, args.seconds))
    if args.workload == "serve-compile":
        summary = run_serve(args, jobs)
    else:
        summary = run_library(args, jobs)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
