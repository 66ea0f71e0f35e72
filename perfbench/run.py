"""The repository benchmark: one workload, one seed, one line of JSON.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-embed --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run of the same
jobs (see README.md).  Costs are CPU seconds of the process doing the
work, so the time a shared host gives other tenants stays out of them.  Every job's answer is checked; the command exits
non-zero when a check fails or the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
#: Set-up is timed in this many fresh processes; the median is reported.
SETUP_REPEATS = 3
#: Every worker of one invocation must finish within this budget.
TOTAL_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_s_per_job": "s",
    "completed_fraction": "ratio",
    "peak_rss_mb": "MB",
    "solved_fraction": "ratio",
    "physical_qubits": "qubits",
}

PER_LAYER_UNITS = {
    "hdl.elaborate_s": "s",
    "synth.optimize_s": "s",
    "synth.techmap_s": "s",
    "synth.cells": "count",
    "edif.emit_s": "s",
    "edif.roundtrip_s": "s",
    "edif.bytes": "bytes",
    "edif2qmasm.translate_s": "s",
    "qmasm.assemble_s": "s",
    "ising.logical_vars": "count",
    "hardware.machine_s": "s",
    "hardware.find_embedding_s": "s",
    "hardware.embed_restarts": "count",
    "hardware.chain_max": "qubits",
    "solvers.sample_s": "s",
    "solvers.sweeps_per_s": "1/s",
    "solvers.reads_returned_fraction": "ratio",
    "qmasm.unembed_s": "s",
    "qmasm.postprocess_s": "s",
    "qmasm.certify_s": "s",
    "qmasm.certified_fraction": "ratio",
    "core.compile_cache_hit_ratio": "ratio",
    "core.embedding_cache_hit_ratio": "ratio",
    "core.overhead_s": "s",
    "service.submit_s.p50": "s",
    "service.poll_s.p50": "s",
    "service.queue_wait_s.p50": "s",
    "service.run_s.p50": "s",
    "service.journal_records": "count",
    "gen.late_s.max": "s",
    "host.ref_loop_s": "s",
    "cpu_s_per_job.unscaled": "s",
    "trace.overhead": "ratio",
    "core.hash_seed_divergence": "count",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "jobs_per_s": "jobs/s",
}


class WorkerError(RuntimeError):
    pass


def spawn(args, mode: str, hash_seed: int, deadline: float, trace: bool = False) -> Dict[str, Any]:
    """Run one worker process to completion and return its summary.

    The worker gets a session of its own, so a timeout also stops any
    server it started.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    if trace:
        command.append("--trace")
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{mode} worker ran past the time budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}")
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        raise WorkerError(f"{mode} worker printed nothing")
    return json.loads(lines[-1])


def completed(summary: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [job for job in summary["jobs"] if "failed" not in job]


def check_errors(summary: Dict[str, Any]) -> List[str]:
    errors = list(summary.get("errors", []))
    for job in summary["jobs"]:
        errors.extend(job.get("errors", []))
        if "failed" not in job and job["reads_returned"] != job["reads_requested"]:
            errors.append(
                f"job {job['index']}: {job['reads_returned']} reads returned, "
                f"{job['reads_requested']} requested"
            )
    return errors


def timed_wall_s(workload: str, done: List[Dict[str, Any]]) -> float:
    """Wall time of the timed phase: the closed loop's summed job times,
    or the open loop's first due time to its last completion."""
    if workload == "serve-compile":
        return max(j["done"] for j in done) - min(j["due"] for j in done)
    return sum(j["job_s"] for j in done)


def end_to_end(
    workload: str, summary: Dict[str, Any], setups: List[Dict[str, Any]]
) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run; ``setups`` holds every
    set-up's summary, the run's own among them."""
    done = completed(summary)
    attempted = len(summary["jobs"])
    if not done:
        raise WorkerError("no job completed")
    return {
        "setup_s": statistics.median(setup_s(workload, setup) for setup in setups),
        "cpu_s_per_job": cpu_s_per_job(workload, summary),
        "completed_fraction": len(done) / attempted,
        "peak_rss_mb": summary["peak_rss_mb"],
        "solved_fraction": sum(1 for j in done if j["solved"]) / attempted,
        "physical_qubits": statistics.mean(j["physical_qubits"] for j in done),
    }


def setup_s(workload: str, setup: Dict[str, Any]) -> float:
    """One set-up's CPU seconds: host-scaled by the slices timed right
    after it in the closed loops; the server's, unscaled like its jobs,
    in the open loop."""
    if workload == "serve-compile":
        return setup["setup_cpu_s"]
    return wl.host_scaled(setup["setup_cpu_s"], setup["setup_ref_s"])


def cpu_s_per_job(workload: str, summary: Dict[str, Any], scaled: bool = True) -> float:
    """CPU seconds one job costs the process doing the work.

    Closed loop, one job at a time: the median of the jobs' own CPU
    times, each scaled by the reference slices timed in the same thread
    just before and after it (``scaled=False`` leaves the host's drift
    in).  Open loop, where jobs overlap: the server's CPU time over the
    loop per completed job, unscaled, since no slice runs in the server.
    """
    done = completed(summary)
    if workload == "serve-compile":
        return summary["cpu_s"] / len(done)
    return statistics.median(
        wl.host_scaled(j["cpu_s"], j["ref_s"]) if scaled else j["cpu_s"] for j in done
    )


def halves(values: List[float]) -> List[List[float]]:
    middle = len(values) // 2
    return [values[:middle], values[middle:]]


def run_digest(summary: Dict[str, Any]) -> str:
    """Digest of a run's deterministic outputs: which jobs completed and
    solved, their qubit counts and certified read counts."""
    return wl.digest(
        [
            [j["index"], "failed" in j, j.get("solved"), j.get("physical_qubits"),
             j.get("certified_reads")]
            for j in summary["jobs"]
        ]
    )


def per_layer(workload, base, traced, probe) -> Dict[str, float]:
    layers = {name: 0.0 for name in PER_LAYER_UNITS}
    layers.update(traced["layers"])
    base_times = [j["job_s"] for j in completed(base)]
    base_cpu = cpu_s_per_job(workload, base)
    if workload == "serve-compile":
        layers["gen.late_s.max"] = max(j["late_s"] for j in completed(base))
        traced_digest = traced["job0_digest"]
    else:
        traced_digest = traced["jobs"][0].get("digest")
    layers.update(
        {
            "host.ref_loop_s": statistics.median(base["ref_slices"]),
            "cpu_s_per_job.unscaled": cpu_s_per_job(workload, base, scaled=False),
            "trace.overhead": (cpu_s_per_job(workload, traced) - base_cpu) / base_cpu,
            "core.hash_seed_divergence": float(probe["jobs"][0].get("digest") != traced_digest),
            "job_s.p50": statistics.median(base_times),
            "job_s.p90": wl.percentile(base_times, 90),
            "jobs_per_s": len(base_times) / timed_wall_s(workload, completed(base)),
        }
    )
    return layers


def layer_shares(layers: Dict[str, float], job_s: float) -> str:
    """The largest layer self times, as shares of a job's time."""
    timed = sorted(
        ((layers[name] / job_s, name) for name in tracing.LAYER_OF_SPAN.values()
         if layers.get(name)),
        reverse=True,
    )
    return ", ".join(f"{name} {share:.0%}" for share, name in timed[:5])


def report(metrics: Dict[str, float], units: Dict[str, str]) -> Dict[str, Any]:
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the root of a checkout holding src/repro", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TOTAL_BUDGET_S
    hash_seed = wl.hash_seed(args.seed)
    count = wl.job_count(args.workload, args.seconds)
    print(f"{args.workload}: seed {args.seed}, {count} jobs, PYTHONHASHSEED={hash_seed}")
    try:
        if not args.trace:
            setups = [spawn(args, "setup", hash_seed, deadline) for _ in range(SETUP_REPEATS - 1)]
            summary = spawn(args, "run", hash_seed, deadline)
            setups.append(summary)
            errors = check_errors(summary)
            metrics = end_to_end(args.workload, summary, setups)
            result_metrics = report(metrics, END_TO_END_UNITS)
            base = summary
        else:
            base = spawn(args, "run", hash_seed, deadline)
            traced = spawn(args, "run", hash_seed, deadline, trace=True)
            probe_seed = random.Random(f"probe-hash-seed:{args.seed}").randrange(
                1, wl.HASH_SEED_BOUND
            )
            probe = spawn(args, "probe", probe_seed, deadline)
            errors = check_errors(base) + check_errors(traced)
            if run_digest(traced) != run_digest(base):
                errors.append("the traced run's outputs differ from the untraced run's")
            metrics = per_layer(args.workload, base, traced, probe)
            result_metrics = report(metrics, PER_LAYER_UNITS)
    except (WorkerError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    done = completed(base)
    times = [j["job_s"] for j in done]
    for name, entry in result_metrics.items():
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")
    print(
        f"  job_s p50 {statistics.median(times):.4g} s, p90 {wl.percentile(times, 90):.4g} s "
        f"(n={len(times)}); jobs_per_s {len(done) / timed_wall_s(args.workload, done):.4g}; "
        "host.ref_loop_s first/second half "
        + " / ".join(f"{statistics.median(half):.4g}" for half in halves(base["ref_slices"]))
        + f"; unscaled cpu_s_per_job {cpu_s_per_job(args.workload, base, scaled=False):.4g}"
    )
    print(f"  output digest {run_digest(base)}")
    if args.trace and "cold_layers" in traced:
        cold = traced["cold_layers"]
        print("  cold (uncached) jobs, share of mean service run time: "
              + layer_shares(cold, cold["service.run_s"]))
    elif args.trace:
        print("  largest layers, share of CPU per job: "
              + layer_shares(traced["layers"], traced["cpu_s"] / len(completed(traced))))
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    attempted = len(base["jobs"])
    if args.trace:
        attempted += len(traced["jobs"])
        done = done + completed(traced)
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": attempted - len(done),
                "metrics": result_metrics,
            }
        )
    )
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
