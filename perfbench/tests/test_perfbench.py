"""Tests of the benchmark's own logic: job lists, checks and summary maths.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import statistics

import pytest

import run
import tracing
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_a_seed_always_gives_the_same_jobs(workload):
    count = wl.job_count(workload, 20)
    first = wl.job_list(workload, 7, count)
    assert first == wl.job_list(workload, 7, count)
    assert first != wl.job_list(workload, 8, count)
    assert len(first) == count
    assert all(1 <= job["seed"] < wl.SEED_BOUND for job in first)


def test_job_count_is_a_function_of_seconds():
    assert wl.job_count("cold-embed", 20) == wl.job_count("cold-embed", 20)
    assert wl.job_count("serve-compile", 20) == 20  # 16 due, in whole blocks of widths
    assert wl.job_count("serve-compile", 10) == 10
    assert wl.job_count("cold-embed", 1) == 4  # MIN_JOBS, in whole factor/colour pairs
    assert wl.job_count("warm-anneal", 1) == wl.MIN_JOBS
    with pytest.raises(ValueError):
        wl.job_count("nope", 20)


def test_hash_seed_is_pinned_per_workload_seed():
    assert wl.hash_seed(3) == wl.hash_seed(3)
    assert wl.hash_seed(3) != wl.hash_seed(4)
    assert all(1 <= wl.hash_seed(s) < wl.HASH_SEED_BOUND for s in range(50))


def test_cold_embed_jobs_are_distinct_verifiers():
    jobs = wl.cold_embed_jobs(11, 30)
    assert [job["kind"] for job in jobs[:4]] == ["factor", "colour", "factor", "colour"]
    products = [job["product"] for job in jobs if job["kind"] == "factor"]
    assert len(products) == len(set(products))
    graphs = [(tuple(j["regions"]), tuple(j["adjacent"])) for j in jobs if j["kind"] == "colour"]
    assert len(graphs) == len(set(graphs))
    for job in jobs:
        if job["kind"] == "factor":
            assert 4 <= job["product"] <= wl.COLD_MAX_FACTOR ** 2
            continue
        regions, adjacent = job["regions"], job["adjacent"]
        assert len(regions) == wl.COLD_REGIONS
        assert len(set(adjacent)) == len(adjacent) == wl.COLD_BORDERS
        assert all(a != b for a, b in adjacent)
        reached, frontier = {regions[0]}, [regions[0]]
        while frontier:
            here = frontier.pop()
            for a, b in adjacent:
                for x, y in ((a, b), (b, a)):
                    if x == here and y not in reached:
                        reached.add(y)
                        frontier.append(y)
        assert reached == set(regions)


def test_warm_jobs_factor_distinct_8_bit_products():
    jobs = wl.warm_anneal_jobs(3, 30)
    assert all(job["width"] == 4 and job["product"] < 256 for job in jobs)
    assert len({job["product"] for job in jobs}) == len(jobs)


def test_serve_schedule_spans_a_fixed_time_at_the_rate():
    jobs = wl.serve_compile_jobs(5, 40)
    due = [job["due_s"] for job in jobs]
    assert due[0] == 0.0
    assert due[-1] == pytest.approx(39 / wl.SERVE_RATE_PER_S)
    assert due == sorted(due)
    gaps = [b - a for a, b in zip(due, due[1:])]
    assert all(0.0 <= gap <= 2.0 / wl.SERVE_RATE_PER_S for gap in gaps)
    assert len({job["due_s"] for job in wl.serve_compile_jobs(6, 40)} ^ set(due)) > 0


def test_serve_jobs_resubmit_recent_designs_only():
    jobs = wl.serve_compile_jobs(2, 400)
    fresh = [job for job in jobs if not job["resubmit"]]
    assert len({job["tag"] for job in fresh}) == len(fresh)
    assert not any(job["resubmit"] for job in jobs[:5])
    assert sum(job["resubmit"] for job in jobs) == round(wl.SERVE_RESUBMIT_FRACTION * 400)
    widths = [job["width"] for job in jobs]
    for block in range(0, 400, 5):
        assert sorted(widths[block:block + 5]) == [8, 9, 10, 11, 12]
    resubmitted = [job["width"] for job in jobs if job["resubmit"]]
    assert all(resubmitted.count(w) == 20 for w in range(8, 13))
    for seed in range(20):  # a 20-job run resubmits every width once
        short = wl.serve_compile_jobs(seed, 20)
        assert sorted(job["width"] for job in short if job["resubmit"]) == [8, 9, 10, 11, 12]
    latest = {}
    for job in jobs:
        if job["resubmit"]:
            assert latest[job["width"]] == job["tag"]
        else:
            latest[job["width"]] = job["tag"]
    payload = wl.serve_payload(jobs[0])
    assert payload["seed"] == jobs[0]["seed"]
    assert payload["num_reads"] == wl.SERVE_NUM_READS


def test_factoring_check_rejects_a_wrong_factoring():
    assert wl.check_factoring(35, 5, 7, 3)
    assert not wl.check_factoring(35, 5, 6, 3)
    assert not wl.check_factoring(36, 4, 9, 3)  # 9 does not fit in 3 bits


def test_colouring_check_rejects_a_bad_colouring():
    regions = ["R0", "R1", "R2"]
    adjacent = [("R0", "R1"), ("R1", "R2")]
    assert wl.check_colouring({"R0": 0, "R1": 1, "R2": 0}, regions, adjacent)
    assert not wl.check_colouring({"R0": 1, "R1": 1, "R2": 0}, regions, adjacent)
    assert not wl.check_colouring({"R0": 0, "R1": 4, "R2": 0}, regions, adjacent)
    assert not wl.check_colouring({"R0": 0, "R1": 1}, regions, adjacent)


def test_answers_are_decoded_from_solution_bits():
    def bits(base, value, width):
        return {f"{base}[{i}]": bool(value >> i & 1) for i in range(width)}

    job = {"kind": "factor", "width": 3, "product": 35}
    assert wl.check_answer(job, {**bits("A", 5, 3), **bits("B", 7, 3), **bits("C", 35, 6)})
    assert not wl.check_answer(job, {**bits("A", 5, 3), **bits("B", 6, 3), **bits("C", 35, 6)})
    assert not wl.check_answer(job, bits("A", 5, 3))
    colour = {"kind": "colour", "regions": ["R0", "R1"], "adjacent": [("R0", "R1")]}
    assert wl.check_answer(colour, {**bits("R0", 2, 2), **bits("R1", 3, 2)})
    assert not wl.check_answer(colour, {**bits("R0", 3, 2), **bits("R1", 3, 2)})


def test_percentile_interpolates_between_ranks():
    assert wl.percentile([3.0], 90) == 3.0
    assert wl.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert wl.percentile(list(range(11)), 90) == pytest.approx(9.0)
    assert wl.percentile([5.0, 1.0, 3.0], 100) == 5.0
    values = [random.Random(1).random() for _ in range(101)]
    assert wl.percentile(values, 50) == statistics.median(values)
    with pytest.raises(ValueError):
        wl.percentile([], 50)


def test_lateness_and_open_loop_times_count_from_the_due_time():
    assert wl.lateness([0.0, 1.0, 2.0], [0.001, 0.999, 2.5]) == pytest.approx([0.001, 0.0, 0.5])
    assert wl.open_loop_job_times([0.0, 1.0], [0.3, 2.0]) == pytest.approx([0.3, 1.0])
    with pytest.raises(ValueError):
        wl.lateness([0.0], [])


def test_self_time_subtracts_child_spans():
    spans = [
        {"name": "job", "start": 0.0, "end": 10.0, "parent": None, "job": 0},
        {"name": "compile.elaborate", "start": 1.0, "end": 3.0, "parent": 0, "job": 0},
        {"name": "run.sample", "start": 4.0, "end": 9.0, "parent": 0, "job": 0},
        {"name": "inner", "start": 5.0, "end": 6.0, "parent": 2, "job": 0},
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0])
    layers = tracing.layer_self_times(spans, num_jobs=2)
    assert layers["core.overhead_s"] == pytest.approx(1.5)
    assert layers["solvers.sample_s"] == pytest.approx(2.0)
    assert layers["hdl.elaborate_s"] == pytest.approx(1.0)


def test_overlapping_children_are_covered_once():
    spans = [
        {"name": "job", "start": 0.0, "end": 4.0, "parent": None, "job": 0},
        {"name": "a", "start": 1.0, "end": 3.0, "parent": 0, "job": 0},
        {"name": "b", "start": 2.0, "end": 5.0, "parent": 0, "job": 0},
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_span_recorder_nests_and_writes(tmp_path):
    ticks = iter(range(10))
    recorder = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.job = 4
    with recorder.span("job"):
        with recorder.span("run.sample"):
            pass
    assert [s["parent"] for s in recorder.spans] == [None, 0]
    assert recorder.spans[1] == {
        "name": "run.sample", "start": 1.0, "end": 2.0, "parent": 0, "job": 4,
    }
    path = tmp_path / "spans.json"
    recorder.write(str(path))
    assert json.loads(path.read_text())["spans"] == recorder.spans


def test_benchmark_json_names_the_metrics_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert set(tracing.LAYER_OF_SPAN.values()) <= set(run.PER_LAYER_UNITS)


def test_cpu_seconds_are_scaled_by_the_reference_slices():
    nominal = wl.REF_SLICE_NOMINAL_S
    assert wl.host_scaled(3.0, nominal) == pytest.approx(3.0)
    # A host at two thirds of its unloaded speed: slices and work both slow.
    assert wl.host_scaled(4.5, 1.5 * nominal) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        wl.host_scaled(1.0, 0.0)


def test_end_to_end_metrics_from_a_closed_loop_summary():
    nominal = wl.REF_SLICE_NOMINAL_S
    summary = {
        "peak_rss_mb": 100.0,
        "cpu_s": 5.0,
        "ref_slices": [2 * nominal],
        "setup_cpu_s": 8.0,
        "setup_ref_s": 2 * nominal,
        "jobs": [
            {"index": 0, "job_s": 1.0, "cpu_s": 0.5, "ref_s": nominal,
             "solved": True, "physical_qubits": 300},
            {"index": 1, "job_s": 3.0, "cpu_s": 3.0, "ref_s": 2 * nominal,
             "solved": False, "physical_qubits": 320},
            {"index": 2, "failed": "EmbeddingError: no embedding", "ref_s": nominal},
        ],
    }
    setups = [
        {"setup_cpu_s": 1.0, "setup_ref_s": nominal},
        {"setup_cpu_s": 9.0, "setup_ref_s": nominal},
        summary,
    ]
    metrics = run.end_to_end("cold-embed", summary, setups)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert metrics["setup_s"] == pytest.approx(4.0)  # median of 1, 9 and 8 at half speed
    # Completed jobs only, each scaled by its own slices: median of 0.5 and 1.5.
    assert metrics["cpu_s_per_job"] == pytest.approx(1.0)
    assert run.cpu_s_per_job("cold-embed", summary, scaled=False) == pytest.approx(1.75)
    # The open loop has no per-job CPU time: the server's, per completed
    # job, unscaled, as is the server's set-up (no slice runs in it).
    serve_setups = [{"setup_cpu_s": 1.0}, {"setup_cpu_s": 9.0}, summary]
    serve_metrics = run.end_to_end("serve-compile", summary, serve_setups)
    assert serve_metrics["cpu_s_per_job"] == pytest.approx(2.5)
    assert serve_metrics["setup_s"] == pytest.approx(8.0)
    assert metrics["completed_fraction"] == pytest.approx(2 / 3)
    assert metrics["solved_fraction"] == pytest.approx(1 / 3)
    assert metrics["physical_qubits"] == 310.0
    summary["jobs"][0]["physical_qubits"] = 400
    assert run.end_to_end("cold-embed", summary, [summary])["physical_qubits"] == 360.0


def test_open_loop_throughput_runs_from_first_due_to_last_done():
    done = [
        {"due": 10.0, "done": 10.4, "job_s": 0.4},
        {"due": 11.0, "done": 12.0, "job_s": 1.0},
    ]
    assert run.timed_wall_s("serve-compile", done) == pytest.approx(2.0)
    assert run.timed_wall_s("warm-anneal", done) == pytest.approx(1.4)
