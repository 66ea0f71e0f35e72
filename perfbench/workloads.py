"""Seeded job lists, reference checks and summary maths for the benchmark.

Everything here is plain Python with no import of the package under
test, so the benchmark's own tests can pin each rule without running a
job.  A workload seed fixes everything a run does: the job list, every
job's own seed, the open-loop arrival schedule and the interpreter's
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

WORKLOADS = ("cold-embed", "warm-anneal", "serve-compile")

#: Job seeds and hash seeds are drawn below these bounds.
SEED_BOUND = 2**31
HASH_SEED_BOUND = 2**32 - 1

# -- cold-embed: distinct small verifiers, each embedded from scratch ---
#: Every job builds a C12 Chimera machine (1152 qubits, the C16 2000Q's
#: layout at 12x12 cells): the 45-variable designs below embed with room
#: to spare, ~25% faster and with less spread than on the C16, so a run
#: holds more embeddings.
MACHINE_CELLS = 12
#: Both kinds of job are 45-variable logical models: the 3-bit Listing 6
#: and a five-region, six-border map.  Jobs of one size keep the per-job
#: cost distribution single-peaked, so the run's median job does not
#: swing with the seeded mix of kinds.
COLD_FACTOR_WIDTH = 3
COLD_MAX_FACTOR = 7
COLD_REGIONS = 5
COLD_BORDERS = 6
COLD_NUM_COLORS = 4
#: Few, short anneals, so that ``find_embedding`` is the largest share
#: of a job (at 50 reads of 20 us it is level with ``sample``).
COLD_NUM_READS = 20
COLD_ANNEALING_TIME_US = 5.0
COLD_NOMINAL_JOB_S = 1.25

# -- warm-anneal: one compile in setup, then sampling-bound jobs --------
#: The 4-bit Listing 6 (92 logical variables, so the sparse sweep tier
#: runs), factoring 8-bit products on ``sa``: every job anneals the same
#: logical model, so its cost does not depend on an embedding, which
#: follows the hash seed (the defect README.md describes).  200 reads:
#: at 1000 sweeps a read factors 169 = 13 * 13 only ~2% of the time, and
#: 100 reads left one job in 90 unsolved.
WARM_WIDTH = 4
WARM_MAX_FACTOR = 15
WARM_NUM_READS = 200
WARM_NUM_SWEEPS = 1000
WARM_NOMINAL_JOB_S = 3.0

# -- serve-compile: compile-bound open loop against the HTTP service ----
#: About a third of the service's capacity here (2.1-2.8 jobs/s with two
#: workers), so the queue stays short.
SERVE_RATE_PER_S = 0.8
SERVE_MIN_WIDTH = 8
SERVE_MAX_WIDTH = 12
SERVE_NUM_READS = 4
SERVE_NUM_SWEEPS = 4
#: A quarter: in 20 jobs, one resubmit of each width, so every run has
#: the same mix of compile-cache hits.
SERVE_RESUBMIT_FRACTION = 0.25

MIN_JOBS = 3

MULT_TEMPLATE = """// {tag}
module mult (A, B, C);
   input [{w1}:0] A;
   input [{w1}:0] B;
   output [{w2}:0] C;
   assign C = A * B;
endmodule
"""


def mult_source(width: int, tag: str = "Listing 6") -> str:
    """The paper's Listing 6 multiplier at ``width`` bits per factor.

    ``tag`` lands in a leading comment: it changes the design's content
    hash (so the compile cache sees a new design) but not its logic.
    """
    return MULT_TEMPLATE.format(tag=tag, w1=width - 1, w2=2 * width - 1)


def hash_seed(seed: int) -> int:
    """The ``PYTHONHASHSEED`` every process of a workload run uses.

    String hashing changes set iteration order, which the ``dwave`` path
    currently leaks into its embeddings and samples; pinning it per
    workload seed makes a run repeatable without choosing one lucky
    value for every seed.
    """
    return random.Random(f"hash-seed:{seed}").randrange(1, HASH_SEED_BOUND)


def job_count(workload: str, seconds: float) -> int:
    """How many jobs one run holds: a fixed function of ``--seconds``.

    Sizing the job list from the nominal job CPU time (not from a clock)
    keeps every run of one seed doing identical work.
    """
    if workload == "cold-embed":
        count, block = seconds / COLD_NOMINAL_JOB_S, 2
    elif workload == "warm-anneal":
        count, block = seconds / WARM_NOMINAL_JOB_S, 1
    elif workload == "serve-compile":
        count, block = seconds * SERVE_RATE_PER_S, SERVE_MAX_WIDTH - SERVE_MIN_WIDTH + 1
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # Whole blocks: both kinds of cold job and every serve width equally
    # often, so the mix is the same in every run.
    return block * max(1, int(math.ceil(max(count, MIN_JOBS) / block)))


# ----------------------------------------------------------------------
# Job lists
# ----------------------------------------------------------------------
def _factor_pairs(max_factor: int) -> List[Tuple[int, int]]:
    """One (p, q) per distinct product p*q with 2 <= p <= q <= max_factor."""
    pairs: Dict[int, Tuple[int, int]] = {}
    for p in range(2, max_factor + 1):
        for q in range(p, max_factor + 1):
            pairs.setdefault(p * q, (p, q))
    return [pairs[n] for n in sorted(pairs)]


def _balanced(rng: random.Random, values: Sequence[Any], count: int) -> List[Any]:
    """``count`` draws that use every value once per block of
    ``len(values)`` draws, in a seeded order: sizes vary within a run but
    their mix is the same in every run."""
    drawn: List[Any] = []
    while len(drawn) < count:
        block = list(values)
        rng.shuffle(block)
        drawn.extend(block)
    return drawn[:count]


def _colouring_instance(
    rng: random.Random, n: int, borders: int
) -> Tuple[List[str], List[Tuple[str, str]]]:
    """A connected graph of ``n`` regions and ``borders`` borders: a
    random spanning tree plus random extra borders.  ``COLD_NUM_COLORS``
    colours can colour it while ``borders`` is below ``n * (n - 1) / 2``
    (at most five regions, only the complete graph on five needs five).
    """
    regions = [f"R{i}" for i in range(n)]
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    edges.update(rng.sample(others, borders - len(edges)))
    adjacent = [(regions[i], regions[j]) for i, j in sorted(edges)]
    return regions, adjacent


def cold_embed_jobs(seed: int, count: int) -> List[Dict[str, Any]]:
    """Distinct small verifiers, alternating factoring and map colouring.

    Even jobs factor p*q (p, q <= 7) with the 3-bit Listing 6; odd jobs
    colour a five-region map with six borders.  No two jobs share a
    (design, pins) pair while the 20 distinct products last; longer runs
    reuse them with new seeds.
    """
    rng = random.Random(f"cold-embed:{seed}")
    products = _balanced(rng, _factor_pairs(COLD_MAX_FACTOR), (count + 1) // 2)
    jobs: List[Dict[str, Any]] = []
    seen_graphs = set()
    for index in range(count):
        if index % 2 == 0:
            p, q = products[index // 2]
            job = {"kind": "factor", "width": COLD_FACTOR_WIDTH, "product": p * q}
        else:
            for _ in range(1000):
                regions, adjacent = _colouring_instance(rng, COLD_REGIONS, COLD_BORDERS)
                if tuple(adjacent) not in seen_graphs:
                    break
            else:
                raise ValueError("ran out of distinct colouring instances")
            seen_graphs.add(tuple(adjacent))
            job = {"kind": "colour", "regions": regions, "adjacent": adjacent}
        job["index"] = index
        job["seed"] = rng.randrange(1, SEED_BOUND)
        jobs.append(job)
    return jobs


def warm_anneal_jobs(seed: int, count: int) -> List[Dict[str, Any]]:
    """Distinct 8-bit products p*q (2 <= p <= q <= 15) for the 4-bit
    Listing 6; past the distinct products, longer runs reuse them with
    new seeds."""
    rng = random.Random(f"warm-anneal:{seed}")
    chosen = _balanced(rng, _factor_pairs(WARM_MAX_FACTOR), count)
    return [
        {
            "index": index,
            "kind": "factor",
            "width": WARM_WIDTH,
            "product": p * q,
            "seed": rng.randrange(1, SEED_BOUND),
        }
        for index, (p, q) in enumerate(chosen)
    ]


def arrival_schedule(rng: random.Random, count: int, rate_per_s: float) -> List[float]:
    """Due times of ``count`` arrivals at ``rate_per_s``, the first at 0.

    Arrival ``i`` falls at a uniform random time within the slot of
    width ``1 / rate_per_s`` centred on ``i / rate_per_s``; the first and
    the last sit on their slot centres.  Gaps are random (0 to two mean
    gaps), bursts never exceed two arrivals, and the schedule always
    spans exactly ``(count - 1) / rate_per_s`` seconds.
    """
    due = [(i + rng.uniform(-0.5, 0.5)) / rate_per_s for i in range(count)]
    if count:
        due[0] = 0.0
        due[-1] = (count - 1) / rate_per_s
    return due


def serve_compile_jobs(seed: int, count: int) -> List[Dict[str, Any]]:
    """Distinct 8-12-bit multipliers run forward, on a seeded schedule.

    Jobs take each width once per five, in a seeded order.
    ``SERVE_RESUBMIT_FRACTION`` of the jobs, at seeded positions after
    the first five and with each width as often as the others, resubmit
    the latest design of their width (a compile-cache hit, at most nine
    jobs old); every other job is a new design with a unique comment,
    which defeats the compile cache.
    """
    rng = random.Random(f"serve-compile:{seed}")
    due = arrival_schedule(rng, count, SERVE_RATE_PER_S)
    sizes = range(SERVE_MIN_WIDTH, SERVE_MAX_WIDTH + 1)
    widths = _balanced(rng, sizes, count)
    later: Dict[int, List[int]] = {}
    for index in range(min(len(sizes), count), count):
        later.setdefault(widths[index], []).append(index)
    resubmits = set()
    wanted = round(SERVE_RESUBMIT_FRACTION * count)
    for width in _balanced(rng, sorted(later), wanted if later else 0):
        free = [i for i in later[width] if i not in resubmits]
        if free:
            resubmits.add(rng.choice(free))
    latest: Dict[int, str] = {}
    jobs = []
    for index in range(count):
        width = widths[index]
        resubmit = index in resubmits
        if resubmit:
            tag = latest[width]
        else:
            tag = f"serve-compile seed {seed} design {index}"
            latest[width] = tag
        jobs.append(
            {
                "index": index,
                "due_s": due[index],
                "width": width,
                "tag": tag,
                "resubmit": resubmit,
                "a": rng.randrange(1 << width),
                "b": rng.randrange(1 << width),
                "seed": rng.randrange(1, SEED_BOUND),
            }
        )
    return jobs


def job_list(workload: str, seed: int, count: int) -> List[Dict[str, Any]]:
    if workload == "cold-embed":
        return cold_embed_jobs(seed, count)
    if workload == "warm-anneal":
        return warm_anneal_jobs(seed, count)
    if workload == "serve-compile":
        return serve_compile_jobs(seed, count)
    raise ValueError(f"unknown workload {workload!r}")


def serve_payload(job: Mapping[str, Any]) -> Dict[str, Any]:
    """The ``POST /jobs`` body of one serve-compile job."""
    width = job["width"]
    return {
        "source": mult_source(width, job["tag"]),
        "pins": [
            f"A[{width - 1}:0] := {job['a']}",
            f"B[{width - 1}:0] := {job['b']}",
        ],
        "solver": "sa",
        "num_reads": SERVE_NUM_READS,
        "num_sweeps": SERVE_NUM_SWEEPS,
        "seed": job["seed"],
        "return_samples": True,
    }


# ----------------------------------------------------------------------
# Independent reference checks
# ----------------------------------------------------------------------
def word(values: Mapping[str, bool], base: str) -> int:
    """The integer a solution assigns to ``base``: its bits ``base[i]``
    (least significant first), or the scalar ``base`` itself."""
    if base in values:
        return int(values[base])
    prefix = f"{base}["
    bits = {
        int(name[len(prefix):-1]): bool(value)
        for name, value in values.items()
        if name.startswith(prefix) and name.endswith("]")
    }
    if not bits:
        raise KeyError(f"no variable {base!r} in solution")
    return sum(1 << index for index, value in bits.items() if value)


def check_answer(job: Mapping[str, Any], values: Mapping[str, bool]) -> bool:
    """Check one library job's answer by integer arithmetic (factoring)
    or against every border (map colouring)."""
    try:
        if job["kind"] == "factor":
            return check_factoring(
                job["product"], word(values, "A"), word(values, "B"), job["width"]
            ) and word(values, "C") == job["product"]
        colours = {region: word(values, region) for region in job["regions"]}
    except KeyError:
        return False
    return check_colouring(colours, job["regions"], job["adjacent"])


def check_factoring(product: int, a: int, b: int, width: int) -> bool:
    """True when ``a * b == product`` with both factors in ``width`` bits."""
    limit = 1 << width
    return 0 <= a < limit and 0 <= b < limit and a * b == product


def check_colouring(
    colours: Mapping[str, int],
    regions: Sequence[str],
    adjacent: Iterable[Tuple[str, str]],
    num_colors: int = COLD_NUM_COLORS,
) -> bool:
    """True when every region has a colour in range and no border joins
    two regions of the same colour."""
    if any(not 0 <= colours.get(r, -1) < num_colors for r in regions):
        return False
    return all(colours[a] != colours[b] for a, b in adjacent)


# ----------------------------------------------------------------------
# Summary maths
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated between
    closest ranks (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late each send was against its due time (never negative)."""
    if len(due) != len(sent):
        raise ValueError("due and sent times differ in length")
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def open_loop_job_times(
    due: Sequence[float], done: Sequence[float]
) -> List[float]:
    """Open-loop job times, measured from when each job was due."""
    if len(due) != len(done):
        raise ValueError("due and done times differ in length")
    return [d1 - d0 for d0, d1 in zip(due, done)]


#: CPU seconds one reference slice (``worker.reference_slice``) takes on
#: an unloaded host: the 2-vCPU Xeon VM the benchmark was written on, at
#: its fastest.
REF_SLICE_NOMINAL_S = 0.0075


def host_scaled(cpu_s: float, ref_s: float) -> float:
    """CPU seconds measured while a reference slice took ``ref_s``,
    scaled to what they would be on an unloaded host."""
    if ref_s <= 0:
        raise ValueError(f"reference slice time {ref_s} is not positive")
    return cpu_s * REF_SLICE_NOMINAL_S / ref_s


def digest(value: Any) -> str:
    """A short stable digest of a JSON-serialisable value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
