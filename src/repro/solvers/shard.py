"""Sharded decomposition across a resilient fleet of annealer machines.

The C16 ceiling: one 2000Q embeds at most a few hundred logical
variables (the paper's Section 6.1 circuits use ~3.7 physical qubits
per logical variable), so any netlist past that simply does not fit.
Bian et al. (2018) show the way out -- partition the logical problem
into hardware-sized subproblems and iterate -- and a serving fleet has
many chips to throw at the pieces.  This module combines both ideas:

1. **Partition** the logical Ising model into connected, chip-sized
   regions (a deterministic BFS sweep over the interaction graph).
2. **Embed** each region once *per machine class*.  Clamping never
   changes a region's interaction structure
   (:func:`~repro.solvers.qbsolv.clamped_subproblem`), so one embedding
   per (region, topology fingerprint) serves every round, and machines
   of the same class -- heterogeneous fleets mix Chimera, Pegasus, and
   Zephyr chips -- share embeddings.
3. **Dispatch** each round's clamped subproblems across the fleet's
   *healthy* machines in a process pool.  Every stochastic input -- the
   per-shard machine-noise/anneal seeds, drawn from the parent RNG
   serially before dispatch -- is baked into the job tuple, so pooled
   results are bit-identical to a serial run.  Seeds belong to
   *shards*, not machines: when a machine crashes or flakes mid-round
   (:class:`~repro.solvers.fleet.MachineFaultPlan`), the orphaned shard
   is re-dispatched -- same seed, same job -- to the next healthy
   machine, so within a machine class the answer cannot change.
4. **Stitch** accepted shard results onto the incumbent in fixed region
   order (full-model energy re-check per shard) and iterate until no
   round improves, then **polish** the incumbent with the steepest-
   descent kernel.

Resilience (:mod:`repro.solvers.fleet`): every machine carries rolling
health statistics and a circuit breaker; crashes quarantine machines
permanently, stragglers and corrupted (chain-breaking) machines are
quarantined by policy, and a quarantined-then-recovered machine rejoins
via a single half-open probe shard.  If *no* healthy machine can take a
shard -- or a region embeds on no machine class -- the shard runs on
the local tabu fallback with its pre-drawn seed (``shard.fallback``
event): the fleet degrades, it does not fail.

Checkpoint/resume: given a checkpoint directory (a
:class:`~repro.core.cache.CheckpointCache` on disk), the solver
persists its full state -- completed reads, the in-progress read's
incumbent, the parent RNG state, and the fleet's health/breaker state
-- after every stitch round, through the cache's crash-safe
write-temp/fsync/rename disk tier.  ``resume=True`` picks up from the
last completed round bit-identically to the run that was killed.

Observability: the solve runs inside a ``shard.solve`` span with one
``shard.round`` event per round; each shard's wall time lands on
``machine.<i>.sample`` (``i`` = fleet machine index) plus ``shard.*``
and ``fleet.*`` counters on the ambient metrics registry.  A
:class:`~repro.core.deadline.Deadline` propagates into every worker as
a picklable :class:`~repro.core.deadline.Budget` re-armed on the
worker's own clock.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Hashable, List, Optional, Set, Tuple, Union

import numpy as np

from repro.core import trace as _trace
from repro.core.cache import CheckpointCache, options_fingerprint, stable_hash
from repro.core.deadline import Deadline
from repro.core.faults import (
    FaultSpec,
    MachineCrashError,
    TransientSolverError,
    parse_fault_spec,
    spec_fingerprint,
)
from repro.core.trace import observe_sample as _observe_sample
from repro.hardware.embedding import (
    Embedding,
    EmbeddingError,
    embed_ising,
    find_embedding,
    source_graph_of,
    unembed_sampleset,
)
from repro.hardware.scaling import scale_to_hardware
from repro.ising.model import IsingModel
from repro.solvers.fleet import (
    HALF_OPEN,
    Fleet,
    FleetMachine,
    HealthPolicy,
    modeled_latency_us,
    parse_fleet_spec,
)
from repro.solvers.greedy import SteepestDescentSolver
from repro.solvers.machine import DWaveSimulator, MachineProperties
from repro.solvers.qbsolv import clamped_subproblem
from repro.solvers.sampleset import SampleSet
from repro.solvers.tabu import TabuSampler

Variable = Hashable

#: Worker-process machine cache: identical properties -> identical
#: working graph, built once per worker instead of once per job.  The
#: cached machine's RNG is re-seeded per job, so reuse cannot leak
#: state between jobs and results stay independent of scheduling.
_MACHINES: Dict[str, DWaveSimulator] = {}


def _fleet_machine(properties: MachineProperties) -> DWaveSimulator:
    key = options_fingerprint(properties)
    machine = _MACHINES.get(key)
    if machine is None:
        machine = DWaveSimulator(properties=properties, seed=0)
        _MACHINES[key] = machine
    return machine


def _solve_shard(job) -> Tuple[Dict, float, float, int, bool, float]:
    """Solve one clamped shard on one simulated machine (pool-safe).

    Module-level so it pickles.  The job tuple carries every stochastic
    input (the shard seed re-arms the machine RNG) plus a picklable
    remaining-seconds budget, so the result is a pure function of the
    job -- independent of which worker runs it, in what order, or on
    which fleet machine the dispatcher placed it.

    Returns ``(assignment, energy, elapsed_s, reads, interrupted,
    chain_break_fraction)``.
    """
    properties, embedding, sub_model, reads, anneal_us, seed, budget = job
    deadline = budget.start() if budget is not None else None
    start = time.perf_counter()
    chain_breaks = 0.0
    if embedding is None:
        # Fallback shard (unembeddable region or no healthy machine):
        # tabu on the clamped subproblem keeps the shard solvable.
        logical = TabuSampler(seed=seed).sample(
            sub_model, num_reads=1, deadline=deadline
        )
    else:
        machine = _fleet_machine(properties)
        machine._rng = np.random.default_rng(seed)
        physical = embed_ising(
            sub_model, embedding, machine.working_graph
        )
        scaled, _ = scale_to_hardware(physical)
        raw = machine.sample_ising(
            scaled,
            num_reads=reads,
            annealing_time_us=anneal_us,
            deadline=deadline,
        )
        logical = unembed_sampleset(raw, embedding, sub_model)
        chain_breaks = float(logical.info.get("chain_break_fraction", 0.0))
        logical = SteepestDescentSolver(seed=seed).polish(logical, sub_model)
    elapsed = time.perf_counter() - start
    best = logical.first
    interrupted = bool(logical.info.get("deadline_interrupted", False))
    return (
        dict(best.assignment), float(best.energy), elapsed, reads,
        interrupted, chain_breaks,
    )


class ShardSolver:
    """Decompose a too-large model across a resilient machine fleet.

    Args:
        properties: template chip properties.  With no explicit
            ``fleet`` this is the (homogeneous) fleet's machine; with a
            ``--fleet``-style spec string it supplies every
            non-topology property (noise, timing, dropout).
        machines: homogeneous fleet size (ignored when ``fleet`` is
            given).  Fleet size is an execution/attribution and
            *health* concern: shard results are bit-identical for any
            worker count, and identical across fleets of the same
            machine classes.
        shard_size: maximum logical variables per region; defaults to a
            conservative quarter of the *smallest* fleet machine's
            working qubits (chains cost ~4x physical per logical on
            Chimera-class graphs, Section 6.1), so every region fits
            every machine.
        num_reads_per_shard: anneal reads per shard job.
        annealing_time_us: per-anneal time inside each shard job.
        max_rounds: hard cap on stitch rounds per solve.
        patience: stop after this many rounds without improvement.
        seed: drives the incumbent start and every shard seed.
        embedding_seed: seed for the per-region minor embedder.
        max_workers: default pool width (None -> fleet size); 1 forces
            serial execution, which is bit-identical.
        fleet: a fleet spec string like ``"C16,P8,Z6"``
            (:func:`~repro.solvers.fleet.parse_fleet_spec`, with
            ``properties`` as the template); ``None`` builds the
            homogeneous fleet of ``machines`` copies of ``properties``.
        faults: machine-level chaos -- a
            :class:`~repro.core.faults.FaultSpec` (or spec string) whose
            ``machine_crash``/``machine_straggler``/``machine_flaky``
            clauses drive the deterministic fault plan.
        health_policy: quarantine thresholds
            (:class:`~repro.solvers.fleet.HealthPolicy`).
        checkpoint: directory of the
            :class:`~repro.core.cache.CheckpointCache` that per-round
            state persists through; ``None`` disables checkpointing.
        resume: look for a checkpoint of this exact run (same model,
            config, seeds, fleet, faults) and continue from it.
    """

    def __init__(
        self,
        properties: Optional[MachineProperties] = None,
        machines: int = 4,
        shard_size: Optional[int] = None,
        num_reads_per_shard: int = 25,
        annealing_time_us: float = 20.0,
        max_rounds: int = 32,
        patience: int = 3,
        seed: Optional[int] = None,
        embedding_seed: int = 0,
        max_workers: Optional[int] = None,
        fleet: Optional[str] = None,
        faults: Union[FaultSpec, str, None] = None,
        health_policy: Optional[HealthPolicy] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
    ):
        if fleet is None and machines < 1:
            raise ValueError("machines must be >= 1")
        if isinstance(faults, str):
            faults = parse_fault_spec(faults)
        self.faults = faults
        template = properties or MachineProperties()
        members = (
            parse_fleet_spec(fleet, template) if fleet is not None else [template] * machines
        )
        self.fleet = Fleet(members, policy=health_policy, faults=faults)
        self.machines = len(self.fleet)
        #: Primary machine class: attribution default and fallback-job
        #: properties.  Homogeneous fleets keep the old single-template
        #: behavior exactly.
        self.properties = self.fleet.machines[0].properties
        class_templates: Dict[str, MachineProperties] = {}
        for member in self.fleet:
            class_templates.setdefault(member.class_key, member.properties)
        self.chip_qubits = min(
            _fleet_machine(props).num_qubits
            for props in class_templates.values()
        )
        self.shard_size = (
            shard_size if shard_size is not None
            else max(4, self.chip_qubits // 4)
        )
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.num_reads_per_shard = num_reads_per_shard
        self.annealing_time_us = annealing_time_us
        self.max_rounds = max_rounds
        self.patience = patience
        self.embedding_seed = embedding_seed
        self.max_workers = max_workers
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        # Embeddings keyed on (machine-class fingerprint, region
        # structure): one embedding per class serves every round, every
        # read, and every machine of that class.
        self._embedding_cache: Dict[Tuple, Optional[Embedding]] = {}
        self._checkpoint = (
            CheckpointCache(cache_dir=checkpoint) if checkpoint is not None else None
        )
        self.resume = bool(resume)
        self._rounds_executed = 0
        self._shards_dispatched = 0
        self._shards_completed = 0

    # ------------------------------------------------------------------
    def sample(
        self,
        model: IsingModel,
        num_reads: int = 1,
        max_workers: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> SampleSet:
        """Minimize ``model`` by sharded dispatch across the fleet.

        Args:
            model: the logical Ising model (any size).
            num_reads: independent decomposed solves, each contributing
                one stitched-and-polished row.
            max_workers: pool width for this call (None -> constructor
                default -> fleet size); 1 is serial.  Seeds are drawn
                pre-dispatch, so samples are bit-identical either way.
            deadline: optional wall-clock budget, propagated into every
                shard job as a re-armed :class:`Budget`.
        """
        order = list(model.variables)
        if not order:
            return SampleSet.empty([])
        if num_reads < 1:
            raise ValueError("num_reads must be positive")
        workers = max_workers if max_workers is not None else self.max_workers
        if workers is None:
            workers = self.machines
        # Two staggered partitions: rounds alternate between them, so a
        # domain wall pinned at one partition's shard boundary lands in
        # the *interior* of the other's and can be annealed out.
        partitions = [
            self._partition(model, order, offset=0),
            self._partition(model, order, offset=max(1, self.shard_size // 2)),
        ]
        run_key: Optional[str] = None
        rows: List[List[int]] = []
        rounds_used: List[int] = []
        read_state: Optional[Dict] = None
        resumed = False
        if self._checkpoint is not None:
            run_key = CheckpointCache.key_for(
                self._run_fingerprint(model, num_reads)
            )
            if self.resume:
                saved = self._checkpoint.get(run_key)
                if saved is not None:
                    rows = [list(row) for row in saved["rows"]]
                    rounds_used = list(saved["rounds_used"])
                    read_state = saved["read_state"]
                    self._rng.bit_generator.state = saved["rng_state"]
                    self.fleet.load_state(saved["fleet_state"])
                    resumed = True
        self._rounds_executed = 0
        self._shards_dispatched = 0
        self._shards_completed = 0
        start = time.perf_counter()
        with _trace.span(
            "shard.solve",
            variables=len(order),
            shards=len(partitions[0]),
            machines=self.machines,
            shard_size=self.shard_size,
            chip_qubits=self.chip_qubits,
            fleet=",".join(self.fleet.labels()),
        ):
            if resumed:
                _trace.event(
                    "shard.resume",
                    completed_reads=len(rows),
                    mid_read=read_state is not None,
                    fleet_round=self.fleet.round,
                )
                _trace.metrics().counter("shard.resumes").inc()
            # Warm the primary class's embeddings up-front: the count of
            # regions it cannot embed is part of the run's info.
            embedded = [
                [
                    (region, self._embedding_for(model, region))
                    for region in regions
                ]
                for regions in partitions
            ]
            interrupted = False
            for _ in range(len(rows), num_reads):
                def on_round(snapshot: Dict) -> None:
                    self._save_checkpoint(
                        run_key, rows, rounds_used, snapshot
                    )
                assignment, rounds, read_interrupted = self._solve_one(
                    model, order, partitions, workers, deadline,
                    read_state=read_state,
                    on_round=on_round if run_key is not None else None,
                )
                read_state = None
                rows.append([assignment[v] for v in order])
                rounds_used.append(rounds)
                self._save_checkpoint(run_key, rows, rounds_used, None)
                interrupted = interrupted or read_interrupted
                if deadline is not None and deadline.expired():
                    interrupted = True
                    break
            if (
                run_key is not None
                and not interrupted
                and len(rows) == num_reads
            ):
                self._save_checkpoint(
                    run_key, rows, rounds_used, None, complete=True
                )
        elapsed = time.perf_counter() - start
        records = np.array(rows, dtype=np.int8)
        dispatched = self._shards_dispatched
        info = {
            "solver": "shard",
            "machines": self.machines,
            "shards": len(partitions[0]),
            "shard_size": self.shard_size,
            "chip_qubits": self.chip_qubits,
            "topology": self.properties.topology,
            "num_reads": len(rows),
            "rounds": rounds_used,
            "rounds_executed": self._rounds_executed,
            "max_workers": workers,
            "unembeddable_shards": sum(
                1 for _, e in embedded[0] if e is None
            ),
            "fleet": self.fleet.snapshot(),
            "redispatches": self.fleet.redispatches,
            "shard_fallbacks": self.fleet.fallbacks,
            "shards_dispatched": dispatched,
            "shards_completed": self._shards_completed,
            "shard_completion": (
                self._shards_completed / dispatched if dispatched else 1.0
            ),
        }
        if resumed:
            info["resumed"] = True
        if interrupted:
            info["deadline_interrupted"] = True
        result = SampleSet.from_array(order, records, model, info=info)
        _observe_sample(
            "shard", result, elapsed,
            machines=self.machines, shards=len(partitions[0]),
            variables=len(order), num_reads=len(rows),
        )
        return result

    # ------------------------------------------------------------------
    def _solve_one(
        self,
        model: IsingModel,
        order: List[Variable],
        partitions: List[List[List[Variable]]],
        workers: int,
        deadline: Optional[Deadline],
        read_state: Optional[Dict] = None,
        on_round=None,
    ) -> Tuple[Dict[Variable, int], int, bool]:
        """One decomposed solve: rounds of dispatch + stitch + polish.

        ``read_state`` (a checkpointed mid-read snapshot) replays the
        incumbent/energy/round/stall state of a killed run;
        ``on_round`` is called with the new snapshot after every
        completed round so the checkpoint always reflects the last
        *finished* iteration.
        """
        rng = self._rng
        if read_state is not None:
            incumbent = dict(read_state["incumbent"])
            energy = float(read_state["energy"])
            rounds = int(read_state["rounds"])
            stall = int(read_state["stall"])
        else:
            incumbent = {v: int(rng.choice([-1, 1])) for v in order}
            energy = model.energy(incumbent)
            rounds = 0
            stall = 0
        metrics = _trace.metrics()
        interrupted = False
        while stall < self.patience and rounds < self.max_rounds:
            if deadline is not None and deadline.expired():
                interrupted = True
                break
            rounds += 1
            self._rounds_executed += 1
            metrics.counter("shard.rounds").inc()
            regions = partitions[(rounds - 1) % len(partitions)]
            # Every shard seed is drawn here, serially, before any job
            # runs -- neither the pool nor the dispatcher's machine
            # placement can change the answer.
            shard_jobs = []
            for region in regions:
                sub = clamped_subproblem(model, incumbent, region)
                seed = int(rng.integers(0, 2**63))
                budget = deadline.budget() if deadline is not None else None
                shard_jobs.append((region, sub, seed, budget))
            results = self._dispatch_round(model, shard_jobs, workers)

            improved = False
            for (assignment, _sub_energy, _elapsed, _reads,
                 shard_interrupted, _chain_breaks) in results:
                interrupted = interrupted or shard_interrupted
                # Stitch: accept a shard against the *full* model energy
                # of the current incumbent (earlier shards this round
                # already moved it).  Plateau moves are accepted too --
                # they let domain walls drift across shard boundaries
                # until a later round annihilates them -- but only a
                # strict improvement resets the stall counter.
                candidate = dict(incumbent)
                candidate.update(assignment)
                candidate_energy = model.energy(candidate)
                if candidate_energy < energy - 1e-12:
                    incumbent, energy = candidate, candidate_energy
                    improved = True
                    metrics.counter("shard.improvements").inc()
                elif candidate_energy <= energy + 1e-12:
                    incumbent, energy = candidate, candidate_energy
            _trace.event(
                "shard.round", round=rounds, energy=energy, improved=improved
            )
            stall = 0 if improved else stall + 1
            if on_round is not None:
                on_round({
                    "incumbent": dict(incumbent),
                    "energy": float(energy),
                    "rounds": rounds,
                    "stall": stall,
                })

        # Polish the stitched incumbent with the greedy descent kernel;
        # shard boundaries can leave single-flip defects no shard sees.
        polish_seed = int(rng.integers(0, 2**63))
        initial = np.array([[incumbent[v] for v in order]], dtype=float)
        polished = SteepestDescentSolver(seed=polish_seed).sample(
            model, initial_states=initial, deadline=deadline
        )
        best = polished.first
        return dict(best.assignment), rounds, interrupted

    # ------------------------------------------------------------------
    def _dispatch_round(
        self,
        model: IsingModel,
        shard_jobs: List[Tuple[List[Variable], IsingModel, int, object]],
        workers: int,
    ) -> List[Tuple[Dict, float, float, int, bool, float]]:
        """Place one round's shards on healthy machines and run them.

        Placement is deterministic round-robin over the admitted
        machines; the fault plan is consulted parent-side *before* a
        job ships, so an injected crash or flaky failure orphans the
        shard here -- and it is immediately re-dispatched (same
        pre-drawn seed) to the next healthy machine.  A shard no
        machine can take runs on the local tabu fallback.  Results come
        back aligned with ``shard_jobs`` regardless of placement.
        """
        fleet = self.fleet
        metrics = _trace.metrics()
        round_index = fleet.begin_round()
        count = len(shard_jobs)
        assigned: List[Optional[FleetMachine]] = [None] * count
        embeddings: List[Optional[Embedding]] = [None] * count
        factors = [1.0] * count
        probes: Set[int] = set()
        for index, (region, _sub, _seed, _budget) in enumerate(shard_jobs):
            tried: Set[int] = set()
            while True:
                machine, embedding = self._pick_machine(
                    index, region, model, tried, probes
                )
                if machine is None:
                    # Every breaker is open (or every admitted machine
                    # already failed this shard): local tabu fallback.
                    fleet.fallbacks += 1
                    _trace.event(
                        "shard.fallback",
                        shard=index,
                        reason="no_healthy_machine",
                        round=round_index,
                    )
                    metrics.counter("shard.fallbacks").inc()
                    break
                machine.health.dispatches += 1
                try:
                    factor = fleet.plan.check_dispatch(
                        machine.index, machine.health.dispatches
                    )
                except MachineCrashError:
                    fleet.record_failure(machine, kind="crash", reason="crash")
                    tried.add(machine.index)
                    fleet.redispatches += 1
                    _trace.event(
                        "fleet.redispatch",
                        shard=index,
                        machine=machine.label,
                        reason="crash",
                        round=round_index,
                    )
                    metrics.counter("fleet.redispatches").inc()
                    continue
                except TransientSolverError as exc:
                    fleet.record_failure(
                        machine, kind="transient", reason="failure_rate"
                    )
                    tried.add(machine.index)
                    fleet.redispatches += 1
                    _trace.event(
                        "fleet.redispatch",
                        shard=index,
                        machine=machine.label,
                        reason=exc.kind,
                        round=round_index,
                    )
                    metrics.counter("fleet.redispatches").inc()
                    continue
                assigned[index] = machine
                embeddings[index] = embedding
                factors[index] = factor
                if embedding is None:
                    # The machine is healthy but no fleet class embeds
                    # this region: machine-attributed tabu fallback.
                    fleet.fallbacks += 1
                    _trace.event(
                        "shard.fallback",
                        shard=index,
                        reason="unembeddable",
                        machine=machine.label,
                        round=round_index,
                    )
                    metrics.counter("shard.fallbacks").inc()
                break

        jobs = []
        for index, (_region, sub, seed, budget) in enumerate(shard_jobs):
            machine = assigned[index]
            props = (
                machine.properties if machine is not None else self.properties
            )
            jobs.append((
                props, embeddings[index], sub,
                self.num_reads_per_shard, self.annealing_time_us, seed, budget,
            ))
        self._shards_dispatched += count
        pool_width = min(workers, self.machines, len(jobs))
        if pool_width > 1 and len(jobs) > 1:
            with ProcessPoolExecutor(max_workers=pool_width) as pool:
                results = list(pool.map(_solve_shard, jobs))
        else:
            results = [_solve_shard(job) for job in jobs]
        self._shards_completed += len(results)

        for index, (_a, _e, elapsed, reads, _int, chain_breaks) in enumerate(
            results
        ):
            metrics.counter("shard.jobs").inc()
            machine = assigned[index]
            if machine is None:
                continue
            # Health decisions key on the *modeled* QPU latency (times
            # any injected straggler factor) -- wall time is recorded
            # for observability only, so verdicts replay bit-identically.
            modeled = factors[index] * modeled_latency_us(
                machine.properties, reads, self.annealing_time_us
            )
            fleet.record_success(
                machine, modeled,
                wall_s=elapsed, chain_break_fraction=chain_breaks,
            )
            _trace.record(
                f"machine.{machine.index}.sample",
                duration_s=elapsed,
                shard=index,
                reads=reads,
            )
            metrics.counter(f"machine.{machine.index}.samples").inc()
        fleet.check_quarantines()
        return results

    def _pick_machine(
        self,
        shard_index: int,
        region: List[Variable],
        model: IsingModel,
        tried: Set[int],
        probes: Set[int],
    ) -> Tuple[Optional[FleetMachine], Optional[Embedding]]:
        """Deterministic round-robin choice of a machine for one shard.

        Skips machines that already failed this shard and half-open
        machines that have spent their single probe; prefers a machine
        whose class embeds the region, falling back to (machine, None)
        -- the attributed tabu path -- when none does, and (None, None)
        when no machine is admitted at all.
        """
        candidates = [
            m for m in self.fleet.admitted()
            if m.index not in tried
            and not (m.breaker.state == HALF_OPEN and m.index in probes)
        ]
        if not candidates:
            return None, None
        start = shard_index % len(candidates)
        ordered = candidates[start:] + candidates[:start]
        for machine in ordered:
            embedding = self._embedding_for(
                model, region, machine.properties
            )
            if embedding is not None:
                if machine.breaker.state == HALF_OPEN:
                    probes.add(machine.index)
                return machine, embedding
        machine = ordered[0]
        if machine.breaker.state == HALF_OPEN:
            probes.add(machine.index)
        return machine, None

    # ------------------------------------------------------------------
    def _run_fingerprint(self, model: IsingModel, num_reads: int) -> str:
        """Content key binding a checkpoint to this exact run.

        Covers the model's coefficients, the full solver configuration
        (fleet shape, fault plan, seeds, read counts), and the
        requested reads -- a resume can never pick up state from a
        different problem, a differently-damaged fleet, or a different
        seed.
        """
        linear = repr(sorted(
            (str(v), round(float(bias), 12))
            for v, bias in model.linear.items()
        ))
        quadratic = repr(sorted(
            (str(u), str(v), round(float(coupling), 12))
            for (u, v), coupling in model.quadratic.items()
        ))
        faults = (
            spec_fingerprint(self.faults) if self.faults is not None
            else "none"
        )
        return stable_hash(
            "linear:" + linear,
            "quadratic:" + quadratic,
            f"offset:{float(model.offset)!r}",
            "fleet:" + ";".join(
                options_fingerprint(m.properties) for m in self.fleet
            ),
            "faults:" + faults,
            f"shard_size:{self.shard_size}",
            f"reads_per_shard:{self.num_reads_per_shard}",
            f"anneal_us:{self.annealing_time_us!r}",
            f"max_rounds:{self.max_rounds}",
            f"patience:{self.patience}",
            f"seed:{self._seed!r}",
            f"embedding_seed:{self.embedding_seed}",
            f"num_reads:{num_reads}",
        )

    def _save_checkpoint(
        self,
        run_key: Optional[str],
        rows: List[List[int]],
        rounds_used: List[int],
        read_state: Optional[Dict],
        complete: bool = False,
    ) -> None:
        """Persist run state through the crash-safe cache tier."""
        if self._checkpoint is None or run_key is None:
            return
        self._checkpoint.put(run_key, {
            "complete": complete,
            "rows": [list(row) for row in rows],
            "rounds_used": list(rounds_used),
            "read_state": read_state,
            "rng_state": self._rng.bit_generator.state,
            "fleet_state": self.fleet.state_dict(),
        })

    # ------------------------------------------------------------------
    def _partition(
        self, model: IsingModel, order: List[Variable], offset: int = 0
    ) -> List[List[Variable]]:
        """Deterministic BFS partition into connected chip-sized regions.

        Connected chunks embed with short chains and keep semantically
        related gate variables on the same chip; determinism (no RNG,
        lowest-index seeds, sorted adjacency) keeps the whole solve a
        pure function of (model, seed).  A non-zero ``offset`` caps the
        *first* region at ``offset`` variables, shifting every later
        region boundary -- the staggered partition the round loop
        alternates with so walls never pin at a fixed seam.
        """
        adjacency: Dict[Variable, List[Variable]] = {v: [] for v in order}
        for (u, v), coupling in model.quadratic.items():
            if coupling != 0.0:
                adjacency[u].append(v)
                adjacency[v].append(u)
        position = {v: i for i, v in enumerate(order)}
        for v in adjacency:
            adjacency[v].sort(key=position.__getitem__)
        assigned = set()
        regions: List[List[Variable]] = []
        for start in order:
            if start in assigned:
                continue
            cap = offset if offset and not regions else self.shard_size
            region = []
            queue = [start]
            queued = {start}
            while queue and len(region) < cap:
                v = queue.pop(0)
                if v in assigned:
                    continue
                region.append(v)
                assigned.add(v)
                for u in adjacency[v]:
                    if u not in assigned and u not in queued:
                        queued.add(u)
                        queue.append(u)
            regions.append(region)
        return regions

    def _embedding_for(
        self,
        model: IsingModel,
        region: List[Variable],
        properties: Optional[MachineProperties] = None,
    ) -> Optional[Embedding]:
        """One cached minor embedding per (machine class, region).

        The cache key leads with the machine-class fingerprint (which
        covers the topology fingerprint), so heterogeneous fleets embed
        each region once per distinct chip class and machines of the
        same class share the result.  None marks a region the embedder
        gave up on for that class; its shards run on the tabu fallback.
        """
        properties = properties or self.properties
        region_set = set(region)
        key = (
            options_fingerprint(properties),
            tuple(sorted(map(str, region))),
            tuple(sorted(
                (str(u), str(v))
                for (u, v), coupling in model.quadratic.items()
                if coupling != 0.0 and u in region_set and v in region_set
            )),
        )
        if key not in self._embedding_cache:
            template = _fleet_machine(properties)
            sub = clamped_subproblem(
                model, {v: 1 for v in model.variables}, region
            )
            try:
                self._embedding_cache[key] = find_embedding(
                    source_graph_of(sub),
                    template.working_graph,
                    seed=self.embedding_seed,
                )
            except EmbeddingError:
                _trace.event(
                    "shard.unembeddable",
                    variables=len(region),
                    topology=properties.topology,
                )
                _trace.metrics().counter("shard.unembeddable_regions").inc()
                self._embedding_cache[key] = None
        return self._embedding_cache[key]
