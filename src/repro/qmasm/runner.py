"""The qmasm tool: assemble, embed, anneal, and report (Section 4.4).

Reproduces the tool behaviour the paper describes: qmasm can execute
programs on a D-Wave system (here the :class:`DWaveSimulator`) or
convert/run them classically; it accepts ``--pin`` options to bias
variables; it "can run a program arbitrarily many times and report
statistics on the results"; it reports solutions "in terms of the
program-specified symbolic names rather than as physical qubit numbers"
with ``$``-variables hidden; and it optionally uses roof duality "to
elide qubits whose final value can be determined a priori".

Execution mirrors qmasm's own assemble/embed/anneal phase split as an
explicit pass pipeline (:mod:`repro.core.pipeline`): first-class stages
from ``roof_duality`` through ``find_embedding``, ``sample`` and
``unembed`` to ``report`` fill one :class:`RunResult`, and their wall
times and artifact counters land in :attr:`RunResult.stats`.  Minor
embeddings -- the dominant execution-side cost, and a pure function of
the logical interaction graph -- are memoized in an
:class:`~repro.core.cache.EmbeddingCache`, so repeated runs of the same
compiled program (even with different pins) skip embedding entirely.

Hardware-backed execution is *fault tolerant*: a :class:`RetryPolicy`
retries transient solver failures (each retry under a fresh
spin-reversal gauge) and degrades gracefully through classical solver
tiers when the machine stays unavailable, and the run escalates chain
strength when the chain-break rate is unhealthy --
``RunResult.info["answered_by"]`` records which tier produced the
answer, and every retry/fallback/broken-chain count lands in
:attr:`RunResult.stats`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import trace as _trace
from repro.core.cache import EmbeddingCache
from repro.core.deadline import Deadline
from repro.core.faults import TransientSolverError
from repro.core.pipeline import (
    PassManager,
    PipelineContext,
    PipelineStats,
    Stage,
)
from repro.core.trace import MetricsRegistry, Span
from repro.hardware.embedding import (
    Embedding,
    default_chain_strength,
    embed_ising,
    find_embedding,
    source_graph_of,
    unembed_sampleset,
)
from repro.hardware.scaling import scale_to_hardware
from repro.ising.model import IsingModel, spins_to_bits
from repro.ising.roofduality import fix_variables
from repro.qmasm.assembler import LogicalProgram, assemble
from repro.qmasm.certify import Certificate, certify_sampleset, expand_reads
from repro.qmasm.parser import parse_pin, parse_qmasm
from repro.qmasm.program import Pin, Program, QmasmError
from repro.solvers.exact import ExactSolver
from repro.solvers.machine import DWaveSimulator
from repro.solvers.neal import SimulatedAnnealingSampler
from repro.solvers.qbsolv import QBSolv
from repro.solvers.sampleset import SampleSet, merge_rows
from repro.solvers.tabu import TabuSampler


def json_safe(value: Any) -> Any:
    """Coerce a value into something :mod:`json` can serialize.

    Run artifacts carry numpy scalars, tuples, and arbitrary objects in
    their ``info``/counter dicts; the service layer ships them over
    HTTP, so everything must flatten to JSON primitives.
    """
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    return str(value)


@dataclass
class Solution:
    """One distinct solution, reported over visible symbolic names."""

    values: Dict[str, bool]
    energy: float
    num_occurrences: int
    failed_assertions: List[str] = field(default_factory=list)
    pins_respected: bool = True

    @property
    def valid(self) -> bool:
        return self.pins_respected and not self.failed_assertions

    def value_of(self, base: str) -> int:
        """Assemble the integer value of a multi-bit variable.

        ``value_of("C")`` gathers ``C[0]``, ``C[1]``, ... (or the scalar
        ``C``) into an integer.
        """
        if base in self.values:
            return int(self.values[base])
        total = 0
        found = False
        for name, value in self.values.items():
            if name.startswith(f"{base}["):
                index = int(name[len(base) + 1:-1])
                total |= int(value) << index
                found = True
        if not found:
            raise KeyError(f"no variable {base!r} in solution")
        return total

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe view of this solution (the service's wire format)."""
        return {
            "values": {name: bool(v) for name, v in sorted(self.values.items())},
            "energy": float(self.energy),
            "num_occurrences": int(self.num_occurrences),
            "failed_assertions": list(self.failed_assertions),
            "pins_respected": bool(self.pins_respected),
            "valid": self.valid,
        }


@dataclass
class RunResult:
    """Everything a qmasm run produces.

    The run stages fill it in order, from the pinned logical program and
    its model; a field keeps its default until its stage has run.
    """

    logical: Optional[LogicalProgram] = None
    #: The pinned program's logical Ising model.
    logical_model: Optional[IsingModel] = None
    representative: Dict[str, str] = field(default_factory=dict)
    #: The model the solvers minimize: :attr:`logical_model` less the
    #: spins roof duality fixed.
    solve_model: Optional[IsingModel] = None
    #: Spins the roof-duality preprocessor proved and fixed before
    #: sampling; external re-certification
    #: (:func:`repro.qmasm.certify.certify_sampleset`) needs them to
    #: expand samples back over every variable.
    fixed_spins: Dict[str, int] = field(default_factory=dict)
    #: The machine the embedding targets; set by ``find_embedding``.
    machine: Optional[DWaveSimulator] = None
    embedding: Optional[Embedding] = None
    physical_model: Optional[IsingModel] = None
    #: The physical model scaled into the machine's coefficient range.
    scaled_model: Optional[IsingModel] = None
    sampleset: Optional[SampleSet] = None
    #: The tier whose reads the sample set holds (``"dwave"`` or a
    #: classical solver); None until ``sample`` has run.
    answered_by: Optional[str] = None
    #: The last transient hardware error the retry policy gave up on.
    last_error: Optional[Exception] = None
    #: The per-read certification verdict when ``certify=True`` ran;
    #: None when certification was not requested.
    certificate: Optional[Certificate] = None
    #: The distinct solutions, best energy first; filled by ``report``.
    solutions: List[Solution] = field(default_factory=list)
    info: Dict = field(default_factory=dict)
    #: Per-stage wall times and counters for this execution.
    stats: PipelineStats = field(default_factory=dict)
    #: The run-scoped metrics registry: every retry/fallback/escalation
    #: counter the run recorded, queryable by name
    #: (``result.metrics.value("runner.sample_retries")``).
    metrics: Optional[MetricsRegistry] = None
    #: The run's root trace span when tracing was enabled, else None.
    trace: Optional[Span] = None

    @property
    def valid_solutions(self) -> List[Solution]:
        return [s for s in self.solutions if s.valid]

    @property
    def best(self) -> Solution:
        if not self.solutions:
            raise ValueError("run produced no solutions")
        return self.solutions[0]

    def num_logical_variables(self) -> int:
        return len(self.logical_model)

    def num_physical_qubits(self) -> int:
        if self.embedding is None:
            return 0
        return self.embedding.total_qubits()

    def result_payload(
        self, max_solutions: int = 16, include_samples: bool = False
    ) -> Dict[str, Any]:
        """JSON-safe summary of the run (the service's result body).

        Solutions are capped at ``max_solutions`` (best-energy first, as
        :attr:`solutions` is already sorted); ``include_samples`` adds
        the raw energy-sorted spin reads, which is what bit-identity
        across serial and concurrent execution is asserted over.
        """
        payload: Dict[str, Any] = {
            "num_solutions": len(self.solutions),
            "num_valid_solutions": len(self.valid_solutions),
            "solutions": [s.as_dict() for s in self.solutions[:max_solutions]],
            "logical_variables": self.num_logical_variables(),
            "physical_qubits": self.num_physical_qubits(),
            "representative": dict(self.representative),
            "info": json_safe(self.info),
        }
        if len(self.solutions) > max_solutions:
            payload["solutions_truncated"] = True
        if self.fixed_spins:
            payload["fixed_spins"] = {
                str(k): int(v) for k, v in self.fixed_spins.items()
            }
        if self.certificate is not None:
            payload["certificate"] = {
                "ok": self.certificate.ok,
                "certified_reads": self.certificate.certified_reads,
                "total_reads": self.certificate.total_reads,
                "certified_fraction": self.certificate.certified_fraction,
                "summary": self.certificate.summary(),
            }
        if include_samples:
            payload["samples"] = {
                "variables": [str(v) for v in self.sampleset.variables],
                "records": json_safe(self.sampleset.records),
                "energies": json_safe(self.sampleset.energies),
                "occurrences": json_safe(self.sampleset.occurrences),
            }
        return payload


# ----------------------------------------------------------------------
# The execution pipeline
# ----------------------------------------------------------------------
#: Every solver a run may name (also the CLI's and the service's choices).
SOLVERS = ("dwave", "sa", "sqa", "exact", "tabu", "qbsolv", "shard")

#: Chain-strength escalation: a chain-break fraction strictly above the
#: threshold (so 0.0 escalates on any break, never on a clean
#: unembedding) re-anneals at the factor times the chain strength, at
#: most the escalation count times.
CHAIN_BREAK_THRESHOLD = 0.25
CHAIN_STRENGTH_FACTOR = 2.0
MAX_CHAIN_STRENGTH_ESCALATIONS = 2
#: The ``exact`` fallback tier answers models of at most this size.
EXACT_FALLBACK_LIMIT = 18
#: Escalating minor-embedding attempts before a run gives up.
EMBEDDING_MAX_ATTEMPTS = 3
#: Self-repair: at most this many rounds, each polishing uncertified
#: reads with this many descent sweeps; every round after the first
#: re-samples beforehand, with this multiple of the run's reads.
MAX_REPAIR_ROUNDS = 3
REPAIR_POLISH_SWEEPS = 64
REPAIR_READ_FACTOR = 2.0


@dataclass
class RetryPolicy:
    """What a hardware-backed run does when the machine fails it.

    Each sample gets up to :attr:`max_sample_attempts` calls, every
    retry under a fresh random gauge, so retries double as spin-reversal
    averaging.  If the (simulated) hardware stays unavailable, the
    *logical* problem falls back through :attr:`fallback_solvers`
    (path-integral SQA, then tabu, then exact for models of at most
    :data:`EXACT_FALLBACK_LIMIT` variables);
    ``RunResult.info["answered_by"]`` records which tier answered.
    """

    max_sample_attempts: int = 3
    fallback_solvers: Tuple[str, ...] = ("sqa", "tabu", "exact")

    def __post_init__(self):
        if self.max_sample_attempts < 1:
            raise ValueError("max_sample_attempts must be >= 1")
        unknown = set(self.fallback_solvers) - {"sa", "sqa", "tabu", "exact"}
        if unknown:
            raise ValueError(f"unknown fallback solver(s): {sorted(unknown)}")


@dataclass
class RunOptions:
    """A run's options: the keywords of :meth:`QmasmRunner.run`."""

    #: ``"dwave"`` (embed and anneal on the simulated 2000Q), ``"sa"``
    #: (simulated annealing on the logical problem), ``"sqa"``
    #: (path-integral simulated *quantum* annealing, the Hitachi-style
    #: classical annealer of Section 2), ``"exact"`` (exhaustive),
    #: ``"tabu"``, ``"qbsolv"``, or ``"shard"`` (decompose across the
    #: runner's simulated fleet -- the path for programs too large for
    #: any single working graph).
    solver: str = "dwave"
    #: Anneals / reads to perform (sqa, qbsolv and shard cap them at
    #: 32, 10 and 5).
    num_reads: int = 100
    #: Metropolis sweeps per read for the classical solvers (``tabu``
    #: treats it as its iteration budget); None keeps each solver's
    #: default (the dwave tier derives sweeps from
    #: ``annealing_time_us`` instead).
    num_sweeps: Optional[int] = None
    #: Process-pool size for qbsolv reads and shard rounds; None/1 runs
    #: serially.  Results are bit-identical either way -- seeds are
    #: split deterministically from the parent RNG.
    max_workers: Optional[int] = None
    #: Per-anneal time for the dwave solver, in microseconds.
    annealing_time_us: float = 20.0
    #: Elide a-priori-determined qubits before sampling.
    use_roof_duality: bool = False
    #: ``"optimization"`` refines unembedded dwave samples with a short
    #: cold logical anneal -- the analogue of SAPI's optimization
    #: postprocessing, standing in for the collective chain dynamics a
    #: real annealer has and single-spin-flip simulation lacks;
    #: ``"none"`` returns the raw majority-vote samples.
    postprocess: str = "optimization"
    #: Sample retries and classical fallback tiers for hardware runs.
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: Certify every read end-to-end (energy recomputation + netlist
    #: replay + pins/assertions) and attach a Certificate to the result.
    certify: bool = False
    #: Run the self-repair loop on uncertified reads (requires certify).
    repair: bool = False
    #: The gate-level netlist to replay during certification, when the
    #: program came from the Verilog flow; None limits certification to
    #: energy/pin/assertion checks.  It must be the netlist the QMASM
    #: was translated from (``CompiledProgram.edif_netlist``): with any
    #: other, the net names miss the program's variables, and reads are
    #: flagged or cells go unchecked.
    netlist: object = None

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ValueError(
                f"unknown solver {self.solver!r}; choose one of "
                f"{', '.join(SOLVERS)}"
            )
        if self.num_reads < 1:
            raise ValueError("num_reads must be positive")
        if self.num_sweeps is not None and self.num_sweeps < 1:
            raise ValueError("num_sweeps must be positive")
        if self.solver == "dwave" and self.postprocess not in (
            "none", "optimization"
        ):
            raise ValueError(f"unknown postprocess {self.postprocess!r}")


class RoofDualityStage(Stage):
    """Elide qubits whose final value can be determined a priori."""

    name = "roof_duality"

    def skip(self, artifact: RunResult, context: PipelineContext) -> bool:
        return not context.options.use_roof_duality

    def run(self, artifact: RunResult, context: PipelineContext):
        artifact.fixed_spins = fix_variables(artifact.logical_model)
        for variable, spin in artifact.fixed_spins.items():
            artifact.solve_model = artifact.solve_model.fix_variable(variable, spin)
        return artifact

    def counters(self, artifact: RunResult, context: PipelineContext):
        return {
            "fixed": len(artifact.fixed_spins),
            "variables": len(artifact.solve_model),
        }


def _needs_embedding(artifact: RunResult, context: PipelineContext) -> bool:
    return context.options.solver == "dwave" and len(artifact.solve_model) > 0


class FindEmbeddingStage(Stage):
    """Minor-embed the logical graph onto the machine's working graph.

    Consults the runner's :class:`EmbeddingCache` first: the embedding
    depends only on the interaction graph (not coefficients or pins),
    the target graph, and the embedder parameters, so any prior run of
    the same compiled program is a hit.
    """

    name = "find_embedding"

    def __init__(self, runner: "QmasmRunner"):
        self._runner = runner

    def skip(self, artifact: RunResult, context: PipelineContext) -> bool:
        return not _needs_embedding(artifact, context)

    def run(self, artifact: RunResult, context: PipelineContext):
        machine = artifact.machine = self._runner._get_machine()
        source_graph = source_graph_of(artifact.solve_model)
        seed = self._runner.seed
        cache = self._runner.embedding_cache
        # The key covers the *working* graph fingerprint, so degraded
        # machines never reuse embeddings found for healthier units,
        # plus the topology fingerprint, so families never alias.
        key = EmbeddingCache.key_for(
            source_graph,
            machine.working_graph,
            seed=seed,
            max_attempts=EMBEDDING_MAX_ATTEMPTS,
            topology=machine.topology.fingerprint(),
        )
        embedding = cache.get(key)
        if embedding is not None:
            context.mark_cached()
            artifact.info["embedding_cache"] = "hit"
            context.add_counters(attempts=0, restarts=0, steps=0)
        else:
            estats: Dict[str, float] = {}
            embedding = find_embedding(
                source_graph,
                machine.working_graph,
                seed=seed,
                max_attempts=EMBEDDING_MAX_ATTEMPTS,
                stats=estats,
            )
            cache.put(key, embedding)
            artifact.info["embedding_cache"] = "miss" if cache.enabled else "off"
            context.add_counters(**estats)
        artifact.embedding = embedding
        return artifact

    def counters(self, artifact: RunResult, context: PipelineContext):
        return {
            "variables": len(artifact.embedding),
            "physical_qubits": artifact.embedding.total_qubits(),
            "max_chain": artifact.embedding.max_chain_length(),
        }


class ScaleToHardwareStage(Stage):
    """Build the physical Hamiltonian and scale it into machine range."""

    name = "scale_to_hardware"

    def skip(self, artifact: RunResult, context: PipelineContext) -> bool:
        return not _needs_embedding(artifact, context)

    def run(self, artifact: RunResult, context: PipelineContext):
        artifact.physical_model = embed_ising(
            artifact.solve_model,
            artifact.embedding,
            artifact.machine.working_graph,
            chain_strength=None,
        )
        artifact.scaled_model, factor = scale_to_hardware(artifact.physical_model)
        artifact.info["scale_factor"] = factor
        return artifact

    def counters(self, artifact: RunResult, context: PipelineContext):
        return {
            "physical_variables": len(artifact.physical_model),
            "physical_couplers": artifact.physical_model.num_interactions(),
        }


#: The run-wide resilience counters, all kept on the run-scoped metrics
#: registry (``context.metrics``) under ``runner.<name>`` -- the single
#: source both the stage counters and ``info["resilience"]`` read from.
_RESILIENCE_COUNTERS = (
    "sample_attempts",
    "sample_retries",
    "sample_failures",
    "fallback_depth",
    "chain_strength_escalations",
    "repair_rounds",
    "repair_polished_reads",
    "repair_resamples",
    "repair_reads_repaired",
    "repair_reads_dropped",
    "shard_fallbacks",
    "shard_redispatches",
)


class SampleStage(Stage):
    """Minimize the prepared model on the selected backend.

    Hardware-backed runs execute under the :class:`RetryPolicy`:
    transient solver failures are retried (each retry under a fresh
    random gauge, so retries double as spin-reversal averaging), and if
    the machine stays unavailable the *logical* problem degrades
    gracefully through the policy's classical fallback tiers.  Which
    tier actually answered lands in ``info["answered_by"]``.
    """

    name = "sample"

    def __init__(self, runner: "QmasmRunner"):
        self._runner = runner

    def run(self, artifact: RunResult, context: PipelineContext):
        options: RunOptions = context.options
        solver = options.solver
        num_reads = options.num_reads
        model = artifact.solve_model

        if len(model) == 0:
            # Everything was determined a priori.
            artifact.sampleset = SampleSet.empty([])
            artifact.answered_by = solver
        elif solver == "dwave":
            raw = self._runner._sample_with_retry(
                artifact, artifact.scaled_model, options, context
            )
            if raw is not None:
                artifact.info["timing"] = raw.info.get("timing", {})
                artifact.sampleset = raw
                artifact.answered_by = "dwave"
            else:
                self._fall_back(artifact, context)
        else:
            artifact.sampleset = self._runner._classical_sample(
                solver, model, options, deadline=context.deadline
            )
            artifact.answered_by = solver
        if len(model):
            # sqa, qbsolv and shard cap their reads (32, 10 and 5): the
            # caller sees the effective count, not just the request.
            artifact.info["reads_requested"] = num_reads
            artifact.info["reads_returned"] = artifact.sampleset.total_reads()
        self._lift_shard_stats(artifact, context)
        return artifact

    @staticmethod
    def _lift_shard_stats(
        artifact: RunResult, context: PipelineContext
    ) -> None:
        """Surface shard-fleet resilience stats on the run metrics.

        The shard solver counts tabu fallbacks and re-dispatches on the
        ambient registry under ``shard.*``/``fleet.*``; lifting them
        into the run-scoped ``runner.*`` namespace puts them in
        ``info["resilience"]`` alongside the retry/repair counters, so
        fleet dashboards see degraded shards per *run*.
        """
        if artifact.sampleset is None:
            return
        info = artifact.sampleset.info
        fallbacks = int(info.get("shard_fallbacks", 0))
        if fallbacks:
            context.metrics.counter("runner.shard_fallbacks").inc(fallbacks)
        redispatches = int(info.get("redispatches", 0))
        if redispatches:
            context.metrics.counter("runner.shard_redispatches").inc(
                redispatches
            )

    def _fall_back(self, artifact: RunResult, context: PipelineContext) -> None:
        """Degrade through the classical tiers after hardware gave up."""
        options: RunOptions = context.options
        policy = options.retry_policy
        model = artifact.solve_model
        last_error = artifact.last_error
        for depth, tier in enumerate(policy.fallback_solvers, start=1):
            if tier == "exact" and len(model) > EXACT_FALLBACK_LIMIT:
                continue
            try:
                artifact.sampleset = self._runner._classical_sample(
                    tier, model, options, deadline=context.deadline
                )
            except Exception as exc:  # a broken tier just deepens the fall
                last_error = exc
                continue
            artifact.answered_by = tier
            context.metrics.gauge("runner.fallback_depth").set(depth)
            context.metrics.counter("runner.fallbacks").inc()
            _trace.event("runner.fallback", tier=tier, depth=depth)
            artifact.info["fallback_solver"] = tier
            return
        raise TransientSolverError(
            "hardware sampling failed after "
            f"{policy.max_sample_attempts} attempt(s) and no fallback "
            f"tier could answer (last error: {last_error})"
        )

    def counters(self, artifact: RunResult, context: PipelineContext):
        counters = {"samples": len(artifact.sampleset)}
        # Surface the annealing-core performance counters (which sweep
        # kernel ran, and how fast) in the --time-passes report.
        info = artifact.sampleset.info if artifact.sampleset is not None else {}
        if info.get("kernel"):
            counters["kernel"] = info["kernel"]
        if "sweeps_per_s" in info:
            counters["sweeps_per_s"] = float(info["sweeps_per_s"])
        if info.get("max_workers"):
            counters["max_workers"] = info["max_workers"]
        if context.options.solver == "dwave":
            metrics = context.metrics
            counters.update(
                sample_attempts=int(metrics.value("runner.sample_attempts")),
                sample_retries=int(metrics.value("runner.sample_retries")),
                sample_failures=int(metrics.value("runner.sample_failures")),
                fallback_depth=int(metrics.value("runner.fallback_depth")),
            )
        return counters


class UnembedStage(Stage):
    """Map physical samples back to logical variables (majority vote).

    Also the chain-health guard: when the majority-vote unembedding
    reports a chain-break fraction above :data:`CHAIN_BREAK_THRESHOLD`,
    the physical Hamiltonian is rebuilt with an escalated chain strength
    and re-sampled (itself under the retry policy), up to
    :data:`MAX_CHAIN_STRENGTH_ESCALATIONS` times -- the standard remedy
    when chains come apart on real hardware.
    """

    name = "unembed"
    #: Unembedding converts anneal work already paid for into logical
    #: results, so it runs even after the deadline expired.
    deadline_policy = "run"

    def __init__(self, runner: "QmasmRunner"):
        self._runner = runner

    def skip(self, artifact: RunResult, context: PipelineContext) -> bool:
        if not _needs_embedding(artifact, context):
            return True
        # A classical fallback tier answered over the *logical* model;
        # there is nothing embedded to undo.
        return artifact.answered_by not in (None, "dwave")

    def run(self, artifact: RunResult, context: PipelineContext):
        options: RunOptions = context.options
        unembedded = unembed_sampleset(
            artifact.sampleset, artifact.embedding, artifact.solve_model
        )
        break_fraction = unembedded.info.get("chain_break_fraction", 0.0)

        chain_strength = default_chain_strength(artifact.solve_model)
        escalations = 0
        while (
            break_fraction > CHAIN_BREAK_THRESHOLD
            and escalations < MAX_CHAIN_STRENGTH_ESCALATIONS
            # Escalation means re-sampling; an expired deadline keeps
            # whatever the majority vote already recovered.
            and not (
                context.deadline is not None and context.deadline.expired()
            )
        ):
            escalations += 1
            context.metrics.counter("runner.chain_strength_escalations").inc()
            _trace.event(
                "runner.chain_strength_escalation",
                escalation=escalations,
                break_fraction=break_fraction,
            )
            chain_strength *= CHAIN_STRENGTH_FACTOR
            annealed = self._runner._anneal_embedded(
                artifact, chain_strength, options, context
            )
            if annealed is None:
                break  # machine went away mid-escalation: keep what we have
            unembedded, artifact.physical_model, artifact.scaled_model, factor = (
                annealed
            )
            artifact.info["scale_factor"] = factor
            artifact.info["chain_strength"] = chain_strength
            break_fraction = unembedded.info.get("chain_break_fraction", 0.0)

        context.metrics.histogram("runner.chain_break_fraction").observe(
            break_fraction
        )
        artifact.sampleset = unembedded
        artifact.info["chain_break_fraction"] = break_fraction
        return artifact

    def counters(self, artifact: RunResult, context: PipelineContext):
        return {
            "samples": len(artifact.sampleset),
            "chain_break_fraction": artifact.info.get(
                "chain_break_fraction", 0.0
            ),
            "chain_strength_escalations": int(
                context.metrics.value("runner.chain_strength_escalations")
            ),
        }


class PostprocessStage(Stage):
    """SAPI-style optimization postprocessing of unembedded samples."""

    name = "postprocess"
    #: Optional refinement: an expired deadline skips it outright.
    deadline_policy = "skip"

    def __init__(self, runner: "QmasmRunner"):
        self._runner = runner

    def skip(self, artifact: RunResult, context: PipelineContext) -> bool:
        options: RunOptions = context.options
        return (
            options.solver != "dwave"
            # Fallback tiers already sample the logical model directly;
            # there are no unembedding artifacts to repair.
            or artifact.answered_by not in (None, "dwave")
            or options.postprocess != "optimization"
            or len(artifact.solve_model) == 0
            or not len(artifact.sampleset)
        )

    def run(self, artifact: RunResult, context: PipelineContext):
        artifact.sampleset = self._runner._refine(
            artifact.solve_model, artifact.sampleset
        )
        artifact.info["postprocess"] = "optimization"
        return artifact

    def counters(self, artifact: RunResult, context: PipelineContext):
        return {"samples": len(artifact.sampleset)}


class CorruptReadsStage(Stage):
    """Fault injection on *logical* reads: the certifier's adversary.

    The PR-2 fault harness corrupts physical reads before unembedding;
    majority-vote unembedding absorbs much of that.  This stage applies
    the ``read_corruption`` fault *after* unembedding and postprocessing
    -- flipping one meaningful variable per hit row while leaving the
    row's reported energy stale -- producing exactly the failure the
    energy-recomputation check exists to catch: reads that *look*
    low-energy but are wrong.

    Corruption columns are restricted per row to variables whose *local
    field* is nonzero in that row, so every injected flip provably
    changes the row's true energy -- flipping a zero-field variable
    would hop between exactly degenerate states (e.g. two valid truth-
    table rows of the same gate at the same energy), an in-principle
    undetectable "corruption" no certifier could or should flag.
    """

    name = "corrupt_reads"
    #: Fault injection costs nothing; run it even past the deadline so
    #: deadline-shortened runs exercise the same adversary.
    deadline_policy = "run"

    def skip(self, artifact: RunResult, context: PipelineContext) -> bool:
        machine = artifact.machine
        faults = machine.faults if machine is not None else None
        return (
            faults is None
            or not faults.spec.read_corruption_rate
            or artifact.sampleset is None
            or not len(artifact.sampleset)
            or artifact.answered_by not in (None, "dwave")
        )

    def run(self, artifact: RunResult, context: PipelineContext):
        from repro.solvers import kernels

        faults = artifact.machine.faults
        sampleset = artifact.sampleset
        model = artifact.solve_model
        meaningful = np.array(
            [
                i
                for i, v in enumerate(sampleset.variables)
                if model.linear.get(v, 0.0) != 0.0 or model.degree(v) > 0
            ],
            dtype=int,
        )
        # Flipping spin i of row r changes the true energy by
        # -2 s_ri f_ri, so columns with a nonzero local field are
        # exactly the observable ones.
        _, h_vec, indptr, indices, data = model.to_csr()
        local = kernels.init_local_fields(
            h_vec, indptr, indices, data, sampleset.records.astype(float)
        )
        observable = np.abs(local) > 1e-12
        records, rows = faults.corrupt_logical(
            sampleset.records, columns=meaningful, observable=observable
        )
        if len(rows):
            # Energies are deliberately left stale: a corrupted read
            # still *reports* its pre-corruption energy, which only the
            # certifier's recomputation can expose.  The stable sort
            # keeps row order (energies unchanged), so ``rows`` keeps
            # naming the corrupted rows.
            artifact.sampleset = SampleSet(
                sampleset.variables,
                records,
                sampleset.energies,
                sampleset.occurrences,
                dict(sampleset.info),
            )
            artifact.info["read_corruption_rows"] = [int(r) for r in rows]
        return artifact

    def counters(self, artifact: RunResult, context: PipelineContext):
        return {
            "corrupted": len(artifact.info.get("read_corruption_rows", ()))
        }


def _certify(artifact: RunResult, options: RunOptions) -> Certificate:
    """Certify every read of the artifact's sample set.

    The verdict replaces ``artifact.certificate``, so later repair
    rounds see this round's certificate, not the pre-repair one.
    """
    artifact.certificate = certify_sampleset(
        artifact.sampleset,
        artifact.logical,
        artifact.representative,
        artifact.solve_model,
        fixed=artifact.fixed_spins,
        netlist=options.netlist,
    )
    return artifact.certificate


class CertifyStage(Stage):
    """Recompute energies and replay the netlist for every read."""

    name = "certify"
    #: Certification is the cheap classical check that makes partial
    #: results trustworthy -- always run it, deadline or not.
    deadline_policy = "run"

    def skip(self, artifact: RunResult, context: PipelineContext) -> bool:
        return not context.options.certify or artifact.sampleset is None

    def run(self, artifact: RunResult, context: PipelineContext):
        certificate = _certify(artifact, context.options)
        metrics = context.metrics
        metrics.counter("certify.reads_total").inc(certificate.total_reads)
        metrics.counter("certify.reads_certified").inc(
            certificate.certified_reads
        )
        uncertified = certificate.total_reads - certificate.certified_reads
        if uncertified:
            metrics.counter("certify.reads_uncertified").inc(uncertified)
        metrics.gauge("certify.certified_fraction").set(
            certificate.certified_fraction
        )
        return artifact

    def counters(self, artifact: RunResult, context: PipelineContext):
        certificate = artifact.certificate
        return {
            "certified": certificate.certified_reads,
            "uncertified": (
                certificate.total_reads - certificate.certified_reads
            ),
            "certified_fraction": certificate.certified_fraction,
        }


class RepairStage(Stage):
    """Self-repair uncertified reads: polish, then budgeted re-sample.

    Every round runs bounded steepest descent (shared
    :mod:`repro.solvers.kernels` updaters) *in place* on the offending
    rows only -- a read corrupted away from a minimum descends right
    back.  Rounds after the first additionally re-sample first, with
    escalated reads (and, on hardware, escalated chain strength),
    replacing whatever rows are still uncertified before the polish.
    When the budget runs out with some reads still uncertified, those
    rows are *dropped* (provided at least one certified read survives):
    repair's contract is that the returned sample set is certified, and
    an unrepairable read is reported -- ``reads_dropped`` in the repair
    summary, ``runner.repair_reads_dropped`` counter -- rather than
    silently returned.  Every round re-certifies, so the attached
    certificate always describes the *final* sample set; the repair
    summary (rounds, polished/resampled/repaired/dropped reads, the
    fraction before repair) lands on ``certificate.repair`` and the
    ``runner.repair_*`` resilience counters.
    """

    name = "repair"
    #: Repair is best-effort refinement: skipped outright once the
    #: deadline has expired.
    deadline_policy = "skip"

    def __init__(self, runner: "QmasmRunner"):
        self._runner = runner

    def skip(self, artifact: RunResult, context: PipelineContext) -> bool:
        options: RunOptions = context.options
        return (
            not (options.certify and options.repair)
            or artifact.certificate is None
            or artifact.certificate.ok
        )

    def run(self, artifact: RunResult, context: PipelineContext):
        options: RunOptions = context.options
        metrics = context.metrics
        deadline = context.deadline
        certificate = artifact.certificate
        fraction_before = certificate.certified_fraction
        reads_before = certificate.certified_reads
        rounds = polished = resamples = dropped = 0

        with _trace.span(
            "certify.repair", uncertified=len(certificate.uncertified_rows())
        ):
            while (
                not certificate.ok
                and rounds < MAX_REPAIR_ROUNDS
                and not (deadline is not None and deadline.expired())
            ):
                rounds += 1
                metrics.counter("runner.repair_rounds").inc()
                if rounds > 1:
                    resamples += 1
                    metrics.counter("runner.repair_resamples").inc()
                    if not self._resample(artifact, context, round_index=rounds):
                        break  # backend gave nothing new: stop burning budget
                    certificate = _certify(artifact, options)
                    if certificate.ok:
                        break
                bad_rows = certificate.uncertified_rows()
                polished += len(bad_rows)
                metrics.counter("runner.repair_polished_reads").inc(
                    len(bad_rows)
                )
                artifact.sampleset = self._runner._polish_rows(
                    artifact.solve_model,
                    artifact.sampleset,
                    bad_rows,
                    max_sweeps=REPAIR_POLISH_SWEEPS,
                    deadline=deadline,
                )
                certificate = _certify(artifact, options)
                _trace.event(
                    "certify.repair_round",
                    round=rounds,
                    certified_fraction=certificate.certified_fraction,
                )

            # Budget exhausted with stubborn reads left: drop them
            # rather than hand back reads we know are wrong -- unless
            # that would leave nothing at all.
            if not certificate.ok and certificate.certified_reads > 0:
                bad_rows = certificate.uncertified_rows()
                dropped = len(bad_rows)
                metrics.counter("runner.repair_reads_dropped").inc(dropped)
                sampleset = artifact.sampleset
                keep = np.ones(len(sampleset), dtype=bool)
                keep[bad_rows] = False
                artifact.sampleset = SampleSet(
                    sampleset.variables,
                    sampleset.records[keep],
                    sampleset.energies[keep],
                    sampleset.occurrences[keep],
                    dict(sampleset.info),
                )
                certificate = _certify(artifact, options)

        repaired = max(0, certificate.certified_reads - reads_before)
        if repaired:
            metrics.counter("runner.repair_reads_repaired").inc(repaired)
        certificate.repair = {
            "rounds": rounds,
            "polished_reads": polished,
            "resample_rounds": resamples,
            "reads_repaired": repaired,
            "reads_dropped": dropped,
            "certified_fraction_before": fraction_before,
        }
        context.metrics.gauge("certify.certified_fraction").set(
            certificate.certified_fraction
        )
        return artifact

    def _resample(
        self,
        artifact: RunResult,
        context: PipelineContext,
        round_index: int,
    ) -> bool:
        """Replace still-uncertified rows with freshly sampled reads."""
        options: RunOptions = context.options
        escalated = dataclasses.replace(
            options,
            num_reads=max(1, int(options.num_reads * REPAIR_READ_FACTOR)),
        )
        answered_by = artifact.answered_by

        if answered_by == "dwave" and artifact.embedding is not None:
            chain_strength = default_chain_strength(artifact.solve_model) * (
                CHAIN_STRENGTH_FACTOR ** (round_index - 1)
            )
            annealed = self._runner._anneal_embedded(
                artifact, chain_strength, escalated, context
            )
            if annealed is None:
                return False
            fresh = annealed[0]
        else:
            solver = answered_by or options.solver
            if solver == "dwave":  # nothing embedded to resample against
                return False
            fresh = self._runner._classical_sample(
                solver,
                artifact.solve_model,
                escalated,
                seed_offset=round_index,
                deadline=context.deadline,
            )
        if not len(fresh):
            return False

        # Keep the rows that already certified; append the fresh reads.
        sampleset = artifact.sampleset
        certificate = artifact.certificate
        keep = np.ones(len(sampleset), dtype=bool)
        for index in certificate.uncertified_rows():
            keep[index] = False
        records = np.vstack([sampleset.records[keep], fresh.records])
        energies = np.concatenate(
            [sampleset.energies[keep], fresh.energies]
        )
        occurrences = np.concatenate(
            [sampleset.occurrences[keep], fresh.occurrences]
        )
        artifact.sampleset = SampleSet(
            sampleset.variables,
            records,
            energies,
            occurrences,
            dict(sampleset.info),
        )
        return True

    def counters(self, artifact: RunResult, context: PipelineContext):
        repair = artifact.certificate.repair if artifact.certificate else {}
        return {
            "rounds": int(repair.get("rounds", 0)),
            "reads_repaired": int(repair.get("reads_repaired", 0)),
            "certified_fraction": artifact.certificate.certified_fraction
            if artifact.certificate
            else 1.0,
        }




#: Stages whose time the legacy ``info["wall_time_s"]`` figure covers
#: (embedding through postprocessing, matching the pre-pipeline timer).
_WALL_TIME_STAGES = (
    "find_embedding",
    "scale_to_hardware",
    "sample",
    "unembed",
    "postprocess",
)


class ReportStage(Stage):
    """Report solutions by symbolic name, as qmasm does (Section 4.4).

    The reads become distinct solutions over the visible names, each
    checked against the pins and every ``!assert``; the stage also
    writes the run-wide ``info`` keys (deadline, certificate summary,
    wall time, answering tier and resilience, injected faults).
    """

    name = "report"
    #: Reporting turns reads already paid for into the result, so it
    #: runs deadline or not.
    deadline_policy = "run"

    def run(self, artifact: RunResult, context: PipelineContext):
        info = artifact.info
        deadline = context.deadline
        if deadline is not None:
            sampler_interrupted = bool(
                artifact.sampleset is not None
                and artifact.sampleset.info.get("deadline_interrupted", False)
            )
            info["deadline"] = {
                "budget_s": deadline.budget_s,
                "elapsed_s": deadline.elapsed(),
                "expired": deadline.expired(),
                "sampler_interrupted": sampler_interrupted,
            }
            context.metrics.gauge("deadline.remaining_s").set(
                deadline.remaining()
            )
            if sampler_interrupted:
                context.metrics.counter("deadline.sampler_interrupts").inc()
        if artifact.certificate is not None:
            info["certificate"] = artifact.certificate.summary()
        info["wall_time_s"] = sum(
            record.wall_time_s
            for record in context.stats.values()
            if record.name in _WALL_TIME_STAGES
        )
        info["roof_duality_fixed"] = len(artifact.fixed_spins)
        if artifact.answered_by is not None:
            info["answered_by"] = artifact.answered_by
            summary = {}
            for key in _RESILIENCE_COUNTERS:
                value = int(context.metrics.value(f"runner.{key}"))
                if value:  # zeros are omitted: quiet runs stay quiet
                    summary[key] = value
            if artifact.last_error is not None:
                summary["last_error"] = str(artifact.last_error)
            info["resilience"] = summary
        machine = artifact.machine
        if machine is not None and machine.faults is not None:
            info["fault_injection"] = machine.faults.counters()
        artifact.solutions = _report(artifact)
        return artifact

    def counters(self, artifact: RunResult, context: PipelineContext):
        return {
            "solutions": len(artifact.solutions),
            "valid": len(artifact.valid_solutions),
        }


def _report(result: RunResult) -> List[Solution]:
    """The run's reads as distinct solutions, best energy first.

    Reads that agree on every visible variable are one solution, with
    the energy of the first and the summed occurrences; the checker
    runs once, on the first read of each solution.
    """
    logical = result.logical
    fixed = result.fixed_spins
    sampleset = result.sampleset
    if len(sampleset):
        records, variables = sampleset.records, sampleset.variables
        occurrences = sampleset.occurrences
    else:  # no reads: report the roof-duality-fixed spins alone
        records, variables, occurrences = np.zeros((1, 0), np.int8), [], np.ones(1, int)
    column, spins = expand_reads(records, variables, result.representative, fixed)
    visible = [v for v in logical.visible_variables() if v in column]
    shown_columns = [column[v] for v in visible]
    first, totals = merge_rows(spins[:, shown_columns], occurrences)

    # A spin that is not +/-1 raises for the first bad entry read by
    # read: each solution's first read in turn, its visible spins before
    # all its spins.  Grouping on the raw spins makes a read with a bad
    # visible spin the first read of a solution.
    picked = spins[first]
    bits = spins_to_bits(np.hstack([picked[:, shown_columns], picked]))
    shown, bits = bits[:, :len(visible)], bits[:, len(visible):]
    failed = logical.failed_assertions(bits, column)
    pins_ok = logical.pins_respected(bits, column)
    solutions = [
        Solution(
            values=dict(zip(visible, shown[k].tolist())),
            energy=(
                float(sampleset.energies[row]) if len(sampleset)
                else result.logical_model.energy(fixed)
            ),
            num_occurrences=int(totals[k]),
            failed_assertions=list(failed[k]),
            pins_respected=bool(pins_ok[k]),
        )
        for k, row in enumerate(first)
    ]
    solutions.sort(key=lambda s: (s.energy, -s.num_occurrences))
    return solutions


class QmasmRunner:
    """Drives QMASM programs through solvers, like the qmasm executable.

    Args:
        machine: the simulated 2000Q backend; created lazily so
            classical-solver runs never pay for the C16 graph.
        seed: RNG seed for solvers and the embedder.
        embedding_cache: cache for minor embeddings; defaults to a fresh
            in-memory :class:`EmbeddingCache`.  Pass one with
            ``enabled=False`` to always re-embed.
        machines: simulated fleet size for the ``"shard"`` solver (how
            many chips sharded subproblems are dispatched across).
        fleet: optional heterogeneous fleet spec for the ``"shard"``
            solver (``"C16,P8,Z6"`` -- see
            :func:`repro.solvers.fleet.parse_fleet_spec`); overrides
            ``machines``.
        checkpoint_dir: directory for shard-solver checkpoints (one
            entry per run, persisted after every stitch round); ``None``
            disables checkpointing.
        resume: resume the shard solve from a matching checkpoint.
    """

    def __init__(
        self,
        machine: Optional[DWaveSimulator] = None,
        seed: Optional[int] = None,
        embedding_cache: Optional[EmbeddingCache] = None,
        machines: int = 4,
        fleet: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
    ):
        self.machine = machine
        self.seed = seed
        self.machines = machines
        self.fleet = fleet
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.embedding_cache = (
            embedding_cache if embedding_cache is not None else EmbeddingCache()
        )
        #: The execution pipeline; callers may reorder/extend/replace.
        self.run_stages: List[Stage] = [
            RoofDualityStage(),
            FindEmbeddingStage(self),
            ScaleToHardwareStage(),
            SampleStage(self),
            UnembedStage(self),
            PostprocessStage(self),
            CorruptReadsStage(),
            CertifyStage(),
            RepairStage(self),
            ReportStage(),
        ]

    def _get_machine(self) -> DWaveSimulator:
        if self.machine is None:
            self.machine = DWaveSimulator(seed=self.seed)
        return self.machine

    # ------------------------------------------------------------------
    # Resilient sampling primitives
    # ------------------------------------------------------------------
    def _sample_with_retry(
        self,
        artifact: RunResult,
        model: IsingModel,
        options: "RunOptions",
        context: PipelineContext,
    ) -> Optional[SampleSet]:
        """Sample on the artifact's machine under the retry policy.

        Returns ``None`` when every attempt failed transiently (the
        caller decides whether to fall back; the last error lands on
        ``artifact.last_error``); permanent errors (range
        violations, topology mismatches) propagate immediately.  Each
        retry runs under one fresh random spin-reversal gauge, so a
        flaky machine's successful retries also decorrelate its analog
        bias -- retries double as gauge averaging.  Every attempt,
        retry and failure lands on ``context.metrics`` under
        ``runner.*`` -- the single source the stage counters and
        ``info["resilience"]`` read from.
        """
        metrics = context.metrics
        last_error: Optional[Exception] = None
        for attempt in range(options.retry_policy.max_sample_attempts):
            metrics.counter("runner.sample_attempts").inc()
            if attempt > 0:
                metrics.counter("runner.sample_retries").inc()
                _trace.event("runner.retry", attempt=attempt)
            try:
                return artifact.machine.sample_ising(
                    model,
                    num_reads=options.num_reads,
                    annealing_time_us=options.annealing_time_us,
                    num_spin_reversal_transforms=1 if attempt > 0 else 0,
                    deadline=context.deadline,
                )
            except TransientSolverError as exc:
                last_error = exc
                metrics.counter("runner.sample_failures").inc()
        artifact.last_error = last_error
        return None

    def _anneal_embedded(
        self,
        artifact: RunResult,
        chain_strength: float,
        options: RunOptions,
        context: PipelineContext,
    ) -> Optional[Tuple[SampleSet, IsingModel, IsingModel, float]]:
        """Re-anneal the embedded problem at ``chain_strength``.

        Builds the physical model over the artifact's embedding, scales
        it into machine range, samples it under the retry policy and
        unembeds the reads.  Returns ``(unembedded, physical, scaled,
        scale_factor)``, or ``None`` when the machine gave no answer.
        """
        physical = embed_ising(
            artifact.solve_model,
            artifact.embedding,
            artifact.machine.working_graph,
            chain_strength=chain_strength,
        )
        scaled, factor = scale_to_hardware(physical)
        raw = self._sample_with_retry(artifact, scaled, options, context)
        if raw is None:
            return None
        unembedded = unembed_sampleset(
            raw, artifact.embedding, artifact.solve_model
        )
        return unembedded, physical, scaled, factor

    def _classical_sample(
        self,
        solver: str,
        model: IsingModel,
        options: RunOptions,
        seed_offset: int = 0,
        deadline: Optional[Deadline] = None,
    ) -> SampleSet:
        """One classical tier: the logical model on a software solver.

        Reads ``num_reads``, ``num_sweeps`` and ``max_workers`` from
        ``options``.  ``seed_offset`` perturbs the sampler seed
        deterministically -- repair re-sample rounds must draw *fresh*
        reads, not replay the round that produced the uncertified ones.
        """
        seed = self.seed
        if seed is not None and seed_offset:
            seed = seed + seed_offset
        num_reads = options.num_reads
        num_sweeps = options.num_sweeps
        if solver == "sa":
            kwargs = {} if num_sweeps is None else {"num_sweeps": num_sweeps}
            return SimulatedAnnealingSampler(seed=seed).sample(
                model, num_reads=num_reads, deadline=deadline, **kwargs
            )
        if solver == "sqa":
            from repro.solvers.sqa import PathIntegralAnnealer

            kwargs = {} if num_sweeps is None else {"num_sweeps": num_sweeps}
            return PathIntegralAnnealer(seed=seed).sample(
                model, num_reads=min(num_reads, 32), deadline=deadline,
                **kwargs
            )
        if solver == "exact":
            return ExactSolver().sample(model, num_lowest=num_reads)
        if solver == "tabu":
            kwargs = {} if num_sweeps is None else {"max_iter": num_sweeps}
            return TabuSampler(seed=seed).sample(
                model, num_reads=num_reads, deadline=deadline, **kwargs
            )
        if solver == "qbsolv":
            return QBSolv(seed=seed, max_workers=options.max_workers).sample(
                model, num_reads=min(num_reads, 10)
            )
        if solver == "shard":
            from repro.solvers.shard import ShardSolver

            machine = self._get_machine()
            # The machine-level clauses of the machine's fault spec
            # (machine_crash / machine_straggler / machine_flaky) drive
            # the shard fleet's chaos plan; single-machine clauses keep
            # acting inside DWaveSimulator itself.
            injector = getattr(machine, "faults", None)
            return ShardSolver(
                properties=machine.properties,
                machines=self.machines,
                seed=seed,
                max_workers=options.max_workers,
                fleet=self.fleet,
                faults=injector.spec if injector is not None else None,
                checkpoint=self.checkpoint_dir,
                resume=self.resume,
            ).sample(
                model, num_reads=min(num_reads, 5), deadline=deadline
            )
        raise ValueError(f"unknown solver {solver!r}")

    def _polish_rows(
        self,
        model: IsingModel,
        sampleset: SampleSet,
        rows: Sequence[int],
        max_sweeps: int = 64,
        deadline: Optional[Deadline] = None,
    ) -> SampleSet:
        """Bounded steepest descent on *selected* rows, in place.

        Unlike :class:`~repro.solvers.greedy.SteepestDescentSolver`,
        this keeps untouched rows (and their energies) bit-identical and
        only descends the requested rows through the shared sweep
        kernels -- the repair loop's "polish the offenders" primitive.
        Polished rows get their energies recomputed; the returned set
        re-sorts by the usual stable energy order.  Columns are in
        ``model.variables`` order, as every sampler returns them.
        """
        if not len(rows):
            return sampleset
        row_index = np.asarray(list(rows), dtype=int)
        spins = sampleset.records[row_index].astype(float)

        _, h_vec, indptr, indices, data = model.to_csr()
        from repro.solvers import kernels

        chosen = kernels.choose_kernel(
            len(model), len(indices), None, num_reads=len(row_index)
        )
        fields = kernels.init_local_fields(h_vec, indptr, indices, data, spins)
        flip = kernels.make_mixed_flip_updater(chosen, indptr, indices, data)
        kernels.steepest_descent(spins, fields, flip, max_sweeps, deadline)

        records = sampleset.records.copy()
        records[row_index] = spins.astype(records.dtype)
        energies = sampleset.energies.copy()
        energies[row_index] = model.energies(spins)
        return SampleSet(
            sampleset.variables,
            records,
            energies,
            sampleset.occurrences.copy(),
            dict(sampleset.info),
        )

    def run(
        self,
        source: Union[str, Program, LogicalProgram],
        pins: Sequence[Union[str, Pin]] = (),
        *,
        deadline: Optional[Union[float, Deadline]] = None,
        **options,
    ) -> RunResult:
        """Assemble and execute a QMASM program.

        Args:
            source: QMASM text, a parsed :class:`Program`, or an
                assembled :class:`LogicalProgram`.
            pins: extra ``--pin`` style bindings (strings like
                ``"C[7:0] := 10001111"`` or :class:`Pin` objects).
            deadline: wall-clock budget in seconds (or a prearmed
                :class:`~repro.core.deadline.Deadline`).  Samplers stop
                cooperatively at sweep-batch granularity; optional
                stages (postprocess, repair) are skipped once expired;
                required stages that cannot start raise
                :class:`~repro.core.deadline.DeadlineExceeded` carrying
                the partial :class:`RunResult` and the stage's name.
            **options: the :class:`RunOptions` fields (``solver``,
                ``num_reads``, ``certify``, ...); an unknown keyword is a
                ``TypeError`` and a bad value a ``ValueError``, both
                before anything is assembled.

        Returns:
            A :class:`RunResult` with aggregated, energy-sorted
            solutions and per-stage :attr:`RunResult.stats`.
        """
        options = RunOptions(**options)
        logical = self._to_logical(source, pins)
        logical_model, representative = logical.pinned_ising()
        run_deadline: Optional[Deadline] = (
            deadline
            if deadline is None or isinstance(deadline, Deadline)
            else Deadline(float(deadline))
        )
        context = PipelineContext(options=options, deadline=run_deadline)
        result = RunResult(
            logical=logical,
            logical_model=logical_model,
            representative=representative,
            solve_model=logical_model,
            info={"solver": options.solver},
            stats=context.stats,
            metrics=context.metrics,
        )
        with _trace.span("run", solver=options.solver) as run_span:
            result = PassManager(self.run_stages, name="run").run(
                result, context
            )
        result.trace = run_span if run_span.is_recording else None
        return result

    # ------------------------------------------------------------------
    def _refine(self, model: IsingModel, sampleset: SampleSet) -> SampleSet:
        """Cold logical anneal seeded from unembedded samples.

        Majority-voted samples sit near (not at) logical ground states;
        a short low-temperature anneal from those states repairs the
        residual gate defects, as SAPI's optimization postprocessing did
        for the paper's runs.
        """
        from repro.solvers.neal import default_beta_range

        _, beta_cold = default_beta_range(model)
        initial = sampleset.records
        sampler = SimulatedAnnealingSampler(seed=self.seed)
        refined = sampler.sample(
            model,
            num_reads=len(initial),
            num_sweeps=200,
            beta_range=(beta_cold / 4.0, beta_cold * 4.0),
            initial_states=initial,
        )
        refined.info.update(sampleset.info)
        return refined

    def _to_logical(
        self,
        source: Union[str, Program, LogicalProgram],
        pins: Sequence[Union[str, Pin]],
    ) -> LogicalProgram:
        if isinstance(source, LogicalProgram):
            logical = source
        else:
            program = parse_qmasm(source) if isinstance(source, str) else source
            logical = assemble(program)
        extra = {}
        for pin in pins:
            parsed = parse_pin(pin) if isinstance(pin, str) else pin
            for variable, value in parsed.assignments.items():
                if variable not in logical.variables:
                    raise QmasmError(f"--pin of unknown variable {variable!r}")
                extra[variable] = value
        # Never mutate the caller's program: pins apply to this run only.
        return logical.with_pins(extra)
