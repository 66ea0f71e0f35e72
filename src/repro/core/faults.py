"""Deterministic fault injection for the simulated annealing stack.

Real D-Wave 2000Q units never expose a perfect Chimera C16: every chip
ships with fabrication drop-out (dead qubits *and* dead couplers), and a
serving fleet additionally sees transient solver-side failures --
timed-out sample calls, failed programming cycles -- plus reads whose
chains came apart.  Published annealing results cope with all of this
through retries, gauge (spin-reversal) averaging, and chain-break
repair; this module provides the machinery to *reproduce* those
degraded conditions on demand, deterministically, so the resilience
layer in :mod:`repro.qmasm.runner` can be exercised from tests and from
the ``--inject-fault`` CLI flag.

Three pieces:

* :class:`FaultSpec` -- a declarative description of the faults to
  inject ("kill 5% of qubits", "fail the first 2 sample calls", "break
  chains in 30% of reads"), parseable from compact CLI text via
  :func:`parse_fault_spec`.
* :class:`FaultInjector` -- the stateful engine a
  :class:`~repro.solvers.machine.DWaveSimulator` consults: it degrades
  the working graph once at construction (the *yield model*) and
  injects transient failures / read corruption per sample call, keeping
  counters of everything it did.
* :func:`break_chains` -- a test-facing helper that deterministically
  breaks chains in a physical sample set, for exercising majority-vote
  unembedding and chain-strength escalation in isolation.

The module deliberately imports nothing else from :mod:`repro` at
module scope, so the machine model can depend on it without cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

    from repro.hardware.embedding import Embedding
    from repro.solvers.sampleset import SampleSet


class TransientSolverError(RuntimeError):
    """A transient, retryable solver-side failure.

    Models the SAPI-style errors a real fleet sees -- a timed-out sample
    call, a dropped programming cycle, a momentarily unavailable solver.
    The :class:`~repro.qmasm.runner.RetryPolicy` treats these as
    retryable; anything else a backend raises is considered permanent.

    Attributes:
        kind: ``"injected"``, ``"sample_failure"``,
            ``"programming_drop"``, or ``"machine_flaky"`` -- what
            flavor of transient fault this was.
    """

    def __init__(self, message: str, kind: str = "sample_failure"):
        super().__init__(message)
        self.kind = kind


class MachineCrashError(RuntimeError):
    """A whole fleet machine died and will not come back this run.

    Unlike :class:`TransientSolverError`, a crash is *permanent*: the
    fleet layer (:mod:`repro.solvers.fleet`) quarantines the machine for
    the rest of the run and re-dispatches its orphaned shards to healthy
    machines.  Zick et al. (arxiv 1503.06453) document exactly this
    failure mode on real annealer installations -- per-device outages
    that take a unit out of the fleet mid-campaign.

    Attributes:
        machine: fleet index of the machine that crashed.
        dispatch: 1-based dispatch attempt at which the crash fired.
    """

    def __init__(self, message: str, machine: int, dispatch: int = 0):
        super().__init__(message)
        self.machine = machine
        self.dispatch = dispatch


@dataclass(frozen=True)
class FaultSpec:
    """A declarative fault model for one simulated machine.

    The *yield* fields describe permanent fabrication damage applied to
    the working graph once, at machine construction; the *transient*
    fields describe per-sample-call failures; ``chain_break_rate``
    corrupts reads so that chains disagree after embedding.  Everything
    is driven by ``seed``, so the same spec always injects the same
    faults.

    Attributes:
        dead_qubit_fraction: fraction of (remaining) qubits to kill,
            chosen pseudo-randomly from ``seed``.
        dead_qubits: explicit qubit indices to kill (indices absent from
            the graph are ignored, so one list serves many sizes).
        dead_coupler_fraction: fraction of couplers to kill.
        dead_couplers: explicit ``(u, v)`` coupler pairs to kill.
        dead_cell_fraction: fraction of native cells (topology tiles)
            to kill wholesale -- every qubit in a chosen tile dies
            together, the spatially-correlated damage a fabrication
            defect causes.  Requires the degrading machine to supply
            its :class:`~repro.hardware.topology.Topology`.
        dead_cells: explicit ``(row, col)`` tile keys to kill (keys
            absent from the topology's tiling are ignored).
        fail_first_samples: fail this many initial ``sample_ising``
            calls with a :class:`TransientSolverError`.
        sample_failure_rate: probability that any later sample call
            fails transiently (a timeout, in effect).
        programming_drop_rate: probability that a sample call fails at
            programming time (a dropped programming cycle).
        chain_break_rate: fraction of reads in which one random qubit's
            spin is flipped, breaking whatever chain contains it.
        read_corruption_rate: fraction of *logical* reads corrupted
            after unembedding and postprocessing: one meaningful spin is
            flipped while the reported energy is left stale -- the
            low-energy-but-wrong reads that only end-to-end
            certification (:mod:`repro.qmasm.certify`) can catch.
        machine_crashes: fleet-level fault: ``(machine_index, dispatch)``
            pairs -- the machine's ``dispatch``-th shard dispatch (and
            every later one) raises :class:`MachineCrashError`, modeling
            a unit that dies mid-run and stays dead.
        machine_stragglers: fleet-level fault: ``(machine_index,
            factor)`` pairs -- the machine's modeled QPU latency is
            multiplied by ``factor``, so fleet health tracking sees a
            unit running far slower than its peers.
        machine_flaky: fleet-level fault: ``(machine_index, rate)``
            pairs -- each dispatch to the machine fails with a
            :class:`TransientSolverError` (kind ``"machine_flaky"``)
            with probability ``rate``, drawn deterministically from
            ``seed``.
        seed: drives every pseudo-random choice above.
    """

    dead_qubit_fraction: float = 0.0
    dead_qubits: Tuple[int, ...] = ()
    dead_coupler_fraction: float = 0.0
    dead_couplers: Tuple[Tuple[int, int], ...] = ()
    dead_cell_fraction: float = 0.0
    dead_cells: Tuple[Tuple[int, int], ...] = ()
    fail_first_samples: int = 0
    sample_failure_rate: float = 0.0
    programming_drop_rate: float = 0.0
    chain_break_rate: float = 0.0
    read_corruption_rate: float = 0.0
    machine_crashes: Tuple[Tuple[int, int], ...] = ()
    machine_stragglers: Tuple[Tuple[int, float], ...] = ()
    machine_flaky: Tuple[Tuple[int, float], ...] = ()
    seed: int = 0

    def __post_init__(self):
        for name in (
            "dead_qubit_fraction",
            "dead_coupler_fraction",
            "dead_cell_fraction",
            "sample_failure_rate",
            "programming_drop_rate",
            "chain_break_rate",
            "read_corruption_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.fail_first_samples < 0:
            raise ValueError("fail_first_samples must be >= 0")
        # Tuples keep the spec hashable (it participates in cache keys).
        object.__setattr__(self, "dead_qubits", tuple(self.dead_qubits))
        object.__setattr__(
            self,
            "dead_couplers",
            tuple(tuple(pair) for pair in self.dead_couplers),
        )
        object.__setattr__(
            self,
            "dead_cells",
            tuple(tuple(cell) for cell in self.dead_cells),
        )
        crashes = []
        for machine, dispatch in self.machine_crashes:
            machine, dispatch = int(machine), int(dispatch)
            if machine < 0:
                raise ValueError("machine_crashes indices must be >= 0")
            if dispatch < 1:
                raise ValueError(
                    "machine_crashes dispatch numbers are 1-based (>= 1)"
                )
            crashes.append((machine, dispatch))
        object.__setattr__(self, "machine_crashes", tuple(crashes))
        stragglers = []
        for machine, factor in self.machine_stragglers:
            machine, factor = int(machine), float(factor)
            if machine < 0:
                raise ValueError("machine_stragglers indices must be >= 0")
            if factor < 1.0:
                raise ValueError(
                    f"machine_stragglers factor must be >= 1, got {factor!r}"
                )
            stragglers.append((machine, factor))
        object.__setattr__(self, "machine_stragglers", tuple(stragglers))
        flaky = []
        for machine, rate in self.machine_flaky:
            machine, rate = int(machine), float(rate)
            if machine < 0:
                raise ValueError("machine_flaky indices must be >= 0")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"machine_flaky rate must be in [0, 1], got {rate!r}"
                )
            flaky.append((machine, rate))
        object.__setattr__(self, "machine_flaky", tuple(flaky))

    @property
    def has_yield_faults(self) -> bool:
        """True when the spec damages the working graph itself."""
        return bool(
            self.dead_qubit_fraction
            or self.dead_qubits
            or self.dead_coupler_fraction
            or self.dead_couplers
            or self.dead_cell_fraction
            or self.dead_cells
        )

    @property
    def has_transient_faults(self) -> bool:
        return bool(
            self.fail_first_samples
            or self.sample_failure_rate
            or self.programming_drop_rate
            or self.chain_break_rate
            or self.read_corruption_rate
        )

    @property
    def has_machine_faults(self) -> bool:
        """True when the spec injects fleet-level machine faults."""
        return bool(
            self.machine_crashes
            or self.machine_stragglers
            or self.machine_flaky
        )


#: CLI spec keys -> (FaultSpec field, value parser).  Shared between
#: ``parse_fault_spec`` and its error messages.
_SPEC_KEYS = {
    "dead_qubits": "dead_qubit_fraction",
    "dead_couplers": "dead_coupler_fraction",
    "dead_cells": "dead_cell_fraction",
    "fail_first": "fail_first_samples",
    "fail_rate": "sample_failure_rate",
    "drop_rate": "programming_drop_rate",
    "break_chains": "chain_break_rate",
    "read_corruption": "read_corruption_rate",
    "machine_crash": "machine_crashes",
    "machine_straggler": "machine_stragglers",
    "machine_flaky": "machine_flaky",
    "seed": "seed",
}
_INT_FIELDS = {"fail_first_samples", "seed"}
#: Fleet-level machine-fault fields and their default per-machine
#: parameter: crash on the 2nd dispatch (serve one shard, then die),
#: run 4x slower, fail one dispatch in four.
_MACHINE_FIELDS = {
    "machine_crashes": 2.0,
    "machine_stragglers": 4.0,
    "machine_flaky": 0.25,
}


def _parse_fraction(key: str, text: str) -> float:
    """``"5%"`` -> 0.05; ``"0.05"`` -> 0.05."""
    text = text.strip()
    try:
        if text.endswith("%"):
            return float(text[:-1]) / 100.0
        return float(text)
    except ValueError:
        raise ValueError(f"bad value {text!r} for fault key {key!r}") from None


def _parse_machine_clause(key: str, field: str, text: str) -> tuple:
    """Parse a fleet-level machine-fault value.

    Grammar: ``INDEX[:PARAM]`` entries joined by ``+`` (commas separate
    whole clauses), e.g. ``machine_crash=1:3+2`` crashes machine 1 on
    its 3rd dispatch and machine 2 on its 2nd (the default), and
    ``machine_flaky=0:30%`` makes machine 0 fail 30% of dispatches.
    """
    entries = []
    for part in text.split("+"):
        part = part.strip()
        if not part:
            continue
        index_text, sep, param_text = part.partition(":")
        try:
            index = int(index_text.strip())
        except ValueError:
            raise ValueError(
                f"bad machine index {index_text.strip()!r} for fault key "
                f"{key!r} (expected INDEX[:PARAM])"
            ) from None
        param = (
            _parse_fraction(key, param_text) if sep else _MACHINE_FIELDS[field]
        )
        if field == "machine_crashes":
            param = int(param)
        entries.append((index, param))
    if not entries:
        raise ValueError(f"empty machine list for fault key {key!r}")
    return tuple(entries)


def parse_fault_spec(text: str, base: Optional[FaultSpec] = None) -> FaultSpec:
    """Parse a compact ``--inject-fault`` spec string.

    The grammar is ``key=value`` clauses separated by commas::

        dead_qubits=5%,fail_first=2,break_chains=0.3,seed=7
        machine_crash=1,machine_straggler=2:8,machine_flaky=0:30%,seed=7

    Keys: ``dead_qubits`` / ``dead_couplers`` / ``dead_cells``
    (fraction or percentage), ``fail_first`` (count), ``fail_rate`` /
    ``drop_rate`` / ``break_chains`` / ``read_corruption`` (fraction or
    percentage), ``machine_crash`` / ``machine_straggler`` /
    ``machine_flaky`` (fleet-level: ``INDEX[:PARAM]`` entries joined by
    ``+``; the parameter is the 1-based crash dispatch, the slowdown
    factor, or the per-dispatch failure rate respectively), ``seed``
    (int).  Explicit dead-qubit/coupler/cell *lists* are API-only
    (:class:`FaultSpec(dead_qubits=...) <FaultSpec>`).

    Args:
        text: the spec string.
        base: an existing spec to override field-by-field, so repeated
            CLI flags compose left to right.

    Raises:
        ValueError: on unknown keys or malformed values.
    """
    overrides: Dict[str, object] = {}
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ValueError(
                f"bad fault clause {clause!r}: expected key=value "
                f"(keys: {', '.join(sorted(_SPEC_KEYS))})"
            )
        key, _, value = clause.partition("=")
        key = key.strip()
        field = _SPEC_KEYS.get(key)
        if field is None:
            raise ValueError(
                f"unknown fault key {key!r} "
                f"(keys: {', '.join(sorted(_SPEC_KEYS))})"
            )
        if field in _INT_FIELDS:
            try:
                overrides[field] = int(value.strip())
            except ValueError:
                raise ValueError(
                    f"bad value {value.strip()!r} for fault key {key!r}"
                ) from None
        elif field in _MACHINE_FIELDS:
            overrides[field] = _parse_machine_clause(key, field, value)
        else:
            overrides[field] = _parse_fraction(key, value)
    if base is None:
        return FaultSpec(**overrides)
    return replace(base, **overrides)


def spec_fingerprint(spec: Optional[FaultSpec]) -> str:
    """A canonical string for cache keys; ``"none"`` for no spec."""
    if spec is None:
        return "none"
    parts = [f"{f.name}={getattr(spec, f.name)!r}" for f in fields(spec)]
    return "FaultSpec(" + ", ".join(parts) + ")"


class FaultInjector:
    """The stateful engine that applies a :class:`FaultSpec`.

    One injector belongs to one machine.  :meth:`degrade` is called once
    to damage the working graph; :meth:`before_sample` and
    :meth:`corrupt_records` are called per ``sample_ising`` invocation.
    All randomness is seeded from the spec, so a given injector always
    misbehaves identically -- which is what makes resilience tests
    reproducible.

    Attributes:
        spec: the driving fault specification.
        sample_calls: how many sample calls were attempted.
        transient_failures: how many calls this injector failed.
        reads_corrupted: how many reads had a spin flipped.
    """

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self._rng = random.Random(spec.seed)
        self._read_rng = np.random.default_rng(spec.seed + 1)
        self._logical_rng = np.random.default_rng(spec.seed + 2)
        self.sample_calls = 0
        self.transient_failures = 0
        self.reads_corrupted = 0
        self.logical_reads_corrupted = 0

    # -- yield model ----------------------------------------------------
    def degrade(self, graph: "nx.Graph", topology=None) -> "nx.Graph":
        """Apply the yield model: a damaged *copy* of ``graph``.

        A copy (never in-place mutation) so that graph fingerprints
        memoized for the pristine graph stay valid and embedding caches
        keyed on the degraded graph never alias the healthy one.

        Args:
            graph: the working graph to damage.
            topology: the machine's
                :class:`~repro.hardware.topology.Topology`; required
                when the spec kills whole native cells, because which
                qubits form a cell is a per-family question.
        """
        spec = self.spec
        out = graph.copy()
        rng = random.Random(spec.seed)
        if spec.dead_cell_fraction or spec.dead_cells:
            if topology is None:
                raise ValueError(
                    "dead-cell faults need the machine topology to know "
                    "which qubits form a cell"
                )
            tiles = topology.tiles()
            doomed = [tuple(cell) for cell in spec.dead_cells]
            if spec.dead_cell_fraction:
                keys = sorted(tiles)
                count = int(round(spec.dead_cell_fraction * len(keys)))
                doomed.extend(rng.sample(keys, count))
            for key in doomed:
                out.remove_nodes_from(
                    [q for q in tiles.get(key, ()) if q in out]
                )
        if spec.dead_qubit_fraction:
            nodes = sorted(out.nodes())
            count = int(round(spec.dead_qubit_fraction * len(nodes)))
            out.remove_nodes_from(rng.sample(nodes, count))
        if spec.dead_qubits:
            out.remove_nodes_from([q for q in spec.dead_qubits if q in out])
        if spec.dead_coupler_fraction:
            edges = sorted(tuple(sorted(e)) for e in out.edges())
            count = int(round(spec.dead_coupler_fraction * len(edges)))
            out.remove_edges_from(rng.sample(edges, count))
        if spec.dead_couplers:
            out.remove_edges_from(
                [(u, v) for u, v in spec.dead_couplers if out.has_edge(u, v)]
            )
        return out

    # -- transient faults -----------------------------------------------
    def before_sample(self) -> None:
        """Raise :class:`TransientSolverError` if this call must fail."""
        self.sample_calls += 1
        spec = self.spec
        if self.sample_calls <= spec.fail_first_samples:
            self.transient_failures += 1
            raise TransientSolverError(
                f"injected failure of sample call "
                f"{self.sample_calls}/{spec.fail_first_samples}",
                kind="injected",
            )
        if spec.programming_drop_rate and self._rng.random() < spec.programming_drop_rate:
            self.transient_failures += 1
            raise TransientSolverError(
                "injected programming-cycle drop", kind="programming_drop"
            )
        if spec.sample_failure_rate and self._rng.random() < spec.sample_failure_rate:
            self.transient_failures += 1
            raise TransientSolverError(
                "injected sample-call timeout", kind="sample_failure"
            )

    def corrupt_records(self, records: np.ndarray) -> Tuple[np.ndarray, int]:
        """Flip one random spin in ``chain_break_rate`` of the reads.

        Returns ``(records, corrupted_count)``; the input array is
        copied before modification.  A flipped qubit breaks whatever
        chain contains it, so downstream majority-vote unembedding and
        chain-break accounting see realistic damage.
        """
        rate = self.spec.chain_break_rate
        if not rate or records.size == 0 or records.shape[1] == 0:
            return records, 0
        hit = self._read_rng.random(records.shape[0]) < rate
        count = int(hit.sum())
        if not count:
            return records, 0
        out = records.copy()
        columns = self._read_rng.integers(0, records.shape[1], size=count)
        rows = np.flatnonzero(hit)
        out[rows, columns] = -out[rows, columns]
        self.reads_corrupted += count
        return out, count

    def corrupt_logical(
        self,
        records: np.ndarray,
        columns: Optional[np.ndarray] = None,
        observable: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flip one spin in ``read_corruption_rate`` of *logical* reads.

        Unlike :meth:`corrupt_records` (physical chain damage, applied
        before energies are computed), this models readout misreporting
        at the very end of the pipeline: the returned rows disagree with
        the states the machine actually reached, and the caller is
        expected to keep the *stale* energies -- producing exactly the
        low-energy-but-wrong reads certification must flag.

        Args:
            records: the logical spin matrix (copied, never mutated).
            columns: optional candidate column indices to flip (the
                caller restricts these to variables that actually carry
                bias or couplings).
            observable: optional boolean matrix shaped like ``records``;
                ``observable[r, i]`` marks columns whose flip is
                *detectable* in row ``r`` (the caller typically marks
                columns with a nonzero local field, whose flip provably
                changes the row's energy).  Hit rows pick uniformly
                among their observable candidates; a hit row with no
                observable candidate is left intact -- an undetectable
                "corruption" would be indistinguishable from a valid
                read, by definition.

        Returns:
            ``(records, corrupted_rows)`` -- the possibly-copied matrix
            and the sorted indices of the corrupted rows.
        """
        rate = self.spec.read_corruption_rate
        empty = np.zeros(0, dtype=int)
        if not rate or records.size == 0 or records.shape[1] == 0:
            return records, empty
        if columns is None:
            columns = np.arange(records.shape[1])
        columns = np.asarray(columns, dtype=int)
        if columns.size == 0:
            return records, empty
        hit = self._logical_rng.random(records.shape[0]) < rate
        candidates = np.flatnonzero(hit)
        if not len(candidates):
            return records, empty
        out = records.copy()
        corrupted = []
        for row in candidates:
            pool = (
                columns[observable[row, columns]]
                if observable is not None
                else columns
            )
            if not len(pool):
                continue
            pick = int(pool[self._logical_rng.integers(0, len(pool))])
            out[row, pick] = -out[row, pick]
            corrupted.append(int(row))
        rows = np.asarray(corrupted, dtype=int)
        self.logical_reads_corrupted += len(rows)
        return out, rows

    # -- observability ---------------------------------------------------
    def counters(self) -> Dict[str, int]:
        return {
            "sample_calls": self.sample_calls,
            "transient_failures": self.transient_failures,
            "reads_corrupted": self.reads_corrupted,
            "logical_reads_corrupted": self.logical_reads_corrupted,
        }

    def reset(self) -> None:
        """Restore the injector to its just-constructed state."""
        self._rng = random.Random(self.spec.seed)
        self._read_rng = np.random.default_rng(self.spec.seed + 1)
        self._logical_rng = np.random.default_rng(self.spec.seed + 2)
        self.sample_calls = 0
        self.transient_failures = 0
        self.reads_corrupted = 0
        self.logical_reads_corrupted = 0


def break_chains(
    sampleset: "SampleSet",
    embedding: "Embedding",
    fraction: float,
    seed: int = 0,
) -> "SampleSet":
    """Deterministically break chains in a *physical* sample set.

    For each selected read, one qubit inside one multi-qubit chain is
    flipped against its chain-mates, guaranteeing the chain disagrees.
    Physical energies are left untouched (unembedding recomputes logical
    energies anyway).  This is the test harness for majority-vote
    unembedding, ``chain_break_fraction`` accounting, and
    chain-strength escalation.

    Args:
        sampleset: physical samples over embedded qubits.
        embedding: the embedding whose chains should break.
        fraction: fraction of reads to damage (0..1).
        seed: RNG seed.

    Raises:
        ValueError: if no chain has more than one qubit (nothing can
            break) or ``fraction`` is out of range.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
    multi = [sorted(chain) for chain in embedding.chains.values() if len(chain) > 1]
    if not multi:
        raise ValueError("embedding has no multi-qubit chain to break")
    multi.sort()
    rng = random.Random(seed)
    index = {q: i for i, q in enumerate(sampleset.variables)}
    records = sampleset.records.copy()
    for row in range(records.shape[0]):
        if rng.random() >= fraction:
            continue
        chain = multi[rng.randrange(len(multi))]
        victim = chain[rng.randrange(len(chain))]
        column = index[victim]
        # Force disagreement with the rest of the chain: set the victim
        # opposite to the chain majority (flip handles ties fine).
        others = [records[row, index[q]] for q in chain if q != victim]
        majority = 1 if sum(int(s) for s in others) >= 0 else -1
        records[row, column] = -majority
    out = type(sampleset)(
        list(sampleset.variables),
        records,
        sampleset.energies.copy(),
        sampleset.occurrences.copy(),
        dict(sampleset.info),
    )
    return out
