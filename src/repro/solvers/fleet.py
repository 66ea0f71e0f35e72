"""Fleet resilience: machine health, circuit breakers, re-dispatch.

The sharded decomposer (:mod:`repro.solvers.shard`) dispatches
chip-sized subproblems across a fleet of simulated annealers.  Real
annealer fleets lose whole machines mid-run -- Zick et al. (arxiv
1503.06453) document per-device calibration drift and outages -- so a
fleet that cannot survive machine loss is not a fleet, just N single
points of failure.  This module is the resilience layer the shard
dispatcher leans on:

* :class:`MachineHealth` -- rolling per-machine statistics: dispatch
  outcomes, modeled QPU latency, chain-break fractions, wall time.
  *Decisions* are made on the modeled latency (the deterministic QPU
  timing model every shard result carries), never on wall-clock
  readings, so health verdicts -- and therefore dispatch -- are
  bit-identical across reruns.
* :class:`CircuitBreaker` -- the classic closed / open / half-open
  state machine, with the cooldown measured in *dispatch rounds* (not
  seconds, for the same determinism reason).  A machine whose
  transient-failure rate, corruption rate, or relative latency crosses
  the :class:`HealthPolicy` thresholds is quarantined; after the
  cooldown it gets exactly one probe shard, and either recovers or
  re-opens.  Crashes open the breaker permanently.
* :class:`MachineFaultPlan` -- the deterministic interpreter of the
  fleet-level :class:`~repro.core.faults.FaultSpec` fields
  (``machine_crashes`` / ``machine_stragglers`` / ``machine_flaky``):
  every injected crash, slow-down, and flaky failure is a pure function
  of the spec seed and the per-machine dispatch counter.
* :class:`Fleet` -- the machines plus the plan, with
  :func:`parse_fleet_spec` building heterogeneous fleets from compact
  CLI text (``"C16,P8,Z6"`` -- one Chimera-16, one Pegasus-8, one
  Zephyr-6 machine).

Observability: quarantine and recovery are ``fleet.quarantine`` /
``fleet.recovery`` instant events, re-dispatches are
``fleet.redispatch`` events plus a ``fleet.redispatches`` counter, and
each machine exports ``fleet.machine.<i>.state`` (0 closed, 1
half-open, 2 open) through the ambient metrics registry.

Everything here is plain picklable state with explicit
``state_dict()`` / ``load_state()`` round-trips, so the shard solver
can checkpoint fleet state through the crash-safe cache tier and a
``--resume`` continues with the same breakers open, the same dispatch
counters, and the same flaky-RNG streams -- bit-identical to the run
that was killed.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import trace as _trace
from repro.core.cache import options_fingerprint
from repro.core.faults import (
    FaultSpec,
    MachineCrashError,
    TransientSolverError,
)
from repro.solvers.machine import MachineProperties

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "HealthPolicy",
    "MachineHealth",
    "CircuitBreaker",
    "MachineFaultPlan",
    "FleetMachine",
    "Fleet",
    "parse_fleet_spec",
    "modeled_latency_us",
]

#: Circuit-breaker states (strings so they serialize trivially).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"
#: Gauge encoding for ``fleet.machine.<i>.state``.
_STATE_CODE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds for quarantining and recovering fleet machines.

    Attributes:
        window: rolling-window length (dispatch outcomes) per machine.
        min_samples: never judge a machine on fewer outcomes than this.
        failure_threshold: open the breaker when the windowed
            transient-failure rate reaches this fraction.
        corruption_threshold: open the breaker when the windowed mean
            chain-break fraction of the machine's results reaches this.
        straggler_factor: open the breaker when the machine's mean
            modeled latency exceeds this multiple of the fleet median.
        cooldown_rounds: dispatch rounds a non-permanent open breaker
            waits before half-opening for a single probe shard.
    """

    window: int = 16
    min_samples: int = 4
    failure_threshold: float = 0.5
    corruption_threshold: float = 0.5
    straggler_factor: float = 4.0
    cooldown_rounds: int = 2

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        for name in ("failure_threshold", "corruption_threshold"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value!r}")
        if self.straggler_factor <= 1.0:
            raise ValueError("straggler_factor must be > 1")
        if self.cooldown_rounds < 1:
            raise ValueError("cooldown_rounds must be >= 1")


def modeled_latency_us(
    properties: MachineProperties, reads: int, annealing_time_us: float
) -> float:
    """Deterministic per-dispatch QPU latency from the timing model.

    Programming plus per-read anneal/readout/delay -- the same figures
    :meth:`~repro.solvers.machine.DWaveSimulator.sample_ising` reports
    in ``info["timing"]``.  Health decisions key on this, not on
    wall-clock measurements, so quarantine verdicts are reproducible.
    """
    return properties.programming_time_us + reads * (
        annealing_time_us
        + properties.readout_time_us
        + properties.delay_time_us
    )


class MachineHealth:
    """Rolling success/latency/chain-break statistics for one machine.

    Attributes:
        dispatches: total dispatch attempts (including failed ones).
        successes / failures / crashes: lifetime outcome counters.
        wall_time_s: total wall-clock seconds spent in shard workers --
            observability only, never a decision input.
    """

    def __init__(self, window: int = 16):
        self.window = window
        self._outcomes: deque = deque(maxlen=window)
        self._latencies_us: deque = deque(maxlen=window)
        self._chain_breaks: deque = deque(maxlen=window)
        self.dispatches = 0
        self.successes = 0
        self.failures = 0
        self.crashes = 0
        self.wall_time_s = 0.0

    # ------------------------------------------------------------------
    def record_success(
        self,
        modeled_us: float,
        wall_s: float = 0.0,
        chain_break_fraction: float = 0.0,
    ) -> None:
        self.successes += 1
        self.wall_time_s += wall_s
        self._outcomes.append(1.0)
        self._latencies_us.append(float(modeled_us))
        self._chain_breaks.append(float(chain_break_fraction))

    def record_failure(self, kind: str = "transient") -> None:
        self.failures += 1
        if kind == "crash":
            self.crashes += 1
        self._outcomes.append(0.0)

    # ------------------------------------------------------------------
    @property
    def samples(self) -> int:
        """Outcomes currently inside the rolling window."""
        return len(self._outcomes)

    def failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return 1.0 - sum(self._outcomes) / len(self._outcomes)

    def mean_latency_us(self) -> float:
        if not self._latencies_us:
            return 0.0
        return sum(self._latencies_us) / len(self._latencies_us)

    def mean_chain_breaks(self) -> float:
        if not self._chain_breaks:
            return 0.0
        return sum(self._chain_breaks) / len(self._chain_breaks)

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict view for ``info["fleet"]`` and dashboards."""
        return {
            "dispatches": self.dispatches,
            "successes": self.successes,
            "failures": self.failures,
            "crashes": self.crashes,
            "failure_rate": round(self.failure_rate(), 4),
            "mean_latency_us": round(self.mean_latency_us(), 2),
            "mean_chain_breaks": round(self.mean_chain_breaks(), 4),
            "wall_time_s": round(self.wall_time_s, 4),
        }

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        return {
            "window": self.window,
            "outcomes": list(self._outcomes),
            "latencies_us": list(self._latencies_us),
            "chain_breaks": list(self._chain_breaks),
            "dispatches": self.dispatches,
            "successes": self.successes,
            "failures": self.failures,
            "crashes": self.crashes,
            "wall_time_s": self.wall_time_s,
        }

    def load_state(self, state: Dict) -> None:
        self.window = int(state["window"])
        self._outcomes = deque(state["outcomes"], maxlen=self.window)
        self._latencies_us = deque(state["latencies_us"], maxlen=self.window)
        self._chain_breaks = deque(state["chain_breaks"], maxlen=self.window)
        self.dispatches = int(state["dispatches"])
        self.successes = int(state["successes"])
        self.failures = int(state["failures"])
        self.crashes = int(state["crashes"])
        self.wall_time_s = float(state["wall_time_s"])


class CircuitBreaker:
    """Closed / open / half-open quarantine gate for one machine.

    The cooldown is counted in dispatch *rounds* so state transitions
    are a pure function of the dispatch history -- a wall-clock cooldown
    would make recovery timing (and with it shard placement on
    heterogeneous fleets) irreproducible.

    Attributes:
        state: one of :data:`CLOSED`, :data:`OPEN`, :data:`HALF_OPEN`.
        permanent: True after a crash -- the breaker never half-opens.
        reason: why the breaker last opened (``"crash"``,
            ``"failure_rate"``, ``"corruption"``, ``"straggler"``).
        opens: lifetime count of open transitions.
    """

    def __init__(self, policy: Optional[HealthPolicy] = None):
        self.policy = policy or HealthPolicy()
        self.state = CLOSED
        self.permanent = False
        self.reason: Optional[str] = None
        self.opened_round = -1
        self.opens = 0

    # ------------------------------------------------------------------
    def trip(
        self, round_index: int, reason: str, permanent: bool = False
    ) -> None:
        """Open the breaker (idempotent for an already-open breaker)."""
        if self.state == OPEN and (self.permanent or not permanent):
            self.permanent = self.permanent or permanent
            return
        self.state = OPEN
        self.permanent = self.permanent or permanent
        self.reason = reason
        self.opened_round = round_index
        self.opens += 1

    def admit(self, round_index: int) -> bool:
        """May this machine receive work in ``round_index``?

        An open breaker past its cooldown transitions to half-open and
        admits (the dispatcher limits a half-open machine to a single
        probe shard per round).
        """
        if self.state == CLOSED:
            return True
        if self.state == HALF_OPEN:
            return True
        if self.permanent:
            return False
        if round_index - self.opened_round >= self.policy.cooldown_rounds:
            self.state = HALF_OPEN
            return True
        return False

    def record(self, success: bool, round_index: int) -> Optional[str]:
        """Feed a probe outcome; returns ``"recovered"`` on recovery."""
        if self.state != HALF_OPEN:
            return None
        if success:
            self.state = CLOSED
            self.reason = None
            return "recovered"
        self.trip(round_index, reason=self.reason or "probe_failure")
        return None

    @property
    def code(self) -> int:
        return _STATE_CODE[self.state]

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        return {
            "state": self.state,
            "permanent": self.permanent,
            "reason": self.reason,
            "opened_round": self.opened_round,
            "opens": self.opens,
        }

    def load_state(self, state: Dict) -> None:
        self.state = state["state"]
        self.permanent = bool(state["permanent"])
        self.reason = state["reason"]
        self.opened_round = int(state["opened_round"])
        self.opens = int(state["opens"])


class MachineFaultPlan:
    """Deterministic fleet-level fault schedule from a :class:`FaultSpec`.

    Consulted by the dispatcher *before* a shard job ships: the plan
    decides, as a pure function of (spec seed, machine index, dispatch
    number), whether this dispatch crashes the machine, fails
    transiently, or runs slowed.  Evaluating faults parent-side keeps
    the chaos schedule independent of pool scheduling, which is what
    makes chaos runs replayable.
    """

    def __init__(self, spec: Optional[FaultSpec] = None):
        self.spec = spec
        self.crash_at: Dict[int, int] = {}
        self.straggle: Dict[int, float] = {}
        self.flaky: Dict[int, float] = {}
        self._flaky_rngs: Dict[int, np.random.Generator] = {}
        self.crashes_fired = 0
        self.flaky_failures = 0
        if spec is not None:
            self.crash_at = {m: at for m, at in spec.machine_crashes}
            self.straggle = {m: f for m, f in spec.machine_stragglers}
            self.flaky = {m: r for m, r in spec.machine_flaky}
            self._flaky_rngs = {
                m: np.random.default_rng(spec.seed * 1000003 + m + 1)
                for m in self.flaky
            }

    # ------------------------------------------------------------------
    def check_dispatch(self, machine: int, dispatch: int) -> float:
        """Evaluate the plan for one dispatch; returns the slow factor.

        Args:
            machine: fleet machine index.
            dispatch: 1-based dispatch number on that machine.

        Raises:
            MachineCrashError: the machine is (now) dead.
            TransientSolverError: this dispatch fails flakily.
        """
        crash_at = self.crash_at.get(machine)
        if crash_at is not None and dispatch >= crash_at:
            self.crashes_fired += 1
            raise MachineCrashError(
                f"injected crash of fleet machine {machine} on dispatch "
                f"{dispatch} (scheduled at {crash_at})",
                machine=machine,
                dispatch=dispatch,
            )
        rate = self.flaky.get(machine, 0.0)
        if rate and self._flaky_rngs[machine].random() < rate:
            self.flaky_failures += 1
            raise TransientSolverError(
                f"injected flaky failure of fleet machine {machine} on "
                f"dispatch {dispatch}",
                kind="machine_flaky",
            )
        return self.straggle.get(machine, 1.0)

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        return {
            "crashes_fired": self.crashes_fired,
            "flaky_failures": self.flaky_failures,
            "flaky_rngs": {
                m: rng.bit_generator.state
                for m, rng in self._flaky_rngs.items()
            },
        }

    def load_state(self, state: Dict) -> None:
        self.crashes_fired = int(state["crashes_fired"])
        self.flaky_failures = int(state["flaky_failures"])
        for m, rng_state in state["flaky_rngs"].items():
            m = int(m)
            if m in self._flaky_rngs:
                self._flaky_rngs[m].bit_generator.state = rng_state


class FleetMachine:
    """One fleet member: properties plus health plus breaker.

    Attributes:
        index: position in the fleet (stable for the whole run; fault
            specs and metrics name machines by it).
        label: human-readable ``"m<i>:<topology><size>"``.
        properties: this machine's :class:`MachineProperties` --
            heterogeneous fleets mix topologies and sizes here.
        class_key: fingerprint of ``properties``; machines sharing it
            are interchangeable (same working graph), so embeddings are
            reused across them.
    """

    def __init__(
        self,
        index: int,
        properties: MachineProperties,
        policy: Optional[HealthPolicy] = None,
    ):
        policy = policy or HealthPolicy()
        self.index = index
        self.properties = properties
        self.health = MachineHealth(window=policy.window)
        self.breaker = CircuitBreaker(policy)
        size = "" if properties.cells is None else str(properties.cells)
        self.label = f"m{index}:{properties.topology}{size}"
        self.class_key = options_fingerprint(properties)

    def __repr__(self) -> str:
        return f"FleetMachine({self.label}, {self.breaker.state})"


class Fleet:
    """The machines, their fault plan, and the quarantine bookkeeping.

    Args:
        machines: per-machine properties (one entry per fleet member);
            a homogeneous fleet passes the same properties N times.
        policy: health/breaker thresholds (shared by all machines).
        faults: the :class:`FaultSpec` whose machine-level fields drive
            the injected chaos; ``None`` runs a healthy fleet.

    The fleet never dispatches by itself -- the shard solver asks
    :meth:`begin_round` / :meth:`admitted`, feeds outcomes back through
    :meth:`record_success` / :meth:`record_failure`, and lets
    :meth:`check_quarantines` apply the policy after each round.
    """

    def __init__(
        self,
        machines: Sequence[MachineProperties],
        policy: Optional[HealthPolicy] = None,
        faults: Optional[FaultSpec] = None,
    ):
        if not machines:
            raise ValueError("a fleet needs at least one machine")
        self.policy = policy or HealthPolicy()
        self.machines: List[FleetMachine] = [
            FleetMachine(i, props, self.policy)
            for i, props in enumerate(machines)
        ]
        self.plan = MachineFaultPlan(faults)
        self.round = 0
        self.redispatches = 0
        self.fallbacks = 0

    def __len__(self) -> int:
        return len(self.machines)

    def __iter__(self):
        return iter(self.machines)

    # ------------------------------------------------------------------
    def begin_round(self) -> int:
        """Advance the fleet's dispatch-round counter."""
        self.round += 1
        return self.round

    def admitted(self) -> List[FleetMachine]:
        """Machines whose breakers admit work this round, fleet order."""
        return [m for m in self.machines if m.breaker.admit(self.round)]

    def labels(self) -> List[str]:
        return [m.label for m in self.machines]

    def quarantined(self) -> List[str]:
        return [m.label for m in self.machines if m.breaker.state == OPEN]

    def crashed(self) -> List[str]:
        return [m.label for m in self.machines if m.breaker.permanent]

    # ------------------------------------------------------------------
    def record_success(
        self,
        machine: FleetMachine,
        modeled_us: float,
        wall_s: float,
        chain_break_fraction: float,
    ) -> None:
        """Record a completed shard and let a half-open probe recover."""
        machine.health.record_success(
            modeled_us,
            wall_s=wall_s,
            chain_break_fraction=chain_break_fraction,
        )
        if machine.breaker.record(True, self.round) == "recovered":
            _trace.event(
                "fleet.recovery", machine=machine.label, round=self.round
            )
            _trace.metrics().counter("fleet.recoveries").inc()
        self._export_state(machine)

    def record_failure(
        self, machine: FleetMachine, kind: str, reason: str
    ) -> None:
        """Record a failed dispatch and apply the breaker policy.

        Crashes quarantine permanently on the spot; transient failures
        open the breaker once the windowed failure rate crosses the
        policy threshold (a half-open probe failure re-opens instantly).
        """
        machine.health.record_failure(kind)
        metrics = _trace.metrics()
        if kind == "crash":
            metrics.counter("fleet.crashes").inc()
            self._quarantine(machine, reason="crash", permanent=True)
        else:
            metrics.counter("fleet.transient_failures").inc()
            was_half_open = machine.breaker.state == HALF_OPEN
            machine.breaker.record(False, self.round)
            if was_half_open:
                self._note_quarantine(machine, machine.breaker.reason or reason)
            elif (
                machine.health.samples >= self.policy.min_samples
                and machine.health.failure_rate()
                >= self.policy.failure_threshold
            ):
                self._quarantine(machine, reason=reason)
        self._export_state(machine)

    def check_quarantines(self) -> None:
        """Apply the latency and corruption policies after a round.

        Straggler detection compares each machine's mean *modeled*
        latency to the fleet median, so a machine whose injected (or
        emergent) slow-down crosses ``straggler_factor`` is quarantined
        deterministically.
        """
        latencies = sorted(
            m.health.mean_latency_us()
            for m in self.machines
            if m.health.successes and m.breaker.state == CLOSED
        )
        median = latencies[len(latencies) // 2] if latencies else 0.0
        for machine in self.machines:
            if machine.breaker.state != CLOSED:
                continue
            if machine.health.samples < self.policy.min_samples:
                continue
            if (
                median > 0.0
                and machine.health.mean_latency_us()
                > self.policy.straggler_factor * median
            ):
                self._quarantine(machine, reason="straggler")
            elif (
                machine.health.mean_chain_breaks()
                >= self.policy.corruption_threshold
            ):
                self._quarantine(machine, reason="corruption")

    # ------------------------------------------------------------------
    def _quarantine(
        self, machine: FleetMachine, reason: str, permanent: bool = False
    ) -> None:
        machine.breaker.trip(self.round, reason=reason, permanent=permanent)
        self._note_quarantine(machine, reason)
        self._export_state(machine)

    def _note_quarantine(self, machine: FleetMachine, reason: str) -> None:
        _trace.event(
            "fleet.quarantine",
            machine=machine.label,
            reason=reason,
            round=self.round,
        )
        _trace.metrics().counter("fleet.quarantines").inc()

    def _export_state(self, machine: FleetMachine) -> None:
        _trace.metrics().gauge(
            f"fleet.machine.{machine.index}.state"
        ).set(machine.breaker.code)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Fleet-wide health view for ``info["fleet"]``."""
        return {
            "machines": self.labels(),
            "quarantined": self.quarantined(),
            "crashed": self.crashed(),
            "rounds": self.round,
            "redispatches": self.redispatches,
            "fallbacks": self.fallbacks,
            "health": {m.label: m.health.snapshot() for m in self.machines},
        }

    def state_dict(self) -> Dict:
        return {
            "round": self.round,
            "redispatches": self.redispatches,
            "fallbacks": self.fallbacks,
            "plan": self.plan.state_dict(),
            "machines": [
                {
                    "health": m.health.state_dict(),
                    "breaker": m.breaker.state_dict(),
                }
                for m in self.machines
            ],
        }

    def load_state(self, state: Dict) -> None:
        self.round = int(state["round"])
        self.redispatches = int(state["redispatches"])
        self.fallbacks = int(state["fallbacks"])
        self.plan.load_state(state["plan"])
        for machine, machine_state in zip(self.machines, state["machines"]):
            machine.health.load_state(machine_state["health"])
            machine.breaker.load_state(machine_state["breaker"])


# ----------------------------------------------------------------------
_FLEET_TOKEN = re.compile(r"^([A-Za-z_]+)[:\-]?(\d*)$")


def parse_fleet_spec(
    text: str, template: Optional[MachineProperties] = None
) -> List[MachineProperties]:
    """Parse ``"C16,P8,Z6"`` into per-machine properties.

    Each comma-separated token names a topology family -- by its
    full name (``chimera16``), any unambiguous prefix, or its
    single-letter code (``C``/``P``/``Z``) -- followed by an optional
    size (``C16`` = Chimera with ``m=16``; no size picks the family's
    flagship chip).  One token is one machine, so ``"C4,C4,C4,C4"`` is
    a homogeneous 4-machine fleet.

    Every non-topology property (noise, timing, dropout) is inherited
    from ``template`` so heterogeneous fleets differ only where the
    spec says they do.

    Raises:
        ValueError: on empty specs, malformed tokens, or unknown
            (or ambiguous) family names.
    """
    from repro.hardware.registry import resolve_family

    template = template or MachineProperties()
    machines: List[MachineProperties] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        match = _FLEET_TOKEN.match(token)
        if match is None:
            raise ValueError(
                f"bad fleet token {token!r}: expected FAMILY[SIZE], "
                f"e.g. C16 or pegasus8"
            )
        name, size_text = match.groups()
        try:
            family = resolve_family(name)
        except KeyError as exc:
            raise ValueError(f"bad fleet token {token!r}: {exc}") from None
        machines.append(
            replace(
                template,
                topology=family,
                cells=int(size_text) if size_text else None,
            )
        )
    if not machines:
        raise ValueError("fleet spec names no machines")
    return machines
