"""A D-Wave 2000Q front end over a classical annealing core.

The physical device the paper uses is unavailable here, so this module
provides the closest behavioural stand-in: it enforces everything the
real machine enforces (topology membership, coefficient ranges,
annealing-time limits), perturbs the programmed coefficients with the
machine's analog control noise ("ICE"), anneals with the simulated
annealer -- the classical algorithm quantum annealing implements in
hardware, per Section 2 -- and reports a QPU-style timing breakdown
(programming, anneal, readout, delay) calibrated to published 2000Q
figures so that per-solution timing experiments like Section 6.2 can be
reproduced in shape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.core.faults import FaultInjector, FaultSpec
from repro.core.trace import observe_sample as _observe_sample
from repro.hardware.registry import make_topology
from repro.hardware.scaling import H_RANGE, J_RANGE, check_ranges
from repro.hardware.topology import coupler_dropout, dropout
from repro.ising.model import IsingModel
from repro.solvers.neal import SimulatedAnnealingSampler
from repro.solvers.sampleset import SampleSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


@dataclass
class MachineProperties:
    """Parameters of the simulated machine (Section 2 of the paper).

    ``topology`` names a family in :mod:`repro.hardware.registry`
    (``"chimera"``, ``"pegasus"``, ``"zephyr"``); ``cells`` is that
    family's size parameter (Chimera/Pegasus/Zephyr ``m`` -- a C16 is
    the paper's 2000Q), defaulting to the family's flagship chip
    (C16/P16/Z15), and ``tile`` its cell tile where the family has one
    (Chimera/Zephyr ``t``; ignored by Pegasus).
    """

    topology: str = "chimera"
    cells: Optional[int] = None
    tile: int = 4
    #: Fraction of qubits lost to fabrication drop-out.
    dropout_fraction: float = 0.02
    #: Fraction of couplers lost to fabrication drop-out (qubits stay).
    coupler_dropout_fraction: float = 0.0
    #: Explicitly dead qubits (indices absent from the graph are
    #: ignored), modeling a unit whose fault map is known exactly.
    dead_qubits: Tuple[int, ...] = ()
    #: Explicitly dead couplers, as (u, v) pairs.
    dead_couplers: Tuple[Tuple[int, int], ...] = ()
    h_range: tuple = H_RANGE
    j_range: tuple = J_RANGE
    #: User-specified annealing time must fall in 1-2000 us.
    min_annealing_time_us: float = 1.0
    max_annealing_time_us: float = 2000.0
    #: Gaussian control-noise sigmas applied to programmed coefficients.
    noise_h: float = 0.03
    noise_j: float = 0.02
    #: Timing model (published 2000Q figures, microseconds).
    programming_time_us: float = 10000.0
    readout_time_us: float = 123.0
    delay_time_us: float = 21.0
    #: How many Metropolis sweeps one microsecond of anneal buys the
    #: classical core.  Chosen so the default 20 us anneal gets a few
    #: hundred sweeps, enough to reach ground states of gate networks.
    sweeps_per_us: float = 16.0
    dropout_seed: int = 42


class DWaveSimulator:
    """Samples *physical* Hamiltonians the way a 2000Q would.

    The model handed to :meth:`sample_ising` must already be embedded:
    every variable a working qubit, every interaction a working coupler,
    every coefficient within range.  Violations raise, exactly as SAPI
    rejects such problems.

    The *working graph* is the yield model: the pristine topology graph
    (``properties.topology``, resolved through
    :mod:`repro.hardware.registry` -- Chimera by default) minus
    seeded-random qubit/coupler drop-out, minus any explicitly listed
    dead qubits and couplers, minus whatever the yield clauses of the
    ``faults`` :class:`~repro.core.faults.FaultSpec` kill.  The spec
    additionally arms transient failures: sample calls may raise
    :class:`~repro.core.faults.TransientSolverError` (failed
    programming cycles, timeouts) and reads may come back with flipped
    spins, exactly the degraded behavior a serving fleet must absorb.
    """

    def __init__(
        self,
        properties: Optional[MachineProperties] = None,
        seed: Optional[int] = None,
        faults: Optional[FaultSpec] = None,
    ):
        self.properties = properties or MachineProperties()
        props = self.properties
        self.topology = make_topology(
            props.topology, size=props.cells, tile=props.tile
        )
        # dropout returns a copy, so the shared pristine graph is never
        # mutated and never copied twice.
        graph = dropout(
            self.topology.graph,
            fraction=props.dropout_fraction,
            seed=props.dropout_seed,
        )
        if props.coupler_dropout_fraction:
            graph = coupler_dropout(
                graph,
                fraction=props.coupler_dropout_fraction,
                seed=props.dropout_seed + 1,
            )
        if props.dead_qubits:
            graph.remove_nodes_from(
                [q for q in props.dead_qubits if q in graph]
            )
        if props.dead_couplers:
            graph.remove_edges_from(
                [(u, v) for u, v in props.dead_couplers if graph.has_edge(u, v)]
            )
        self.faults: Optional[FaultInjector] = (
            FaultInjector(faults) if faults is not None else None
        )
        if self.faults is not None and self.faults.spec.has_yield_faults:
            graph = self.faults.degrade(graph, topology=self.topology)
        self.working_graph: nx.Graph = graph
        self._rng = np.random.default_rng(seed)

    @property
    def num_qubits(self) -> int:
        return self.working_graph.number_of_nodes()

    def validate_problem(self, model: IsingModel) -> None:
        """Reject problems that do not fit the working graph or ranges."""
        for v in model.variables:
            if v not in self.working_graph:
                raise ValueError(f"qubit {v!r} is not in the working graph")
        for (u, v), coupling in model.quadratic.items():
            if coupling != 0.0 and not self.working_graph.has_edge(u, v):
                raise ValueError(f"no coupler between qubits {u!r} and {v!r}")
        check_ranges(model, self.properties.h_range, self.properties.j_range)

    def sample_ising(
        self,
        model: IsingModel,
        num_reads: int = 100,
        annealing_time_us: float = 20.0,
        apply_noise: bool = True,
        num_spin_reversal_transforms: int = 0,
        kernel: Optional[str] = None,
        deadline=None,
    ) -> SampleSet:
        """Anneal an embedded problem ``num_reads`` times.

        Args:
            model: physical Hamiltonian over working-graph qubits.
            num_reads: anneal count; runs are stochastic so thousands of
                reads per run are normal (Section 5.4).
            annealing_time_us: per-anneal time, 1-2000 us.
            apply_noise: disable to get an idealized noise-free machine
                (useful in tests and ablations).
            num_spin_reversal_transforms: split the reads into this many
                batches, each run under a random gauge g in {-1,+1}^N
                (h -> g h, J_ij -> g_i g_j J_ij) and un-gauged on
                readout.  This is SAPI's spin-reversal-transform option:
                the problem is mathematically unchanged but systematic
                analog biases decorrelate across gauges.
            kernel: force the annealing core's sweep tier
                (``"native"``/``"dense"``/``"sparse"``); None
                auto-selects, taking ``native`` when it loads.
            deadline: optional :class:`~repro.core.deadline.Deadline`,
                handed to the annealing core of every gauge batch.
                Interrupted anneals return whatever sweeps completed
                and set ``info["deadline_interrupted"]``.

        Returns:
            A :class:`SampleSet` whose ``info["timing"]`` mirrors a QPU
            timing structure, with energies computed against the *clean*
            (noise-free) programmed Hamiltonian.
        """
        props = self.properties
        if not props.min_annealing_time_us <= annealing_time_us <= props.max_annealing_time_us:
            raise ValueError(
                f"annealing time {annealing_time_us} us outside "
                f"[{props.min_annealing_time_us}, {props.max_annealing_time_us}]"
            )
        if num_reads < 1:
            raise ValueError("num_reads must be positive")
        if num_spin_reversal_transforms < 0:
            raise ValueError("num_spin_reversal_transforms must be >= 0")
        self.validate_problem(model)
        # Transient faults fire after validation, as on the real system:
        # SAPI rejects malformed problems client-side; programming and
        # sampling failures happen server-side on well-formed ones.
        if self.faults is not None:
            self.faults.before_sample()

        num_sweeps = max(8, int(annealing_time_us * props.sweeps_per_us))
        order = list(model.variables)
        start = time.perf_counter()

        batches = max(1, num_spin_reversal_transforms)
        reads_per_batch = [
            num_reads // batches + (1 if i < num_reads % batches else 0)
            for i in range(batches)
        ]
        # Each batch draws its gauge, its analog control noise and its
        # annealing core's seed from the simulator RNG, in that order;
        # the core anneals on its own RNG, so the simulator stream
        # depends only on the batch sizes.
        records = []
        kernel_used = ""
        any_interrupted = False
        for batch_reads in reads_per_batch:
            if batch_reads == 0:
                continue
            if num_spin_reversal_transforms:
                gauge = self._rng.choice([-1.0, 1.0], size=len(order))
            else:
                gauge = np.ones(len(order))
            gauged = self._apply_gauge(model, order, gauge)
            programmed = (
                self._apply_control_noise(gauged) if apply_noise else gauged
            )
            core = SimulatedAnnealingSampler(seed=int(self._rng.integers(0, 2**63)))
            raw = core.sample(
                programmed, num_reads=batch_reads, num_sweeps=num_sweeps,
                kernel=kernel, deadline=deadline,
            )
            kernel_used = raw.info.get("kernel", "")
            any_interrupted = any_interrupted or bool(
                raw.info.get("deadline_interrupted", False)
            )
            # Undo the gauge on readout; the columns are in model order.
            # Column-major rows keep the energies' summation order, and so
            # the last bits that order near-equal reads, as pinned.
            rows = np.asfortranarray(raw.records).astype(float) * gauge[None, :]
            records.append(rows.astype(np.int8))

        all_records = np.vstack(records)
        reads_corrupted = 0
        if self.faults is not None:
            all_records, reads_corrupted = self.faults.corrupt_records(
                all_records
            )
        # Energies must be reported against the ideal problem, not the
        # noisy one the analog fabric actually realized.
        sampleset = SampleSet.from_array(order, all_records, model)
        anneal_total = num_reads * (
            annealing_time_us + props.readout_time_us + props.delay_time_us
        )
        sampleset.info = {
            "solver": "dwave-2000q-simulator",
            "topology": self.topology.fingerprint(),
            "timing": {
                "qpu_programming_time_us": props.programming_time_us,
                "qpu_anneal_time_per_sample_us": annealing_time_us,
                "qpu_readout_time_per_sample_us": props.readout_time_us,
                "qpu_delay_time_per_sample_us": props.delay_time_us,
                "qpu_sampling_time_us": anneal_total,
                "qpu_access_time_us": props.programming_time_us + anneal_total,
            },
            "num_sweeps": num_sweeps,
            "num_reads": num_reads,
            "kernel": kernel_used,
            "noise_applied": apply_noise,
            "num_spin_reversal_transforms": num_spin_reversal_transforms,
        }
        if any_interrupted:
            sampleset.info["deadline_interrupted"] = True
        if reads_corrupted:
            sampleset.info["injected_read_corruption"] = reads_corrupted
        _observe_sample("dwave", sampleset, time.perf_counter() - start,
                        kernel=kernel_used, num_reads=num_reads,
                        num_sweeps=num_sweeps,
                        annealing_time_us=annealing_time_us,
                        gauges=num_spin_reversal_transforms)
        return sampleset

    @staticmethod
    def _apply_gauge(model: IsingModel, order, gauge) -> IsingModel:
        """Apply a spin-reversal gauge: h_i g_i, J_ij g_i g_j."""
        index = {v: i for i, v in enumerate(order)}
        gauged = IsingModel(offset=model.offset)
        for v, bias in model.linear.items():
            gauged.add_variable(v, bias * gauge[index[v]])
        for (u, v), coupling in model.quadratic.items():
            gauged.add_interaction(
                u, v, coupling * gauge[index[u]] * gauge[index[v]]
            )
        return gauged

    def _apply_control_noise(self, model: IsingModel) -> IsingModel:
        """Perturb coefficients with the machine's analog imprecision."""
        props = self.properties
        noisy = IsingModel(offset=model.offset)
        for v, bias in model.linear.items():
            jitter = float(self._rng.normal(0.0, props.noise_h)) if bias != 0.0 else 0.0
            noisy.add_variable(
                v, float(np.clip(bias + jitter, *props.h_range))
            )
        for (u, v), coupling in model.quadratic.items():
            jitter = float(self._rng.normal(0.0, props.noise_j)) if coupling != 0.0 else 0.0
            noisy.add_interaction(
                u, v, float(np.clip(coupling + jitter, *props.j_range))
            )
        return noisy
