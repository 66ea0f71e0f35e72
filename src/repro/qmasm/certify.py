"""Result certification: classical end-to-end checks of annealer reads.

The compiled artifact is a *relation*: by the definition of NP, any spin
assignment the annealer returns can be verified in polynomial time by
replaying the gate-level netlist forward (Section 5.2 of the paper; Bian
et al. lean on the same verify-the-answer-classically loop for SAT).
This module is that verifier.  It checks every read, and runs each
check once per call on the ``(reads, variables)`` spin matrix, after
one gather expands the reads over every QMASM variable:

1. **Energy recomputation** -- the read's reported energy is recomputed
   from the logical Ising model; disagreement means the read was
   corrupted somewhere between sampling and reporting (a
   low-energy-*looking* but wrong read).
2. **Netlist replay** -- every combinational cell's truth table
   (:data:`repro.ising.cells.CELL_LIBRARY`, the same tables
   :mod:`repro.synth.simulate` evaluates) is checked against the net
   values the read assigns, using the net->variable naming rule shared
   with :func:`repro.edif2qmasm.translate.net_variable_names`.  A cell
   whose output disagrees with its inputs is a gate violation.
3. **Pins and assertions** -- the read must respect every ``--pin`` and
   pass every ``!assert`` (each evaluated on whole columns).

Each read is classified as one of:

* ``certified`` -- energy matches and every constraint holds;
* ``energy_mismatch`` -- constraints hold but the reported energy is
  not the model's energy of the reported state;
* ``constraint_violation`` -- a gate, pin, or assertion fails (this
  dominates ``energy_mismatch`` when both apply).

The per-run :class:`Certificate` aggregates occurrence-weighted counts,
the certified fraction, per-cell violation counts, and the worst
offending cells; :class:`~repro.qmasm.runner.QmasmRunner` attaches it to
:class:`~repro.qmasm.runner.RunResult` and drives the self-repair loop
from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core import trace as _trace
from repro.ising.cells import CELL_LIBRARY
from repro.ising.model import IsingModel, spins_to_bits
from repro.qmasm.assembler import LogicalProgram, labels_per_row
from repro.solvers.sampleset import SampleSet

#: Read classification states, from best to worst.
CERTIFIED = "certified"
ENERGY_MISMATCH = "energy_mismatch"
CONSTRAINT_VIOLATION = "constraint_violation"
STATES = (CERTIFIED, ENERGY_MISMATCH, CONSTRAINT_VIOLATION)


@dataclass
class ReadCheck:
    """The certification verdict for one sample-set row.

    Attributes:
        index: the row's index in the certified sample set.
        state: one of :data:`STATES`.
        energy_reported: the energy the sample set carried.
        energy_recomputed: the model's energy of the reported state.
        gate_violations: names of cells whose output contradicts their
            inputs under this read.
        failed_assertions: source text of every failed ``!assert``.
        pins_respected: whether every pinned variable holds its value.
        num_occurrences: the row's occurrence count (weights the
            certificate's aggregate counts).
    """

    index: int
    state: str
    energy_reported: float
    energy_recomputed: float
    gate_violations: Tuple[str, ...] = ()
    failed_assertions: Tuple[str, ...] = ()
    pins_respected: bool = True
    num_occurrences: int = 1

    @property
    def certified(self) -> bool:
        return self.state == CERTIFIED


@dataclass
class Certificate:
    """The aggregated certification verdict for one run.

    Attributes:
        reads: per-row verdicts, aligned with the sample set's rows.
        counts: occurrence-weighted read counts per state.
        gate_violation_counts: occurrence-weighted violation counts per
            cell name.
        gates_checked: how many netlist cells were replayed per read
            (0 when no netlist was available -- energy/pin/assertion
            checks still ran).
        unchecked_cells: cells that could not be replayed (sequential
            cells, or cells whose nets were optimized out).
        energy_tolerance: relative tolerance of the energy comparison.
        repair: summary of the self-repair loop, when it ran
            (``rounds``, ``polished_reads``, ``resample_rounds``,
            ``reads_repaired``, ``certified_fraction_before``).
    """

    reads: List[ReadCheck] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    gate_violation_counts: Dict[str, int] = field(default_factory=dict)
    gates_checked: int = 0
    unchecked_cells: Tuple[str, ...] = ()
    energy_tolerance: float = 1e-6
    repair: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def total_reads(self) -> int:
        return sum(self.counts.values())

    @property
    def certified_reads(self) -> int:
        return self.counts.get(CERTIFIED, 0)

    @property
    def certified_fraction(self) -> float:
        total = self.total_reads
        return self.certified_reads / total if total else 1.0

    @property
    def ok(self) -> bool:
        """True when every read certified (the CLI's exit-code gate)."""
        return self.certified_fraction == 1.0

    def states(self) -> List[str]:
        """Per-row states, aligned with the sample set's row order."""
        return [read.state for read in self.reads]

    def uncertified_rows(self) -> List[int]:
        return [read.index for read in self.reads if not read.certified]

    def worst_cells(self, n: int = 5) -> List[Tuple[str, int]]:
        """The ``n`` cells with the most violations, worst first."""
        ranked = sorted(
            self.gate_violation_counts.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked[:n]

    def summary(self) -> str:
        """One line for reports: state counts and the worst offenders."""
        parts = [
            f"certified {self.certified_reads}/{self.total_reads} reads "
            f"({self.certified_fraction:.1%})"
        ]
        for state in (ENERGY_MISMATCH, CONSTRAINT_VIOLATION):
            if self.counts.get(state):
                parts.append(f"{state}={self.counts[state]}")
        worst = self.worst_cells(3)
        if worst:
            cells = ", ".join(f"{name} x{count}" for name, count in worst)
            parts.append(f"worst cells: {cells}")
        if self.repair:
            parts.append(
                f"repaired in {int(self.repair.get('rounds', 0))} round(s)"
            )
            if self.repair.get("reads_dropped"):
                parts.append(
                    f"dropped {int(self.repair['reads_dropped'])} "
                    "unrepairable read(s)"
                )
        return "; ".join(parts)


@lru_cache(maxsize=None)
def _truth_table(kind: str) -> np.ndarray:
    """A cell's output for every input combination, indexed by the
    inputs packed as bits (the first input is bit 0)."""
    from repro.synth.netlist import CONSTANT_CELLS

    if kind in CONSTANT_CELLS:
        table = np.array([bool(CONSTANT_CELLS[kind])])
    else:
        spec = CELL_LIBRARY[kind]
        width = len(spec.inputs)
        table = np.array([
            bool(spec.function(*((index >> bit) & 1 == 1 for bit in range(width))))
            for index in range(1 << width)
        ])
    table.flags.writeable = False  # shared by every call
    return table


def _replay_netlist(
    netlist, bits: np.ndarray, column: Mapping[str, int]
) -> Tuple[List[str], np.ndarray, List[str]]:
    """Replay every combinational cell on every read at once.

    Cells of one kind are checked together: their packed input bits
    index the kind's truth table, and the result is compared with their
    output columns.  Uses the net->variable naming rule shared with
    :func:`repro.edif2qmasm.translate.net_variable_names`.

    Returns:
        ``(checked, violations, unchecked)``: the replayed cells in
        netlist order, a ``(reads, len(checked))`` matrix that is True
        where a cell's output contradicts its inputs, and the cells that
        could not be replayed, in netlist order -- flip-flops, which
        relate two *time steps* (unrolled designs have none), and cells
        with a net missing from ``column`` (optimized out of the
        program, or a netlist the program was not translated from).
    """
    from repro.edif2qmasm.translate import net_variable_names
    from repro.synth.netlist import CONSTANT_CELLS

    net_vars = net_variable_names(netlist)
    checked: List[str] = []
    unchecked: List[str] = []
    groups: Dict[str, List[Tuple[int, List[int]]]] = {}
    for cell in netlist.cells.values():
        if cell.is_sequential:
            unchecked.append(cell.name)
            continue
        ports = () if cell.kind in CONSTANT_CELLS else CELL_LIBRARY[cell.kind].inputs
        nets = [cell.connections[port] for port in ports] + [cell.output_net]
        names = [net_vars[net] for net in nets]
        if any(name not in column for name in names):
            unchecked.append(cell.name)
            continue
        groups.setdefault(cell.kind, []).append(
            (len(checked), [column[name] for name in names])
        )
        checked.append(cell.name)

    violations = np.zeros((len(bits), len(checked)), dtype=bool)
    for kind, members in groups.items():
        positions = [position for position, _ in members]
        columns = np.array([cols for _, cols in members])
        inputs = bits[:, columns[:, :-1]]  # (reads, cells, inputs)
        packed = inputs @ (1 << np.arange(inputs.shape[2]))
        violations[:, positions] = _truth_table(kind)[packed] != bits[:, columns[:, -1]]
    return checked, violations, unchecked


def expand_read(
    assignment: Mapping[str, int],
    logical: LogicalProgram,
    representative: Mapping[str, str],
    fixed: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """One read's spins over *every* QMASM variable.

    Combines roof-duality-fixed spins with the sampled representative
    spins and spreads them back across chain-contracted variables --
    the same expansion the runner's solution report performs.
    """
    fixed = fixed or {}
    spins: Dict[str, int] = dict(fixed)
    spins.update(assignment)
    full = logical.expand_sample(spins, representative)
    for variable, rep in representative.items():
        if rep in fixed:
            full[variable] = fixed[rep]
    return full


def expand_reads(
    records: np.ndarray,
    variables: Sequence[str],
    representative: Mapping[str, str],
    fixed: Optional[Mapping[str, int]] = None,
) -> Tuple[Dict[str, int], np.ndarray]:
    """:func:`expand_read` on every row of a spin matrix, in one gather.

    Returns ``(column, spins)``: ``spins`` holds one row per read and
    one column per QMASM variable the reads or the fixed spins cover,
    and ``column`` maps each such variable to its column.  A fixed
    spin wins over a sampled one, as in :func:`expand_read`.
    """
    fixed = fixed or {}
    sampled = {variable: j for j, variable in enumerate(variables)}
    fixed_column = {rep: records.shape[1] + k for k, rep in enumerate(fixed)}
    source = np.concatenate(
        [records, np.broadcast_to(
            np.array(list(fixed.values()), dtype=int), (len(records), len(fixed))
        )],
        axis=1,
    )
    column: Dict[str, int] = {}
    gather: List[int] = []
    for variable, rep in representative.items():
        j = fixed_column.get(rep, sampled.get(rep))
        if j is not None:
            column[variable] = len(gather)
            gather.append(j)
    return column, source[:, gather]


def certify_sampleset(
    sampleset: SampleSet,
    logical: LogicalProgram,
    representative: Mapping[str, str],
    model: IsingModel,
    fixed: Optional[Mapping[str, int]] = None,
    netlist=None,
    energy_tolerance: float = 1e-6,
) -> Certificate:
    """Certify every read of a logical sample set.

    Every check runs once per call on the ``(reads, variables)`` spin
    matrix, not once per read.

    Args:
        sampleset: logical samples (post-unembedding for hardware runs).
        logical: the assembled program (pins, assertions, chains).
        representative: the chain-contraction map from
            :meth:`LogicalProgram.to_ising`.
        model: the Ising model the sample energies were reported
            against (the roof-duality-reduced model for reduced runs).
        fixed: roof-duality-fixed spins, if any.
        netlist: the gate-level :class:`~repro.synth.netlist.Netlist`
            to replay, when available; None limits certification to
            energy, pin, and assertion checks.
        energy_tolerance: relative tolerance for the energy comparison
            (scaled by ``max(1, |E_reported|)``).

    Returns:
        A :class:`Certificate` whose ``reads`` align with the sample
        set's rows.

    Raises:
        ValueError: a read holds a spin that is not +/-1.
    """
    reads = len(sampleset)
    with _trace.span("certify.check", reads=reads) as span:
        # Recompute every row's energy in one vectorized pass.
        if reads:
            recomputed = model.energies(
                sampleset.records.astype(float), order=list(sampleset.variables)
            )
        else:
            recomputed = np.zeros(0)
        reported = sampleset.energies
        tolerance = energy_tolerance * np.maximum(1.0, np.abs(reported))
        energy_matches = np.abs(recomputed - reported) <= tolerance

        column, spins = expand_reads(
            sampleset.records, sampleset.variables, representative, fixed
        )
        bits = spins_to_bits(spins)
        checked: List[str] = []
        unchecked: List[str] = []
        violations = np.zeros((reads, 0), dtype=bool)
        if netlist is not None:
            checked, violations, unchecked = _replay_netlist(netlist, bits, column)
        span.set_attribute("gates", len(checked))

        certificate = Certificate(
            counts={state: 0 for state in STATES},
            gates_checked=len(checked),
            unchecked_cells=tuple(unchecked),
            energy_tolerance=energy_tolerance,
        )
        rows = zip(
            labels_per_row(violations, checked),
            logical.failed_assertions(bits, column),
            logical.pins_respected(bits, column).tolist(),
            energy_matches.tolist(),
            reported.tolist(),
            recomputed.tolist(),
            sampleset.occurrences.tolist(),
        )
        for index, row in enumerate(rows):
            cells, failed, pins_ok, energy_ok, e_reported, e_recomputed, count = row
            if cells or failed or not pins_ok:
                state = CONSTRAINT_VIOLATION
            elif not energy_ok:
                state = ENERGY_MISMATCH
            else:
                state = CERTIFIED
            certificate.reads.append(ReadCheck(
                index=index,
                state=state,
                energy_reported=e_reported,
                energy_recomputed=e_recomputed,
                gate_violations=cells,
                failed_assertions=failed,
                pins_respected=pins_ok,
                num_occurrences=count,
            ))
            certificate.counts[state] += count

        # Per-cell counts, keyed in order of each cell's first violation.
        hit = np.flatnonzero(violations.any(axis=0))
        if len(hit):
            first = violations[:, hit].argmax(axis=0)
            weighted = sampleset.occurrences @ violations
            for k in hit[np.lexsort((hit, first))]:
                certificate.gate_violation_counts[checked[k]] = int(weighted[k])
    _trace.event(
        "certify.result",
        reads=certificate.total_reads,
        certified_fraction=certificate.certified_fraction,
    )
    return certificate
