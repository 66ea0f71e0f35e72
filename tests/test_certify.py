"""Tests for result certification and self-repair (repro.qmasm.certify).

The certifier is the classical end of the NP loop: any read the
annealer returns must be checkable in polynomial time.  These tests
cover the per-read classification (energy recomputation, gate replay,
pins), the aggregated Certificate, the corrupt_reads adversary stage
(zero false "certified" under injected read corruption), the repair
loop's restore-to-1.0 guarantee, and the retry-policy regression for a
strict zero chain-break threshold.
"""

import numpy as np
import pytest

from repro.core.compiler import VerilogAnnealerCompiler
from repro.core.faults import parse_fault_spec
from repro.qmasm.certify import (
    CERTIFIED,
    CONSTRAINT_VIOLATION,
    ENERGY_MISMATCH,
    Certificate,
    ReadCheck,
    certify_sampleset,
    expand_read,
)
from repro.qmasm import runner as runner_module
from repro.qmasm.runner import QmasmRunner
from repro.solvers.machine import DWaveSimulator, MachineProperties
from repro.solvers.sampleset import SampleSet

AND_PROGRAM = "!include <stdcell>\n!use_macro AND g\n"

MAJORITY_V = """
module maj3 (a, b, c, y);
   input a, b, c;
   output y;
   assign y = (a & b) | (a & c) | (b & c);
endmodule
"""


def _machine(**kwargs):
    return DWaveSimulator(
        properties=MachineProperties(cells=4, dropout_fraction=0.0),
        seed=0,
        **kwargs,
    )


@pytest.fixture(scope="module")
def runner():
    return QmasmRunner(machine=_machine(), seed=0)


# ----------------------------------------------------------------------
# Per-read classification
# ----------------------------------------------------------------------
def test_clean_run_certifies_every_read(runner):
    result = runner.run(
        AND_PROGRAM, solver="sa", num_reads=20, certify=True
    )
    certificate = result.certificate
    assert certificate is not None
    assert certificate.ok
    assert certificate.certified_fraction == 1.0
    assert certificate.total_reads == len(result.sampleset)
    assert result.info["certificate"].startswith("certified ")


def test_certificate_none_when_not_requested(runner):
    result = runner.run(AND_PROGRAM, solver="sa", num_reads=5)
    assert result.certificate is None
    assert "certificate" not in result.info
    assert result.stats["certify"].skipped


def test_tampered_read_gets_energy_mismatch(runner):
    result = runner.run(
        AND_PROGRAM, solver="sa", num_reads=10, certify=True
    )
    sampleset = result.sampleset
    # Report a wrong energy for row 0 while the state itself stays a
    # valid gate assignment: only the energy check can catch this.
    energies = sampleset.energies.copy()
    energies[0] += 5.0
    tampered = SampleSet(
        sampleset.variables,
        sampleset.records.copy(),
        energies,
        sampleset.occurrences.copy(),
        dict(sampleset.info),
    )
    certificate = certify_sampleset(
        tampered,
        result.logical,
        result.representative,
        result.logical.to_ising()[0],
    )
    # SampleSet re-sorts rows by (now tampered) energy, so locate the
    # tampered row by verdict instead of assuming it stayed at index 0.
    states = certificate.states()
    assert states.count(ENERGY_MISMATCH) == 1
    row = states.index(ENERGY_MISMATCH)
    assert not certificate.ok
    assert certificate.uncertified_rows() == [row]
    read = certificate.reads[row]
    assert read.energy_reported == pytest.approx(read.energy_recomputed + 5.0)


def test_flipped_spin_is_never_falsely_certified(runner):
    """Flip one observable spin per row: no tampered row may certify."""
    result = runner.run(
        AND_PROGRAM, solver="sa", num_reads=10, certify=True
    )
    sampleset = result.sampleset
    model = result.logical.to_ising()[0]
    records = sampleset.records.copy()
    records[:, 0] *= -1  # g.A participates in the AND penalty: observable
    tampered = SampleSet(
        sampleset.variables,
        records,
        sampleset.energies.copy(),  # stale: pre-flip energies
        sampleset.occurrences.copy(),
        dict(sampleset.info),
    )
    certificate = certify_sampleset(
        tampered, result.logical, result.representative, model
    )
    assert certificate.certified_reads == 0
    assert set(certificate.states()) <= {
        ENERGY_MISMATCH, CONSTRAINT_VIOLATION
    }


# ----------------------------------------------------------------------
# Gate replay through the compiled netlist
# ----------------------------------------------------------------------
def test_gate_replay_names_the_violated_cell():
    compiler = VerilogAnnealerCompiler(seed=0)
    program = compiler.compile(MAJORITY_V)
    result = compiler.run(program, solver="sa", num_reads=15, certify=True)
    certificate = result.certificate
    assert certificate.gates_checked > 0
    assert certificate.ok

    # Break the output net in every read: some cell must be implicated.
    sampleset = result.sampleset
    column = sampleset.variables.index("y")
    records = sampleset.records.copy()
    records[:, column] *= -1
    tampered = SampleSet(
        sampleset.variables,
        records,
        sampleset.energies.copy(),
        sampleset.occurrences.copy(),
        dict(sampleset.info),
    )
    broken = certify_sampleset(
        tampered,
        result.logical,
        result.representative,
        result.logical.to_ising()[0],
        netlist=program.netlist,
    )
    assert broken.certified_reads == 0
    assert all(
        read.state == CONSTRAINT_VIOLATION for read in broken.reads
    )
    assert broken.gate_violation_counts
    assert broken.worst_cells(1)[0][1] > 0
    assert "worst cells" in broken.summary()


MULT3_V = """
module mult (A, B, C);
   input [2:0] A;
   input [2:0] B;
   output [5:0] C;
   assign C = A * B;
endmodule
"""


def test_cells_that_cannot_be_replayed_are_reported():
    """A cell whose nets the program lacks is listed, not counted."""
    compiler = VerilogAnnealerCompiler(seed=0)
    program = compiler.compile(MULT3_V)
    result = compiler.run(program, solver="sa", num_reads=10, certify=True)
    assert result.certificate.gates_checked == len(program.edif_netlist.cells)
    assert result.certificate.unchecked_cells == ()

    # The pre-EDIF netlist numbers its internal nets differently, so
    # some of its cells name variables the program does not have.
    stale = certify_sampleset(
        result.sampleset,
        result.logical,
        result.representative,
        result.solve_model,
        fixed=result.fixed_spins,
        netlist=program.netlist,
    )
    names = [cell.name for cell in program.netlist.cells.values()]
    unchecked = list(stale.unchecked_cells)
    assert unchecked
    assert unchecked == [name for name in names if name in unchecked]
    assert stale.gates_checked == len(names) - len(unchecked)
    assert not set(stale.gate_violation_counts) & set(unchecked)


def test_pin_violation_is_constraint_violation(runner):
    result = runner.run(
        AND_PROGRAM,
        pins=["g.Y := true"],
        solver="sa",
        num_reads=10,
        certify=True,
    )
    assert result.certificate.ok
    sampleset = result.sampleset
    column = sampleset.variables.index("g.Y")
    records = sampleset.records.copy()
    records[:, column] = -1  # break the pin everywhere
    model = result.logical.to_ising()[0]
    energies = model.energies(
        records.astype(float), order=list(sampleset.variables)
    )
    tampered = SampleSet(
        sampleset.variables, records, np.asarray(energies),
        sampleset.occurrences.copy(), dict(sampleset.info),
    )
    certificate = certify_sampleset(
        tampered, result.logical, result.representative, model
    )
    assert all(not read.pins_respected for read in certificate.reads)
    assert all(
        read.state == CONSTRAINT_VIOLATION for read in certificate.reads
    )


def test_expand_read_covers_all_variables(runner):
    result = runner.run(AND_PROGRAM, solver="sa", num_reads=3, certify=True)
    sample = next(iter(result.sampleset))
    full = expand_read(
        sample.assignment, result.logical, result.representative,
        result.fixed_spins,
    )
    assert set(full) >= {"g.A", "g.B", "g.Y"}
    assert all(value in (-1, 1) for value in full.values())


# ----------------------------------------------------------------------
# Certificate aggregation
# ----------------------------------------------------------------------
def test_empty_certificate_is_vacuously_ok():
    certificate = Certificate()
    assert certificate.total_reads == 0
    assert certificate.certified_fraction == 1.0
    assert certificate.ok
    assert certificate.summary().startswith("certified 0/0")


def test_counts_are_occurrence_weighted():
    certificate = Certificate(counts={s: 0 for s in (
        CERTIFIED, ENERGY_MISMATCH, CONSTRAINT_VIOLATION)})
    for index, (state, occurrences) in enumerate(
        [(CERTIFIED, 3), (CONSTRAINT_VIOLATION, 2)]
    ):
        certificate.reads.append(ReadCheck(
            index=index, state=state, energy_reported=0.0,
            energy_recomputed=0.0, num_occurrences=occurrences,
        ))
        certificate.counts[state] += occurrences
    assert certificate.total_reads == 5
    assert certificate.certified_reads == 3
    assert certificate.certified_fraction == pytest.approx(0.6)
    assert certificate.uncertified_rows() == [1]


# ----------------------------------------------------------------------
# The corrupt_reads adversary and the zero-false-certified guarantee
# ----------------------------------------------------------------------
def test_injected_corruption_is_always_flagged():
    """Every corrupted read must fail certification -- no false passes."""
    machine = _machine(
        faults=parse_fault_spec("read_corruption=40%,seed=3")
    )
    runner = QmasmRunner(machine=machine, seed=7)
    result = runner.run(
        AND_PROGRAM, solver="dwave", num_reads=30, certify=True
    )
    corrupted = result.info.get("read_corruption_rows", [])
    assert corrupted, "the fault model injected nothing"
    states = result.certificate.states()
    flagged = [row for row in corrupted if states[row] != CERTIFIED]
    assert flagged == corrupted  # 100% detection, zero false certified
    assert result.stats["corrupt_reads"].counters["corrupted"] == len(
        corrupted
    )


def test_corruption_leaves_reported_energies_stale():
    machine = _machine(
        faults=parse_fault_spec("read_corruption=40%,seed=5")
    )
    runner = QmasmRunner(machine=machine, seed=7)
    result = runner.run(
        AND_PROGRAM, solver="dwave", num_reads=30, certify=True
    )
    model = result.logical.to_ising()[0]
    recomputed = model.energies(
        result.sampleset.records.astype(float),
        order=list(result.sampleset.variables),
    )
    corrupted = result.info["read_corruption_rows"]
    # The observability mask guarantees each injected flip changes the
    # true energy, so the stale report disagrees on every corrupted row.
    for row in corrupted:
        assert recomputed[row] != pytest.approx(
            result.sampleset.energies[row]
        )


def test_corrupt_reads_stage_skipped_without_faults(runner):
    result = runner.run(AND_PROGRAM, solver="sa", num_reads=5, certify=True)
    assert result.stats["corrupt_reads"].skipped
    assert "read_corruption_rows" not in result.info


# ----------------------------------------------------------------------
# Self-repair
# ----------------------------------------------------------------------
def test_repair_restores_full_certification():
    machine = _machine(
        faults=parse_fault_spec("read_corruption=40%,seed=3")
    )
    runner = QmasmRunner(machine=machine, seed=7)
    result = runner.run(
        AND_PROGRAM, solver="dwave", num_reads=30, certify=True, repair=True
    )
    certificate = result.certificate
    assert certificate.ok
    assert certificate.certified_fraction == 1.0
    repair = certificate.repair
    assert repair["rounds"] >= 1
    assert repair["certified_fraction_before"] < 1.0
    resilience = result.info["resilience"]
    assert resilience["repair_rounds"] == repair["rounds"]
    assert resilience["repair_polished_reads"] == repair["polished_reads"]
    assert "repaired in" in result.info["certificate"]


def test_repair_skipped_when_already_certified(runner):
    result = runner.run(
        AND_PROGRAM, solver="sa", num_reads=10, certify=True, repair=True
    )
    assert result.certificate.ok
    assert result.stats["repair"].skipped
    assert result.certificate.repair == {}


def test_repair_classical_path_restores_certification():
    runner = QmasmRunner(machine=_machine(), seed=0)
    result = runner.run(
        AND_PROGRAM, solver="sa", num_reads=8, num_sweeps=2,
        certify=True, repair=True,
    )
    # Two-sweep anneals leave hot reads; polish must finish the job.
    assert result.certificate.ok


# ----------------------------------------------------------------------
# Resilience constants
# ----------------------------------------------------------------------
def test_zero_chain_break_threshold_is_strict(monkeypatch):
    """threshold=0.0 must NOT escalate on a clean (0.0) unembedding."""
    machine = _machine()
    runner = QmasmRunner(machine=machine, seed=0)
    monkeypatch.setattr(runner_module, "CHAIN_BREAK_THRESHOLD", 0.0)
    result = runner.run(AND_PROGRAM, solver="dwave", num_reads=30)
    break_fraction = result.sampleset.info.get("chain_break_fraction", 0.0)
    assert break_fraction == 0.0  # seed chosen for a clean unembedding
    # Quiet runs omit zero counters, so the key must be absent or 0.
    resilience = result.info["resilience"]
    assert resilience.get("chain_strength_escalations", 0) == 0
