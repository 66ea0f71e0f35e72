"""qmasm-style text reports of run results.

qmasm reports each solution "in terms of the program-specified symbolic
names rather than as physical qubit numbers", with a tally across the
anneals and the energy; this module renders our :class:`RunResult` the
same way, plus a compilation summary block for the CLI.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.compiler import CompiledProgram
from repro.qmasm.runner import RunResult, Solution


def format_solution(solution: Solution, rank: int) -> str:
    header = (
        f"Solution #{rank} (energy {solution.energy:.4f}, "
        f"tally {solution.num_occurrences})"
    )
    flags = []
    if not solution.pins_respected:
        flags.append("PINS VIOLATED")
    if solution.failed_assertions:
        flags.append(
            "FAILED ASSERTS: " + "; ".join(solution.failed_assertions)
        )
    if flags:
        header += "  [" + " | ".join(flags) + "]"
    lines = [header + ":"]
    for name, value in sorted(solution.values.items()):
        lines.append(f"    {name} = {int(value)}")
    return "\n".join(lines)


def format_run_result(
    result: RunResult,
    max_solutions: Optional[int] = 10,
    valid_only: bool = True,
) -> str:
    """The full report: summary line, solutions, and run statistics."""
    solutions = result.valid_solutions if valid_only else result.solutions
    shown = solutions if max_solutions is None else solutions[:max_solutions]

    lines: List[str] = []
    total_reads = result.sampleset.total_reads() if len(result.sampleset) else 0
    lines.append(
        f"{len(solutions)} solution(s) over {total_reads} read(s); "
        f"{result.num_logical_variables()} logical variable(s)"
        + (
            f", {result.num_physical_qubits()} physical qubit(s)"
            if result.embedding is not None
            else ""
        )
    )
    for rank, solution in enumerate(shown, start=1):
        lines.append("")
        lines.append(format_solution(solution, rank))
    hidden = len(solutions) - len(shown)
    if hidden > 0:
        lines.append("")
        lines.append(f"... {hidden} more solution(s) not shown")

    info_bits = []
    if "timing" in result.info:
        access_ms = result.info["timing"]["qpu_access_time_us"] / 1000.0
        info_bits.append(f"QPU access time {access_ms:.1f} ms")
    if "chain_break_fraction" in result.info:
        info_bits.append(
            f"chain breaks {result.info['chain_break_fraction']:.1%}"
        )
    if result.info.get("roof_duality_fixed"):
        info_bits.append(
            f"{result.info['roof_duality_fixed']} qubit(s) elided a priori"
        )
    resilience = result.info.get("resilience", {})
    if resilience.get("sample_retries"):
        info_bits.append(
            f"{resilience['sample_retries']} sample retry(ies)"
        )
    if resilience.get("chain_strength_escalations"):
        info_bits.append(
            f"chain strength escalated "
            f"{resilience['chain_strength_escalations']}x"
        )
    answered_by = result.info.get("answered_by")
    if answered_by not in (None, "dwave") and "fallback_solver" in result.info:
        info_bits.append(f"answered by fallback tier {answered_by!r}")
    if info_bits:
        lines.append("")
        lines.append("run info: " + ", ".join(info_bits))
    return "\n".join(lines)


def format_read_counts(result: RunResult) -> str:
    """The ``--stats`` lines for a run: reads asked for and returned."""
    return "\n".join(
        [
            "sampling:",
            f"    reads requested   : {result.info['reads_requested']}",
            f"    reads returned    : {result.info['reads_returned']}",
        ]
    )


def format_compile_summary(program: CompiledProgram) -> str:
    """The per-compilation statistics block (Section 6.1's metrics)."""
    stats = program.statistics()
    lines = [
        f"module {program.netlist.name!r}:",
        f"    Verilog lines     : {stats['verilog_lines']}",
        f"    EDIF lines        : {stats['edif_lines']}",
        f"    QMASM lines       : {stats['qmasm_lines']}",
        f"    cells             : {stats['num_cells']} {stats['cells']}",
        f"    logical variables : {stats['logical_variables']}",
        f"    logical terms     : {stats['logical_terms']}",
    ]
    return "\n".join(lines)
