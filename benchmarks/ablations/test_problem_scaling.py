"""Ablation: problem scale vs the 2048-qubit budget (Sections 2 / 5.1).

"With at most 2048 qubits for code plus data, it is clearly infeasible
to compile large Verilog programs to a current-generation quantum
annealer."  This study quantifies that: logical variables and physical
qubits as the factoring multiplier widens, and where the C16 budget
runs out.
"""

from repro.hardware.chimera import chimera_graph
from repro.hardware.embedding import find_embedding, source_graph_of


def _multiplier(width: int) -> str:
    return f"""
    module mult (A, B, C);
       input [{width - 1}:0] A;
       input [{width - 1}:0] B;
       output[{2 * width - 1}:0] C;
       assign C = A * B;
    endmodule
    """


def test_multiplier_width_scaling(benchmark, compiler):
    def measure():
        rows = {}
        for width in (2, 3, 4, 6, 8):
            program = compiler.compile(_multiplier(width))
            stats = program.statistics()
            rows[width] = {
                "cells": stats["num_cells"],
                "logical_variables": stats["logical_variables"],
            }
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    # An array multiplier grows ~quadratically with operand width.
    assert rows[8]["logical_variables"] > 3 * rows[4]["logical_variables"]
    assert rows[4]["logical_variables"] > 2 * rows[2]["logical_variables"]
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["paper"] = (
        "qubit scarcity bounds the factoring width (Section 5.3 uses 4x4)"
    )


def test_physical_budget_on_c16(benchmark, compiler):
    """Embed widening multipliers until the C16 budget bites."""
    target = chimera_graph(16)

    def measure():
        rows = {}
        for width in (2, 4):
            program = compiler.compile(_multiplier(width))
            logical, _ = program.logical.to_ising(apply_pins=False)
            embedding = find_embedding(
                source_graph_of(logical), target, seed=0
            )
            rows[width] = {
                "logical": len(logical),
                "physical": embedding.total_qubits(),
                "fraction_of_2048": round(
                    embedding.total_qubits() / 2048, 3
                ),
            }
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    # The paper's 4x4 multiplier must comfortably fit the 2000Q.
    assert rows[4]["physical"] < 2048
    # Physical cost grows superlinearly with width (denser interaction
    # graphs need longer chains).
    growth = rows[4]["physical"] / rows[2]["physical"]
    assert growth > 2.0
    benchmark.extra_info["rows"] = rows
