"""F2 -- Figure 2: end-to-end transformation of the mux-add-sub circuit.

Figure 2(a) is Verilog; Figure 2(b) is a hardware-specific quadratic
pseudo-Boolean function whose minima are exactly the valid (s, a, b, c)
relations.  This benchmark runs the full pipeline (Verilog -> EDIF ->
QMASM -> logical Hamiltonian -> minor embedding onto Chimera -> physical
Hamiltonian) and checks the paper's three example points:

  minimized at {s=0, a=1, b=0, c=01} and {s=1, a=1, b=1, c=10},
  not at {s=1, a=0, b=0, c=11}.
"""

import pytest

from repro.hardware.chimera import chimera_graph
from repro.hardware.embedding import embed_ising, find_embedding, source_graph_of
from repro.hardware.scaling import check_ranges, scale_to_hardware

from benchmarks.conftest import FIGURE_2A


@pytest.fixture(scope="module")
def compiled(compiler):
    return compiler.compile(FIGURE_2A)


def test_fig2_compile_pipeline(benchmark, compiler):
    program = benchmark(compiler.compile, FIGURE_2A)
    stats = program.statistics()
    benchmark.extra_info["verilog_lines"] = stats["verilog_lines"]
    benchmark.extra_info["edif_lines"] = stats["edif_lines"]
    benchmark.extra_info["qmasm_lines"] = stats["qmasm_lines"]
    benchmark.extra_info["logical_variables"] = stats["logical_variables"]
    assert stats["logical_variables"] >= 6  # s, a, b, c[0], c[1] + internals


def test_fig2_relation_minima(benchmark, compiler, compiled):
    def solve():
        return compiler.run(compiled, solver="exact", num_reads=1 << 16)

    result = benchmark.pedantic(solve, rounds=1, iterations=1)
    ground_energy = result.solutions[0].energy
    ground = {
        (int(s.values["s"]), int(s.values["a"]), int(s.values["b"]),
         s.value_of("c"))
        for s in result.solutions
        if s.energy == pytest.approx(ground_energy)
    }
    assert (0, 1, 0, 0b01) in ground  # paper example 1
    assert (1, 1, 1, 0b10) in ground  # paper example 2
    assert (1, 0, 0, 0b11) not in ground  # paper's invalid example
    assert len(ground) == 8  # one c per (s, a, b)
    benchmark.extra_info["ground_relations"] = sorted(map(str, ground))


def test_fig2_physical_hamiltonian(benchmark, compiled):
    """Figure 2(b): the hardware-specific instantiation -- embedded onto
    Chimera with coefficients inside the machine's ranges."""
    logical, _ = compiled.logical.to_ising()
    target = chimera_graph(16)

    def lower():
        embedding = find_embedding(
            source_graph_of(logical), target, seed=11
        )
        physical = embed_ising(logical, embedding, target)
        scaled, factor = scale_to_hardware(physical)
        return embedding, scaled, factor

    embedding, scaled, factor = benchmark.pedantic(lower, rounds=1, iterations=1)
    check_ranges(scaled)
    for (u, v), coupling in scaled.quadratic.items():
        if coupling:
            assert target.has_edge(u, v)
    benchmark.extra_info["logical_variables"] = len(logical)
    benchmark.extra_info["physical_qubits"] = embedding.total_qubits()
    benchmark.extra_info["scale_factor"] = factor
    benchmark.extra_info["paper"] = (
        "Figure 2(b) maps s,a,b,c onto physical qubits with chains "
        "(c[0] on two qubits in the paper's example)"
    )
