"""Differential test: the array-native embedder against its reference.

:func:`repro.hardware.embedding.find_embedding` must find exactly the
chains the networkx reference in ``tests/embedding_reference.py`` finds
for the same (source, target, seed): the Dijkstra tie-breaks, the RNG
draws and the trim order decide the embedding, and the rewrite kept all
three.  The cases span the benchmark's own inputs (45-variable verifiers
on a C12 with yield faults), complete and random graphs on every
topology family and on a degraded Chimera, integer and string labels,
and several seeds.
"""

import networkx as nx
import pytest

from repro import VerilogAnnealerCompiler
from repro.core.workloads import map_coloring_verilog
from repro.hardware import make_topology
from repro.hardware.chimera import chimera_graph, coupler_dropout, dropout
from repro.hardware.embedding import find_embedding, source_graph_of
from repro.solvers.machine import DWaveSimulator, MachineProperties
from tests.embedding_reference import reference_find_embedding

MULT3 = """module mult (A, B, C);
   input [2:0] A;
   input [2:0] B;
   output [5:0] C;
   assign C = A * B;
endmodule
"""


def _strings(graph: nx.Graph) -> nx.Graph:
    return nx.relabel_nodes(graph, lambda v: f"v{v}")


def _design_graph(verilog: str) -> nx.Graph:
    program = VerilogAnnealerCompiler(seed=0).compile(verilog)
    model, _ = program.logical.to_ising()
    return source_graph_of(model)


def _degraded_chimera() -> nx.Graph:
    graph = dropout(chimera_graph(4), fraction=0.06, seed=3)
    return coupler_dropout(graph, fraction=0.04, seed=4)


TARGETS = {
    "C4": lambda: chimera_graph(4),
    "P3": lambda: make_topology("pegasus", size=3).graph,
    "Z2": lambda: make_topology("zephyr", size=2).graph,
    "C4-degraded": _degraded_chimera,
}

SOURCES = {
    "K6": lambda: nx.complete_graph(6),
    "K8-str": lambda: _strings(nx.complete_graph(8)),
    "gnp12": lambda: nx.gnp_random_graph(12, 0.35, seed=5),
    "gnp10-str": lambda: _strings(nx.gnp_random_graph(10, 0.45, seed=6)),
}


def _assert_same_chains(source, target, seed, **budget):
    ours = find_embedding(source, target, seed=seed, **budget)
    reference = reference_find_embedding(source, target, seed=seed, **budget)
    assert list(ours.chains.items()) == list(reference.chains.items())


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("target_name", sorted(TARGETS))
@pytest.mark.parametrize("source_name", sorted(SOURCES))
def test_small_graphs_match_reference(source_name, target_name, seed):
    _assert_same_chains(SOURCES[source_name](), TARGETS[target_name](), seed)


@pytest.fixture(scope="module")
def c12_with_yield_faults():
    props = MachineProperties(cells=12, coupler_dropout_fraction=0.01)
    return DWaveSimulator(props, seed=0).working_graph


@pytest.fixture(scope="module")
def verifier_graphs():
    regions = [f"R{i}" for i in range(5)]
    borders = [("R0", "R1"), ("R0", "R2"), ("R1", "R3"), ("R2", "R4"),
               ("R3", "R4"), ("R1", "R2")]
    return {
        "mult3": _design_graph(MULT3),
        "map5": _design_graph(map_coloring_verilog(regions, borders)),
    }


@pytest.mark.parametrize(
    "design, labels, seed",
    [("mult3", "str", 11), ("mult3", "int", 1127469935), ("map5", "str", 3)],
)
def test_verifiers_on_c12_match_reference(
    verifier_graphs, c12_with_yield_faults, design, labels, seed
):
    source = verifier_graphs[design]
    if labels == "int":
        source = nx.convert_node_labels_to_integers(source)
    _assert_same_chains(
        source, c12_with_yield_faults, seed, tries=16, max_attempts=3
    )


def test_escalated_attempts_match_reference():
    """K7 on a damaged C2 fails its first two attempts (five failed
    restarts), so both sides run the escalation's deeper rounds."""
    target = dropout(chimera_graph(2), fraction=0.1, seed=1)
    source = nx.complete_graph(7)
    _assert_same_chains(source, target, 0, tries=2, rounds=1, max_attempts=3)
