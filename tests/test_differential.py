"""Property-based differential harness: simulator vs Hamiltonian.

Random combinational netlists are built directly over the paper's
Table 5 cell library, then checked two ways against each other:

* classically, with :class:`repro.synth.simulate.NetlistSimulator`
  (the truth table); and
* through the annealing path -- netlist -> QMASM -> assembled logical
  program -> Ising model -> exhaustive ground-state enumeration with
  :class:`repro.solvers.exact.ExactSolver`.

Equation (2) of the paper demands the ground states of the assembled
Hamiltonian be *exactly* the circuit's satisfying assignments, so the
two projections must agree as sets.  The same ground states then check
the minor embedding through :func:`embed_ising`: two properties that
hold for any valid embedding, whatever embedder found it.  Uses
hypothesis when available
(it is property-based fuzzing proper); a seeded-random fallback keeps
the harness running on minimal installs.
"""

import random

import pytest

from repro.edif2qmasm.translate import netlist_to_qmasm
from repro.hardware.chimera import chimera_graph
from repro.hardware.embedding import embed_ising, find_embedding, source_graph_of
from repro.ising.cells import CELL_LIBRARY
from repro.ising.model import spin_to_bool
from repro.qmasm.assembler import assemble
from repro.qmasm.parser import parse_qmasm
from repro.solvers.exact import ExactSolver
from repro.synth.netlist import Netlist, PortDirection
from repro.synth.simulate import NetlistSimulator

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - baked into the image normally
    HAVE_HYPOTHESIS = False

#: Every combinational Table 5 cell (flip-flops need unrolling first).
COMBINATIONAL_CELLS = sorted(
    name for name in CELL_LIBRARY if not name.startswith("DFF")
)

#: Exhaustive enumeration bound; every generated circuit fits well
#: under it (<= 4 inputs + 3 gates x (1 output + <= 2 ancillas)).
MAX_SPINS = 18

#: Embedding target: every generated circuit embeds on it in milliseconds.
TARGET = chimera_graph(4)


def build_random_netlist(choose):
    """Build a random combinational netlist over Table 5 cells.

    Args:
        choose: ``choose(options) -> option`` -- the single source of
            randomness, so one builder serves both the hypothesis
            strategy (``data.draw``) and the seeded-random fallback.

    Returns:
        ``(netlist, input_names)`` -- a netlist with 1-bit input ports
        ``i0..iN`` and a 1-bit output port ``y`` driven by the last
        gate; intermediate gates may feed later ones or dangle (the
        Hamiltonian must still constrain them consistently).
    """
    num_inputs = choose([2, 3, 4])
    netlist = Netlist("differential")
    nets = []
    input_names = []
    for index in range(num_inputs):
        net = netlist.new_net()
        netlist.add_port(f"i{index}", PortDirection.INPUT, [net])
        nets.append(net)
        input_names.append(f"i{index}")
    out = None
    for _ in range(choose([1, 2, 3])):
        kind = choose(COMBINATIONAL_CELLS)
        spec = CELL_LIBRARY[kind]
        connections = {port: choose(nets) for port in spec.inputs}
        out = netlist.new_net()
        connections[spec.output] = out
        netlist.add_cell(kind, connections)
        nets.append(out)
    netlist.add_port("y", PortDirection.OUTPUT, [out])
    return netlist, input_names


def assert_hamiltonian_matches_truth_table(netlist, input_names):
    """The Ising ground states projected onto (inputs, y) must equal
    the simulator's truth table over the same ports."""
    simulator = NetlistSimulator(netlist)
    logical = assemble(parse_qmasm(netlist_to_qmasm(netlist)))
    model, representative = logical.to_ising()
    assert len(model) <= MAX_SPINS, (
        f"generated model too large to enumerate ({len(model)} spins)"
    )
    ground = ExactSolver(max_variables=MAX_SPINS).ground_states(model)
    assert len(ground), "Hamiltonian has no ground states at all"

    watched = input_names + ["y"]
    observed = set()
    for sample in ground:
        full = logical.expand_sample(sample.assignment, representative)
        observed.add(tuple(spin_to_bool(full[name]) for name in watched))

    expected = set()
    for value in range(1 << len(input_names)):
        inputs = {
            name: (value >> bit) & 1 for bit, name in enumerate(input_names)
        }
        output = simulator.evaluate(inputs)["y"]
        expected.add(
            tuple(bool(inputs[n]) for n in input_names) + (bool(output),)
        )
    assert observed == expected, netlist_to_qmasm(netlist)
    assert_embedding_preserves_ground_states(model, ground)


def assert_embedding_preserves_ground_states(model, ground):
    """Two properties of any valid minor embedding, via ``embed_ising``.

    With a chain strength above every variable's summed |h| + sum |J|:
    expanding a logical ground state along its chains gives the logical
    energy plus the chain constant (-strength per intra-chain coupler),
    and flipping any one qubit of a multi-qubit chain raises the energy
    (the coupler it breaks costs 2 x strength, more than the flip can
    gain from the variable's own terms).
    """
    weight = {v: abs(model.get_linear(v)) for v in model.variables}
    for (u, v), coupling in model.quadratic.items():
        weight[u] += abs(coupling)
        weight[v] += abs(coupling)
    strength = 1.0 + max(weight.values())
    embedding = find_embedding(source_graph_of(model), TARGET, seed=0)
    physical = embed_ising(model, embedding, TARGET, chain_strength=strength)
    chain_constant = -strength * sum(
        TARGET.subgraph(chain).number_of_edges()
        for chain in embedding.chains.values()
    )
    for sample in ground:
        spins = {
            q: sample.assignment[v]
            for v, chain in embedding.chains.items()
            for q in chain
        }
        energy = physical.energy(spins)
        assert energy == pytest.approx(
            model.energy(sample.assignment) + chain_constant
        )
        for chain in embedding.chains.values():
            if len(chain) < 2:
                continue
            for q in chain:
                flipped = dict(spins)
                flipped[q] = -spins[q]
                assert physical.energy(flipped) > energy


# ----------------------------------------------------------------------
# Deterministic floor: every cell, alone, end to end.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", COMBINATIONAL_CELLS)
def test_single_cell_differential(kind):
    spec = CELL_LIBRARY[kind]
    netlist = Netlist("single")
    input_names = []
    connections = {}
    for index, port in enumerate(spec.inputs):
        net = netlist.new_net()
        name = f"i{index}"
        netlist.add_port(name, PortDirection.INPUT, [net])
        connections[port] = net
        input_names.append(name)
    out = netlist.new_net()
    connections[spec.output] = out
    netlist.add_cell(kind, connections)
    netlist.add_port("y", PortDirection.OUTPUT, [out])
    assert_hamiltonian_matches_truth_table(netlist, input_names)


# ----------------------------------------------------------------------
# Property-based sweep (hypothesis when available)
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestHypothesisDifferential:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_netlists(self, data):
        netlist, input_names = build_random_netlist(
            lambda options: data.draw(st.sampled_from(list(options)))
        )
        assert_hamiltonian_matches_truth_table(netlist, input_names)


# ----------------------------------------------------------------------
# Seeded-random fallback (always runs; also covers minimal installs)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(15))
def test_random_netlists_seeded(seed):
    rng = random.Random(seed * 7919 + 13)
    netlist, input_names = build_random_netlist(
        lambda options: rng.choice(list(options))
    )
    assert_hamiltonian_matches_truth_table(netlist, input_names)
