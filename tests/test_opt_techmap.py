"""Tests for netlist optimization and technology mapping (the ABC role)."""

import copy
import random

import pytest

from repro import VerilogAnnealerCompiler
from repro.edif.writer import write_edif
from repro.hdl.elaborator import elaborate
from repro.synth.netlist import Netlist, PortDirection
from repro.synth.opt import optimize
from repro.synth.simulate import NetlistSimulator
from repro.synth.techmap import techmap
from repro.synth.unroll import unroll
from tests.conftest import LISTING_3_COUNTER, LISTING_6_MULT


def _random_circuit(seed: int, num_inputs: int = 4, num_gates: int = 25):
    """A random DAG of gates over the basic cell set (no local folding:
    cells are added directly, bypassing the builder's peepholes)."""
    rng = random.Random(seed)
    nl = Netlist(f"rand{seed}")
    nets = []
    for i in range(num_inputs):
        net = nl.new_net()
        nl.add_port(f"i{i}", PortDirection.INPUT, [net])
        nets.append(net)
    const = nl.new_net()
    nl.add_cell(rng.choice(["GND", "VCC"]), {"Y": const})
    nets.append(const)
    for g in range(num_gates):
        kind = rng.choice(["NOT", "AND", "OR", "XOR", "NAND", "NOR", "XNOR", "MUX"])
        out = nl.new_net()
        if kind == "NOT":
            conns = {"A": rng.choice(nets), "Y": out}
        elif kind == "MUX":
            conns = {
                "S": rng.choice(nets),
                "A": rng.choice(nets),
                "B": rng.choice(nets),
                "Y": out,
            }
        else:
            conns = {"A": rng.choice(nets), "B": rng.choice(nets), "Y": out}
        nl.add_cell(kind, conns)
        nets.append(out)
    # Expose the last few nets as outputs.
    for i, net in enumerate(nets[-3:]):
        nl.add_port(f"o{i}", PortDirection.OUTPUT, [net])
    nl.validate()
    return nl


def _equivalent(before: Netlist, after: Netlist, num_inputs: int = 4) -> bool:
    sim_before = NetlistSimulator(before)
    sim_after = NetlistSimulator(after)
    for value in range(1 << num_inputs):
        inputs = {f"i{i}": (value >> i) & 1 for i in range(num_inputs)}
        if sim_before.evaluate(inputs) != sim_after.evaluate(inputs):
            return False
    return True


# ----------------------------------------------------------------------
# optimize(): behaviour preservation (differential testing)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(12))
def test_optimize_preserves_behaviour(seed):
    before = _random_circuit(seed)
    after = optimize(before)
    assert _equivalent(before, after)


@pytest.mark.parametrize("seed", range(12))
def test_optimize_never_grows_the_netlist(seed):
    before = _random_circuit(seed)
    after = optimize(before)
    assert after.num_cells() <= before.num_cells()


@pytest.mark.parametrize("seed", range(6))
def test_techmap_preserves_behaviour(seed):
    before = optimize(_random_circuit(seed, num_gates=40))
    after = techmap(before)
    assert _equivalent(before, after)


def _state(netlist: Netlist):
    """Everything a netlist holds, in its dicts' orders."""
    return (
        netlist.name,
        [(name, port.direction, port.bits) for name, port in netlist.ports.items()],
        [
            (name, cell.kind, list(cell.connections.items()))
            for name, cell in netlist.cells.items()
        ],
        list(netlist.net_names.items()),
        netlist._next_net,
        netlist._next_cell,
    )


def test_optimize_does_not_mutate_input():
    for seed in range(6):
        nl = _random_circuit(seed)
        before = copy.deepcopy(nl)
        assert _state(optimize(nl)) != _state(before)
        assert _state(nl) == _state(before)


def test_techmap_does_not_mutate_input():
    for seed in range(6):
        nl = optimize(_random_circuit(seed, num_gates=40))
        before = copy.deepcopy(nl)
        techmap(nl)
        assert _state(nl) == _state(before)


def test_compile_stages_make_no_copy_and_match_the_pure_passes(monkeypatch):
    """The synth stages work on the netlist they own: a compile with
    ``copy.deepcopy`` unavailable still succeeds, and emits the EDIF the
    copying ``optimize`` and ``techmap`` give (``unroll`` re-optimizes
    the counter)."""
    mult = techmap(optimize(elaborate(LISTING_6_MULT)))
    counter = optimize(
        unroll(techmap(optimize(elaborate(LISTING_3_COUNTER))), 3, initial_value=0)
    )

    def no_copies(*args, **kwargs):
        raise AssertionError("a compile stage deep-copied")

    monkeypatch.setattr(copy, "deepcopy", no_copies)
    compiler = VerilogAnnealerCompiler(seed=0, cache=False)
    assert compiler.compile(LISTING_6_MULT).edif_text == write_edif(mult)
    compiled = compiler.compile(LISTING_3_COUNTER, unroll_steps=3)
    assert compiled.edif_text == write_edif(counter)


# ----------------------------------------------------------------------
# Specific optimization patterns
# ----------------------------------------------------------------------
def _single_gate(kind, **const_inputs):
    """A netlist with one gate whose chosen inputs are constants."""
    nl = Netlist("t")
    conns = {}
    ports = {"NOT": ["A"], "MUX": ["S", "A", "B"]}.get(kind, ["A", "B"])
    for port in ports:
        net = nl.new_net()
        if port in const_inputs:
            nl.add_cell("VCC" if const_inputs[port] else "GND", {"Y": net})
        else:
            nl.add_port(port.lower(), PortDirection.INPUT, [net])
        conns[port] = net
    out = nl.new_net()
    conns["Y"] = out
    nl.add_cell(kind, conns, name="dut")
    nl.add_port("y", PortDirection.OUTPUT, [out])
    return nl


def test_and_with_false_becomes_constant():
    after = optimize(_single_gate("AND", B=False))
    assert after.num_cells("AND") == 0
    assert NetlistSimulator(after).evaluate({"a": 1})["y"] == 0


def test_and_with_true_becomes_wire():
    after = optimize(_single_gate("AND", B=True))
    assert after.num_cells("AND") == 0
    sim = NetlistSimulator(after)
    assert sim.evaluate({"a": 1})["y"] == 1
    assert sim.evaluate({"a": 0})["y"] == 0


def test_xor_with_true_becomes_inverter():
    after = optimize(_single_gate("XOR", B=True))
    assert after.num_cells("XOR") == 0
    assert after.num_cells("NOT") == 1
    assert NetlistSimulator(after).evaluate({"a": 0})["y"] == 1


def test_mux_with_constant_select_collapses():
    after = optimize(_single_gate("MUX", S=True))
    assert after.num_cells("MUX") == 0
    sim = NetlistSimulator(after)
    # S=1 selects B.
    assert sim.evaluate({"a": 0, "b": 1})["y"] == 1
    assert sim.evaluate({"a": 1, "b": 0})["y"] == 0


def test_double_inverter_removed():
    nl = Netlist("t")
    a = nl.new_net()
    nl.add_port("a", PortDirection.INPUT, [a])
    n1, n2 = nl.new_net(), nl.new_net()
    nl.add_cell("NOT", {"A": a, "Y": n1})
    nl.add_cell("NOT", {"A": n1, "Y": n2})
    nl.add_port("y", PortDirection.OUTPUT, [n2])
    after = optimize(nl)
    assert after.num_cells("NOT") == 0
    assert NetlistSimulator(after).evaluate({"a": 1})["y"] == 1


def test_cse_merges_identical_gates():
    nl = Netlist("t")
    a, b = nl.new_net(), nl.new_net()
    nl.add_port("a", PortDirection.INPUT, [a])
    nl.add_port("b", PortDirection.INPUT, [b])
    y1, y2 = nl.new_net(), nl.new_net()
    nl.add_cell("AND", {"A": a, "B": b, "Y": y1})
    nl.add_cell("AND", {"A": b, "B": a, "Y": y2})  # commuted duplicate
    nl.add_port("o1", PortDirection.OUTPUT, [y1])
    nl.add_port("o2", PortDirection.OUTPUT, [y2])
    after = optimize(nl)
    assert after.num_cells("AND") == 1


def test_dead_cells_removed():
    nl = Netlist("t")
    a = nl.new_net()
    nl.add_port("a", PortDirection.INPUT, [a])
    dead = nl.new_net()
    nl.add_cell("NOT", {"A": a, "Y": dead})  # drives nothing
    live = nl.new_net()
    nl.add_cell("NOT", {"A": a, "Y": live}, name="live")
    nl.add_port("y", PortDirection.OUTPUT, [live])
    after = optimize(nl)
    # CSE may merge the two identical inverters first; either way only
    # one gate must remain and it must drive the output.
    assert after.num_cells() == 1
    assert NetlistSimulator(after).evaluate({"a": 0})["y"] == 1


def test_dff_feeding_output_survives():
    nl = Netlist("t")
    d = nl.new_net()
    nl.add_port("d", PortDirection.INPUT, [d])
    q = nl.new_net()
    nl.add_cell("DFF_P", {"D": d, "Q": q})
    nl.add_port("q", PortDirection.OUTPUT, [q])
    after = optimize(nl)
    assert after.num_cells("DFF_P") == 1


# ----------------------------------------------------------------------
# Techmap patterns
# ----------------------------------------------------------------------
def _not_of(inner_kind, inner_conns_builder):
    nl = Netlist("t")
    inputs = {}
    for name in "abcd":
        net = nl.new_net()
        nl.add_port(name, PortDirection.INPUT, [net])
        inputs[name] = net
    mid = inner_conns_builder(nl, inputs)
    out = nl.new_net()
    nl.add_cell("NOT", {"A": mid, "Y": out})
    nl.add_port("y", PortDirection.OUTPUT, [out])
    return nl


def test_techmap_nand():
    def build(nl, i):
        mid = nl.new_net()
        nl.add_cell("AND", {"A": i["a"], "B": i["b"], "Y": mid})
        return mid

    after = techmap(_not_of("AND", build))
    assert after.cell_histogram() == {"NAND": 1}


def test_techmap_nor_xnor():
    def build_or(nl, i):
        mid = nl.new_net()
        nl.add_cell("OR", {"A": i["a"], "B": i["b"], "Y": mid})
        return mid

    assert techmap(_not_of("OR", build_or)).cell_histogram() == {"NOR": 1}

    def build_xor(nl, i):
        mid = nl.new_net()
        nl.add_cell("XOR", {"A": i["a"], "B": i["b"], "Y": mid})
        return mid

    assert techmap(_not_of("XOR", build_xor)).cell_histogram() == {"XNOR": 1}


def test_techmap_aoi3():
    def build(nl, i):
        and_out, or_out = nl.new_net(), nl.new_net()
        nl.add_cell("AND", {"A": i["a"], "B": i["b"], "Y": and_out})
        nl.add_cell("OR", {"A": and_out, "B": i["c"], "Y": or_out})
        return or_out

    after = techmap(_not_of("OR", build))
    assert after.cell_histogram() == {"AOI3": 1}


def test_techmap_oai4():
    def build(nl, i):
        or1, or2, and_out = nl.new_net(), nl.new_net(), nl.new_net()
        nl.add_cell("OR", {"A": i["a"], "B": i["b"], "Y": or1})
        nl.add_cell("OR", {"A": i["c"], "B": i["d"], "Y": or2})
        nl.add_cell("AND", {"A": or1, "B": or2, "Y": and_out})
        return and_out

    after = techmap(_not_of("AND", build))
    assert after.cell_histogram() == {"OAI4": 1}


def test_techmap_respects_fanout():
    """An AND feeding both a NOT and an output must not be absorbed."""
    nl = Netlist("t")
    a, b = nl.new_net(), nl.new_net()
    nl.add_port("a", PortDirection.INPUT, [a])
    nl.add_port("b", PortDirection.INPUT, [b])
    mid, out = nl.new_net(), nl.new_net()
    nl.add_cell("AND", {"A": a, "B": b, "Y": mid})
    nl.add_cell("NOT", {"A": mid, "Y": out})
    nl.add_port("anded", PortDirection.OUTPUT, [mid])  # second consumer
    nl.add_port("y", PortDirection.OUTPUT, [out])
    after = techmap(nl)
    assert after.num_cells("AND") == 1
    assert after.num_cells("NAND") == 0


def test_techmap_reduces_qubit_cost():
    """The point of compound cells (Section 4.3.2): fewer variables.

    NOT(OR(AND,AND)) as discrete gates = 4 cells; as AOI4 = 1 cell whose
    Hamiltonian has 7 variables vs 4 cells' 10+ with chains."""
    def build(nl, i):
        and1, and2, or_out = nl.new_net(), nl.new_net(), nl.new_net()
        nl.add_cell("AND", {"A": i["a"], "B": i["b"], "Y": and1})
        nl.add_cell("AND", {"A": i["c"], "B": i["d"], "Y": and2})
        nl.add_cell("OR", {"A": and1, "B": and2, "Y": or_out})
        return or_out

    before = _not_of("OR", build)
    after = techmap(before)
    assert after.num_cells() < before.num_cells()
    sim_before, sim_after = NetlistSimulator(before), NetlistSimulator(after)
    for value in range(16):
        inputs = {name: (value >> i) & 1 for i, name in enumerate("abcd")}
        assert sim_before.evaluate(inputs) == sim_after.evaluate(inputs)
