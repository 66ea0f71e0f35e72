"""Each program is lowered to an Ising model once.

``assemble`` keeps the unpinned lowering on the :class:`LogicalProgram`,
and a run copies it and adds its own pins.  The paper runs one compiled
relation forward or backward by pinning inputs or outputs (Section 4),
so a run's model must be exactly what a fresh ``to_ising()`` of the
pinned program gives: same variables in the same order, same biases,
couplings and offset.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cache
from repro.core.cache import CompilationCache
from repro.core.cli import main
from repro.core.compiler import CompileOptions, VerilogAnnealerCompiler
from repro.edif2qmasm.translate import netlist_to_qmasm
from repro.qmasm.assembler import LogicalProgram, assemble
from repro.qmasm.parser import parse_qmasm
from repro.qmasm.qubo_format import write_qubo_file
from repro.qmasm.runner import QmasmRunner
from tests.test_differential import build_random_netlist

MULT_2BIT = """
module mult (A, B, C);
   input [1:0] A;
   input [1:0] B;
   output[3:0] C;
   assign C = A * B;
endmodule
"""


def _terms(model):
    """Every term of a model, in its order, with exact coefficients."""
    return (
        list(model.linear.items()),
        list(model.quadratic.items()),
        model.offset,
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_run_model_is_a_fresh_lowering_of_the_pinned_program(data):
    netlist, input_names = build_random_netlist(
        lambda options: data.draw(st.sampled_from(list(options)))
    )
    program = assemble(parse_qmasm(netlist_to_qmasm(netlist)))
    # Forward runs pin inputs, backward runs pin the output.
    ports = data.draw(st.sampled_from([input_names, ["y"]]))
    pinned = data.draw(st.lists(st.sampled_from(ports), unique=True))
    pins = [f"{name} := {data.draw(st.sampled_from(['0', '1']))}" for name in pinned]

    result = QmasmRunner(seed=0).run(
        program, pins=pins, solver="sa", num_reads=1, num_sweeps=1
    )
    model, representative = result.logical.to_ising()
    assert _terms(result.logical_model) == _terms(model)
    assert result.representative == representative
    # The stored lowering is shared, never pinned in place.
    assert result.logical.lowering is program.lowering
    assert _terms(program.lowering[0]) == _terms(program.to_ising(apply_pins=False)[0])


def test_one_lowering_per_compile_and_none_per_run(monkeypatch, tmp_path, capsys):
    calls = []
    lower = LogicalProgram.to_ising

    def counting_to_ising(self, *args, **kwargs):
        calls.append(kwargs)
        return lower(self, *args, **kwargs)

    monkeypatch.setattr(LogicalProgram, "to_ising", counting_to_ising)
    compiler = VerilogAnnealerCompiler(seed=0)
    program = compiler.compile(MULT_2BIT)
    assert len(calls) == 1

    forward = compiler.run(
        program, pins=["A[1:0] := 10", "B[1:0] := 11"], solver="sa", num_reads=20
    )
    backward = compiler.run(
        program, pins=["C[3:0] := 0110"], solver="sa", num_reads=20
    )
    assert forward.best.value_of("C") == 6
    assert {
        (s.value_of("A"), s.value_of("B")) for s in backward.valid_solutions
    } == {(2, 3), (3, 2)}
    statistics = program.statistics()
    assert len(calls) == 1
    assert statistics["logical_variables"] == len(program.logical.lowering[0])

    source = tmp_path / "mult.v"
    source.write_text(MULT_2BIT)
    capsys.readouterr()
    assert main([str(source), "--emit", "qubo"]) == 0
    emitted = capsys.readouterr().out
    assert len(calls) == 2  # the CLI's own compile, and nothing more
    expected = write_qubo_file(
        lower(program.logical, apply_pins=False)[0],
        comments=[f"compiled from module {program.netlist.name}"],
    )
    assert emitted == expected


def test_compile_format_number_is_part_of_the_key(monkeypatch):
    key = CompilationCache.key_for("module m; endmodule", CompileOptions())
    monkeypatch.setattr(cache, "COMPILE_FORMAT", cache.COMPILE_FORMAT + 1)
    assert CompilationCache.key_for("module m; endmodule", CompileOptions()) != key
