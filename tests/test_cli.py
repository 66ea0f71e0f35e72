"""Tests for the verilog2qmasm command-line interface."""

import pytest

from repro.core.cli import main
from tests.conftest import FIGURE_2A, LISTING_5_CIRCSAT


@pytest.fixture()
def verilog_file(tmp_path):
    path = tmp_path / "circuit.v"
    path.write_text(FIGURE_2A)
    return str(path)


def test_emit_qmasm_default(verilog_file, capsys):
    assert main([verilog_file]) == 0
    out = capsys.readouterr().out
    assert "!include <stdcell>" in out
    assert "!use_macro" in out


def test_emit_edif(verilog_file, capsys):
    assert main([verilog_file, "--emit", "edif"]) == 0
    assert "(edif" in capsys.readouterr().out


def test_emit_stats(verilog_file, capsys):
    assert main([verilog_file, "--emit", "stats"]) == 0
    out = capsys.readouterr().out
    assert "logical variables" in out
    assert "Verilog lines     : 5" in out


def test_emit_qubo(verilog_file, capsys):
    assert main([verilog_file, "--emit", "qubo"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("c ")
    assert any(line.startswith("p qubo") for line in out.splitlines())
    from repro.qmasm.qubo_format import read_qubo_file

    model = read_qubo_file(out)
    assert len(model) > 5


def test_run_forward(verilog_file, capsys):
    code = main(
        [
            verilog_file, "--run", "--solver", "exact", "--seed", "0",
            "--pin", "s := 1", "--pin", "a := 1", "--pin", "b := 1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Solution #1" in out
    assert "c[1] = 1" in out
    assert "c[0] = 0" in out


def test_run_backward(tmp_path, capsys):
    path = tmp_path / "circsat.v"
    path.write_text(LISTING_5_CIRCSAT)
    code = main(
        [str(path), "--run", "--solver", "exact", "--seed", "0",
         "--pin", "y := true"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "a = 1" in out and "b = 1" in out and "c = 0" in out


def test_roof_duality_flag(verilog_file, capsys):
    code = main(
        [
            verilog_file, "--run", "--solver", "exact", "-O",
            "--pin", "s := 1", "--pin", "a := 1", "--pin", "b := 1",
        ]
    )
    assert code == 0


def test_bad_source_reports_error(tmp_path, capsys):
    path = tmp_path / "broken.v"
    path.write_text("module broken (x; endmodule")
    assert main([str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_source_exits_2_with_one_line(tmp_path, capsys):
    missing = str(tmp_path / "missing.v")
    assert main([missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {missing!r}: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "solver, flag, value, reported",
    [
        ("dwave", "--num-reads", "0", "--num-reads"),
        ("qbsolv", "--num-reads", "0", "--num-reads"),
        ("sa", "--reads", "-1", "--num-reads"),
        ("sa", "--num-sweeps", "-3", "--num-sweeps"),
        ("sqa", "--num-sweeps", "-3", "--num-sweeps"),
        ("tabu", "--num-sweeps", "-3", "--num-sweeps"),
        ("dwave", "--retries", "0", "--retries"),
        ("shard", "--machines", "0", "--machines"),
        ("dwave", "--topology-size", "0", "--topology-size"),
        ("qbsolv", "--workers", "0", "--workers"),
    ],
)
def test_nonpositive_reads_or_sweeps_exit_2_before_compiling(
    verilog_file, capsys, monkeypatch, solver, flag, value, reported
):
    def no_compiler(*args, **kwargs):
        raise AssertionError("the CLI built a compiler for a bad count")

    monkeypatch.setattr("repro.core.cli.VerilogAnnealerCompiler", no_compiler)
    code = main([verilog_file, "--run", "--solver", solver, flag, value])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {reported} must be at least 1, got {value}\n"


@pytest.mark.parametrize(
    "solver, flag, value, reported",
    [
        ("sa", "--deadline", "0", "--deadline must be positive, got 0"),
        ("sa", "--deadline", "-1", "--deadline must be positive, got -1"),
        ("dwave", "--anneal-time", "0.5",
         "--anneal-time must lie within [1, 2000] us, got 0.5"),
        ("dwave", "--anneal-time", "2001",
         "--anneal-time must lie within [1, 2000] us, got 2001"),
        ("sa", "--anneal-time", "-5",
         "--anneal-time must lie within [1, 2000] us, got -5"),
    ],
)
def test_bad_deadline_or_anneal_time_exit_2_before_compiling(
    verilog_file, capsys, monkeypatch, solver, flag, value, reported
):
    def no_compiler(*args, **kwargs):
        raise AssertionError("the CLI built a compiler for a bad value")

    monkeypatch.setattr("repro.core.cli.VerilogAnnealerCompiler", no_compiler)
    code = main([verilog_file, "--run", "--solver", solver, flag, value])
    assert code == 2
    assert capsys.readouterr().err == f"error: {reported}\n"


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(FIGURE_2A))
    assert main(["-"]) == 0
    assert "!use_macro" in capsys.readouterr().out


def test_sequential_needs_steps(tmp_path, capsys):
    from tests.conftest import LISTING_3_COUNTER

    path = tmp_path / "count.v"
    path.write_text(LISTING_3_COUNTER)
    assert main([str(path)]) == 1
    assert main([str(path), "--steps", "2"]) == 0


# ----------------------------------------------------------------------
# Structured --pin diagnostics (exit 2, one-line errors)
# ----------------------------------------------------------------------
def test_malformed_pin_exits_2_with_diagnostic(verilog_file, capsys):
    code = main(
        [verilog_file, "--run", "--solver", "exact", "--pin", "garbage"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --pin 'garbage':")
    assert err.count("\n") == 1  # one line, not a traceback
    assert "Traceback" not in err


def test_unknown_pin_variable_exits_2_and_lists_known(verilog_file, capsys):
    code = main(
        [verilog_file, "--run", "--solver", "exact",
         "--pin", "nosuch := true"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --pin 'nosuch := true':")
    assert "unknown variable(s) nosuch" in err
    assert "known:" in err and "s" in err
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# Certification and deadline exit codes
# ----------------------------------------------------------------------
def test_certify_clean_run_exits_0(verilog_file, capsys):
    code = main(
        [verilog_file, "--run", "--solver", "sa", "--seed", "0",
         "--num-reads", "10", "--certify"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "certificate: certified" in out


def test_certify_flags_injected_corruption_exit_3(verilog_file, capsys):
    code = main(
        [verilog_file, "--run", "--solver", "dwave", "--seed", "7",
         "--num-reads", "30",
         "--inject-fault", "read_corruption=40%,seed=3", "--certify"]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert "certification failed" in captured.err
    assert "certificate: certified" in captured.out


def test_repair_restores_certification_exit_0(verilog_file, capsys):
    code = main(
        [verilog_file, "--run", "--solver", "dwave", "--seed", "7",
         "--num-reads", "30",
         "--inject-fault", "read_corruption=40%,seed=3", "--repair"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "repaired in" in out


def test_deadline_exceeded_exits_4(verilog_file, capsys):
    code = main(
        [verilog_file, "--run", "--solver", "sa", "--seed", "0",
         "--deadline", "1e-9"]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert "deadline" in err and "stage" in err
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# Topologies and sharded decomposition
# ----------------------------------------------------------------------
@pytest.mark.parametrize("topology,size", [("pegasus", 2), ("zephyr", 1)])
def test_non_chimera_topology_end_to_end(verilog_file, capsys, topology, size):
    """Embed + anneal + certify on a non-Chimera family via --topology."""
    code = main(
        [
            verilog_file, "--run", "--solver", "dwave", "--seed", "0",
            "--topology", topology, "--topology-size", str(size),
            "--num-reads", "100", "--repair",
            "--pin", "s := 1", "--pin", "a := 1", "--pin", "b := 1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Solution #1" in out
    assert "certificate:" in out


def test_unknown_topology_rejected(verilog_file, capsys):
    with pytest.raises(SystemExit):
        main([verilog_file, "--run", "--topology", "kagome"])


def test_shard_solver_end_to_end(verilog_file, capsys):
    """--solver shard decomposes across the --machines fleet, certified."""
    code = main(
        [
            verilog_file, "--run", "--solver", "shard", "--machines", "4",
            "--topology-size", "2", "--seed", "0", "--num-reads", "2",
            "--repair",
            "--pin", "s := 1", "--pin", "a := 1", "--pin", "b := 1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Solution #1" in out
    assert "certificate:" in out


def test_capped_reads_are_reported(verilog_file, capsys):
    """shard caps a run at 5 reads: --stats and a warning say so."""
    code = main(
        [
            verilog_file, "--run", "--solver", "shard", "--machines", "4",
            "--topology-size", "2", "--seed", "0", "--num-reads", "100",
            "--stats",
            "--pin", "s := 1", "--pin", "a := 1", "--pin", "b := 1",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "reads requested   : 100" in captured.out
    assert "reads returned    : 5" in captured.out
    warnings = [
        line for line in captured.err.splitlines() if line.startswith("warning:")
    ]
    assert warnings == [
        "warning: solver 'shard' returned 5 of the 100 reads requested"
    ]


# ----------------------------------------------------------------------
# Fleet resilience flags
# ----------------------------------------------------------------------
def test_heterogeneous_fleet_end_to_end(verilog_file, capsys):
    """--fleet mixes machine classes; the shard solver still answers."""
    code = main(
        [
            verilog_file, "--run", "--solver", "shard",
            "--fleet", "C2,C2,P2,Z2", "--topology-size", "2",
            "--seed", "7", "--num-reads", "2", "--repair",
            "--pin", "s := 1", "--pin", "a := 1", "--pin", "b := 1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Solution #1" in out


def test_bad_fleet_spec_reports_error(verilog_file, capsys):
    code = main(
        [verilog_file, "--run", "--solver", "shard", "--fleet", "Q9"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_resume_requires_checkpoint_dir(verilog_file, capsys):
    code = main(
        [verilog_file, "--run", "--solver", "shard", "--resume"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "--checkpoint-dir" in err


def test_checkpoint_dir_round_trip(verilog_file, tmp_path, capsys):
    """A completed checkpointed run resumes instantly and identically."""
    argv = [
        verilog_file, "--run", "--solver", "shard", "--machines", "4",
        "--topology-size", "2", "--seed", "7", "--num-reads", "2",
        "--repair", "--checkpoint-dir", str(tmp_path),
        "--pin", "s := 1", "--pin", "a := 1", "--pin", "b := 1",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert list(tmp_path.iterdir()), "checkpoint files should exist"
    assert main(argv + ["--resume"]) == 0
    second = capsys.readouterr().out
    assert "Solution #1" in second
    assert first.splitlines()[-3:] == second.splitlines()[-3:]
