"""Command-line interface: ``verilog2qmasm``.

Compiles a Verilog file to QMASM (and optionally runs it), mirroring
the paper's toolchain invocation style, including ``--pin``::

    verilog2qmasm mult.v --pin "C[7:0] := 10001111" --run --solver sa

Pipeline introspection flags:

``--time-passes``
    print the per-stage wall-time/counter table for the compilation
    (and, with ``--run``, the execution) pass pipeline.
``--stats``
    print the Section 6.1 static properties of the compilation.
``--no-cache``
    bypass the compilation and embedding caches.

Observability flags (see ``repro.core.trace``):

``--trace out.json``
    record hierarchical spans for every compile/run stage (plus solver
    and embedding internals) and write a Chrome ``trace_event`` file,
    viewable in ``about:tracing`` or https://ui.perfetto.dev.
``--metrics``
    print the process metrics summary (counters, gauges, histograms)
    to stderr after the command finishes.

``python -m repro run design.v ...`` is accepted as sugar for
``python -m repro design.v ... --run``.

``python -m repro serve --port 8000 --workers 4`` mounts the same
pipeline behind the long-lived HTTP/JSON job service
(:mod:`repro.service`): asynchronous jobs, shared compile/embedding
caches, per-tenant rate limits, ``/healthz`` and ``/metrics``.

Fault-tolerance flags (see ``repro.core.faults``):

``--inject-fault SPEC``
    deterministically damage the simulated machine, e.g.
    ``--inject-fault 'dead_qubits=5%,fail_first=2,seed=7'`` kills 5% of
    qubits and makes the first two sample calls fail.  Repeatable; later
    specs override earlier keys.
``--retries N``
    per-run sample-call retry budget (each retry under a fresh
    spin-reversal gauge).
``--no-fallback``
    fail instead of degrading to classical solver tiers when the
    hardware stays unavailable.

Certification and deadline flags (see ``repro.qmasm.certify`` and
``repro.core.deadline``):

``--certify``
    independently re-check every returned read (energy recomputation,
    per-gate truth-table replay, pin constraints) and print the
    certificate; exit 3 if any read fails certification.
``--repair``
    implies ``--certify``; polish and re-sample uncertified reads
    within the retry policy's repair budget before giving up.
``--deadline SECONDS``
    wall-clock budget for the whole run; samplers stop cooperatively
    at sweep-batch granularity and the run exits 4 if the budget
    expires before a usable result exists.

Exit codes: 0 success; 1 generic error; 2 usage/pin diagnostics or no
valid solutions; 3 certification failure; 4 deadline exceeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.compiler import CompileOptions, VerilogAnnealerCompiler
from repro.core.faults import parse_fault_spec
from repro.core.pipeline import format_pass_table
from repro.solvers.machine import MachineProperties


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verilog2qmasm",
        description=(
            "Compile classical Verilog code to a quadratic pseudo-Boolean "
            "function and (optionally) minimize it on a simulated quantum "
            "annealer.  Reproduction of Pakin, ASPLOS 2019."
        ),
    )
    parser.add_argument("source", help="Verilog source file ('-' for stdin)")
    parser.add_argument("--top", help="top module name (default: last defined)")
    parser.add_argument(
        "--pin",
        action="append",
        default=[],
        metavar="'VAR := VALUE'",
        help="pin a variable, e.g. --pin 'C[7:0] := 10001111' (repeatable)",
    )
    parser.add_argument(
        "--steps",
        type=int,
        help="unroll sequential logic over this many time steps",
    )
    parser.add_argument(
        "--emit",
        choices=["qmasm", "edif", "stats", "qubo"],
        default="qmasm",
        help=(
            "artifact to print when not running: the QMASM program, the "
            "EDIF netlist, compile statistics, or a qbsolv-format .qubo "
            "file (default: qmasm)"
        ),
    )
    parser.add_argument("--run", action="store_true", help="execute the program")
    parser.add_argument(
        "--solver",
        choices=["dwave", "sa", "sqa", "exact", "tabu", "qbsolv", "shard"],
        default="dwave",
        help=(
            "execution backend (default: simulated D-Wave 2000Q); "
            "'shard' decomposes across a fleet of --machines chips "
            "(or a heterogeneous --fleet)"
        ),
    )
    from repro.hardware.registry import available_topologies

    parser.add_argument(
        "--topology",
        choices=list(available_topologies()),
        default="chimera",
        help="hardware graph family for the simulated annealer "
        "(default: chimera, the 2000Q's)",
    )
    parser.add_argument(
        "--topology-size",
        type=int,
        default=None,
        metavar="M",
        help="grid parameter for --topology (default: the family's "
        "flagship chip, e.g. C16/P16/Z15)",
    )
    parser.add_argument(
        "--machines",
        type=int,
        default=4,
        metavar="N",
        help="simulated fleet size for --solver shard (default: 4)",
    )
    parser.add_argument(
        "--fleet",
        metavar="SPEC",
        default=None,
        help=(
            "heterogeneous fleet for --solver shard: comma-separated "
            "FAMILY[SIZE] tokens, e.g. 'C16,P8,Z6' (families by name, "
            "prefix, or letter code); overrides --machines"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help=(
            "persist shard-solver state into DIR after every stitch "
            "round (crash-safe; enables --resume)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted --solver shard run from its "
            "--checkpoint-dir checkpoint (bit-identical continuation)"
        ),
    )
    parser.add_argument(
        "--num-reads",
        "--reads",
        dest="reads",
        type=int,
        default=1000,
        help="number of anneals/reads (--reads is an alias)",
    )
    parser.add_argument(
        "--num-sweeps",
        type=int,
        default=None,
        metavar="N",
        help=(
            "Metropolis sweeps per read for the classical solvers "
            "(default: solver-specific; the dwave solver derives sweeps "
            "from --anneal-time)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "process-pool size for qbsolv reads and --solver shard "
            "rounds; results are bit-identical to serial runs"
        ),
    )
    parser.add_argument(
        "--anneal-time", type=float, default=20.0, help="anneal time in us"
    )
    parser.add_argument("--seed", type=int, help="RNG seed for reproducibility")
    parser.add_argument(
        "--all-solutions",
        action="store_true",
        help="print every distinct solution, not just valid ones",
    )
    parser.add_argument(
        "-O",
        "--roof-duality",
        action="store_true",
        help="elide a-priori-determined qubits via roof duality",
    )
    parser.add_argument(
        "--time-passes",
        action="store_true",
        help="print per-stage wall times and artifact counters",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the compilation's static properties (Section 6.1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the compilation and embedding caches",
    )
    parser.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        metavar="SPEC",
        help=(
            "damage the simulated machine deterministically, e.g. "
            "'dead_qubits=5%%,fail_first=2,seed=7' (keys: dead_qubits, "
            "dead_couplers, fail_first, fail_rate, drop_rate, "
            "break_chains, read_corruption, seed; repeatable); "
            "machine_crash/machine_straggler/machine_flaky clauses "
            "(e.g. 'machine_crash=1:3,machine_flaky=0:30%%') drive the "
            "--solver shard fleet's chaos plan"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=3,
        metavar="N",
        help="sample-call attempt budget for transient failures (default: 3)",
    )
    parser.add_argument(
        "--no-fallback",
        action="store_true",
        help="fail instead of degrading to classical solvers when the "
        "hardware stays unavailable",
    )
    parser.add_argument(
        "--certify",
        action="store_true",
        help="independently re-check every read (energy, gate truth "
        "tables, pins) and print the certificate; exit 3 on failure",
    )
    parser.add_argument(
        "--repair",
        action="store_true",
        help="implies --certify; polish and re-sample uncertified reads "
        "within the repair budget before giving up",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the run; exit 4 with the "
        "interrupted stage named if it expires",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "record a hierarchical execution trace and write it as a "
            "Chrome trace_event JSON file (open in about:tracing or "
            "https://ui.perfetto.dev)"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the process metrics summary (counters, gauges, "
        "histograms) after the command finishes",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # ``python -m repro run design.v ...`` is sugar for ``design.v ...
    # --run`` -- the paper's compile-then-execute flow as a subcommand.
    if argv and argv[0] == "run":
        argv = list(argv[1:]) + ["--run"]
    # ``python -m repro serve ...`` mounts the whole pipeline behind the
    # long-lived HTTP job service (repro.service).
    if argv and argv[0] == "serve":
        from repro.service.app import serve_main

        return serve_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    # Bad counts, deadlines and anneal times are usage errors: one line,
    # before any compiling.
    counts = (
        ("--num-reads", args.reads),
        ("--num-sweeps", args.num_sweeps),
        ("--retries", args.retries),
        ("--machines", args.machines),
        ("--topology-size", args.topology_size),
        ("--workers", args.workers),
    )
    for flag, value in counts:
        if value is not None and value < 1:
            print(
                f"error: {flag} must be at least 1, got {value}",
                file=sys.stderr,
            )
            return 2
    if args.deadline is not None and not args.deadline > 0:
        print(
            f"error: --deadline must be positive, got {args.deadline:g}",
            file=sys.stderr,
        )
        return 2
    low = MachineProperties.min_annealing_time_us
    high = MachineProperties.max_annealing_time_us
    if not low <= args.anneal_time <= high:
        print(
            f"error: --anneal-time must lie within [{low:g}, {high:g}] us, "
            f"got {args.anneal_time:g}",
            file=sys.stderr,
        )
        return 2

    from repro.core import trace as _trace

    if args.trace or args.metrics:
        _trace.install()
    try:
        return _run_command(args)
    finally:
        if args.trace:
            _trace.tracer().write_chrome_trace(args.trace)
        if args.metrics:
            print(_trace.metrics().render_summary(), file=sys.stderr)
        if args.trace or args.metrics:
            _trace.uninstall()


def _run_command(args: argparse.Namespace) -> int:
    if args.source == "-":
        source = sys.stdin.read()
    else:
        try:
            with open(args.source, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            print(
                f"error: cannot read {args.source!r}: {exc.strerror}",
                file=sys.stderr,
            )
            return 2

    machine = None
    spec = None
    if args.inject_fault:
        try:
            for text in args.inject_fault:
                spec = parse_fault_spec(text, base=spec)
        except ValueError as exc:
            print(f"error: --inject-fault: {exc}", file=sys.stderr)
            return 1
    if spec is not None or args.topology != "chimera" or args.topology_size:
        from repro.solvers.machine import DWaveSimulator

        props = MachineProperties(topology=args.topology)
        if args.topology_size:
            props = MachineProperties(
                topology=args.topology, cells=args.topology_size
            )
        machine = DWaveSimulator(
            properties=props, seed=args.seed, faults=spec
        )

    if args.fleet is not None:
        from repro.solvers.fleet import parse_fleet_spec

        try:
            parse_fleet_spec(args.fleet)
        except ValueError as exc:
            print(f"error: --fleet: {exc}", file=sys.stderr)
            return 1
    if args.resume and args.checkpoint_dir is None:
        print(
            "error: --resume needs --checkpoint-dir (the directory the "
            "interrupted run checkpointed into)",
            file=sys.stderr,
        )
        return 1

    compiler = VerilogAnnealerCompiler(
        machine=machine,
        seed=args.seed,
        cache=not args.no_cache,
        machines=args.machines,
        fleet=args.fleet,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    options = CompileOptions(top=args.top, unroll_steps=args.steps)
    try:
        program = compiler.compile(source, options)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.stats:
        from repro.core.report import format_compile_summary

        print(format_compile_summary(program))

    if not args.run:
        if args.time_passes:
            print(format_pass_table(program.stats, "compile passes:"))
        if args.stats or args.time_passes:
            return 0
        if args.emit == "qmasm":
            print(program.qmasm_source)
        elif args.emit == "edif":
            print(program.edif_text)
        elif args.emit == "qubo":
            from repro.qmasm.qubo_format import write_qubo_file

            model, _ = program.logical.to_ising(apply_pins=False)
            print(
                write_qubo_file(
                    model,
                    comments=[f"compiled from module {program.netlist.name}"],
                ),
                end="",
            )
        else:
            from repro.core.report import format_compile_summary

            print(format_compile_summary(program))
        return 0

    code = _validate_pins(args.pin, program)
    if code:
        return code

    from repro.core.deadline import DeadlineExceeded
    from repro.qmasm.runner import RetryPolicy

    policy = RetryPolicy(max_sample_attempts=args.retries)
    if args.no_fallback:
        policy.fallback_solvers = ()
    certify = args.certify or args.repair
    try:
        result = compiler.run(
            program,
            pins=args.pin,
            solver=args.solver,
            num_reads=args.reads,
            num_sweeps=args.num_sweeps,
            max_workers=args.workers,
            annealing_time_us=args.anneal_time,
            use_roof_duality=args.roof_duality,
            retry_policy=policy,
            certify=certify,
            repair=args.repair,
            deadline=args.deadline,
        )
    except DeadlineExceeded as exc:
        print(
            f"error: deadline of {exc.budget_s:.3g}s exceeded after "
            f"{exc.elapsed_s:.3g}s in stage {exc.stage}",
            file=sys.stderr,
        )
        return 4
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    requested = result.info.get("reads_requested")
    returned = result.info.get("reads_returned")
    if requested is not None and returned != requested:
        print(
            f"warning: solver {result.info.get('answered_by', args.solver)!r} "
            f"returned {returned} of the {requested} reads requested",
            file=sys.stderr,
        )
    solutions = result.solutions if args.all_solutions else result.valid_solutions
    if not solutions:
        print("no valid solutions found; try more reads", file=sys.stderr)
        return 2
    from repro.core.report import format_read_counts, format_run_result

    print(format_run_result(result, valid_only=not args.all_solutions))
    if args.stats and requested is not None:
        print(format_read_counts(result))
    if args.time_passes:
        print()
        print(format_pass_table(program.stats, "compile passes:"))
        print()
        print(format_pass_table(result.stats, "run passes:"))
    if certify and result.certificate is not None:
        print(f"certificate: {result.certificate.summary()}")
        if not result.certificate.ok:
            print(
                "error: certification failed: "
                f"{result.certificate.summary()}",
                file=sys.stderr,
            )
            return 3
    return 0


def _validate_pins(pin_texts, program) -> int:
    """Pre-validate ``--pin`` options before the run pipeline starts.

    Returns 0 when everything checks out, 2 with a one-line structured
    diagnostic on stderr otherwise (same formatting as the Verilog
    frontend's errors, see :func:`repro.hdl.errors.format_diagnostic`).
    """
    from repro.hdl.errors import format_diagnostic
    from repro.qmasm.parser import parse_pin
    from repro.qmasm.program import QmasmError

    known = program.logical.variables
    for text in pin_texts:
        try:
            pin = parse_pin(text)
        except QmasmError as exc:
            print(
                "error: "
                + format_diagnostic(str(exc), source=f"--pin {text!r}"),
                file=sys.stderr,
            )
            return 2
        unknown = sorted(v for v in pin.assignments if v not in known)
        if unknown:
            visible = program.logical.visible_variables()
            print(
                "error: "
                + format_diagnostic(
                    f"unknown variable(s) {', '.join(unknown)}; "
                    f"known: {', '.join(visible)}",
                    source=f"--pin {text!r}",
                ),
                file=sys.stderr,
            )
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
