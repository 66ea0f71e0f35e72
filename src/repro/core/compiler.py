"""End-to-end compilation: classical Verilog to annealer-ready form.

:class:`VerilogAnnealerCompiler` is a thin driver over an explicit
pass pipeline (:mod:`repro.core.pipeline`): each lowering step the paper
describes -- ``elaborate``, ``optimize``, ``techmap``, ``unroll``,
``emit_edif``, ``edif_roundtrip``, ``translate_qmasm``, ``assemble`` --
is a first-class :class:`~repro.core.pipeline.Stage` in
:attr:`VerilogAnnealerCompiler.compile_stages`, executed by a
:class:`~repro.core.pipeline.PassManager`.  Every stage records wall
time and artifact-size counters into the resulting program's
:attr:`CompiledProgram.stats`; execution is delegated to
:class:`~repro.qmasm.runner.QmasmRunner`, which is staged the same way.

Compilations are memoized in a content-addressed
:class:`~repro.core.cache.CompilationCache` keyed by
``hash(source, options)``, so repeated compiles of the same design are
free; the runner likewise caches minor embeddings by logical-graph
fingerprint.  Pass ``cache=False`` (or ``--no-cache`` on the CLI) to
bypass both.

All intermediate artifacts (netlists, EDIF text, QMASM source, the
logical Hamiltonian) stay inspectable on the resulting
:class:`CompiledProgram` -- the Section 6.1 static-properties analysis
reads them straight off.

Typical use::

    compiler = VerilogAnnealerCompiler(seed=0)
    program = compiler.compile(VERILOG_SOURCE)
    result = compiler.run(program, pins=["C[7:0] := 10001111"],
                          solver="sa", num_reads=1000)
    for solution in result.valid_solutions:
        print(solution.value_of("A"), solution.value_of("B"))
    print(program.stats.format_table())   # per-stage timings
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core import trace as _trace
from repro.core.cache import CompilationCache, EmbeddingCache
from repro.core.pipeline import (
    PassManager,
    PipelineContext,
    PipelineStats,
    Stage,
    TraceCallback,
)
from repro.edif.writer import write_edif
from repro.edif.reader import read_edif
from repro.edif2qmasm.translate import netlist_to_qmasm
from repro.hdl.elaborator import elaborate
from repro.qmasm.assembler import LogicalProgram, assemble
from repro.qmasm.parser import parse_qmasm
from repro.qmasm.runner import QmasmRunner, RunResult
from repro.solvers.machine import DWaveSimulator
from repro.synth.netlist import Netlist
from repro.synth.opt import optimize
from repro.synth.simulate import NetlistSimulator
from repro.synth.techmap import techmap
from repro.synth.unroll import unroll


@dataclass
class CompileOptions:
    """Knobs for the lowering pipeline.

    Attributes:
        top: name of the top Verilog module (default: last defined).
        parameters: top-module parameter overrides.
        run_optimizer: apply the ABC-role netlist optimizations.
        run_techmap: fold gates into compound Table 5 cells.
        unroll_steps: for sequential designs, how many discrete time
            steps to unroll (required if the design has flip-flops).
        initial_state: per-flip-flop initial bit (0/1), or None to leave
            the initial state as free inputs the annealer may solve for.
    """

    top: Optional[str] = None
    parameters: Optional[Dict[str, int]] = None
    run_optimizer: bool = True
    run_techmap: bool = True
    unroll_steps: Optional[int] = None
    initial_state: Optional[int] = 0


@dataclass
class CompiledProgram:
    """All artifacts of one compilation, highest to lowest level."""

    verilog_source: str
    elaborated: Netlist
    netlist: Netlist
    edif_text: str
    qmasm_source: str
    logical: LogicalProgram
    #: The netlist as re-read from the EDIF text -- the exact netlist
    #: the QMASM source was generated from.  The round-trip renumbers
    #: internal nets, so anything that must agree with the QMASM
    #: variable names (result certification's gate replay in
    #: particular) has to use *this* netlist, not :attr:`netlist`.
    edif_netlist: Optional[Netlist] = None
    options: CompileOptions = field(default_factory=CompileOptions)
    #: Per-stage wall times and artifact counters for this compilation.
    stats: PipelineStats = field(default_factory=PipelineStats)

    def simulator(self) -> NetlistSimulator:
        """A forward simulator over the final netlist (solution checking)."""
        return NetlistSimulator(self.netlist)

    def statistics(self) -> Dict[str, object]:
        """The Section 6.1 static properties of this compilation."""
        logical_model, _ = self.logical.to_ising(apply_pins=False)
        return {
            "verilog_lines": _code_lines(self.verilog_source),
            "edif_lines": len(self.edif_text.splitlines()),
            "qmasm_lines": _code_lines(self.qmasm_source),
            "cells": self.netlist.cell_histogram(),
            "num_cells": self.netlist.num_cells(),
            "logical_variables": len(logical_model),
            "logical_terms": logical_model.num_terms(),
        }


def _code_lines(text: str) -> int:
    return sum(
        1
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    )


# ----------------------------------------------------------------------
# The compilation pipeline stages
# ----------------------------------------------------------------------
@dataclass
class CompileArtifact:
    """The artifact threaded through the compile stages, field by field."""

    source: str
    elaborated: Optional[Netlist] = None
    netlist: Optional[Netlist] = None
    edif_text: Optional[str] = None
    edif_netlist: Optional[Netlist] = None
    qmasm_source: Optional[str] = None
    logical: Optional[LogicalProgram] = None


def _netlist_counters(netlist: Netlist) -> Dict[str, float]:
    return dict(netlist.counters())


class ElaborateStage(Stage):
    """Verilog text -> word-level netlist, lowered to gates."""

    name = "elaborate"

    def run(self, artifact: CompileArtifact, context: PipelineContext):
        options: CompileOptions = context.options
        artifact.elaborated = elaborate(
            artifact.source, top=options.top, parameters=options.parameters
        )
        artifact.netlist = artifact.elaborated
        return artifact

    def counters(self, artifact: CompileArtifact, context: PipelineContext):
        return _netlist_counters(artifact.netlist)


class OptimizeStage(Stage):
    """ABC-role logic optimization (const-fold, CSE, dead gates)."""

    name = "optimize"

    def skip(self, artifact: CompileArtifact, context: PipelineContext) -> bool:
        return not context.options.run_optimizer

    def run(self, artifact: CompileArtifact, context: PipelineContext):
        artifact.netlist = optimize(artifact.netlist)
        return artifact

    def counters(self, artifact: CompileArtifact, context: PipelineContext):
        return _netlist_counters(artifact.netlist)


class TechmapStage(Stage):
    """Fold primitive gates into the paper's Table 5 compound cells."""

    name = "techmap"

    def skip(self, artifact: CompileArtifact, context: PipelineContext) -> bool:
        return not context.options.run_techmap

    def run(self, artifact: CompileArtifact, context: PipelineContext):
        artifact.netlist = techmap(artifact.netlist)
        return artifact

    def counters(self, artifact: CompileArtifact, context: PipelineContext):
        return _netlist_counters(artifact.netlist)


class UnrollStage(Stage):
    """Time-unroll sequential designs (then re-optimize the result)."""

    name = "unroll"

    def skip(self, artifact: CompileArtifact, context: PipelineContext) -> bool:
        return not artifact.netlist.has_sequential()

    def run(self, artifact: CompileArtifact, context: PipelineContext):
        options: CompileOptions = context.options
        if options.unroll_steps is None:
            raise ValueError(
                f"design {artifact.netlist.name!r} is sequential; pass unroll_steps"
            )
        artifact.netlist = unroll(
            artifact.netlist,
            options.unroll_steps,
            initial_value=options.initial_state,
        )
        if options.run_optimizer:
            artifact.netlist = optimize(artifact.netlist)
        context.add_counters(steps=options.unroll_steps)
        return artifact

    def counters(self, artifact: CompileArtifact, context: PipelineContext):
        return _netlist_counters(artifact.netlist)


class EmitEdifStage(Stage):
    """Serialize the final netlist to EDIF 2.0 text."""

    name = "emit_edif"

    def run(self, artifact: CompileArtifact, context: PipelineContext):
        artifact.edif_text = write_edif(artifact.netlist)
        return artifact

    def counters(self, artifact: CompileArtifact, context: PipelineContext):
        return {"edif_lines": len(artifact.edif_text.splitlines())}


class EdifRoundtripStage(Stage):
    """Re-parse the EDIF text: downstream sees exactly what the
    interchange format carries, as in the paper."""

    name = "edif_roundtrip"

    def run(self, artifact: CompileArtifact, context: PipelineContext):
        artifact.edif_netlist = read_edif(artifact.edif_text)
        return artifact

    def counters(self, artifact: CompileArtifact, context: PipelineContext):
        return _netlist_counters(artifact.edif_netlist)


class TranslateQmasmStage(Stage):
    """edif2qmasm: netlist cells to QMASM macro instantiations."""

    name = "translate_qmasm"

    def run(self, artifact: CompileArtifact, context: PipelineContext):
        artifact.qmasm_source = netlist_to_qmasm(artifact.edif_netlist)
        return artifact

    def counters(self, artifact: CompileArtifact, context: PipelineContext):
        return {"qmasm_lines": _code_lines(artifact.qmasm_source)}


class AssembleStage(Stage):
    """qmasm assembly: macro expansion down to the logical program."""

    name = "assemble"

    def run(self, artifact: CompileArtifact, context: PipelineContext):
        artifact.logical = assemble(parse_qmasm(artifact.qmasm_source))
        return artifact

    def counters(self, artifact: CompileArtifact, context: PipelineContext):
        # "variables" is the Section 6.1 logical-variable count (distinct
        # spins after chain contraction), matching --stats; the raw QMASM
        # name count before contraction rides along separately.
        model, _ = artifact.logical.to_ising(apply_pins=False)
        return {
            "variables": len(model),
            "couplers": model.num_interactions(),
            "qmasm_variables": len(artifact.logical.variables),
        }


def default_compile_stages() -> List[Stage]:
    """The paper's lowering pipeline, in order."""
    return [
        ElaborateStage(),
        OptimizeStage(),
        TechmapStage(),
        UnrollStage(),
        EmitEdifStage(),
        EdifRoundtripStage(),
        TranslateQmasmStage(),
        AssembleStage(),
    ]


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
class VerilogAnnealerCompiler:
    """The full Section 4 toolchain with a pluggable execution backend.

    Args:
        machine: execution backend for the ``dwave`` solver (a
            :class:`DWaveSimulator`); created lazily when omitted.
        seed: RNG seed threaded through solvers and the embedder.
        cache: ``True`` (default) enables the in-memory compilation and
            embedding caches; ``False`` disables both; a
            :class:`CompilationCache` instance is used directly.
        cache_dir: optional directory for an on-disk cache tier shared
            across processes.
        trace: optional callback receiving per-stage begin/end trace
            events from both compilation and execution pipelines.
        machines: simulated fleet size for the ``"shard"`` solver.
        fleet: heterogeneous fleet spec for the ``"shard"`` solver
            (``"C16,P8,Z6"``); overrides ``machines``.
        checkpoint_dir: directory the shard solver checkpoints into
            after every stitch round (``--resume`` continues from it).
        resume: resume shard solves from a matching checkpoint.
    """

    def __init__(
        self,
        machine: Optional[DWaveSimulator] = None,
        seed: Optional[int] = None,
        cache: Union[bool, CompilationCache] = True,
        cache_dir: Optional[str] = None,
        trace: Optional[TraceCallback] = None,
        machines: int = 4,
        fleet: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
    ):
        self.seed = seed
        self.trace = trace
        if isinstance(cache, CompilationCache):
            self.compile_cache = cache
            cache_enabled = cache.enabled
        else:
            cache_enabled = bool(cache)
            self.compile_cache = CompilationCache(
                cache_dir=cache_dir, enabled=cache_enabled
            )
        self.runner = QmasmRunner(
            machine=machine,
            seed=seed,
            embedding_cache=EmbeddingCache(
                cache_dir=cache_dir, enabled=cache_enabled
            ),
            trace=trace,
            machines=machines,
            fleet=fleet,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )
        #: The lowering pipeline; callers may reorder/extend/replace.
        self.compile_stages: List[Stage] = default_compile_stages()

    # ------------------------------------------------------------------
    def compile(
        self, verilog_source: str, options: Optional[CompileOptions] = None, **kwargs
    ) -> CompiledProgram:
        """Lower Verilog source through every stage to a logical program.

        Keyword arguments are shorthand for :class:`CompileOptions`
        fields (``compiler.compile(src, unroll_steps=4)``).  Results are
        memoized by ``hash(source, options)``: a repeated compile of the
        same design returns the cached :class:`CompiledProgram` without
        re-running any stage.
        """
        if options is None:
            options = CompileOptions(**kwargs)
        elif kwargs:
            raise TypeError("pass either options or keyword overrides, not both")

        with _trace.span("compile") as span:
            # Keyed by the attached machine's topology fingerprint so
            # programs compiled against different hardware families
            # never alias; a machine-less compiler stays on the
            # target-agnostic marker (and never builds a C16 graph
            # just to hash its name).
            machine = self.runner.machine
            target = (
                machine.topology.fingerprint() if machine is not None else "any"
            )
            cache_key = CompilationCache.key_for(verilog_source, options, target)
            cached = self.compile_cache.get(cache_key)
            if cached is not None:
                span.set_attributes(cached=True)
                return cached

            context = PipelineContext(
                options=options, seed=self.seed, trace=self.trace
            )
            artifact = PassManager(self.compile_stages, name="compile").run(
                CompileArtifact(source=verilog_source), context
            )
            program = CompiledProgram(
                verilog_source=verilog_source,
                elaborated=artifact.elaborated,
                netlist=artifact.netlist,
                edif_text=artifact.edif_text,
                qmasm_source=artifact.qmasm_source,
                logical=artifact.logical,
                edif_netlist=artifact.edif_netlist,
                options=options,
                stats=context.stats,
            )
            self.compile_cache.put(cache_key, program)
            span.set_attributes(cached=False)
        return program

    # ------------------------------------------------------------------
    def run(
        self,
        program: Union[str, CompiledProgram],
        pins: Sequence[str] = (),
        solver: str = "dwave",
        num_reads: int = 100,
        compile_options: Optional[CompileOptions] = None,
        **runner_kwargs,
    ) -> RunResult:
        """Execute a compiled program (compiling first if given source).

        ``pins`` bind inputs for forward execution or outputs for
        backward execution -- the same program runs either way.  When
        ``program`` is raw Verilog source, ``compile_options`` controls
        the implied compilation (e.g.
        ``run(src, compile_options=CompileOptions(unroll_steps=4))``);
        it is rejected for already-compiled programs.

        The compiled gate-level netlist rides along into the runner, so
        ``certify=True`` runs replay every cell's truth table against
        each read -- the end-to-end check a bare QMASM source cannot
        get.
        """
        if isinstance(program, str):
            program = self.compile(program, compile_options)
        elif compile_options is not None:
            raise TypeError(
                "compile_options only applies when run() is given raw "
                "Verilog source, not an already-compiled program"
            )
        # Certification must replay the netlist the QMASM source was
        # generated from (the EDIF round-trip renumbers internal nets,
        # so program.netlist's $net<N> names need not match the sampled
        # variables).  Old cached programs may predate the field.
        runner_kwargs.setdefault(
            "netlist", getattr(program, "edif_netlist", None) or program.netlist
        )
        return self.runner.run(
            program.logical,
            pins=pins,
            solver=solver,
            num_reads=num_reads,
            **runner_kwargs,
        )


def compile_verilog(
    verilog_source: str, seed: Optional[int] = None, **options
) -> CompiledProgram:
    """One-shot compilation convenience wrapper."""
    return VerilogAnnealerCompiler(seed=seed).compile(verilog_source, **options)


def run_verilog(
    verilog_source: str,
    pins: Sequence[str] = (),
    solver: str = "sa",
    num_reads: int = 200,
    num_sweeps: Optional[int] = None,
    max_workers: Optional[int] = None,
    seed: Optional[int] = None,
    **options,
) -> RunResult:
    """Compile and execute in one call (quickstart convenience).

    ``num_sweeps`` sets the classical solvers' per-read sweep budget and
    ``max_workers`` sizes the process pool for qbsolv reads and shard
    rounds (bit-identical to serial); both default to the runner's
    behavior when None.
    """
    compiler = VerilogAnnealerCompiler(seed=seed)
    program = compiler.compile(verilog_source, **options)
    return compiler.run(
        program,
        pins=pins,
        solver=solver,
        num_reads=num_reads,
        num_sweeps=num_sweeps,
        max_workers=max_workers,
    )
