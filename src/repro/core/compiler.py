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
    print(format_pass_table(program.stats))   # from repro.core.pipeline
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
from repro.synth.opt import optimize_in_place
from repro.synth.simulate import NetlistSimulator
from repro.synth.techmap import techmap_in_place
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
    """All artifacts of one compilation, highest to lowest level.

    The compile stages fill it in order, starting from the source and
    options; a field stays None until its stage has run.
    """

    verilog_source: str
    options: CompileOptions = field(default_factory=CompileOptions)
    netlist: Optional[Netlist] = None
    edif_text: Optional[str] = None
    #: The netlist as re-read from the EDIF text -- the exact netlist
    #: the QMASM source was generated from.  The round-trip renumbers
    #: internal nets, so anything that must agree with the QMASM
    #: variable names (result certification's gate replay in
    #: particular) has to use *this* netlist, not :attr:`netlist`.
    edif_netlist: Optional[Netlist] = None
    qmasm_source: Optional[str] = None
    logical: Optional[LogicalProgram] = None
    #: Per-stage wall times and artifact counters for this compilation.
    stats: PipelineStats = field(default_factory=dict)

    def simulator(self) -> NetlistSimulator:
        """A forward simulator over the final netlist (solution checking)."""
        return NetlistSimulator(self.netlist)

    def statistics(self) -> Dict[str, object]:
        """The Section 6.1 static properties of this compilation."""
        logical_model, _ = self.logical.lowering
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
class ElaborateStage(Stage):
    """Verilog text -> word-level netlist, lowered to gates."""

    name = "elaborate"

    def run(self, artifact: CompiledProgram, context: PipelineContext):
        options: CompileOptions = context.options
        artifact.netlist = elaborate(
            artifact.verilog_source, top=options.top, parameters=options.parameters
        )
        return artifact

    def counters(self, artifact: CompiledProgram, context: PipelineContext):
        return artifact.netlist.counters()


class OptimizeStage(Stage):
    """ABC-role logic optimization (const-fold, CSE, dead gates)."""

    name = "optimize"

    def skip(self, artifact: CompiledProgram, context: PipelineContext) -> bool:
        return not context.options.run_optimizer

    def run(self, artifact: CompiledProgram, context: PipelineContext):
        optimize_in_place(artifact.netlist)
        return artifact

    def counters(self, artifact: CompiledProgram, context: PipelineContext):
        return artifact.netlist.counters()


class TechmapStage(Stage):
    """Fold primitive gates into the paper's Table 5 compound cells."""

    name = "techmap"

    def skip(self, artifact: CompiledProgram, context: PipelineContext) -> bool:
        return not context.options.run_techmap

    def run(self, artifact: CompiledProgram, context: PipelineContext):
        techmap_in_place(artifact.netlist)
        return artifact

    def counters(self, artifact: CompiledProgram, context: PipelineContext):
        return artifact.netlist.counters()


class UnrollStage(Stage):
    """Time-unroll sequential designs (then re-optimize the result)."""

    name = "unroll"

    def skip(self, artifact: CompiledProgram, context: PipelineContext) -> bool:
        return not artifact.netlist.has_sequential()

    def run(self, artifact: CompiledProgram, context: PipelineContext):
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
            optimize_in_place(artifact.netlist)
        context.add_counters(steps=options.unroll_steps)
        return artifact

    def counters(self, artifact: CompiledProgram, context: PipelineContext):
        return artifact.netlist.counters()


class EmitEdifStage(Stage):
    """Serialize the final netlist to EDIF 2.0 text."""

    name = "emit_edif"

    def run(self, artifact: CompiledProgram, context: PipelineContext):
        artifact.edif_text = write_edif(artifact.netlist)
        return artifact

    def counters(self, artifact: CompiledProgram, context: PipelineContext):
        return {"edif_lines": len(artifact.edif_text.splitlines())}


class EdifRoundtripStage(Stage):
    """Re-parse the EDIF text: downstream sees exactly what the
    interchange format carries, as in the paper."""

    name = "edif_roundtrip"

    def run(self, artifact: CompiledProgram, context: PipelineContext):
        artifact.edif_netlist = read_edif(artifact.edif_text)
        return artifact

    def counters(self, artifact: CompiledProgram, context: PipelineContext):
        return artifact.edif_netlist.counters()


class TranslateQmasmStage(Stage):
    """edif2qmasm: netlist cells to QMASM macro instantiations."""

    name = "translate_qmasm"

    def run(self, artifact: CompiledProgram, context: PipelineContext):
        artifact.qmasm_source = netlist_to_qmasm(artifact.edif_netlist)
        return artifact

    def counters(self, artifact: CompiledProgram, context: PipelineContext):
        return {"qmasm_lines": _code_lines(artifact.qmasm_source)}


class AssembleStage(Stage):
    """qmasm assembly: macro expansion down to the logical program,
    lowered once to its unpinned Ising model."""

    name = "assemble"

    def run(self, artifact: CompiledProgram, context: PipelineContext):
        artifact.logical = assemble(parse_qmasm(artifact.qmasm_source))
        return artifact

    def counters(self, artifact: CompiledProgram, context: PipelineContext):
        # "variables" is the Section 6.1 logical-variable count (distinct
        # spins after chain contraction), matching --stats; the raw QMASM
        # name count before contraction rides along separately.
        model, _ = artifact.logical.lowering
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
        **runner_options: the shard solver's fleet and checkpoint
            settings (``machines``, ``fleet``, ``checkpoint_dir``,
            ``resume``), passed on to :class:`QmasmRunner`.
    """

    def __init__(
        self,
        machine: Optional[DWaveSimulator] = None,
        seed: Optional[int] = None,
        cache: Union[bool, CompilationCache] = True,
        cache_dir: Optional[str] = None,
        **runner_options,
    ):
        self.seed = seed
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
            **runner_options,
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

            context = PipelineContext(options=options)
            program = PassManager(self.compile_stages, name="compile").run(
                CompiledProgram(verilog_source=verilog_source, options=options),
                context,
            )
            program.stats = context.stats
            self.compile_cache.put(cache_key, program)
            span.set_attributes(cached=False)
        return program

    # ------------------------------------------------------------------
    def run(
        self,
        program: Union[str, CompiledProgram],
        pins: Sequence[str] = (),
        *,
        compile_options: Optional[CompileOptions] = None,
        **options,
    ) -> RunResult:
        """Execute a compiled program (compiling first if given source).

        ``pins`` bind inputs for forward execution or outputs for
        backward execution -- the same program runs either way.  When
        ``program`` is raw Verilog source, ``compile_options`` controls
        the implied compilation (e.g.
        ``run(src, compile_options=CompileOptions(unroll_steps=4))``);
        it is rejected for already-compiled programs.  Every other
        keyword goes to :meth:`QmasmRunner.run`: ``deadline`` and the
        :class:`~repro.qmasm.runner.RunOptions` fields.

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
        # variables).
        options.setdefault("netlist", program.edif_netlist)
        return self.runner.run(program.logical, pins=pins, **options)


def compile_verilog(
    verilog_source: str, seed: Optional[int] = None, **options
) -> CompiledProgram:
    """One-shot compilation convenience wrapper."""
    return VerilogAnnealerCompiler(seed=seed).compile(verilog_source, **options)


def run_verilog(
    verilog_source: str,
    pins: Sequence[str] = (),
    seed: Optional[int] = None,
    compile_options: Optional[CompileOptions] = None,
    **options,
) -> RunResult:
    """Compile and execute in one call (quickstart convenience).

    ``compile_options`` controls the compilation; every other keyword
    is a run option of :meth:`VerilogAnnealerCompiler.run`, with the
    quickstart defaults ``solver="sa"`` and ``num_reads=200``.
    """
    options.setdefault("solver", "sa")
    options.setdefault("num_reads", 200)
    return VerilogAnnealerCompiler(seed=seed).run(
        verilog_source, pins=pins, compile_options=compile_options, **options
    )
