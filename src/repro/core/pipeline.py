"""The full compiler pass (figure 5 of the paper).

For every analysable procedure:

1. find natural loops (inner loops analysed separately from the blocks that
   belong only to the outer loop);
2. form DAG regions from the remaining blocks, starting at the procedure
   entry and after every procedure call;
3. build dependence graphs and analyse each DAG block with the pseudo issue
   queue, and each loop with the cyclic-dependence-set equations;
4. (Improved mode only) refine requirements at hot call sites with
   inter-procedural functional-unit-contention information;
5. emit the requirements as special NOOPs or instruction tags.

Steps 1-3 do not depend on the hint encoding: :func:`analyse_program`
runs them once and returns a :class:`ProgramAnalysis`, which keeps each
procedure's CFG and loops.  :func:`compile_program` runs steps 4-5 for
one mode on top of an analysis, its own or one passed in, so the three
encodings of a program can share one analysis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.cfg.dag_regions import find_dag_regions
from repro.cfg.graph import ControlFlowGraph, build_cfg
from repro.cfg.natural_loops import NaturalLoop, find_natural_loops
from repro.core.config import CompilerConfig
from repro.core.dag_analysis import BlockRequirement, analyse_dag_region
from repro.core.instrument import ALL_MODES, InstrumentationStats, instrument_program
from repro.core.interprocedural import apply_interprocedural_refinement
from repro.core.loop_analysis import LoopRequirement, analyse_loop
from repro.isa.opcodes import Opcode
from repro.isa.program import Program


@dataclass
class ProcedureAnalysis:
    """Per-procedure analysis artefacts.

    ``cfg`` and ``loops`` are kept for the mode-specific steps of
    :func:`compile_program`, which would otherwise rebuild them on every
    compile; the counts and timing are bookkeeping for reports and tests.
    """

    name: str
    cfg: ControlFlowGraph
    loops: list[NaturalLoop] = field(default_factory=list)
    num_blocks: int = 0
    num_dag_regions: int = 0
    analysis_seconds: float = 0.0


@dataclass
class ProgramAnalysis:
    """The mode-independent half of the pass over one program: steps 1-3.

    One analysis serves every hint encoding: :func:`compile_program`
    copies what it refines and never modifies the analysis, so a caller
    may pass the same analysis to any number of compiles of ``program``
    under ``config``.

    Attributes:
        program: the analysed program, validated before the analysis.
        config: the analysis parameters.
        block_requirements: (procedure, block) -> requirement from the
            intra-procedural analysis (DAG blocks and loop headers).
        loop_requirements: per-loop analysis results.
        procedures: per-procedure CFG, natural loops and bookkeeping.
        seconds: wall-clock time the analysis took (validation excluded).
    """

    program: Program
    config: CompilerConfig
    block_requirements: dict[tuple[str, str], BlockRequirement] = field(default_factory=dict)
    loop_requirements: list[LoopRequirement] = field(default_factory=list)
    procedures: list[ProcedureAnalysis] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def loops_by_procedure(self) -> dict[str, list[NaturalLoop]]:
        """Procedure name -> its natural loops, innermost first."""
        return {procedure.name: procedure.loops for procedure in self.procedures}


@dataclass
class CompilationResult:
    """Everything the compiler pass produces for one program and mode.

    Attributes:
        program: the original, unmodified program.
        instrumented_program: the copy carrying hints (NOOPs or tags); it
            shares no mutable object with ``program`` or with any other
            compile's copy.
        mode: the hint encoding used.
        analysis: the mode-independent analysis the compile used (loop
            requirements and per-procedure bookkeeping included), shared
            with every other compile that was passed it.
        block_requirements: (procedure, block) -> requirement for every
            analysed block (DAG blocks and loop headers), refined for
            ``improved``, plus the post-call re-issues.
        preheader_hints: (procedure, block) -> value emitted at the end of
            that block, i.e. immediately before a loop is entered.
        instrumentation: emission statistics.
        analysis_seconds: wall-clock seconds of analysis behind this
            compile, the quantity table 2 of the paper reports: the
            analysis's own ``seconds`` (measured once, however many
            compiles share it) plus this mode's refinement, post-call
            and pre-header steps.  Hint emission is excluded.
    """

    program: Program
    instrumented_program: Program
    mode: str
    analysis: ProgramAnalysis
    block_requirements: dict[tuple[str, str], BlockRequirement] = field(default_factory=dict)
    preheader_hints: dict[tuple[str, str], int] = field(default_factory=dict)
    instrumentation: Optional[InstrumentationStats] = None
    analysis_seconds: float = 0.0

    def requirement_for(self, procedure: str, block: str) -> Optional[BlockRequirement]:
        """Convenience lookup of a block's requirement."""
        return self.block_requirements.get((procedure, block))

    @property
    def mean_requirement(self) -> float:
        """Mean emitted requirement across all hinted blocks."""
        if not self.block_requirements:
            return 0.0
        values = [req.entries for req in self.block_requirements.values()]
        return sum(values) / len(values)


def analyse_program(program: Program, config: CompilerConfig) -> ProgramAnalysis:
    """Validate ``program``, then run the intra-procedural analysis of
    figure 5 over every procedure."""
    program.validate()
    analysis = ProgramAnalysis(program=program, config=config)
    program_start = time.perf_counter()

    for procedure in program.analysable_procedures():
        start = time.perf_counter()
        cfg = build_cfg(procedure)
        loops = find_natural_loops(cfg)
        regions = find_dag_regions(cfg, loops)

        for region in regions:
            region_requirements = analyse_dag_region(cfg, region, config)
            for label, requirement in region_requirements.items():
                analysis.block_requirements[(procedure.name, label)] = requirement

        for loop in loops:
            ordered_labels = [
                block.label
                for block in procedure.blocks
                if block.label in loop.exclusive_body
            ]
            blocks = [cfg.block(label) for label in ordered_labels]
            loop_requirement = analyse_loop(
                blocks,
                config,
                procedure_name=procedure.name,
                header_label=loop.header,
            )
            analysis.loop_requirements.append(loop_requirement)
            analysis.block_requirements[(procedure.name, loop.header)] = (
                loop_requirement.as_block_requirement()
            )

        elapsed = time.perf_counter() - start
        analysis.procedures.append(
            ProcedureAnalysis(
                name=procedure.name,
                cfg=cfg,
                loops=loops,
                num_blocks=len(procedure.blocks),
                num_dag_regions=len(regions),
                analysis_seconds=elapsed,
            )
        )

    analysis.seconds = time.perf_counter() - program_start
    return analysis


def compute_postcall_requirements(
    analysis: ProgramAnalysis,
    block_requirements: dict[tuple[str, str], BlockRequirement],
) -> dict[tuple[str, str], BlockRequirement]:
    """Re-issue region sizes after procedure calls inside loops.

    Section 4.4: "On returning from a function call, we restart analysing
    the IQ requirements for the remainder of the callee procedure."  For
    call sites inside loops the remainder is governed by the enclosing
    loop's requirement, so the block that receives control after the call
    gets a hint carrying the loop's value; without it the callee's (small)
    last region would keep throttling every subsequent iteration.
    """
    additions: dict[tuple[str, str], BlockRequirement] = {}
    for procedure in analysis.procedures:
        cfg = procedure.cfg
        for loop in procedure.loops:
            header_req = block_requirements.get((procedure.name, loop.header))
            if header_req is None or header_req.source != "loop":
                continue
            for label in loop.body:
                if label == loop.header:
                    continue
                key = (procedure.name, label)
                if key in block_requirements or key in additions:
                    continue
                preds = [p for p in cfg.pred(label) if p in loop.body]
                follows_call = any(
                    any(
                        instr.opcode is Opcode.CALL
                        for instr in cfg.block(pred).instructions
                    )
                    for pred in preds
                )
                if follows_call:
                    additions[key] = BlockRequirement(
                        procedure=procedure.name,
                        label=label,
                        entries=header_req.entries,
                        raw_entries=header_req.raw_entries,
                        schedule=None,
                        source="postcall",
                    )
    return additions


def compute_preheader_hints(
    analysis: ProgramAnalysis,
    block_requirements: dict[tuple[str, str], BlockRequirement],
) -> dict[tuple[str, str], int]:
    """Decide where loop requirements are emitted.

    A loop's requirement must be in force *before* the loop is entered and
    must not be re-issued every iteration, so it is attached to the end of
    every predecessor of the loop header that lies outside the loop.  If a
    loop header has no such predecessor (the header is the procedure entry)
    the value falls back to the header itself.
    """
    preheader_hints: dict[tuple[str, str], int] = {}

    for procedure in analysis.procedures:
        for loop in procedure.loops:
            key = (procedure.name, loop.header)
            requirement = block_requirements.get(key)
            if requirement is None or requirement.source != "loop":
                continue
            outside_preds = [
                pred for pred in procedure.cfg.pred(loop.header) if pred not in loop.body
            ]
            targets = outside_preds or [loop.header]
            for pred in targets:
                pred_key = (procedure.name, pred)
                preheader_hints[pred_key] = max(
                    preheader_hints.get(pred_key, 0), requirement.entries
                )
    return preheader_hints


def compile_program(
    program: Program,
    config: Optional[CompilerConfig] = None,
    mode: str = "noop",
    analysis: Optional[ProgramAnalysis] = None,
) -> CompilationResult:
    """Run the compiler pass on ``program`` for one hint encoding.

    The pass has a mode-independent half, :func:`analyse_program`, and a
    per-mode half: the *Improved* refinement, the post-call and
    pre-header steps, and hint emission into a copy of the program.  To
    compile several modes, analyse once and pass the first result's
    ``analysis`` to the others.

    Args:
        program: the program to compile; never modified.
        config: analysis parameters; defaults mirror table 1.
        mode: ``"noop"``, ``"extension"`` or ``"improved"``.
        analysis: a :class:`ProgramAnalysis` of this very ``program``
            under an equal ``config`` to reuse; None analyses afresh.

    Raises:
        ValueError: for an unknown ``mode``, or an ``analysis`` of another
            program object or under another config.
    """
    if mode not in ALL_MODES:
        raise ValueError(f"unknown compilation mode {mode!r}")
    config = config or CompilerConfig()
    if analysis is None:
        analysis = analyse_program(program, config)
    elif analysis.program is not program or analysis.config != config:
        raise ValueError(
            f"the analysis of {analysis.program.name!r} belongs to another "
            f"program or compiler config than this compile of {program.name!r}"
        )

    start = time.perf_counter()
    if mode == "improved":
        block_requirements = apply_interprocedural_refinement(
            program, analysis.block_requirements, config, analysis.loops_by_procedure
        )
    else:
        block_requirements = dict(analysis.block_requirements)
    block_requirements.update(
        compute_postcall_requirements(analysis, block_requirements)
    )
    preheader_hints = compute_preheader_hints(analysis, block_requirements)
    analysis_seconds = analysis.seconds + (time.perf_counter() - start)

    instrumented, stats = instrument_program(
        program,
        block_requirements,
        config,
        mode=mode,
        preheader_hints=preheader_hints,
    )
    instrumented.validate()

    return CompilationResult(
        program=program,
        instrumented_program=instrumented,
        mode=mode,
        analysis=analysis,
        block_requirements=block_requirements,
        preheader_hints=preheader_hints,
        instrumentation=stats,
        analysis_seconds=analysis_seconds,
    )
