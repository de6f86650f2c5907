"""The paper's contribution: compiler-directed issue-queue sizing.

This package implements section 4 of the paper (the compiler analysis) and
the instrumentation that communicates its results to the processor
(section 3): per-basic-block pseudo-issue-queue scheduling for DAG regions,
cyclic-dependence-set equation analysis for loops, procedure-call handling,
the optional inter-procedural functional-unit-contention refinement of the
*Improved* scheme, and hint emission as special NOOPs or instruction tags.

The analysis does not depend on the hint encoding, so it runs once per
program (:func:`analyse_program`) and each encoding is emitted on top of
it into a copy of the program; the source program is never modified.

Typical use::

    from repro.core import CompilerConfig, compile_program

    result = compile_program(program, CompilerConfig(), mode="noop")
    result.instrumented_program   # program with hint NOOPs inserted
    result.block_requirements     # per-block IQ-entry requirements

    # Further encodings of the same program reuse its analysis:
    tagged = compile_program(
        program, CompilerConfig(), mode="extension", analysis=result.analysis
    )
"""

from repro.core.config import CompilerConfig
from repro.core.pseudo_queue import PseudoIssueQueue, ScheduleResult
from repro.core.dag_analysis import BlockRequirement, analyse_block, analyse_dag_region
from repro.core.loop_analysis import LoopRequirement, analyse_loop
from repro.core.interprocedural import apply_interprocedural_refinement
from repro.core.instrument import instrument_program
from repro.core.pipeline import (
    CompilationResult,
    ProgramAnalysis,
    analyse_program,
    compile_program,
)
from repro.core.report import CompilationReport, compare_compile_times

__all__ = [
    "CompilerConfig",
    "PseudoIssueQueue",
    "ScheduleResult",
    "BlockRequirement",
    "analyse_block",
    "analyse_dag_region",
    "LoopRequirement",
    "analyse_loop",
    "apply_interprocedural_refinement",
    "instrument_program",
    "CompilationResult",
    "ProgramAnalysis",
    "analyse_program",
    "compile_program",
    "CompilationReport",
    "compare_compile_times",
]
