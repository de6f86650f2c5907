"""Compilation reporting (table 2 of the paper).

Table 2 compares the time to compile each benchmark without the pass
("Baseline") and with it ("Limited").  The equivalent quantities here are
the time to run only the structural analyses every compiler performs anyway
(CFG construction and loop discovery) versus the time for the issue-queue
analysis behind one hint encoding: :attr:`CompilationResult.analysis_seconds`,
the mode-independent analysis plus the mode's own steps, hint emission
excluded.  A compile that reused a shared analysis reports the same
quantity as a fresh one, so the row does not depend on compile order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cfg.graph import build_cfg
from repro.cfg.natural_loops import find_natural_loops
from repro.core.config import CompilerConfig
from repro.core.pipeline import CompilationResult, compile_program
from repro.isa.program import Program


@dataclass
class CompilationReport:
    """Compile-time comparison for one program.

    Attributes:
        program_name: benchmark name.
        baseline_seconds: structural-analysis-only time (the stand-in for a
            compilation without the pass).
        limited_seconds: the pass's analysis time for one mode
            (:attr:`CompilationResult.analysis_seconds`: the shared
            analysis plus the mode's own steps, emission excluded).
        num_blocks: static basic-block count.
        num_instructions: static instruction count.
        hints_emitted: hint NOOPs or tags emitted by the pass.
    """

    program_name: str
    baseline_seconds: float
    limited_seconds: float
    num_blocks: int = 0
    num_instructions: int = 0
    hints_emitted: int = 0

    @property
    def slowdown(self) -> float:
        """Limited / baseline compile-time ratio."""
        if self.baseline_seconds <= 0:
            return float("inf")
        return self.limited_seconds / self.baseline_seconds


@dataclass
class CompileTimeTable:
    """The full table-2 analogue across a benchmark suite."""

    rows: list[CompilationReport] = field(default_factory=list)

    def row_for(self, program_name: str) -> CompilationReport:
        """Return the row for ``program_name``."""
        for row in self.rows:
            if row.program_name == program_name:
                return row
        raise KeyError(f"no compile-time row for {program_name!r}")

    def longest(self) -> CompilationReport:
        """The benchmark with the longest limited compile time."""
        if not self.rows:
            raise ValueError("empty compile-time table")
        return max(self.rows, key=lambda row: row.limited_seconds)


def measure_baseline_compile(program: Program) -> float:
    """Time the structural analyses a conventional compilation performs."""
    start = time.perf_counter()
    for procedure in program.analysable_procedures():
        cfg = build_cfg(procedure)
        find_natural_loops(cfg)
    return time.perf_counter() - start


def compare_compile_times(
    program: Program,
    config: CompilerConfig | None = None,
    mode: str = "noop",
    precomputed: CompilationResult | None = None,
) -> CompilationReport:
    """Produce one table-2 row for ``program``.

    ``precomputed`` is a compilation of ``program`` to report instead of
    compiling it here in ``mode``; its ``analysis_seconds`` counts the
    analysis it shared, so either way the row reports the same quantity.
    """
    config = config or CompilerConfig()
    baseline_seconds = measure_baseline_compile(program)
    result = precomputed or compile_program(program, config, mode=mode)

    stats = result.instrumentation
    hints = 0
    if stats is not None:
        hints = stats.hints_inserted + stats.instructions_tagged
    return CompilationReport(
        program_name=program.name,
        baseline_seconds=baseline_seconds,
        limited_seconds=result.analysis_seconds,
        num_blocks=program.num_basic_blocks,
        num_instructions=program.num_instructions,
        hints_emitted=hints,
    )
