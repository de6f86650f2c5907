"""Experiment harness: runs the paper's evaluation on the synthetic suite.

The harness ties everything together: it compiles each synthetic benchmark
with the requested hint encoding, simulates it under each technique, costs
the runs with the power model, and reproduces every figure and table of the
paper's evaluation section as structured data plus ASCII tables.

Typical use::

    from repro.harness import SuiteRunner, RunConfig, figures

    runner = SuiteRunner(RunConfig(max_instructions=20_000))
    fig6 = figures.figure6(runner)
    print(fig6.to_text())
"""

from repro.harness.experiment import (
    BenchmarkResult,
    RunConfig,
    SuiteRunner,
    TechniqueMetrics,
    TECHNIQUES,
)
from repro.harness.cache import ResultCache, collect_garbage, simulation_fingerprint
from repro.harness.parallel import ParallelSuiteRunner, SimulationJob
from repro.harness import figures
from repro.harness.figures import FigureData
from repro.harness.reporting import format_table, overall_processor_savings

__all__ = [
    "BenchmarkResult",
    "RunConfig",
    "SuiteRunner",
    "TechniqueMetrics",
    "TECHNIQUES",
    "ResultCache",
    "collect_garbage",
    "simulation_fingerprint",
    "ParallelSuiteRunner",
    "SimulationJob",
    "figures",
    "FigureData",
    "format_table",
    "overall_processor_savings",
]
