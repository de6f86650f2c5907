"""Running benchmarks under techniques and computing relative metrics.

Every number the paper reports is relative to the conventional baseline
machine running the uninstrumented program, so the harness always pairs a
technique run with the baseline run of the same benchmark and derives:

* IPC loss (figures 6 and 10),
* issue-queue occupancy reduction (figure 7) and bank-off fractions,
* issue-queue dynamic/static power savings (figures 8 and 11),
* integer register-file dynamic/static power savings (figures 9 and 12).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.core import CompilerConfig, CompilationResult, ProgramAnalysis, compile_program
from repro.power import EnergyParams, PowerReport, build_power_report, power_savings
from repro.techniques import (
    AbellaPolicy,
    BaselinePolicy,
    NonEmptyPolicy,
    SoftwareDirectedPolicy,
)
from repro.uarch import ProcessorConfig, SimulationStats, simulate
from repro.workloads import SPECINT_BENCHMARKS, build_benchmark


#: Techniques in the order reports present them.  ``noop``, ``extension``
#: and ``improved`` are the paper's three software-directed variants.
TECHNIQUES: tuple[str, ...] = (
    "baseline",
    "nonempty",
    "abella",
    "noop",
    "extension",
    "improved",
)

#: Techniques that require the program to be compiled with hints.
SOFTWARE_TECHNIQUES: tuple[str, ...] = ("noop", "extension", "improved")


@dataclass
class RunConfig:
    """Parameters of one evaluation campaign.

    Attributes:
        benchmarks: benchmark names to evaluate.
        max_instructions: dynamic instructions to simulate per run (the
            paper's 100M-instruction samples scaled down for a Python
            simulator; ``benchmarks/conftest.py`` gives the figure
            budget).
        warmup_instructions: committed instructions before measurement
            starts (cache/branch-predictor warm-up).
        compiler_config: compiler analysis parameters.
        processor_config: machine description (table 1 by default).
        energy_params: power-model coefficients.
        abella_interval: evaluation interval of the abella heuristic.
    """

    benchmarks: tuple[str, ...] = SPECINT_BENCHMARKS
    max_instructions: int = 20_000
    warmup_instructions: int = 6_000
    compiler_config: CompilerConfig = field(default_factory=CompilerConfig)
    processor_config: ProcessorConfig = field(default_factory=ProcessorConfig.hpca2005)
    energy_params: EnergyParams = field(default_factory=EnergyParams)
    abella_interval: int = 768


@dataclass
class BenchmarkResult:
    """One (benchmark, technique) simulation plus its power costing.

    ``compile`` produces the software techniques' compilation (None for
    the others); it runs on the first read of :attr:`compilation`, so a
    result served from a cache compiles nothing until someone asks.
    """

    benchmark: str
    technique: str
    stats: SimulationStats
    power: PowerReport
    policy_name: str
    compile: Optional[Callable[[], CompilationResult]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def compilation(self) -> Optional[CompilationResult]:
        """The program's compilation, or None for a hardware technique."""
        return None if self.compile is None else self.compile()


@dataclass
class TechniqueMetrics:
    """Relative metrics of one technique on one benchmark."""

    benchmark: str
    technique: str
    ipc: float
    baseline_ipc: float
    ipc_loss_pct: float
    occupancy: float
    baseline_occupancy: float
    occupancy_reduction_pct: float
    iq_banks_off_pct: float
    rf_banks_off_pct: float
    iq_dynamic_saving_pct: float
    iq_static_saving_pct: float
    rf_dynamic_saving_pct: float
    rf_static_saving_pct: float
    inflight_reduction_pct: float


def make_policy(technique: str, config: RunConfig):
    """Instantiate the resizing policy for ``technique``."""
    if technique == "baseline":
        return BaselinePolicy()
    if technique == "nonempty":
        return NonEmptyPolicy()
    if technique == "abella":
        return AbellaPolicy(interval_cycles=config.abella_interval)
    if technique in SOFTWARE_TECHNIQUES:
        return SoftwareDirectedPolicy(variant=technique)
    raise ValueError(f"unknown technique {technique!r}")


class SuiteRunner:
    """Lazily runs and caches (benchmark, technique) simulations.

    Compilations are memoised per (benchmark, mode), and a benchmark is
    analysed once: its first compile's analysis serves the other modes.
    ``compile_count`` and ``analysis_count`` report how many of each
    this runner has run.
    """

    def __init__(self, config: Optional[RunConfig] = None):
        self.config = config or RunConfig()
        self._results: dict[tuple[str, str], BenchmarkResult] = {}
        self._compilations: dict[tuple[str, str], CompilationResult] = {}
        self._analyses: dict[str, ProgramAnalysis] = {}

    @property
    def compile_count(self) -> int:
        """Compiles this runner has run (one per benchmark and mode)."""
        return len(self._compilations)

    @property
    def analysis_count(self) -> int:
        """Analyses this runner has run (one per benchmark)."""
        return len(self._analyses)

    # ------------------------------------------------------------------
    def grid(
        self,
        techniques: Iterable[str] = TECHNIQUES,
        benchmarks: Optional[Iterable[str]] = None,
    ) -> list[tuple[str, str]]:
        """The (benchmark, technique) cells of one campaign, in report order.

        Benchmarks iterate outermost, techniques innermost — the order
        every figure presents and every execution backend preserves.
        Defaults come from the campaign configuration.
        """
        techniques = tuple(techniques)  # survive one-shot iterators
        if benchmarks is None:
            benchmarks = self.config.benchmarks
        return [
            (benchmark, technique)
            for benchmark in benchmarks
            for technique in techniques
        ]

    def compilation(self, benchmark: str, mode: str) -> CompilationResult:
        """Compile ``benchmark`` with hint encoding ``mode`` (cached).

        The benchmark's first compile analyses it; later modes reuse
        that analysis.
        """
        key = (benchmark, mode)
        if key not in self._compilations:
            result = compile_program(
                build_benchmark(benchmark),
                self.config.compiler_config,
                mode=mode,
                analysis=self._analyses.get(benchmark),
            )
            self._analyses[benchmark] = result.analysis
            self._compilations[key] = result
        return self._compilations[key]

    def result(self, benchmark: str, technique: str) -> BenchmarkResult:
        """Simulate ``benchmark`` under ``technique`` (cached)."""
        key = (benchmark, technique)
        if key in self._results:
            return self._results[key]

        config = self.config
        policy = make_policy(technique, config)
        compile_ = None
        if technique in SOFTWARE_TECHNIQUES:
            compile_ = functools.partial(self.compilation, benchmark, technique)
            program = compile_().instrumented_program
        else:
            program = build_benchmark(benchmark)

        stats = simulate(
            program,
            policy,
            config=config.processor_config,
            max_instructions=config.max_instructions,
            warmup_instructions=config.warmup_instructions,
        )
        power = build_power_report(stats, policy, config.energy_params)
        result = BenchmarkResult(
            benchmark=benchmark,
            technique=technique,
            stats=stats,
            power=power,
            policy_name=policy.name,
            compile=compile_,
        )
        self._results[key] = result
        return result

    # ------------------------------------------------------------------
    def metrics(self, benchmark: str, technique: str) -> TechniqueMetrics:
        """Relative metrics of ``technique`` on ``benchmark`` versus baseline."""
        baseline = self.result(benchmark, "baseline")
        run = self.result(benchmark, technique)
        savings = power_savings(baseline.power, run.power)

        baseline_ipc = baseline.stats.ipc
        ipc = run.stats.ipc
        ipc_loss = 100.0 * (1.0 - ipc / baseline_ipc) if baseline_ipc > 0 else 0.0

        baseline_occ = baseline.stats.avg_iq_occupancy
        occupancy = run.stats.avg_iq_occupancy
        occ_reduction = (
            100.0 * (1.0 - occupancy / baseline_occ) if baseline_occ > 0 else 0.0
        )
        baseline_inflight = baseline.stats.avg_inflight
        inflight_reduction = (
            100.0 * (1.0 - run.stats.avg_inflight / baseline_inflight)
            if baseline_inflight > 0
            else 0.0
        )

        pct = savings.as_percentages()
        return TechniqueMetrics(
            benchmark=benchmark,
            technique=technique,
            ipc=ipc,
            baseline_ipc=baseline_ipc,
            ipc_loss_pct=ipc_loss,
            occupancy=occupancy,
            baseline_occupancy=baseline_occ,
            occupancy_reduction_pct=occ_reduction,
            iq_banks_off_pct=100.0 * run.stats.iq_banks_off_fraction,
            rf_banks_off_pct=100.0 * run.stats.rf_banks_off_fraction,
            iq_dynamic_saving_pct=pct["iq_dynamic_pct"],
            iq_static_saving_pct=pct["iq_static_pct"],
            rf_dynamic_saving_pct=pct["rf_dynamic_pct"],
            rf_static_saving_pct=pct["rf_static_pct"],
            inflight_reduction_pct=inflight_reduction,
        )

    def suite_metrics(self, technique: str) -> list[TechniqueMetrics]:
        """Metrics for every benchmark in the campaign."""
        return [
            self.metrics(benchmark, technique) for benchmark in self.config.benchmarks
        ]

    def average(self, technique: str, attribute: str) -> float:
        """Arithmetic mean of ``attribute`` over the suite (the SPECINT bar)."""
        values = [getattr(m, attribute) for m in self.suite_metrics(technique)]
        if not values:
            return 0.0
        return sum(values) / len(values)
