"""One replay per timing class, and one pool task per benchmark.

The replay kernels read a policy only through ``uses_hints``, the two
bank-gating flags and five hooks
(:meth:`~repro.techniques.base.ResizingPolicy.timing_class`), so the
runner replays the baseline and nonEmpty cells of a benchmark once and
costs each on its own.  These tests pin the premise (nonEmpty replays
exactly like the baseline, checked without the sharing), the rule (any
overridden hook opts a policy out), and the runner's counts and cells.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import compile_program
from repro.harness import ParallelSuiteRunner, RunConfig
from repro.harness import parallel as parallel_module
from repro.harness.cache import ResultCache
from repro.harness.experiment import SOFTWARE_TECHNIQUES, TECHNIQUES, make_policy
from repro.techniques import (
    AbellaPolicy,
    BaselinePolicy,
    FixedLimitPolicy,
    NonEmptyPolicy,
    SoftwareDirectedPolicy,
)
from repro.techniques.base import KERNEL_HOOKS
from repro.uarch import simulate
from repro.uarch.engine import native as native_module
from repro.uarch.engine.base import ReplayEngine
from repro.uarch.trace import clear_trace_memo
from repro.workloads import SPECINT_BENCHMARKS, build_benchmark

#: The figure budget, replayed under the native kernel, and the
#: equivalence matrix's budget, replayed under the scalar one.
BUDGETS = {"native": (100_000, 20_000), "scalar": (2_500, 400)}

GRID = RunConfig(
    benchmarks=("gzip", "ptrthrash"), max_instructions=2_500, warmup_instructions=500
)


def _differing_fields(a, b) -> list[str]:
    return [
        field.name
        for field in dataclasses.fields(a)
        if getattr(a, field.name) != getattr(b, field.name)
    ]


@pytest.fixture()
def replay_calls(monkeypatch) -> list:
    """Every ``ReplayEngine.run`` call of the test, counted."""
    calls = []
    run = ReplayEngine.run

    def counted(self, *args, **kwargs):
        calls.append(self.name)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(ReplayEngine, "run", counted)
    return calls


# ----------------------------------------------------------------------
# The premise: nonEmpty replays like the baseline
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", sorted(BUDGETS))
@pytest.mark.parametrize("name", SPECINT_BENCHMARKS)
def test_nonempty_replays_exactly_like_the_baseline(name, engine):
    """Replayed apart, outside the runner, the two policies' statistics
    agree field by field.  A timing change to ``NonEmptyPolicy`` fails
    here instead of being copied from the baseline's replay."""
    if engine == "native" and not native_module.native_available():
        pytest.skip(f"native kernel unavailable: {native_module.native_unavailable_reason()}")
    budget, warmup = BUDGETS[engine]
    program = build_benchmark(name)
    baseline, nonempty = (
        simulate(
            program,
            policy,
            max_instructions=budget,
            warmup_instructions=warmup,
            engine=engine,
        )
        for policy in (BaselinePolicy(), NonEmptyPolicy())
    )
    assert _differing_fields(baseline, nonempty) == []
    assert baseline.cycles > 0


# ----------------------------------------------------------------------
# The rule
# ----------------------------------------------------------------------
def test_timing_classes_of_the_shipped_policies():
    assert BaselinePolicy().timing_class() == NonEmptyPolicy().timing_class()
    assert BaselinePolicy().timing_class() == (False, False, False)
    for policy in (
        AbellaPolicy(),
        FixedLimitPolicy(8),
        *(SoftwareDirectedPolicy(variant) for variant in SOFTWARE_TECHNIQUES),
    ):
        assert policy.timing_class() is None, policy.name


@pytest.mark.parametrize("hook", KERNEL_HOOKS)
def test_a_policy_overriding_any_hook_is_never_shared(hook):
    original = getattr(NonEmptyPolicy, hook)

    def passthrough(self, *args):
        return original(self, *args)

    subclass = type("HookedNonEmpty", (NonEmptyPolicy,), {hook: passthrough})
    assert subclass().timing_class() is None
    # On the instance, too: the kernels call the bound attribute.
    policy = NonEmptyPolicy()
    setattr(policy, hook, passthrough.__get__(policy))
    assert policy.timing_class() is None


def test_a_hooked_policy_gets_its_own_replay(monkeypatch, replay_calls):
    """A nonEmpty whose ``on_hint`` is overridden replays on its own,
    and so does every other cell: 12 replays for 12 cells."""

    class HookedNonEmpty(NonEmptyPolicy):
        def on_hint(self, core, value):
            super().on_hint(core, value)

    def policy_for(technique, config):
        if technique == "nonempty":
            return HookedNonEmpty()
        return make_policy(technique, config)

    monkeypatch.setattr(parallel_module, "make_policy", policy_for)
    clear_trace_memo()
    runner = ParallelSuiteRunner(GRID, workers=1)
    runner.run_suite()
    assert len(replay_calls) == runner.simulations_run == 12


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def _reference_cells(directory) -> dict[str, bytes]:
    """Each cell of ``GRID`` simulated on its own, through ``simulate``,
    and stored as the runner stores it."""
    cache = ResultCache(directory)
    for benchmark in GRID.benchmarks:
        base = build_benchmark(benchmark)
        for technique in TECHNIQUES:
            program = base
            if technique in SOFTWARE_TECHNIQUES:
                program = compile_program(
                    base, GRID.compiler_config, mode=technique
                ).instrumented_program
            stats = simulate(
                program,
                make_policy(technique, GRID),
                config=GRID.processor_config,
                max_instructions=GRID.max_instructions,
                warmup_instructions=GRID.warmup_instructions,
            )
            job = parallel_module.SimulationJob(benchmark, technique, GRID)
            cache.store(job.fingerprint(), stats, benchmark=benchmark, technique=technique)
    return _cells(directory)


def _cells(directory) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.glob("*.json")}


def test_a_cold_grid_replays_once_per_timing_class(tmp_path, replay_calls):
    clear_trace_memo()
    runner = ParallelSuiteRunner(GRID, workers=1, cache_dir=str(tmp_path / "runner"))
    results = runner.run_suite()
    assert len(replay_calls) == 10
    assert runner.simulations_run == len(results) == 12
    for benchmark in GRID.benchmarks:
        baseline = results[(benchmark, "baseline")]
        nonempty = results[(benchmark, "nonempty")]
        assert baseline.stats == nonempty.stats
        assert baseline.stats is not nonempty.stats
        assert baseline.power != nonempty.power
    assert _cells(tmp_path / "runner") == _reference_cells(tmp_path / "reference")


def test_the_pool_builds_each_trace_once(tmp_path):
    """Each benchmark's jobs run as one pool task, so two workers never
    build one trace: one trace per benchmark, missed and stored once,
    and cells byte-identical to the in-process run."""
    cells = {}
    for workers in (2, 1):
        clear_trace_memo()
        directory = tmp_path / f"workers-{workers}"
        runner = ParallelSuiteRunner(GRID, workers=workers, cache_dir=str(directory))
        runner.run_suite()
        traces = len(GRID.benchmarks)
        assert (runner.trace_cache.misses, runner.trace_cache.stores) == (traces, traces)
        cells[workers] = _cells(directory)
    assert len(cells[1]) == 12
    assert cells[2] == cells[1]
