"""Ablation: the compiler's sizing margin (power/performance trade-off).

``CompilerConfig.sizing_margin`` (``repro/core/config.py``) is the
reproduction's calibration constant.  This bench sweeps it on two representative benchmarks and checks
the expected monotone behaviour: a larger margin costs less IPC and saves
less power.
"""

import pytest

from repro.core import CompilerConfig, compile_program
from repro.power import build_power_report, power_savings
from repro.techniques import BaselinePolicy, SoftwareDirectedPolicy
from repro.uarch import simulate
from repro.workloads import build_benchmark


BUDGET = dict(max_instructions=6_000, warmup_instructions=2_000)
BENCHES = ("gzip", "vortex")


def run_sweep():
    results = {}
    for name in BENCHES:
        program = build_benchmark(name)
        baseline_policy = BaselinePolicy()
        baseline = simulate(program, baseline_policy, **BUDGET)
        baseline_power = build_power_report(baseline, baseline_policy)
        per_margin = {}
        for margin in (1.0, 1.6, 2.2):
            config = CompilerConfig(sizing_margin=margin)
            compilation = compile_program(program, config, mode="extension")
            policy = SoftwareDirectedPolicy("extension")
            stats = simulate(compilation.instrumented_program, policy, **BUDGET)
            savings = power_savings(baseline_power, build_power_report(stats, policy))
            per_margin[margin] = (
                100 * (1 - stats.ipc / baseline.ipc),
                100 * savings.iq_dynamic,
            )
        results[name] = per_margin
    return results


def test_sizing_margin_tradeoff(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print()
    for name, per_margin in results.items():
        for margin, (loss, saving) in per_margin.items():
            print(f"  {name:8s} margin={margin:3.1f}: IPC loss {loss:5.1f}%  IQ dyn saving {saving:5.1f}%")
        losses = [per_margin[m][0] for m in sorted(per_margin)]
        savings = [per_margin[m][1] for m in sorted(per_margin)]
        # More head-room never increases IPC loss, and the tightest sizing
        # saves at least as much dynamic power as the loosest.
        assert losses[0] >= losses[-1] - 1.0
        assert savings[0] >= savings[-1] - 1.0
