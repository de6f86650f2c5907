"""Ablation: issue-queue bank granularity.

Finer banks follow occupancy more closely, so more bank-cycles can be gated
off for the same resident set; coarser banks are cheaper to control but
waste leakage.  The paper uses 8-entry banks (10 banks of 8).
"""

from repro.core import CompilerConfig, compile_program
from repro.techniques import SoftwareDirectedPolicy
from repro.uarch import ProcessorConfig, simulate
from repro.workloads import build_benchmark


BUDGET = dict(max_instructions=6_000, warmup_instructions=2_000)


def run_bank_sweep():
    program = build_benchmark("mcf")
    compilation = compile_program(program, CompilerConfig(), mode="extension")
    results = {}
    for bank_size in (4, 8, 16):
        config = ProcessorConfig.hpca2005()
        config.iq_bank_size = bank_size
        stats = simulate(
            compilation.instrumented_program,
            SoftwareDirectedPolicy("extension"),
            config=config,
            **BUDGET,
        )
        results[bank_size] = 100 * stats.iq_banks_off_fraction
    return results


def test_bank_size_ablation(benchmark):
    results = benchmark.pedantic(run_bank_sweep, rounds=1, iterations=1)
    print()
    for bank_size, off in results.items():
        print(f"  bank size {bank_size:2d}: {off:5.1f}% of bank-cycles gated off")
    # Finer banks can only improve (or match) the gated fraction.
    assert results[4] >= results[16] - 1.0
    assert all(0.0 <= value <= 100.0 for value in results.values())
