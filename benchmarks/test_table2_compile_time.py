"""Table 2: compilation time, baseline versus the full analysis pass."""

from repro.core import compile_program
from repro.harness.tables import table2
from repro.workloads import build_benchmark

#: Compiles per benchmark when ranking compile times; the minimum is kept,
#: so a host stall during one compile cannot reorder the benchmarks.
RANKING_COMPILES = 3


def limited_seconds(name, config) -> float:
    """The full pass's analysis time for ``name``: the min of a few compiles."""
    program = build_benchmark(name)
    return min(
        compile_program(program, config, mode="noop").analysis_seconds
        for _ in range(RANKING_COMPILES)
    )


def test_table2_compile_times(benchmark, runner):
    result = benchmark.pedantic(table2, args=(runner,), rounds=1, iterations=1)
    print("\n" + result.to_text())
    rows = result.table.rows
    assert len(rows) == len(runner.config.benchmarks)
    # The paper's gcc dominates compile cost because of its control-flow
    # complexity.  In the synthetic suite gcc has by far the most basic
    # blocks to analyse and the most hints to emit, and so the longest
    # full-pass compile: with the loops' recurrences solved exactly, loop
    # analysis no longer outweighs the per-block work.
    by_name = {row.program_name: row for row in rows}
    assert by_name["gcc"].num_blocks == max(row.num_blocks for row in rows)
    assert by_name["gcc"].hints_emitted == max(row.hints_emitted for row in rows)
    seconds = {
        name: limited_seconds(name, runner.config.compiler_config)
        for name in runner.config.benchmarks
    }
    assert max(seconds, key=seconds.get) == "gcc", seconds
    # The full pass always costs more than the structural analyses alone.
    assert all(row.limited_seconds >= row.baseline_seconds * 0.5 for row in rows)
