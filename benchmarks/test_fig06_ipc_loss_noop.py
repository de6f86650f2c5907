"""Figure 6: normalised IPC loss for the NOOP technique (vs. abella)."""

from figure_report import report
from repro.harness.figures import figure6


def test_figure6_ipc_loss_noop(benchmark, runner):
    figure = benchmark.pedantic(figure6, args=(runner,), rounds=1, iterations=1)
    report("Figure 6 - IPC loss, NOOP technique (paper: SPECINT 2.2%, abella 3.1%)", figure)
    series = figure.series["noop"]
    # Shape checks: resizing costs some IPC but the machine still works, and
    # mcf (memory bound, pointer chasing) sits well below the suite average
    # (the paper's qualitative claim; exact rank order is sample noise at
    # these scaled-down instruction budgets).  At the suite's
    # 100k-instruction budget the SPECINT noop loss measures ~1.4%
    # against the paper's 2.2% (it was ~2.4% at the old 16k budget), so
    # the tolerance band is an order of magnitude tighter than the 25%
    # ceiling it had at that budget.
    assert 0.0 <= series["SPECINT"] < 8.0
    assert series["mcf"] < series["SPECINT"]
    assert series["abella"] > 0.0
