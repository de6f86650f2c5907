"""Shared fixtures for the figure/table regeneration benchmarks.

One :class:`ParallelSuiteRunner` is shared by every benchmark module so
each (benchmark, technique) pair is simulated exactly once per pytest
session; the per-figure benchmarks then measure the figure-assembly step
and, more importantly, print the regenerated numbers next to the paper's
values.

The grid is populated up front by ``run_suite`` — fanned out over
``REPRO_WORKERS`` processes (or the ``--workers`` option) and backed by
the on-disk result cache under ``benchmarks/.figure-cache`` — so re-runs
with unchanged configuration skip simulation entirely.  Delete that
directory (or change any configuration input) to force re-simulation.

The instruction budget is 100k instructions (20k warm-up) per cell:
each benchmark's trace is about 2.4 MiB of compact columns (25 bytes
per instruction, :mod:`repro.uarch.trace`), replayed whole, so the
figure suite runs at a meaningfully higher fidelity than the earlier
16k-instruction compromise (figure 6's SPECINT noop loss re-anchors
against the paper's 2.2% at this budget).  A cold grid takes a few minutes of simulation on one
core; re-runs with unchanged configuration load from the cache instead.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness import ParallelSuiteRunner, RunConfig

CACHE_DIR = Path(__file__).parent / ".figure-cache"


@pytest.fixture(scope="session")
def record_trend(request) -> bool:
    """True under ``pytest --record-trend``: the perf benches then append
    their samples to ``BENCH_trace.json`` (see ``test_perf_simulator``)."""
    return request.config.getoption("--record-trend")


@pytest.fixture(scope="session")
def runner(suite_workers) -> ParallelSuiteRunner:
    runner = ParallelSuiteRunner(
        RunConfig(max_instructions=100_000, warmup_instructions=20_000),
        workers=suite_workers,
        cache_dir=str(CACHE_DIR),
    )
    runner.run_suite()
    return runner
