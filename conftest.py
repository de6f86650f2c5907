"""Repository-level pytest configuration.

Adds the ``--workers`` option (default: the ``REPRO_WORKERS`` environment
variable, else 1) controlling how many processes
:class:`~repro.harness.parallel.ParallelSuiteRunner`-based tests and the
figure benchmarks fan out over.  The default of 1 keeps tier-1 runs
in-process and deterministic; CI or local reproduction runs can pass
``--workers N`` or export ``REPRO_WORKERS=N`` to exercise the pool.

Adds the ``--engine`` option (default: the ``REPRO_REPLAY_KERNEL``
environment variable, else the library default: native where it builds,
else scalar) pinning the replay kernel every simulation in the session
runs under.  It is
exported back into ``REPRO_REPLAY_KERNEL`` at configure time so the
whole stack — direct ``simulate`` calls, suite runners, pool workers and
queue worker subprocesses — inherits one kernel; replay statistics are
bit-identical between kernels, so tier-1 results must not change with
this option (that invariance is itself under test in
``tests/test_engines.py``).  Selecting a kernel whose toolchain is
absent on this host (``--engine native`` without a C compiler) skips the
session cleanly rather than erroring.
"""

from __future__ import annotations

import os

import pytest


def pytest_addoption(parser) -> None:
    # Same "0/unset means no explicit request" convention as
    # ParallelSuiteRunner's env parsing, but the test default is 1 worker
    # (in-process, deterministic) where the library defaults to cpu_count.
    parser.addoption(
        "--workers",
        type=int,
        default=int(os.environ.get("REPRO_WORKERS") or 0) or 1,
        help="worker processes for parallel suite runners (env: REPRO_WORKERS; "
        "0/unset means 1 here)",
    )
    # Choices come from the engine registry, not a hardcoded tuple, so a
    # newly registered kernel is selectable here without edits.  Guarded:
    # an import failure in an option hook would kill pytest before it can
    # print a normal collection error (e.g. PYTHONPATH=src forgotten).
    try:
        from repro.uarch.engine import available_engines

        engines = available_engines()
    except ImportError:
        engines = ("scalar", "native")

    # Opt-out for the reprolint tier-1 gate (tests/test_analysis.py's
    # shipped-tree check).  Default ON: a plain `python -m pytest -x -q`
    # fails on any new invariant violation under src/; pass --no-lint
    # while iterating on a change that is expected to lint dirty.  The
    # per-rule unit tests always run — only the whole-tree gate is
    # skippable.
    parser.addoption(
        "--no-lint",
        action="store_true",
        default=False,
        help="skip the reprolint shipped-tree gate "
        "(python -m repro.analysis src/) in tests/test_analysis.py",
    )

    # Opt-out for the fleetscope telemetry tests (tests/test_telemetry.py
    # and the span assertions elsewhere), mirroring --no-lint.
    # Default ON: tracing is no-op-by-default on the hot path, so the
    # telemetry tests enable it explicitly per test; --no-telemetry skips
    # those tests and force-disables tracing for the whole session (for
    # bisecting perf noise or running on a box where the span store's
    # extra file IO is unwanted).
    parser.addoption(
        "--no-telemetry",
        action="store_true",
        default=False,
        help="skip telemetry-marked tests and force-disable span tracing "
        "for the session (REPRO_TELEMETRY=0)",
    )

    parser.addoption(
        "--engine",
        choices=engines,
        default=None,
        help="replay kernel for every simulation in the session "
        "(env: REPRO_REPLAY_KERNEL; unset means the library default, "
        "native where it builds, else scalar); statistics are "
        "bit-identical between kernels",
    )

    parser.addoption(
        "--faults",
        default=None,
        metavar="SPEC",
        help="run the whole session under a chaoskit fault plan: a preset "
        "name (light, heavy) or a spec like "
        "'seed=3,rate=0.2,fire_limit=1,sleep_scale=0.1' "
        "(see repro.harness.faults.FaultPlan.from_spec).  Installs the "
        "deterministic injector in-process and exports REPRO_FAULT_PLAN "
        "so spawned queue workers inherit the same schedule.  Simulation "
        "results stay bit-identical under chaos (the gate in "
        "tests/test_faults.py), but visibility-sensitive unit tests may "
        "legitimately diverge — see docs/fault-model.md for scoping "
        "plans with sites=",
    )


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "telemetry: test exercises the fleetscope span/metrics "
        "plane (deselected by --no-telemetry)",
    )
    if config.getoption("--no-telemetry"):
        # Environment, not a fixture, for the same subprocess reason as
        # --engine: "0" pins install_from_env() to disabled in spawned
        # queue workers too.
        os.environ["REPRO_TELEMETRY"] = "0"
        from repro.telemetry import spans as tracing

        tracing.disable()
    engine = config.getoption("--engine")
    if engine:
        # Environment, not a fixture: the kernel must reach code that
        # never sees pytest — library-default simulate() calls, process
        # pools, and the queue worker subprocesses tests spawn.
        os.environ["REPRO_REPLAY_KERNEL"] = engine
    fault_spec = config.getoption("--faults")
    if fault_spec:
        # Same environment-not-fixture reasoning as --engine: worker
        # subprocesses self-install from REPRO_FAULT_PLAN at startup.
        from repro.harness.faults import FaultInjector, FaultPlan, install

        plan = FaultPlan.from_spec(fault_spec)
        os.environ["REPRO_FAULT_PLAN"] = plan.to_spec()
        install(FaultInjector(plan))


def pytest_collection_modifyitems(config, items) -> None:
    if config.getoption("--no-telemetry"):
        skip_marker = pytest.mark.skip(
            reason="--no-telemetry: telemetry plane opted out"
        )
        for item in items:
            if "telemetry" in item.keywords:
                item.add_marker(skip_marker)

    # ``--engine`` with a registered-but-unavailable kernel (native
    # without a C toolchain) skips the session
    # cleanly instead of erroring out of every simulation — mirroring how
    # the JaCe/hpy conftests treat an absent optional backend.  The
    # availability check is the engine's own unavailable_reason() seam,
    # so a future kernel gets this behaviour for free.
    engine = config.getoption("--engine")
    if engine:
        try:
            from repro.uarch.engine import get_engine

            reason = get_engine(engine).unavailable_reason()
        except ImportError:
            reason = None
        if reason is not None:
            skip_marker = pytest.mark.skip(
                reason=f"--engine {engine} unavailable on this host: {reason}"
            )
            for item in items:
                item.add_marker(skip_marker)


@pytest.fixture(scope="session")
def suite_workers(request) -> int:
    """Worker count for ParallelSuiteRunner-based tests and benchmarks."""
    return request.config.getoption("--workers")
