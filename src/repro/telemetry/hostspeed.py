"""Host-speed probe: time a run in reference seconds.

A shared host runs Python at speeds that swing by a fifth or more within
seconds, so a raw time says as much about the host's phase as about the
program.  :func:`host_probe` times a fixed piece of interpreter work, and
:func:`at_reference_speed` scales a measured time by the reference probe
time over the mean of the probes at its two ends: the time a host that
runs the probe in :data:`PROBE_REFERENCE_S` would have taken.  The figure
grid benchmark (``gridbench/``) keeps its own copy of both and scales its
steps the same way.

:func:`reference_seconds` is how the perf benches take every sample: it
repeats a run until it has used a minimum of process time and returns
the scaled time per call, and a sample is the fastest of five such runs
(``benchmarks/test_perf_simulator.py``).  Probes and runs read one
clock, process time.  gridbench
times both on the wall clock instead; a wall-clock probe next to a
process-time run would also count the time the host gave to other guests,
and scale the run by a stall the run never saw.

    PYTHONPATH=src python -c "from repro.telemetry.hostspeed import host_probe; print(host_probe())"
"""

from __future__ import annotations

import gc
import time
from typing import Callable

#: Iterations of one host probe: about 4 ms of interpreter work.
PROBE_ROUNDS = 20_000

#: The probe's time on the reference host that reference seconds are
#: expressed for; about its median on a 2-vCPU VM.
PROBE_REFERENCE_S = 3.0e-3


def host_probe() -> float:
    """Process seconds this host takes for a fixed piece of interpreter work.

    The work (dict and list traffic, integer arithmetic) never changes with
    the repository, so its time measures only how fast the shared host runs
    Python at this moment.
    """
    start = time.process_time()
    table: dict = {}
    values = list(range(64))
    for i in range(PROBE_ROUNDS):
        key = i & 63
        table[key] = table.get(key, 0) + (values[key] * 3 ^ i)
    return time.process_time() - start


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` as the reference host would have taken them, given the
    probes taken just before and just after they were measured."""
    return seconds * PROBE_REFERENCE_S * 2.0 / (probe_before + probe_after)


def reference_seconds(run: Callable[[], object], min_seconds: float = 0.0) -> tuple[float, int]:
    """Reference seconds per call of ``run``, and the number of calls.

    ``run`` is called at least once, and again until the calls have used
    ``min_seconds`` of process time, with the garbage collector off; the
    process time is scaled by host probes taken just before the first call
    and just after the last (:func:`at_reference_speed`).
    """
    gc.collect()
    gc.disable()
    try:
        before = host_probe()
        start = time.process_time()
        calls = 0
        while True:
            run()
            calls += 1
            elapsed = time.process_time() - start
            if elapsed >= min_seconds:
                break
        after = host_probe()
    finally:
        gc.enable()
    return at_reference_speed(elapsed, before, after) / calls, calls
