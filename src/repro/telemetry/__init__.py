"""The perf-trajectory trend gate.

:mod:`repro.telemetry.trend` — ``python -m repro.telemetry.trend`` gates
the ``BENCH_trace.json`` perf trajectory with a MAD-based noise band
(docs/observability.md).

The reprolint ``telemetry-purity`` rule forbids this package under
``repro/uarch/`` (the replay hot path) and anywhere near fingerprint
construction.
"""
