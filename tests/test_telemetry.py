"""Trend-gate tests.

The perf-trajectory gate (:mod:`repro.telemetry.trend`, see
docs/observability.md) fails a synthetic regression while passing the
repo's real recorded history.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.telemetry import hostspeed, trend


# ----------------------------------------------------------------------
# The perf-trajectory gate
# ----------------------------------------------------------------------
class TestTrendGate:
    FLAT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2]

    def test_flat_history_passes(self):
        evaluation = trend.evaluate_series(self.FLAT, "higher")
        assert evaluation["regressed"] is False

    def test_synthetic_regression_fails_throughput(self):
        values = self.FLAT + [20.0]  # an 80% throughput collapse
        evaluation = trend.evaluate_series(values, "higher")
        assert evaluation["regressed"] is True
        assert evaluation["latest"] == 20.0

    def test_synthetic_regression_fails_wall_clock(self):
        values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0] + [5.0]  # 5x slower
        evaluation = trend.evaluate_series(values, "lower")
        assert evaluation["regressed"] is True

    def test_improvement_never_fails_either_direction(self):
        faster = trend.evaluate_series(self.FLAT + [500.0], "higher")
        assert faster["regressed"] is False
        quicker = trend.evaluate_series(
            [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 0.1], "lower"
        )
        assert quicker["regressed"] is False

    def test_short_history_is_ungateable_not_failing(self):
        evaluation = trend.evaluate_series([100.0, 20.0], "higher")
        assert evaluation["regressed"] is None

    def test_relative_floor_absorbs_small_noise(self):
        # 30% under the median of a near-zero-MAD history: inside the
        # default 45% relative floor, so noise on a quiet series passes.
        values = [100.0] * 6 + [70.0]
        evaluation = trend.evaluate_series(values, "higher")
        assert evaluation["regressed"] is False

    def test_split_series_defaults_unstamped_entries(self):
        history = [
            # Pre-PR 9 unstamped throughput entry: defaults to scalar.
            {"cycles_per_second_cold": 50_000, "cycles_per_second_warm": 60_000},
            {"engine": "native", "cycles_per_second_cold": 300_000},
            {"kind": "emulator", "kinstr_per_s": 2_100.0},
            {"malformed": True},
        ]
        series = trend.split_series(history)
        assert series["engine/scalar/cold"]["values"] == [50_000.0]
        assert series["engine/scalar/warm"]["direction"] == "higher"
        assert series["engine/native/cold"]["values"] == [300_000.0]
        assert series["emulator/kinstr_per_s"] == {
            "values": [2_100.0],
            "direction": "higher",
        }

    def test_split_series_reads_hint_path_entries(self):
        """The gcc noop bench's entries form one series per engine; the
        gzip ``warm_noop`` samples of throughput entries form none."""
        history = [
            {"kind": "hint_path", "engine": "native", "cycles_per_second": 2_300_000},
            {"kind": "hint_path", "engine": "scalar", "cycles_per_second": 94_000},
            {"kind": "hint_path", "engine": "native", "cycles_per_second": 2_250_000},
            {"engine": "native", "cycles_per_second_cold": 1, "cycles_per_second_warm_noop": 3},
        ]
        series = trend.split_series(history)
        assert series["engine/native/warm_gcc_noop"] == {
            "values": [2_300_000.0, 2_250_000.0],
            "direction": "higher",
        }
        assert series["engine/scalar/warm_gcc_noop"]["values"] == [94_000.0]
        assert "engine/native/warm_noop" not in series

    def test_split_series_reads_reference_second_entries(self):
        """Probe-scaled samples form series of their own: the compile
        bench's reference seconds (lower is better) and the gzip noop
        bench's cycles per reference second."""
        history = [
            {"kind": "compile", "compiles": 33, "analyses": 11, "ref_s": 0.14},
            {"kind": "noop_path", "engine": "native", "cycles_per_ref_second": 4},
        ]
        assert trend.split_series(history) == {
            "compile/grid_ref_s": {"values": [0.14], "direction": "lower"},
            "engine/native/warm_noop_ref": {"values": [4.0], "direction": "higher"},
        }

    def test_split_series_ignores_retired_queue_grid_entries(self):
        """``queue_grid`` samples in an older trajectory form no series:
        the bench that gated them went with the work queue."""
        history = [
            {"kind": "queue_grid", "queue_seconds": 3.1, "local_seconds": 1.2},
            {"engine": "native", "cycles_per_second_cold": 300_000},
        ]
        assert set(trend.split_series(history)) == {"engine/native/cold"}

    def test_gate_series_returns_none_for_unknown_series(self, tmp_path):
        path = tmp_path / "BENCH_trace.json"
        path.write_text("[]", encoding="utf-8")
        assert trend.gate_series("engine/scalar/cold", path) is None

    def test_a_fresh_sample_is_gated_in_memory(self, tmp_path):
        """The bench's sample is the latest point of its series, and the
        trajectory file is only read."""
        path = tmp_path / "BENCH_trace.json"
        entries = [
            {"engine": "scalar", "cycles_per_second_cold": value}
            for value in self.FLAT
        ]
        path.write_text(json.dumps(entries), encoding="utf-8")
        before = path.read_bytes()
        for value, regressed in ((20.0, True), (99.0, False)):
            sample = {"engine": "scalar", "cycles_per_second_cold": value}
            evaluation = trend.gate_series("engine/scalar/cold", path, sample=sample)
            assert evaluation["latest"] == value
            assert evaluation["samples"] == len(self.FLAT) + 1
            assert evaluation["regressed"] is regressed
        assert path.read_bytes() == before

    def test_cli_fails_on_regression_and_writes_the_report(self, tmp_path):
        trajectory = tmp_path / "BENCH_trace.json"
        entries = [
            {"engine": "scalar", "cycles_per_second_cold": value}
            for value in self.FLAT + [20.0]
        ]
        trajectory.write_text(json.dumps(entries), encoding="utf-8")
        report_path = tmp_path / "trend-report.json"
        exit_code = trend.main(
            [str(trajectory), "--report", str(report_path)]
        )
        assert exit_code == 1
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["regressions"] == ["engine/scalar/cold"]

    def test_cli_passes_a_healthy_trajectory(self, tmp_path):
        trajectory = tmp_path / "BENCH_trace.json"
        entries = [
            {"engine": "scalar", "cycles_per_second_cold": value}
            for value in self.FLAT
        ]
        trajectory.write_text(json.dumps(entries), encoding="utf-8")
        assert trend.main([str(trajectory)]) == 0

    def test_real_recorded_trajectory_passes_the_gate(self):
        # The repo's own committed history must never regress the gate:
        # this is the "passes on the real trajectory" acceptance check.
        if not trend.DEFAULT_TRAJECTORY.exists():
            pytest.skip("no recorded trajectory in this checkout")
        assert trend.main([str(trend.DEFAULT_TRAJECTORY)]) == 0


def test_importing_the_harness_loads_no_telemetry():
    """The harness imports no telemetry module (spans and metrics went
    with the work queue), nor ``uuid``, which only span ids used."""
    src_root = str(Path(next(iter(repro.__path__))).parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    code = (
        "import sys, repro.harness; print(sorted(name for name in sys.modules "
        "if name == 'uuid' or name.startswith('repro.telemetry')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestHostSpeed:
    def test_reference_speed_scales_by_the_mean_of_the_probes(self):
        reference = hostspeed.PROBE_REFERENCE_S
        assert hostspeed.at_reference_speed(1.0, reference, reference) == pytest.approx(1.0)
        # A host running the probe at half speed took twice as long.
        assert hostspeed.at_reference_speed(2.0, 2 * reference, 2 * reference) == pytest.approx(
            1.0
        )
        assert hostspeed.at_reference_speed(1.0, reference, 3 * reference) == pytest.approx(0.5)

    def test_reference_seconds_repeats_until_the_minimum(self):
        calls = []

        def run():
            calls.append(sum(range(20_000)))

        seconds, count = hostspeed.reference_seconds(run, min_seconds=0.02)
        assert count == len(calls) > 1
        assert seconds > 0
        # Without a minimum, one call.
        assert hostspeed.reference_seconds(run)[1] == 1
        assert hostspeed.host_probe() > 0
