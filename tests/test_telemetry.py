"""Trend-gate tests.

The perf-trajectory gate (:mod:`repro.telemetry.trend`, see
docs/observability.md) fails a synthetic regression and a torn
trajectory while passing the repo's real recorded history.
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

    def test_synthetic_regression_fails_seconds(self):
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
        # 45% relative floor, so noise on a quiet series passes.
        values = [100.0] * 6 + [70.0]
        evaluation = trend.evaluate_series(values, "higher")
        assert evaluation["regressed"] is False

    @staticmethod
    def entry(value, series="engine/scalar/cold_ref", better="higher"):
        return {"format": trend.ENTRY_FORMAT, "series": series, "value": value, "better": better}

    def test_split_series_groups_entries_of_the_current_format(self):
        """Entries of one format form series, each in entry order; the
        raw samples of older formats form none."""
        history = [
            self.entry(2_300_000, "engine/native/hint_ref"),
            self.entry(94_000, "engine/scalar/hint_ref"),
            self.entry(0.14, "compile/grid_ref_s", "lower"),
            self.entry(2_250_000, "engine/native/hint_ref"),
            # Format 1 and unstamped entries: raw throughput, emulator,
            # hint-path and compile samples, and the retired queue_grid.
            {"cycles_per_second_cold": 50_000, "cycles_per_second_warm": 60_000},
            {"format": 1, "engine": "native", "cycles_per_second_cold": 300_000},
            {"format": 1, "kind": "emulator", "kinstr_per_s": 2_100.0},
            {"format": 1, "kind": "hint_path", "engine": "native", "cycles_per_second": 1},
            {"format": 1, "kind": "compile", "ref_s": 0.14},
            {"kind": "queue_grid", "queue_seconds": 3.1, "local_seconds": 1.2},
            "not an entry",
        ]
        assert trend.split_series(history) == {
            "engine/native/hint_ref": {"values": [2_300_000.0, 2_250_000.0], "better": "higher"},
            "engine/scalar/hint_ref": {"values": [94_000.0], "better": "higher"},
            "compile/grid_ref_s": {"values": [0.14], "better": "lower"},
        }

    def test_gate_series_returns_none_for_unknown_series(self, tmp_path):
        path = tmp_path / "BENCH_trace.json"
        path.write_text("[]", encoding="utf-8")
        assert trend.gate_series("engine/scalar/cold_ref", path) is None

    def test_a_fresh_sample_is_gated_in_memory(self, tmp_path):
        """The bench's sample is the latest point of its series, and the
        trajectory file is only read."""
        path = tmp_path / "BENCH_trace.json"
        path.write_text(json.dumps([self.entry(value) for value in self.FLAT]), encoding="utf-8")
        before = path.read_bytes()
        for value, regressed in ((20.0, True), (99.0, False)):
            evaluation = trend.gate_series("engine/scalar/cold_ref", path, sample=self.entry(value))
            assert evaluation["latest"] == value
            assert evaluation["samples"] == len(self.FLAT) + 1
            assert evaluation["regressed"] is regressed
        assert path.read_bytes() == before

    def test_append_entry_keeps_the_newest_entries(self, tmp_path):
        path = tmp_path / "BENCH_trace.json"
        for value in range(trend.TRAJECTORY_LIMIT + 2):
            trend.append_entry(self.entry(value), path)
        values = trend.split_series(trend.load_history(path))["engine/scalar/cold_ref"]["values"]
        assert values == [float(value) for value in range(2, trend.TRAJECTORY_LIMIT + 2)]

    @pytest.mark.parametrize("torn", ["cut", "object"])
    def test_a_torn_trajectory_fails_instead_of_disarming_the_gate(self, tmp_path, torn):
        """A file that is not a JSON list raises, naming it, wherever it is
        read: the gate, the CLI and the recorder, which leaves its bytes
        as they were.  Read as empty, it would gate a 99% collapse as
        ungateable, and the recorder would rewrite it as one entry."""
        path = tmp_path / "BENCH_trace.json"
        text = json.dumps([self.entry(value) for value in self.FLAT])
        path.write_text(text[:-5] if torn == "cut" else '{"entries": []}', encoding="utf-8")
        before = path.read_bytes()
        collapse = self.entry(1.0)
        for read in (
            lambda: trend.load_history(path),
            lambda: trend.gate_series("engine/scalar/cold_ref", path, sample=collapse),
            lambda: trend.main([str(path)]),
            lambda: trend.append_entry(collapse, path),
        ):
            with pytest.raises(ValueError, match="BENCH_trace.json"):
                read()
        assert path.read_bytes() == before

    def test_a_missing_trajectory_is_an_empty_history(self, tmp_path):
        path = tmp_path / "BENCH_trace.json"
        assert trend.load_history(path) == []
        assert trend.main([str(path)]) == 0
        trend.append_entry(self.entry(1.0), path)
        assert trend.load_history(path) == [self.entry(1.0)]

    def test_cli_fails_on_regression(self, tmp_path, capsys):
        trajectory = tmp_path / "BENCH_trace.json"
        entries = [self.entry(value) for value in self.FLAT + [20.0]]
        trajectory.write_text(json.dumps(entries), encoding="utf-8")
        assert trend.main([str(trajectory)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "regressions: engine/scalar/cold_ref"

    def test_cli_passes_a_healthy_trajectory(self, tmp_path):
        trajectory = tmp_path / "BENCH_trace.json"
        entries = [self.entry(value) for value in self.FLAT]
        trajectory.write_text(json.dumps(entries), encoding="utf-8")
        assert trend.main([str(trajectory)]) == 0

    def test_cli_takes_no_band_options(self, tmp_path):
        """The band is fixed: an option that would set it is an error."""
        for option in ("--sigmas", "--relative-floor", "--min-samples", "--report"):
            with pytest.raises(SystemExit) as exit_info:
                trend.main([str(tmp_path / "BENCH_trace.json"), option, "3"])
            assert exit_info.value.code == 2

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
