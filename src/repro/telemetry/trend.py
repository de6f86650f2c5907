"""Perf-trajectory gate over ``benchmarks/BENCH_trace.json``.

The perf benches have appended to ``BENCH_trace.json`` since PR 1, but
nothing ever *read* it — the floors in each bench are hand-set
constants, so a slow drift that stays above the floor goes unnoticed.
This module turns the trajectory into an enforced invariant::

    PYTHONPATH=src python -m repro.telemetry.trend

parses the history, splits it into per-series samples —

* ``engine/<name>/cold`` and ``engine/<name>/warm``: per-engine
  simulator throughput in cycles/second (higher is better; entries
  older than the PR 5 engine split carry no ``engine`` field and are
  attributed to ``scalar``, the only kernel that existed then);
* ``engine/<name>/warm_noop_ref``: warm throughput on gzip's
  NOOP-instrumented program, the hint path, in cycles per reference
  second, from runs of at least 100 ms of CPU scaled by host probes
  (:mod:`repro.telemetry.hostspeed`; ``noop_path`` entries).  The raw
  ``cycles_per_second_warm_noop`` samples older throughput entries
  carry form no series;
* ``engine/<name>/warm_gcc_noop``: warm throughput in cycles per CPU
  second on gcc's NOOP-instrumented program, the program densest in
  hints (``hint_path`` entries);
* ``emulator/kinstr_per_s``: functional emulation of gcc in thousands
  of instructions per CPU second (higher is better);
* ``compile/grid_ref_s``: the figure grid's 33 compiles in reference
  seconds (lower is better) —

and gates the **latest** sample of each series against the median of
its history with a robust noise band.

Noise model: the gate uses the median absolute deviation (MAD) rather
than a standard deviation because perf samples on shared containers are
heavy-tailed — one throttled run must widen nothing.  The band is::

    tolerance = max(SIGMAS * 1.4826 * MAD, RELATIVE_FLOOR * median)

``1.4826 * MAD`` estimates sigma for normally-distributed noise, the
``SIGMAS`` multiplier (default 4) makes the gate fire only on gross
regressions, and the relative floor (default 45% of the median — the
same slack the hand-set per-engine floors encode) keeps a
low-variance history from producing a hair-trigger band.  A series
regresses when its latest sample falls below ``median - tolerance``
(throughput) or rises above ``median + tolerance`` (seconds).  Series
with fewer than ``--min-samples`` historical points are reported but
never gated.

The perf benches call :func:`gate_series` with their fresh sample,
which joins the committed history in memory only, so a regression fails
the bench that introduced it and a plain test run leaves the file
untouched; ``pytest --record-trend`` appends the sample as well.  The
CLI is for operators and CI, and ``--report`` writes the full
evaluation as JSON next to the human-readable table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: Default trajectory location: ``benchmarks/BENCH_trace.json`` at the
#: repo root (this file lives in ``src/repro/telemetry/``).
DEFAULT_TRAJECTORY = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "BENCH_trace.json"
)

TREND_FORMAT = 1
#: Consistency constant: 1.4826 * MAD estimates sigma for normal noise.
MAD_SCALE = 1.4826
DEFAULT_SIGMAS = 4.0
DEFAULT_RELATIVE_FLOOR = 0.45
DEFAULT_MIN_SAMPLES = 5


def load_history(path=DEFAULT_TRAJECTORY) -> list[dict]:
    """The trajectory file as a list of entry dicts ([] when absent)."""
    try:
        history = json.loads(Path(path).read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        return []
    if not isinstance(history, list):
        return []
    return [entry for entry in history if isinstance(entry, dict)]


def split_series(history: list[dict]) -> dict[str, dict]:
    """Group trajectory entries into gateable sample series.

    Returns ``{series_key: {"values": [...], "direction": ...}}`` in
    entry order.  ``direction`` is ``"higher"`` (throughput: bigger is
    better) or ``"lower"`` (wall-clock seconds).  Unstamped pre-PR 9
    entries parse fine: throughput entries default to engine
    ``scalar``, and the other entries are classified by their ``kind``.
    """
    series: dict[str, dict] = {}

    def _append(key: str, value, direction: str) -> None:
        if not isinstance(value, (int, float)):
            return
        bucket = series.setdefault(key, {"values": [], "direction": direction})
        bucket["values"].append(float(value))

    for entry in history:
        kind = entry.get("kind")
        if kind == "emulator":
            _append("emulator/kinstr_per_s", entry.get("kinstr_per_s"), "higher")
        elif kind == "compile":
            _append("compile/grid_ref_s", entry.get("ref_s"), "lower")
        elif kind == "noop_path":
            _append(
                f"engine/{entry.get('engine', 'scalar')}/warm_noop_ref",
                entry.get("cycles_per_ref_second"),
                "higher",
            )
        elif kind == "hint_path":
            _append(
                f"engine/{entry.get('engine', 'scalar')}/warm_gcc_noop",
                entry.get("cycles_per_second"),
                "higher",
            )
        elif "cycles_per_second_cold" in entry:
            engine = entry.get("engine", "scalar")
            _append(
                f"engine/{engine}/cold",
                entry.get("cycles_per_second_cold"),
                "higher",
            )
            _append(
                f"engine/{engine}/warm",
                entry.get("cycles_per_second_warm"),
                "higher",
            )
    return series


def evaluate_series(
    values: list[float],
    direction: str,
    sigmas: float = DEFAULT_SIGMAS,
    relative_floor: float = DEFAULT_RELATIVE_FLOOR,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> dict:
    """Gate the last sample of *values* against the rest.

    The baseline is every sample but the latest, so a bad latest run
    cannot drag the median toward itself.  ``regressed`` is None (not
    False) when the history is too short to gate.
    """
    if not values:
        raise ValueError("evaluate_series needs at least one sample")
    latest = values[-1]
    baseline = values[:-1]
    evaluation = {
        "samples": len(values),
        "direction": direction,
        "latest": latest,
        "median": None,
        "mad": None,
        "tolerance": None,
        "bound": None,
        "regressed": None,
    }
    if len(baseline) < min_samples:
        return evaluation
    median = statistics.median(baseline)
    mad = statistics.median(abs(value - median) for value in baseline)
    tolerance = max(sigmas * MAD_SCALE * mad, relative_floor * abs(median))
    evaluation["median"] = median
    evaluation["mad"] = mad
    evaluation["tolerance"] = tolerance
    if direction == "higher":
        bound = median - tolerance
        evaluation["bound"] = bound
        evaluation["regressed"] = latest < bound
    else:
        bound = median + tolerance
        evaluation["bound"] = bound
        evaluation["regressed"] = latest > bound
    return evaluation


def trend_report(
    history: list[dict],
    sigmas: float = DEFAULT_SIGMAS,
    relative_floor: float = DEFAULT_RELATIVE_FLOOR,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> dict:
    """Evaluate every series in *history*; list the regressed ones."""
    series = {
        key: evaluate_series(
            bucket["values"],
            bucket["direction"],
            sigmas=sigmas,
            relative_floor=relative_floor,
            min_samples=min_samples,
        )
        for key, bucket in sorted(split_series(history).items())
    }
    return {
        "format": TREND_FORMAT,
        "entries": len(history),
        "sigmas": sigmas,
        "relative_floor": relative_floor,
        "min_samples": min_samples,
        "series": series,
        "regressions": [
            key for key, evaluation in series.items() if evaluation["regressed"]
        ],
    }


def gate_series(
    series_key: str,
    path=DEFAULT_TRAJECTORY,
    sample: dict | None = None,
    **band_kwargs,
) -> dict | None:
    """Bench-facing gate: evaluate one series of the on-disk trajectory.

    ``sample``, a fresh trajectory entry, is gated as the latest point
    after the recorded history, in memory: the file is only read.
    Without it the file's own last entry is the one gated.  Returns the
    evaluation dict, or None when the series does not exist yet.
    Callers assert ``evaluation["regressed"] is not True`` — an
    ungateable (too-short) history must pass, not fail.
    """
    history = load_history(path)
    if sample is not None:
        history.append(sample)
    series = split_series(history)
    bucket = series.get(series_key)
    if bucket is None:
        return None
    return evaluate_series(bucket["values"], bucket["direction"], **band_kwargs)


def format_report(report: dict) -> str:
    """Render a report dict as the CLI's human-readable table."""
    lines = [
        f"perf trajectory: {report['entries']} entries, "
        f"{len(report['series'])} series "
        f"(band: max({report['sigmas']:g} sigma via MAD, "
        f"{report['relative_floor']:.0%} of median); "
        f"gated at >= {report['min_samples']} baseline samples)"
    ]
    for key, ev in report["series"].items():
        if ev["regressed"] is None:
            verdict = "insufficient history"
        elif ev["regressed"]:
            verdict = "REGRESSED"
        else:
            verdict = "ok"
        arrow = ">" if ev["direction"] == "lower" else "<"
        if ev["median"] is None:
            band = ""
        else:
            band = (
                f" median {ev['median']:,.1f}, "
                f"fails when {arrow} {ev['bound']:,.1f}"
            )
        lines.append(
            f"  {key:28s} {verdict:20s} latest {ev['latest']:,.1f} "
            f"over {ev['samples']} sample(s){band}"
        )
    if report["regressions"]:
        lines.append(f"regressions: {', '.join(report['regressions'])}")
    else:
        lines.append("no regressions")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="gate the BENCH_trace.json perf trajectory"
    )
    parser.add_argument(
        "trajectory",
        nargs="?",
        default=str(DEFAULT_TRAJECTORY),
        help=f"trajectory file (default: {DEFAULT_TRAJECTORY})",
    )
    parser.add_argument(
        "--report",
        default=None,
        help="also write the full evaluation as JSON to this path",
    )
    parser.add_argument("--sigmas", type=float, default=DEFAULT_SIGMAS)
    parser.add_argument(
        "--relative-floor", type=float, default=DEFAULT_RELATIVE_FLOOR
    )
    parser.add_argument("--min-samples", type=int, default=DEFAULT_MIN_SAMPLES)
    args = parser.parse_args(argv)

    history = load_history(args.trajectory)
    report = trend_report(
        history,
        sigmas=args.sigmas,
        relative_floor=args.relative_floor,
        min_samples=args.min_samples,
    )
    print(format_report(report))
    if args.report is not None:
        Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 1 if report["regressions"] else 0


if __name__ == "__main__":
    sys.exit(main())
