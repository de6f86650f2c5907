"""Perf-trajectory gate over ``benchmarks/BENCH_trace.json``.

The perf benches (``benchmarks/test_perf_simulator.py``) hold each fresh
sample to a hand-set floor, which catches a collapse but not a slow
drift that stays above it.  This module turns the trajectory into an
enforced invariant::

    PYTHONPATH=src python -m repro.telemetry.trend

parses the history, groups its entries into series and gates the
**latest** sample of each against the median of the others with a
robust noise band.  Every sample is a best-of-five probe-scaled run
(:mod:`repro.telemetry.hostspeed`), recorded as one entry shape::

    {"format": 2, "series": "engine/native/warm_ref", "value": 4570000.0,
     "better": "higher", "timestamp": ..., "host": ..., <provenance>}

``better`` is ``"higher"`` for a rate and ``"lower"`` for seconds.
Entries of any other format (the raw wall-clock and CPU-time samples
recorded before every series moved to reference units) stay in the file
and form no series.

Noise model: the gate uses the median absolute deviation (MAD) rather
than a standard deviation because perf samples on shared hosts are
heavy-tailed — one throttled run must widen nothing.  The band is::

    tolerance = max(SIGMAS * 1.4826 * MAD, RELATIVE_FLOOR * median)

``1.4826 * MAD`` estimates sigma for normally-distributed noise,
``SIGMAS`` (4) makes the gate fire only on gross regressions, and
``RELATIVE_FLOOR`` (45% of the median) keeps a low-variance history
from producing a hair-trigger band.  A series regresses when its latest
sample falls below ``median - tolerance`` (better higher) or rises above
``median + tolerance`` (better lower).  A series with fewer than
``MIN_SAMPLES`` samples before its latest is reported but never gated.

The perf benches call :func:`gate_series` with their fresh sample,
which joins the committed history in memory only, so a regression fails
the bench that introduced it and a plain test run leaves the file
untouched; ``pytest --record-trend`` appends the sample with
:func:`append_entry` as well.  A trajectory that cannot be parsed
raises :class:`ValueError` everywhere: read as empty, it would disarm
every gate, and rewritten, it would lose its history.
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

#: The ``format`` of the entries that form series.
ENTRY_FORMAT = 2
#: Entries :func:`append_entry` keeps, the newest.
TRAJECTORY_LIMIT = 200
#: Consistency constant: 1.4826 * MAD estimates sigma for normal noise.
MAD_SCALE = 1.4826
SIGMAS = 4.0
RELATIVE_FLOOR = 0.45
MIN_SAMPLES = 5


def load_history(path=DEFAULT_TRAJECTORY) -> list:
    """The trajectory file's entries, ``[]`` when the file is absent.

    Raises ValueError, naming the path, when the file is not a JSON list.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    try:
        history = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"perf trajectory {path} is not valid JSON: {error}") from None
    if not isinstance(history, list):
        raise ValueError(f"perf trajectory {path} is not a JSON list")
    return history


def append_entry(entry: dict, path=DEFAULT_TRAJECTORY) -> None:
    """Append ``entry`` to the trajectory at ``path``, keeping the newest
    :data:`TRAJECTORY_LIMIT` entries.  A file :func:`load_history` cannot
    read raises before anything is written."""
    history = load_history(path)
    history.append(entry)
    Path(path).write_text(
        json.dumps(history[-TRAJECTORY_LIMIT:], indent=2) + "\n", encoding="utf-8"
    )


def split_series(history: list) -> dict[str, dict]:
    """Group the entries of format :data:`ENTRY_FORMAT` by series.

    Returns ``{series: {"values": [...], "better": ...}}``, values in
    entry order.
    """
    series: dict[str, dict] = {}
    for entry in history:
        if isinstance(entry, dict) and entry.get("format") == ENTRY_FORMAT:
            bucket = series.setdefault(entry["series"], {"values": [], "better": entry["better"]})
            bucket["values"].append(float(entry["value"]))
    return series


def evaluate_series(values: list[float], better: str) -> dict:
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
        "better": better,
        "latest": latest,
        "median": None,
        "tolerance": None,
        "bound": None,
        "regressed": None,
    }
    if len(baseline) < MIN_SAMPLES:
        return evaluation
    median = statistics.median(baseline)
    mad = statistics.median(abs(value - median) for value in baseline)
    tolerance = max(SIGMAS * MAD_SCALE * mad, RELATIVE_FLOOR * abs(median))
    evaluation["median"] = median
    evaluation["tolerance"] = tolerance
    if better == "higher":
        bound = median - tolerance
        evaluation["bound"] = bound
        evaluation["regressed"] = latest < bound
    else:
        bound = median + tolerance
        evaluation["bound"] = bound
        evaluation["regressed"] = latest > bound
    return evaluation


def trend_report(history: list) -> dict:
    """Evaluate every series in *history*; list the regressed ones."""
    series = {
        key: evaluate_series(bucket["values"], bucket["better"])
        for key, bucket in sorted(split_series(history).items())
    }
    return {
        "entries": len(history),
        "series": series,
        "regressions": [
            key for key, evaluation in series.items() if evaluation["regressed"]
        ],
    }


def gate_series(
    series_key: str, path=DEFAULT_TRAJECTORY, sample: dict | None = None
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
    bucket = split_series(history).get(series_key)
    if bucket is None:
        return None
    return evaluate_series(bucket["values"], bucket["better"])


def format_report(report: dict) -> str:
    """Render a report dict as the CLI's human-readable table."""
    lines = [
        f"perf trajectory: {report['entries']} entries, "
        f"{len(report['series'])} series "
        f"(band: max({SIGMAS:g} sigma via MAD, {RELATIVE_FLOOR:.0%} of median); "
        f"gated at >= {MIN_SAMPLES} baseline samples)"
    ]
    for key, ev in report["series"].items():
        if ev["regressed"] is None:
            verdict = "insufficient history"
        elif ev["regressed"]:
            verdict = "REGRESSED"
        else:
            verdict = "ok"
        arrow = ">" if ev["better"] == "lower" else "<"
        if ev["median"] is None:
            band = ""
        else:
            band = (
                f" median {ev['median']:,.7g}, "
                f"fails when {arrow} {ev['bound']:,.7g}"
            )
        lines.append(
            f"  {key:28s} {verdict:20s} latest {ev['latest']:,.7g} "
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
    args = parser.parse_args(argv)
    report = trend_report(load_history(args.trajectory))
    print(format_report(report))
    return 1 if report["regressions"] else 0


if __name__ == "__main__":
    sys.exit(main())
