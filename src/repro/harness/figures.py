"""Reproduction of every figure in the paper's evaluation section.

Each ``figureN`` function returns a :class:`FigureData`: the per-benchmark
series the paper plots, the SPECINT average bar, and the comparison bars
(abella, nonEmpty) where the original figure includes them.  The functions
only *organise* results; all simulation happens in the
:class:`~repro.harness.experiment.SuiteRunner` passed in, so data is shared
and cached across figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.experiment import SuiteRunner


@dataclass
class FigureData:
    """One reproduced figure.

    Attributes:
        name: figure identifier ("figure6", ...).
        title: human-readable description.
        series: mapping from series name (e.g. "noop dynamic") to a mapping
            from bar label (benchmark or aggregate) to value.
        unit: unit of the values (always percent here).
        paper_reference: the headline numbers the paper reports;
            :meth:`to_text` prints them under the table, and
            ``gridbench/spec.json`` maps them onto the reproduced bars
            for the ``paper_gap_*`` metrics.
    """

    name: str
    title: str
    series: dict[str, dict[str, float]] = field(default_factory=dict)
    unit: str = "%"
    paper_reference: dict[str, float] = field(default_factory=dict)

    def to_text(self) -> str:
        """Render the figure as an ASCII table."""
        lines = [f"{self.name}: {self.title} (values in {self.unit})"]
        labels: list[str] = []
        for values in self.series.values():
            for label in values:
                if label not in labels:
                    labels.append(label)
        header = f"{'':16s}" + "".join(f"{name:>22s}" for name in self.series)
        lines.append(header)
        for label in labels:
            row = f"{label:16s}"
            for values in self.series.values():
                value = values.get(label)
                row += f"{value:22.1f}" if value is not None else f"{'-':>22s}"
            lines.append(row)
        if self.paper_reference:
            refs = ", ".join(f"{k}={v}" for k, v in self.paper_reference.items())
            lines.append(f"paper reference: {refs}")
        return "\n".join(lines)


def _per_benchmark(runner: SuiteRunner, technique: str, attribute: str) -> dict[str, float]:
    values = {
        metrics.benchmark: getattr(metrics, attribute)
        for metrics in runner.suite_metrics(technique)
    }
    values["SPECINT"] = runner.average(technique, attribute)
    return values


def figure6(runner: SuiteRunner) -> FigureData:
    """Normalised IPC loss for the NOOP technique (plus the abella average)."""
    series = {"noop": _per_benchmark(runner, "noop", "ipc_loss_pct")}
    series["noop"]["abella"] = runner.average("abella", "ipc_loss_pct")
    return FigureData(
        name="figure6",
        title="Normalised IPC loss for the NOOP technique",
        series=series,
        paper_reference={"SPECINT": 2.2, "abella": 3.1, "vortex": 5.4, "mcf": 0.4},
    )


def figure7(runner: SuiteRunner) -> FigureData:
    """Issue-queue occupancy reduction for the NOOP technique."""
    return FigureData(
        name="figure7",
        title="Normalised IQ occupancy reduction for the NOOP technique",
        series={"noop": _per_benchmark(runner, "noop", "occupancy_reduction_pct")},
        paper_reference={"SPECINT": 23.0},
    )


def figure8(runner: SuiteRunner) -> FigureData:
    """Dynamic and static IQ power savings for the NOOP technique."""
    dynamic = _per_benchmark(runner, "noop", "iq_dynamic_saving_pct")
    dynamic["abella"] = runner.average("abella", "iq_dynamic_saving_pct")
    dynamic["nonEmpty"] = runner.average("nonempty", "iq_dynamic_saving_pct")
    static = _per_benchmark(runner, "noop", "iq_static_saving_pct")
    static["abella"] = runner.average("abella", "iq_static_saving_pct")
    return FigureData(
        name="figure8",
        title="Normalised dynamic and static IQ power savings (NOOP)",
        series={"dynamic": dynamic, "static": static},
        paper_reference={
            "dynamic SPECINT": 47.0,
            "static SPECINT": 31.0,
            "dynamic abella": 39.0,
            "static abella": 30.0,
        },
    )


def figure9(runner: SuiteRunner) -> FigureData:
    """Dynamic and static register-file power savings for the NOOP technique."""
    dynamic = _per_benchmark(runner, "noop", "rf_dynamic_saving_pct")
    dynamic["abella"] = runner.average("abella", "rf_dynamic_saving_pct")
    static = _per_benchmark(runner, "noop", "rf_static_saving_pct")
    static["abella"] = runner.average("abella", "rf_static_saving_pct")
    return FigureData(
        name="figure9",
        title="Normalised dynamic and static register file power savings (NOOP)",
        series={"dynamic": dynamic, "static": static},
        paper_reference={
            "dynamic SPECINT": 22.0,
            "static SPECINT": 21.0,
            "dynamic abella": 14.0,
            "static abella": 17.0,
        },
    )


def figure10(runner: SuiteRunner) -> FigureData:
    """IPC loss for the Extension and Improved techniques."""
    series = {
        "extension": _per_benchmark(runner, "extension", "ipc_loss_pct"),
        "improved": _per_benchmark(runner, "improved", "ipc_loss_pct"),
    }
    series["extension"]["noop"] = runner.average("noop", "ipc_loss_pct")
    series["extension"]["abella"] = runner.average("abella", "ipc_loss_pct")
    return FigureData(
        name="figure10",
        title="Normalised IPC loss for Extension and Improved",
        series=series,
        paper_reference={"extension SPECINT": 1.7, "improved SPECINT": 1.3},
    )


def figure11(runner: SuiteRunner) -> FigureData:
    """Dynamic and static IQ power savings for Extension and Improved."""
    return FigureData(
        name="figure11",
        title="Normalised dynamic and static IQ power savings (Extension, Improved)",
        series={
            "extension dynamic": _per_benchmark(runner, "extension", "iq_dynamic_saving_pct"),
            "extension static": _per_benchmark(runner, "extension", "iq_static_saving_pct"),
            "improved dynamic": _per_benchmark(runner, "improved", "iq_dynamic_saving_pct"),
            "improved static": _per_benchmark(runner, "improved", "iq_static_saving_pct"),
        },
        paper_reference={"dynamic SPECINT": 45.0, "static SPECINT": 30.0},
    )


def figure12(runner: SuiteRunner) -> FigureData:
    """Dynamic and static register-file power savings for Extension and Improved."""
    return FigureData(
        name="figure12",
        title="Normalised dynamic and static register file power savings (Extension, Improved)",
        series={
            "extension dynamic": _per_benchmark(runner, "extension", "rf_dynamic_saving_pct"),
            "extension static": _per_benchmark(runner, "extension", "rf_static_saving_pct"),
            "improved dynamic": _per_benchmark(runner, "improved", "rf_dynamic_saving_pct"),
            "improved static": _per_benchmark(runner, "improved", "rf_static_saving_pct"),
        },
        paper_reference={
            "extension dynamic SPECINT": 21.0,
            "extension static SPECINT": 21.0,
            "improved dynamic SPECINT": 22.0,
            "improved static SPECINT": 20.0,
        },
    )


ALL_FIGURES = {
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
}


def reproduce_all(runner: SuiteRunner) -> dict[str, FigureData]:
    """Reproduce every evaluation figure with one shared runner."""
    return {name: build(runner) for name, build in ALL_FIGURES.items()}
