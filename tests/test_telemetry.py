"""fleetscope tests: spans, metrics plane, trend gate.

The contracts (see docs/observability.md): tracing is no-op by default
and leaves zero residue in envelopes when disabled; one trace id
connects driver → enqueue → claim → replay → complete across process
boundaries; enabling telemetry never changes simulation statistics; and
the perf-trajectory gate fails a synthetic regression while passing the
repo's real recorded history.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.harness import ParallelSuiteRunner, RunConfig, SimulationJob
from repro.harness.cache import ResultCache, simulation_fingerprint
from repro.harness.queue import WorkQueue
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_property,
    percentile,
)
from repro.telemetry import spans as tracing
from repro.telemetry import trend

# The whole module exercises the observability plane; --no-telemetry
# (root conftest) deselects it alongside force-disabling tracing.
pytestmark = pytest.mark.telemetry

TINY_CONFIG = RunConfig(
    benchmarks=("gzip", "mcf"),
    max_instructions=2_500,
    warmup_instructions=500,
)
SIX_CELL_TECHNIQUES = ("baseline", "noop", "abella")


@pytest.fixture(autouse=True)
def _reset_tracing():
    """Module-global recorder/trace-context must never leak across tests."""
    yield
    tracing.disable()
    tracing._trace_stack.clear()


def _job(benchmark="gzip", technique="baseline", **kwargs) -> SimulationJob:
    return SimulationJob(benchmark, technique, TINY_CONFIG, **kwargs)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_are_get_or_create_and_increment(self):
        registry = MetricsRegistry("queue")
        assert registry.counter("enqueued").value == 0
        registry.counter("enqueued").increment()
        registry.counter("enqueued").increment(2)
        assert registry.counter("enqueued").value == 3
        assert registry.counters() == {"enqueued": 3}

    def test_gauges_are_none_until_set(self):
        registry = MetricsRegistry()
        assert registry.gauge("inflight").value is None
        registry.gauge("inflight").set(4)
        assert registry.gauge("inflight").value == 4

    def test_histogram_summary_and_bounded_window(self):
        histogram = Histogram("latency", window=8)
        for value in range(100):
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary["count"] == 100  # total ever observed
        assert summary["min"] == 92.0  # but the window is bounded
        assert summary["max"] == 99.0
        assert summary["p50"] == pytest.approx(95.5)

    def test_snapshot_has_one_shape(self):
        registry = MetricsRegistry("svc")
        registry.counter("requests").increment()
        registry.gauge("connections").set(2)
        registry.histogram("wait").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["namespace"] == "svc"
        assert snapshot["counters"] == {"requests": 1}
        assert snapshot["gauges"] == {"connections": 2}
        assert snapshot["histograms"]["wait"]["count"] == 1

    def test_kind_clash_is_a_type_error(self):
        registry = MetricsRegistry()
        registry.counter("n")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("n")

    def test_counter_property_reads_and_writes_like_an_int(self):
        class Holder:
            hits = counter_property("hits")

            def __init__(self):
                self.metrics = MetricsRegistry("cache")

        holder = Holder()
        assert holder.hits == 0
        holder.hits += 7  # the fold-in idiom the runner uses
        assert holder.hits == 7
        assert holder.metrics.counter("hits").value == 7

    def test_percentile_edge_cases(self):
        assert percentile([], 0.5) is None
        assert percentile([3.0], 0.99) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_metric_kinds_expose_names(self):
        assert Counter("a").name == "a"
        assert Gauge("b").name == "b"
        assert Histogram("c").name == "c"


# ----------------------------------------------------------------------
# Spans: no-op default, round-trip, trace propagation
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_span_is_a_shared_noop(self, tmp_path):
        first = tracing.span("queue.enqueue", fingerprint="f")
        second = tracing.span("worker.replay")
        assert first is second  # one shared object, zero allocation
        with first as span:
            span.set(anything="goes")
        assert not tracing.spans_directory(tmp_path).exists()
        assert tracing.enabled() is False

    def test_span_round_trip_records_schema_fields(self, tmp_path):
        tracing.enable(tmp_path)
        with tracing.span("queue.enqueue", trace="t123", fingerprint="abc"):
            pass
        (record,) = tracing.read_spans(tmp_path)
        assert record["format"] == tracing.SPAN_FORMAT
        assert record["site"] == "queue.enqueue"
        assert record["trace"] == "t123"
        assert record["fingerprint"] == "abc"
        assert record["dur"] >= 0.0
        assert record["pid"] == os.getpid()
        assert record["host"]

    def test_trace_scope_propagates_into_spans(self, tmp_path):
        tracing.enable(tmp_path)
        with tracing.trace_scope() as trace:
            with tracing.span("driver.grid", cells=6):
                pass
        (record,) = tracing.read_spans(tmp_path)
        assert record["trace"] == trace
        assert tracing.current_trace() is None  # scope popped

    def test_maybe_trace_scope_is_noop_while_disabled(self):
        with tracing.maybe_trace_scope():
            assert tracing.current_trace() is None  # no residue possible

    def test_late_trace_delivery_via_set(self, tmp_path):
        # A claim span learns the trace id from the envelope it decodes
        # *inside* the span; set(trace=...) must land in the record.
        tracing.enable(tmp_path)
        with tracing.span("queue.claim", worker="w1") as span:
            span.set(trace="late-id", fingerprint="abc")
        (record,) = tracing.read_spans(tmp_path)
        assert record["trace"] == "late-id"

    def test_exceptions_are_recorded_and_propagated(self, tmp_path):
        tracing.enable(tmp_path)
        with pytest.raises(ValueError):
            with tracing.span("worker.replay", trace="t1"):
                raise ValueError("boom")
        (record,) = tracing.read_spans(tmp_path)
        assert record["error"] == "ValueError"

    def test_read_spans_tolerates_junk(self, tmp_path):
        tracing.enable(tmp_path)
        with tracing.span("queue.enqueue", trace="t1"):
            pass
        tracing.disable()
        directory = tracing.spans_directory(tmp_path)
        (directory / "garbage.jsonl").write_text(
            'not json\n{"site": "queue.complete", "trace": "t2"}\n[1,2]\n',
            encoding="utf-8",
        )
        records = tracing.read_spans(tmp_path)
        assert len(records) == 2  # the real span + the one parsable line

    def test_install_from_env_honours_the_off_values(self, tmp_path, monkeypatch):
        for off in ("", "0"):
            monkeypatch.setenv(tracing.ENV_VAR, off)
            assert tracing.install_from_env(tmp_path) is None
        monkeypatch.setenv(tracing.ENV_VAR, "1")
        recorder = tracing.install_from_env(tmp_path)
        assert recorder is not None and tracing.enabled()

    def test_queue_latency_summary_shape(self, tmp_path):
        tracing.enable(tmp_path)
        for wait, service in ((0.10, 1.0), (0.20, 2.0), (0.30, 3.0)):
            with tracing.span(
                "queue.complete",
                trace="t",
                enqueue_to_claim=wait,
                claim_to_done=service,
            ):
                pass
        with tracing.span("queue.enqueue", trace="t"):
            pass  # non-complete sites must not pollute the rollup
        summary = tracing.queue_latency_summary(tmp_path)
        assert summary["spans"] == 4
        assert summary["enqueue_to_claim"]["count"] == 3
        assert summary["enqueue_to_claim"]["p50"] == pytest.approx(0.20)
        assert summary["claim_to_done"]["p50"] == pytest.approx(2.0)

    def test_queue_latency_summary_empty_tree(self, tmp_path):
        summary = tracing.queue_latency_summary(tmp_path)
        assert summary == {
            "spans": 0,
            "enqueue_to_claim": None,
            "claim_to_done": None,
        }


# ----------------------------------------------------------------------
# Envelope transport and the --status latency view
# ----------------------------------------------------------------------
class TestQueueTelemetry:
    def test_disabled_runs_stamp_no_trace_key(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        fingerprint = queue.enqueue(_job())
        envelope = json.loads(
            queue.pending_path(fingerprint).read_text(encoding="utf-8")
        )
        assert "trace" not in envelope  # zero residue while disabled
        assert isinstance(envelope["enqueued_at"], float)  # always stamped

    def test_producer_trace_rides_the_envelope(self, tmp_path):
        tracing.enable(tmp_path)
        queue = WorkQueue(tmp_path, ttl=30)
        with tracing.trace_scope("req-42"):
            fingerprint = queue.enqueue(_job())
        envelope = json.loads(
            queue.pending_path(fingerprint).read_text(encoding="utf-8")
        )
        assert envelope["trace"] == "req-42"

    def test_queue_counters_live_in_a_registry(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        queue.enqueue(_job())
        assert queue.enqueued == 1  # the attribute API survives...
        assert queue.metrics.counters()["enqueued"] == 1  # ...over the registry
        snapshot = queue.metrics.snapshot()
        assert snapshot["namespace"] == "queue"
        assert snapshot["counters"]["claimed"] == 0

    def test_status_carries_span_derived_latency_percentiles(self, tmp_path):
        tracing.enable(tmp_path)
        queue = WorkQueue(tmp_path, ttl=30)
        fingerprint = queue.enqueue(_job())
        claimed = queue.claim("w1")
        queue.complete(claimed, {"stats": {"cycles": 1}}, "w1")
        status = queue.status()
        telemetry = status["telemetry"]
        assert telemetry["metrics"]["counters"]["completed"] == 1
        latency = telemetry["latency"]
        assert latency["enqueue_to_claim"]["count"] == 1
        assert latency["enqueue_to_claim"]["p50"] >= 0.0
        assert latency["claim_to_done"]["count"] == 1
        assert fingerprint in queue.list_done()

    def test_result_cache_counters_live_in_a_registry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.misses += 2  # the runner's fold-in idiom
        assert cache.metrics.counters()["misses"] == 2
        assert cache.metrics.snapshot()["namespace"] == "result_cache"


# ----------------------------------------------------------------------
# The acceptance gate: a connected trace, bit-identical statistics
# ----------------------------------------------------------------------
class TestConnectedTrace:
    SITES = (
        "driver.grid",
        "queue.enqueue",
        "queue.claim",
        "worker.replay",
        "queue.complete",
    )

    def test_six_cell_grid_yields_one_connected_trace(
        self, tmp_path, monkeypatch
    ):
        cells = len(TINY_CONFIG.benchmarks) * len(SIX_CELL_TECHNIQUES)
        assert cells == 6

        # Reference run, telemetry disabled: the default-off path.
        monkeypatch.delenv(tracing.ENV_VAR, raising=False)
        disabled = ParallelSuiteRunner(
            TINY_CONFIG,
            workers=1,
            cache_dir=str(tmp_path / "disabled"),
            backend="queue",
            queue_workers=1,
            queue_assist=False,
            queue_poll=0.1,
            queue_ttl=30,
            queue_timeout=300,
        )
        disabled.run_suite(techniques=SIX_CELL_TECHNIQUES)
        assert tracing.read_spans(tmp_path / "disabled") == []

        # Traced run: the driver installs from the environment and the
        # spawned worker subprocess inherits the switch.
        monkeypatch.setenv(tracing.ENV_VAR, "1")
        traced_dir = tmp_path / "traced"
        traced = ParallelSuiteRunner(
            TINY_CONFIG,
            workers=1,
            cache_dir=str(traced_dir),
            backend="queue",
            queue_workers=1,
            queue_assist=False,
            queue_poll=0.1,
            queue_ttl=30,
            queue_timeout=300,
        )
        traced.run_suite(techniques=SIX_CELL_TECHNIQUES)

        records = tracing.read_spans(traced_dir)
        by_site: dict[str, list[dict]] = {}
        for record in records:
            by_site.setdefault(record["site"], []).append(record)
        for site in self.SITES:
            assert site in by_site, f"no {site} span recorded"

        # One grid, one trace id — and it crossed the process boundary:
        # the driver recorded the grid/enqueue spans, the worker
        # subprocess (a different pid) the claim/replay/complete spans.
        (grid_span,) = by_site["driver.grid"]
        trace = grid_span["trace"]
        assert trace
        assert grid_span["cells"] == cells
        assert len(by_site["queue.enqueue"]) == cells
        assert len(by_site["worker.replay"]) == cells
        assert len(by_site["queue.complete"]) == cells
        for site in self.SITES:
            for record in by_site[site]:
                assert record["trace"] == trace, (site, record)
        driver_pids = {r["pid"] for r in by_site["driver.grid"]}
        worker_pids = {r["pid"] for r in by_site["worker.replay"]}
        assert driver_pids.isdisjoint(worker_pids)

        # Observation must not perturb the experiment: grid statistics
        # are bit-identical with telemetry on and off.
        for benchmark in TINY_CONFIG.benchmarks:
            for technique in SIX_CELL_TECHNIQUES:
                assert dataclasses.asdict(
                    traced.result(benchmark, technique).stats
                ) == dataclasses.asdict(
                    disabled.result(benchmark, technique).stats
                ), (benchmark, technique)

        # The span-derived latency view has one sample per cell.
        latency = tracing.queue_latency_summary(traced_dir)
        assert latency["enqueue_to_claim"]["count"] == cells
        assert latency["claim_to_done"]["count"] == cells


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
            {"kind": "queue_grid", "queue_seconds": 1.5},
            {"malformed": True},
        ]
        series = trend.split_series(history)
        assert series["engine/scalar/cold"]["values"] == [50_000.0]
        assert series["engine/scalar/warm"]["direction"] == "higher"
        assert series["engine/native/cold"]["values"] == [300_000.0]
        assert series["queue_grid/seconds"]["direction"] == "lower"

    def test_gate_series_returns_none_for_unknown_series(self, tmp_path):
        path = tmp_path / "BENCH_trace.json"
        path.write_text("[]", encoding="utf-8")
        assert trend.gate_series("engine/scalar/cold", path) is None

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

