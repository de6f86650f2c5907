"""Fleet metrics plane: counters, gauges, and histograms with one shape.

Every long-lived harness object (the result cache, the work queue)
used to keep its own hand-rolled dict of integer counters and expose it
through a bespoke ``*_stats()`` method.  This module replaces those dicts with a single
:class:`MetricsRegistry` per object: counters and gauges are named
metrics created on first use, and every registry renders through the
same ``snapshot()`` shape::

    {"counters": {name: int, ...},
     "gauges": {name: float | None, ...},
     "histograms": {name: {"count", "min", "max", "mean",
                           "p50", "p90", "p99"}, ...}}

The existing public stats dicts (``cache_stats()``,
``WorkQueue.status()``) keep their key layout — they are now *views*
over a registry instead of parallel bookkeeping — and callers that mutated
counters as plain attributes (``cache.hits += deltas["hits"]``) keep
working through the :class:`counter_property` descriptor.

Nothing here touches the simulation hot path: incrementing a counter is
an integer add on a plain attribute, and histograms retain a bounded
window of observations so memory cannot grow with run length.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable

# Observations retained per histogram.  Percentiles are computed over
# this sliding window, which is plenty for the second-scale latencies
# the harness records and keeps a long-lived worker's memory bounded.
HISTOGRAM_WINDOW = 1024


def percentile(values: Iterable[float], fraction: float) -> float | None:
    """Linear-interpolated percentile of *values* (fraction in [0, 1]).

    Returns None for an empty input instead of raising, so callers can
    render "no data yet" states without special-casing.
    """
    ordered = sorted(values)
    if not ordered:
        return None
    if len(ordered) == 1:
        return float(ordered[0])
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


class Counter:
    """A monotonically *intended* integer counter (resettable for tests)."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> int:
        self.value += amount
        return self.value


class Gauge:
    """A point-in-time value; ``None`` until first set."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None

    def set(self, value: float | None) -> None:
        self.value = value


class Histogram:
    """A bounded window of observations summarised by percentiles."""

    kind = "histogram"
    __slots__ = ("name", "_window", "count", "_lock")

    def __init__(self, name: str, window: int = HISTOGRAM_WINDOW) -> None:
        self.name = name
        self._window: deque[float] = deque(maxlen=window)
        self.count = 0  # total ever observed, not just the window
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self._window.append(float(value))

    def summary(self) -> dict:
        with self._lock:
            window = list(self._window)
        if not window:
            return {
                "count": self.count,
                "min": None,
                "max": None,
                "mean": None,
                "p50": None,
                "p90": None,
                "p99": None,
            }
        return {
            "count": self.count,
            "min": min(window),
            "max": max(window),
            "mean": sum(window) / len(window),
            "p50": percentile(window, 0.50),
            "p90": percentile(window, 0.90),
            "p99": percentile(window, 0.99),
        }


class MetricsRegistry:
    """Named counters/gauges/histograms with one ``snapshot()`` shape."""

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, factory):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = self._metrics[name] = factory(name)
        if not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def counters(self) -> dict[str, int]:
        """The counter subset as a plain dict (legacy stats views)."""
        return {
            name: metric.value
            for name, metric in sorted(self._metrics.items())
            if isinstance(metric, Counter)
        }

    def snapshot(self) -> dict:
        counters: dict[str, int] = {}
        gauges: dict[str, float | None] = {}
        histograms: dict[str, dict] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.summary()
        return {
            "namespace": self.namespace,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


class counter_property:
    """Descriptor exposing a registry counter as a plain int attribute.

    Lets the instrumented classes keep their historical attribute API —
    ``cache.hits``, ``queue.counters`` consumers, and the runner's
    ``cache.hits += deltas["hits"]`` fold-in all read and write through
    here — while the single source of truth is the object's
    ``metrics`` registry.
    """

    def __init__(self, name: str, registry_attr: str = "metrics") -> None:
        self.name = name
        self.registry_attr = registry_attr

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return getattr(obj, self.registry_attr).counter(self.name).value

    def __set__(self, obj, value) -> None:
        getattr(obj, self.registry_attr).counter(self.name).value = int(value)
