"""Fleet metrics plane: named counters with one snapshot shape.

Every long-lived harness object (the result cache, the work queue)
used to keep its own hand-rolled dict of integer counters and expose it
through a bespoke ``*_stats()`` method.  This module replaces those dicts with a single
:class:`MetricsRegistry` per object: counters are named metrics
created on first use, and every registry renders through the same
``snapshot()`` shape::

    {"namespace": str, "counters": {name: int, ...}}

The existing public stats dicts (``cache_stats()``,
``WorkQueue.status()``) keep their key layout — they are now *views*
over a registry instead of parallel bookkeeping — and callers that mutated
counters as plain attributes (``cache.hits += deltas["hits"]``) keep
working through the :class:`counter_property` descriptor.

Nothing here touches the simulation hot path: incrementing a counter is
an integer add on a plain attribute.
"""

from __future__ import annotations

import threading
from typing import Iterable


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

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> int:
        self.value += amount
        return self.value


class MetricsRegistry:
    """Named counters with one ``snapshot()`` shape."""

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self._metrics: dict[str, Counter] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = self._metrics[name] = Counter(name)
        return metric

    def counters(self) -> dict[str, int]:
        """The counters as a plain dict (legacy stats views)."""
        return {name: metric.value for name, metric in sorted(self._metrics.items())}

    def snapshot(self) -> dict:
        return {"namespace": self.namespace, "counters": self.counters()}


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
