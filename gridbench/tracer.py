"""Layer spans for a traced grid pass, recorded from outside ``src/``.

:class:`Tracer` wraps each layer's entry points (functions, methods and
generator functions) in place, so the simulator itself stays clock-free.
Spans are kept in memory as ``(name, start, end, parent, cell)`` and
written once, when the pass ends.  A layer's *self* time is its spans'
durations minus the durations of the spans nested directly inside them,
so replay self time is ``ReplayEngine.run`` minus ``next_window``, and
decode is ``next_window`` minus emulation and the trace-cache commit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    Attributes:
        spans: ``[name, start, end, parent_index, cell]`` lists, in start
            order; ``parent_index`` is -1 for a top-level span.
        counts: work counters taken at the same boundaries (windows
            decoded, instructions emulated, cycles replayed, bytes moved).
        cell: ``"<benchmark>/<technique>"`` of the grid cell being worked
            on, stamped on every span opened while it is set.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.cell = None
        self._open: list[int] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.cell])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one ``name`` span around a block."""
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``on_result(args, result)`` runs after each call, inside the
        span, to take counts where the work happened.
        """
        function = owner.__dict__[attr]

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = function(*args, **kwargs)
                if on_result is not None:
                    on_result(args, result)
                return result
            finally:
                self._exit(index)

        setattr(owner, attr, traced)

    def wrap_generator(
        self, owner, attr: str, name: str, on_call=None, on_item=None
    ) -> None:
        """Record a ``name`` span around every step of a generator function.

        The work of a generator happens when it is advanced, not when it
        is called, so each ``next()`` on the returned generator is one
        span, nested in whatever span is open at that moment.
        ``on_call()`` runs once per call, ``on_item(item)`` per item.
        """
        function = owner.__dict__[attr]

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call()
            inner = function(*args, **kwargs)
            while True:
                index = self._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(index)
                if on_item is not None:
                    on_item(item)
                yield item

        setattr(owner, attr, traced)

    def wrap_cell(self, owner, attr: str) -> None:
        """Stamp the job's cell on spans opened inside ``owner.attr(self, job, ...)``."""
        function = owner.__dict__[attr]

        @functools.wraps(function)
        def in_cell(runner, job, *args, **kwargs):
            outer = self.cell
            self.cell = f"{job.benchmark}/{job.technique}"
            try:
                return function(runner, job, *args, **kwargs)
            finally:
                self.cell = outer

        setattr(owner, attr, in_cell)

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def self_times(self) -> tuple[dict, dict]:
        """Self seconds per span name, and per (name, cell technique)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict = defaultdict(float)
        by_technique: dict = defaultdict(float)
        for index, (name, start, end, _, cell) in enumerate(self.spans):
            own = (end - start) - child_time[index]
            by_name[name] += own
            technique = cell.rsplit("/", 1)[1] if cell else None
            by_technique[(name, technique)] += own
        return dict(by_name), dict(by_technique)

    def write(self, path: str, origin: float) -> None:
        """Write every span once, times in seconds since ``origin``."""
        records = [
            {
                "name": name,
                "start": round(start - origin, 9),
                "end": round(end - origin, 9),
                "parent": parent,
                "cell": cell,
            }
            for name, start, end, parent, cell in self.spans
        ]
        temp = f"{path}.tmp-{os.getpid()}"
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump({"spans": records}, handle)
        os.replace(temp, path)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every layer entry point on the figure path, for the rest of
    the process.

    Import-time bindings matter: ``compile_program`` and
    ``build_power_report`` are looked up as globals of the harness
    modules that call them, so those names are patched there; methods are
    patched on their classes, which every caller shares.
    """
    from repro.harness import experiment, parallel
    from repro.harness.cache import ResultCache
    from repro.uarch.emulator import FunctionalEmulator
    from repro.uarch.engine.base import ReplayEngine
    from repro.uarch.trace import TraceCache, TraceWindowStream, TraceWindowWriter

    counts = tracer.counts

    for module in (parallel, experiment):
        tracer.wrap(
            module,
            "compile_program",
            "core.compile",
            on_result=lambda args, result: counts.update(compile_calls=1),
        )
        tracer.wrap(module, "build_power_report", "power.report")

    def emulated(item) -> None:
        counts["emulated_instructions"] += len(item[1])

    def emulator_run(args, result) -> None:
        counts["emulator_runs"] += 1
        counts["emulated_instructions"] += len(result[1])

    tracer.wrap_generator(
        FunctionalEmulator,
        "run_collect_windows",
        "uarch.emulator",
        on_call=lambda: counts.update(emulator_runs=1),
        on_item=emulated,
    )
    tracer.wrap(FunctionalEmulator, "run_collect", "uarch.emulator", on_result=emulator_run)

    tracer.wrap(
        TraceWindowStream,
        "next_window",
        "uarch.trace.decode",
        on_result=lambda args, window: counts.update(windows=window is not None),
    )
    tracer.wrap(
        ReplayEngine,
        "run",
        "uarch.engine.replay",
        on_result=lambda args, stats: counts.update(sim_cycles=stats.cycles),
    )

    def trace_read(args, opened) -> None:
        cache, fingerprint = args[0], args[1]
        if opened is not None:
            counts["trace_bytes"] += cache.path_for(fingerprint).stat().st_size

    def trace_written(args, path) -> None:
        if path.exists():
            counts["trace_bytes"] += path.stat().st_size

    tracer.wrap(ResultCache, "load", "harness.cache.result_read")
    tracer.wrap(ResultCache, "store", "harness.cache.result_write")
    tracer.wrap(TraceCache, "_open_validated", "harness.cache.trace_read", on_result=trace_read)
    tracer.wrap(
        TraceWindowWriter, "commit", "harness.cache.trace_write", on_result=trace_written
    )

    for method in ("_cached_stats", "_execute_in_process", "_store", "_build_result"):
        tracer.wrap_cell(parallel.ParallelSuiteRunner, method)
