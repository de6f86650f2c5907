"""Window-level sharding of one benchmark's simulation.

The work-queue backend (:mod:`repro.harness.queue`) parallelises a
(benchmark × technique) grid *across* cells; this module parallelises
*within* a single large cell.  PR 3's per-window trace format made each
window of a trace an independently loadable unit, so an
N-instruction budget can be split into per-window **spans** replayed in
parallel: each shard warms the machine up over a configurable stretch of
the preceding trace, measures exactly its span, and keeps a short
*slack* of subsequent entries in flight so the cycle at the span
boundary is timed exactly as in an unsharded run.  A stitcher
(:func:`repro.uarch.stats.merge_stats`) then folds the per-shard
:class:`~repro.uarch.stats.SimulationStats` into one run's counters.

Exactness is a dial, not a hope:

* ``overlap="full"`` — every shard replays the *entire* preceding trace
  as warm-up.  Each shard's microarchitectural trajectory is then
  identical to the sequential run's, the measure boundaries cut at the
  very same commits the sequential clock passes (statistics freeze
  mid-commit exactly where the next shard's warm-up flips), and the
  stitched statistics are **bit-identical** to one sequential replay.
  Total work grows quadratically with the shard count, so this mode is
  the validation reference, not the production configuration.
* ``overlap=<entries>`` — each shard warms up over only the last
  ``overlap`` trace entries before its span (caches, branch predictor
  and queue state start cold at the overlap's start).  Work is
  ``span + overlap + slack`` per shard — embarrassingly parallel — and
  the stitched statistics approximate the sequential run's.  On the
  tier-1 validation budgets an overlap of a few thousand entries keeps
  the stitched IPC within a few percent (the regression tests pin 5%);
  longer overlaps buy accuracy linearly.

:func:`compare_sharded_to_sequential` is the validation mode: it runs
both paths on a tier-1-sized budget and reports per-metric deltas.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core import compile_program
from repro.harness.experiment import RunConfig, SOFTWARE_TECHNIQUES, make_policy
from repro.uarch import SimulationStats, TraceCache
from repro.uarch.core import simulate, simulate_span
from repro.uarch.stats import merge_stats
from repro.uarch.trace import commit_mask, get_trace_columns, resolve_trace_window
from repro.workloads import build_benchmark

#: Entries replayed beyond a shard's measure span so the front end keeps
#: the pipeline fed while the span's last instructions commit.  Fetch
#: never runs further ahead of commit than the ROB plus the fetch queue
#: (well under 200 entries for the table-1 machine), so this default is
#: conservatively larger than any in-flight capacity.
DEFAULT_SHARD_SLACK = 1_024


@dataclass(frozen=True)
class ShardSpan:
    """One shard's slice of the trace, in dynamic-entry indices.

    ``[start, stop)`` is the measured span; the shard replays
    ``[warm_start, feed_stop)``, treating the ``warmup_commits``
    committed instructions before ``start`` as warm-up and freezing its
    statistics after ``measure_commits`` measured commits
    (None: run to the natural end of the feed — the final shard).
    """

    index: int
    start: int
    stop: int
    warm_start: int
    feed_stop: int
    warmup_commits: int
    measure_commits: Optional[int]


def plan_shards(
    program,
    max_instructions: int,
    warmup_instructions: int,
    span_entries: int,
    overlap: Union[str, int] = "full",
    slack: int = DEFAULT_SHARD_SLACK,
    cache: Optional[TraceCache] = None,
) -> list[ShardSpan]:
    """Split a budget into measure spans of ``span_entries`` trace entries.

    The plan is computed from the trace itself (one emulation, shared
    through the usual memo/disk tiers): span boundaries land on entry
    indices, and the commit mask translates them into the warm-up and
    measure commit counts each shard needs.  The first span is grown
    until it holds more commits than the run's warm-up, so shard 0
    always measures something; a budget that fits in one span yields a
    single shard equivalent to the sequential run.
    """
    if span_entries < 1:
        raise ValueError("span_entries must be a positive entry count")
    if isinstance(overlap, str):
        if overlap != "full":
            raise ValueError(f"overlap must be 'full' or an entry count, got {overlap!r}")
    elif overlap < 0:
        raise ValueError("overlap must be a non-negative entry count")
    columns = get_trace_columns(program, max_instructions, cache=cache)
    length = len(columns[0])
    mask = commit_mask(program, columns)
    prefix = [0] * (length + 1)
    total = 0
    for index, bit in enumerate(mask):
        total += bit
        prefix[index + 1] = total

    boundaries = list(range(0, length, span_entries)) or [0]
    boundaries.append(length)  # range() never includes length itself
    # Grow the first span past the warm-up so shard 0 measures something.
    while len(boundaries) > 2 and prefix[boundaries[1]] <= warmup_instructions:
        boundaries.pop(1)
    # Merge any span holding zero commits (all hint-NOOPs/NOPs at tiny
    # span sizes) into its predecessor: a measure span must advance the
    # commit count or the freeze/flip boundary it shares with its
    # neighbour would be ill-defined.
    deduped = [boundaries[0]]
    for boundary in boundaries[1:-1]:
        if prefix[boundary] > prefix[deduped[-1]]:
            deduped.append(boundary)
    deduped.append(boundaries[-1])
    boundaries = deduped

    spans: list[ShardSpan] = []
    last = len(boundaries) - 2
    for index in range(len(boundaries) - 1):
        start, stop = boundaries[index], boundaries[index + 1]
        if index == 0:
            warm_start = 0
            warmup = warmup_instructions
        elif overlap == "full":
            warm_start = 0
            warmup = prefix[start]
        else:
            warm_start = max(0, start - overlap)
            warmup = prefix[start] - prefix[warm_start]
        if index == last:
            feed_stop = length
            measure: Optional[int] = None
        else:
            feed_stop = min(length, stop + max(0, slack))
            measure = prefix[stop] - prefix[start]
            if index == 0:
                measure -= warmup_instructions
        spans.append(
            ShardSpan(
                index=index,
                start=start,
                stop=stop,
                warm_start=warm_start,
                feed_stop=feed_stop,
                warmup_commits=warmup,
                measure_commits=measure,
            )
        )
    return spans


@dataclass
class ShardJob:
    """Picklable description of one shard of a (benchmark, technique) cell.

    Mirrors :class:`repro.harness.parallel.SimulationJob` so shards ride
    the same execution backends — the in-process path, the process pool
    and the distributed work queue.  ``cell_fingerprint`` names the
    parent cell (for grouping and queue completion markers); the shard's
    own fingerprint extends it with the span geometry.
    """

    benchmark: str
    technique: str
    config: RunConfig
    span: ShardSpan
    cell_fingerprint: str
    trace_cache_dir: Optional[str] = None
    trace_window: Optional[int] = None
    trace_cache_max_bytes: Optional[int] = None
    # Replay kernel (transport, not identity — engines are bit-identical
    # and never participate in the fingerprint, mirroring SimulationJob).
    engine: Optional[str] = None

    def fingerprint(self) -> str:
        span = self.span
        text = (
            f"{self.cell_fingerprint}:shard:{span.index}:{span.start}:{span.stop}"
            f":{span.warm_start}:{span.feed_stop}"
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _program_for(benchmark: str, technique: str, config: RunConfig):
    if technique in SOFTWARE_TECHNIQUES:
        compilation = compile_program(
            build_benchmark(benchmark), config.compiler_config, mode=technique
        )
        return compilation.instrumented_program
    return build_benchmark(benchmark)


def run_shard_job(job: ShardJob, program=None, trace_cache=None) -> dict:
    """Execute one shard; return ``{"stats": ..., "trace_cache": ...}``.

    The same worker contract as
    :func:`repro.harness.parallel.run_simulation_job`: pool and queue
    workers build a private :class:`TraceCache` over
    ``job.trace_cache_dir`` and ship its counter deltas back in the
    payload, while the in-process path accumulates traffic directly on
    the caller's cache.
    """
    from repro.harness.cache import stats_to_dict

    config = job.config
    if program is None:
        program = _program_for(job.benchmark, job.technique, config)
    local_cache = trace_cache
    if local_cache is None and job.trace_cache_dir is not None:
        local_cache = TraceCache(
            job.trace_cache_dir, max_bytes=job.trace_cache_max_bytes
        )
    span = job.span
    stats = simulate_span(
        program,
        make_policy(job.technique, config),
        config=config.processor_config,
        max_instructions=config.max_instructions,
        first_entry=span.warm_start,
        last_entry=span.feed_stop,
        warmup_commits=span.warmup_commits,
        measure_commits=span.measure_commits,
        trace_cache=local_cache,
        trace_window=job.trace_window,
        engine=job.engine,
    )
    payload: dict = {"stats": stats_to_dict(stats)}
    if local_cache is not None and local_cache is not trace_cache:
        payload["trace_cache"] = {
            "hits": local_cache.hits,
            "misses": local_cache.misses,
            "stores": local_cache.stores,
            "evictions": local_cache.evictions,
        }
    return payload


def stitch_payloads(payloads: Sequence[dict]) -> SimulationStats:
    """Merge per-shard job payloads (in span order) into one run's stats."""
    from repro.harness.cache import stats_from_dict

    return merge_stats([stats_from_dict(payload["stats"]) for payload in payloads])


def run_sharded(
    benchmark: str,
    technique: str,
    config: RunConfig,
    *,
    span_entries: int,
    overlap: Union[str, int] = "full",
    slack: int = DEFAULT_SHARD_SLACK,
    trace_cache=None,
    trace_window: Optional[int] = None,
    engine: Optional[str] = None,
) -> SimulationStats:
    """Shard one cell in-process and stitch the result (reference path).

    The parallel execution paths live in
    :class:`repro.harness.parallel.ParallelSuiteRunner`
    (``shard_span_windows=...``); this helper runs the same plan
    serially, which the validation tests use as the sharding oracle.
    """
    if trace_cache is not None and not isinstance(trace_cache, TraceCache):
        trace_cache = TraceCache(trace_cache)
    program = _program_for(benchmark, technique, config)
    spans = plan_shards(
        program,
        config.max_instructions,
        config.warmup_instructions,
        span_entries,
        overlap=overlap,
        slack=slack,
        cache=trace_cache,
    )
    parts = []
    for span in spans:
        job = ShardJob(
            benchmark,
            technique,
            config,
            span,
            cell_fingerprint="",
            trace_window=trace_window,
            engine=engine,
        )
        parts.append(run_shard_job(job, program, trace_cache))
    return stitch_payloads(parts)


def compare_sharded_to_sequential(
    benchmark: str,
    technique: str,
    config: RunConfig,
    *,
    span_entries: int,
    overlap: Union[str, int] = "full",
    slack: int = DEFAULT_SHARD_SLACK,
    trace_window: Optional[int] = None,
    engine: Optional[str] = None,
) -> dict:
    """Validation mode: stitched vs. sequential stats on one budget.

    Returns the two :class:`SimulationStats` plus the relative error of
    the headline metrics.  With ``overlap="full"`` every delta is
    exactly zero (the stitched run is bit-identical); finite overlaps
    trade accuracy for parallel speedup and should stay within the
    documented tolerance (a few percent of IPC at tier-1 budgets).
    """
    program = _program_for(benchmark, technique, config)
    policy = make_policy(technique, config)
    sequential = simulate(
        program,
        policy,
        config=config.processor_config,
        max_instructions=config.max_instructions,
        warmup_instructions=config.warmup_instructions,
        trace_window=trace_window,
        engine=engine,
    )
    stitched = run_sharded(
        benchmark,
        technique,
        config,
        span_entries=span_entries,
        overlap=overlap,
        slack=slack,
        trace_window=trace_window,
        engine=engine,
    )

    def _rel(a: float, b: float) -> float:
        if b == 0:
            return 0.0 if a == 0 else float("inf")
        return abs(a - b) / abs(b)

    deltas = {
        "ipc": _rel(stitched.ipc, sequential.ipc),
        "cycles": _rel(stitched.cycles, sequential.cycles),
        "committed": _rel(
            stitched.committed_instructions, sequential.committed_instructions
        ),
        "avg_iq_occupancy": _rel(
            stitched.avg_iq_occupancy, sequential.avg_iq_occupancy
        ),
        "iq_banks_off_fraction": _rel(
            stitched.iq_banks_off_fraction, sequential.iq_banks_off_fraction
        ),
    }
    return {
        "stitched": stitched,
        "sequential": sequential,
        "deltas": deltas,
        "shards": len(
            plan_shards(
                program,
                config.max_instructions,
                config.warmup_instructions,
                span_entries,
                overlap=overlap,
                slack=slack,
            )
        ),
    }


def shard_span_entries(
    span_windows: int, trace_window: Optional[int] = None
) -> int:
    """Entries per measure span for a span of ``span_windows`` windows."""
    if span_windows < 1:
        raise ValueError("span_windows must be a positive window count")
    window = resolve_trace_window(trace_window)
    if window == 0:
        raise ValueError(
            "window sharding needs a non-zero trace window "
            "(trace_window=0 forces monolithic replay)"
        )
    return span_windows * window
