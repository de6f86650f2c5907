"""Parallel, persistently-cached experiment engine.

Every figure in the paper is a (benchmark × technique) grid of mutually
independent simulations, which makes the evaluation embarrassingly
parallel: this module fans the grid out over a process pool and backs it
with the content-addressed disk cache of :mod:`repro.harness.cache` so a
cell is simulated at most once across runs, and replays are shared per
timing class within a run: cells whose programs and policies replay
identically (the baseline and nonEmpty) share one replay.

Usage::

    from repro.harness import ParallelSuiteRunner, RunConfig

    runner = ParallelSuiteRunner(
        RunConfig(max_instructions=20_000, warmup_instructions=6_000),
        workers=8,                     # default: REPRO_WORKERS or cpu_count
        cache_dir="results-cache",     # default: no on-disk cache
    )
    runner.run_suite()                 # simulate every cell, in parallel
    fig6 = figures.figure6(runner)     # figure assembly hits only caches

Semantics:

* **Determinism** — each simulation is a pure function of its inputs, so
  results are identical for any worker count; ``run_suite`` collects
  completed cells back into grid order, so iteration order is also stable.
* **Cache location** — ``cache_dir`` names a directory (created on
  demand) holding one JSON file per cell, named by the SHA-256 of the
  cell's full input set (benchmark traits, compiler/processor/energy
  configuration, technique, instruction budgets).  Pass the same
  directory across processes and sessions to share it; it is safe under
  concurrent writers.
* **Invalidation** — never explicit: changing any input changes the
  cell's hash, so stale entries are simply never read again.  Delete the
  directory to reclaim space.  ``CACHE_FORMAT_VERSION`` participates in
  the hash, so simulator semantic changes invalidate everything at once.
* **Workers** — ``workers=1`` runs every job in-process (no pool, no
  pickling), which tier-1 tests use to exercise this path
  deterministically; ``workers>1`` uses a ``ProcessPoolExecutor`` with
  picklable job specs, one task per benchmark, so one worker builds a
  benchmark's traces once and its later jobs read them from its memo.
  The ``REPRO_WORKERS`` environment variable supplies the default.
* **Replays per timing class** — the kernels read a policy only through
  its timing flags and hooks
  (:meth:`~repro.techniques.base.ResizingPolicy.timing_class`), so the
  local backends run one replay per (benchmark, program, timing class)
  and hand each cell its own copy of the statistics: 55 replays for
  the 66-cell grid.  Each cell is still stored and costed on its own,
  and ``simulations_run`` counts cells.  The queue backend runs one job
  per cell.
* **Compilations** are not cached on disk: they are cheap relative to
  simulation and memoised per runner, and the runner analyses each
  benchmark once, sharing that analysis between its three hint modes
  (a cold in-process grid: 33 compiles, 11 analyses).  Table 2 asks the
  runner for them, and a result's ``compilation`` field resolves on
  first read, so a grid served from the result cache compiles nothing.
  A pool task shares one analysis across its benchmark's modes; queue
  workers compile each job's program afresh.
* **Traces** are cached one level below the results: a
  ``traces/`` subdirectory of ``cache_dir`` (override with
  ``trace_cache_dir``) holds two traces per benchmark and budget
  (:mod:`repro.uarch.trace`), stored in independently loadable windows
  and keyed by the content the emulator reads (hint payloads and tags
  masked) + budget + emulator source.  The uninstrumented program's
  trace serves baseline, nonempty, abella and the tagged extension and
  improved programs; the noop program's trace is derived from it, with
  no second emulation.  A result-cache miss that only changed the
  technique or the processor/energy configuration re-times the
  benchmark without re-emulating it, in-process and across pool
  workers.  Budgets above the trace window (~16k instructions) replay
  window by window with trace memory bounded by the window size.
  Workers return their trace-cache hit/miss/store counter deltas with
  each job result and the runner folds them into its own
  ``trace_cache``, so traffic reports are exact for any worker count.
* **Bounding** — pass ``cache_max_entries`` to cap the result cache and
  ``trace_cache_max_bytes`` to cap the trace directory; stores prune
  least-recently-used entries (hits refresh recency via file mtimes, so
  the bounds hold across processes sharing the directory).
* **Backends** — ``backend="local"`` (the default) runs uncached cells
  in-process or over a ``ProcessPoolExecutor``; ``backend="queue"``
  publishes them to the file-backed work queue inside the shared cache
  directory (:mod:`repro.harness.queue`) so any number of worker
  processes — this host or others sharing the directory — lease,
  heartbeat and complete them.  The runner blocks on completion
  markers, re-leases jobs whose worker stopped heartbeating, folds each
  marker's trace-cache counter deltas, and (``queue_assist``, on by
  default) pitches in on unclaimed jobs itself so a queue with no
  external workers still drains.  Results are bit-identical between
  backends for any worker count.
* **Replay engines** — ``engine="scalar"|"native"`` pins the replay
  kernel (:mod:`repro.uarch.engine`) every job runs under; None (the
  default) lets each executing host resolve its own: its
  ``REPRO_REPLAY_KERNEL``, else native where it builds, else scalar.
  Statistics are bit-identical between kernels, so the engine is
  transport like the worker count: it never participates in cache
  fingerprints, results cached under one kernel are hits under any
  other, and queue completion markers stay idempotent even when a
  re-leased job reruns on a host with a different kernel.
"""

from __future__ import annotations

import functools
import os
import subprocess
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from repro.core import compile_program
from repro.harness.cache import ResultCache, simulation_fingerprint, stats_from_dict, stats_to_dict
from repro.harness.experiment import (
    BenchmarkResult,
    RunConfig,
    SOFTWARE_TECHNIQUES,
    SuiteRunner,
    TECHNIQUES,
    make_policy,
)
from repro.power import build_power_report
from repro.uarch import SimulationStats, TraceCache, simulate
from repro.workloads import ALL_TRAITS, build_benchmark


@dataclass
class SimulationJob:
    """Picklable description of one (benchmark, technique) simulation.

    ``trace_cache_dir`` names the shared on-disk trace cache (see
    :mod:`repro.uarch.trace`), ``trace_cache_max_bytes`` its LRU byte
    cap, and ``engine`` the replay kernel (:mod:`repro.uarch.engine`;
    None: the executing host's own resolution, so a heterogeneous fleet
    runs native wherever it builds and scalar elsewhere).  All three are
    transport, not identity — replay statistics are bit-identical for
    every cache setting and engine — so none participates in
    :meth:`fingerprint`, and a result produced by one kernel is a cache
    hit for every other.
    """

    benchmark: str
    technique: str
    config: RunConfig
    trace_cache_dir: Optional[str] = None
    trace_cache_max_bytes: Optional[int] = None
    engine: Optional[str] = None
    # Queue-backend retry budget (None: the queue's default).  Like the
    # transport fields above it never participates in fingerprint():
    # how often a job may be retried doesn't change what it computes.
    max_attempts: Optional[int] = None

    def fingerprint(self) -> str:
        """Content hash of the job's full input set (see :mod:`.cache`).

        Computed on first use and kept on the job, so looking a cell up
        and storing it digest its inputs once; a job's identity fields
        are not changed once it exists.
        """
        fingerprint = self.__dict__.get("_fingerprint")
        if fingerprint is None:
            config = self.config
            fingerprint = self._fingerprint = simulation_fingerprint(
                ALL_TRAITS[self.benchmark],
                self.technique,
                config.compiler_config,
                config.processor_config,
                config.energy_params,
                config.max_instructions,
                config.warmup_instructions,
                config.abella_interval,
            )
        return fingerprint


def run_simulation_job(job: SimulationJob, program=None, trace_cache=None) -> dict:
    """Execute one grid cell; return ``{"stats": ..., "trace_cache": ...}``.

    Runs inside pool workers, so it takes and returns only picklable
    values.  The in-process path passes ``program`` from the runner's
    compilation memo so software-technique cells are not compiled twice,
    and ``trace_cache`` (the runner's live
    :class:`~repro.uarch.trace.TraceCache`) so trace-cache traffic
    accumulates there directly; pool workers instead build a private
    ``TraceCache`` over ``job.trace_cache_dir`` and ship its counter
    deltas back under the ``"trace_cache"`` key, which the runner folds
    into its own cache — without this, every hit/miss/store observed in
    a worker process would be silently dropped and ``--cache-stats``
    would underreport traffic on parallel runs.
    """
    config = job.config
    policy = make_policy(job.technique, config)
    if program is None:
        if job.technique in SOFTWARE_TECHNIQUES:
            compilation = compile_program(
                build_benchmark(job.benchmark), config.compiler_config, mode=job.technique
            )
            program = compilation.instrumented_program
        else:
            program = build_benchmark(job.benchmark)
    local_cache = trace_cache
    if local_cache is None and job.trace_cache_dir is not None:
        local_cache = TraceCache(
            job.trace_cache_dir, max_bytes=job.trace_cache_max_bytes
        )
    stats = simulate(
        program,
        policy,
        config=config.processor_config,
        max_instructions=config.max_instructions,
        warmup_instructions=config.warmup_instructions,
        trace_cache=local_cache,
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


def run_benchmark_jobs(jobs: list[SimulationJob]) -> list[dict]:
    """Execute one benchmark's jobs in order: one pool task.

    Nothing claims a trace build in flight across processes, so two
    workers starting cells of one benchmark at once would both build its
    traces.  One worker per benchmark builds each trace once; its later
    jobs read the process memo.  The hint modes share one compiler
    analysis, as in-process.
    """
    compiler = SuiteRunner(jobs[0].config)
    return [run_simulation_job(job, _job_program(compiler, job)) for job in jobs]


def _job_program(runner: SuiteRunner, job: SimulationJob):
    """The job's program, through ``runner``'s compilation memo."""
    if job.technique in SOFTWARE_TECHNIQUES:
        return runner.compilation(job.benchmark, job.technique).instrumented_program
    return build_benchmark(job.benchmark)


class ParallelSuiteRunner(SuiteRunner):
    """Drop-in :class:`SuiteRunner` with fan-out and a persistent cache.

    Attributes:
        workers: process-pool size (1 means run jobs in-process).
        cache: the :class:`ResultCache`, or None when running uncached.
        simulations_run: cells actually simulated by this runner.
        backend: ``"local"`` (in-process / process pool) or ``"queue"``
            (the shared-directory work queue of
            :mod:`repro.harness.queue`).
        engine: replay kernel jobs are pinned to (None: each executing
            host resolves its own, see :mod:`repro.uarch.engine`).
    """

    def __init__(
        self,
        config: Optional[RunConfig] = None,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        cache_max_entries: Optional[int] = None,
        trace_cache_dir: Optional[str] = None,
        trace_cache_max_bytes: Optional[int] = None,
        backend: str = "local",
        queue_workers: int = 0,
        queue_ttl: float = 60.0,
        queue_poll: float = 0.2,
        queue_assist: bool = True,
        queue_timeout: Optional[float] = 600.0,
        engine: Optional[str] = None,
    ):
        super().__init__(config)
        if engine is not None:
            # Fail at construction, not inside a worker: statistics are
            # engine-invariant but a typo should not surface as a grid
            # of failed jobs.
            from repro.uarch.engine import resolve_engine_name

            engine = resolve_engine_name(engine)
        self.engine = engine
        if workers is None:
            workers = int(os.environ.get("REPRO_WORKERS") or 0) or os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be a positive integer")
        if backend not in ("local", "queue"):
            raise ValueError(f"backend must be 'local' or 'queue', got {backend!r}")
        if backend == "queue" and cache_dir is None:
            raise ValueError(
                "backend='queue' needs cache_dir: the queue lives inside the "
                "shared cache directory the workers mount"
            )
        if queue_workers < 0:
            raise ValueError("queue_workers must be a non-negative integer")
        self.workers = workers
        self.backend = backend
        self.queue_workers = queue_workers
        self.queue_ttl = queue_ttl
        self.queue_poll = queue_poll
        self.queue_assist = queue_assist
        self.queue_timeout = queue_timeout
        self.cache = (
            ResultCache(cache_dir, max_entries=cache_max_entries)
            if cache_dir is not None
            else None
        )
        # Traces are shared one level below the result cache: a
        # result-cache miss (new technique, changed processor/energy
        # config) still reuses the benchmark's emulation if the trace
        # cache holds it.  Defaults to a ``traces/`` subdirectory of the
        # result cache so both travel together.
        if trace_cache_dir is None and cache_dir is not None:
            trace_cache_dir = str(Path(cache_dir) / "traces")
        self.trace_cache_dir = trace_cache_dir
        self.trace_cache_max_bytes = trace_cache_max_bytes
        self.trace_cache = (
            TraceCache(trace_cache_dir, max_bytes=trace_cache_max_bytes)
            if trace_cache_dir is not None
            else None
        )
        self.simulations_run = 0

    # ------------------------------------------------------------------
    def _job(self, benchmark: str, technique: str) -> SimulationJob:
        return SimulationJob(
            benchmark,
            technique,
            self.config,
            trace_cache_dir=self.trace_cache_dir,
            trace_cache_max_bytes=self.trace_cache_max_bytes,
            engine=self.engine,
        )

    def _fold_trace_counters(self, payload: dict) -> None:
        """Fold a worker's trace-cache counter deltas into the runner's.

        The in-process path simulates against ``self.trace_cache``
        directly (no ``"trace_cache"`` key in the payload), so nothing is
        ever double counted.
        """
        deltas = payload.get("trace_cache")
        if deltas is None or self.trace_cache is None:
            return
        cache = self.trace_cache
        cache.hits += deltas["hits"]
        cache.misses += deltas["misses"]
        cache.stores += deltas["stores"]
        cache.evictions += deltas["evictions"]

    def result(self, benchmark: str, technique: str) -> BenchmarkResult:
        """One cell, consulting memory first, then disk, then simulating."""
        key = (benchmark, technique)
        if key in self._results:
            return self._results[key]
        job = self._job(benchmark, technique)
        stats = self._cached_stats(job)
        if stats is None:
            stats = self._execute_pending([job])[0]
            self.simulations_run += 1
            self._store(job, stats)
        result = self._build_result(job, stats)
        self._results[key] = result
        return result

    def run_suite(
        self,
        techniques: Iterable[str] = TECHNIQUES,
        benchmarks: Optional[Iterable[str]] = None,
    ) -> dict[tuple[str, str], BenchmarkResult]:
        """Populate the whole grid, fanning uncached cells over the backend.

        Returns the results in deterministic grid order (benchmarks outer,
        techniques inner) regardless of worker completion order — on the
        local pool or on the shared work queue.
        """
        grid = self.grid(techniques, benchmarks)
        pending: list[SimulationJob] = []
        stats_by_key: dict[tuple[str, str], SimulationStats] = {}
        for benchmark, technique in grid:
            if (benchmark, technique) in self._results:
                continue
            job = self._job(benchmark, technique)
            cached = self._cached_stats(job)
            if cached is not None:
                stats_by_key[(benchmark, technique)] = cached
            else:
                pending.append(job)

        if pending:
            stats_list = self._execute_pending(pending)
            self.simulations_run += len(pending)
            for job, stats in zip(pending, stats_list):
                self._store(job, stats)
                stats_by_key[(job.benchmark, job.technique)] = stats

        for benchmark, technique in grid:
            key = (benchmark, technique)
            if key not in self._results:
                job = self._job(benchmark, technique)
                self._results[key] = self._build_result(job, stats_by_key[key])
        return {key: self._results[key] for key in grid}

    # ------------------------------------------------------------------
    # Execution backends
    # ------------------------------------------------------------------
    def _execute_pending(self, pending: list[SimulationJob]) -> list[SimulationStats]:
        """Simulate the uncached cells, in order, over the active backend.

        Jobs with equal :meth:`_replay_key` share the first one's replay,
        and every cell still gets its own statistics object.
        """
        owners: dict = {}
        replay_of = [
            owners.setdefault(self._replay_key(job, index), index)
            for index, job in enumerate(pending)
        ]
        replays = [index for index, owner in enumerate(replay_of) if owner == index]
        jobs = [pending[index] for index in replays]
        if self.backend == "queue":
            payloads = self._execute_jobs_queue(jobs)
        elif self.workers == 1:
            payloads = [self._execute_in_process(job) for job in jobs]
        else:
            payloads = self._execute_pool(jobs)
        for payload in payloads:
            self._fold_trace_counters(payload)
        payload_of = dict(zip(replays, payloads))
        return [stats_from_dict(payload_of[owner]["stats"]) for owner in replay_of]

    def _replay_key(self, job: SimulationJob, index: int):
        """Jobs with equal keys replay identically: same benchmark, same
        program, and a policy of the same timing class.  A policy with no
        timing class keys by its position, so it never shares, and so
        does every job of the queue backend, which runs one job per
        cell."""
        timing = None
        if self.backend != "queue":
            timing = make_policy(job.technique, self.config).timing_class()
        if timing is None:
            return index
        program = job.technique if job.technique in SOFTWARE_TECHNIQUES else None
        return (job.benchmark, program, timing)

    def _execute_pool(self, jobs: list[SimulationJob]) -> list[dict]:
        """The jobs over the process pool, one task per benchmark."""
        tasks: dict[str, list[int]] = {}
        for index, job in enumerate(jobs):
            tasks.setdefault(job.benchmark, []).append(index)
        payloads: list = [None] * len(jobs)
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            results = pool.map(
                run_benchmark_jobs,
                [[jobs[index] for index in indices] for indices in tasks.values()],
            )
            for indices, task_payloads in zip(tasks.values(), results):
                for index, payload in zip(indices, task_payloads):
                    payloads[index] = payload
        return payloads

    def _execute_in_process(self, job: SimulationJob) -> dict:
        """One job in this process, reusing the runner's memos and cache."""
        return run_simulation_job(job, _job_program(self, job), self.trace_cache)

    def _execute_jobs_queue(self, jobs: list[SimulationJob]) -> list[dict]:
        """Publish jobs to the shared work queue and await their markers.

        Spawns ``queue_workers`` local worker subprocesses for the
        duration of the batch (external workers on other hosts join by
        simply running ``python -m repro.harness.queue <cache_dir>``),
        re-leases jobs whose heartbeat lapsed, and — with
        ``queue_assist`` — claims unassigned jobs itself between polls
        so progress never depends on anyone else being alive.
        """
        from repro.harness.queue import WorkQueue, spawn_local_workers
        from repro.telemetry import spans as tracing

        # The driver is the trace root: with REPRO_TELEMETRY=1 it mints
        # one request id here, every enqueue stamps it into the job
        # envelope, and the claiming workers' spans carry it onward —
        # one connected driver→enqueue→claim→replay→complete trace per
        # batch.  Disabled (the default), both calls are no-ops and the
        # envelopes carry no trace key at all.
        tracing.install_from_env(self.cache.directory)
        queue = WorkQueue(self.cache.directory, ttl=self.queue_ttl)
        with tracing.maybe_trace_scope():
            with tracing.span(
                "driver.grid",
                cells=len(jobs),
                backend="queue",
                queue_workers=self.queue_workers,
            ):
                fingerprints = [queue.enqueue(job) for job in jobs]
                procs = (
                    spawn_local_workers(
                        self.cache.directory,
                        self.queue_workers,
                        ttl=self.queue_ttl,
                        poll_interval=self.queue_poll,
                    )
                    if self.queue_workers
                    else []
                )
                try:
                    markers = self._await_markers(queue, fingerprints)
                finally:
                    for proc in procs:
                        proc.terminate()
                    for proc in procs:
                        try:
                            proc.wait(timeout=10)
                        except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                            proc.kill()
        payloads = []
        for job, fingerprint in zip(jobs, fingerprints):
            marker = markers[fingerprint]
            if marker.get("error") or marker.get("payload") is None:
                raise RuntimeError(
                    f"queue job {marker.get('benchmark')}/{marker.get('technique')} "
                    f"failed on worker {marker.get('worker')!r}:\n{marker.get('error')}"
                )
            payloads.append(marker["payload"])
        return payloads

    def _await_markers(self, queue, fingerprints: list[str]) -> dict[str, dict]:
        """Await the batch's completion markers (see :func:`wait_for_markers`).

        The scan cadence adapts between ``queue_poll/4`` and
        ``queue_poll*4`` with queue activity.  ``queue_timeout`` bounds
        *stall* (it re-arms on every marker, heartbeat and assisted job,
        so slow-but-live fleets never trip it), a job escalated to
        ``poison/`` fails the batch immediately with the recorded
        reason, and ``queue_assist`` claims unassigned jobs between
        scans so progress never depends on anyone else being alive.
        """
        from repro.harness.queue import wait_for_markers

        poll_floor = max(0.01, self.queue_poll / 4.0)
        return wait_for_markers(
            queue,
            fingerprints,
            poll_floor=poll_floor,
            poll_ceiling=max(self.queue_poll * 4.0, poll_floor),
            assist=self.queue_assist,
            stall_timeout=self.queue_timeout,
        )

    # ------------------------------------------------------------------
    def _cached_stats(self, job: SimulationJob) -> Optional[SimulationStats]:
        if self.cache is None:
            return None
        return self.cache.load(job.fingerprint())

    def _store(self, job: SimulationJob, stats: SimulationStats) -> None:
        if self.cache is not None:
            self.cache.store(
                job.fingerprint(),
                stats,
                benchmark=job.benchmark,
                technique=job.technique,
            )

    def _build_result(self, job: SimulationJob, stats: SimulationStats) -> BenchmarkResult:
        """Assemble the full result record from (possibly cached) counters.

        Power reports are pure functions of the counters, so they are
        recomputed on every load rather than persisted.  A software
        technique's compilation resolves on first read, through the
        runner's memo: a result-cache hit compiles nothing.
        """
        policy = make_policy(job.technique, self.config)
        compile_ = None
        if job.technique in SOFTWARE_TECHNIQUES:
            compile_ = functools.partial(self.compilation, job.benchmark, job.technique)
        power = build_power_report(stats, policy, self.config.energy_params)
        return BenchmarkResult(
            benchmark=job.benchmark,
            technique=job.technique,
            stats=stats,
            power=power,
            policy_name=policy.name,
            compile=compile_,
        )
