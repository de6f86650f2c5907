"""chaoskit: deterministic fault injection, retry/poison, degradation.

Three layers of coverage, bottom up:

1. unit tests over :mod:`repro.harness.faults` itself — plan spec
   round-trips, decision determinism, fire budgets, the
   :class:`RetryPolicy` contract, and the atomicio hook behaviours
   (clean transient errors vs. orphan-leaving injected crashes);
2. degradation tests — corrupt :class:`ResultCache`/:class:`TraceCache`
   entries are quarantined once and re-missed cleanly, stores that
   cannot persist fall back to memory with a warn-once, quarantine
   directories expire under ``cache gc`` on the consumed-marker bound,
   and an injected mid-job worker death is recovered by the TTL
   re-lease path;
3. the chaos soak gate — the 6-cell queue-backed grid run under a
   matrix of seeded fault plans produces statistics **bit-identical**
   to the fault-free run, every job terminates, and the post-run cache
   tree holds no leases, no orphaned temp files and no undocumented
   queue state.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from array import array

import pytest

from repro.atomicio import TMP_PREFIX, publish_atomically
from repro.harness import ParallelSuiteRunner, RunConfig
from repro.harness.cache import (
    QUARANTINE_DIR_NAME,
    ResultCache,
    gc_cache_tree,
)
from repro.harness.faults import (
    FAULT_PLAN_ENV,
    FAULT_PRESETS,
    FAULT_SITES,
    WORKER_DEATH_EXIT_CODE,
    FaultInjector,
    FaultPlan,
    InjectedCrashError,
    InjectedFaultError,
    RetryPolicy,
    active_injector,
    installed,
    maybe_fire,
    maybe_filter_names,
    maybe_stall,
)
from repro.harness.queue import WorkQueue, process_claimed_job, spawn_local_workers
from repro.uarch.stats import SimulationStats
from repro.uarch.trace import (
    TraceCache,
    TraceWindow,
    get_trace_columns,
    static_table,
    trace_fingerprint,
)
from repro.workloads import build_benchmark

TINY_CONFIG = RunConfig(
    benchmarks=("gzip", "mcf"),
    max_instructions=2_500,
    warmup_instructions=500,
)

#: The 6-cell grid the soak matrix runs: 2 benchmarks × 3 techniques.
SOAK_TECHNIQUES = ("baseline", "abella", "noop")


# ----------------------------------------------------------------------
# FaultPlan / FaultInjector unit tests
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_round_trip(self):
        plan = FaultPlan(
            seed=3,
            rate=0.25,
            fire_limit=2,
            sites=("queue.listing", "atomicio.write"),
            sleep_scale=0.1,
            worker_death=True,
        )
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    def test_json_spec(self):
        plan = FaultPlan.from_spec('{"seed": 7, "rate": 0.5, "sites": ["cache.load"]}')
        assert plan.seed == 7 and plan.rate == 0.5
        assert plan.sites == ("cache.load",)

    def test_presets_parse(self):
        for name in FAULT_PRESETS:
            plan = FaultPlan.from_spec(name)
            assert 0.0 < plan.rate <= 1.0

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(sites=("no.such.site",))
        with pytest.raises(ValueError, match="unknown fault plan field"):
            FaultPlan.from_spec("seed=1,bogus=2")
        with pytest.raises(ValueError):
            FaultPlan(rate=1.5)

    def test_environment_round_trip(self, monkeypatch):
        from repro.harness import faults

        plan = FaultPlan(seed=9, rate=0.1, fire_limit=1, sleep_scale=0.2)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_spec())
        injector = faults.install_from_env()
        try:
            assert injector is not None and injector.plan == plan
            assert active_injector() is injector
        finally:
            faults.install(None)


class TestFaultInjector:
    def test_decisions_are_deterministic(self):
        def run() -> list[bool]:
            injector = FaultInjector(FaultPlan(seed=5, rate=0.5, fire_limit=3))
            return [
                injector.decide("cache.load", f"key{i % 4}") for i in range(64)
            ]

        first, second = run(), run()
        assert first == second
        assert any(first), "a rate-0.5 plan over 64 calls should fire"

    def test_fire_limit_bounds_each_site_key_pair(self):
        injector = FaultInjector(FaultPlan(seed=1, rate=1.0, fire_limit=2))
        fired = sum(injector.decide("cache.load", "k") for _ in range(50))
        assert fired == 2  # then permanently quiet: liveness under chaos

    def test_site_whitelist(self):
        injector = FaultInjector(
            FaultPlan(seed=1, rate=1.0, fire_limit=5, sites=("queue.listing",))
        )
        assert not injector.decide("cache.load", "k")
        assert injector.decide("queue.listing", "k")

    def test_no_injector_hooks_are_noops(self):
        assert active_injector() is None
        maybe_fire("cache.load", "k")  # must not raise
        assert maybe_filter_names("queue.listing", "pending", ["a", "b"]) == ["a", "b"]
        assert maybe_stall("queue.heartbeat", "k") is False

    def test_listing_filter_reveals_within_budget(self):
        with installed(FaultPlan(seed=2, rate=1.0, fire_limit=2)):
            hidden = 0
            for _ in range(10):
                if maybe_filter_names("queue.listing", "pending", ["job.json"]) == []:
                    hidden += 1
                else:
                    break
            assert hidden == 2  # budget spent: the entry must reappear
            assert maybe_filter_names("queue.listing", "pending", ["job.json"]) == [
                "job.json"
            ]

    def test_worker_death_requires_plan_opt_in(self):
        # worker_death=False (the default) must never exit the process,
        # even with the site eligible at rate 1.
        with installed(FaultPlan(seed=1, rate=1.0, fire_limit=5)) as injector:
            injector.maybe_die("job")  # still alive == pass


class TestRetryPolicy:
    def test_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky() -> str:
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(attempts=4, base_delay=0.0, jitter=0.0)
        assert policy.call(flaky) == "ok"
        assert calls["n"] == 3

    def test_raises_after_budget(self):
        policy = RetryPolicy(attempts=2, base_delay=0.0)

        def always() -> None:
            raise OSError("persistent")

        with pytest.raises(OSError, match="persistent"):
            policy.call(always)

    def test_drop_mode_returns_default(self):
        policy = RetryPolicy(attempts=2, base_delay=0.0)

        def always() -> None:
            raise OSError("persistent")

        assert policy.call(always, on_exhausted="drop", default=7) == 7

    def test_delays_are_seeded_and_bounded(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1, max_delay=0.3, jitter=0.5)
        first = list(policy.delays("key"))
        assert first == list(policy.delays("key"))  # deterministic
        assert first != list(policy.delays("other"))  # desynchronised
        assert len(first) == 4
        assert all(0.1 <= delay <= 0.3 * 1.5 for delay in first)
        assert first[1] >= first[0]  # exponential growth under the cap

    def test_sleep_scale_compresses_waits(self):
        from repro.harness import faults

        with installed(FaultPlan(seed=1, rate=0.0, sleep_scale=0.0)):
            start = time.monotonic()
            faults.sleep(10.0)  # scaled to zero: returns immediately
            assert time.monotonic() - start < 1.0


# ----------------------------------------------------------------------
# atomicio hook behaviours
# ----------------------------------------------------------------------
def _publish(path, text="payload"):
    return publish_atomically(path, lambda handle: handle.write(text))


def _tmp_files(directory):
    return [p.name for p in directory.iterdir() if p.name.startswith(TMP_PREFIX)]


class TestAtomicioHooks:
    def test_write_fault_is_transient_and_clean(self, tmp_path):
        target = tmp_path / "cell.json"
        with installed(
            FaultPlan(seed=1, rate=1.0, fire_limit=1, sites=("atomicio.write",))
        ):
            with pytest.raises(InjectedFaultError):
                _publish(target)
            assert not target.exists()
            assert _tmp_files(tmp_path) == []  # cleanup ran: no orphan
            _publish(target)  # budget spent: the retry succeeds
        assert target.read_text() == "payload"

    def test_torn_write_leaves_truncated_orphan(self, tmp_path):
        target = tmp_path / "cell.json"
        with installed(
            FaultPlan(seed=1, rate=1.0, fire_limit=1, sites=("atomicio.torn",))
        ):
            with pytest.raises(InjectedCrashError):
                _publish(target, "0123456789")
        assert not target.exists()  # the rename never happened
        [orphan] = _tmp_files(tmp_path)
        content = (tmp_path / orphan).read_bytes()
        assert 0 < len(content) < 10  # torn mid-write, exactly the gc debris
        # The documented sweep reclaims it.
        gc_cache_tree(tmp_path, tmp_max_age_seconds=0.0)
        assert _tmp_files(tmp_path) == []

    def test_crash_before_replace_preserves_temp(self, tmp_path):
        target = tmp_path / "cell.json"
        with installed(
            FaultPlan(
                seed=1, rate=1.0, fire_limit=1, sites=("atomicio.crash-before-replace",)
            )
        ):
            with pytest.raises(InjectedCrashError):
                _publish(target)
        assert not target.exists()
        [orphan] = _tmp_files(tmp_path)
        assert (tmp_path / orphan).read_text() == "payload"  # full temp file

    def test_crash_after_replace_publishes_then_raises(self, tmp_path):
        target = tmp_path / "cell.json"
        with installed(
            FaultPlan(
                seed=1, rate=1.0, fire_limit=1, sites=("atomicio.crash-after-replace",)
            )
        ):
            with pytest.raises(InjectedCrashError):
                _publish(target)
        # The writer "died" after os.replace: the publication is live
        # (callers retrying must treat re-publication as idempotent).
        assert target.read_text() == "payload"
        assert _tmp_files(tmp_path) == []


# ----------------------------------------------------------------------
# Cache degradation: quarantine + in-memory fallback
# ----------------------------------------------------------------------
def _store_cell(cache: ResultCache, fingerprint: str = "f" * 8) -> str:
    cache.store(fingerprint, SimulationStats(cycles=42), benchmark="gzip")
    return fingerprint


class TestResultCacheQuarantine:
    @pytest.mark.parametrize(
        "corruption",
        ["truncated", "bad-magic", "not-json", "wrong-shape"],
    )
    def test_corrupt_entry_is_quarantined_once(self, tmp_path, corruption):
        cache = ResultCache(tmp_path)
        fingerprint = _store_cell(cache)
        path = cache.path_for(fingerprint)
        if corruption == "truncated":
            path.write_text(path.read_text()[: 10])
        elif corruption == "bad-magic":
            path.write_text(json.dumps({"format": -1, "stats": {}}))
        elif corruption == "not-json":
            path.write_bytes(b"\x00\x01\x02 not json at all")
        else:
            path.write_text(json.dumps({"format": 2, "stats": "not-a-mapping"}))

        assert cache.load(fingerprint) is None  # clean miss, no crash
        assert cache.quarantined == 1
        assert not path.exists()
        quarantined = cache.quarantine_path(fingerprint)
        assert quarantined.exists()  # visible for post-mortem

        # Second lookup: plain miss, nothing new to quarantine.
        assert cache.load(fingerprint) is None
        assert cache.quarantined == 1

        # A fresh store lands cleanly and hits.
        _store_cell(cache, fingerprint)
        assert cache.load(fingerprint).cycles == 42
        stats = cache.cache_stats()
        assert stats["quarantined"] == 1

    def test_read_error_is_a_miss_not_a_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        fingerprint = _store_cell(cache)
        with installed(
            FaultPlan(seed=1, rate=1.0, fire_limit=1, sites=("cache.load",))
        ):
            assert cache.load(fingerprint) is None  # injected EIO: miss
        assert cache.quarantined == 0
        assert cache.path_for(fingerprint).exists()  # file left alone
        assert cache.load(fingerprint).cycles == 42  # intact afterwards

    def test_unwritable_directory_falls_back_to_memory(self, tmp_path):
        cache = ResultCache(tmp_path / "cells")
        # Every publication attempt fails: the directory is effectively
        # read-only for the whole test (budget far above the retries).
        with installed(
            FaultPlan(seed=1, rate=1.0, fire_limit=1000, sites=("atomicio.write",))
        ):
            with pytest.warns(RuntimeWarning, match="in-memory"):
                _store_cell(cache, "a" * 8)
            _store_cell(cache, "b" * 8)  # second store: no second warning
            assert cache.memory_stores == 2
            assert cache.load("a" * 8).cycles == 42  # served from memory
            assert cache.load("b" * 8).cycles == 42
        assert len(cache) == 0  # nothing reached the disk


class TestTraceCacheQuarantine:
    @pytest.fixture()
    def stored_trace(self, tmp_path):
        program = build_benchmark("gzip")
        trace = get_trace_columns(program, 200, live=True)
        cache = TraceCache(tmp_path)
        fingerprint = trace_fingerprint(program, 200)
        cache.store(fingerprint, trace)
        return cache, fingerprint, program

    @pytest.mark.parametrize("corruption", ["truncated", "bad-magic", "bad-header"])
    def test_corrupt_trace_is_quarantined_once(self, stored_trace, corruption):
        cache, fingerprint, program = stored_trace
        path = cache.path_for(fingerprint)
        blob = path.read_bytes()
        if corruption == "truncated":
            path.write_bytes(blob[: len(blob) // 2])
        elif corruption == "bad-magic":
            path.write_bytes(b'{"format": -1}\n' + blob.split(b"\n", 1)[1])
        else:
            path.write_bytes(b"not a header\n" + blob.split(b"\n", 1)[1])

        assert cache.load(fingerprint, program) is None  # clean miss
        assert cache.quarantined == 1
        assert not path.exists()
        assert (cache.directory / "quarantine" / path.name).exists()

        # The re-store lands cleanly and round-trips.
        writer_stores = cache.stores
        program2 = build_benchmark("gzip")
        cache.store(fingerprint, get_trace_columns(program2, 200, live=True))
        assert cache.stores == writer_stores + 1
        assert cache.load(fingerprint, program).length == 200

    @pytest.mark.parametrize("where", ["misaligned", "below", "past"])
    def test_stored_pc_without_a_static_is_quarantined(self, tmp_path, where):
        """A well-formed file whose pcs do not all name a static of the
        program is corrupt (or a fingerprint collision): a clean miss."""
        program = build_benchmark("gzip")
        table = static_table(program)
        columns = get_trace_columns(program, 200, live=True)
        pcs = array("q", columns.pc)
        pcs[100] = {
            "misaligned": pcs[100] + 1,
            "below": table.base - 4,
            "past": table.base + 4 * len(table),
        }[where]
        cache = TraceCache(tmp_path)
        fingerprint = trace_fingerprint(program, 200)
        cache.store(fingerprint, TraceWindow(pcs, *columns[1:]))
        assert cache.load(fingerprint, program) is None
        assert cache.quarantined == 1
        assert not cache.path_for(fingerprint).exists()

    def test_degraded_store_never_raises(self, tmp_path):
        program = build_benchmark("gzip")
        trace = get_trace_columns(program, 100, live=True)
        cache = TraceCache(tmp_path / "traces")
        fingerprint = trace_fingerprint(program, 100)
        with installed(
            FaultPlan(seed=1, rate=1.0, fire_limit=1000, sites=("atomicio.write",))
        ):
            with pytest.warns(RuntimeWarning, match="re-emulated"):
                cache.store(fingerprint, trace)  # must not raise
        assert cache.degraded_stores == 1
        assert cache.stores == 0
        assert len(cache) == 0


class TestQuarantineGc:
    def test_gc_sweeps_quarantine_on_marker_age_bound(self, tmp_path):
        now = time.time()
        old = now - 8 * 24 * 3600  # past the one-week done-marker bound
        for directory, name in (
            (tmp_path / QUARANTINE_DIR_NAME, "dead.json"),
            (tmp_path / "traces" / QUARANTINE_DIR_NAME, "dead.trace.bin"),
        ):
            directory.mkdir(parents=True)
            stale = directory / name
            stale.write_bytes(b"corpse")
            os.utime(stale, (old, old))
            fresh = directory / ("fresh-" + name)
            fresh.write_bytes(b"recent")

        gc_cache_tree(tmp_path, now=now)
        assert not (tmp_path / QUARANTINE_DIR_NAME / "dead.json").exists()
        assert not (
            tmp_path / "traces" / QUARANTINE_DIR_NAME / "dead.trace.bin"
        ).exists()
        # Fresh quarantine evidence survives for post-mortem.
        assert (tmp_path / QUARANTINE_DIR_NAME / "fresh-dead.json").exists()
        assert (
            tmp_path / "traces" / QUARANTINE_DIR_NAME / "fresh-dead.trace.bin"
        ).exists()


# ----------------------------------------------------------------------
# Injected worker death → TTL re-lease recovery (real subprocess)
# ----------------------------------------------------------------------
class TestWorkerDeath:
    def test_killed_worker_is_recovered_by_ttl_relese(self, tmp_path):
        from repro.harness.parallel import SimulationJob

        queue = WorkQueue(tmp_path, ttl=5)
        job = SimulationJob("gzip", "baseline", TINY_CONFIG)
        fingerprint = queue.enqueue(job)

        plan = FaultPlan(
            seed=1,
            rate=1.0,
            fire_limit=1,
            sites=("queue.worker-death",),
            worker_death=True,
        )
        os.environ[FAULT_PLAN_ENV] = plan.to_spec()
        try:
            # spawn_local_workers copies the environment, so the worker
            # self-installs the death-enabled plan at startup.
            [proc] = spawn_local_workers(
                tmp_path, 1, ttl=5, poll_interval=0.05, drain=True
            )
            proc.wait(timeout=120)
        finally:
            os.environ.pop(FAULT_PLAN_ENV, None)
        assert proc.returncode == WORKER_DEATH_EXIT_CODE  # died mid-job
        assert queue.lease_path(fingerprint).exists()  # orphaned lease
        assert not queue.done_path(fingerprint).exists()

        # Heartbeats stopped with the worker: expire, re-lease, recover
        # in-process (no plan installed here — the fault budget belongs
        # to the dead worker's process).
        stale = time.time() - 60
        os.utime(queue.lease_path(fingerprint), (stale, stale))
        assert queue.requeue_expired() == [fingerprint]
        rescued = queue.claim("rescuer")
        assert rescued is not None
        assert process_claimed_job(queue, rescued, "rescuer") is True
        assert queue.done_marker(fingerprint)["payload"] is not None
        assert queue.is_idle()


# ----------------------------------------------------------------------
# The chaos soak gate
# ----------------------------------------------------------------------
#: The soak matrix: ≥ 5 seeded plans over every non-lethal site.  Worker
#: death stays out (the driver itself assists in-process); it is covered
#: by the dedicated subprocess test above.
SOAK_PLANS = tuple(
    FaultPlan(seed=seed, rate=0.15, fire_limit=1, sleep_scale=0.05)
    for seed in (1, 2, 3, 4, 5)
)

#: Queue-state files a healthy post-run tree may contain, by directory.
DOCUMENTED_QUEUE_DIRS = {"pending", "leases", "done", "poison", "workers"}


def _run_grid(cache_dir) -> dict[tuple[str, str], dict]:
    runner = ParallelSuiteRunner(
        TINY_CONFIG,
        workers=1,
        cache_dir=str(cache_dir),
        backend="queue",
        queue_workers=0,  # the driver's assist path serves every job
        queue_assist=True,
        queue_poll=0.05,
        queue_ttl=30,
        queue_timeout=300,
    )
    results = runner.run_suite(techniques=SOAK_TECHNIQUES)
    return {
        key: dataclasses.asdict(result.stats) for key, result in results.items()
    }


def _assert_tree_clean(cache_dir) -> None:
    """No leases, no temp orphans, no undocumented queue state."""
    queue_root = cache_dir / "queue"
    assert sorted(p.name for p in queue_root.iterdir()) == sorted(
        DOCUMENTED_QUEUE_DIRS
    )
    assert list((queue_root / "leases").iterdir()) == []
    assert list((queue_root / "pending").iterdir()) == []
    assert list((queue_root / "poison").iterdir()) == []
    for path in cache_dir.rglob(TMP_PREFIX + "*"):
        raise AssertionError(f"orphaned temp file survived the sweep: {path}")


class TestChaosSoak:
    def test_grid_is_bit_identical_under_fault_matrix(self, tmp_path):
        baseline = _run_grid(tmp_path / "fault-free")
        assert len(baseline) == 6

        for plan in SOAK_PLANS:
            cache_dir = tmp_path / f"seed{plan.seed}"
            with installed(plan) as injector:
                chaos = _run_grid(cache_dir)
                fired = injector.fired_total()
            # Bit-identical statistics, cell by cell.
            assert chaos == baseline, f"stats diverged under {plan.to_spec()}"
            # Every job terminated with a completion marker; none poisoned.
            queue = WorkQueue(cache_dir)
            assert len(queue.list_done()) == 6
            assert queue.list_poisoned() == set()
            # Injected crashes may leave orphan temp debris *by design*;
            # the documented sweep must reclaim every byte of it.
            gc_cache_tree(cache_dir, tmp_max_age_seconds=0.0)
            _assert_tree_clean(cache_dir)
            assert fired >= 0  # schedule ran (some seeds fire, all may not)

    def test_soak_matrix_fires_faults_somewhere(self, tmp_path):
        """The matrix is only a gate if it actually injects: across the
        5 seeds at rate 0.15 the schedule must fire a healthy number of
        faults in aggregate (a silent matrix would vacuously pass)."""
        total = 0
        for plan in SOAK_PLANS:
            cache_dir = tmp_path / f"seed{plan.seed}"
            with installed(plan) as injector:
                _run_grid(cache_dir)
                total += injector.fired_total()
        assert total >= 10, f"fault matrix only fired {total} fault(s)"
