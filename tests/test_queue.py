"""Work-queue protocol, crash recovery and backend-equivalence tests.

The contract (see :mod:`repro.harness.queue`): jobs are leased at most
once at a time via atomic renames, a lease whose heartbeat lapses is
re-leased exactly once, duplicate completions are idempotent
(last-writer-wins on identical payloads), and a grid run through
``backend="queue"`` with real worker subprocesses over a shared cache
directory is bit-identical to the local backend.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

import pytest

from repro.harness import ParallelSuiteRunner, RunConfig, SimulationJob, faults
from repro.harness.queue import (
    DEFAULT_MAX_ATTEMPTS,
    QueueWorker,
    WorkQueue,
    process_claimed_job,
    spawn_local_workers,
    wait_for_markers,
)

TINY_CONFIG = RunConfig(
    benchmarks=("gzip", "mcf"),
    max_instructions=2_500,
    warmup_instructions=500,
)
TINY_TECHNIQUES = ("baseline", "noop")


def _job(benchmark="gzip", technique="baseline", config=TINY_CONFIG, **kwargs):
    return SimulationJob(benchmark, technique, config, **kwargs)


class TestProtocol:
    def test_enqueue_claim_complete_roundtrip(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        job = _job()
        fingerprint = queue.enqueue(job)
        assert queue.pending_path(fingerprint).exists()
        assert queue.status()["pending"] == 1

        claimed = queue.claim("w1")
        assert claimed is not None and claimed.fingerprint == fingerprint
        assert not queue.pending_path(fingerprint).exists()
        lease = json.loads(queue.lease_path(fingerprint).read_text())
        assert lease["worker"] == "w1"
        assert claimed.job.benchmark == job.benchmark

        queue.complete(claimed, {"stats": {"cycles": 1}}, "w1")
        assert not queue.lease_path(fingerprint).exists()
        marker = queue.done_marker(fingerprint)
        assert marker["payload"] == {"stats": {"cycles": 1}}
        assert queue.is_idle()

    def test_enqueue_is_idempotent(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        fingerprint = queue.enqueue(_job())
        queue.enqueue(_job())
        assert queue.status()["pending"] == 1
        claimed = queue.claim("w1")
        queue.enqueue(_job())  # leased: still not duplicated
        assert queue.status()["pending"] == 0
        queue.complete(claimed, {"stats": {}}, "w1")
        queue.enqueue(_job())  # done: not resurrected
        assert queue.status()["pending"] == 0
        assert queue.done_marker(fingerprint) is not None

    def test_claim_from_empty_queue(self, tmp_path):
        assert WorkQueue(tmp_path, ttl=30).claim("w1") is None

    def test_malformed_envelope_is_poisoned(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        (queue.pending_dir / ("a" * 64 + ".json")).write_text("{not json")
        assert queue.claim("w1") is None
        assert queue.status()["poisoned"] == 1
        assert queue.status()["pending"] == 0

    def test_fresh_lease_is_not_requeued(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        queue.enqueue(_job())
        queue.claim("w1")
        assert queue.requeue_expired() == []

    def test_claim_restarts_the_heartbeat_clock(self, tmp_path):
        """A job that sat pending longer than the TTL must not be
        sweepable the instant it is claimed: the winning rename would
        otherwise inherit the stale enqueue-time mtime."""
        queue = WorkQueue(tmp_path, ttl=5)
        fingerprint = queue.enqueue(_job())
        stale = time.time() - 60
        os.utime(queue.pending_path(fingerprint), (stale, stale))
        claimed = queue.claim("w1")
        assert claimed is not None
        assert time.time() - claimed.lease_path.stat().st_mtime < queue.ttl
        assert queue.requeue_expired() == []

    def test_error_marker_is_retryable_on_enqueue(self, tmp_path):
        """One transient worker failure must not poison the fingerprint:
        re-enqueueing consumes the error marker and queues the job."""
        queue = WorkQueue(tmp_path, ttl=30)
        fingerprint = queue.enqueue(_job())
        claimed = queue.claim("w1")
        queue.complete(claimed, None, "w1", error="transient: disk full")
        assert "error" in queue.done_marker(fingerprint)

        assert queue.enqueue(_job()) == fingerprint
        assert queue.pending_path(fingerprint).exists()
        assert queue.done_marker(fingerprint) is None
        # This time it succeeds; the success marker then blocks re-runs.
        retry = queue.claim("w2")
        queue.complete(retry, {"stats": {"cycles": 1}}, "w2")
        queue.enqueue(_job())
        assert queue.status()["pending"] == 0


class TestCrashRecovery:
    def test_expired_lease_is_requeued_and_completes(self, tmp_path):
        """A lease whose heartbeat lapsed goes back to pending exactly
        once, a second worker completes it, and a duplicate completion
        from the presumed-dead first worker is a harmless overwrite."""
        queue = WorkQueue(tmp_path, ttl=5)
        fingerprint = queue.enqueue(_job())
        first = queue.claim("crashy")
        assert first is not None

        # The worker dies: no more heartbeats.  Backdate the lease past
        # the TTL instead of sleeping through it.
        stale = time.time() - 60
        os.utime(first.lease_path, (stale, stale))
        assert queue.requeue_expired() == [fingerprint]
        assert queue.pending_path(fingerprint).exists()
        # Exactly once: a second sweep finds nothing.
        assert queue.requeue_expired() == []

        second = queue.claim("healthy")
        assert second is not None and second.fingerprint == fingerprint
        payload = {"stats": {"cycles": 42}}
        queue.complete(second, payload, "healthy")
        # The slow-not-dead first worker finishes too: identical
        # fingerprint, identical payload, last writer wins cleanly.
        queue.complete(first, payload, "crashy")
        marker = queue.done_marker(fingerprint)
        assert marker["payload"] == payload
        assert marker["worker"] == "crashy"
        assert not queue.lease_path(fingerprint).exists()

    def test_expired_lease_with_marker_is_dropped(self, tmp_path):
        """A dead lease whose job already completed must not re-run."""
        queue = WorkQueue(tmp_path, ttl=5)
        fingerprint = queue.enqueue(_job())
        claimed = queue.claim("w1")
        queue.complete(claimed, {"stats": {}}, "w1")
        # Simulate the lease lingering (e.g. the unlink lost a race).
        queue.leases_dir.mkdir(parents=True, exist_ok=True)
        lease = queue.lease_path(fingerprint)
        lease.write_text(json.dumps(claimed.envelope))
        stale = time.time() - 60
        os.utime(lease, (stale, stale))
        assert queue.requeue_expired() == []
        assert not lease.exists()
        assert not queue.pending_path(fingerprint).exists()

    def test_killed_worker_subprocess_is_recovered(self, tmp_path):
        """Kill a real worker mid-lease; the job is re-leased after the
        heartbeat TTL and completes elsewhere."""
        queue = WorkQueue(tmp_path, ttl=2)
        # A budget big enough that the worker is still simulating when
        # the signal lands (claiming happens within the first second).
        slow = RunConfig(
            benchmarks=("gzip",),
            max_instructions=250_000,
            warmup_instructions=1_000,
        )
        fingerprint = queue.enqueue(_job(config=slow))
        [proc] = spawn_local_workers(tmp_path, 1, ttl=2, poll_interval=0.05)
        try:
            deadline = time.time() + 60
            while not queue.lease_path(fingerprint).exists():
                assert time.time() < deadline, "worker never claimed the job"
                assert proc.poll() is None, "worker exited prematurely"
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert not queue.done_path(fingerprint).exists()

        # Heartbeats stopped with the worker; expire and sweep.
        stale = time.time() - 60
        os.utime(queue.lease_path(fingerprint), (stale, stale))
        assert queue.requeue_expired() == [fingerprint]
        assert queue.pending_path(fingerprint).exists()

        # Protocol-level completion (running the 250k-instruction job
        # in-process would dominate the suite's runtime; worker-executed
        # completions are covered by the backend smoke test below).
        rescued = queue.claim("rescuer")
        assert rescued is not None
        queue.complete(rescued, {"stats": {"cycles": 7}}, "rescuer")
        assert queue.done_marker(fingerprint)["payload"] == {"stats": {"cycles": 7}}

    def test_failing_job_retries_then_poisons_with_reason(self, tmp_path):
        """A job that *raises* (vs. a worker that dies) must not wedge
        the queue: it re-enqueues with its attempts counter bumped until
        the budget is spent, then escalates to poison/ with the final
        traceback, worker id and timestamp recorded."""
        queue = WorkQueue(tmp_path, ttl=5)
        bad_fp = queue.enqueue(_job(technique="no-such-technique"))

        # Attempts 1..max-1 push the job back to pending with the
        # counter incremented; nothing is poisoned yet.
        for attempt in range(1, DEFAULT_MAX_ATTEMPTS):
            claimed = queue.claim("w1")
            assert claimed is not None
            assert claimed.envelope["attempts"] == attempt - 1
            assert process_claimed_job(queue, claimed, "w1") is False
            assert queue.pending_path(bad_fp).exists()
            assert not queue.poison_path(bad_fp).exists()
        assert queue.retried == DEFAULT_MAX_ATTEMPTS - 1

        # The final attempt exhausts the budget and escalates.
        claimed = queue.claim("w1")
        assert process_claimed_job(queue, claimed, "w1") is False
        assert queue.poison_path(bad_fp).exists()
        assert not queue.pending_path(bad_fp).exists()
        assert queue.done_marker(bad_fp) is None
        assert queue.is_idle()
        assert queue.poisoned == 1

        # The record explains why, who and when.
        record = queue.poison_record(bad_fp)
        assert "no-such-technique" in record["poison_reason"]
        assert record["worker"] == "w1"
        assert record["attempts"] == DEFAULT_MAX_ATTEMPTS
        assert record["poisoned_at"] > 0
        status = queue.status()
        assert status["poisoned"] == 1
        [entry] = status["poison"]
        assert entry["fingerprint"] == bad_fp
        assert "no-such-technique" in entry["reason"]
        assert entry["worker"] == "w1"

        # The driver's wait loop surfaces the recorded reason.
        runner = ParallelSuiteRunner(
            TINY_CONFIG, workers=1, cache_dir=str(tmp_path), backend="queue"
        )
        with pytest.raises(RuntimeError, match="no-such-technique"):
            runner._await_markers(queue, [bad_fp])

        # Re-enqueueing consumes the poison record and starts afresh.
        again = queue.enqueue(_job(technique="no-such-technique"))
        assert again == bad_fp
        assert queue.pending_path(bad_fp).exists()
        assert not queue.poison_path(bad_fp).exists()


class TestQueueBackendSmoke:
    """Tier-1 smoke: a tiny grid through ``backend="queue"`` with two
    in-tree worker subprocesses is bit-identical to ``backend="local"``,
    with exact folded trace-cache counters."""

    def test_two_worker_grid_matches_local_backend(self, tmp_path):
        local = ParallelSuiteRunner(TINY_CONFIG, workers=1)
        local.run_suite(techniques=TINY_TECHNIQUES)

        queue_runner = ParallelSuiteRunner(
            TINY_CONFIG,
            workers=1,
            cache_dir=str(tmp_path),
            backend="queue",
            queue_workers=2,
            queue_assist=False,  # the workers must do all the work
            queue_poll=0.1,
            queue_ttl=30,
            queue_timeout=300,
        )
        queue_runner.run_suite(techniques=TINY_TECHNIQUES)
        assert queue_runner.simulations_run == len(TINY_CONFIG.benchmarks) * len(
            TINY_TECHNIQUES
        )
        for benchmark in TINY_CONFIG.benchmarks:
            for technique in TINY_TECHNIQUES:
                assert dataclasses.asdict(
                    queue_runner.result(benchmark, technique).stats
                ) == dataclasses.asdict(local.result(benchmark, technique).stats), (
                    benchmark,
                    technique,
                )
        # Worker trace-cache traffic was folded back through the
        # completion markers: each worker process missed and stored each
        # benchmark it met first, none of which happened in this process.
        cache = queue_runner.trace_cache
        assert cache.misses >= len(TINY_CONFIG.benchmarks)
        assert cache.stores >= len(TINY_CONFIG.benchmarks)
        # The queue drained completely.
        queue = WorkQueue(tmp_path, ttl=30)
        assert queue.is_idle()

    def test_warm_cache_skips_the_queue_entirely(self, tmp_path):
        runner = ParallelSuiteRunner(
            TINY_CONFIG,
            workers=1,
            cache_dir=str(tmp_path),
            backend="queue",
            queue_ttl=30,
        )
        runner.run_suite(techniques=TINY_TECHNIQUES)
        warm = ParallelSuiteRunner(
            TINY_CONFIG,
            workers=1,
            cache_dir=str(tmp_path),
            backend="queue",
            queue_ttl=30,
        )
        warm.run_suite(techniques=TINY_TECHNIQUES)
        assert warm.simulations_run == 0
        assert warm.cache.hits == len(TINY_CONFIG.benchmarks) * len(TINY_TECHNIQUES)

    def test_stalled_queue_times_out(self, tmp_path):
        """No workers, no assist, nothing heartbeating: the driver's
        inactivity timeout must fire instead of waiting forever."""
        runner = ParallelSuiteRunner(
            TINY_CONFIG,
            workers=1,
            cache_dir=str(tmp_path),
            backend="queue",
            queue_assist=False,
            queue_poll=0.05,
            queue_timeout=0.5,
        )
        with pytest.raises(TimeoutError):
            runner.run_suite(techniques=("baseline",), benchmarks=("gzip",))

    def test_queue_backend_requires_cache_dir(self):
        with pytest.raises(ValueError):
            ParallelSuiteRunner(TINY_CONFIG, backend="queue")

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError):
            ParallelSuiteRunner(TINY_CONFIG, backend="carrier-pigeon")


class TestWorkerLoop:
    def test_drain_worker_serves_and_exits(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        for technique in TINY_TECHNIQUES:
            queue.enqueue(_job(technique=technique))
        worker = QueueWorker(
            queue, worker_id="w1", poll_interval=0.05, drain=True, drain_grace=0.1
        )
        executed = worker.run()
        assert executed == len(TINY_TECHNIQUES)
        assert queue.is_idle()
        for technique in TINY_TECHNIQUES:
            marker = queue.done_marker(_job(technique=technique).fingerprint())
            assert marker is not None and marker["payload"]["stats"]["cycles"] > 0
        # Results were published through the shared ResultCache too.
        from repro.harness.cache import ResultCache

        cache = ResultCache(tmp_path)
        for technique in TINY_TECHNIQUES:
            assert cache.load(_job(technique=technique).fingerprint()) is not None

    def test_max_jobs_bounds_the_loop(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        for technique in TINY_TECHNIQUES:
            queue.enqueue(_job(technique=technique))
        worker = QueueWorker(queue, poll_interval=0.05, max_jobs=1)
        assert worker.run() == 1
        assert queue.status()["pending"] == 1


class TestBatchedClaims:
    """One pending-directory listing backs up to k atomic renames."""

    def _enqueue_grid(self, queue, count=5):
        jobs = [
            _job(config=dataclasses.replace(TINY_CONFIG, max_instructions=1_000 + index))
            for index in range(count)
        ]
        return [queue.enqueue(job) for job in jobs]

    def test_claim_batch_leases_up_to_the_limit(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        self._enqueue_grid(queue, count=5)
        claims = queue.claim_batch("w1", limit=3)
        assert len(claims) == 3
        assert queue.status()["pending"] == 2
        assert queue.status()["leased"] == 3
        for claimed in claims:
            assert claimed.lease_path.exists()
        # The remainder drains with one more listing; over-asking is fine.
        rest = queue.claim_batch("w1", limit=10)
        assert len(rest) == 2
        assert queue.claim_batch("w1", limit=10) == []

    def test_status_reports_claim_batch_stats(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        self._enqueue_grid(queue, count=4)
        queue.claim_batch("w1", limit=4)
        claims = queue.status()["claims_this_process"]
        assert claims["claimed"] == 4
        assert claims["claim_batches"] == 1
        assert claims["mean_batch_size"] == 4.0

    def test_single_claim_is_a_batch_of_one(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        self._enqueue_grid(queue, count=2)
        assert queue.claim("w1") is not None
        claims = queue.status()["claims_this_process"]
        assert claims == {
            "claimed": 1,
            "claim_batches": 1,
            "mean_batch_size": 1.0,
        }

    def test_claim_batch_rejects_a_nonpositive_limit(self, tmp_path):
        with pytest.raises(ValueError):
            WorkQueue(tmp_path, ttl=30).claim_batch("w1", limit=0)

    def test_batch_heartbeats_every_held_lease(self, tmp_path, monkeypatch):
        """While job 1 of a batch runs past the TTL, the leases of the
        jobs queued behind it must keep heartbeating — otherwise a
        sweeper re-leases them and the batch's round-trip saving turns
        into duplicated work."""
        import threading

        from repro.harness import queue as queue_module

        ttl = 0.6
        queue = WorkQueue(tmp_path, ttl=ttl)
        self._enqueue_grid(queue, count=2)
        claims = queue.claim_batch("w1", limit=2)
        assert len(claims) == 2

        def _slow_job(claimed):
            time.sleep(ttl * 1.5)  # longer than the TTL; beats are TTL/4
            return {"stats": {"cycles": 1}}

        monkeypatch.setattr(queue_module, "execute_queue_job", _slow_job)
        worker = threading.Thread(
            target=queue_module.process_claimed_jobs,
            args=(queue, claims, "w1"),
        )
        worker.start()
        try:
            swept = []
            while worker.is_alive():
                swept.extend(queue.requeue_expired())
                time.sleep(0.05)
        finally:
            worker.join()
        assert swept == []  # heartbeats kept every held lease fresh
        for claimed in claims:
            marker = queue.done_marker(claimed.fingerprint)
            assert marker is not None and "error" not in marker


class TestIdleGcSweeps:
    """Idle workers double as cache janitors on a jittered period."""

    def _plant_garbage(self, queue) -> tuple:
        """An orphaned temp file and an expired completion marker."""
        from repro.atomicio import TMP_PREFIX
        from repro.harness.cache import (
            DEFAULT_DONE_MARKER_MAX_AGE_SECONDS,
            DEFAULT_TMP_MAX_AGE_SECONDS,
        )

        orphan = queue.cache_dir / (TMP_PREFIX + "dead-writer")
        orphan.write_text("{}")
        stale = time.time() - DEFAULT_TMP_MAX_AGE_SECONDS - 60
        os.utime(orphan, (stale, stale))
        marker = queue.done_dir / ("b" * 64 + ".json")
        marker.write_text("{}")
        expired = time.time() - DEFAULT_DONE_MARKER_MAX_AGE_SECONDS - 60
        os.utime(marker, (expired, expired))
        return orphan, marker

    def test_idle_worker_sweeps_on_the_jittered_interval(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        orphan, marker = self._plant_garbage(queue)
        worker = QueueWorker(
            queue,
            worker_id="janitor",
            poll_interval=0.01,
            drain=True,
            drain_grace=0.3,
            gc_interval=0.02,
        )
        assert worker.run() == 0  # empty queue: pure idle
        assert worker.gc_sweeps >= 1
        assert not orphan.exists()
        assert not marker.exists()

    def test_gc_disabled_leaves_garbage_alone(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        orphan, marker = self._plant_garbage(queue)
        worker = QueueWorker(
            queue,
            worker_id="lazy",
            poll_interval=0.01,
            drain=True,
            drain_grace=0.05,
            gc_interval=None,
        )
        worker.run()
        assert worker.gc_sweeps == 0
        assert orphan.exists() and marker.exists()

    def test_gc_never_touches_live_protocol_files(self, tmp_path):
        """A pending job must survive a sweep even when its file is old
        — it is live protocol state, not garbage."""
        queue = WorkQueue(tmp_path, ttl=30)
        fingerprint = queue.enqueue(_job())
        stale = time.time() - 14 * 24 * 3600
        os.utime(queue.pending_path(fingerprint), (stale, stale))
        worker = QueueWorker(
            queue,
            worker_id="janitor",
            poll_interval=0.01,
            max_jobs=0,
            gc_interval=0.0001,
        )
        worker._maybe_gc(time.time() + 1)
        assert worker.gc_sweeps == 1
        assert queue.pending_path(fingerprint).exists()


class TestWorkerStatsPublication:
    """Claim-batch stats must be observable from *other* processes."""

    def test_worker_publishes_counters_into_the_queue_directory(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        for index in range(2):
            queue.enqueue(
                _job(
                    config=dataclasses.replace(
                        TINY_CONFIG, max_instructions=1_000 + index
                    )
                )
            )
        worker = QueueWorker(
            queue,
            worker_id="stats-w1",
            poll_interval=0.01,
            drain=True,
            drain_grace=0.05,
            claim_batch=2,
        )
        assert worker.run() == 2
        stats_file = queue.workers_dir / "stats-w1.json"
        assert stats_file.exists()
        payload = json.loads(stats_file.read_text())
        assert payload["claimed"] == 2
        assert payload["claim_batches"] == 1
        assert payload["jobs_done"] == 2

        # A *fresh* WorkQueue (the --status CLI, another host) sees the
        # fleet totals even though its own in-process counters are zero.
        observer = WorkQueue(tmp_path, ttl=30)
        status = observer.status()
        assert status["claims_this_process"]["claimed"] == 0
        assert status["workers"]["workers"] == 1
        assert status["workers"]["claimed"] == 2
        assert status["workers"]["claim_batches"] == 1
        assert status["workers"]["mean_batch_size"] == 2.0

    def test_malformed_worker_stats_are_skipped(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        (queue.workers_dir / "broken.json").write_text("{not json")
        (queue.workers_dir / "foreign.json").write_text('{"format": 99}')
        assert queue.worker_stats()["workers"] == 0

    def test_stale_worker_stats_expire_via_gc(self, tmp_path):
        from repro.harness.cache import (
            DEFAULT_DONE_MARKER_MAX_AGE_SECONDS,
            gc_cache_tree,
        )

        queue = WorkQueue(tmp_path, ttl=30)
        dead = queue.workers_dir / "dead-host.json"
        dead.write_text('{"format": 1, "claimed": 5, "claim_batches": 2}')
        expired = time.time() - DEFAULT_DONE_MARKER_MAX_AGE_SECONDS - 60
        os.utime(dead, (expired, expired))
        live = queue.workers_dir / "live-host.json"
        live.write_text('{"format": 1, "claimed": 1, "claim_batches": 1}')
        gc_cache_tree(tmp_path)
        assert not dead.exists()
        assert live.exists()

    def test_worker_id_is_sanitised_into_a_safe_filename(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        worker = QueueWorker(queue, worker_id="../rack1/host 7", poll_interval=0.01)
        worker._publish_stats()
        [stats_file] = [
            p for p in queue.workers_dir.iterdir() if not p.name.startswith(".")
        ]
        assert stats_file.parent == queue.workers_dir
        # Path bytes rewritten, plus a digest so distinct raw ids that
        # sanitise alike cannot clobber one another's stats file.
        assert stats_file.name.startswith("-rack1-host-7-")
        assert stats_file.name.endswith(".json")
        # The payload still records the operator's original id verbatim.
        assert json.loads(stats_file.read_text())["worker"] == "../rack1/host 7"

    def test_distinct_ids_with_identical_sanitisations_do_not_collide(
        self, tmp_path
    ):
        queue = WorkQueue(tmp_path, ttl=30)
        QueueWorker(queue, worker_id="rack1/host7")._publish_stats()
        QueueWorker(queue, worker_id="rack1 host7")._publish_stats()
        files = [
            p for p in queue.workers_dir.iterdir() if not p.name.startswith(".")
        ]
        assert len(files) == 2
        assert queue.worker_stats()["workers"] == 2


class TestHostStats:
    """Per-host aggregation of the fleet's published worker counters."""

    def test_publication_carries_the_host_tag(self, tmp_path):
        import socket as socket_module

        queue = WorkQueue(tmp_path, ttl=30)
        QueueWorker(queue, worker_id="w1", poll_interval=0.01)._publish_stats()
        [stats_file] = [
            p for p in queue.workers_dir.iterdir() if not p.name.startswith(".")
        ]
        payload = json.loads(stats_file.read_text())
        assert payload["host"] == socket_module.gethostname()

    def test_worker_stats_aggregates_per_host(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        for host, claimed, done in (
            ("alpha", 3, 2),
            ("alpha", 1, 1),
            ("beta", 5, 5),
        ):
            name = f"{host}-{claimed}.json"
            (queue.workers_dir / name).write_text(
                json.dumps(
                    {
                        "format": 1,
                        "worker": name,
                        "host": host,
                        "claimed": claimed,
                        "claim_batches": 1,
                        "jobs_done": done,
                        "jobs_failed": 0,
                        "gc_sweeps": 0,
                    }
                )
            )
        stats = queue.worker_stats()
        assert stats["workers"] == 3
        assert stats["claimed"] == 9
        assert stats["hosts"]["alpha"] == {
            "workers": 2,
            "claimed": 4,
            "jobs_done": 3,
            "jobs_failed": 0,
            "gc_sweeps": 0,
        }
        assert stats["hosts"]["beta"]["workers"] == 1
        # Pre-host-tag files aggregate under the unknown-host bucket.
        (queue.workers_dir / "legacy.json").write_text(
            '{"format": 1, "claimed": 2, "claim_batches": 1}'
        )
        assert queue.worker_stats()["hosts"][""]["claimed"] == 2


class TestWaitForMarkers:
    """The runner's marker wait, :func:`wait_for_markers`."""

    # The stall timeout turns a wait that never resolves into a failure
    # instead of a hung test.
    KNOBS = dict(
        poll_floor=0.01, poll_ceiling=0.05, assist=False, stall_timeout=30.0
    )

    def _complete(self, queue):
        claimed = queue.claim("w1")
        assert claimed is not None
        queue.complete(claimed, {"stats": {"cycles": 1}}, "w1")

    def test_returns_existing_markers(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        fingerprint = queue.enqueue(_job())
        self._complete(queue)
        markers = wait_for_markers(queue, [fingerprint], **self.KNOBS)
        assert markers[fingerprint]["payload"] == {"stats": {"cycles": 1}}

    def test_assist_executes_the_job_itself(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        fingerprint = queue.enqueue(_job())
        markers = wait_for_markers(
            queue, [fingerprint], **{**self.KNOBS, "assist": True}
        )
        assert "stats" in markers[fingerprint]["payload"]
        assert markers[fingerprint]["worker"].startswith("driver-")

    def test_poisoned_job_raises_with_the_recorded_reason(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        fingerprint = queue.enqueue(_job(max_attempts=1))
        claimed = queue.claim("w1")
        assert not queue.fail(claimed, "synthetic failure", "w1")
        with pytest.raises(RuntimeError, match="synthetic failure"):
            wait_for_markers(queue, [fingerprint], **self.KNOBS)

    def test_stall_timeout_bounds_inactivity(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        fingerprint = queue.enqueue(_job())
        # Nobody serves the queue and assist is off: only the stall
        # clock can end this wait.
        with pytest.raises(TimeoutError, match="stalled"):
            wait_for_markers(
                queue, [fingerprint], **{**self.KNOBS, "stall_timeout": 0.2}
            )

    def _record_waits(self, monkeypatch, queue, complete_after):
        """Record every ``faults.sleep`` wait; complete a job after the
        waits numbered in ``complete_after`` (nobody else serves the queue)."""
        waits = []

        def record(seconds):
            waits.append(seconds)
            if len(waits) in complete_after:
                self._complete(queue)

        monkeypatch.setattr(faults, "sleep", record)
        return waits

    def test_idle_waits_double_from_floor_to_ceiling(
        self, tmp_path, monkeypatch
    ):
        queue = WorkQueue(tmp_path, ttl=30)
        fingerprint = queue.enqueue(_job())
        waits = self._record_waits(monkeypatch, queue, (6,))
        markers = wait_for_markers(
            queue, [fingerprint], **{**self.KNOBS, "poll_ceiling": 0.08}
        )
        assert set(markers) == {fingerprint}
        assert waits == pytest.approx([0.01, 0.02, 0.04, 0.08, 0.08, 0.08])

    def test_a_landing_marker_resets_the_wait_to_the_floor(
        self, tmp_path, monkeypatch
    ):
        queue = WorkQueue(tmp_path, ttl=30)
        first = queue.enqueue(_job())
        second = queue.enqueue(_job(technique="noop"))
        waits = self._record_waits(monkeypatch, queue, (6, 12))
        markers = wait_for_markers(
            queue, [first, second], **{**self.KNOBS, "poll_ceiling": 0.08}
        )
        assert set(markers) == {first, second}
        idle = [0.01, 0.02, 0.04, 0.08, 0.08, 0.08]
        assert waits == pytest.approx(idle + idle)
