"""Work-queue protocol, crash recovery and backend-equivalence tests.

The contract (see :mod:`repro.harness.queue`): jobs are leased at most
once at a time via atomic renames, a lease whose heartbeat lapses is
re-leased exactly once, duplicate completions are idempotent
(last-writer-wins on identical payloads), and a grid run through
``backend="queue"`` with real worker subprocesses over a shared cache
directory is bit-identical to the local backend.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import pickle
import threading
import time

import pytest

from repro.harness import ParallelSuiteRunner, RunConfig, SimulationJob, faults
from repro.harness import queue as queue_module
from repro.harness.cache import ResultCache, gc_cache_tree
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


@pytest.fixture()
def short_drain(monkeypatch):
    """Let ``--drain`` workers exit 0.05 s after the queue goes idle."""
    monkeypatch.setattr(queue_module, "DRAIN_GRACE", 0.05)


def _without(field):
    def damage(envelope):
        del envelope[field]
        return envelope

    return damage


def _with(field, value):
    def damage(envelope):
        envelope[field] = value
        return envelope

    return damage


#: Ways a pending envelope can be one the decoder must refuse, each a
#: function from the envelope ``enqueue`` wrote to the damaged JSON value.
ENVELOPE_DAMAGE = {
    "no-format": _without("format"),
    "format-2": _with("format", 2),
    "no-kind": _without("kind"),
    "no-job": _without("job"),
    "job-not-base64": _with("job", "%%%"),
    "job-not-a-pickle": _with(
        "job", base64.b64encode(b"not a pickle").decode("ascii")
    ),
    "not-an-object": lambda envelope: [envelope],
}


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

    @pytest.mark.parametrize("kind", ("shard", "Simulation", None))
    def test_envelope_of_another_kind_is_poisoned_not_executed(
        self, tmp_path, monkeypatch, kind
    ):
        """Simulation is the only job kind: a pending envelope of any
        other kind (the first is one an older driver wrote) is set aside
        with a reason naming the kind, even when its pickled job
        decodes."""
        executed = []
        monkeypatch.setattr(
            queue_module, "run_simulation_job", lambda job: executed.append(job)
        )
        queue = WorkQueue(tmp_path, ttl=30)
        job = _job()
        fingerprint = job.fingerprint()
        queue.pending_path(fingerprint).write_text(
            json.dumps(
                {
                    "format": 1,
                    "kind": kind,
                    "fingerprint": fingerprint,
                    "benchmark": job.benchmark,
                    "technique": job.technique,
                    "attempts": 0,
                    "max_attempts": 3,
                    "job": base64.b64encode(pickle.dumps(job)).decode("ascii"),
                }
            )
        )
        assert queue.claim("w1") is None
        assert executed == []
        assert queue.done_marker(fingerprint) is None
        assert ResultCache(tmp_path).load(fingerprint) is None
        status = queue.status()
        assert (status["pending"], status["leased"], status["poisoned"]) == (0, 0, 1)
        [poison] = status["poison"]
        assert poison["fingerprint"] == fingerprint
        assert repr(kind) in poison["reason"]

    def test_enqueued_envelope_is_a_format_1_simulation(self, tmp_path):
        """The wire format workers on other hosts decode: one JSON
        object, ``format`` 1, ``kind`` "simulation", and the job itself
        pickled under ``job``."""
        queue = WorkQueue(tmp_path, ttl=30)
        job = _job(technique="noop")
        fingerprint = queue.enqueue(job)
        envelope = json.loads(queue.pending_path(fingerprint).read_text())
        assert envelope["format"] == 1
        assert envelope["kind"] == "simulation"
        assert envelope["fingerprint"] == fingerprint
        assert (envelope["benchmark"], envelope["technique"]) == ("gzip", "noop")
        assert (envelope["attempts"], envelope["max_attempts"]) == (
            0,
            DEFAULT_MAX_ATTEMPTS,
        )
        decoded = pickle.loads(base64.b64decode(envelope["job"]))
        assert decoded.fingerprint() == fingerprint

    @pytest.mark.parametrize("damage", sorted(ENVELOPE_DAMAGE))
    def test_undecodable_envelope_is_poisoned_not_executed(
        self, tmp_path, monkeypatch, short_drain, damage
    ):
        """A worker that meets an envelope it cannot decode sets it aside
        with the decode error and keeps serving: it neither crashes nor
        runs a job it could not vouch for."""
        executed = []
        monkeypatch.setattr(
            queue_module, "run_simulation_job", lambda job: executed.append(job)
        )
        queue = WorkQueue(tmp_path, ttl=30)
        fingerprint = queue.enqueue(_job())
        pending = queue.pending_path(fingerprint)
        envelope = json.loads(pending.read_text())
        pending.write_text(json.dumps(ENVELOPE_DAMAGE[damage](envelope)))

        worker = QueueWorker(queue, worker_id="w1", poll_interval=0.01, drain=True)
        assert worker.run() == 0
        assert executed == []
        assert queue.done_marker(fingerprint) is None
        status = queue.status()
        assert (status["pending"], status["leased"], status["poisoned"]) == (0, 0, 1)
        [poison] = status["poison"]
        assert poison["fingerprint"] == fingerprint
        assert poison["reason"].startswith("undecodable envelope")

    def test_status_counts_this_process_claims(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        queue.enqueue(_job())
        queue.enqueue(_job(technique="noop"))
        assert queue.claim("w1") is not None
        assert queue.status()["claims_this_process"] == {"claimed": 1}

    @pytest.mark.parametrize("state", ("pending", "leased"))
    def test_gc_never_touches_live_protocol_files(self, tmp_path, state):
        """A pending job or a held lease must survive a sweep even when
        its file is old — it is live protocol state, not garbage; only
        the TTL sweep may take a lease back."""
        queue = WorkQueue(tmp_path, ttl=30)
        path = queue.pending_path(queue.enqueue(_job()))
        if state == "leased":
            path = queue.claim("w1").lease_path
        stale = time.time() - 14 * 24 * 3600
        os.utime(path, (stale, stale))
        gc_cache_tree(tmp_path)
        assert path.exists()

    @pytest.mark.parametrize(
        "content",
        ("{truncated", "[1, 2]", '{"format": 2, "payload": {}}'),
        ids=("truncated", "list", "format-2"),
    )
    def test_torn_or_foreign_done_marker_is_not_a_completion(
        self, tmp_path, content
    ):
        queue = WorkQueue(tmp_path, ttl=30)
        fingerprint = _job().fingerprint()
        queue.done_path(fingerprint).write_text(content)
        assert queue.done_marker(fingerprint) is None
        assert queue.enqueue(_job()) == fingerprint
        assert queue.pending_path(fingerprint).exists()

    @pytest.mark.parametrize(
        "content",
        ("{truncated", "[1, 2]", '{"format": 1}'),
        ids=("truncated", "list", "no-reason"),
    )
    def test_poison_file_without_a_record_reads_as_unrecorded(
        self, tmp_path, content
    ):
        """A poison file moved verbatim (its record never published)
        still explains itself in ``--status``, as "unrecorded"."""
        queue = WorkQueue(tmp_path, ttl=30)
        fingerprint = "e" * 64
        queue.poison_path(fingerprint).write_text(content)
        assert queue.poison_record(fingerprint) == {
            "fingerprint": fingerprint,
            "poison_reason": "unrecorded",
        }
        [poison] = queue.status()["poison"]
        assert (poison["fingerprint"], poison["reason"]) == (fingerprint, "unrecorded")

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
    def test_drain_worker_serves_and_exits(self, tmp_path, short_drain):
        queue = WorkQueue(tmp_path, ttl=30)
        for technique in TINY_TECHNIQUES:
            queue.enqueue(_job(technique=technique))
        worker = QueueWorker(queue, worker_id="w1", poll_interval=0.05, drain=True)
        executed = worker.run()
        assert executed == len(TINY_TECHNIQUES)
        assert queue.is_idle()
        for technique in TINY_TECHNIQUES:
            marker = queue.done_marker(_job(technique=technique).fingerprint())
            assert marker is not None and marker["payload"]["stats"]["cycles"] > 0
        # Results were published through the shared ResultCache too.
        cache = ResultCache(tmp_path)
        for technique in TINY_TECHNIQUES:
            assert cache.load(_job(technique=technique).fingerprint()) is not None

    def test_a_job_running_past_the_ttl_keeps_its_lease(self, tmp_path, monkeypatch):
        """While a claimed job runs longer than the TTL, its lease must
        keep heartbeating — otherwise a sweeper re-leases it and another
        worker runs it again."""
        ttl = 0.6
        queue = WorkQueue(tmp_path, ttl=ttl)
        queue.enqueue(_job())
        claimed = queue.claim("w1")
        assert claimed is not None

        def _slow_job(claimed):
            time.sleep(ttl * 1.5)  # longer than the TTL; beats are TTL/4
            return {"stats": {"cycles": 1}}

        monkeypatch.setattr(queue_module, "execute_queue_job", _slow_job)
        worker = threading.Thread(
            target=process_claimed_job, args=(queue, claimed, "w1")
        )
        worker.start()
        try:
            swept = []
            while worker.is_alive():
                swept.extend(queue.requeue_expired())
                time.sleep(0.05)
        finally:
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert swept == []  # the heartbeat kept the lease fresh
        marker = queue.done_marker(claimed.fingerprint)
        assert marker is not None and "error" not in marker


class TestWorkerCli:
    """``python -m repro.harness.queue``: the worker and ``--status``."""

    def test_status_prints_the_queue_report(self, tmp_path, capsys):
        queue = WorkQueue(tmp_path, ttl=30)
        queue.enqueue(_job())
        assert queue_module.main([str(tmp_path), "--status"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert (status["pending"], status["leased"], status["poisoned"]) == (1, 0, 0)
        assert status["workers"]["workers"] == 0
        assert queue.status()["pending"] == 1  # reporting claims nothing

    def test_drain_worker_serves_the_queue_and_exits(
        self, tmp_path, capsys, short_drain
    ):
        queue = WorkQueue(tmp_path, ttl=30)
        for technique in TINY_TECHNIQUES:
            queue.enqueue(_job(technique=technique))
        assert queue_module.main([str(tmp_path), "--poll", "0.01", "--drain"]) == 0
        assert capsys.readouterr().out.rstrip().endswith(
            f"{len(TINY_TECHNIQUES)} job(s) executed, 0 failed, "
            f"{len(TINY_TECHNIQUES)} claim(s)"
        )
        assert queue.is_idle()
        assert queue.worker_stats()["jobs_done"] == len(TINY_TECHNIQUES)


class TestWorkerStatsPublication:
    """Worker claim/job stats must be observable from *other* processes."""

    def test_worker_publishes_counters_into_the_queue_directory(
        self, tmp_path, short_drain
    ):
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
            queue, worker_id="stats-w1", poll_interval=0.01, drain=True
        )
        assert worker.run() == 2
        stats_file = queue.workers_dir / "stats-w1.json"
        assert stats_file.exists()
        payload = json.loads(stats_file.read_text())
        assert payload["claimed"] == 2
        assert payload["jobs_done"] == 2

        # A *fresh* WorkQueue (the --status CLI, another host) sees the
        # fleet totals even though its own in-process counters are zero.
        observer = WorkQueue(tmp_path, ttl=30)
        status = observer.status()
        assert status["claims_this_process"]["claimed"] == 0
        assert status["workers"]["workers"] == 1
        assert status["workers"]["claimed"] == 2
        assert status["workers"]["jobs_done"] == 2

    def test_malformed_worker_stats_are_skipped(self, tmp_path):
        queue = WorkQueue(tmp_path, ttl=30)
        (queue.workers_dir / "broken.json").write_text("{not json")
        (queue.workers_dir / "foreign.json").write_text('{"format": 99}')
        assert queue.worker_stats()["workers"] == 0

    @pytest.mark.parametrize(
        "payload",
        ("[1, 2]", '"text"', "3", "null", "true"),
        ids=("list", "string", "number", "null", "bool"),
    )
    def test_worker_stats_that_are_not_objects_are_skipped(self, tmp_path, payload):
        """Valid JSON that is not an object is as foreign as broken JSON:
        skipped, and ``--status`` still reports the rest of the fleet."""
        queue = WorkQueue(tmp_path, ttl=30)
        (queue.workers_dir / "odd.json").write_text(payload)
        (queue.workers_dir / "good.json").write_text('{"format": 1, "claimed": 2}')
        stats = queue.worker_stats()
        assert (stats["workers"], stats["claimed"]) == (1, 2)
        assert queue.status()["workers"] == stats

    def test_stale_worker_stats_expire_via_gc(self, tmp_path):
        from repro.harness.cache import DEFAULT_DONE_MARKER_MAX_AGE_SECONDS

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
        # The files carry the claim-batch and gc keys older workers
        # published; aggregation ignores them.
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
