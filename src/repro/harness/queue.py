"""Distributed work-queue execution over a shared cache directory.

The parallel experiment engine's process pool stops at one host.  This
module removes that ceiling with the smallest possible coordination
substrate: a **file-backed work queue** living inside the shared cache
directory itself, so any number of worker processes — on one machine or
many, over NFS — cooperate through nothing but the filesystem they
already share for results and traces (the cluster-of-commodity-hosts
model of Baker et al.'s cluster-computing white paper).

Queue file protocol
-------------------

All queue state lives under ``<cache_dir>/queue/``::

    queue/
      pending/<fingerprint>.json   jobs waiting for a worker
      leases/<fingerprint>.json    jobs being executed (mtime = heartbeat)
      done/<fingerprint>.json      completion markers (stats + counter deltas)
      poison/<fingerprint>.json    jobs set aside with a recorded reason:
                                   undecodable envelopes, or jobs that
                                   exhausted their retry budget
      workers/<worker_id>.json     per-worker claim-batch/gc counters,
                                   republished after every batch so
                                   ``--status`` sees the whole fleet

* **Envelope** — every job file is a one-object JSON envelope:
  ``{"format": 1, "kind": "simulation"|"shard", "fingerprint": ...,
  "benchmark": ..., "technique": ..., "attempts": 0, "max_attempts": 3,
  "job": <base64 pickle>}``.  The human-readable fields make the queue
  greppable; the pickled job is the exact
  :class:`~repro.harness.parallel.SimulationJob` /
  :class:`~repro.harness.shard.ShardJob` the process pool already
  ships between processes.  ``attempts`` counts execution failures so
  far; ``max_attempts`` is the job's retry budget (jobs may carry their
  own ``max_attempts`` attribute, else :data:`DEFAULT_MAX_ATTEMPTS`).
  Two transport-only stamps ride the envelope: they never enter the
  fingerprint, and file names stay pure fingerprints.  They are
  ``enqueued_at`` (wall-clock publish time, which completion combines
  with the lease stamp into the enqueue→claim / claim→done latencies
  ``--status`` reports) and, when the producer runs with
  ``REPRO_TELEMETRY=1``, ``trace`` — the request id that links the
  producer's spans to the claiming worker's (see
  :mod:`repro.telemetry.spans` and docs/observability.md).  Decoders
  ignore keys they do not use, such as the ``priority`` band older
  envelopes carry.
* **Enqueue** — write the envelope to a ``.tmp-*`` file and
  ``os.replace`` it into ``pending/`` (the same atomicity discipline as
  ``ResultCache.store``).  Enqueueing is idempotent: a fingerprint that
  is already pending, leased or done is left alone.
* **Lease** — a worker claims a job with ``os.rename(pending/f,
  leases/f)``.  Rename is atomic; when several workers race for one
  file, exactly one rename succeeds and the losers see
  ``FileNotFoundError`` and move on.  The winner rewrites the lease with
  its worker id (atomic replace) and then **heartbeats** it by touching
  the file's mtime while the simulation runs.  Claims are **batched**:
  one pending-directory listing (the expensive metadata operation on
  NFS) backs up to ``--claim-batch`` renames, and the whole batch
  heartbeats while its jobs execute sequentially (default 1 —
  worthwhile only when pending jobs vastly outnumber workers).
* **Crash recovery** — anyone (other workers, the runner) may call
  :meth:`WorkQueue.requeue_expired`: a lease whose mtime is older than
  the TTL is pushed back with ``os.rename(leases/f, pending/f)`` —
  again, exactly one reclaimer wins.  If the dead worker's job already
  has a completion marker the lease is simply dropped.
* **Complete** — the worker publishes the result through the existing
  content-addressed caches (``ResultCache.store`` for grid cells; trace
  stores happened during the run), then atomically writes
  ``done/<fingerprint>.json`` carrying the full job payload — the
  statistics and the worker's trace-cache counter deltas — and unlinks
  its lease.  Completions are **idempotent**: a job executed twice
  (a worker presumed dead that was merely slow) produces byte-identical
  payloads for the same fingerprint, and ``os.replace`` makes the last
  writer win without ever exposing a torn file.
* **Failures** — a job whose execution *raises* (as opposed to a worker
  dying) is **retried**: the worker increments the envelope's
  ``attempts`` counter and pushes the job back to ``pending/``.  A job
  that exhausts its ``max_attempts`` budget escalates to ``poison/``
  with a full record — the exception traceback, a timestamp, the
  claiming worker id and the attempt count — so ``--status`` can
  explain *why* instead of the driver wedging.  An envelope that cannot
  be decoded is poisoned immediately with the decode error recorded the
  same way.  A fresh enqueue of the job consumes the poison record and
  queues the job afresh.
* **Await** — the runner blocks in :func:`wait_for_markers`: one
  ``done/`` and one ``poison/`` listing per scan however many jobs are
  outstanding, the youngest lease age as the fleet's heartbeat, and an
  adaptive wait between scans.  A poisoned job fails the wait at once
  with its recorded reason.

Counter exactness: each marker carries the executing worker's
trace-cache hit/miss/store/eviction deltas for that job, and the runner
folds exactly one marker per job into its own cache — ``--cache-stats``
stays exact for any number of workers on any number of hosts.

Run a worker with::

    PYTHONPATH=src python -m repro.harness.queue <cache_dir> \\
        [--ttl 60] [--poll 0.2] [--max-jobs N] [--drain] [--status] \\
        [--claim-batch K] [--gc-interval 900]

``--drain`` exits once the queue has stayed empty for a grace period;
the default is to serve forever (a daemon on each grid host).  Idle
workers double as cache janitors: every ``--gc-interval`` seconds
(jittered per worker so a fleet sharing one NFS directory doesn't sweep
in lockstep) an idle worker runs the offline ``cache gc`` sweep —
orphaned temp files and expired completion markers — between polls.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import pickle
import random
import re
import socket
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.atomicio import publish_atomically
from repro.harness import faults
from repro.harness.cache import ResultCache, stats_from_dict
from repro.harness.faults import (
    BEST_EFFORT_RETRY_POLICY,
    DEFAULT_RETRY_POLICY,
)
from repro.harness.parallel import SimulationJob, execute_job
from repro.telemetry import spans as tracing
from repro.telemetry.metrics import MetricsRegistry, counter_property
from repro.uarch.engine import resolve_engine_name

#: Bump when the envelope/marker layout changes; foreign-format files
#: are poisoned (envelopes) or ignored (markers), never trusted.
QUEUE_FORMAT_VERSION = 1

#: Retry budget for jobs whose envelope (or job object) doesn't carry
#: its own ``max_attempts``: total executions allowed before a failing
#: job escalates to ``poison/`` with its last traceback recorded.
DEFAULT_MAX_ATTEMPTS = 3


def _default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-{random.randrange(16**4):04x}"


def _protocol_names(directory: Path) -> list[str]:
    """Live protocol-file names in ``directory``, from one listing.

    The queue has exactly one naming convention — ``*.json`` entries,
    dot-prefixed names being in-flight temp files — and every scan
    (claims, sweeps, status, idleness, fleet stats) must agree on it,
    so it lives in this single predicate.  A missing directory reads
    as empty.
    """
    try:
        names = [
            name
            for name in os.listdir(directory)
            if name.endswith(".json") and not name.startswith(".")
        ]
    except FileNotFoundError:
        return []
    # Chaos seam (no-op in production): a fault plan may hide entries
    # from individual listings, simulating NFS attribute-cache lag —
    # every caller of this predicate must tolerate stale listings.
    return faults.maybe_filter_names("queue.listing", directory.name, names)


def _atomic_write_json(directory: Path, path: Path, payload: dict) -> None:
    """Publish ``payload`` to ``path`` with the shared atomic discipline."""
    publish_atomically(
        path, lambda handle: json.dump(payload, handle, sort_keys=True)
    )


@dataclass
class ClaimedJob:
    """A leased job: the decoded work item plus its lease bookkeeping."""

    fingerprint: str
    kind: str
    job: object
    envelope: dict
    lease_path: Path


class WorkQueue:
    """File-backed job queue inside a shared cache directory.

    Attributes:
        cache_dir: the shared cache directory (results at the top level,
            ``traces/`` below it, ``queue/`` for this module's state).
        ttl: seconds without a heartbeat before a lease counts as dead.
        enqueued / claimed / completed / requeued / claim_batches: this
            process's traffic counters (for tests and status reports).
            Backed by the ``metrics`` registry
            (:class:`repro.telemetry.metrics.MetricsRegistry`) so one
            ``metrics.snapshot()`` renders them all; the attribute API
            is unchanged.
    """

    # This process's queue traffic, readable/writable as plain ints but
    # stored in the metrics registry (one snapshot() shape fleet-wide).
    enqueued = counter_property("enqueued")
    claimed = counter_property("claimed")
    completed = counter_property("completed")
    requeued = counter_property("requeued")
    retried = counter_property("retried")
    poisoned = counter_property("poisoned")
    claim_batches = counter_property("claim_batches")

    def __init__(self, cache_dir: str | os.PathLike, ttl: float = 60.0):
        if ttl <= 0:
            raise ValueError("ttl must be a positive number of seconds")
        self.cache_dir = Path(cache_dir)
        self.root = self.cache_dir / "queue"
        self.pending_dir = self.root / "pending"
        self.leases_dir = self.root / "leases"
        self.done_dir = self.root / "done"
        self.poison_dir = self.root / "poison"
        self.workers_dir = self.root / "workers"
        # Create the protocol directories once, up front: the rename
        # choreography (claim, requeue) assumes both endpoints exist,
        # and doing it here keeps mkdir out of the per-claim hot loop.
        for directory in (
            self.pending_dir,
            self.leases_dir,
            self.done_dir,
            self.poison_dir,
            self.workers_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        self.ttl = ttl
        # One registry for this process's queue traffic.  The named
        # counters pre-register so a snapshot taken before any traffic
        # still shows every series at zero.  ``retried``/``poisoned``
        # count failure-path traffic (jobs pushed back to pending after
        # a raised execution; jobs escalated to poison/); together with
        # ``claimed``, ``claim_batches`` (listings that yielded at
        # least one lease) gives the realised claim batch size.
        self.metrics = MetricsRegistry("queue")
        for name in (
            "enqueued",
            "claimed",
            "completed",
            "requeued",
            "retried",
            "poisoned",
            "claim_batches",
        ):
            self.metrics.counter(name)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def pending_path(self, fingerprint: str) -> Path:
        return self.pending_dir / f"{fingerprint}.json"

    def lease_path(self, fingerprint: str) -> Path:
        return self.leases_dir / f"{fingerprint}.json"

    def done_path(self, fingerprint: str) -> Path:
        return self.done_dir / f"{fingerprint}.json"

    def poison_path(self, fingerprint: str) -> Path:
        return self.poison_dir / f"{fingerprint}.json"

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def enqueue(self, job, kind: Optional[str] = None) -> str:
        """Publish ``job`` for any worker to claim; idempotent.

        ``job`` must expose ``fingerprint()`` and pickle cleanly (both
        :class:`SimulationJob` and :class:`~repro.harness.shard.ShardJob`
        do).  A fingerprint that is already pending, leased or
        successfully completed is left untouched, so re-running a driver
        against a half-served queue never duplicates work.  Failure
        residue is retryable, not terminal: an error marker or a poison
        record for the fingerprint is consumed here (deleted) and the
        job queued afresh with a fresh ``attempts`` counter — otherwise
        one bad spell (disk full, OOM, a since-fixed bug) would poison
        its fingerprint forever.
        """
        if kind is None:
            kind = "simulation" if isinstance(job, SimulationJob) else "shard"
        fingerprint = job.fingerprint()
        marker = self.done_marker(fingerprint)
        if marker is not None:
            if "error" not in marker:
                return fingerprint
            try:
                os.unlink(self.done_path(fingerprint))
            except OSError:  # pragma: no cover - concurrent retry
                pass
        if self.poison_path(fingerprint).exists():
            try:
                os.unlink(self.poison_path(fingerprint))
            except OSError:  # pragma: no cover - concurrent retry
                pass
        if (
            self.lease_path(fingerprint).exists()
            or self.pending_path(fingerprint).exists()
        ):
            return fingerprint
        max_attempts = getattr(job, "max_attempts", None) or DEFAULT_MAX_ATTEMPTS
        envelope = {
            "format": QUEUE_FORMAT_VERSION,
            "kind": kind,
            "fingerprint": fingerprint,
            "benchmark": getattr(job, "benchmark", ""),
            "technique": getattr(job, "technique", ""),
            "attempts": 0,
            "max_attempts": int(max_attempts),
            "enqueued_at": time.time(),
            "job": base64.b64encode(pickle.dumps(job)).decode("ascii"),
        }
        # Trace propagation (transport, not identity — fixed at first
        # enqueue and never part of the fingerprint): the producer's
        # active trace id rides the envelope so the claiming worker's
        # spans land under the same request id.
        trace = tracing.current_trace()
        if trace is not None:
            envelope["trace"] = trace
        with tracing.span(
            "queue.enqueue",
            fingerprint=fingerprint,
            benchmark=envelope["benchmark"],
            technique=envelope["technique"],
        ):
            DEFAULT_RETRY_POLICY.call(
                lambda: _atomic_write_json(
                    self.pending_dir, self.pending_path(fingerprint), envelope
                ),
                key=f"enqueue/{fingerprint}",
            )
        self.enqueued += 1
        return fingerprint

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def claim(self, worker_id: Optional[str] = None) -> Optional[ClaimedJob]:
        """Atomically lease one pending job; None when nothing is claimable."""
        claims = self.claim_batch(worker_id, limit=1)
        return claims[0] if claims else None

    def claim_batch(
        self, worker_id: Optional[str] = None, limit: int = 1
    ) -> list[ClaimedJob]:
        """Lease up to ``limit`` pending jobs from one directory listing.

        A large grid served over NFS pays one ``listdir`` (the expensive
        metadata operation) per claim attempt; batching amortises that
        single scan over up to ``limit`` atomic renames, cutting
        per-job filesystem round-trips by the batch size.  Candidates
        are shuffled, so a fleet of workers scanning the same directory
        mostly avoids colliding on one file; the rename makes any
        remaining collision safe (one winner per file).

        Callers executing a batch sequentially must keep every held
        lease heartbeating while earlier jobs run
        (:func:`process_claimed_jobs` does), or the later leases expire
        and get re-leased — harmless (completions are idempotent) but
        wasteful.
        """
        if limit < 1:
            raise ValueError("claim batch limit must be a positive integer")
        worker_id = worker_id or _default_worker_id()
        claims: list[ClaimedJob] = []
        names = _protocol_names(self.pending_dir)
        random.shuffle(names)
        for name in names:
            if len(claims) >= limit:
                break
            pending = self.pending_dir / name
            lease = self.leases_dir / name
            try:
                os.rename(pending, lease)
            except FileNotFoundError:
                continue  # another worker won the race
            except OSError:
                continue
            # Rename preserves the pending file's mtime, which may
            # already be TTL-stale for a job that queued a while; start
            # the heartbeat clock *now*, before decoding, so a sweeper
            # cannot reclaim the lease out from under the winner.
            try:
                os.utime(lease)
            except OSError:  # pragma: no cover - reclaimed in the gap
                continue
            with tracing.span("queue.claim", worker=worker_id) as claim_span:
                claimed = self._decode_lease(lease, worker_id)
                if claimed is not None:
                    # The trace id lives in the envelope just decoded;
                    # deliver it late so the claim span joins the
                    # producer's request trace.
                    claim_span.set(
                        trace=claimed.envelope.get("trace"),
                        fingerprint=claimed.fingerprint,
                    )
            if claimed is not None:
                self.claimed += 1
                claims.append(claimed)
        if claims:
            self.claim_batches += 1
        return claims

    def _decode_lease(self, lease: Path, worker_id: str) -> Optional[ClaimedJob]:
        """Decode a freshly won lease, poisoning undecodable envelopes."""
        try:
            envelope = json.loads(lease.read_text(encoding="utf-8"))
            if envelope.get("format") != QUEUE_FORMAT_VERSION:
                raise ValueError("foreign queue envelope format")
            fingerprint = envelope["fingerprint"]
            kind = envelope["kind"]
            if kind not in ("simulation", "shard"):
                raise ValueError(f"unknown queue job kind {kind!r}")
            job = pickle.loads(base64.b64decode(envelope["job"]))
        # Unpickling a foreign envelope can raise arbitrary types; any decode
        # failure must poison the file, never crash the worker and wedge the
        # queue.
        # repro: allow[exception-hygiene] unbounded unpickle surface
        except Exception as error:
            self._poison_lease(
                lease,
                reason=f"undecodable envelope: {error!r}",
                worker_id=worker_id,
            )
            return None
        # Stamp the winner's identity (observability) and refresh the
        # heartbeat; the utime right after the winning rename keeps the
        # lease fresh through this decode, so only an executing worker
        # that later stops heartbeating can lose it.  Best-effort with a
        # drop fallback: losing the stamp costs observability only — the
        # in-memory envelope still carries it for the marker.
        envelope["worker"] = worker_id
        envelope["leased_at"] = time.time()
        BEST_EFFORT_RETRY_POLICY.call(
            lambda: _atomic_write_json(self.leases_dir, lease, envelope),
            key=f"lease-stamp/{fingerprint}",
            on_exhausted="drop",
        )
        return ClaimedJob(
            fingerprint=fingerprint,
            kind=kind,
            job=job,
            envelope=envelope,
            lease_path=lease,
        )

    def _poison_lease(
        self,
        lease: Path,
        reason: str,
        worker_id: str,
        envelope: Optional[dict] = None,
    ) -> None:
        """Move a held lease to ``poison/`` with the reason recorded.

        The record keeps what it can of the original envelope (raw text
        when it never decoded) plus the why/who/when that lets
        ``--status`` explain the poisoning.  Publication is retried;
        when even that fails the lease is moved verbatim — an
        unexplained poison file still beats a wedged queue.
        """
        record = {
            "format": QUEUE_FORMAT_VERSION,
            "fingerprint": lease.name[: -len(".json")],
            "poison_reason": reason,
            "worker": worker_id,
            "poisoned_at": time.time(),
        }
        if envelope is not None:
            for field in ("kind", "benchmark", "technique", "attempts", "max_attempts"):
                if field in envelope:
                    record[field] = envelope[field]
        else:
            try:
                record["raw"] = lease.read_text(encoding="utf-8", errors="replace")
            except OSError:  # pragma: no cover - lease raced away
                pass
        try:
            DEFAULT_RETRY_POLICY.call(
                lambda: _atomic_write_json(
                    self.poison_dir, self.poison_dir / lease.name, record
                ),
                key=f"poison/{lease.name}",
            )
        except OSError:
            try:
                os.replace(lease, self.poison_dir / lease.name)
            except OSError:
                pass
            else:
                self.poisoned += 1
            return
        try:
            os.unlink(lease)
        except OSError:  # pragma: no cover - lease raced away
            pass
        self.poisoned += 1

    def heartbeat(self, claimed: ClaimedJob) -> bool:
        """Refresh the lease's liveness; False when the lease was lost."""
        # Chaos seam (no-op in production): a stalled heartbeat skips
        # the utime but reports success — exactly what a worker wedged
        # in an NFS write looks like to the rest of the fleet.
        if faults.maybe_stall("queue.heartbeat", claimed.fingerprint):
            return True
        try:
            os.utime(claimed.lease_path)
            return True
        except OSError:
            return False

    def release(self, claimed: ClaimedJob) -> None:
        """Push a claimed-but-unfinished job back to pending."""
        try:
            os.rename(claimed.lease_path, self.pending_dir / claimed.lease_path.name)
        except OSError:
            pass

    def fail(self, claimed: ClaimedJob, error: str, worker_id: str = "") -> bool:
        """Record a raised execution: retry the job or escalate to poison.

        While ``attempts`` (executions that raised) is below the
        envelope's ``max_attempts`` budget the job goes back to
        ``pending/`` with the counter incremented — the rewrite lands on
        the *held lease* first and the atomic rename then makes exactly
        one mover win, so a concurrent TTL sweeper can never resurrect a
        stale copy.  At budget the job escalates to ``poison/`` with the
        final traceback, worker id and timestamp recorded.  Returns True
        when the job was re-queued for another try.
        """
        envelope = dict(claimed.envelope)
        attempts = int(envelope.get("attempts", 0)) + 1
        budget = int(envelope.get("max_attempts", 0)) or DEFAULT_MAX_ATTEMPTS
        envelope["attempts"] = attempts
        envelope["last_error"] = error
        if attempts >= budget:
            self._poison_lease(
                claimed.lease_path,
                reason=error,
                worker_id=worker_id,
                envelope=envelope,
            )
            return False
        BEST_EFFORT_RETRY_POLICY.call(
            lambda: _atomic_write_json(
                self.leases_dir, claimed.lease_path, envelope
            ),
            key=f"fail/{claimed.fingerprint}",
            on_exhausted="drop",
        )
        self.release(claimed)
        self.retried += 1
        return True

    def complete(
        self,
        claimed: ClaimedJob,
        payload: Optional[dict],
        worker_id: str = "",
        error: Optional[str] = None,
    ) -> None:
        """Publish the job's completion marker and drop the lease.

        Duplicate completions (a re-leased job finishing twice) are
        harmless: identical fingerprints produce identical payloads and
        the atomic replace makes the last writer win.
        """
        marker = {
            "format": QUEUE_FORMAT_VERSION,
            "fingerprint": claimed.fingerprint,
            "kind": claimed.kind,
            "benchmark": claimed.envelope.get("benchmark", ""),
            "technique": claimed.envelope.get("technique", ""),
            "worker": worker_id,
            "payload": payload,
        }
        if error is not None:
            marker["error"] = error
        # Lifecycle intervals from the envelope's transport stamps:
        # enqueue→claim is backlog pressure (how long the job waited
        # for a lease), claim→done is service time.  They ride the
        # completion span so ``--status`` can report fleet latency
        # percentiles from span files alone.
        now = time.time()
        enqueued_at = claimed.envelope.get("enqueued_at")
        leased_at = claimed.envelope.get("leased_at")
        wait = (
            round(leased_at - enqueued_at, 6)
            if isinstance(enqueued_at, (int, float))
            and isinstance(leased_at, (int, float))
            else None
        )
        service = (
            round(now - leased_at, 6)
            if isinstance(leased_at, (int, float))
            else None
        )
        # The marker is the driver's only completion signal: retried
        # under the shared policy so a transient ENOSPC/EIO (or an
        # injected crash-after-replace, which re-publishes
        # idempotently) never turns finished work into a lost job.
        with tracing.span(
            "queue.complete",
            trace=claimed.envelope.get("trace"),
            fingerprint=claimed.fingerprint,
            worker=worker_id,
            enqueue_to_claim=wait,
            claim_to_done=service,
        ):
            DEFAULT_RETRY_POLICY.call(
                lambda: _atomic_write_json(
                    self.done_dir, self.done_path(claimed.fingerprint), marker
                ),
                key=f"complete/{claimed.fingerprint}",
            )
        self.completed += 1
        try:
            os.unlink(claimed.lease_path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Shared maintenance
    # ------------------------------------------------------------------
    def requeue_expired(self, now: Optional[float] = None) -> list[str]:
        """Re-lease jobs whose worker stopped heartbeating; return them.

        A lease older than the TTL either belongs to a dead worker (its
        job must run again) or to one that already finished (drop the
        lease).  The rename back to ``pending/`` is atomic, so when many
        processes sweep concurrently each expired lease is requeued
        exactly once.  TTL re-leases do *not* consume the job's
        ``attempts`` budget — slow is not failed, and a rewrite here
        would race the one-winner rename; only executions that raise
        count against ``max_attempts``.
        """
        now = time.time() if now is None else now
        requeued: list[str] = []
        for name in _protocol_names(self.leases_dir):
            lease = self.leases_dir / name
            try:
                age = now - lease.stat().st_mtime
            except OSError:
                continue
            if age <= self.ttl:
                continue
            fingerprint = name[: -len(".json")]
            if self.done_path(fingerprint).exists():
                try:
                    os.unlink(lease)
                except OSError:
                    pass
                continue
            try:
                os.rename(lease, self.pending_dir / name)
            except OSError:
                continue  # another sweeper won
            requeued.append(fingerprint)
            self.requeued += 1
        return requeued

    def list_done(self) -> set[str]:
        """Fingerprints with a completion marker — one directory listing.

        The driver's wait loop calls this every poll tick and opens only
        the markers that newly appeared, instead of attempting one file
        read per outstanding fingerprint per tick (which multiplies into
        thousands of per-second metadata operations on the NFS-mounted
        directories this queue targets).
        """
        return {
            name[: -len(".json")] for name in _protocol_names(self.done_dir)
        }

    def youngest_lease_age(self) -> Optional[float]:
        """Age of the most recently heartbeaten lease; None when none.

        Drops towards zero whenever any worker heartbeats or claims —
        the liveness signal behind the driver's stall timeout — at the
        cost of one directory listing plus one stat per lease.
        """
        youngest: Optional[float] = None
        now = time.time()
        for name in _protocol_names(self.leases_dir):
            try:
                age = now - (self.leases_dir / name).stat().st_mtime
            except OSError:
                continue
            youngest = age if youngest is None else min(youngest, age)
        return youngest

    def poison_record(self, fingerprint: str) -> Optional[dict]:
        """The poison record for ``fingerprint``, or None.

        A legacy or truncated poison file (one moved verbatim because
        even the record publication failed) reads as a minimal record
        rather than None — the *existence* of the file is the signal;
        the recorded reason is best-effort observability on top.
        """
        path = self.poison_path(fingerprint)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            if path.exists():
                return {"fingerprint": fingerprint, "poison_reason": "unrecorded"}
            return None
        except OSError:
            return None
        if not isinstance(record, dict) or "poison_reason" not in record:
            return {"fingerprint": fingerprint, "poison_reason": "unrecorded"}
        return record

    def list_poisoned(self) -> set[str]:
        """Fingerprints currently set aside in ``poison/``."""
        return {
            name[: -len(".json")] for name in _protocol_names(self.poison_dir)
        }

    def done_marker(self, fingerprint: str) -> Optional[dict]:
        """The completion marker for ``fingerprint``, or None.

        A malformed or foreign marker reads as None — the job will be
        waited on (and eventually re-leased), never crashed on.
        """
        try:
            marker = json.loads(
                self.done_path(fingerprint).read_text(encoding="utf-8")
            )
        except (FileNotFoundError, OSError, json.JSONDecodeError):
            return None
        if not isinstance(marker, dict) or marker.get("format") != QUEUE_FORMAT_VERSION:
            return None
        return marker

    def status(self) -> dict:
        """Pending/leased/done counts plus lease-age extremes.

        ``oldest_lease_age`` spots dying workers (it approaches the TTL
        as heartbeats stop); ``youngest_lease_age`` drops whenever *any*
        worker heartbeats, which the driver uses as a liveness signal
        for its stall timeout.
        """
        def _count(directory: Path) -> int:
            return len(_protocol_names(directory))

        oldest: Optional[float] = None
        youngest: Optional[float] = None
        now = time.time()
        for name in _protocol_names(self.leases_dir):
            try:
                age = now - (self.leases_dir / name).stat().st_mtime
            except OSError:
                continue
            oldest = age if oldest is None else max(oldest, age)
            youngest = age if youngest is None else min(youngest, age)
        # Per-job poison explanations: why, who, when — so one --status
        # query answers "what happened to my job" without grepping the
        # queue directory by hand.
        poison: list[dict] = []
        for fingerprint in sorted(self.list_poisoned()):
            record = self.poison_record(fingerprint) or {}
            poison.append(
                {
                    "fingerprint": fingerprint,
                    "reason": str(record.get("poison_reason", "unrecorded")),
                    "worker": record.get("worker", ""),
                    "poisoned_at": record.get("poisoned_at"),
                    "attempts": record.get("attempts"),
                }
            )
        return {
            "directory": str(self.root),
            "pending": _count(self.pending_dir),
            "leased": _count(self.leases_dir),
            "done": _count(self.done_dir),
            "poisoned": _count(self.poison_dir),
            "poison": poison,
            "oldest_lease_age": oldest,
            "youngest_lease_age": youngest,
            "ttl": self.ttl,
            # Jobs leased by this WorkQueue object, the listings that
            # produced them, and the realised batch size those imply.
            "claims_this_process": {
                "claimed": self.claimed,
                "claim_batches": self.claim_batches,
                "mean_batch_size": (
                    round(self.claimed / self.claim_batches, 2)
                    if self.claim_batches
                    else 0.0
                ),
            },
            # Fleet-wide claim-batch/gc stats, aggregated from the
            # queue/workers/ files each worker publishes after every
            # batch — this is what a `--status` query from another
            # process or host actually observes.
            "workers": self.worker_stats(),
            # Span-derived latency percentiles (enqueue→claim backlog
            # pressure, claim→done service time) from the telemetry
            # plane's published span files, plus this process's metrics
            # registry in the one fleet-wide snapshot() shape.  The
            # latency section is all-None until some producer ran with
            # REPRO_TELEMETRY=1 — the queue itself works identically
            # either way.
            "telemetry": {
                "metrics": self.metrics.snapshot(),
                "latency": tracing.queue_latency_summary(self.cache_dir),
            },
        }

    def worker_stats(self) -> dict:
        """Aggregate the per-worker stats files under ``queue/workers/``.

        Malformed or foreign files are skipped, never crashed on; stale
        files from dead workers linger until ``cache gc`` expires them,
        so the totals describe recent fleet activity, not a live roster.
        """
        totals = {
            "workers": 0,
            "claimed": 0,
            "claim_batches": 0,
            "jobs_done": 0,
            "jobs_failed": 0,
            "gc_sweeps": 0,
        }
        # Per-host rollup of the same counters: stats files are tagged
        # with the publishing worker's hostname, so a fleet spread over
        # NFS decomposes into which *machines* are sweeping and
        # claiming, not just process-level totals.  Files from before
        # the host tag aggregate under "" (unknown host).
        hosts: dict[str, dict] = {}
        for name in _protocol_names(self.workers_dir):
            try:
                payload = json.loads(
                    (self.workers_dir / name).read_text(encoding="utf-8")
                )
                if payload.get("format") != QUEUE_FORMAT_VERSION:
                    continue
                claimed = int(payload.get("claimed", 0))
                batches = int(payload.get("claim_batches", 0))
                jobs_done = int(payload.get("jobs_done", 0))
                jobs_failed = int(payload.get("jobs_failed", 0))
                gc_sweeps = int(payload.get("gc_sweeps", 0))
                host = str(payload.get("host", ""))
            except (OSError, ValueError, TypeError, json.JSONDecodeError):
                continue
            totals["workers"] += 1
            totals["claimed"] += claimed
            totals["claim_batches"] += batches
            totals["jobs_done"] += jobs_done
            totals["jobs_failed"] += jobs_failed
            totals["gc_sweeps"] += gc_sweeps
            per_host = hosts.setdefault(
                host,
                {
                    "workers": 0,
                    "claimed": 0,
                    "jobs_done": 0,
                    "jobs_failed": 0,
                    "gc_sweeps": 0,
                },
            )
            per_host["workers"] += 1
            per_host["claimed"] += claimed
            per_host["jobs_done"] += jobs_done
            per_host["jobs_failed"] += jobs_failed
            per_host["gc_sweeps"] += gc_sweeps
        totals["mean_batch_size"] = (
            round(totals["claimed"] / totals["claim_batches"], 2)
            if totals["claim_batches"]
            else 0.0
        )
        totals["hosts"] = hosts
        return totals

    def is_idle(self) -> bool:
        """True when nothing is pending and nothing is leased.

        Polled by every drain worker each tick, so it lists exactly the
        two directories it needs — never the full :meth:`status` report
        (whose fleet-stats aggregation reads one file per worker).
        """
        return not _protocol_names(self.pending_dir) and not _protocol_names(
            self.leases_dir
        )


# ----------------------------------------------------------------------
# Job execution (shared by workers and the runner's assist path)
# ----------------------------------------------------------------------
def execute_queue_job(claimed: ClaimedJob) -> dict:
    """Run one claimed job and return its payload dict.

    Job-shape dispatch lives in
    :func:`repro.harness.parallel.execute_job` — the same dispatcher the
    process pool uses — so the queue path can never diverge from the
    pool path; unknown envelope kinds were already poisoned at decode.
    """
    return execute_job(claimed.job)


def _execute_and_complete(
    queue: WorkQueue, claimed: ClaimedJob, worker_id: str
) -> bool:
    """Execute one claimed job and publish its marker (no heartbeat).

    Grid-cell results are stored into the shared :class:`ResultCache` so
    later runs hit the cache without consulting the queue at all; the
    completion marker additionally carries the full payload so the
    driver is immune to cache eviction races.  Returns True on success,
    False when the job raised — a raised job is pushed back to
    ``pending/`` with its ``attempts`` counter bumped, or escalated to
    ``poison/`` with the traceback once the budget is spent, so the
    driver either gets a retried success or a recorded reason, never a
    silent hang.
    """
    # Chaos seam (no-op outside death-enabled plans): an injected
    # worker death exits here, mid-job, leaving a heartbeating lease
    # that goes stale — the TTL re-lease path under test.
    faults.maybe_die(claimed.fingerprint)
    try:
        # The replay span records which engine actually executed the
        # job: an unpinned job (engine=None) resolves on this host at
        # simulate() time, exactly as resolve_engine_name does here.
        with tracing.span(
            "worker.replay",
            trace=claimed.envelope.get("trace"),
            fingerprint=claimed.fingerprint,
            benchmark=claimed.envelope.get("benchmark", ""),
            technique=claimed.envelope.get("technique", ""),
            worker=worker_id,
            engine=resolve_engine_name(getattr(claimed.job, "engine", None)),
        ):
            payload = execute_queue_job(claimed)
    # Job execution runs arbitrary simulation code; the contract is
    # retry-then-poison for *any* failure so the driver surfaces it
    # instead of waiting forever.
    # repro: allow[exception-hygiene] unbounded job-code surface
    except Exception:
        queue.fail(claimed, traceback.format_exc(), worker_id)
        return False
    try:
        if claimed.kind == "simulation":
            ResultCache(queue.cache_dir).store(
                claimed.fingerprint,
                stats_from_dict(payload["stats"]),
                benchmark=claimed.envelope.get("benchmark", ""),
                technique=claimed.envelope.get("technique", ""),
            )
        queue.complete(claimed, payload, worker_id)
    except OSError:
        # Even the retried marker publication gave up (persistent
        # ENOSPC/EIO, or an exceptionally hostile fault plan): treat it
        # as a failed attempt.  Re-execution is deterministic, so the
        # retry re-derives the identical payload and publishes it when
        # the storm passes — and the poison escalation still bounds the
        # worst case with a recorded reason.
        queue.fail(claimed, traceback.format_exc(), worker_id)
        return False
    return True


def process_claimed_jobs(
    queue: WorkQueue, claims: list[ClaimedJob], worker_id: str
) -> tuple[int, int]:
    """Execute a batch of claimed jobs under one shared heartbeat.

    A background thread heartbeats **every lease still held by the
    batch** while jobs execute sequentially (simulations take
    arbitrarily long; the TTL should not have to) — without this, the
    later jobs of a claim batch would expire and be re-leased elsewhere
    while the first one runs.  A single lost lease never stops the
    beater: completions are idempotent, so the worst case of a reclaim
    is duplicated work, not a wrong result.

    Returns ``(succeeded, failed)``.
    """
    stop = threading.Event()
    lock = threading.Lock()
    held = list(claims)
    interval = max(0.05, queue.ttl / 4.0)

    def _beat() -> None:
        while not stop.wait(interval):
            with lock:
                current = list(held)
            for claim in current:
                queue.heartbeat(claim)

    beater = threading.Thread(target=_beat, daemon=True)
    beater.start()
    succeeded = failed = 0
    try:
        for claimed in claims:
            if _execute_and_complete(queue, claimed, worker_id):
                succeeded += 1
            else:
                failed += 1
            with lock:
                held.remove(claimed)
    finally:
        stop.set()
        beater.join()
    return succeeded, failed


def process_claimed_job(
    queue: WorkQueue, claimed: ClaimedJob, worker_id: str
) -> bool:
    """Execute, publish and complete one claimed job (heartbeated).

    The single-job entry the driver's assist path uses; a batch of one.
    """
    succeeded, _ = process_claimed_jobs(queue, [claimed], worker_id)
    return succeeded == 1


# ----------------------------------------------------------------------
# Runner side: awaiting completion markers
# ----------------------------------------------------------------------
def wait_for_markers(
    queue: WorkQueue,
    fingerprints: list[str],
    *,
    poll_floor: float,
    poll_ceiling: float,
    assist: bool,
    stall_timeout: Optional[float],
) -> dict[str, dict]:
    """Block until every fingerprint has a completion marker; return them.

    Each scan sweeps expired leases, lists ``done/`` and ``poison/``
    once however many fingerprints are outstanding, and samples the
    youngest lease age, which drops whenever any worker heartbeats.
    With ``assist`` the waiting process also claims and executes one
    unclaimed job per scan, so a queue with no workers still drains.  A scan that
    made progress (a marker landed, an assisted job ran, a heartbeat
    moved) is followed by a ``poll_floor`` wait; idle scans double the
    wait up to ``poll_ceiling``.  Waits go through :func:`faults.sleep`,
    so a chaos plan's ``sleep_scale`` compresses them.

    A poisoned fingerprint raises ``RuntimeError`` with the recorded
    reason.  ``stall_timeout`` bounds *inactivity*: it re-arms on every
    progress event, so a slow but live fleet never trips it and only a
    wedged queue raises ``TimeoutError``.
    """
    worker_id = "driver-" + _default_worker_id()
    outstanding = set(fingerprints)
    markers: dict[str, dict] = {}
    wait = poll_floor
    last_beat: Optional[float] = None
    last_progress = time.monotonic()
    while True:
        progressed = False
        queue.requeue_expired()
        for fingerprint in sorted(queue.list_done() & outstanding):
            marker = queue.done_marker(fingerprint)
            if marker is None:
                continue  # torn or foreign marker: wait for a clean one
            markers[fingerprint] = marker
            outstanding.discard(fingerprint)
            progressed = True
        if not outstanding:
            return {fingerprint: markers[fingerprint] for fingerprint in fingerprints}
        for fingerprint in sorted(queue.list_poisoned() & outstanding):
            record = queue.poison_record(fingerprint) or {}
            raise RuntimeError(
                f"queue job {record.get('benchmark')}/"
                f"{record.get('technique')} was poisoned after "
                f"{record.get('attempts', '?')} attempt(s) on worker "
                f"{record.get('worker')!r}:\n"
                f"{record.get('poison_reason', 'unrecorded')}"
            )
        if assist:
            claimed = queue.claim(worker_id)
            if claimed is not None:
                process_claimed_job(queue, claimed, worker_id)
                progressed = True
        beat = queue.youngest_lease_age()
        if beat is not None and (last_beat is None or beat < last_beat):
            progressed = True
        last_beat = beat
        if progressed:
            last_progress = time.monotonic()
            wait = poll_floor
        elif (
            stall_timeout is not None
            and time.monotonic() - last_progress > stall_timeout
        ):
            raise TimeoutError(
                f"queue backend stalled for {stall_timeout:.0f}s awaiting "
                f"{len(outstanding)} job(s); queue status: {queue.status()}"
            )
        faults.sleep(wait)
        wait = min(wait * 2.0, poll_ceiling)


class QueueWorker:
    """The claim/execute/complete loop one worker process runs.

    Attributes:
        claim_batch: jobs leased per directory listing (single scan, up
            to this many renames); the whole batch heartbeats while its
            jobs execute sequentially.  Default 1: batching amortises
            the listing only when pending jobs vastly outnumber
            workers — on a small grid a worker hoarding a batch
            serialises jobs its idle peers could have run (measured
            ~75% wall-clock regression on the 6-cell queue-grid bench
            at batch 4), so larger batches are opt-in for large grids.
        gc_interval: idle-time ``cache gc`` sweep period in seconds
            (None/0 disables).  The actual period is jittered so a fleet
            of workers sharing one NFS cache directory doesn't sweep it
            in lockstep, and the first sweep lands at a random fraction
            of the period to desynchronise hosts started together.
        gc_sweeps: sweeps this worker has run (tests, exit summary).
    """

    #: Upper jitter fraction applied to each worker's gc period.
    GC_JITTER = 0.25

    def __init__(
        self,
        queue: WorkQueue,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.2,
        max_jobs: Optional[int] = None,
        drain: bool = False,
        drain_grace: float = 1.0,
        claim_batch: int = 1,
        gc_interval: Optional[float] = None,
    ):
        if claim_batch < 1:
            raise ValueError("claim_batch must be a positive integer")
        self.queue = queue
        self.worker_id = worker_id or _default_worker_id()
        self.poll_interval = poll_interval
        self.max_jobs = max_jobs
        self.drain = drain
        self.drain_grace = drain_grace
        self.claim_batch = claim_batch
        self.gc_interval = gc_interval or None
        self.jobs_done = 0
        self.jobs_failed = 0
        self.gc_sweeps = 0
        self._next_gc = (
            time.time() + self.gc_interval * random.uniform(0.1, 1.0 + self.GC_JITTER)
            if self.gc_interval
            else None
        )

    def _publish_stats(self) -> None:
        """Publish this worker's counters to ``queue/workers/<id>.json``.

        The claim/gc counters live in process memory, so a ``--status``
        query from another process (or host) could never see them;
        publishing them into the queue directory after every batch makes
        claim-batch efficiency fleet-observable.  Stale files from dead
        workers expire via ``cache gc`` like consumed completion
        markers.  Best-effort: a stats write must never fail a worker.
        """
        queue = self.queue
        payload = {
            "format": QUEUE_FORMAT_VERSION,
            "worker": self.worker_id,
            "host": socket.gethostname(),
            "claimed": queue.claimed,
            "claim_batches": queue.claim_batches,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "gc_sweeps": self.gc_sweeps,
            "updated_at": time.time(),
        }
        # The id is operator-supplied (--worker-id) and becomes a file
        # name: strip path separators and friends so an id like
        # "rack1/host7" publishes instead of silently failing — or
        # worse, escaping into a sibling protocol directory.  When the
        # rewrite changed anything, a short digest of the raw id keeps
        # distinct ids from clobbering one stats file ("rack1/host7"
        # vs "rack1 host7" would otherwise collide on rack1-host7).
        safe_id = (
            re.sub(r"[^A-Za-z0-9._-]", "-", self.worker_id).lstrip(".")
            or "worker"
        )
        if safe_id != self.worker_id:
            digest = hashlib.sha256(self.worker_id.encode("utf-8"))
            safe_id = f"{safe_id}-{digest.hexdigest()[:8]}"
        # Drop-after-budget: a stats file is pure observability, so a
        # persistently hostile shared directory (ENOSPC, EIO, read-only
        # remount) costs one stale fleet entry, never a dead worker.
        BEST_EFFORT_RETRY_POLICY.call(
            lambda: _atomic_write_json(
                queue.workers_dir,
                queue.workers_dir / f"{safe_id}.json",
                payload,
            ),
            key=f"worker-stats/{safe_id}",
            on_exhausted="drop",
        )

    def _maybe_gc(self, now: float) -> None:
        """Run an idle-time cache gc sweep when the jittered period lapses.

        Reuses the offline ``python -m repro.harness.cache gc`` internals
        (orphaned ``.tmp-*`` writer files, expired completion markers;
        live protocol files are never touched).  A sweep failure must
        never kill a worker — the cache directory may be shared with
        hosts mid-eviction.
        """
        if self._next_gc is None or now < self._next_gc:
            return
        from repro.harness.cache import gc_cache_tree

        def _sweep() -> None:
            gc_cache_tree(self.queue.cache_dir)
            self.gc_sweeps += 1
            self._publish_stats()

        # Drop-after-budget: the sweep is opportunistic janitor work —
        # a directory mid-eviction on another host retries briefly,
        # then waits for the next jittered period.
        BEST_EFFORT_RETRY_POLICY.call(
            _sweep, key=f"gc/{self.worker_id}", on_exhausted="drop"
        )
        self._next_gc = now + self.gc_interval * random.uniform(
            1.0, 1.0 + self.GC_JITTER
        )

    def run(self) -> int:
        """Serve the queue; returns the number of jobs executed."""
        queue = self.queue
        idle_since: Optional[float] = None
        while True:
            if self.max_jobs is not None and self.jobs_done >= self.max_jobs:
                break
            queue.requeue_expired()
            limit = self.claim_batch
            if self.max_jobs is not None:
                limit = min(limit, self.max_jobs - self.jobs_done)
            claims = queue.claim_batch(self.worker_id, limit=limit)
            if not claims:
                now = time.time()
                if self.drain and queue.is_idle():
                    if idle_since is None:
                        idle_since = now
                    elif now - idle_since >= self.drain_grace:
                        break
                else:
                    idle_since = None
                self._maybe_gc(now)
                faults.sleep(self.poll_interval)
                continue
            idle_since = None
            succeeded, failed = process_claimed_jobs(queue, claims, self.worker_id)
            self.jobs_done += succeeded
            self.jobs_failed += failed
            self._publish_stats()
        return self.jobs_done


# ----------------------------------------------------------------------
# Worker entry point: python -m repro.harness.queue
# ----------------------------------------------------------------------
def spawn_local_workers(
    cache_dir: str | os.PathLike,
    count: int,
    ttl: float = 60.0,
    poll_interval: float = 0.2,
    drain: bool = False,
    claim_batch: Optional[int] = None,
    gc_interval: Optional[float] = None,
):
    """Start ``count`` worker subprocesses against ``cache_dir``.

    Convenience for single-host scale-out and the in-tree smoke tests;
    remote hosts just run the module entry point themselves.  The
    workers inherit the environment plus a ``PYTHONPATH`` that resolves
    this package, so they work from an uninstalled source tree.
    """
    import subprocess
    import sys

    import repro

    src_root = str(Path(next(iter(repro.__path__))).parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    command = [
        sys.executable,
        "-m",
        "repro.harness.queue",
        str(cache_dir),
        "--ttl",
        str(ttl),
        "--poll",
        str(poll_interval),
    ]
    if drain:
        command.append("--drain")
    if claim_batch is not None:
        command.extend(["--claim-batch", str(claim_batch)])
    # None must mean what it means on QueueWorker — no janitor sweeps —
    # so pass an explicit 0 rather than inheriting the CLI's 900s
    # daemon default; these spawned workers are ephemeral batch hands,
    # not long-lived hosts.
    command.extend(["--gc-interval", str(gc_interval if gc_interval else 0)])
    return [subprocess.Popen(command, env=env) for _ in range(count)]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Work-queue worker over a shared simulation cache directory"
    )
    parser.add_argument("cache_dir", help="shared cache directory (holds queue/)")
    parser.add_argument("--worker-id", default=None, help="identity stamped on leases")
    parser.add_argument(
        "--ttl", type=float, default=60.0, help="heartbeat TTL before re-lease (s)"
    )
    parser.add_argument(
        "--poll", type=float, default=0.2, help="idle polling interval (s)"
    )
    parser.add_argument(
        "--max-jobs", type=int, default=None, help="exit after N jobs (default: serve)"
    )
    parser.add_argument(
        "--drain",
        action="store_true",
        help="exit once the queue stays empty for the grace period",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=1.0,
        help="idle seconds before --drain exits",
    )
    parser.add_argument(
        "--claim-batch",
        type=int,
        default=1,
        help="jobs leased per pending-directory listing (single scan, up "
        "to N renames; the batch heartbeats while executing).  Raise on "
        "large grids where pending jobs vastly outnumber workers; a "
        "batch a small grid can't fill just serialises jobs idle peers "
        "could have run",
    )
    parser.add_argument(
        "--gc-interval",
        type=float,
        default=900.0,
        help="idle-time cache gc sweep period in seconds, jittered per "
        "worker so shared caches aren't swept in lockstep (0 disables)",
    )
    parser.add_argument(
        "--status",
        action="store_true",
        help="print queue status as JSON and exit; the 'workers' section "
        "aggregates the claim-batch and gc counters every worker "
        "publishes into queue/workers/",
    )
    args = parser.parse_args(argv)

    # A driver running a chaos plan exports REPRO_FAULT_PLAN; spawned
    # workers self-install here so the whole fleet shares one schedule.
    faults.install_from_env()
    # Likewise REPRO_TELEMETRY: a driver tracing a run exports it, and
    # every worker publishes spans into the shared cache directory so
    # the request trace connects across processes and hosts.
    tracing.install_from_env(args.cache_dir)
    queue = WorkQueue(args.cache_dir, ttl=args.ttl)
    if args.status:
        print(json.dumps(queue.status(), indent=2))
        return 0
    worker = QueueWorker(
        queue,
        worker_id=args.worker_id,
        poll_interval=args.poll,
        max_jobs=args.max_jobs,
        drain=args.drain,
        drain_grace=args.drain_grace,
        claim_batch=args.claim_batch,
        gc_interval=args.gc_interval,
    )
    done = worker.run()
    print(
        f"worker {worker.worker_id}: {done} job(s) executed, "
        f"{worker.jobs_failed} failed, {queue.claimed} claim(s) over "
        f"{queue.claim_batches} listing(s), {worker.gc_sweeps} gc sweep(s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
