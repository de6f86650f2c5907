"""chaoskit: deterministic fault injection and the unified retry policy.

The queue/cache substrate's crash-safety claims — atomic rename leases,
TTL re-lease, idempotent completions, the orphaned-``.tmp-*`` gc
contract — are only as strong as the faults they have been exercised
against.  This module makes those faults *injectable, seeded and
deterministic*, so the chaos soak gate (``tests/test_faults.py``) can
replay the same failure schedule on every run and assert that results
stay bit-identical to a fault-free run.

Three pieces:

* :class:`FaultPlan` — an immutable, serialisable description of a
  fault schedule: a seed, a base firing rate, a per-(site, key) fire
  budget, an optional site whitelist, a sleep scale (chaos runs
  compress retry backoff to keep soaks fast) and an explicit
  ``worker_death`` opt-in (``os._exit`` faults, for real worker
  subprocesses only).  Plans round-trip through a compact
  ``key=value,...`` spec or JSON via :meth:`FaultPlan.from_spec` /
  :meth:`FaultPlan.to_spec`, which is also the ``REPRO_FAULT_PLAN``
  environment encoding worker subprocesses inherit.
* :class:`FaultInjector` — the deterministic engine.  Every decision is
  a pure function of ``(seed, site, key, occurrence_index)`` via
  SHA-256, so a given plan fires the same faults at the same call
  sequence on every run, and the per-(site, key) fire budget guarantees
  every operation eventually succeeds (liveness under chaos).
* :class:`RetryPolicy` — the single transient-error handler for the
  harness layer: bounded attempts, exponential backoff, seeded jitter.
  All backoff (and polling) sleeps in the package go through
  :func:`sleep` below — the ``retry-discipline`` reprolint rule flags
  ``time.sleep`` anywhere else under ``src/`` so waiting stays
  centralised, seedable and chaos-scalable.

Hook points and the no-op contract
----------------------------------

The hooks live at the filesystem touchpoints of
:func:`repro.atomicio.publish_atomically` (EIO/ENOSPC on write, torn
temp files, crash before/after ``os.replace``), ``WorkQueue`` (delayed
directory visibility, heartbeat stalls, mid-job worker death) and
``ResultCache`` (read errors).  Every hook is a module-level function
that returns immediately while no injector is installed — one ``is
None`` test, no allocation — so the production hot path pays nothing.
:mod:`repro.atomicio` cannot import this module (it sits below the
harness layer), so :func:`install` pushes the hook into it through
``repro.atomicio._fault_hook``.

Fault hooks are **forbidden under** ``repro/uarch/`` (enforced by the
``retry-discipline`` rule): injection must never perturb the
bit-identical timing kernels.  ``TraceCache`` stores still come under
chaos because they publish through :mod:`repro.atomicio`; trace *reads*
are exercised by hand-corrupting files in the quarantine tests instead.

Activation: ``REPRO_FAULT_PLAN=<spec>`` in the environment (workers
call :func:`install_from_env` at startup and inherit the driver's
plan), ``pytest --faults <spec|preset>`` for a whole test session, or
:func:`installed` as a context manager in tests.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence, TypeVar

#: Environment variable carrying the active plan's spec; worker
#: subprocesses inherit it from the driver (``spawn_local_workers``
#: copies the environment) and self-install at startup.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit code of an injected worker death, distinct from real failures
#: so tests can tell "chaoskit killed it" from "it crashed".
WORKER_DEATH_EXIT_CODE = 47

#: The fault sites the injector knows.  Site ids are stable — plans
#: whitelist by these names and the fault-model doc catalogues them.
FAULT_SITES = (
    "atomicio.write",                 # EIO/ENOSPC before any byte lands
    "atomicio.torn",                  # temp file truncated mid-write, writer dies
    "atomicio.crash-before-replace",  # writer dies with a full temp file
    "atomicio.crash-after-replace",   # writer dies after publishing
    "cache.load",                     # read error on a result-cache cell
    "queue.listing",                  # directory entry temporarily invisible
    "queue.heartbeat",                # a heartbeat silently misses its beat
    "queue.worker-death",             # os._exit mid-job (plan opt-in only)
)

#: Named plans for ``pytest --faults light`` style invocations.  Both
#: keep ``fire_limit=1`` so the liveness inequality against
#: :data:`DEFAULT_RETRY_POLICY` holds (see its docstring); ``heavy``
#: turns the dial on density, not depth.
FAULT_PRESETS = {
    "light": "seed=1,rate=0.05,fire_limit=1,sleep_scale=0.1",
    "heavy": "seed=1,rate=0.5,fire_limit=1,sleep_scale=0.02",
}


class InjectedFaultError(OSError):
    """A transient filesystem fault injected by chaoskit.

    An ``OSError`` subclass so every handler and :class:`RetryPolicy`
    site that tolerates real EIO/ENOSPC tolerates the injected kind the
    same way — injection must never need its own error-handling paths.
    """


class InjectedCrashError(InjectedFaultError):
    """An injected *writer death*: the temp file must be left behind.

    ``preserve_temp`` is the contract with
    :func:`repro.atomicio.publish_atomically`: its failure cleanup skips
    the temp-file unlink for exceptions carrying this flag, simulating a
    process killed between ``mkstemp`` and ``os.replace`` — exactly the
    debris the gc sweeper's orphan contract exists for.
    """

    preserve_temp = True


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serialisable fault schedule.

    Attributes:
        seed: the determinism root; two runs of one plan fire
            identically for identical call sequences.
        rate: base probability in [0, 1] that an eligible site call
            fires (decided deterministically from the seed, never from
            a live RNG).
        fire_limit: faults per (site, key) pair before that pair goes
            permanently quiet — the liveness bound that keeps every
            retried operation terminating.  One publication traverses
            all four ``atomicio.*`` sites with a shared key, so a
            retried writer can see up to ``4 * fire_limit`` consecutive
            failures; keep that product below
            ``DEFAULT_RETRY_POLICY.attempts`` (and ``fire_limit`` below
            job ``max_attempts``) or chaos runs may legitimately fail
            publications and poison jobs.
        sites: site-id whitelist; empty means every site is eligible.
        sleep_scale: multiplier applied by :func:`sleep` to every
            backoff/poll sleep — soaks run with a near-zero scale so
            injected retries don't stretch wall-clock.
        worker_death: allow ``queue.worker-death`` to ``os._exit`` the
            process.  Off by default and never enabled implicitly: a
            driver running assist jobs in-process must not kill itself.
    """

    seed: int = 0
    rate: float = 0.2
    fire_limit: int = 1
    sites: tuple[str, ...] = ()
    sleep_scale: float = 1.0
    worker_death: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be a probability in [0, 1]")
        if self.fire_limit < 0:
            raise ValueError("fire_limit must be a non-negative integer")
        if self.sleep_scale < 0:
            raise ValueError("sleep_scale must be non-negative")
        unknown = sorted(set(self.sites) - set(FAULT_SITES))
        if unknown:
            known = ", ".join(FAULT_SITES)
            raise ValueError(f"unknown fault site(s) {unknown}; known: {known}")

    # ------------------------------------------------------------------
    # Spec round-trip (CLI flag, environment variable)
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a preset name, a JSON object, or ``key=value,...``.

        The compact form writes sites as a ``|``-separated list::

            seed=3,rate=0.25,fire_limit=2,sites=queue.listing|atomicio.write
        """
        text = spec.strip()
        if not text:
            raise ValueError("empty fault plan spec")
        if text in FAULT_PRESETS:
            text = FAULT_PRESETS[text]
        if text.startswith("{"):
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("fault plan JSON must be an object")
            if "sites" in payload:
                payload["sites"] = tuple(payload["sites"])
            return cls(**payload)
        payload = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"malformed fault plan fragment {part!r}")
            key, value = part.split("=", 1)
            key = key.strip()
            value = value.strip()
            if key in ("seed", "fire_limit"):
                payload[key] = int(value)
            elif key in ("rate", "sleep_scale"):
                payload[key] = float(value)
            elif key == "worker_death":
                payload[key] = value.lower() in ("1", "true", "yes", "on")
            elif key == "sites":
                payload[key] = tuple(s for s in value.split("|") if s)
            else:
                raise ValueError(f"unknown fault plan field {key!r}")
        return cls(**payload)

    def to_spec(self) -> str:
        """The compact ``key=value,...`` encoding (``REPRO_FAULT_PLAN``)."""
        parts = [
            f"seed={self.seed}",
            f"rate={self.rate}",
            f"fire_limit={self.fire_limit}",
            f"sleep_scale={self.sleep_scale}",
        ]
        if self.sites:
            parts.append("sites=" + "|".join(self.sites))
        if self.worker_death:
            parts.append("worker_death=true")
        return ",".join(parts)


class FaultInjector:
    """Deterministic fault engine for one :class:`FaultPlan`.

    Decisions are pure: the ``n``-th call at ``(site, key)`` fires iff
    the plan covers the site, fewer than ``fire_limit`` faults have
    fired there, and ``SHA-256(seed|site|key|n)`` falls below the rate
    threshold.  No live RNG, no clock — a plan's schedule is a function
    of the call sequence alone, which is what lets the soak gate demand
    bit-identical results.  A lock guards the occurrence counters (the
    heartbeat thread shares the injector with the worker loop); the
    counters are the only mutable state.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.fired: dict[tuple[str, str], int] = {}
        self._calls: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()

    def decide(self, site: str, key: str = "") -> bool:
        """Deterministically decide whether this call faults."""
        plan = self.plan
        if plan.rate <= 0.0 or plan.fire_limit == 0:
            return False
        if plan.sites and site not in plan.sites:
            return False
        slot = (site, key)
        with self._lock:
            if self.fired.get(slot, 0) >= plan.fire_limit:
                return False
            index = self._calls.get(slot, 0)
            self._calls[slot] = index + 1
            token = f"{plan.seed}|{site}|{key}|{index}".encode("utf-8")
            digest = hashlib.sha256(token).digest()
            draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
            if draw >= plan.rate:
                return False
            self.fired[slot] = self.fired.get(slot, 0) + 1
            return True

    def fired_total(self) -> int:
        with self._lock:
            return sum(self.fired.values())

    # ------------------------------------------------------------------
    # The hook behaviours
    # ------------------------------------------------------------------
    def hook(self, site: str, key: str, temp_path: Optional[str] = None) -> None:
        """The :mod:`repro.atomicio` publication hook; may raise.

        ``atomicio.write`` raises a plain transient error (cleanup
        removes the temp file, callers retry).  The three crash sites
        raise :class:`InjectedCrashError` so the temp file survives as
        the orphan debris real writer deaths leave; ``atomicio.torn``
        additionally truncates the temp file first — the canonical torn
        write the rename discipline keeps readers from ever observing.
        """
        if not self.decide(site, key):
            return
        if site == "atomicio.write":
            code = errno.ENOSPC if len(key) % 2 == 0 else errno.EIO
            raise InjectedFaultError(code, os.strerror(code), key)
        if site == "atomicio.torn" and temp_path is not None:
            try:
                size = os.path.getsize(temp_path)
                os.truncate(temp_path, size // 2)
            except OSError:  # pragma: no cover - temp raced away
                pass
            raise InjectedCrashError(
                errno.EIO, "injected torn write (writer died mid-write)", key
            )
        raise InjectedCrashError(
            errno.EIO, f"injected writer death at {site}", key
        )

    def filter_names(self, site: str, scope: str, names: list[str]) -> list[str]:
        """Hide directory entries (NFS-style delayed visibility).

        Each hidden (entry, occurrence) consumes one fire from the
        entry's budget, so every file becomes visible after at most
        ``fire_limit`` listings — stale listings delay progress, never
        prevent it.
        """
        return [
            name for name in names if not self.decide(site, f"{scope}/{name}")
        ]

    def stall(self, site: str, key: str) -> bool:
        """True when this heartbeat should silently miss its beat."""
        return self.decide(site, key)

    def maybe_die(self, key: str) -> None:
        """``os._exit`` the process mid-job when the plan allows death.

        Only fires when the plan explicitly opted in — a driver serving
        assist jobs in-process shares the address space with the test
        run and must never be collateral.
        """
        if self.plan.worker_death and self.decide("queue.worker-death", key):
            os._exit(WORKER_DEATH_EXIT_CODE)


# ----------------------------------------------------------------------
# Module-level installation and the zero-overhead hook functions
# ----------------------------------------------------------------------
_INJECTOR: Optional[FaultInjector] = None


def install(injector: Optional[FaultInjector]) -> Optional[FaultInjector]:
    """Install (or with None, remove) the process-wide injector.

    Also pushes the publication hook into :mod:`repro.atomicio`, which
    sits below the harness layer and therefore cannot import this
    module.  Returns the previously installed injector.
    """
    global _INJECTOR
    import repro.atomicio as atomicio

    previous = _INJECTOR
    _INJECTOR = injector
    atomicio._fault_hook = injector.hook if injector is not None else None
    return previous


def active_injector() -> Optional[FaultInjector]:
    """The installed injector, or None (the production default)."""
    return _INJECTOR


def install_from_env() -> Optional[FaultInjector]:
    """Install a plan from ``REPRO_FAULT_PLAN``; None when unset.

    Worker entry points call this at startup so a driver's chaos plan
    follows its spawned fleet.
    """
    spec = os.environ.get(FAULT_PLAN_ENV, "").strip()
    if not spec:
        return None
    injector = FaultInjector(FaultPlan.from_spec(spec))
    install(injector)
    return injector


class installed:
    """Context manager: run a block under ``plan``, restore on exit."""

    def __init__(self, plan: Optional[FaultPlan]):
        self.injector = FaultInjector(plan) if plan is not None else None
        self._previous: Optional[FaultInjector] = None

    def __enter__(self) -> Optional[FaultInjector]:
        self._previous = install(self.injector)
        return self.injector

    def __exit__(self, *exc_info) -> None:
        install(self._previous)


def maybe_filter_names(site: str, scope: str, names: list[str]) -> list[str]:
    """Directory-listing hook: a no-op unless an injector is installed."""
    if _INJECTOR is None:
        return names
    return _INJECTOR.filter_names(site, scope, names)


def maybe_stall(site: str, key: str = "") -> bool:
    """Heartbeat-stall hook: False (never stall) in production."""
    if _INJECTOR is None:
        return False
    return _INJECTOR.stall(site, key)


def maybe_fire(site: str, key: str = "") -> None:
    """Raise an injected transient error at ``site``; no-op by default."""
    if _INJECTOR is None:
        return
    if _INJECTOR.decide(site, key):
        raise InjectedFaultError(
            errno.EIO, f"injected read fault at {site}", key
        )


def maybe_die(key: str = "") -> None:
    """Worker-death hook: a no-op unless a death-enabled plan is live."""
    if _INJECTOR is not None:
        _INJECTOR.maybe_die(key)


def sleep(seconds: float) -> None:
    """The package's single ``time.sleep`` seam.

    Every poll and backoff wait routes through here (the
    ``retry-discipline`` reprolint rule enforces it): the workers' idle
    polls, the runner's marker wait
    (:func:`repro.harness.queue.wait_for_markers`) and every
    ``RetryPolicy`` backoff.  Waiting is therefore centralised, and an
    active chaos plan compresses it via ``sleep_scale`` to keep fault
    soaks fast.
    """
    injector = _INJECTOR
    if injector is not None:
        seconds *= injector.plan.sleep_scale
    if seconds > 0:
        time.sleep(seconds)


# ----------------------------------------------------------------------
# The unified retry policy
# ----------------------------------------------------------------------
T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with exponential backoff and seeded jitter.

    The one shape of transient-error handling in the harness layer:
    ``attempts`` tries at most, sleeping ``base_delay * 2**i`` (capped
    at ``max_delay``) between failures, each wait stretched by a
    deterministic jitter in ``[0, jitter]`` derived from ``(seed,
    key, attempt)`` — seeded like everything else in this module, so
    two processes retrying the same key desynchronise *reproducibly*
    rather than thundering in lockstep.

    ``call`` either re-raises the last error (``on_exhausted="raise"``)
    or swallows it and returns ``default`` (``on_exhausted="drop"``,
    for best-effort writers like worker stats that must never kill
    their process).
    """

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be a positive integer")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")

    def delays(self, key: str = "") -> Iterator[float]:
        """The ``attempts - 1`` backoff waits for one retried operation."""
        for attempt in range(self.attempts - 1):
            base = min(self.max_delay, self.base_delay * (2 ** attempt))
            token = f"{self.seed}|{key}|{attempt}".encode("utf-8")
            digest = hashlib.sha256(token).digest()
            draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
            yield base * (1.0 + self.jitter * draw)

    def call(
        self,
        operation: Callable[[], T],
        retry_on: tuple[type[BaseException], ...] = (OSError,),
        key: str = "",
        on_exhausted: str = "raise",
        default: Optional[T] = None,
    ) -> Optional[T]:
        """Run ``operation`` under this policy; see class docstring."""
        if on_exhausted not in ("raise", "drop"):
            raise ValueError("on_exhausted must be 'raise' or 'drop'")
        waits = self.delays(key)
        for attempt in range(self.attempts):
            try:
                return operation()
            except retry_on:
                if attempt + 1 >= self.attempts:
                    if on_exhausted == "drop":
                        return default
                    raise
                sleep(next(waits))
        return default  # pragma: no cover - loop always returns/raises


#: The harness-wide default for protocol/cache publications.  Six
#: attempts with sub-second backoff rides out transient ENOSPC/EIO —
#: and every ``fire_limit=1`` fault plan: one publication traverses all
#: four ``atomicio.*`` sites with a shared key, so its worst case is
#: ``4 * fire_limit`` consecutive failures, which 6 attempts beats with
#: headroom.  Keep that inequality when raising ``fire_limit``.
DEFAULT_RETRY_POLICY = RetryPolicy(attempts=6)

#: Best-effort writers (worker stats, idle gc) drop after a short
#: budget instead of raising — losing one stats file must never kill a
#: worker mid-fleet.
BEST_EFFORT_RETRY_POLICY = RetryPolicy(attempts=3, base_delay=0.02, max_delay=0.5)
