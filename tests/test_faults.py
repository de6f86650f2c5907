"""chaoskit: deterministic fault injection, retry, degradation.

Three layers of coverage, bottom up:

1. unit tests over :mod:`repro.harness.faults` itself — plan spec
   round-trips, decision determinism, fire budgets, the
   :class:`RetryPolicy` contract, and the atomicio hook behaviours
   (clean transient errors vs. orphan-leaving injected crashes);
2. degradation tests — corrupt :class:`ResultCache`/:class:`TraceCache`
   entries are quarantined once and re-missed cleanly, stores that
   cannot persist fall back to memory with a warn-once, and quarantine
   directories expire under ``cache gc`` after a week;
3. the chaos soak gate — the 6-cell grid, run in-process and over a
   2-worker pool under a matrix of seeded fault plans and under each
   fault site alone, produces statistics **bit-identical** to the
   fault-free run, persists every cell, and leaves no orphaned temp
   file in the cache tree after the documented sweep.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import time
from array import array

import pytest

from repro.atomicio import TMP_PREFIX, publish_atomically
from repro.harness import ParallelSuiteRunner, RunConfig
from repro.harness.cache import (
    CACHE_FORMAT_VERSION,
    QUARANTINE_DIR_NAME,
    ResultCache,
    gc_cache_tree,
)
from repro.harness.faults import (
    FAULT_PRESETS,
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    InjectedCrashError,
    InjectedFaultError,
    RetryPolicy,
    active_injector,
    installed,
)
from repro.uarch.stats import SimulationStats
from repro.uarch.trace import (
    TraceCache,
    TraceWindow,
    clear_trace_memo,
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
            sites=("cache.load", "atomicio.write"),
            sleep_scale=0.1,
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

    @pytest.mark.parametrize(
        "site", ["queue.listing", "queue.heartbeat", "queue.worker-death"]
    )
    def test_retired_queue_sites_are_unknown(self, site):
        """A saved plan naming a site of the retired work queue fails
        loudly instead of arming a hook nothing calls."""
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(sites=(site,))
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.from_spec(f"seed=1,sites={site}")

    @pytest.mark.parametrize(
        "spec",
        [
            "  ",
            "seed",
            "rate=often",
            "fire_limit=-1",
            "sleep_scale=-0.5",
            '{"seed": 1, "bogus": 2}',
        ],
        ids=[
            "empty",
            "no-equals",
            "rate-not-a-number",
            "negative-fire-limit",
            "negative-sleep-scale",
            "json-unknown-field",
        ],
    )
    def test_malformed_spec_is_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(spec)


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
            FaultPlan(seed=1, rate=1.0, fire_limit=5, sites=("atomicio.write",))
        )
        assert not injector.decide("cache.load", "k")
        assert injector.decide("atomicio.write", "k")

    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_a_whitelisted_site_fires_alone(self, site):
        injector = FaultInjector(
            FaultPlan(seed=1, rate=1.0, fire_limit=1, sites=(site,))
        )
        fired = {other: injector.decide(other, "k") for other in FAULT_SITES}
        assert fired == {other: other == site for other in FAULT_SITES}

    def test_no_injector_hooks_are_noops(self, tmp_path):
        import repro.atomicio as atomicio

        assert active_injector() is None
        assert atomicio._fault_hook is None
        # The cache.load site passes on both caches' reads: plain misses.
        assert ResultCache(tmp_path / "cells").load("k") is None
        assert TraceCache(tmp_path / "traces").load("k", build_benchmark("gzip")) is None
        _publish(tmp_path / "cell.json")  # every atomicio site passes
        assert (tmp_path / "cell.json").read_text() == "payload"


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

    @pytest.mark.parametrize(
        "error",
        [
            InjectedFaultError(errno.EIO, "injected fault"),
            InjectedCrashError(errno.EIO, "injected writer death"),
        ],
        ids=["injected-fault", "injected-crash"],
    )
    def test_injected_errors_are_retried(self, error):
        """Injected faults are OSErrors, so the policy rides them out like
        real EIO; a publication that died after its rename is simply
        published again."""
        raised = []

        def flaky() -> str:
            if not raised:
                raised.append(error)
                raise error
            return "published"

        policy = RetryPolicy(attempts=2, base_delay=0.0)
        assert policy.call(flaky) == "published"
        assert raised == [error]

    def test_other_errors_propagate_on_the_first_attempt(self, monkeypatch):
        """A bug is not a transient fault: it is raised at once, with no
        retry and no backoff."""
        from repro.harness import faults

        sleeps: list[float] = []
        monkeypatch.setattr(faults, "sleep", sleeps.append)
        calls = []

        def broken() -> None:
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            RetryPolicy(attempts=6).call(broken)
        assert calls == [1]
        assert sleeps == []

    @pytest.mark.parametrize(
        "field, value",
        [("attempts", 0), ("base_delay", -0.1), ("max_delay", -1.0), ("jitter", -0.5)],
        ids=["attempts", "base_delay", "max_delay", "jitter"],
    )
    def test_invalid_policy_is_rejected(self, field, value):
        with pytest.raises(ValueError):
            RetryPolicy(**{field: value})

    def test_waits_follow_the_seeded_schedule(self, monkeypatch):
        """Each failed attempt but the last waits the next of
        ``delays(key)``, through :func:`faults.sleep`; the last error
        propagates."""
        from repro.harness import faults

        sleeps: list[float] = []
        monkeypatch.setattr(faults, "sleep", sleeps.append)
        policy = RetryPolicy(attempts=4, base_delay=0.1, seed=7)

        def always() -> None:
            raise OSError(errno.EIO, "persistent")

        with pytest.raises(OSError, match="persistent"):
            policy.call(always, key="cell")
        assert len(sleeps) == 3
        assert sleeps == list(policy.delays("cell"))


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
#: A plan under which no file can be published: the directory behaves as
#: read-only (or full) for the whole block.
READ_ONLY_PLAN = FaultPlan(
    seed=1, rate=1.0, fire_limit=1000, sites=("atomicio.write",), sleep_scale=0.0
)


def _store_cell(cache: ResultCache, fingerprint: str = "f" * 8) -> str:
    cache.store(fingerprint, SimulationStats(cycles=42), benchmark="gzip")
    return fingerprint


def _cell(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


#: Torn or foreign result-cache cells by class, each a function of the
#: stored cell's text.
CELL_CORRUPTIONS = {
    "truncated": lambda text: text[:10].encode("utf-8"),
    "bad-magic": lambda text: _cell({"format": -1, "stats": {}}),
    "not-json": lambda text: b"\x00\x01\x02 not json at all",
    "wrong-shape": lambda text: _cell(
        {"format": CACHE_FORMAT_VERSION, "stats": "not-a-mapping"}
    ),
    "empty": lambda text: b"",
    "not-utf8": lambda text: b"\xff\xfe" + text.encode("utf-8"),
    "top-level-list": lambda text: _cell([1, 2]),
    "top-level-null": lambda text: _cell(None),
    "top-level-number": lambda text: _cell(42),
    "top-level-string": lambda text: _cell("cell"),
    "no-format": lambda text: _cell({"stats": {"cycles": 1}}),
    "format-as-string": lambda text: _cell(
        {"format": str(CACHE_FORMAT_VERSION), "stats": {"cycles": 1}}
    ),
    "no-stats": lambda text: _cell({"format": CACHE_FORMAT_VERSION}),
    "stats-null": lambda text: _cell({"format": CACHE_FORMAT_VERSION, "stats": None}),
    "stats-list": lambda text: _cell(
        {"format": CACHE_FORMAT_VERSION, "stats": ["cycles", 1]}
    ),
    "stats-number": lambda text: _cell({"format": CACHE_FORMAT_VERSION, "stats": 42}),
    # A mapping that names no counter, or all but one, would load as
    # zeros where counters are missing.
    "stats-no-counter": lambda text: _cell(
        {"format": CACHE_FORMAT_VERSION, "stats": {"note": 1}}
    ),
    "stats-one-counter-missing": lambda text: _cell(
        {
            "format": CACHE_FORMAT_VERSION,
            "stats": {
                key: value
                for key, value in json.loads(text)["stats"].items()
                if key != "cycles"
            },
        }
    ),
}


class TestResultCacheQuarantine:
    @pytest.mark.parametrize("corruption", list(CELL_CORRUPTIONS))
    def test_corrupt_entry_is_quarantined_once(self, tmp_path, corruption):
        cache = ResultCache(tmp_path)
        fingerprint = _store_cell(cache)
        path = cache.path_for(fingerprint)
        content = CELL_CORRUPTIONS[corruption](path.read_text())
        path.write_bytes(content)

        assert cache.load(fingerprint) is None  # clean miss, no crash
        assert cache.quarantined == 1
        assert not path.exists()
        quarantined = cache.quarantine_path(fingerprint)
        # Visible for post-mortem, byte for byte.
        assert quarantined.read_bytes() == content

        # Second lookup: plain miss, nothing new to quarantine.
        assert cache.load(fingerprint) is None
        assert cache.quarantined == 1

        # A fresh store lands cleanly and hits.
        _store_cell(cache, fingerprint)
        assert cache.load(fingerprint).cycles == 42
        stats = cache.cache_stats()
        assert stats["quarantined"] == 1

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
            assert cache.degraded_stores == 2
            assert cache.load("a" * 8).cycles == 42  # served from memory
            assert cache.load("b" * 8).cycles == 42
        assert len(cache) == 0  # nothing reached the disk

    def test_a_healthy_store_resumes_persisting(self, tmp_path):
        cache = ResultCache(tmp_path / "cells")
        with installed(READ_ONLY_PLAN):
            with pytest.warns(RuntimeWarning, match="in-memory"):
                fingerprint = _store_cell(cache)
        assert len(cache) == 0
        _store_cell(cache, fingerprint)  # the directory accepts writes again
        assert len(cache) == 1
        # A later process reads the cell from disk.
        assert ResultCache(tmp_path / "cells").load(fingerprint).cycles == 42

    def test_degraded_warning_is_once_per_directory(self, tmp_path):
        with installed(READ_ONLY_PLAN):
            for name in ("one", "two"):
                cache = ResultCache(tmp_path / name)
                with pytest.warns(RuntimeWarning, match=name):
                    _store_cell(cache, "a" * 8)
                _store_cell(cache, "b" * 8)  # same directory: no warning
                assert cache.degraded_stores == 2


@pytest.mark.parametrize("kind", ["result", "trace"])
def test_read_error_is_a_miss_not_a_quarantine(tmp_path, kind):
    """An injected read error (``cache.load``) is a plain miss on either
    cache: the file may be intact, so it stays, and reads back after."""
    if kind == "result":
        cache = ResultCache(tmp_path)
        fingerprint = _store_cell(cache)
        load_args = ()
    else:
        program = build_benchmark("gzip")
        cache = TraceCache(tmp_path)
        fingerprint = trace_fingerprint(program, 200)
        cache.store(fingerprint, get_trace_columns(program, 200, live=True))
        load_args = (program,)
    with installed(
        FaultPlan(seed=1, rate=1.0, fire_limit=1, sites=("cache.load",))
    ) as injector:
        assert cache.load(fingerprint, *load_args) is None  # injected EIO: miss
    assert injector.fired_total() == 1
    assert (cache.misses, cache.quarantined) == (1, 0)
    assert cache.path_for(fingerprint).exists()  # file left alone
    assert cache.load(fingerprint, *load_args) is not None  # intact afterwards
    assert cache.hits == 1


def _edit_trace_header(edit):
    """A corruption that rewrites a stored trace's JSON header line."""

    def corrupt(blob: bytes) -> bytes:
        line, payload = blob.split(b"\n", 1)
        header = json.loads(line)
        edit(header)
        return json.dumps(header).encode("utf-8") + b"\n" + payload

    return corrupt


def _replace_trace_header(line: bytes):
    return lambda blob: line + b"\n" + blob.split(b"\n", 1)[1]


#: Malformed trace files by class, each a function of the stored file's
#: bytes (a 200-entry trace: ``length == 200``).
TRACE_CORRUPTIONS = {
    "truncated": lambda blob: blob[: len(blob) // 2],
    "bad-magic": _replace_trace_header(b'{"format": -1}'),
    "bad-header": _replace_trace_header(b"not a header"),
    "empty": lambda blob: b"",
    "header-not-an-object": _replace_trace_header(b"[1, 2]"),
    "header-not-utf8": _replace_trace_header(b"\x80\x81"),
    "no-length": _edit_trace_header(lambda header: header.pop("length")),
    "no-byteorder": _edit_trace_header(lambda header: header.pop("byteorder")),
    "length-a-string": _edit_trace_header(lambda header: header.update(length="200")),
    "length-a-float": _edit_trace_header(lambda header: header.update(length=200.0)),
    "length-true": _edit_trace_header(lambda header: header.update(length=True)),
    "negative-length": _edit_trace_header(lambda header: header.update(length=-200)),
    "trailing-bytes": lambda blob: blob + bytes(25),
}


class TestTraceCacheQuarantine:
    @pytest.fixture()
    def stored_trace(self, tmp_path):
        program = build_benchmark("gzip")
        trace = get_trace_columns(program, 200, live=True)
        cache = TraceCache(tmp_path)
        fingerprint = trace_fingerprint(program, 200)
        cache.store(fingerprint, trace)
        return cache, fingerprint, program

    @pytest.mark.parametrize("corruption", list(TRACE_CORRUPTIONS))
    def test_corrupt_trace_is_quarantined_once(self, stored_trace, corruption):
        cache, fingerprint, program = stored_trace
        path = cache.path_for(fingerprint)
        blob = TRACE_CORRUPTIONS[corruption](path.read_bytes())
        path.write_bytes(blob)

        assert cache.load(fingerprint, program) is None  # clean miss
        assert cache.quarantined == 1
        assert not path.exists()
        assert (cache.directory / "quarantine" / path.name).read_bytes() == blob

        # The re-store lands cleanly and round-trips.
        writer_stores = cache.stores
        program2 = build_benchmark("gzip")
        cache.store(fingerprint, get_trace_columns(program2, 200, live=True))
        assert cache.stores == writer_stores + 1
        assert cache.load(fingerprint, program).length == 200

    @pytest.mark.parametrize(
        "corruption",
        ["length-a-string", "length-a-float", "length-true", "negative-length"],
    )
    def test_a_malformed_length_fails_its_own_check(self, stored_trace, corruption):
        """The reader turns a ``length`` that is not a non-negative int
        away by checking it, before any arithmetic could misread it."""
        cache, fingerprint, _ = stored_trace
        path = cache.path_for(fingerprint)
        path.write_bytes(TRACE_CORRUPTIONS[corruption](path.read_bytes()))
        with pytest.raises(ValueError, match="trace length is not a non-negative integer"):
            cache._read_columns(cache.path_for(fingerprint))

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
# The chaos soak gate
# ----------------------------------------------------------------------
#: The soak matrix: 5 seeded plans over every fault site.
SOAK_PLANS = tuple(
    FaultPlan(seed=seed, rate=0.15, fire_limit=1, sleep_scale=0.05)
    for seed in (1, 2, 3, 4, 5)
)


def _run_grid(cache_dir, workers: int) -> dict[tuple[str, str], dict]:
    # Every grid starts cold: a trace left in the process memo by an
    # earlier grid would be replayed from memory, and no trace would be
    # stored under the fault plan.
    clear_trace_memo()
    runner = ParallelSuiteRunner(TINY_CONFIG, workers=workers, cache_dir=str(cache_dir))
    results = runner.run_suite(techniques=SOAK_TECHNIQUES)
    return {
        key: dataclasses.asdict(result.stats) for key, result in results.items()
    }


def _assert_tree_clean(cache_dir) -> None:
    """Every cell persisted, and no temp orphan anywhere in the tree."""
    assert len(ResultCache(cache_dir)) == 6
    for path in cache_dir.rglob(TMP_PREFIX + "*"):
        raise AssertionError(f"orphaned temp file survived the sweep: {path}")


@pytest.mark.parametrize("workers", [1, 2])
# A trace store has no retry: under an injected fault it is a counted
# no-op that warns once per directory, and the trace is re-emulated.
@pytest.mark.filterwarnings(
    "ignore:trace cache .* is not accepting writes:RuntimeWarning"
)
class TestChaosSoak:
    def test_grid_is_bit_identical_under_fault_matrix(self, tmp_path, workers):
        baseline = _run_grid(tmp_path / "fault-free", workers)
        assert len(baseline) == 6

        for plan in SOAK_PLANS:
            cache_dir = tmp_path / f"seed{plan.seed}"
            with installed(plan):
                chaos = _run_grid(cache_dir, workers)
            # Bit-identical statistics, cell by cell.
            assert chaos == baseline, f"stats diverged under {plan.to_spec()}"
            # Injected crashes may leave orphan temp debris *by design*;
            # the documented sweep must reclaim every byte of it.
            gc_cache_tree(cache_dir, tmp_max_age_seconds=0.0)
            _assert_tree_clean(cache_dir)

    def test_soak_matrix_fires_faults_somewhere(self, tmp_path, workers):
        """The matrix is only a gate if it actually injects: across the
        5 seeds at rate 0.15 the schedule must fire a healthy number of
        faults in aggregate (a silent matrix would vacuously pass).
        Pool workers fire on their own copies of the injector, so this
        counts the faults fired in this process."""
        total = 0
        for plan in SOAK_PLANS:
            cache_dir = tmp_path / f"seed{plan.seed}"
            with installed(plan) as injector:
                _run_grid(cache_dir, workers)
                total += injector.fired_total()
        assert total >= 10, f"fault matrix only fired {total} fault(s)"


@pytest.fixture(scope="module")
def fault_free_grid(tmp_path_factory):
    """The soak grid's statistics, run in-process with no plan of its own."""
    return _run_grid(tmp_path_factory.mktemp("fault-free"), 1)


#: One plan per fault site at full rate: every (site, key) pair the grid
#: reaches faults once, so each site's recovery path runs on every cell.
SITE_PLANS = {
    site: FaultPlan(seed=1, rate=1.0, fire_limit=1, sites=(site,), sleep_scale=0.0)
    for site in FAULT_SITES
}


@pytest.mark.filterwarnings(
    "ignore:trace cache .* is not accepting writes:RuntimeWarning"
)
class TestSiteSoak:
    """Each fault site alone, firing on every cell: the seeded matrix above
    reaches the sites at random, this covers every one of them for sure."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_each_site_alone_leaves_the_grid_bit_identical(
        self, tmp_path, fault_free_grid, site, workers
    ):
        cache_dir = tmp_path / "cache"
        with installed(SITE_PLANS[site]) as injector:
            chaos = _run_grid(cache_dir, workers)
            fired = injector.fired_total()
        assert chaos == fault_free_grid
        # The result cache is read and written by this process for any
        # worker count, so the site fired here once per cell at least.
        assert fired >= 6
        gc_cache_tree(cache_dir, tmp_max_age_seconds=0.0)
        _assert_tree_clean(cache_dir)
