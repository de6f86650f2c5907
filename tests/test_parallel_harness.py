"""Equivalence and caching tests for the parallel experiment engine.

The contract: :class:`ParallelSuiteRunner` is a drop-in replacement for
the serial :class:`SuiteRunner` — identical metrics for any worker count
— and a warm on-disk cache eliminates simulation entirely.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import os
import time
from pathlib import Path

import pytest

from repro.harness import (
    ParallelSuiteRunner,
    RunConfig,
    SimulationJob,
    SuiteRunner,
)
from repro.harness.cache import (
    QUARANTINE_DIR_NAME,
    QUARANTINE_MAX_AGE_SECONDS,
    ResultCache,
    collect_garbage,
    gc_cache_tree,
    stats_from_dict,
    stats_to_dict,
)
from repro.harness.faults import installed
from repro.harness import parallel as parallel_module
from repro.harness.parallel import run_simulation_job
from repro.uarch import SimulationStats, TraceCache
from repro.uarch.trace import clear_trace_memo, get_trace_columns
from repro.workloads import build_benchmark
from test_faults import READ_ONLY_PLAN


#: A tiny grid that still crosses hardware-only and software techniques
#: and includes an extended-family benchmark.
TINY_CONFIG = RunConfig(
    benchmarks=("gzip", "ptrthrash"),
    max_instructions=2_500,
    warmup_instructions=500,
)
TINY_TECHNIQUES = ("baseline", "abella", "noop")


def _grid_stats(results) -> dict:
    return {key: dataclasses.asdict(result.stats) for key, result in results.items()}


def _grid_metrics(runner) -> dict:
    return {
        (benchmark, technique): dataclasses.asdict(runner.metrics(benchmark, technique))
        for benchmark in TINY_CONFIG.benchmarks
        for technique in TINY_TECHNIQUES
    }


class TestSerialEquivalence:
    def test_single_worker_reproduces_serial_metrics_exactly(self, suite_workers):
        serial = SuiteRunner(TINY_CONFIG)
        parallel = ParallelSuiteRunner(TINY_CONFIG, workers=suite_workers)
        parallel.run_suite(techniques=TINY_TECHNIQUES)
        assert _grid_metrics(parallel) == _grid_metrics(serial)

    def test_lazy_result_path_matches_run_suite(self):
        eager = ParallelSuiteRunner(TINY_CONFIG, workers=1)
        eager.run_suite(techniques=TINY_TECHNIQUES)
        lazy = ParallelSuiteRunner(TINY_CONFIG, workers=1)
        assert _grid_metrics(lazy) == _grid_metrics(eager)

    def test_software_results_keep_their_compilation(self):
        runner = ParallelSuiteRunner(TINY_CONFIG, workers=1)
        runner.run_suite(techniques=TINY_TECHNIQUES)
        assert runner.result("gzip", "noop").compilation is not None
        assert runner.result("gzip", "baseline").compilation is None


class TestDiskCache:
    def test_warm_cache_runs_zero_simulations(self, tmp_path):
        cold = ParallelSuiteRunner(TINY_CONFIG, workers=1, cache_dir=str(tmp_path))
        cold.run_suite(techniques=TINY_TECHNIQUES)
        expected_cells = len(TINY_CONFIG.benchmarks) * len(TINY_TECHNIQUES)
        assert cold.simulations_run == expected_cells

        warm = ParallelSuiteRunner(TINY_CONFIG, workers=1, cache_dir=str(tmp_path))
        warm.run_suite(techniques=TINY_TECHNIQUES)
        assert warm.simulations_run == 0
        assert warm.cache.hits == expected_cells
        assert _grid_metrics(warm) == _grid_metrics(cold)

    def test_cached_results_compile_on_first_read(self, tmp_path, monkeypatch):
        """A result-cache hit compiles nothing; reading a software
        result's compilation compiles its program once, through the
        runner's memo."""
        from repro.harness import experiment

        cold = ParallelSuiteRunner(TINY_CONFIG, workers=1, cache_dir=str(tmp_path))
        cold.run_suite(techniques=TINY_TECHNIQUES)
        compiles = []
        original = experiment.compile_program

        def counting(program, *args, **kwargs):
            compiles.append(program.name)
            return original(program, *args, **kwargs)

        monkeypatch.setattr(experiment, "compile_program", counting)
        warm = ParallelSuiteRunner(TINY_CONFIG, workers=1, cache_dir=str(tmp_path))
        warm.run_suite(techniques=TINY_TECHNIQUES)
        assert compiles == []
        noop = warm.result("gzip", "noop")
        assert noop.compilation is noop.compilation is warm.compilation("gzip", "noop")
        assert compiles == ["gzip"]

    def test_changed_configuration_misses_the_cache(self, tmp_path):
        base_job = SimulationJob("gzip", "baseline", TINY_CONFIG)
        changed = dataclasses.replace(TINY_CONFIG, warmup_instructions=501)
        changed_job = SimulationJob("gzip", "baseline", changed)
        assert base_job.fingerprint() != changed_job.fingerprint()
        # Same inputs, same key.
        assert base_job.fingerprint() == SimulationJob(
            "gzip", "baseline", TINY_CONFIG
        ).fingerprint()

    def test_each_cell_is_fingerprinted_once(self, tmp_path, monkeypatch):
        """Looking an uncached cell up and storing it digest its inputs
        once between them."""
        techniques = []
        fingerprint = parallel_module.simulation_fingerprint

        def counted(*args):
            techniques.append(args[1])
            return fingerprint(*args)

        monkeypatch.setattr(parallel_module, "simulation_fingerprint", counted)
        runner = ParallelSuiteRunner(TINY_CONFIG, workers=1, cache_dir=str(tmp_path))
        runner.run_suite(techniques=TINY_TECHNIQUES)
        assert sorted(techniques) == sorted(TINY_TECHNIQUES * len(TINY_CONFIG.benchmarks))

    def test_different_techniques_use_different_keys(self):
        keys = {
            SimulationJob("gzip", technique, TINY_CONFIG).fingerprint()
            for technique in TINY_TECHNIQUES
        }
        assert len(keys) == len(TINY_TECHNIQUES)

    def test_cache_roundtrip_preserves_all_counters(self, tmp_path):
        stats = SimulationStats(
            cycles=123, committed_instructions=456, rf_writes=7, iq_cmp_gated=8
        )
        stats.extra["note"] = 1.5
        cache = ResultCache(tmp_path)
        key = "a" * 64
        cache.store(key, stats, benchmark="gzip", technique="baseline")
        loaded = cache.load(key)
        assert dataclasses.asdict(loaded) == dataclasses.asdict(stats)
        assert cache.stores == 1 and cache.hits == 1

    def test_missing_entry_counts_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("b" * 64) is None
        assert cache.misses == 1
        assert len(cache) == 0

    def test_orphaned_writer_temp_files_are_not_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("c" * 64, SimulationStats(cycles=1))
        (tmp_path / ".tmp-orphan.json").write_text("{}")  # killed writer
        assert len(cache) == 1

    def test_malformed_payload_counts_as_miss(self, tmp_path):
        """Valid JSON without a ``"stats"`` counter mapping — a foreign
        file, or one truncated and rewritten by another tool — must count
        a miss and re-simulate, not raise ``KeyError`` mid-run."""
        from repro.harness.cache import CACHE_FORMAT_VERSION

        cache = ResultCache(tmp_path)
        fingerprint = "d" * 64
        tmp_path.mkdir(parents=True, exist_ok=True)
        version = CACHE_FORMAT_VERSION
        for payload in (
            '{"benchmark": "gzip"}',  # no format marker, no stats
            '{"stats": 42}',  # no format marker
            f'{{"format": {version}}}',  # our format, stats missing
            f'{{"format": {version}, "stats": 42}}',  # stats not a mapping
            f'{{"format": {version}, "stats": ["cycles", 1]}}',
            '{"format": 999, "stats": {"cycles": 1}}',  # foreign format
            '["not", "an", "object"]',
        ):
            cache.path_for(fingerprint).write_text(payload)
            assert cache.load(fingerprint) is None, payload
        assert cache.misses == 7
        assert cache.hits == 0


def _counter_deltas(cache, names, action) -> dict:
    """How far each of ``names`` in ``cache.cache_stats()`` moves over
    ``action()``, zeros left out."""
    before = cache.cache_stats()
    action()
    after = cache.cache_stats()
    return {name: after[name] - before[name] for name in names if after[name] != before[name]}


def _corrupt(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"\x00 not a cache entry")


@functools.lru_cache(maxsize=1)
def _gzip_trace():
    """gzip and its 200-instruction trace columns."""
    program = build_benchmark("gzip")
    return program, get_trace_columns(program, 200, live=True)


class _ResultEntries:
    """Entries of a :class:`ResultCache`, one cell per key letter."""

    warning = "in-memory"

    def __init__(self, directory: Path):
        self.cache = ResultCache(directory)

    def store(self, key: str = "a") -> Path:
        return self.cache.store(key * 64, SimulationStats(cycles=7))

    def load(self, key: str = "a"):
        return self.cache.load(key * 64)


class _TraceEntries:
    """Entries of a :class:`TraceCache`: gzip's trace under each key."""

    warning = "re-emulated"

    def __init__(self, directory: Path):
        self.cache = TraceCache(directory)
        self.program, self.columns = _gzip_trace()

    def store(self, key: str = "a") -> Path:
        return self.cache.store(key * 64, self.columns)

    def load(self, key: str = "a"):
        return self.cache.load(key * 64, self.program)


@pytest.fixture(params=["result", "trace"])
def entries(request, tmp_path):
    kind = {"result": _ResultEntries, "trace": _TraceEntries}[request.param]
    return kind(tmp_path / request.param)


class TestEntryStore:
    """What both caches share (:class:`repro.atomicio.EntryStore`), checked
    once per cache: the counters behind ``cache_stats()`` are plain ints,
    each event moves only its own counters, and a hit refreshes the
    recency by which ``cache gc`` evicts."""

    COUNTERS = ("hits", "misses", "stores", "quarantined", "degraded_stores")

    @staticmethod
    def _store_read_only(entries):
        with installed(READ_ONLY_PLAN):
            with pytest.warns(RuntimeWarning, match=entries.warning):
                entries.store()

    @pytest.mark.parametrize("counter", COUNTERS)
    def test_each_event_moves_only_its_counters(self, entries, counter):
        setup, action, expected = {
            "hits": (entries.store, entries.load, {"hits": 1}),
            "misses": (lambda: None, entries.load, {"misses": 1}),
            "stores": (lambda: None, entries.store, {"stores": 1}),
            "quarantined": (
                lambda: _corrupt(entries.cache.path_for("a" * 64)),
                entries.load,
                {"misses": 1, "quarantined": 1},
            ),
            "degraded_stores": (
                lambda: None,
                lambda: self._store_read_only(entries),
                {"degraded_stores": 1},
            ),
        }[counter]
        setup()
        assert _counter_deltas(entries.cache, self.COUNTERS, action) == expected
        assert type(getattr(entries.cache, counter)) is int

    def test_cache_stats_keys_are_stable(self, entries):
        """``--cache-stats`` prints both caches through one formatter over
        these keys."""
        assert set(entries.cache.cache_stats()) == {
            "directory",
            "entries",
            "total_bytes",
            *self.COUNTERS,
        }

    def test_cache_stats_reports_traffic_and_size(self, entries):
        path = entries.store()
        assert entries.load() is not None
        assert entries.load("b") is None
        report = entries.cache.cache_stats()
        assert report["entries"] == len(entries.cache) == 1
        assert report["total_bytes"] == path.stat().st_size > 0
        assert (report["hits"], report["misses"], report["stores"]) == (1, 1, 1)

    def test_hits_refresh_recency(self, entries):
        """After a hit refreshes the older entry's mtime, a one-entry gc
        sweep keeps that entry and evicts the other."""
        for offset, key in ((-100, "a"), (-50, "b")):
            path = entries.store(key)
            os.utime(path, (time.time() + offset, time.time() + offset))
        assert entries.load("a") is not None
        directory = entries.cache.directory
        summary = collect_garbage(directory, "*" + entries.cache.SUFFIX, max_entries=1)
        assert summary["entries_removed"] == 1
        assert {path.name[0] for path in entries.cache._entry_paths()} == {"a"}


class TestWorkerTraceCounters:
    """Trace-cache traffic observed inside pool workers must reach the
    runner's ``TraceCache`` instead of dying with the worker process."""

    def test_job_payload_reports_local_cache_deltas(self, tmp_path):
        job = SimulationJob(
            "gzip", "baseline", TINY_CONFIG, trace_cache_dir=str(tmp_path)
        )
        clear_trace_memo()
        payload = run_simulation_job(job)
        assert payload["trace_cache"] == {
            "hits": 0,
            "misses": 1,
            "stores": 1,
            "quarantined": 0,
            "degraded_stores": 0,
        }
        clear_trace_memo()
        assert run_simulation_job(job)["trace_cache"]["hits"] == 1

    def test_in_process_path_reports_no_deltas(self, tmp_path):
        """With the runner's live cache passed in, counters accumulate on
        it directly; shipping deltas too would double count."""
        cache = TraceCache(tmp_path)
        job = SimulationJob(
            "gzip", "baseline", TINY_CONFIG, trace_cache_dir=str(tmp_path)
        )
        clear_trace_memo()
        payload = run_simulation_job(job, None, cache)
        assert "trace_cache" not in payload
        assert cache.misses == 1 and cache.stores == 1

    def test_pool_worker_traffic_folds_into_the_runner(self, tmp_path):
        clear_trace_memo()
        runner = ParallelSuiteRunner(TINY_CONFIG, workers=2, cache_dir=str(tmp_path))
        runner.run_suite(techniques=("baseline", "abella"))
        cache = runner.trace_cache
        # Every cell ran in a worker, yet the traffic is visible here:
        # each of the two benchmarks was emulated and stored at least
        # once (after a counted miss), and before the fold fix all four
        # counters stayed at zero on parallel runs.
        assert cache.stores >= 2
        assert cache.misses >= 2
        assert cache.hits + cache.misses + cache.stores > 0


    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_counter_reaches_the_runner(self, tmp_path, workers):
        """Stored traces overwritten with junk are quarantined wherever the
        cells run: a pool worker ships every counter, ``quarantined``
        included, and the runner folds them all."""
        traces = tmp_path / "traces"
        clear_trace_memo()
        ParallelSuiteRunner(TINY_CONFIG, workers=1, trace_cache_dir=str(traces)).run_suite(
            techniques=("baseline",)
        )
        stored = sorted(traces.glob("*.trace.bin"))
        assert len(stored) == len(TINY_CONFIG.benchmarks)
        for path in stored:
            _corrupt(path)
        clear_trace_memo()
        runner = ParallelSuiteRunner(TINY_CONFIG, workers=workers, trace_cache_dir=str(traces))
        runner.run_suite(techniques=("baseline",))
        cache = runner.trace_cache
        assert {name: getattr(cache, name) for name in TestEntryStore.COUNTERS} == {
            "hits": 0,
            "misses": 2,
            "stores": 2,
            "quarantined": 2,
            "degraded_stores": 0,
        }


class TestStatsSerialisation:
    def test_roundtrip_identity(self):
        stats = SimulationStats(cycles=42, iq_broadcasts=9)
        assert dataclasses.asdict(stats_from_dict(stats_to_dict(stats))) == (
            dataclasses.asdict(stats)
        )

    def test_unknown_fields_are_ignored(self):
        payload = stats_to_dict(SimulationStats(cycles=1))
        payload["counter_from_the_future"] = 99
        assert stats_from_dict(payload).cycles == 1


class TestWorkerValidation:
    def test_rejects_nonpositive_worker_counts(self):
        with pytest.raises(ValueError):
            ParallelSuiteRunner(TINY_CONFIG, workers=0)

    def test_env_default_is_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        runner = ParallelSuiteRunner(TINY_CONFIG)
        assert runner.workers == 3

    # "queue" names the retired work-queue backend: "local" is the only
    # value left.
    @pytest.mark.parametrize("backend", ["carrier-pigeon", "queue"])
    def test_unknown_backend_is_rejected(self, tmp_path, backend):
        with pytest.raises(ValueError, match="retired"):
            ParallelSuiteRunner(
                TINY_CONFIG, workers=1, cache_dir=str(tmp_path), backend=backend
            )


class TestLocalExecution:
    """One execution path: cells run in-process or over the process pool."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_naming_the_local_backend_changes_nothing(self, workers):
        """gridbench passes ``backend="local"``; the pool and the
        in-process path give the same statistics, and the runner keeps no
        trace of the argument."""
        named = ParallelSuiteRunner(TINY_CONFIG, workers=workers, backend="local")
        in_process = ParallelSuiteRunner(TINY_CONFIG, workers=1)
        assert _grid_stats(named.run_suite(techniques=TINY_TECHNIQUES)) == _grid_stats(
            in_process.run_suite(techniques=TINY_TECHNIQUES)
        )
        assert not hasattr(named, "backend")

    def test_pool_and_in_process_runs_write_identical_cells(self, tmp_path):
        """One cache directory serves any worker count: both paths write
        the same cell files, byte for byte."""
        cells = {}
        for workers in (1, 2):
            clear_trace_memo()
            cache_dir = tmp_path / f"workers-{workers}"
            runner = ParallelSuiteRunner(TINY_CONFIG, workers=workers, cache_dir=str(cache_dir))
            runner.run_suite(techniques=TINY_TECHNIQUES)
            cells[workers] = {path.name: path.read_bytes() for path in cache_dir.glob("*.json")}
        assert len(cells[1]) == len(TINY_CONFIG.benchmarks) * len(TINY_TECHNIQUES)
        assert cells[2] == cells[1]

    def test_retired_backend_is_rejected_without_a_cache_dir(self):
        with pytest.raises(ValueError, match="retired"):
            ParallelSuiteRunner(TINY_CONFIG, workers=1, backend="queue")


class TestCacheGC:
    """Offline maintenance: python -m repro.harness.cache gc <dir>."""

    def test_orphaned_tmp_files_are_swept_by_age(self, tmp_path):
        import os
        import time

        from repro.harness.cache import collect_garbage

        cache = ResultCache(tmp_path)
        cache.store("a" * 64, SimulationStats(cycles=1))
        fresh = tmp_path / ".tmp-fresh.json"
        fresh.write_text("{}")
        orphan = tmp_path / ".tmp-orphan.json"
        orphan.write_text("{}")
        stale = time.time() - 7200
        os.utime(orphan, (stale, stale))

        summary = collect_garbage(tmp_path, tmp_max_age_seconds=3600)
        assert summary["tmp_removed"] == 1
        assert not orphan.exists()
        assert fresh.exists()  # a live writer may still own it
        assert summary["entries_before"] == 1 and summary["entries_removed"] == 0
        assert cache.load("a" * 64) is not None

    def test_entry_and_byte_caps_evict_lru(self, tmp_path):
        import os
        import time

        from repro.harness.cache import collect_garbage

        cache = ResultCache(tmp_path)
        now = time.time()
        for index in range(5):
            path = cache.store(str(index) * 64, SimulationStats(cycles=index))
            os.utime(path, (now - 100 + index, now - 100 + index))

        summary = collect_garbage(tmp_path, max_entries=3)
        assert summary["entries_removed"] == 2
        assert cache.load("0" * 64) is None  # oldest went first
        assert cache.load("4" * 64) is not None

        entry_bytes = cache.path_for("4" * 64).stat().st_size
        summary = collect_garbage(tmp_path, max_bytes=entry_bytes)
        assert summary["entries_removed"] == 2
        assert len(cache) == 1

    def test_gc_tree_covers_traces_and_quarantine(self, tmp_path):
        import os
        import time

        from repro.harness.cache import QUARANTINE_MAX_AGE_SECONDS, gc_cache_tree

        ResultCache(tmp_path).store("a" * 64, SimulationStats(cycles=1))
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "t.trace.bin").write_bytes(b"x" * 100)
        (traces / "u.trace.bin").write_bytes(b"y" * 100)
        orphan = traces / ".tmp-dead.trace.bin"
        orphan.write_bytes(b"z")
        stale = time.time() - 7200
        os.utime(orphan, (stale, stale))

        quarantine = tmp_path / "quarantine"
        quarantine.mkdir()
        fresh = quarantine / ("c" * 64 + ".json")
        fresh.write_text("{}")
        old = quarantine / ("d" * 64 + ".json")
        old.write_text("{}")
        expired = time.time() - QUARANTINE_MAX_AGE_SECONDS - 60
        os.utime(old, (expired, expired))

        summaries = gc_cache_tree(tmp_path, max_trace_bytes=100)
        by_dir = {s["directory"]: s for s in summaries}
        assert by_dir[str(tmp_path)]["entries_removed"] == 0
        assert by_dir[str(traces)]["entries_removed"] == 1
        assert by_dir[str(traces)]["tmp_removed"] == 1
        # Quarantined entries expire by age; fresh evidence stays for
        # post-mortem.
        assert by_dir[str(quarantine)]["entries_removed"] == 1
        assert not old.exists()
        assert fresh.exists()

    @pytest.mark.parametrize("entry", ["result-cell", "trace-file"])
    def test_gc_without_caps_keeps_old_live_entries(self, tmp_path, entry):
        """Age alone never expires a live entry: only the caps evict, and
        only quarantined entries expire by age."""
        if entry == "result-cell":
            path = ResultCache(tmp_path).store("a" * 64, SimulationStats(cycles=1))
        else:
            path = tmp_path / "traces" / ("b" * 64 + ".trace.bin")
            path.parent.mkdir()
            path.write_bytes(b"x" * 100)
        ancient = time.time() - 2 * QUARANTINE_MAX_AGE_SECONDS
        os.utime(path, (ancient, ancient))

        summaries = gc_cache_tree(tmp_path)
        assert path.exists()
        assert sum(summary["entries_removed"] for summary in summaries) == 0

    @pytest.mark.parametrize("age", ["inside", "past"])
    @pytest.mark.parametrize("tree", ["results", "traces"])
    def test_quarantine_expires_at_the_week_bound(self, tmp_path, tree, age):
        now = 1_800_000_000.0
        if tree == "results":
            directory = tmp_path / QUARANTINE_DIR_NAME
            entry = directory / ("c" * 64 + ".json")
        else:
            directory = tmp_path / "traces" / QUARANTINE_DIR_NAME
            entry = directory / ("c" * 64 + ".trace.bin")
        directory.mkdir(parents=True)
        entry.write_bytes(b"evidence")
        margin = 60.0 if age == "past" else -60.0
        mtime = now - QUARANTINE_MAX_AGE_SECONDS - margin
        os.utime(entry, (mtime, mtime))

        summaries = gc_cache_tree(tmp_path, now=now)
        removed = {summary["directory"]: summary["entries_removed"] for summary in summaries}
        assert removed[str(directory)] == (1 if age == "past" else 0)
        assert entry.exists() == (age == "inside")

    @pytest.mark.parametrize("leftover", ["queue", "telemetry"])
    def test_directories_left_by_the_retired_queue_are_inert(self, tmp_path, leftover):
        """A cache directory written before the work queue was retired
        may hold ``queue/`` or ``telemetry/``: gc leaves them to be deleted
        by hand, and the runner serves its cells around them."""
        ParallelSuiteRunner(TINY_CONFIG, workers=1, cache_dir=str(tmp_path)).run_suite(
            techniques=("baseline",)
        )
        files = {
            "queue": ("pending/a.json", "done/b.json", ".tmp-c.json"),
            "telemetry": ("spans/host-1.jsonl", "spans/.tmp-host-2.jsonl"),
        }[leftover]
        ancient = time.time() - 30 * 24 * 3600
        for relative in files:
            path = tmp_path / leftover / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{}")
            os.utime(path, (ancient, ancient))

        summaries = gc_cache_tree(tmp_path, tmp_max_age_seconds=0.0)
        swept = {Path(summary["directory"]) for summary in summaries}
        assert not any(tmp_path / leftover in (path, *path.parents) for path in swept)
        assert all((tmp_path / leftover / relative).exists() for relative in files)

        warm = ParallelSuiteRunner(TINY_CONFIG, workers=1, cache_dir=str(tmp_path))
        warm.run_suite(techniques=("baseline",))
        assert warm.simulations_run == 0

    def test_gc_cli_tmp_age_sweeps_orphans(self, tmp_path, capsys):
        from repro.harness.cache import main

        ResultCache(tmp_path).store("a" * 64, SimulationStats(cycles=1))
        orphan = tmp_path / ".tmp-dead.json"
        orphan.write_text("{")
        assert main(["gc", str(tmp_path), "--tmp-age", "0"]) == 0
        assert "removed 1 orphaned tmp" in capsys.readouterr().out
        assert not orphan.exists()

    def test_gc_cli_has_no_done_marker_age(self, tmp_path, capsys):
        """Quarantine expiry is a fixed week; the queue's marker-age
        option went with it."""
        from repro.harness.cache import main

        with pytest.raises(SystemExit) as exit_info:
            main(["gc", str(tmp_path), "--done-age", "60"])
        assert exit_info.value.code == 2
        assert "--done-age" in capsys.readouterr().err

    def test_gc_cli_prints_a_summary(self, tmp_path, capsys):
        from repro.harness.cache import main

        ResultCache(tmp_path).store("a" * 64, SimulationStats(cycles=1))
        assert main(["gc", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "kept 1 entries" in out

    def test_empty_directory_is_a_clean_noop(self, tmp_path):
        from repro.harness.cache import collect_garbage

        summary = collect_garbage(tmp_path / "missing")
        assert summary["entries_before"] == 0
        assert summary["tmp_removed"] == 0


def _figure_report():
    """``benchmarks/figure_report.py``, imported by path."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "figure_report.py"
    spec = importlib.util.spec_from_file_location("figure_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFigureReportCli:
    @pytest.mark.parametrize(
        "option", ["--backend=queue", "--queue-workers=2", "--queue-ttl=30"]
    )
    def test_retired_queue_options_are_rejected(self, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            _figure_report().main([option])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cache_stats_reports_the_two_caches(self, tmp_path, capsys):
        clear_trace_memo()
        runner = ParallelSuiteRunner(TINY_CONFIG, workers=1, cache_dir=str(tmp_path))
        runner.run_suite(techniques=("baseline",))
        _figure_report().print_cache_stats(runner)
        out = capsys.readouterr().out
        result_line, trace_line = out.splitlines()[:2]
        assert result_line.startswith("result cache: 2 entries")
        assert trace_line.startswith("trace cache: 2 entries")
        for line in (result_line, trace_line):
            assert "0 quarantined / 0 degraded stores" in line
        assert "queue" not in out
