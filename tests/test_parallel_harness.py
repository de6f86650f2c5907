"""Equivalence and caching tests for the parallel experiment engine.

The contract: :class:`ParallelSuiteRunner` is a drop-in replacement for
the serial :class:`SuiteRunner` — identical metrics for any worker count
— and a warm on-disk cache eliminates simulation entirely.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness import (
    ParallelSuiteRunner,
    RunConfig,
    SimulationJob,
    SuiteRunner,
)
from repro.harness.cache import (
    ResultCache,
    stats_from_dict,
    stats_to_dict,
)
from repro.harness import parallel as parallel_module
from repro.harness.parallel import run_simulation_job
from repro.uarch import SimulationStats, TraceCache
from repro.uarch.trace import clear_trace_memo


#: A tiny grid that still crosses hardware-only and software techniques
#: and includes an extended-family benchmark.
TINY_CONFIG = RunConfig(
    benchmarks=("gzip", "ptrthrash"),
    max_instructions=2_500,
    warmup_instructions=500,
)
TINY_TECHNIQUES = ("baseline", "abella", "noop")


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
            "evictions": 0,
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

    def test_gc_tree_covers_traces_and_queue(self, tmp_path):
        import os
        import time

        from repro.harness.cache import gc_cache_tree

        ResultCache(tmp_path).store("a" * 64, SimulationStats(cycles=1))
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "t.trace.bin").write_bytes(b"x" * 100)
        (traces / "u.trace.bin").write_bytes(b"y" * 100)
        queue_pending = tmp_path / "queue" / "pending"
        queue_pending.mkdir(parents=True)
        job_file = queue_pending / ("b" * 64 + ".json")
        job_file.write_text("{}")
        orphan = queue_pending / ".tmp-dead.json"
        orphan.write_text("{}")
        stale = time.time() - 7200
        os.utime(orphan, (stale, stale))

        queue_done = tmp_path / "queue" / "done"
        queue_done.mkdir(parents=True)
        fresh_marker = queue_done / ("c" * 64 + ".json")
        fresh_marker.write_text("{}")
        old_marker = queue_done / ("d" * 64 + ".json")
        old_marker.write_text("{}")
        ancient = time.time() - 8 * 24 * 3600
        os.utime(old_marker, (ancient, ancient))

        summaries = gc_cache_tree(tmp_path, max_trace_bytes=100)
        by_dir = {s["directory"]: s for s in summaries}
        assert by_dir[str(traces)]["entries_removed"] == 1
        assert by_dir[str(queue_pending)]["tmp_removed"] == 1
        # Live queue protocol files are never gc victims...
        assert job_file.exists()
        # ...but consumed completion markers expire by age.
        assert by_dir[str(queue_done)]["entries_removed"] == 1
        assert not old_marker.exists()
        assert fresh_marker.exists()

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
