"""Crash-path coverage for :mod:`repro.atomicio`.

The orphan contract both caches rely on: a writer killed
mid-store leaves only a ``.tmp-*`` temp file — never a partial final
file, and never clobbered old content — and the offline ``cache gc``
sweep removes that debris by age while leaving fresh in-flight temp
files alone.  The kill tests use a real subprocess SIGKILLed from
inside the write callback, so no ``finally`` block gets to clean up —
exactly the failure the gc sweeper exists for.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.atomicio import TMP_PREFIX, publish_atomically
from repro.harness.cache import ResultCache, collect_garbage, gc_cache_tree
from repro.uarch.trace import TraceCache, trace_fingerprint
from repro.workloads import build_benchmark

KILLED_WRITER_SCRIPT = """
import os, signal, sys
from repro.atomicio import publish_atomically

def write(handle):
    handle.write("partial payload that must never become the final file")
    handle.flush()
    os.kill(os.getpid(), signal.SIGKILL)

publish_atomically(sys.argv[1], write)
"""


#: A cache store (``result`` or ``trace``, into the directory given)
#: whose process is SIGKILLed at the publication hook right before the
#: rename, with its temp file complete.
KILLED_CACHE_STORE_SCRIPT = """
import os, signal, sys
import repro.atomicio as atomicio
from repro.harness.cache import ResultCache
from repro.uarch import SimulationStats
from repro.uarch.trace import TraceCache, get_trace_columns, trace_fingerprint
from repro.workloads import build_benchmark

def die(site, key, temp_path=None):
    if site == "atomicio.crash-before-replace":
        os.kill(os.getpid(), signal.SIGKILL)

kind, directory = sys.argv[1], sys.argv[2]
program = build_benchmark("gzip")
columns = get_trace_columns(program, 200, live=True)
atomicio._fault_hook = die
if kind == "result":
    ResultCache(directory).store("a" * 64, SimulationStats(cycles=42))
else:
    TraceCache(directory).store(trace_fingerprint(program, 200), columns)
"""


def run_killed_writer(destination: Path) -> subprocess.CompletedProcess:
    """Run a subprocess that dies via SIGKILL mid-``publish_atomically``."""
    return run_killed(KILLED_WRITER_SCRIPT, str(destination))


def run_killed(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a subprocess that must die by SIGKILL."""
    src_root = str(Path(next(iter(repro.__path__))).parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    process = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert process.returncode == -signal.SIGKILL, process.stderr
    return process


def tmp_orphans(directory: Path) -> list[Path]:
    return sorted(directory.glob(TMP_PREFIX + "*"))


def test_killed_writer_leaves_only_a_tmp_orphan(tmp_path):
    destination = tmp_path / "cell.json"
    run_killed_writer(destination)
    assert not destination.exists()  # never a partial final file
    orphans = tmp_orphans(tmp_path)
    assert len(orphans) == 1
    # The orphan holds whatever was flushed before death — debris, not
    # a readable cache entry, which is why it must carry TMP_PREFIX.
    assert "partial payload" in orphans[0].read_text(encoding="utf-8")


def test_killed_writer_never_clobbers_existing_destination(tmp_path):
    destination = tmp_path / "cell.json"
    destination.write_text("committed old content", encoding="utf-8")
    run_killed_writer(destination)
    assert destination.read_text(encoding="utf-8") == "committed old content"
    assert len(tmp_orphans(tmp_path)) == 1


def test_gc_sweeps_orphans_by_age_but_spares_fresh_writers(tmp_path):
    destination = tmp_path / "cell.json"
    run_killed_writer(destination)
    (orphan,) = tmp_orphans(tmp_path)

    # Default age guard: a fresh temp file may belong to a live writer.
    summary = collect_garbage(tmp_path)
    assert summary["tmp_removed"] == 0
    assert orphan.exists()

    # Age 0 treats everything as orphaned — the offline sweep's job.
    summary = collect_garbage(tmp_path, tmp_max_age_seconds=0.0)
    assert summary["tmp_removed"] == 1
    assert not orphan.exists()


def test_gc_cache_tree_sweeps_killed_writers_across_the_tree(tmp_path):
    # Orphans in the result cache root and the traces/ subdirectory,
    # exactly where killed store() / TraceCache writers leave them.
    run_killed_writer(tmp_path / "cell.json")
    (tmp_path / "traces").mkdir()
    run_killed_writer(tmp_path / "traces" / "abc.trace.bin")
    summaries = gc_cache_tree(tmp_path, tmp_max_age_seconds=0.0)
    assert sum(s["tmp_removed"] for s in summaries) == 2
    assert tmp_orphans(tmp_path) == []
    assert tmp_orphans(tmp_path / "traces") == []


@pytest.mark.parametrize("kind", ["result", "trace"])
def test_killed_cache_store_leaves_only_a_sweepable_orphan(tmp_path, kind):
    """Both cache writers keep the orphan contract: a store killed just
    before its rename publishes nothing, the next load is a plain miss
    with nothing to quarantine, and ``cache gc`` sweeps the debris."""
    directory = tmp_path if kind == "result" else tmp_path / "traces"
    run_killed(KILLED_CACHE_STORE_SCRIPT, kind, str(directory))
    (orphan,) = tmp_orphans(directory)
    assert orphan.stat().st_size > 0  # complete, and still debris

    if kind == "result":
        cache = ResultCache(directory)
        assert cache.load("a" * 64) is None
    else:
        cache = TraceCache(directory)
        program = build_benchmark("gzip")
        assert cache.load(trace_fingerprint(program, 200), program) is None
    assert len(cache) == 0
    assert (cache.misses, cache.quarantined) == (1, 0)

    gc_cache_tree(tmp_path, tmp_max_age_seconds=0.0)
    assert tmp_orphans(directory) == []


def test_publish_failure_cleans_temp_and_reraises(tmp_path):
    destination = tmp_path / "cell.json"

    def explode(handle):
        handle.write("doomed")
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        publish_atomically(destination, explode)
    assert not destination.exists()
    assert tmp_orphans(tmp_path) == []


def test_publish_replaces_existing_content_atomically(tmp_path):
    destination = tmp_path / "cell.json"
    publish_atomically(destination, lambda handle: handle.write("one"))
    publish_atomically(destination, lambda handle: handle.write("two"))
    assert destination.read_text(encoding="utf-8") == "two"
    assert tmp_orphans(tmp_path) == []

