"""Contract test: the benchmark's grid pass still runs on this tree.

``gridbench/`` is frozen: it is the benchmark that times the figure
grid, and it reaches into the harness through names it imports or
patches (``ParallelSuiteRunner(backend="local")``, the layer entry
points its tracer wraps, ``trace_events``).  A change under ``src/``
that drops or renames one of them breaks the benchmark without failing
any other test, so this runs small traced passes of the unchanged
``gridbench/grid.py`` against this tree and checks their result files:
a cold pass, and a trace-warm pass over a fresh directory holding only
the cold pass's traces, whose trace reads all hit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.uarch.engine import native

GRID_SCRIPT = Path(__file__).resolve().parents[1] / "gridbench" / "grid.py"


@pytest.mark.skipif(
    not native.native_available(),
    reason=f"native kernel unavailable: {native.native_unavailable_reason()}",
)
def test_frozen_grid_pass_runs_on_this_tree(tmp_path):
    native.load_native_module()
    # The directory the kernel was just loaded from: the pass loads the
    # prepared artefact and never compiles it.
    build_root = os.path.dirname(native._COMPILER.build_dir())
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(Path(next(iter(repro.__path__))).parent),
        PYTHONDONTWRITEBYTECODE="1",  # leave gridbench/ as checked out
        REPRO_NATIVE_BUILD_DIR=build_root,
        GRIDBENCH_SPAWNED=repr(time.monotonic()),
    )
    cold = _grid_pass(env, tmp_path / "cache", tmp_path / "cold")
    assert cold["raised"] == []
    assert cold["cells_total"] == 12
    layers = cold["layers"]
    assert layers["uarch.emulator.runs"] == 2
    assert layers["core.compile_calls"] == 6
    assert layers["harness.cache.result_misses"] == 12
    assert layers["harness.cache.trace_stores"] == 2

    # Trace-warm: a fresh cache directory holding only the cold pass's
    # traces, so every trace is read back through the wrapped
    # ``TraceCache._open_validated`` and none is emulated.
    shutil.copytree(tmp_path / "cache" / "traces", tmp_path / "warm" / "traces")
    warm = _grid_pass(env, tmp_path / "warm", tmp_path / "warm-pass")
    assert warm["raised"] == []
    assert warm["digest"] == cold["digest"]
    layers = warm["layers"]
    assert layers["uarch.emulator.runs"] == 0
    assert layers["harness.cache.trace_hits"] == 2
    assert layers["uarch.trace.disk_hits"] == 2
    assert layers["harness.cache.trace_mib"] > 0


def _grid_pass(env: dict, cache_dir: Path, stem: Path) -> dict:
    """One traced 2-benchmark pass of ``grid.py`` over ``cache_dir``; its
    result file."""
    out = stem.with_suffix(".json")
    process = subprocess.run(
        [
            sys.executable,
            str(GRID_SCRIPT),
            "--benchmarks", "2",
            "--max-instructions", "2500",
            "--warmup-instructions", "500",
            "--cache-dir", str(cache_dir),
            "--spans", str(stem.with_suffix(".spans.json")),
            "--out", str(out),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert process.returncode == 0, process.stderr
    return json.loads(out.read_text(encoding="utf-8"))
