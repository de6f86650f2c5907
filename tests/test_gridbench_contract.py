"""Contract test: the benchmark's grid pass still runs on this tree.

``gridbench/`` is frozen: it is the benchmark that times the figure
grid, and it reaches into the harness through names it imports or
patches (``ParallelSuiteRunner(backend="local")``, the layer entry
points its tracer wraps, ``trace_events``).  A change under ``src/``
that drops or renames one of them breaks the benchmark without failing
any other test, so this runs one small traced pass of the unchanged
``gridbench/grid.py`` against this tree and checks its result file.
"""

from __future__ import annotations

import json
import os
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
    out = tmp_path / "out.json"
    process = subprocess.run(
        [
            sys.executable,
            str(GRID_SCRIPT),
            "--benchmarks", "2",
            "--max-instructions", "2500",
            "--warmup-instructions", "500",
            "--cache-dir", str(tmp_path / "cache"),
            "--spans", str(tmp_path / "spans.json"),
            "--out", str(out),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert process.returncode == 0, process.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["raised"] == []
    assert result["cells_total"] == 12
    layers = result["layers"]
    assert layers["uarch.emulator.runs"] == 2
    assert layers["core.compile_calls"] == 6
    assert layers["harness.cache.result_misses"] == 12
    assert layers["harness.cache.trace_stores"] == 2
