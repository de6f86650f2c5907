"""Figure-grid benchmark: the 66-cell grid timed cold, trace-warm and cached.

Run from the root of a checkout::

    python3 gridbench/run.py --workload grid-cold --seed 0 --seconds 20 --trace 0
    python3 gridbench/run.py --workload all --seed 0 --seconds 20 --trace 1
    python3 gridbench/selftest.py

Workloads differ only in cache state (see ``spec.json``): ``grid-cold``
starts from empty caches, ``grid-trace-warm`` from a populated trace
cache, ``grid-cached`` from a populated result cache.  ``--seed 0`` is the
shipped suite; any other seed re-derives every benchmark's generator seed
(``grid.py``).

Preparation, kept under ``.gridbench/`` and reused across runs:

* the native replay kernel is compiled once into a private directory, so
  no timed process ever compiles it (failure to build is fatal: there is
  no silent scalar fallback);
* per seed, one untimed cold *reference* pass records every cell's
  statistics; its cache tree is the template the warm workloads copy;
* the seed-0 reference supplies the ``paper_gap_*`` and ``model.*``
  figures: the paper's numbers describe the shipped suite, not a variant.

Measurement: each pass runs ``grid.py`` in a fresh interpreter over a
fresh copy of the workload's template, with every ``REPRO_*`` variable
that changes what is measured cleared or pinned.  Passes repeat until
``--seconds`` have gone by and at least two ran; ``--trace 1``
alternates untraced and traced passes and reports the fastest traced
pass.  The shared host's speed swings within seconds, so ``grid.py``
times a fixed probe at every step boundary and ``grid_ref_s`` scales
each step by it (``reference_seconds``); raw wall and CPU seconds are
printed beside it.  Every pass's cells are compared with the
reference; any cell that raised or differs makes the run incorrect and
the exit code 1.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics of ``BENCHMARK.json`` for ``--trace 0`` and its per-layer
metrics for ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GRID = os.path.join(HERE, "grid.py")
WORKLOADS = ("grid-cold", "grid-trace-warm", "grid-cached")
#: Passes per run at least, however long they take; ``grid_ref_s`` is
#: their median.
MIN_PASSES = 2
#: Set-up time is sampled at least this often per run (extra starts that
#: stop after set-up make up the difference).
SETUP_SAMPLES = 11
#: Seeds whose prepared reference trees are kept (about 110 MB each).
KEEP_PREPARED = 12
PASS_TIMEOUT_S = 170
#: The host probe's time (``grid.host_probe``) on the reference host that
#: ``grid_ref_s`` is expressed for; about its median on a 2-vCPU VM.
PROBE_REFERENCE_S = 3.0e-3


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported without a result line."""


def log(message: str) -> None:
    print(f"gridbench: {message}", file=sys.stderr, flush=True)


def hermetic_env(root: str, state: str) -> dict:
    """The environment of every child: no inherited ``REPRO_*`` settings."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONPYCACHEPREFIX=os.path.join(state, "pycache"),
        REPRO_NATIVE_BUILD_DIR=os.path.join(state, "native"),
        REPRO_REPLAY_KERNEL="native",
        REPRO_WORKERS="1",
        REPRO_TELEMETRY="0",
    )
    return env


def spawn(env: dict, args: list, out: str) -> dict:
    """Run ``grid.py`` in a fresh interpreter; return its result file."""
    if os.path.exists(out):
        os.unlink(out)
    env = dict(env, GRIDBENCH_SPAWNED=repr(time.monotonic()))
    completed = subprocess.run(
        [sys.executable, GRID, *args, "--out", out],
        env=env,
        stdout=sys.stderr,
        timeout=PASS_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise BenchError(f"grid pass {args} exited with {completed.returncode}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def source_key(root: str, budget_args: list) -> str:
    """Digest of everything a reference pass depends on."""
    digest = hashlib.sha256(" ".join(budget_args).encode())
    files = [os.path.join(HERE, "grid.py"), os.path.join(HERE, "spec.json")]
    for directory, subdirs, names in os.walk(os.path.join(root, "src")):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        files.extend(os.path.join(directory, name) for name in sorted(names))
    for path in files:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


class Prepared:
    """The untimed reference pass of one seed and its cache tree."""

    def __init__(self, prep_root: str, seed: int):
        self.directory = os.path.join(prep_root, f"seed-{seed}")
        self.tree = os.path.join(self.directory, "tree")
        self.cells = os.path.join(self.directory, "reference-cells.json")
        self.result_path = os.path.join(self.directory, "reference.json")
        self.seed = seed

    def ensure(self, env: dict, budget_args: list) -> dict:
        if not os.path.exists(self.result_path):
            log(f"preparing the seed-{self.seed} reference (one untimed cold pass)")
            shutil.rmtree(self.directory, ignore_errors=True)
            os.makedirs(self.directory)
            temp = self.result_path + ".tmp"
            result = spawn(
                env,
                ["--seed", str(self.seed), "--cache-dir", self.tree,
                 "--cells-out", self.cells, *budget_args],
                temp,
            )
            if result["raised"]:
                raise BenchError(f"reference cells raised: {result['raised']}")
            os.replace(temp, self.result_path)
        os.utime(self.directory)
        with open(self.result_path, encoding="utf-8") as handle:
            return json.load(handle)

    def fill(self, workload: str, target: str) -> None:
        """A fresh copy of ``workload``'s template cache tree at ``target``."""
        if workload == "grid-cold":
            os.makedirs(target)
        elif workload == "grid-trace-warm":
            shutil.copytree(os.path.join(self.tree, "traces"), os.path.join(target, "traces"))
        else:
            shutil.copytree(self.tree, target)


def prune_prepared(prep_root: str, keep: set) -> None:
    entries = sorted(
        (os.path.getmtime(path), path)
        for path in (os.path.join(prep_root, name) for name in os.listdir(prep_root))
        if path not in keep
    )
    for _, path in entries[: max(0, len(entries) + len(keep) - KEEP_PREPARED)]:
        shutil.rmtree(path, ignore_errors=True)


def measure(args, env, state, prepared, budget_args) -> tuple[list, list, list]:
    """Run passes until ``--seconds`` have gone by and ``MIN_PASSES`` ran."""
    passes_dir = os.path.join(state, "passes")
    shutil.rmtree(passes_dir, ignore_errors=True)
    os.makedirs(passes_dir)
    kinds = ("plain", "traced") if args.trace else ("plain",)
    plain: list = []
    traced: list = []
    started = time.monotonic()
    count = 0
    while True:
        kind = kinds[count % len(kinds)]
        tree = os.path.join(passes_dir, f"pass-{count}")
        prepared.fill(args.workload, tree)
        pass_args = [
            "--seed", str(args.seed), "--cache-dir", tree,
            "--reference", prepared.cells, *budget_args,
        ]
        spans = os.path.join(passes_dir, f"spans-{count}.json")
        if kind == "traced":
            pass_args += ["--spans", spans]
        try:
            result = spawn(env, pass_args, os.path.join(passes_dir, f"pass-{count}.json"))
        finally:
            shutil.rmtree(tree, ignore_errors=True)
        result["spans"] = spans
        (traced if kind == "traced" else plain).append(result)
        count += 1
        if count >= MIN_PASSES and time.monotonic() - started >= args.seconds:
            break
    setups = [reference_setup_seconds(result) for result in plain + traced]
    while len(setups) < SETUP_SAMPLES:
        out = os.path.join(passes_dir, "setup.json")
        setups.append(reference_setup_seconds(
            spawn(env, ["--seed", str(args.seed), "--setup-only", *budget_args], out)
        ))
    if traced:
        # The fastest traced pass is reported whole, so its self times and
        # other_s still sum to its wall_s; keep its spans.
        traced.sort(key=lambda result: result["wall_s"])
        spans_path = os.path.join(state, "spans", f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        os.replace(traced[0]["spans"], spans_path)
    shutil.rmtree(passes_dir, ignore_errors=True)
    return plain, traced, setups


def reference_seconds(result: dict) -> float:
    """A pass's wall time as a host running the probe in
    ``PROBE_REFERENCE_S`` would have taken it.

    ``grid.py`` probes the host's speed at every step boundary (one as each
    cell starts executing, one as each cell's result is assembled, about
    130 per pass).  Each step's wall time is scaled by the reference probe
    time over the mean of the probes at its two ends.  A shared host's
    speed swings by a fifth within seconds; the probe next to a step
    follows it, so the scaled sum keeps only the program's own time.
    """
    probes = result["probes"]
    return sum(
        at_reference_speed(step[0], probes[index], probes[index + 1])
        for index, step in enumerate(result["steps"])
    )


def reference_setup_seconds(result: dict) -> float:
    """A pass's set-up time, scaled by the probes at its start and end."""
    return at_reference_speed(result["setup_s"], *result["setup_probes"])


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * PROBE_REFERENCE_S * 2.0 / (probe_before + probe_after)


def failed_cells(result: dict) -> int:
    """Cells of one pass that raised or differ from the reference run's."""
    return len(set(result["raised"]) | set(result["mismatched"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=WORKLOADS + ("all",),
        required=True,
        help="'all' runs the three in turn; the last line is then grid-cached's",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller grids for the self-test (selftest.py); the benchmark proper
    # always runs the full suite at the figure budget.
    parser.add_argument("--benchmarks", type=int, default=11, help=argparse.SUPPRESS)
    parser.add_argument("--max-instructions", type=int, default=100_000, help=argparse.SUPPRESS)
    parser.add_argument("--warmup-instructions", type=int, default=20_000, help=argparse.SUPPRESS)
    parser.add_argument("--state-dir", default=".gridbench", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.getcwd()
    codes = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = workload
        try:
            codes.append(run(args, root))
        except (BenchError, subprocess.TimeoutExpired, OSError) as error:
            log(f"failed: {error}")
            return 2
    return max(codes)


def run(args, root: str) -> int:
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        raise BenchError("run from the root of a checkout: src/repro is missing")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    state = os.path.abspath(args.state_dir)
    env = hermetic_env(root, state)
    budget_args = [
        "--benchmarks", str(args.benchmarks),
        "--max-instructions", str(args.max_instructions),
        "--warmup-instructions", str(args.warmup_instructions),
    ]

    os.makedirs(state, exist_ok=True)
    spawn(env, ["--build-native"], os.path.join(state, "native.json"))
    prep_parent = os.path.join(state, "prepared")
    prep_root = os.path.join(prep_parent, source_key(root, budget_args))
    os.makedirs(prep_root, exist_ok=True)
    for stale in set(os.listdir(prep_parent)) - {os.path.basename(prep_root)}:
        shutil.rmtree(os.path.join(prep_parent, stale), ignore_errors=True)
    prepared = Prepared(prep_root, args.seed)
    shipped = Prepared(prep_root, 0)
    prune_prepared(prep_root, {prepared.directory, shipped.directory})
    shipped_reference = shipped.ensure(env, budget_args)
    prepared.ensure(env, budget_args)

    plain, traced, setups = measure(args, env, state, prepared, budget_args)
    passes = plain + traced
    attempted = sum(result["cells_total"] for result in passes)
    failed = sum(failed_cells(result) for result in passes)
    correct = failed == 0

    references = [reference_seconds(result) for result in plain]
    digests = sorted({result["digest"] for result in passes})
    print(
        f"{args.workload} seed {args.seed}: {len(plain)} untraced pass(es)"
        f"{f' + {len(traced)} traced' if traced else ''}, grid digest "
        f"{' '.join(digests)}, cells_failed_frac {failed / attempted:.4f}"
    )
    for result, reference in zip(plain, references):
        print(f"  pass: wall_s {result['wall_s']:.3f}, cpu_s {result['cpu_s']:.3f}, "
              f"median probe {statistics.median(result['probes']) * 1e3:.3f} ms, "
              f"grid_ref_s {reference:.3f}")
    if args.trace:
        chosen = traced[0]
        metrics = dict(chosen["layers"])
        metrics["workloads.build_s"] = chosen["workloads.build_s"]
        metrics.update(shipped_reference["model"])
        metrics["tracing.overhead_s"] = (
            reference_seconds(chosen) - statistics.median(references)
        )
        print(f"  traced wall_s {chosen['wall_s']:.3f}, tracing.overhead_s "
              f"{metrics['tracing.overhead_s']:+.3f}")
        specs = declared["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "grid_ref_s": statistics.median(references),
            "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in plain),
            "cells_ok_frac": 1.0 - failed / attempted,
            **shipped_reference["paper_gap"],
        }
        specs = declared["end_to_end"]
    missing = [spec["name"] for spec in specs if spec["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    for spec in specs:
        print(f"  {spec['name']:34s} {metrics[spec['name']]:>16.6f} {spec['unit']}")
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
            for spec in specs
        },
    }
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
