"""One pass of the figure grid, in a fresh interpreter.

``run.py`` spawns this script once per pass, over a private copy of the
workload's cache tree.  A pass is the pipeline ``benchmarks/figure_report.py``
runs: ``ParallelSuiteRunner.run_suite`` over every (benchmark, technique)
cell with one in-process worker and the native replay kernel, the seven
figures of ``harness.figures.ALL_FIGURES``, and the overall processor
savings of the three software techniques.  At every step boundary the
pass times a fixed host probe (:func:`host_probe`), kept out of the
steps' times.  The pass writes one JSON result file; with ``--spans`` it
also wraps every layer's entry points (:mod:`tracer`) and writes its
spans.

Environment, set by ``run.py``: ``PYTHONPATH`` naming the checkout's
``src``, ``REPRO_NATIVE_BUILD_DIR`` naming the prepared kernel, and
``GRIDBENCH_SPAWNED``, the ``time.monotonic()`` reading taken just
before this process was started (set-up time counts from it).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")
#: Iterations of one host probe: about 4 ms of interpreter work.
PROBE_ROUNDS = 20_000


def derived_benchmarks(seed: int, count: int) -> tuple[str, ...]:
    """Register the seed's variant of the first ``count`` paper benchmarks.

    Seed 0 is the shipped suite.  Any other seed re-derives each
    benchmark's generator seed and registers the variant under a derived
    name, so its cache fingerprints never collide with seed 0's.
    """
    from dataclasses import replace

    from repro.workloads import ALL_TRAITS, SPECINT_BENCHMARKS

    names = SPECINT_BENCHMARKS[:count]
    if seed == 0:
        return names
    derived = []
    for name in names:
        base = ALL_TRAITS[name]
        digest = hashlib.sha256(f"{name}:{base.seed}:{seed}".encode()).digest()
        variant = f"{name}-s{seed}"
        ALL_TRAITS[variant] = replace(
            base, name=variant, seed=int.from_bytes(digest[:4], "little")
        )
        derived.append(variant)
    return tuple(derived)


def load_native_kernel() -> None:
    """Load the prepared native kernel; never compile it here."""
    from repro.uarch.engine import native

    artefact = native._COMPILER.artifact_path()
    if not os.path.exists(artefact):
        raise SystemExit(
            f"gridbench: native kernel {artefact} is not built; run.py "
            "prepares it before any timed pass"
        )
    native.load_native_module()


def build_native_kernel() -> str:
    """Compile the native kernel into ``REPRO_NATIVE_BUILD_DIR``; fail loudly."""
    from repro.uarch.engine import native

    reason = native.native_unavailable_reason()
    if reason is not None:
        raise SystemExit(f"gridbench: the native replay kernel cannot build: {reason}")
    native.load_native_module()
    return native._COMPILER.artifact_path()


def grid_digest(cells: dict) -> str:
    text = json.dumps(cells, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def model_values(spec: dict, figures: dict) -> dict:
    """Every suite-average bar the spec names, keyed by its ``model.*`` metric."""
    return {
        bar["metric"]: figures[bar["figure"]].series[bar["series"]][bar["bar"]]
        for bar in spec["model"]
    }


def paper_gaps(spec: dict, figures: dict, model: dict) -> dict:
    """Mean |ours - paper| per gap metric, over the spec's reference pairs."""
    gaps = {}
    for metric, pairs in spec["paper_gap"].items():
        diffs = [
            abs(model[pair["model"]] - figures[pair["figure"]].paper_reference[pair["reference"]])
            for pair in pairs
        ]
        gaps[metric] = sum(diffs) / len(diffs)
    return gaps


def host_probe(rounds: int = PROBE_ROUNDS) -> float:
    """Seconds this host takes for a fixed piece of interpreter work.

    The work (dict and list traffic, integer arithmetic) is the benchmark's
    own and never changes with the repository, so its time measures only
    how fast the shared host runs Python at this moment.
    """
    start = time.perf_counter()
    table: dict = {}
    values = list(range(64))
    for i in range(rounds):
        key = i & 63
        table[key] = table.get(key, 0) + (values[key] * 3 ^ i)
    return time.perf_counter() - start


def mark(marks: list) -> None:
    """Close the running step, probe the host, open the next step.

    A mark is ``(wall, cpu)`` before the probe, the probe's seconds, and
    ``(wall, cpu)`` after it, so probe time stays out of every step.
    """
    before = (time.perf_counter(), time.process_time())
    probe_s = host_probe()
    marks.append((before, probe_s, (time.perf_counter(), time.process_time())))


def mark_steps(marks: list) -> None:
    """Mark a step boundary as each cell starts executing and as each
    cell's result is assembled.

    Steps are short (about 0.15 s), so the probes at a step's two ends
    tell ``run.py`` how fast the host ran during it.
    """
    from repro.harness.parallel import ParallelSuiteRunner

    for name in ("_execute_in_process", "_build_result"):
        original = getattr(ParallelSuiteRunner, name)

        def marked(runner, *args, _original=original, **kwargs):
            mark(marks)
            return _original(runner, *args, **kwargs)

        setattr(ParallelSuiteRunner, name, marked)


def run_pass(args, spawned: float) -> dict:
    # Set-up is scaled like the steps: by probes at its start and its end.
    opening_probe_s = host_probe()
    from repro.harness import ParallelSuiteRunner, RunConfig
    from repro.harness.cache import stats_to_dict
    from repro.harness.figures import ALL_FIGURES
    from repro.harness.reporting import overall_processor_savings
    from repro.uarch import trace as trace_module
    from repro.workloads import build_benchmark

    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    load_native_kernel()
    build_start = time.perf_counter()
    names = derived_benchmarks(args.seed, args.benchmarks)
    for name in names:
        build_benchmark(name)
    build_s = time.perf_counter() - build_start

    if args.setup_only:
        setup_s = time.monotonic() - spawned - opening_probe_s
        return {"setup_s": setup_s, "setup_probes": [opening_probe_s, host_probe()]}
    marks: list = []
    mark_steps(marks)
    tracer = None
    if args.spans:
        from tracer import Tracer, install_layer_spans

        tracer = Tracer()
        install_layer_spans(tracer)

    def assembling():
        return tracer.span("harness.figures.assemble") if tracer else contextlib.nullcontext()

    events_before = dict(trace_module.trace_events)
    setup_s = time.monotonic() - spawned - opening_probe_s
    mark(marks)
    start = marks[0][2][0]

    runner = ParallelSuiteRunner(
        RunConfig(
            benchmarks=names,
            max_instructions=args.max_instructions,
            warmup_instructions=args.warmup_instructions,
        ),
        workers=1,
        cache_dir=args.cache_dir,
        backend="local",
        engine="native",
    )
    grid = runner.grid()
    raised: list[str] = []
    try:
        runner.run_suite()
    except Exception:  # a cell raised: find which, one cell at a time
        for benchmark, technique in grid:
            try:
                runner.result(benchmark, technique)
            except Exception:
                traceback.print_exc()
                raised.append(f"{benchmark}/{technique}")
    figures = {}
    if not raised:
        for name, build in ALL_FIGURES.items():
            with assembling():
                figures[name] = build(runner)
        for technique in ("noop", "extension", "improved"):
            with assembling():
                overall_processor_savings(runner, technique)

    mark(marks)
    steps = [
        [closed[clock] - opened[clock] for clock in (0, 1)]
        for (_, _, opened), (closed, _, _) in zip(marks, marks[1:])
    ]
    wall_s = sum(step[0] for step in steps)
    cpu_s = sum(step[1] for step in steps)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cells = {
        f"{benchmark}/{technique}": stats_to_dict(runner._results[(benchmark, technique)].stats)
        for benchmark, technique in grid
        if (benchmark, technique) in runner._results
    }
    result = {
        "setup_s": setup_s,
        "setup_probes": [opening_probe_s, marks[0][1]],
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "steps": steps,
        "probes": [probe_s for _, probe_s, _ in marks],
        "peak_rss_mb": peak_rss_mb,
        "cells_total": len(grid),
        "raised": raised,
        "digest": grid_digest(cells),
        "workloads.build_s": build_s,
    }
    if figures:
        model = model_values(spec, figures)
        result["model"] = model
        result["paper_gap"] = paper_gaps(spec, figures, model)
    if args.reference is not None:
        with open(args.reference, encoding="utf-8") as handle:
            reference = json.load(handle)["cells"]
        result["mismatched"] = sorted(
            cell for cell, stats in cells.items() if reference.get(cell) != stats
        )
    if args.cells_out is not None:
        with open(args.cells_out, "w", encoding="utf-8") as handle:
            json.dump({"cells": cells}, handle, sort_keys=True)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, runner, events_before, trace_module, wall_s)
        tracer.write(args.spans, start)
    return result


def layer_metrics(tracer, runner, events_before, trace_module, wall_s) -> dict:
    """The traced pass's per-layer numbers (names as in ``spec.json``)."""
    from repro.harness.experiment import TECHNIQUES

    own, own_by_technique = tracer.self_times()
    counts = tracer.counts
    events = {
        key: trace_module.trace_events[key] - events_before.get(key, 0)
        for key in trace_module.trace_events
    }
    emulator_s = own.get("uarch.emulator", 0.0)
    replay_s = own.get("uarch.engine.replay", 0.0)
    layers = {
        "core.compile_s": own.get("core.compile", 0.0),
        "core.compile_calls": counts["compile_calls"],
        "uarch.emulator.s": emulator_s,
        "uarch.emulator.runs": counts["emulator_runs"],
        "uarch.emulator.kinstr_per_s": (
            counts["emulated_instructions"] / emulator_s / 1e3 if emulator_s else 0.0
        ),
        "uarch.trace.decode_s": own.get("uarch.trace.decode", 0.0),
        "uarch.trace.windows": counts["windows"],
        "uarch.trace.memo_hits": events["memo_hits"],
        "uarch.trace.disk_hits": events["disk_hits"],
        "uarch.engine.replay_s": replay_s,
        "uarch.engine.sim_cycles": counts["sim_cycles"],
        "uarch.engine.mcycles_per_s": (
            counts["sim_cycles"] / replay_s / 1e6 if replay_s else 0.0
        ),
        "harness.cache.result_read_s": own.get("harness.cache.result_read", 0.0),
        "harness.cache.result_write_s": own.get("harness.cache.result_write", 0.0),
        "harness.cache.result_hits": runner.cache.hits,
        "harness.cache.result_misses": runner.cache.misses,
        "harness.cache.trace_read_s": own.get("harness.cache.trace_read", 0.0),
        "harness.cache.trace_write_s": own.get("harness.cache.trace_write", 0.0),
        "harness.cache.trace_hits": runner.trace_cache.hits,
        "harness.cache.trace_stores": runner.trace_cache.stores,
        "harness.cache.trace_mib": counts["trace_bytes"] / 2**20,
        "power.report_s": own.get("power.report", 0.0),
        "harness.figures.assemble_s": own.get("harness.figures.assemble", 0.0),
    }
    for technique in TECHNIQUES:
        layers[f"uarch.engine.replay_s.{technique}"] = own_by_technique.get(
            ("uarch.engine.replay", technique), 0.0
        )
    layers["other_s"] = wall_s - sum(own.values())
    return layers


def main(argv=None) -> int:
    spawned = float(os.environ["GRIDBENCH_SPAWNED"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--benchmarks", type=int)
    parser.add_argument("--max-instructions", type=int)
    parser.add_argument("--warmup-instructions", type=int)
    parser.add_argument("--reference", help="reference cells to compare against")
    parser.add_argument("--cells-out", help="write this pass's cells (reference run)")
    parser.add_argument("--spans", help="trace the pass; write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--build-native", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if args.build_native:
        result = {"artefact": build_native_kernel()}
    else:
        result = run_pass(args, spawned)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
