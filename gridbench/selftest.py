"""Self-test of the figure-grid benchmark on a tiny grid.

Run from the root of a checkout::

    python3 gridbench/selftest.py

Runs ``run.py`` on 2 benchmarks x 6 techniques at a 20k/4k budget (two
trace windows), every workload traced and untraced, and checks:

* each run is correct and prints exactly the metrics BENCHMARK.json names;
* the traced attribution: the emulator runs only on ``grid-cold``,
  simulated cycles match on cold and trace-warm and are 0 on cached,
  every cell is a result-cache hit on cached;
* a non-zero seed derives different programs;
* one corrupted cached cell makes the run incorrect with exit code 1;
* a directory holding only BENCHMARK.json and the benchmark fails
  without printing a result.

State goes to ``.gridbench/selftest``.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
STATE = os.path.join(ROOT, ".gridbench", "selftest")
TINY = [
    "--benchmarks", "2",
    "--max-instructions", "20000",
    "--warmup-instructions", "4000",
    "--state-dir", STATE,
]
CELLS = 12


def bench(workload: str, trace: int, seed: int = 0, cwd: str = ROOT):
    completed = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *TINY],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return completed.returncode, result, completed


def check(condition: bool, message: str, detail: str = "") -> None:
    if not condition:
        raise AssertionError(f"{message}\n{detail}")
    print(f"ok   {message}")


def reference_digest(seed: int) -> str:
    (path,) = glob.glob(os.path.join(STATE, "prepared", "*", f"seed-{seed}", "reference.json"))
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["digest"]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    end_to_end = {spec["name"] for spec in declared["end_to_end"]}
    per_layer = {spec["name"] for spec in declared["per_layer"]}
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    check(
        end_to_end == set(spec["end_to_end"])
        and per_layer == set(spec["per_layer"]) | {bar["metric"] for bar in spec["model"]}
        and {w["name"] for w in declared["workloads"]} <= set(spec["workloads"]),
        "BENCHMARK.json and spec.json describe the same workloads and metrics",
    )
    shutil.rmtree(STATE, ignore_errors=True)

    layers = {}
    for workload in ("grid-cold", "grid-trace-warm", "grid-cached"):
        for trace, names in ((0, end_to_end), (1, per_layer)):
            code, result, completed = bench(workload, trace)
            check(
                code == 0 and result is not None and result["correct"],
                f"{workload} trace={trace} runs correct (exit {code})",
                completed.stderr[-2000:],
            )
            check(set(result["metrics"]) == names, f"{workload} trace={trace} prints every metric")
            check(result["failed"] == 0 and result["attempted"] % CELLS == 0,
                  f"{workload} trace={trace} counts whole grids, none failed")
            if trace:
                layers[workload] = {k: v["value"] for k, v in result["metrics"].items()}
            else:
                check(result["metrics"]["cells_ok_frac"]["value"] == 1.0,
                      f"{workload} cells_ok_frac is 1")

    cold, warm, cached = (layers[w] for w in ("grid-cold", "grid-trace-warm", "grid-cached"))
    check(cold["uarch.emulator.runs"] > 0 and warm["uarch.emulator.runs"] == 0
          and cached["uarch.emulator.runs"] == 0, "the emulator runs only on grid-cold")
    check(cold["uarch.engine.sim_cycles"] == warm["uarch.engine.sim_cycles"] > 0
          and cached["uarch.engine.sim_cycles"] == 0,
          "simulated cycles match on cold and trace-warm and are 0 on cached")
    check(cached["harness.cache.result_hits"] == CELLS, "every cell is a result hit on cached")
    check(cold["core.compile_calls"] == warm["core.compile_calls"] == cached["core.compile_calls"] == 6,
          "each workload compiles 2 benchmarks x 3 software techniques")
    for name, values in layers.items():
        check(values["other_s"] > -1e-6, f"{name}: layer self times fit inside the traced pass")

    code, result, _ = bench("grid-cold", 0, seed=7)
    check(code == 0 and result["correct"], "seed 7 runs correct")
    check(reference_digest(7) != reference_digest(0), "seed 7 derives different programs")

    cells = sorted(glob.glob(os.path.join(STATE, "prepared", "*", "seed-0", "tree", "*.json")))
    with open(cells[0], encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["stats"]["cycles"] += 1
    with open(cells[0], "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
    code, result, _ = bench("grid-cached", 0)
    check(code == 1 and result is not None and not result["correct"]
          and result["failed"] > 0 and result["metrics"]["cells_ok_frac"]["value"] < 1.0,
          "a corrupted cached cell fails the run (cells_failed_frac > 0, exit 1)")

    bare = os.path.join(STATE, "bare")
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result, _ = bench("grid-cached", 0, cwd=bare)
    check(code not in (0, None) and result is None,
          "without the repository the benchmark fails and prints no result")
    shutil.rmtree(STATE, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
