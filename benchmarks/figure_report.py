"""Print regenerated figures, optionally from a cached-results directory.

Used two ways:

* imported by the figure benchmarks for the :func:`report` banner helper;
* run as a script to regenerate the paper's figures outside pytest::

      PYTHONPATH=src python benchmarks/figure_report.py \\
          --cache-dir benchmarks/.figure-cache --workers 4

  With ``--cache-dir`` pointing at a directory populated by a previous
  run (the figure benchmarks share ``benchmarks/.figure-cache``), cells
  whose configuration is unchanged are loaded instead of re-simulated,
  so re-rendering every figure is nearly instant.
"""

from __future__ import annotations

import argparse


def report(title: str, figure) -> None:
    """Print a regenerated figure next to the paper's headline numbers."""
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")
    print(figure.to_text())


def _cache_line(name: str, stats: dict) -> str:
    """One cache's ``--cache-stats`` line, from its ``cache_stats()``."""
    size = stats["total_bytes"]
    size_text = f"{size / 2**20:.1f} MiB" if size >= 2**20 else f"{size / 1024:.1f} KiB"
    return (
        f"{name}: {stats['entries']} entries ({size_text}) — "
        f"{stats['hits']} hits / {stats['misses']} misses / "
        f"{stats['stores']} stores / {stats['quarantined']} quarantined / "
        f"{stats['degraded_stores']} degraded stores [{stats['directory']}]"
    )


def print_cache_stats(runner) -> None:
    """Print the result-cache and trace-cache ``--cache-stats`` report."""
    from repro.uarch.trace import trace_events

    # Workers ship their trace-cache counters back with each job result
    # and the runner folds them in, so both lines are exact for any
    # worker count.
    for name, cache in (("result cache", runner.cache), ("trace cache", runner.trace_cache)):
        if cache is not None:
            print(_cache_line(name, cache.cache_stats()))
    events = trace_events
    print(
        f"emulations this process: {events['emulations']} "
        f"(memo hits {events['memo_hits']}, disk hits {events['disk_hits']})"
    )
    print(
        f"compiles this runner: {runner.compile_count}, "
        f"analyses {runner.analysis_count}"
    )
    if runner.workers > 1:
        # Unlike the folded trace-cache counters above, the module-level
        # trace_events live in each worker process, and pool workers
        # compile their own programs; that work is invisible here.
        print(
            f"(note: {runner.workers} workers — emulation/memo and compile "
            f"counters are per-process; the folded trace-cache line above "
            f"is exact)"
        )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of cached simulation results (created if missing)",
    )
    parser.add_argument(
        "--cache-max-entries",
        dest="max_entries",
        type=int,
        default=None,
        help="with --gc, the sweep's LRU cap on result-cache entries "
        "(default: none); a run itself never evicts",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print result-cache and trace-cache size/traffic reports",
    )
    parser.add_argument(
        "--max-trace-bytes",
        type=int,
        default=None,
        help="with --gc, the sweep's LRU byte cap on the trace cache "
        "(default: none); a run itself never evicts",
    )
    parser.add_argument("--workers", type=int, default=None, help="pool size")
    # Choices come from the engine registry so new kernels need no edit
    # here (this import is cheap; the heavy harness imports stay lazy).
    from repro.uarch.engine import available_engines

    parser.add_argument(
        "--engine",
        choices=available_engines(),
        default=None,
        help="replay kernel for every simulation (default: the executing "
        "host's REPRO_REPLAY_KERNEL, else native where it builds, else "
        "scalar); statistics are bit-identical between kernels, so "
        "cached results are shared",
    )
    parser.add_argument(
        "--gc",
        action="store_true",
        help="garbage-collect --cache-dir first (orphaned .tmp-* files, "
        "expired quarantine, the LRU caps of --cache-max-entries and "
        "--max-trace-bytes) and print a summary",
    )
    parser.add_argument("--max-instructions", type=int, default=100_000)
    parser.add_argument("--warmup-instructions", type=int, default=20_000)
    parser.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help="benchmark subset (default: the paper's eleven)",
    )
    args = parser.parse_args(argv)

    from repro.harness import ParallelSuiteRunner, RunConfig, figures
    from repro.harness.reporting import overall_processor_savings

    if args.gc:
        from repro.harness.cache import format_gc_summary, gc_cache_tree

        if args.cache_dir is None:
            parser.error("--gc needs --cache-dir")
        print(
            format_gc_summary(
                gc_cache_tree(
                    args.cache_dir,
                    max_entries=args.max_entries,
                    max_trace_bytes=args.max_trace_bytes,
                )
            )
        )

    config_kwargs = dict(
        max_instructions=args.max_instructions,
        warmup_instructions=args.warmup_instructions,
    )
    if args.benchmarks:
        config_kwargs["benchmarks"] = tuple(args.benchmarks)
    runner = ParallelSuiteRunner(
        RunConfig(**config_kwargs),
        workers=args.workers,
        cache_dir=args.cache_dir,
        engine=args.engine,
    )
    runner.run_suite()
    if runner.cache is not None:
        print(
            f"cache: {runner.cache.hits} hits, {runner.simulations_run} simulated "
            f"({runner.cache.directory})"
        )
    if args.cache_stats:
        print_cache_stats(runner)

    report("Figure 6 - IPC loss, NOOP technique", figures.figure6(runner))
    report("Figure 7 - issue-queue occupancy", figures.figure7(runner))
    report("Figure 8 - issue-queue power, NOOP", figures.figure8(runner))
    report("Figure 9 - register-file power, NOOP", figures.figure9(runner))
    report("Figure 10 - IPC loss, extensions", figures.figure10(runner))
    report("Figure 11 - issue-queue power, extensions", figures.figure11(runner))
    report("Figure 12 - register-file power, extensions", figures.figure12(runner))
    print()
    for technique in ("noop", "extension", "improved"):
        savings = overall_processor_savings(runner, technique)
        print(f"overall processor power saving, {technique:10s}: {savings:5.2f}%")


if __name__ == "__main__":
    main()
