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


def print_cache_stats(runner) -> None:
    """Print the result-cache and trace-cache ``--cache-stats`` report."""
    from repro.uarch.trace import trace_events

    if runner.cache is not None:
        stats = runner.cache.cache_stats()
        cap = stats["max_entries"] if stats["max_entries"] is not None else "unbounded"
        print(
            f"result cache: {stats['entries']} entries "
            f"({stats['total_bytes'] / 1024:.1f} KiB, cap {cap}) — "
            f"{stats['hits']} hits / {stats['misses']} misses / "
            f"{stats['stores']} stores / {stats['evictions']} evictions "
            f"[{stats['directory']}]"
        )
    if runner.trace_cache is not None:
        stats = runner.trace_cache.cache_stats()
        cap = (
            f"{stats['max_bytes'] / 1024:.0f} KiB"
            if stats["max_bytes"] is not None
            else "unbounded"
        )
        # Workers ship their counter deltas back with each job result and
        # the runner folds them in, so these totals are exact for any
        # worker count.
        print(
            f"trace cache: {stats['traces']} traces "
            f"({stats['total_bytes'] / 2**20:.1f} MiB, cap {cap}) — "
            f"{stats['hits']} hits / {stats['misses']} misses / "
            f"{stats['stores']} stores / {stats['evictions']} evictions "
            f"[{stats['directory']}]"
        )
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
        type=int,
        default=None,
        help="LRU size cap for the result cache (default: unbounded)",
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
        help="LRU byte cap for the trace cache (default: unbounded)",
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
        "offline cap enforcement) and print a summary",
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
                    max_entries=args.cache_max_entries,
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
        cache_max_entries=args.cache_max_entries,
        trace_cache_max_bytes=args.max_trace_bytes,
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
