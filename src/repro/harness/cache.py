"""Persistent, content-addressed cache of simulation results.

A simulation run is a pure function of its inputs: the benchmark's
generator traits, the compiler configuration (for hinted programs), the
processor configuration, the technique, and the instruction budgets.  The
cache therefore keys each (benchmark, technique) cell by a SHA-256 digest
of the canonical JSON encoding of exactly those inputs, and stores the
:class:`~repro.uarch.stats.SimulationStats` counters as JSON in one file
per cell.

Invalidation needs no bookkeeping: editing any input — a trait field, a
sizing margin, a cache geometry, an energy coefficient, the warm-up budget
— changes the digest, so the stale entry is simply never looked up again.
Energy parameters are part of the key for conservatism even though power
reports are recomputed from the cached counters on every load.

Because simulation results also depend on the *code* of the simulator,
compiler and workload generator, the digest additionally covers the bytes
of every module in the ``repro`` package: any source edit invalidates the
whole cache automatically.  :data:`CACHE_FORMAT_VERSION` remains as an
explicit big hammer (bump it when the stored payload layout itself
changes).

Entries are written atomically (temp file + ``os.replace``) so concurrent
workers and concurrent processes can share one cache directory safely.

Degradation policy (chaoskit): the cache is an accelerator, never a
single point of failure.  A corrupt entry (truncated file, foreign
payload, bad counter mapping) is **quarantined** — moved aside to
``quarantine/<fingerprint>.json`` where it stays visible for post-mortem
until ``cache gc`` expires it after :data:`QUARANTINE_MAX_AGE_SECONDS` —
and the load reports a clean miss.  A store that keeps failing after the
shared retry policy (read-only directory, disk full) falls back to an
**in-memory** entry with a warn-once per directory: the process keeps
its cache semantics for the rest of the run and the next healthy store
resumes persisting.  The quarantine, the read's classification and the
failed-store count are :class:`repro.atomicio.EntryStore`'s, shared with
the trace cache.

The module doubles as the cache-maintenance CLI for shared directories::

    PYTHONPATH=src python -m repro.harness.cache gc <cache_dir> \\
        [--max-entries N] [--max-bytes B] [--max-trace-bytes B] [--tmp-age S]

``gc`` is the only pruner: no run evicts anything.  It sweeps orphaned
``.tmp-*`` writer files (left by processes killed mid-store — entry
listings skip them because a live writer may still own one), enforces
the LRU caps over the result directory and its ``traces/``
subdirectory, expires aged-out quarantine entries, and prints a
summary.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Optional

from repro.atomicio import (
    QUARANTINE_DIR_NAME,
    TMP_PREFIX,
    EntryStore,
    publish_atomically,
    stat_entries,
)
from repro.harness import faults
from repro.uarch.stats import SimulationStats
from repro.uarch.trace import TraceCache

#: Quarantined entries older than this are expired by ``cache gc``: a
#: week is long enough to post-mortem a bad disk episode, and bounded so
#: one cannot grow the tree forever.
QUARANTINE_MAX_AGE_SECONDS = 7 * 24 * 3600.0

#: Bump when the stored payload layout changes so old entries stop
#: matching.  Simulation-semantics changes are covered automatically by
#: :func:`_code_digest`.  Version 2: warm-up clock rebase, I-miss branch
#: prediction, int-only register-file event counts.
CACHE_FORMAT_VERSION = 2


@functools.lru_cache(maxsize=1)
def _code_digest() -> str:
    """Digest of every ``repro`` source module's bytes.

    Simulation results are a function of the simulator's own code, not
    just its configuration, so the package source participates in each
    cell's fingerprint; any edit under ``src/repro/`` invalidates the
    cache without anyone remembering to bump a version constant.
    """
    import repro

    # ``repro`` is a namespace package, so use __path__ (``__file__`` is None).
    package_root = Path(next(iter(repro.__path__)))
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _canonical(value: Any) -> Any:
    """Convert configs/traits into a JSON-stable structure.

    Dataclasses become field dicts, enums their values, dict keys strings
    (sorted by ``json.dumps(sort_keys=True)`` at serialisation time), and
    tuples lists, so equal inputs always produce byte-identical JSON.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {
            (key.value if isinstance(key, enum.Enum) else str(key)): _canonical(val)
            for key, val in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def simulation_fingerprint(
    traits,
    technique: str,
    compiler_config,
    processor_config,
    energy_params,
    max_instructions: int,
    warmup_instructions: int,
    abella_interval: int,
) -> str:
    """SHA-256 digest identifying one simulation cell's full input set."""
    payload = {
        "format": CACHE_FORMAT_VERSION,
        "code": _code_digest(),
        "traits": _canonical(traits),
        "technique": technique,
        "compiler": _canonical(compiler_config),
        "processor": _canonical(processor_config),
        "energy": _canonical(energy_params),
        "max_instructions": max_instructions,
        "warmup_instructions": warmup_instructions,
        "abella_interval": abella_interval,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stats_to_dict(stats: SimulationStats) -> dict:
    """Flatten a :class:`SimulationStats` into plain JSON-able counters."""
    return dataclasses.asdict(stats)


#: Every counter :func:`stats_to_dict` writes.
_STATS_FIELDS = tuple(f.name for f in dataclasses.fields(SimulationStats))


def stats_from_dict(payload: dict) -> SimulationStats:
    """Rebuild a :class:`SimulationStats` from :func:`stats_to_dict` output.

    Keys that name no counter are ignored.  A mapping that lacks a counter
    raises ``ValueError``: :func:`stats_to_dict` writes every one, so it
    is not such output, and defaulting the gap to zero would pass it off
    as a measurement.
    """
    missing = [name for name in _STATS_FIELDS if name not in payload]
    if missing:
        raise ValueError(f"stats payload lacks {len(missing)} counter(s), e.g. {missing[0]!r}")
    return SimulationStats(**{name: payload[name] for name in _STATS_FIELDS})


class ResultCache(EntryStore):
    """One-file-per-cell JSON cache of simulation statistics.

    The directory discipline — entry listing, quarantine of corrupt
    cells, read failures as misses, counted and warned failed stores,
    the counters — is :class:`~repro.atomicio.EntryStore`'s.  What is
    the result cache's own: the JSON cell format, the shared
    :data:`~repro.harness.faults.DEFAULT_RETRY_POLICY` around every
    publication, and an in-memory fallback.  A cell whose store still
    fails after the retries (read-only directory, disk full) is kept in
    process memory, so this process keeps its cache semantics for the
    rest of the run; the next healthy store of the cell persists it.
    Nothing is pruned here: ``cache gc`` caps the directory offline, by
    file mtime, which every hit refreshes.
    """

    SUFFIX = ".json"
    KIND = "result cache"
    DEGRADED = "falling back to in-memory caching for this process"

    def __init__(self, directory: str | os.PathLike):
        super().__init__(directory)
        # Degraded-mode fallback: entries that could not be persisted
        # (read-only or full directory) live here for this process's
        # lifetime so cache semantics survive the outage.
        self._memory: dict[str, SimulationStats] = {}

    def load(self, fingerprint: str) -> Optional[SimulationStats]:
        """Return the cached stats for ``fingerprint``, or None on a miss.

        A malformed payload — valid JSON missing the ``"stats"`` key or
        the ``"format"`` marker every store writes (a foreign or
        truncated-then-rewritten file sharing the directory), or a
        ``"stats"`` value that isn't a counter mapping or lacks one of
        the counters every store writes — is quarantined and counts as
        a miss, forcing a clean re-simulation.  A read error (EIO,
        permissions) is a plain miss.  Corruption must never crash a
        run.
        """
        memory = self._memory.get(fingerprint)
        if memory is not None:
            self.hits += 1
            return memory
        return self._read(fingerprint, _read_cell)

    def store(
        self,
        fingerprint: str,
        stats: SimulationStats,
        benchmark: str = "",
        technique: str = "",
    ) -> Path:
        """Persist ``stats`` under ``fingerprint``; degrade, never fail."""
        payload = {
            "format": CACHE_FORMAT_VERSION,
            "benchmark": benchmark,
            "technique": technique,
            "stats": stats_to_dict(stats),
        }
        if self._store_entry(
            fingerprint, lambda handle: json.dump(payload, handle, sort_keys=True)
        ):
            self._memory.pop(fingerprint, None)
        else:
            self._memory[fingerprint] = stats
        return self.path_for(fingerprint)

    def _publish(self, path: Path, write, binary: bool) -> None:
        """Publish under the shared retry policy: transient errors are
        ridden out, and only a persistent one degrades the store."""
        faults.DEFAULT_RETRY_POLICY.call(
            lambda: publish_atomically(path, write, binary),
            key=f"cache-store/{path.stem}",
        )


def _read_cell(path: Path) -> SimulationStats:
    """The statistics of one stored cell; ``ValueError`` (or a JSON or
    UTF-8 decode error) for a payload that is not a cell."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("format") != CACHE_FORMAT_VERSION:
        raise ValueError("foreign or stale cache payload")
    counters = payload["stats"]
    if not isinstance(counters, dict):
        raise ValueError("stats payload is not a counter mapping")
    return stats_from_dict(counters)


# ----------------------------------------------------------------------
# Offline maintenance: python -m repro.harness.cache gc <dir>
# ----------------------------------------------------------------------
#: ``.tmp-*`` files younger than this are presumed to belong to a live
#: writer and are left alone by default.
DEFAULT_TMP_MAX_AGE_SECONDS = 3600.0


def collect_garbage(
    directory: str | os.PathLike,
    pattern: str = "*.json",
    max_entries: Optional[int] = None,
    max_bytes: Optional[int] = None,
    tmp_max_age_seconds: float = DEFAULT_TMP_MAX_AGE_SECONDS,
    entry_max_age_seconds: Optional[float] = None,
    now: Optional[float] = None,
) -> dict:
    """Sweep one cache directory offline; returns a summary dict.

    Four passes, all tolerant of concurrent writers:

    1. **orphaned writers** — ``.tmp-*`` files older than
       ``tmp_max_age_seconds`` are deleted.  Atomic stores leave these
       behind only when the writing process died between ``mkstemp`` and
       ``os.replace``; the age guard keeps in-flight stores safe.
    2. **entry age** — with ``entry_max_age_seconds``, entries whose
       mtime is older are deleted (used for quarantined entries, which
       otherwise accumulate forever).
    3. **entry cap** — with ``max_entries``, least-recently-used entries
       (file mtime; hits re-touch) beyond the cap are deleted.
    4. **byte cap** — with ``max_bytes``, least-recently-used entries
       are deleted until the directory's payload fits.

    Entries are listed as the caches list them
    (:func:`repro.atomicio.list_entries`): files matching ``pattern``
    whose names don't start with a dot, i.e. ``*.json`` for a
    :class:`ResultCache` directory and ``*.trace.bin`` for a
    :class:`~repro.uarch.trace.TraceCache` one.
    """
    directory = Path(directory)
    now = time.time() if now is None else now
    summary = {
        "directory": str(directory),
        "tmp_removed": 0,
        "entries_before": 0,
        "entries_removed": 0,
        "bytes_before": 0,
        "bytes_removed": 0,
    }
    if not directory.is_dir():
        return summary

    for path in directory.glob(TMP_PREFIX + "*"):
        try:
            if now - path.stat().st_mtime >= tmp_max_age_seconds:
                path.unlink()
                summary["tmp_removed"] += 1
        except OSError:  # pragma: no cover - concurrent removal
            continue

    entries = stat_entries(directory, pattern)
    summary["entries_before"] = len(entries)
    summary["bytes_before"] = sum(size for _, size, _ in entries)
    # Entries are listed least recently used first, so every pass's
    # victims extend one prefix of the list.
    victims = 0
    if entry_max_age_seconds is not None:
        cutoff = now - entry_max_age_seconds
        victims = sum(1 for mtime, _, _ in entries if mtime < cutoff)
    if max_entries is not None:
        victims = max(victims, len(entries) - max_entries)
    if max_bytes is not None:
        kept_bytes = sum(size for _, size, _ in entries[victims:])
        while victims < len(entries) and kept_bytes > max_bytes:
            kept_bytes -= entries[victims][1]
            victims += 1
    for _, size, path in entries[:victims]:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - concurrent removal
            continue
        summary["entries_removed"] += 1
        summary["bytes_removed"] += size
    return summary


def gc_cache_tree(
    cache_dir: str | os.PathLike,
    max_entries: Optional[int] = None,
    max_bytes: Optional[int] = None,
    max_trace_bytes: Optional[int] = None,
    tmp_max_age_seconds: float = DEFAULT_TMP_MAX_AGE_SECONDS,
    now: Optional[float] = None,
) -> list[dict]:
    """Garbage-collect a shared cache directory and its trace cache.

    Covers the result cache at the top level and the trace cache in
    ``traces/``.  Quarantined corrupt entries (``quarantine/`` and
    ``traces/quarantine/``) expire once older than
    :data:`QUARANTINE_MAX_AGE_SECONDS`.
    """
    cache_dir = Path(cache_dir)
    trees = (
        (cache_dir, "*" + ResultCache.SUFFIX, max_entries, max_bytes),
        (cache_dir / "traces", "*" + TraceCache.SUFFIX, None, max_trace_bytes),
    )
    summaries = [
        collect_garbage(
            directory,
            pattern,
            max_entries=entry_cap,
            max_bytes=byte_cap,
            tmp_max_age_seconds=tmp_max_age_seconds,
            now=now,
        )
        for directory, pattern, entry_cap, byte_cap in trees
    ]
    for directory, pattern, _, _ in trees:
        if (directory / QUARANTINE_DIR_NAME).is_dir():
            summaries.append(
                collect_garbage(
                    directory / QUARANTINE_DIR_NAME,
                    pattern,
                    entry_max_age_seconds=QUARANTINE_MAX_AGE_SECONDS,
                    tmp_max_age_seconds=tmp_max_age_seconds,
                    now=now,
                )
            )
    return summaries


def format_gc_summary(summaries: list[dict]) -> str:
    """Human-readable one-line-per-directory gc report."""
    lines = []
    for s in summaries:
        kept = s["entries_before"] - s["entries_removed"]
        kept_bytes = s["bytes_before"] - s["bytes_removed"]
        lines.append(
            f"gc {s['directory']}: removed {s['tmp_removed']} orphaned tmp, "
            f"{s['entries_removed']} entries ({s['bytes_removed'] / 1024:.1f} KiB); "
            f"kept {kept} entries ({kept_bytes / 1024:.1f} KiB)"
        )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Maintenance CLI for shared simulation-cache directories"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gc = sub.add_parser("gc", help="sweep orphaned temp files, enforce caps offline")
    gc.add_argument("cache_dir", help="shared cache directory")
    gc.add_argument("--max-entries", type=int, default=None, help="result-cache cap")
    gc.add_argument("--max-bytes", type=int, default=None, help="result-cache byte cap")
    gc.add_argument(
        "--max-trace-bytes", type=int, default=None, help="trace-cache byte cap"
    )
    gc.add_argument(
        "--tmp-age",
        type=float,
        default=DEFAULT_TMP_MAX_AGE_SECONDS,
        help="minimum age (s) before a .tmp-* writer file counts as orphaned",
    )
    args = parser.parse_args(argv)
    summaries = gc_cache_tree(
        args.cache_dir,
        max_entries=args.max_entries,
        max_bytes=args.max_bytes,
        max_trace_bytes=args.max_trace_bytes,
        tmp_max_age_seconds=args.tmp_age,
    )
    print(format_gc_summary(summaries))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
