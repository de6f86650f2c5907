"""Atomic file publication and the one directory discipline of both caches.

Every on-disk artefact in this project — result-cache cells
(:mod:`repro.harness.cache`) and decoded-trace files
(:mod:`repro.uarch.trace`) — is published the same way: write a
``.tmp-*`` temp file in the *destination* directory, then ``os.replace``
it over the final name.  Readers therefore never observe a torn file,
concurrent writers of the same name resolve to last-writer-wins, and a
writer killed mid-store leaves only an orphaned temp file.

That orphan contract is load-bearing: the offline garbage collector
(``python -m repro.harness.cache gc``) identifies killed-writer debris
purely by the :data:`TMP_PREFIX` name pattern plus age, and every
listing of a cache's entries (:func:`list_entries`) skips in-flight
stores the same way.

Both caches are an :class:`EntryStore`: one file per fingerprint in one
directory.  The store owns what the two caches share — the entry path
and listing, quarantine of corrupt entries, the read's classification
of a failure as a miss or a quarantine, the count of failed stores with
one warning per directory, and the counters of ``cache_stats()`` — and
each cache adds only its payload format (and, for results, a retry
policy and an in-memory fallback).  Nothing prunes during a run:
``cache gc`` is the only pruner, and it lists entries with the same
helpers.

Fault injection seam: :data:`_fault_hook` is ``None`` in production and
set by :func:`repro.harness.faults.install` (this module sits below the
harness layer and must not import it).  When set, the hook is called at
each publication phase — write, torn-temp, crash-before-replace,
crash-after-replace — and before every entry read (``cache.load``), and
may raise an injected error.  Exceptions carrying a true
``preserve_temp`` attribute (injected writer deaths) skip the temp-file
cleanup so chaos runs produce exactly the orphan debris the gc contract
above exists for.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from pathlib import Path
from typing import Callable, IO, Optional, TypeVar

#: Name prefix of in-flight (or orphaned) writer temp files.  The gc
#: sweeper and the caches' directory listings match on this.
TMP_PREFIX = ".tmp-"

#: Subdirectory (of a cache directory) holding quarantined corrupt
#: entries: visible for post-mortem, swept by ``cache gc`` after a week.
QUARANTINE_DIR_NAME = "quarantine"

#: Fault-injection hook installed by ``repro.harness.faults``; always
#: ``None`` outside chaos runs (one attribute test on the hot path).
_fault_hook: Optional[Callable[..., None]] = None

#: Directories that have already warned about failing stores this
#: process; one warning per directory, not per store.
_DEGRADED_WARNED: set[str] = set()

#: What reading a file that is not a valid entry raises: JSON and UTF-8
#: decode errors are ``ValueError``s, and a payload of the wrong shape
#: raises ``KeyError`` or ``TypeError``.
_CORRUPT_ENTRY = (ValueError, KeyError, TypeError)

T = TypeVar("T")


def publish_atomically(
    path: str | os.PathLike,
    write: Callable[[IO], None],
    binary: bool = False,
) -> Path:
    """Write via ``write(handle)`` into a temp file, then rename to ``path``.

    The destination directory is created on demand; the temp file lives
    in it (``os.replace`` must not cross filesystems).  On any failure
    the temp file is removed and the exception re-raised — the
    destination is either fully the old content or fully the new.
    """
    path = Path(path)
    key = str(path)
    directory = path.parent
    directory.mkdir(parents=True, exist_ok=True)
    if _fault_hook is not None:
        _fault_hook("atomicio.write", key)
    fd, temp_path = tempfile.mkstemp(
        dir=directory, prefix=TMP_PREFIX, suffix=path.suffix
    )
    try:
        if binary:
            handle = os.fdopen(fd, "wb")
        else:
            handle = os.fdopen(fd, "w", encoding="utf-8")
        with handle:
            write(handle)
        if _fault_hook is not None:
            _fault_hook("atomicio.torn", key, temp_path)
            _fault_hook("atomicio.crash-before-replace", key)
        os.replace(temp_path, path)
        if _fault_hook is not None:
            _fault_hook("atomicio.crash-after-replace", key)
    except BaseException as error:
        # Injected writer deaths carry preserve_temp: a real killed
        # writer cannot clean up after itself, so neither do we — the
        # orphan is the point (the gc sweeper's contract under test).
        if not getattr(error, "preserve_temp", False):
            try:
                os.unlink(temp_path)
            except FileNotFoundError:
                pass
        raise
    return path


def list_entries(directory: Path, pattern: str) -> list[Path]:
    """The files of ``directory`` matching ``pattern``, writers' temp
    files left out (pathlib's glob matches dot-prefixed names, so they
    are excluded by name)."""
    if not directory.is_dir():
        return []
    return [path for path in directory.glob(pattern) if not path.name.startswith(".")]


def stat_entries(directory: Path, pattern: str) -> list[tuple[float, int, Path]]:
    """``(mtime, size, path)`` of each entry :func:`list_entries` finds,
    least recently used first; an entry removed meanwhile is skipped."""
    entries = []
    for path in list_entries(directory, pattern):
        try:
            stat = path.stat()
        except OSError:  # pragma: no cover - concurrent removal
            continue
        entries.append((stat.st_mtime, stat.st_size, path))
    entries.sort()
    return entries


class EntryStore:
    """A directory of content-addressed entries, one file per fingerprint.

    A subclass names its entry file suffix (:attr:`SUFFIX`), itself in
    warnings (:attr:`KIND`) and what a failed store costs
    (:attr:`DEGRADED`), and brings its payload format: it reads through
    :meth:`_read` and writes through :meth:`_store_entry`.

    Attributes:
        directory: the store's root (created on first store).
        hits / misses / stores: reads served, reads missed and entries
            published, for tests and the ``--cache-stats`` report.
        quarantined: corrupt entries moved into ``quarantine/``.
        degraded_stores: stores that could not be published (read-only
            or full directory); the first in each directory warns.
    """

    SUFFIX = ""
    KIND = ""
    DEGRADED = ""
    #: Every counter, in ``cache_stats()`` order; pool workers ship them.
    COUNTERS = ("hits", "misses", "stores", "quarantined", "degraded_stores")

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0
        self.degraded_stores = 0

    def path_for(self, fingerprint: str) -> Path:
        """The file holding the entry identified by ``fingerprint``."""
        return self.directory / f"{fingerprint}{self.SUFFIX}"

    def quarantine_path(self, fingerprint: str) -> Path:
        """Where a corrupt entry is set aside for post-mortem."""
        return self.directory / QUARANTINE_DIR_NAME / f"{fingerprint}{self.SUFFIX}"

    def _entry_paths(self) -> list[Path]:
        return list_entries(self.directory, "*" + self.SUFFIX)

    def _quarantine(self, fingerprint: str) -> None:
        """Move a corrupt entry aside — visible, gc-swept, never reloaded.

        Without this, a corrupt entry would be re-read and re-missed on
        every lookup forever (the fingerprint keeps addressing the same
        bad file); moving it aside makes the next store land cleanly and
        leaves the evidence where ``cache gc`` reports and eventually
        expires it.
        """
        target = self.quarantine_path(fingerprint)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(self.path_for(fingerprint), target)
        except OSError:  # pragma: no cover - hostile or raced directory
            return
        self.quarantined += 1

    def _read(self, fingerprint: str, parse: Callable[[Path], T]) -> Optional[T]:
        """``parse(path)`` of the entry for ``fingerprint``; None on a miss.

        An ``OSError`` — a missing file, a read error (EIO, permissions)
        or an injected ``cache.load`` fault — is a plain miss: the file
        may be intact and the fault transient, so it is left in place.
        A file that was read but fails to parse (``parse`` raises
        ``ValueError``, ``KeyError`` or ``TypeError``) is corrupt: it is
        quarantined and counts as a miss, so the next store lands
        cleanly.  A hit refreshes the file's mtime, the recency by which
        ``cache gc`` evicts.
        """
        path = self.path_for(fingerprint)
        try:
            if _fault_hook is not None:
                _fault_hook("cache.load", fingerprint)
            value = parse(path)
        except OSError:
            self.misses += 1
            return None
        except _CORRUPT_ENTRY:
            self._quarantine(fingerprint)
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - removed since the read
            pass
        return value

    def _store_entry(
        self, fingerprint: str, write: Callable[[IO], None], binary: bool = False
    ) -> bool:
        """Publish one entry through ``write(handle)``; False when it failed.

        A cache is an accelerator, never a point of failure: an
        ``OSError`` out of :meth:`_publish` (read-only remount, disk
        full, an injected fault) counts a degraded store and never
        reaches the caller.  The first in each directory warns.
        """
        try:
            self._publish(self.path_for(fingerprint), write, binary)
        except OSError as error:
            self.degraded_stores += 1
            directory_key = str(self.directory)
            if directory_key not in _DEGRADED_WARNED:
                _DEGRADED_WARNED.add(directory_key)
                warnings.warn(
                    f"{self.KIND} {directory_key} is not accepting writes "
                    f"({error}); {self.DEGRADED}",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return False
        self.stores += 1
        return True

    def _publish(self, path: Path, write: Callable[[IO], None], binary: bool) -> None:
        """One publication of an entry: a single attempt."""
        publish_atomically(path, write, binary)

    def counters(self) -> dict[str, int]:
        """The :attr:`COUNTERS` by name."""
        return {name: getattr(self, name) for name in self.COUNTERS}

    def cache_stats(self) -> dict:
        """Size and traffic summary for reports (``--cache-stats``)."""
        entries = stat_entries(self.directory, "*" + self.SUFFIX)
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "total_bytes": sum(size for _, size, _ in entries),
            **self.counters(),
        }

    def __len__(self) -> int:
        return len(self._entry_paths())
