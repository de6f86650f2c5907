"""Atomic file publication shared by the result and trace caches.

Every on-disk artefact in this project — result-cache cells
(:mod:`repro.harness.cache`) and decoded-trace files
(:mod:`repro.uarch.trace`) — is published the same way: write a
``.tmp-*`` temp file in the *destination* directory, then ``os.replace``
it over the final name.  Readers therefore never observe a torn file,
concurrent writers of the same name resolve to last-writer-wins, and a
writer killed mid-store leaves only an orphaned temp file.

That orphan contract is load-bearing: the offline garbage collector
(``python -m repro.harness.cache gc``) identifies killed-writer debris
purely by the :data:`TMP_PREFIX` name pattern plus age, and the online
LRU pruners exclude in-flight stores the same way.  Keeping the
discipline in one helper keeps every writer and the sweeper in
agreement.

Fault injection seam: :data:`_fault_hook` is ``None`` in production and
set by :func:`repro.harness.faults.install` (this module sits below the
harness layer and must not import it).  When set, the hook is called at
each publication phase — write, torn-temp, crash-before-replace,
crash-after-replace — and may raise an injected error.  Exceptions
carrying a true ``preserve_temp`` attribute (injected writer deaths)
skip the temp-file cleanup so chaos runs produce exactly the orphan
debris the gc contract above exists for.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Callable, IO, Optional

#: Name prefix of in-flight (or orphaned) writer temp files.  The gc
#: sweeper and the caches' directory listings match on this.
TMP_PREFIX = ".tmp-"

#: Fault-injection hook installed by ``repro.harness.faults``; always
#: ``None`` outside chaos runs (one attribute test on the hot path).
_fault_hook: Optional[Callable[..., None]] = None


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
