"""Pluggable replay engines for the per-cycle timing loop.

The simulator separates *what* a cycle does from *how* a kernel executes
it: :class:`~repro.uarch.engine.base.ReplayEngine` is the contract
(``run`` over a trace stream), and two kernels implement it —

* :class:`~repro.uarch.engine.scalar.ScalarEngine` (``"scalar"``): the
  pure-Python reference loop, behaviour frozen;
* :class:`~repro.uarch.engine.native.NativeEngine` (``"native"``): the
  per-cycle loop as a C extension, compiled lazily on first use by
  :mod:`repro.uarch.engine.build` and skipped cleanly on hosts without
  a toolchain (:class:`~repro.uarch.engine.native.NativeUnavailableError`).

Statistics are **bit-identical** between kernels for every technique
and machine, so the engine choice is pure transport and never
participates in result-cache fingerprints.  An unpinned call runs
``native`` where it builds and ``scalar`` elsewhere; ``engine=``,
``REPRO_REPLAY_KERNEL``, ``figure_report.py --engine`` and
``pytest --engine`` pin it.  The catalogue — contract, selection rule,
measured throughput, and how to add a kernel — is ``docs/engines.md``.
"""

from repro.uarch.engine.base import (
    ENGINE_ENV_VAR,
    ReplayEngine,
    available_engines,
    get_engine,
    register_engine,
    resolve_engine_name,
)
from repro.uarch.engine.scalar import OutOfOrderCore, ScalarEngine
from repro.uarch.engine.native import (
    NativeCore,
    NativeEngine,
    NativeUnavailableError,
    native_available,
    native_unavailable_reason,
)

__all__ = [
    "ENGINE_ENV_VAR",
    "ReplayEngine",
    "available_engines",
    "get_engine",
    "register_engine",
    "resolve_engine_name",
    "OutOfOrderCore",
    "ScalarEngine",
    "NativeCore",
    "NativeEngine",
    "NativeUnavailableError",
    "native_available",
    "native_unavailable_reason",
]
