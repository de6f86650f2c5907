"""The replay-engine contract and registry.

A **replay engine** is one implementation of the per-cycle timing loop:
it consumes a trace stream
(:class:`~repro.uarch.trace.TraceWindowStream`) under a resizing policy
and produces :class:`~repro.uarch.stats.SimulationStats`.  The contract
deliberately separates *what* a cycle does (the machine semantics, fixed
by the paper's table 1 and section 3) from *how* a kernel executes it, so
the execution harness — in-process or over the process pool — can run
each job on whichever kernel its process resolves without any caller
noticing.

Two invariants every engine must uphold:

* **Bit-identity** — statistics are a pure function of (trace, policy,
  config, warm-up, budget).  Engines are alternative executions of the
  same machine, never alternative machines: the equivalence suite
  (``tests/test_engines.py``) asserts byte-identical counters between
  kernels for every technique, across warm-up boundaries and machines.
* **Fingerprint neutrality** — because outputs are bit-identical, the
  engine name must never participate in result-cache fingerprints
  (:func:`repro.harness.cache.simulation_fingerprint`).  An engine is
  transport, like the worker count.

Selection: :func:`get_engine` resolves an explicit name, else the
``REPRO_REPLAY_KERNEL`` environment variable, else ``"native"`` when this
host can build it, else ``"scalar"``.  Every executing process applies
the rule for itself.
"""

from __future__ import annotations

import abc
import os
from typing import Optional

from repro.uarch.stats import SimulationStats

#: Environment variable pinning the kernel for a process.
ENGINE_ENV_VAR = "REPRO_REPLAY_KERNEL"


class ReplayEngine(abc.ABC):
    """One execution kernel for the per-cycle replay loop.

    Subclasses implement :meth:`build_core`; :meth:`run` is defined once
    here in terms of it.
    """

    #: Registry key and the name reported by tools (``--engine`` values).
    name: str = "abstract"

    def unavailable_reason(self) -> Optional[str]:
        """Why this kernel cannot run on this host, or ``None`` if it can.

        Registration is unconditional (the registry answers "what kernels
        exist", not "what runs here"); optional kernels override this so
        callers — the default resolution rule, the pytest ``--engine``
        plumbing — can fall back or skip *before* :meth:`build_core`
        raises the kernel's named ``*UnavailableError``.
        """
        return None

    @abc.abstractmethod
    def build_core(
        self,
        trace,
        *,
        config=None,
        policy=None,
        warmup_instructions: int = 0,
        max_cycles: Optional[int] = None,
    ):
        """Construct this kernel's core over ``trace``, a
        :class:`~repro.uarch.trace.TraceWindowStream`."""

    def run(
        self,
        trace,
        policy=None,
        *,
        config=None,
        warmup_instructions: int = 0,
        max_cycles: Optional[int] = None,
    ) -> SimulationStats:
        """Replay ``trace`` to its end and return the run's statistics."""
        core = self.build_core(
            trace,
            config=config,
            policy=policy,
            warmup_instructions=warmup_instructions,
            max_cycles=max_cycles,
        )
        return core.run()


_ENGINE_CLASSES: dict[str, type] = {}
_ENGINE_INSTANCES: dict[str, ReplayEngine] = {}


def register_engine(cls: type) -> type:
    """Class decorator adding a :class:`ReplayEngine` to the registry."""
    _ENGINE_CLASSES[cls.name] = cls
    return cls


def available_engines() -> tuple[str, ...]:
    """Registered kernel names, in registration order."""
    return tuple(_ENGINE_CLASSES)


def resolve_engine_name(name: Optional[str] = None) -> str:
    """The effective kernel name on this host.

    An explicit ``name`` wins, then ``REPRO_REPLAY_KERNEL``; otherwise
    the compiled ``native`` kernel when its ``unavailable_reason()`` is
    ``None``, else the ``scalar`` reference.  Raises ``ValueError`` for a
    name that is not registered, naming the choices — a typo in
    ``REPRO_REPLAY_KERNEL`` should fail loudly at selection time, not
    deep inside a worker.
    """
    if name is None:
        name = os.environ.get(ENGINE_ENV_VAR)
    if not name:
        native = get_engine("native")
        return "native" if native.unavailable_reason() is None else "scalar"
    if name not in _ENGINE_CLASSES:
        raise ValueError(
            f"unknown replay engine {name!r}; available: "
            + ", ".join(available_engines())
        )
    return name


def get_engine(name: Optional[str] = None) -> ReplayEngine:
    """The engine instance for ``name`` (engines are stateless, shared)."""
    name = resolve_engine_name(name)
    engine = _ENGINE_INSTANCES.get(name)
    if engine is None:
        engine = _ENGINE_INSTANCES[name] = _ENGINE_CLASSES[name]()
    return engine
