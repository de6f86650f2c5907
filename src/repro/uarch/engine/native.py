"""The native replay kernel: the per-cycle loop compiled to C.

``NativeEngine`` executes the same machine as the scalar reference —
commit, writeback, issue, dispatch, fetch, event-driven sampling — but
as a single C extension (``_native.c``), built lazily on first use by
:class:`~repro.uarch.engine.build.ExtensionCompiler` and loaded into the
process.  The C loop owns every per-cycle structure (issue queue, ROB,
rename, caches, predictor) in flat arrays; Python keeps only the pieces
that are inherently Python-facing:

* **The trace is read in place.**  The kernel copies the program's
  :class:`~repro.uarch.trace.StaticTable` once per run (its packed
  40-byte rows) and reads the stream's one
  :class:`~repro.uarch.trace.TraceWindow` through the buffer protocol,
  its columns checked for type, alignment and length but never copied.
  Fetch looks up each entry's static row with a bounds check: a pc that
  is misaligned or outside the table raises ``ValueError`` and is never
  read out of bounds.  A stream's :class:`~repro.uarch.trace.HintMap`
  is copied once per run too, every entry checked against the table,
  and fetch expands its hints as the scalar kernel does.
* **Policies stay Python.**  The kernel calls back on exactly the events
  the scalar core exposes — ``on_hint`` at dispatch, ``on_cycle_end`` at
  the cycles the policy's ``next_wake_cycle`` names,
  ``on_measurement_start`` at the warm-up flip — against a
  :class:`NativeCore` facade carrying real
  :class:`~repro.uarch.issue_queue.BankedIssueQueue` /
  :class:`~repro.uarch.rob.ReorderBuffer` views, so policy code (and its
  clamping semantics) runs unmodified; the resulting limits and the next
  wake cycle flow back into the C loop through the callback's return
  value.  The one exception is the stock hint rule: a policy reporting a
  :meth:`~repro.techniques.base.ResizingPolicy.hint_floor` has its hints
  applied in C, and :meth:`NativeCore.run` credits the policy with the
  count and the last value afterwards.

Bit-identity is the contract, not a goal: the equivalence suite
(``tests/test_engines.py``) asserts byte-identical statistics against
the scalar kernel for all six techniques and across warm-up
boundaries.  Because of that, the engine never
enters cache fingerprints — a grid cached under ``scalar`` is a pure hit
under ``native``.

The C toolchain is optional (the ``native`` install extra): this module
imports with or without it.  An unpinned run on a host without a
compiler resolves to the scalar kernel; explicitly selecting the native
engine there raises :class:`NativeUnavailableError` naming the extra —
never a raw build error from callsite depth.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.uarch.config import ProcessorConfig
from repro.uarch.engine.base import ReplayEngine, register_engine
from repro.uarch.engine.build import ExtensionCompiler
from repro.uarch.issue_queue import BankedIssueQueue
from repro.uarch.rob import ReorderBuffer
from repro.uarch.functional_units import FU_ORDER
from repro.uarch.stats import SimulationStats
from repro.uarch.trace import (
    F_BRANCH,
    F_CALL,
    F_HINT,
    F_LOAD,
    F_NOP,
    F_RET,
    F_STORE,
    HintMap,
    TraceWindow,
    TraceWindowStream,
    empty_columns,
)


class NativeUnavailableError(RuntimeError):
    """The native kernel was selected but cannot be built on this host."""


#: The compiler harness over this kernel's single translation unit.  A
#: second compiled backend is a one-file add: its module instantiates
#: another ExtensionCompiler over its own source and registers an engine.
_COMPILER = ExtensionCompiler(
    os.path.join(os.path.dirname(__file__), "_native.c"), "_native_replay"
)

#: The wake cycle passed to the C loop for a policy that never wants
#: ``on_cycle_end``: the reported clock never reaches it.
_NO_WAKE = (1 << 63) - 1

_MODULE = None


def native_available() -> bool:
    """True when the native kernel can be built (or already was) here."""
    return native_unavailable_reason() is None


def native_unavailable_reason() -> Optional[str]:
    """Why the native kernel cannot run here, or ``None`` when it can.

    Unpinned runs ask this on every call (the default resolution rule),
    so a kernel already loaded answers without re-probing the toolchain.
    """
    if _MODULE is not None:
        return None
    return _COMPILER.unavailable_reason()


def load_native_module():
    """Build (first use only) and return the ``_native_replay`` module.

    Raises :class:`NativeUnavailableError` naming the ``native`` extra
    for *any* failure — missing compiler, missing ``Python.h``, or a
    compile error — so a caller handles one exception type.
    """
    global _MODULE
    if _MODULE is None:
        reason = _COMPILER.unavailable_reason()
        if reason is None:
            try:
                _MODULE = _COMPILER.load()
            except (RuntimeError, OSError, ImportError) as error:
                reason = str(error)
        if _MODULE is None:
            raise NativeUnavailableError(
                "the native replay engine needs a C toolchain (a C compiler "
                "and the Python development headers) to build its kernel: "
                f"{reason}; install the 'native' extra (pip install "
                "repro-hpca2005[native]) on a host with cc/gcc available, "
                "or select the scalar engine"
            )
    return _MODULE


def _hint_params(hints: Optional[HintMap]) -> dict:
    """The stream's hint map as the C loop reads it (``hint_map`` None
    when the stream has none)."""
    if hints is None:
        return {"hint_map": None}
    return {
        "hint_map": hints.runs.packed(),
        "hint_tail_row": hints.tail_row,
        "hint_tail_count": hints.tail_count,
        "hint_budget": hints.budget,
    }


class NativeCore:
    """One native-kernel replay over a trace stream.

    The facade policies see: ``cycle``, ``_committed_total``, ``config``,
    ``iq`` and ``rob`` mirror the scalar core's attributes (the two views
    are real structures, so policy-side clamping — ``set_global_limit``'s
    bank floor, ``set_limit``'s minimum of 1 — behaves identically); the
    per-cycle state itself lives in the C machine for the duration of
    :meth:`run`.
    """

    def __init__(
        self,
        trace: TraceWindowStream,
        config: Optional[ProcessorConfig] = None,
        policy=None,
        warmup_instructions: int = 0,
        max_cycles: Optional[int] = None,
    ):
        # Fail at construction, not mid-run: a missing toolchain surfaces
        # as the named error before any simulation state exists.
        self._module = load_native_module()
        self.config = config or ProcessorConfig.hpca2005()
        self.config.validate()
        if policy is None:
            from repro.techniques.fixed import BaselinePolicy

            policy = BaselinePolicy()
        self.policy = policy
        self.warmup_instructions = warmup_instructions
        self.max_cycles = max_cycles

        self._stream = trace

        cfg = self.config
        # Policy-facing views (see class docstring).
        self.iq = BankedIssueQueue(cfg.iq_entries, cfg.iq_bank_size)
        self.rob = ReorderBuffer(cfg.rob_entries)
        self.cycle = 0
        self._committed_total = 0
        self.stats = SimulationStats(
            iq_banks_total=cfg.iq_banks, rf_banks_total=cfg.int_regfile_banks
        )

        self.policy.on_simulation_start(self)
        self._wake = self._next_wake()
        self._finished = False

    def _next_wake(self) -> int:
        wake = self.policy.next_wake_cycle()
        return _NO_WAKE if wake is None else wake

    # ------------------------------------------------------------------
    def _hook(self, kind, arg, cycle, committed, iq_tail, iq_new_head, max_new_range):
        """Policy dispatch from the C loop (see ``call_hook`` in _native.c).

        Synchronises the facade (the region fields too, which the
        kernel's stock hint rule moves without a crossing), runs the
        policy event, and returns the four limits the C loop needs back,
        ``None`` encoded as -1, and the policy's next wake cycle.
        """
        self.cycle = cycle
        self._committed_total = committed
        iq = self.iq
        iq.tail = iq_tail
        iq.new_head = iq_new_head
        iq.max_new_range = None if max_new_range < 0 else max_new_range
        if kind == 0:
            self.policy.on_hint(self, arg)
        else:
            if kind == 1:
                self.policy.on_cycle_end(self)
            else:
                self.policy.on_measurement_start(self, arg)
            self._wake = self._next_wake()
        max_new_range = iq.max_new_range
        global_limit = iq.global_limit
        rob_limit = self.rob.limit
        return (
            iq.new_head,
            -1 if max_new_range is None else max_new_range,
            -1 if global_limit is None else global_limit,
            -1 if rob_limit is None else rob_limit,
            self._wake,
        )

    def _params(self, window: TraceWindow) -> dict:
        cfg = self.config
        branch = cfg.branch
        iq = self.iq
        floor = self.policy.hint_floor()
        return {
            "fetch_width": cfg.fetch_width,
            "dispatch_width": cfg.dispatch_width,
            "issue_width": cfg.issue_width,
            "commit_width": cfg.commit_width,
            "fetch_queue_entries": cfg.fetch_queue_entries,
            "decode_latency": cfg.decode_latency,
            "branch_mispredict_penalty": cfg.branch_mispredict_penalty,
            "rob_entries": cfg.rob_entries,
            "iq_entries": cfg.iq_entries,
            "iq_bank_size": cfg.iq_bank_size,
            "int_phys_regs": cfg.int_phys_regs,
            "fp_phys_regs": cfg.fp_phys_regs,
            "regfile_bank_size": cfg.regfile_bank_size,
            "num_int_arch": 32,
            "num_fp_arch": 16,
            "l1i_sets": cfg.l1i.num_sets,
            "l1i_assoc": cfg.l1i.assoc,
            "l1i_line": cfg.l1i.line_bytes,
            "l1i_hit": cfg.l1i.hit_latency,
            "l1d_sets": cfg.l1d.num_sets,
            "l1d_assoc": cfg.l1d.assoc,
            "l1d_line": cfg.l1d.line_bytes,
            "l1d_hit": cfg.l1d.hit_latency,
            "l2_sets": cfg.l2.num_sets,
            "l2_assoc": cfg.l2.assoc,
            "l2_line": cfg.l2.line_bytes,
            "l2_hit": cfg.l2.hit_latency,
            "l2_miss_latency": cfg.l2_miss_latency,
            "gshare_entries": branch.gshare_entries,
            "bimodal_entries": branch.bimodal_entries,
            "selector_entries": branch.selector_entries,
            "history_bits": branch.history_bits,
            "btb_sets": max(1, branch.btb_entries // branch.btb_assoc),
            "btb_assoc": branch.btb_assoc,
            "ras_entries": branch.ras_entries,
            "f_hint": F_HINT,
            "f_nop": F_NOP,
            "f_branch": F_BRANCH,
            "f_call": F_CALL,
            "f_ret": F_RET,
            "f_load": F_LOAD,
            "f_store": F_STORE,
            "uses_hints": int(self.policy.uses_hints),
            "iq_bank_gating": int(self.policy.iq_bank_gating),
            "rf_bank_gating": int(self.policy.rf_bank_gating),
            "stock_hints": int(floor is not None),
            "hint_floor": floor or 0,
            "wake": self._wake,
            "warmup_instructions": self.warmup_instructions,
            "max_cycles": -1 if self.max_cycles is None else self.max_cycles,
            "global_limit": -1 if iq.global_limit is None else iq.global_limit,
            "max_new_range": -1 if iq.max_new_range is None else iq.max_new_range,
            "rob_limit": -1 if self.rob.limit is None else self.rob.limit,
            "new_head": iq.new_head,
            "fu_limits": [cfg.fu_counts.get(fu, 0) for fu in FU_ORDER],
            "table": self._stream.table.packed(),
            "table_base": self._stream.table.base,
            **_hint_params(self._stream.hints),
            "window": window,
            "hook": self._hook,
        }

    def run(self) -> SimulationStats:
        """Replay the stream in the compiled loop; return the statistics."""
        if self._finished:
            return self.stats
        window = self._stream.next_window()
        if window is None:
            window = empty_columns()
        result = self._module.run(self._params(window))
        del result["structural_stalls"]
        hints = result.pop("hints_applied")
        last_hint = result.pop("last_hint_value")
        if hints:
            self.policy.hints_applied += hints
            self.policy.last_hint_value = last_hint
        stats = self.stats
        for name, value in result.items():
            setattr(stats, name, value)
        self._finished = True
        return stats


@register_engine
class NativeEngine(ReplayEngine):
    """The compiled C kernel (``engine="native"``, the ``native`` extra)."""

    name = "native"

    def unavailable_reason(self) -> Optional[str]:
        return native_unavailable_reason()

    def build_core(
        self,
        trace,
        *,
        config=None,
        policy=None,
        warmup_instructions: int = 0,
        max_cycles: Optional[int] = None,
    ) -> NativeCore:
        return NativeCore(
            trace,
            config=config,
            policy=policy,
            warmup_instructions=warmup_instructions,
            max_cycles=max_cycles,
        )
