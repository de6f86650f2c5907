"""The replay-engine architecture: selection, equivalence, invariance.

The contract under test (see :mod:`repro.uarch.engine`):

* **Selection** — an explicit ``engine=`` argument wins, then
  ``REPRO_REPLAY_KERNEL``; otherwise the native kernel where it builds,
  else the scalar reference.
* **Bit-identity** — the native kernel's statistics are byte-identical
  to the scalar reference for all six techniques, whether the trace
  comes from the memo, from a trace file or from live emulation, and
  across warm-up boundaries — on the table-1 machine, on two machines
  two and four times as wide and on one with no power-of-two cache,
  predictor or issue-queue geometry — and on every benchmark of the
  extended suite, down to the cell files the runner stores.
* **Fingerprint neutrality** — the engine never changes result-cache
  keys: a grid simulated under one kernel is a pure cache hit under the
  other.
* **Guarded availability** — pinning the native kernel without a C
  toolchain fails with one clear error naming the install extra, not a
  build error from callsite depth, and the kernel source compiles
  warning-free where a toolchain exists.
* **The kernel's hint rule** — the native kernel applies the stock
  software policy's hint rule in C; it replays exactly as the policy's
  own ``on_hint`` does through the hook, floors that bind included, and
  the hooks that still run see the region it applied.
* **Failure paths** — a trace pc with no static row, a window source
  that raises and a policy hook that raises all surface as exceptions
  under either kernel, and leave nothing behind that changes the next
  replay.
* **Machine semantics** — the scalar kernel's stage methods are the
  Python definition of the machine.  Directed streams step them cycle
  by cycle through figure 2 (a full region stops dispatch until its
  oldest entry issues), the global, physical and ROB limits, the
  circular queue's slot reuse and bank gating, wakeup and the gated
  comparator count, oldest-first select, in-order commit,
  lowest-first register allocation and the per-class unit limits; each
  stream also replays to the same statistics under both kernels.
* **Random machines** — a hypothesis property draws every structural
  field of ``ProcessorConfig`` and holds the kernels to the same
  statistics on extended-suite programs under every technique.

``tests/test_native_sanitizer.py`` reruns this module against an
AddressSanitizer build of the native kernel.
"""

from __future__ import annotations

import functools
import json
import subprocess
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import compile_program
from repro.harness import ParallelSuiteRunner, RunConfig
from repro.harness.cache import stats_to_dict
from repro.harness.experiment import SOFTWARE_TECHNIQUES, TECHNIQUES, make_policy
from repro.harness.parallel import SimulationJob
from repro.isa import Instruction, Opcode, Program
from repro.isa.opcodes import FuClass
from repro.isa.registers import fp_reg, int_reg
from repro.techniques import (
    AbellaPolicy,
    BaselinePolicy,
    FixedLimitPolicy,
    SoftwareDirectedPolicy,
)
from repro.uarch import available_engines, get_engine, resolve_engine_name, simulate
from repro.uarch.config import BranchPredictorConfig, CacheConfig, ProcessorConfig
from repro.uarch.engine import base as engine_base
from repro.uarch.engine import native as native_module
from repro.uarch.engine.native import NativeUnavailableError
from repro.uarch.engine.scalar import OutOfOrderCore
from repro.uarch.rob import COMPLETED, DISPATCHED, ISSUED
from repro.uarch.trace import (
    StaticTable,
    TraceCache,
    TraceWindow,
    TraceWindowStream,
    clear_trace_memo,
    empty_columns,
    get_trace_columns,
    get_trace_stream,
    reset_trace_events,
    static_table,
    trace_events,
)
from repro.workloads import ALL_BENCHMARKS, SPECINT_BENCHMARKS, build_benchmark

#: The native kernel needs a C toolchain; hosts without one skip its
#: equivalence matrix but still run the availability-guard tests.
needs_native = pytest.mark.skipif(
    not native_module.native_available(),
    reason=f"native kernel unavailable: {native_module.native_unavailable_reason()}",
)

BENCHMARK = "gzip"
BUDGET = 2_500
WARMUP = 400

_CONFIG = RunConfig(max_instructions=BUDGET, warmup_instructions=WARMUP)
_PROGRAMS: dict[str, object] = {}


def _fu_counts(scale: int) -> dict[FuClass, int]:
    """Table-1 functional units scaled up for a wider back end."""
    return {
        FuClass.INT_ALU: 6 * scale,
        FuClass.INT_MUL: 3 * scale,
        FuClass.FP_ALU: 4 * scale,
        FuClass.FP_MULDIV: 2 * scale,
        FuClass.MEM_PORT: 2 * scale,
        FuClass.NONE: 64,
    }


def _wide_config(
    width: int, iq_entries: int, iq_bank_size: int, scale: int
) -> ProcessorConfig:
    """A width-scaled machine: every structure the paper sizes to an
    8-wide core grows with the issue width, and the banks stay one
    eighth of the queue, so banked gating stays meaningful."""
    return ProcessorConfig(
        fetch_width=width,
        dispatch_width=width,
        issue_width=width,
        commit_width=width,
        fetch_queue_entries=4 * width,
        rob_entries=2 * iq_entries,
        iq_entries=iq_entries,
        iq_bank_size=iq_bank_size,
        int_phys_regs=2 * iq_entries,
        fp_phys_regs=2 * iq_entries,
        regfile_bank_size=iq_bank_size,
        fu_counts=_fu_counts(scale),
    )


#: Table 1 with no power-of-two geometry where the native kernel would
#: otherwise index by shift and mask: a partial last issue-queue bank, a
#: 3-way L1D of 682 sets, 48-byte L2 lines and predictor tables of
#: 1536 and 768 entries (a 4-way BTB of 384 sets).
NON_POWER_OF_TWO_CONFIG = ProcessorConfig(
    iq_entries=84,
    iq_bank_size=8,
    int_phys_regs=120,
    fp_phys_regs=120,
    regfile_bank_size=8,
    l1d=CacheConfig("l1d", 64 * 1024, 3, 32, 2),
    l2=CacheConfig("l2", 512 * 1024, 8, 48, 10),
    branch=BranchPredictorConfig(
        gshare_entries=1536,
        bimodal_entries=1536,
        selector_entries=768,
        btb_entries=1536,
        btb_assoc=4,
    ),
)

#: Machines beyond table 1: two wider ones (more wakeups per cycle, more
#: queue banks and deeper rename pressure than the paper's machine
#: exercises) and one whose geometry takes the kernel's division paths.
WIDE_CONFIGS = {
    "iq256-w16": _wide_config(16, 256, 32, 2),
    "iq512-w32": _wide_config(32, 512, 64, 4),
    "iq84-non-power-of-two": NON_POWER_OF_TWO_CONFIG,
}


def _program_for(technique: str):
    """The (possibly instrumented) program for ``technique``, memoised."""
    key = technique if technique in SOFTWARE_TECHNIQUES else "plain"
    program = _PROGRAMS.get(key)
    if program is None:
        if technique in SOFTWARE_TECHNIQUES:
            program = compile_program(
                build_benchmark(BENCHMARK),
                _CONFIG.compiler_config,
                mode=technique,
            ).instrumented_program
        else:
            program = build_benchmark(BENCHMARK)
        _PROGRAMS[key] = program
    return program


@functools.lru_cache(maxsize=None)
def _technique_programs(benchmark: str) -> dict[str, object]:
    """Each technique's program for ``benchmark``: the instrumented
    build for the software techniques, the plain program otherwise."""
    plain = build_benchmark(benchmark)
    return {
        technique: compile_program(
            plain, _CONFIG.compiler_config, mode=technique
        ).instrumented_program
        if technique in SOFTWARE_TECHNIQUES
        else plain
        for technique in TECHNIQUES
    }


def _stats_bytes(stats) -> bytes:
    return json.dumps(stats_to_dict(stats), sort_keys=True).encode()


#: Where a replay's trace comes from: the in-process memo (emulated
#: once; a hinted program replays its stripped program's trace with a
#: ``HintMap``), a trace file read back from disk, or live emulation of
#: the program itself, hint NOOPs included.
SOURCES = ("memo", "disk", "live")


def _run(
    technique: str,
    engine: str,
    warmup: int = WARMUP,
    config=None,
    source: str = "memo",
    cache=None,
):
    """Replay ``technique``'s program with its trace from ``source``;
    a ``"disk"`` replay reads the file ``cache`` holds."""
    program = _program_for(technique)
    if source == "disk":
        clear_trace_memo()
        get_trace_columns(program, BUDGET, cache=cache, live=False)  # stored once
        clear_trace_memo()  # the replay reads the file, not the memo
        reset_trace_events()
    stats = simulate(
        program,
        make_policy(technique, _CONFIG),
        config=config,
        max_instructions=BUDGET,
        warmup_instructions=warmup,
        trace_cache=cache if source == "disk" else None,
        live_emulation=source == "live",
        engine=engine,
    )
    if source == "disk":
        assert (trace_events["disk_hits"], trace_events["emulations"]) == (1, 0)
    return stats


def _empty_stream() -> TraceWindowStream:
    return TraceWindowStream(StaticTable([]), empty_columns())


@pytest.fixture(scope="module")
def trace_cache(tmp_path_factory) -> TraceCache:
    """The trace files this module's ``"disk"`` replays read."""
    return TraceCache(tmp_path_factory.mktemp("traces"))


@pytest.fixture()
def no_toolchain(monkeypatch):
    """Simulate a host without a C compiler, whatever this one has."""
    monkeypatch.setattr(native_module, "_MODULE", None)
    monkeypatch.setattr(
        native_module._COMPILER,
        "unavailable_reason",
        lambda: "no C compiler (cc/gcc/$CC) on PATH",
    )


class TestEngineSelection:
    def test_all_kernels_are_registered(self):
        # Registration is unconditional; availability is a separate,
        # per-host question answered at build_core time.
        assert set(available_engines()) == {"scalar", "native"}

    @needs_native
    def test_default_is_native_when_it_builds(self, monkeypatch):
        monkeypatch.delenv(engine_base.ENGINE_ENV_VAR, raising=False)
        assert resolve_engine_name() == "native"

    def test_default_is_scalar_without_a_toolchain(self, monkeypatch, no_toolchain):
        monkeypatch.delenv(engine_base.ENGINE_ENV_VAR, raising=False)
        assert resolve_engine_name() == "scalar"
        # An unpinned simulation falls back instead of raising.
        stats = simulate(
            _program_for("baseline"),
            make_policy("baseline", _CONFIG),
            max_instructions=200,
        )
        assert stats.committed_instructions > 0

    def test_environment_supplies_the_default(self, monkeypatch):
        # The pin beats the native kernel even where it builds.
        monkeypatch.setenv(engine_base.ENGINE_ENV_VAR, "scalar")
        assert resolve_engine_name() == "scalar"

    def test_explicit_argument_beats_the_environment(self, monkeypatch):
        monkeypatch.setenv(engine_base.ENGINE_ENV_VAR, "scalar")
        assert resolve_engine_name("native") == "native"
        monkeypatch.setenv(engine_base.ENGINE_ENV_VAR, "native")
        assert resolve_engine_name("scalar") == "scalar"

    def test_unknown_engine_fails_naming_the_choices(self, monkeypatch):
        with pytest.raises(ValueError) as excinfo:
            resolve_engine_name("vector9000")
        assert "scalar" in str(excinfo.value)
        assert "native" in str(excinfo.value)
        # A typo in the environment fails the same way.
        monkeypatch.setenv(engine_base.ENGINE_ENV_VAR, "vector9000")
        with pytest.raises(ValueError, match="native"):
            resolve_engine_name()

    def test_unknown_engine_is_rejected_at_runner_construction(self):
        with pytest.raises(ValueError, match="vector9000"):
            ParallelSuiteRunner(_CONFIG, workers=1, engine="vector9000")

    def test_engine_instances_are_shared(self):
        assert get_engine("scalar") is get_engine("scalar")
        assert get_engine("scalar").build_core(_empty_stream()).__class__ is OutOfOrderCore


@needs_native
class TestEngineEquivalence:
    """Scalar vs native bit-identity beyond table 1: every test runs on
    each of ``WIDE_CONFIGS``, beyond the table-1 matrix of
    :class:`TestNativeEquivalence`."""

    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("source", SOURCES)
    def test_bit_identical_across_techniques(self, technique, source, trace_cache):
        for name, config in WIDE_CONFIGS.items():
            scalar, native = (
                _run(technique, kernel, config=config, source=source, cache=trace_cache)
                for kernel in ("scalar", "native")
            )
            assert _stats_bytes(scalar) == _stats_bytes(native), name

    @pytest.mark.parametrize("warmup", (0, 1, WARMUP, BUDGET // 2))
    def test_bit_identical_across_warmup_boundaries(self, warmup):
        for name, config in WIDE_CONFIGS.items():
            scalar = _run("abella", "scalar", warmup=warmup, config=config)
            native = _run("abella", "native", warmup=warmup, config=config)
            assert _stats_bytes(scalar) == _stats_bytes(native), name


@needs_native
class TestNativeEquivalence:
    """Scalar vs native (compiled C) bit-identity on the table-1
    machine, plus the C loop's own boundary cases."""

    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("source", SOURCES)
    def test_bit_identical_across_techniques(self, technique, source, trace_cache):
        """All six techniques × the three trace sources: the native
        kernel reads the emulator's buffers, the columns decoded from a
        trace file and a live trace with its hint NOOPs in place."""
        scalar, native = (
            _run(technique, kernel, source=source, cache=trace_cache)
            for kernel in ("scalar", "native")
        )
        assert _stats_bytes(scalar) == _stats_bytes(native)

    @pytest.mark.parametrize("warmup", (0, 1, WARMUP, BUDGET // 2))
    def test_bit_identical_across_warmup_boundaries(self, warmup):
        """The C kernel replaces the scalar rebase walk with an absolute
        clock and a base flip; every reported cycle and every in-flight
        event must still agree wherever the boundary falls."""
        scalar = _run("abella", "scalar", warmup=warmup)
        native = _run("abella", "native", warmup=warmup)
        assert _stats_bytes(scalar) == _stats_bytes(native)

    # Not ``benchmark``: that name is the pytest-benchmark fixture's.
    @pytest.mark.parametrize("workload", ALL_BENCHMARKS)
    def test_bit_identical_on_every_benchmark(self, workload):
        """Beyond gzip: every benchmark's instruction mix (FP streams,
        branch storms, pointer chasing, phase changes) replays to the
        same bytes under both kernels, for all six techniques."""
        for technique, program in _technique_programs(workload).items():
            scalar, native = (
                simulate(
                    program,
                    make_policy(technique, _CONFIG),
                    max_instructions=BUDGET,
                    warmup_instructions=WARMUP,
                    engine=engine,
                )
                for engine in ("scalar", "native")
            )
            assert _stats_bytes(scalar) == _stats_bytes(native), technique

    def test_empty_trace_runs(self):
        scalar = get_engine("scalar").run(_empty_stream())
        native = get_engine("native").run(_empty_stream())
        assert _stats_bytes(scalar) == _stats_bytes(native)

    def test_a_drained_stream_replays_as_an_empty_trace(self):
        """A stream whose one window was already handed out gives each
        kernel nothing to fetch: both replay it as the empty trace."""
        empty = _stats_bytes(get_engine("scalar").run(_empty_stream(), AbellaPolicy()))
        for kernel in ("scalar", "native"):
            stream = get_trace_stream(_program_for("abella"), BUDGET)
            assert stream.next_window().length == BUDGET
            drained = get_engine(kernel).run(stream, AbellaPolicy())
            assert drained.committed_instructions == 0, kernel
            assert _stats_bytes(drained) == empty, kernel

    def test_max_cycles_budget_is_respected(self):
        program = _program_for("baseline")
        scalar = get_engine("scalar").run(
            get_trace_stream(program, 2_000), max_cycles=123
        )
        native = get_engine("native").run(
            get_trace_stream(program, 2_000), max_cycles=123
        )
        assert _stats_bytes(scalar) == _stats_bytes(native)


class HookedSoftwarePolicy(SoftwareDirectedPolicy):
    """The stock software policy behind an ``on_hint`` that only defers to
    it: the override makes the native kernel call the hook at every hint
    instead of applying the stock rule itself."""

    def on_hint(self, core, value: int) -> None:
        super().on_hint(core, value)


class RegionReadingPolicy(SoftwareDirectedPolicy):
    """The stock software policy recording the issue queue's region at
    each warm-up flip and each cycle end.  Its ``on_hint`` is the stock
    one, so the native kernel applies the hints the hooks then read."""

    def __init__(self, variant: str = "noop"):
        super().__init__(variant)
        self.seen: list[tuple] = []

    def _record(self, core) -> None:
        self.seen.append((core.cycle, core.iq.new_head, core.iq.max_new_range))


class MeasurementStartReader(RegionReadingPolicy):
    def on_measurement_start(self, core, cycle_shift: int) -> None:
        self._record(core)


class CycleEndReader(RegionReadingPolicy):
    def on_cycle_end(self, core) -> None:
        self._record(core)


def _hint_replay(program, policy, engine: str):
    """``(stats bytes, hints_applied, last_hint_value)`` of one replay."""
    stats = simulate(
        program,
        policy,
        max_instructions=BUDGET,
        warmup_instructions=WARMUP,
        engine=engine,
    )
    return _stats_bytes(stats), policy.hints_applied, policy.last_hint_value


@needs_native
class TestKernelHintRule:
    """The native kernel's stock hint rule against the policy's own
    ``on_hint``: through the hook, and in the scalar reference."""

    def test_only_the_stock_on_hint_reports_a_floor(self):
        assert SoftwareDirectedPolicy(min_region_entries=24).hint_floor() == 24
        assert HookedSoftwarePolicy().hint_floor() is None
        assert RegionReadingPolicy().hint_floor() == 2
        instance = SoftwareDirectedPolicy()
        instance.on_hint = instance.on_hint
        assert instance.hint_floor() is None
        for technique in ("baseline", "nonempty", "abella"):
            assert make_policy(technique, _CONFIG).hint_floor() is None

    @pytest.mark.parametrize("workload", SPECINT_BENCHMARKS)
    def test_kernel_rule_replays_like_the_hook(self, workload):
        """A subclass deferring to the stock ``on_hint`` forces the hook;
        the native kernel's rule replays to the same bytes and leaves the
        same hint counters, as does the scalar reference."""
        programs = _technique_programs(workload)
        for technique in SOFTWARE_TECHNIQUES:
            program = programs[technique]
            stock = _hint_replay(program, make_policy(technique, _CONFIG), "native")
            hooked = _hint_replay(program, HookedSoftwarePolicy(technique), "native")
            scalar = _hint_replay(program, make_policy(technique, _CONFIG), "scalar")
            assert stock[1] > 0, technique
            assert stock == hooked == scalar, technique

    @pytest.mark.parametrize("floor", (40, 64))
    @pytest.mark.parametrize("technique", SOFTWARE_TECHNIQUES)
    def test_binding_floors_are_bit_identical(self, technique, floor):
        """``min_region_entries`` high enough to raise gcc's hints where
        their regions fill (a floor of 24 moves no replay of the suite at
        this budget): the C clamp equals the Python one, and the floor
        moves the replay."""
        program = compile_program(
            build_benchmark("gcc"), _CONFIG.compiler_config, mode=technique
        ).instrumented_program
        scalar = _hint_replay(
            program, SoftwareDirectedPolicy(technique, min_region_entries=floor), "scalar"
        )
        native = _hint_replay(
            program, SoftwareDirectedPolicy(technique, min_region_entries=floor), "native"
        )
        assert native == scalar
        assert native[2] >= floor
        unfloored = _hint_replay(program, SoftwareDirectedPolicy(technique), "native")
        assert unfloored[0] != native[0]

    @pytest.mark.parametrize("policy_class", (MeasurementStartReader, CycleEndReader))
    @pytest.mark.parametrize("technique", ("noop", "extension"))
    def test_hooks_read_the_region_the_kernel_applied(self, policy_class, technique):
        """A policy overriding only ``on_measurement_start`` or
        ``on_cycle_end`` reads the same ``new_head`` and
        ``max_new_range`` under both kernels, and writing its facade back
        changes nothing."""
        seen = {}
        replays = {}
        for engine in ("scalar", "native"):
            policy = policy_class(technique)
            replays[engine] = _hint_replay(_program_for(technique), policy, engine)
            seen[engine] = policy.seen
        assert seen["native"] == seen["scalar"]
        assert any(limit is not None for _, _, limit in seen["native"])
        assert replays["native"] == replays["scalar"]
        assert replays["native"] == _hint_replay(
            _program_for(technique), SoftwareDirectedPolicy(technique), "native"
        )


#: Both kernels; the native one only where it builds.
KERNELS = ("scalar", pytest.param("native", marks=needs_native))


class WindowSourceError(Exception):
    """Raised by a stream's window source as a kernel pulls the window."""


class PolicyHookError(Exception):
    """Raised by a policy hook partway through a replay."""


def _failing(policy_class, hook: str, calls: int):
    """A ``policy_class`` whose ``hook`` raises on its ``calls``-th call."""

    class Failing(policy_class):
        seen = 0

    def failing(self, *args):
        self.seen += 1
        if self.seen == calls:
            raise PolicyHookError(hook)
        return getattr(policy_class, hook)(self, *args)

    setattr(Failing, hook, failing)
    return Failing


class TestKernelErrorPaths:
    """Failures in a replay raise, and the next replay is unaffected."""

    def _replay(self, kernel: str, technique: str = "abella", **kwargs):
        return _stats_bytes(_run(technique, kernel, **kwargs))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("where", ("misaligned", "below", "past"))
    def test_pc_without_a_static_row_raises(self, kernel, where):
        fresh = self._replay(kernel)
        program = _program_for("abella")
        table = static_table(program)
        columns = get_trace_columns(program, BUDGET)
        pcs = array("q", columns.pc)
        pcs[BUDGET // 2] = {
            "misaligned": pcs[BUDGET // 2] + 2,
            "below": table.base - 4,
            "past": table.base + 4 * len(table),
        }[where]
        stream = TraceWindowStream(table, TraceWindow(pcs, *columns[1:]))
        with pytest.raises(ValueError, match="names no static instruction"):
            get_engine(kernel).run(stream, AbellaPolicy())
        assert self._replay(kernel) == fresh

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_window_source_error_propagates(self, kernel):
        fresh = self._replay(kernel)
        program = _program_for("abella")

        class FailingStream(TraceWindowStream):
            def next_window(self):
                raise WindowSourceError("window source failed")

        stream = FailingStream(static_table(program), get_trace_columns(program, BUDGET))
        with pytest.raises(WindowSourceError):
            get_engine(kernel).run(stream, AbellaPolicy())
        assert self._replay(kernel) == fresh

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "technique, policy_class, hook",
        (
            ("noop", SoftwareDirectedPolicy, "on_hint"),
            ("abella", AbellaPolicy, "on_cycle_end"),
            ("abella", AbellaPolicy, "on_measurement_start"),
        ),
    )
    def test_policy_hook_error_propagates(
        self, kernel, technique, policy_class, hook
    ):
        fresh = self._replay(kernel, technique)
        policy = _failing(policy_class, hook, 3 if hook == "on_hint" else 1)()
        with pytest.raises(PolicyHookError):
            get_engine(kernel).run(
                get_trace_stream(_program_for(technique), BUDGET),
                policy,
                warmup_instructions=WARMUP,
            )
        assert self._replay(kernel, technique) == fresh


class RecordingPolicy(BaselinePolicy):
    """Baseline behaviour that records the cycle of each ``on_cycle_end``."""

    def __init__(self):
        super().__init__()
        self.calls: list[int] = []

    def on_cycle_end(self, core) -> None:
        self.calls.append(core.cycle)


class PeriodicPolicy(RecordingPolicy):
    """Asks to be woken ``PERIOD`` cycles after its previous wake."""

    PERIOD = 97

    def next_wake_cycle(self) -> int:
        return (self.calls[-1] if self.calls else 0) + self.PERIOD


class SleepingPolicy(BaselinePolicy):
    """Overrides ``on_cycle_end`` but never asks to be woken."""

    def next_wake_cycle(self):
        return None

    def on_cycle_end(self, core) -> None:
        raise AssertionError(f"woken at cycle {core.cycle} without asking")


class TestPolicyWake:
    """Kernels call ``on_cycle_end`` exactly at the cycles a policy asks for."""

    def _replay(self, kernel: str, policy):
        return get_engine(kernel).run(
            get_trace_stream(_program_for("baseline"), BUDGET), policy
        )

    def test_only_abella_asks_to_be_woken(self):
        for technique in TECHNIQUES:
            wake = make_policy(technique, _CONFIG).next_wake_cycle()
            assert (wake is None) == (technique != "abella"), technique

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_an_overridden_cycle_hook_runs_every_cycle(self, kernel):
        policy = RecordingPolicy()
        assert policy.next_wake_cycle() == 0
        stats = self._replay(kernel, policy)
        assert policy.calls == list(range(stats.cycles))
        assert _stats_bytes(stats) == _stats_bytes(
            self._replay(kernel, BaselinePolicy())
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_cycle_hook_runs_only_at_the_wake_cycles(self, kernel):
        policy = PeriodicPolicy()
        stats = self._replay(kernel, policy)
        period = PeriodicPolicy.PERIOD
        assert policy.calls == list(range(period, stats.cycles, period))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_no_wake_cycle_means_no_cycle_hook(self, kernel):
        stats = self._replay(kernel, SleepingPolicy())
        assert _stats_bytes(stats) == _stats_bytes(
            self._replay(kernel, BaselinePolicy())
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_abella_decides_at_every_wake(self, kernel):
        class CountingAbella(AbellaPolicy):
            wakes = 0

            def on_cycle_end(self, core) -> None:
                self.wakes += 1
                super().on_cycle_end(core)

        policy = CountingAbella(interval_cycles=256)
        get_engine(kernel).run(
            get_trace_stream(_program_for("abella"), BUDGET),
            policy,
            warmup_instructions=WARMUP,
        )
        assert policy.wakes >= 2
        assert policy.wakes == len(policy.decisions)


class TestFingerprintInvariance:
    """Engines are transport: cache keys must not see them."""

    def test_simulation_job_fingerprint_ignores_the_engine(self):
        jobs = [
            SimulationJob(BENCHMARK, "baseline", _CONFIG, engine=engine)
            for engine in (None, "scalar", "native")
        ]
        assert len({job.fingerprint() for job in jobs}) == 1

    def _cached_then_replayed(self, tmp_path, first_engine, second_engine):
        """Cache a two-cell grid under one kernel, re-run it under the
        other, and return the second runner's simulation count."""
        config = RunConfig(
            max_instructions=1_500, warmup_instructions=200, benchmarks=(BENCHMARK,)
        )
        first = ParallelSuiteRunner(
            config, workers=1, cache_dir=str(tmp_path), engine=first_engine
        )
        first.run_suite(techniques=("baseline", "abella"))
        assert first.simulations_run == 2
        second = ParallelSuiteRunner(
            config, workers=1, cache_dir=str(tmp_path), engine=second_engine
        )
        results = second.run_suite(techniques=("baseline", "abella"))
        assert set(results) == {(BENCHMARK, "baseline"), (BENCHMARK, "abella")}
        return second.simulations_run

    @needs_native
    def test_cells_simulated_under_either_kernel_are_byte_identical(self, tmp_path):
        """The runner's one replay path (``SimulationJob`` → ``simulate``
        → ``ReplayEngine.run``) stores the same cell files, name and
        bytes, whichever kernel ran the six techniques."""
        config = RunConfig(
            max_instructions=1_500, warmup_instructions=200, benchmarks=(BENCHMARK,)
        )
        cells = {}
        for engine in ("scalar", "native"):
            cache_dir = tmp_path / engine
            runner = ParallelSuiteRunner(
                config, workers=1, cache_dir=str(cache_dir), engine=engine
            )
            runner.run_suite(techniques=TECHNIQUES)
            assert runner.simulations_run == len(TECHNIQUES)
            cells[engine] = {
                path.name: path.read_bytes() for path in cache_dir.glob("*.json")
            }
        assert len(cells["scalar"]) == len(TECHNIQUES)
        assert cells["scalar"] == cells["native"]

    @needs_native
    def test_grid_cached_under_scalar_is_pure_hit_under_native(self, tmp_path):
        """A grid simulated and cached under the scalar kernel replays as
        a pure cache hit under the native one — zero simulations run."""
        assert self._cached_then_replayed(tmp_path, "scalar", "native") == 0

    @needs_native
    def test_grid_cached_under_one_kernel_is_hit_under_the_other(self, tmp_path):
        # The other direction: a native-default host's cache serves a
        # host that falls back to scalar.
        assert self._cached_then_replayed(tmp_path, "native", "scalar") == 0


class TestNativeAvailabilityGuard:
    """The degraded path: no C toolchain must mean one named error."""

    def test_missing_toolchain_raises_a_clear_error(self, no_toolchain):
        assert not native_module.native_available()
        with pytest.raises(NativeUnavailableError) as excinfo:
            get_engine("native").build_core(_empty_stream())
        message = str(excinfo.value)
        assert "native" in message  # names the install extra
        assert "scalar" in message  # and the fallback kernel
        assert "C compiler" in message  # and the actual missing piece

    def test_simulate_surfaces_the_guard_not_a_build_error(self, no_toolchain):
        with pytest.raises(NativeUnavailableError):
            simulate(
                _program_for("baseline"),
                make_policy("baseline", _CONFIG),
                max_instructions=200,
                engine="native",
            )

    def test_compile_failure_is_wrapped_into_the_named_error(self, monkeypatch, tmp_path):
        """A *broken* toolchain (compile error), not a missing one, must
        surface as the same named error — never a raw build traceback."""
        from repro.uarch.engine.build import ExtensionCompiler

        bad_source = tmp_path / "broken.c"
        bad_source.write_text("this is not C\n")
        compiler = ExtensionCompiler(str(bad_source), "_native_replay")
        monkeypatch.setattr(native_module, "_MODULE", None)
        monkeypatch.setattr(native_module, "_COMPILER", compiler)
        if compiler.unavailable_reason() is not None:
            pytest.skip("no toolchain on this host to fail the compile with")
        with pytest.raises(NativeUnavailableError, match="native"):
            native_module.load_native_module()

    @needs_native
    def test_kernel_source_compiles_warning_free(self):
        """The default kernel's C source stays clean under the strict
        warning set (a syntax-only pass: no artefact is built)."""
        compiler = native_module._COMPILER
        result = subprocess.run(
            [
                compiler.compiler(),
                "-fsyntax-only",
                "-Wall",
                "-Wextra",
                "-Werror",
                f"-I{compiler.include_dir()}",
                compiler.source_path,
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------------
# Machine semantics: directed streams stepped through the scalar stages
# ---------------------------------------------------------------------------

#: Table 1 with 256-byte instruction-cache lines: a directed program of
#: up to 64 instructions arrives after one cold miss, so its timing is
#: set by the back end alone.
DIRECTED_CONFIG = ProcessorConfig(l1i=CacheConfig("l1i", 64 * 1024, 2, 256, 1))

#: More than any directed program's dynamic length.
DIRECTED_BUDGET = 1_000

#: Far more cycles than any directed program takes: a kernel that stops
#: draining fails its test here instead of hanging it.
DIRECTED_MAX_CYCLES = 20_000


def _straight_line(*instructions) -> Program:
    """``instructions`` then a halt, as the one block of ``main``.  A
    straight line runs once, so the trace index of each non-hint
    instruction is its rank among them.  The first instruction arrives
    alone, on the cold instruction-cache miss, and the rest together."""
    program = Program(name="directed")
    block = program.new_procedure("main").add_block("body")
    for instruction in (*instructions, Instruction.halt()):
        block.append(instruction)
    program.validate()
    return program


def _nop() -> Instruction:
    """A plain NOP: trace index 0 of a program whose next instructions
    should arrive together; decode strips it."""
    return Instruction(opcode=Opcode.NOP)


def _add(dest: int, src: int, imm: int = 1) -> Instruction:
    return Instruction.alu(Opcode.ADD, int_reg(dest), [int_reg(src)], imm=imm)


def _div(dest: int, src: int) -> Instruction:
    """A 12-cycle integer divide."""
    return Instruction.alu(Opcode.DIV, int_reg(dest), [int_reg(src)], imm=3)


def _long_load(dest: int = 2) -> tuple[Instruction, Instruction]:
    """``r1 ← 0x2000; r<dest> ← [r1]``: a cold miss in both cache levels
    (63 cycles on table 1)."""
    return (
        Instruction.load_imm(int_reg(1), 0x2000),
        Instruction.load(int_reg(dest), int_reg(1)),
    )


def _kernels_agree(program, new_policy, config=DIRECTED_CONFIG):
    """Replay ``program`` under the scalar kernel and, where it builds,
    the native one, each with a fresh policy from ``new_policy``;
    assert equal statistics and return the scalar ones."""
    kernels = ("scalar", "native") if native_module.native_available() else ("scalar",)
    runs = [
        get_engine(kernel).run(
            get_trace_stream(program, DIRECTED_BUDGET),
            new_policy(),
            config=config,
            max_cycles=DIRECTED_MAX_CYCLES,
        )
        for kernel in kernels
    ]
    assert runs[0].cycles < DIRECTED_MAX_CYCLES
    for stats in runs[1:]:
        assert _stats_bytes(stats) == _stats_bytes(runs[0])
    return runs[0]


def _observe(core) -> dict:
    """What the stages left behind at the end of a cycle, by trace index:
    the resident issue-queue entries oldest first and their slots, the
    current region's, the queue's count of banks holding an entry, each
    live ROB entry's state and destination tags, the statistics, and
    the gated comparisons and broadcasts the next cycle's writeback must
    count, derived from the waiting sets of the resident entries."""
    iq, rob = core.iq, core.rob
    window = [iq.slots[(iq.head + k) % iq.capacity] for k in range(iq.span)]
    region = (iq.tail - iq.new_head) % iq.capacity if iq.span else 0
    resident = [entry for entry in window if entry is not None]
    live = [rob.entries[(rob.head + k) % rob.capacity] for k in range(rob.count)]
    waiting = sum(len(entry.waiting_tags) for entry in resident)
    gated = broadcasts = 0
    for finishing in core._completion_events.get(core.cycle, ()):
        for tag in finishing.dest_tags:
            broadcasts += 1
            gated += waiting
            waiting -= sum(tag in entry.waiting_tags for entry in resident)
    return {
        "resident": [rob.entries[entry.rob_index].dyn for entry in resident],
        "slots": {rob.entries[entry.rob_index].dyn: entry.slot for entry in resident},
        "region": [
            rob.entries[entry.rob_index].dyn
            for entry in window[iq.span - region :]
            if entry is not None
        ],
        "state": {entry.dyn: entry.state for entry in live},
        "dests": {entry.dyn: tuple(entry.dest_tags) for entry in live},
        "freed": {entry.dyn: tuple(entry.freed_on_commit) for entry in live},
        "span": iq.span,
        "banks": iq.active_banks,
        "rob": rob.count,
        "free": (core.int_file._free_mask, core.fp_file._free_mask),
        "stats": stats_to_dict(core.stats),
        "next_gated": gated,
        "next_broadcasts": broadcasts,
    }


def _step(program, policy, config=DIRECTED_CONFIG, budget=DIRECTED_BUDGET):
    """Step the scalar core through ``program``'s trace with
    ``OutOfOrderCore.step``; return the core and its observations, the
    first before any cycle and then one after each."""
    core = OutOfOrderCore(
        get_trace_stream(program, budget), config=config, policy=policy
    )
    cycles = [_observe(core)]
    while not core._finished():
        assert core.cycle < DIRECTED_MAX_CYCLES
        core.step()
        cycles.append(_observe(core))
    core._finalize_sample()
    return core, cycles


def _dispatched(cycles, k: int) -> list[int]:
    """Trace indices dispatched in cycle ``k`` (observations k-1 → k)."""
    return sorted(set(cycles[k]["state"]) - set(cycles[k - 1]["state"]))


def _issued(cycles, k: int) -> list[int]:
    """Trace indices issued in cycle ``k``."""
    before, after = cycles[k - 1]["state"], cycles[k]["state"]
    return sorted(
        dyn
        for dyn, state in before.items()
        if state == DISPATCHED and after[dyn] != DISPATCHED
    )


def _issue_groups(cycles, below: int) -> list[list[int]]:
    """The trace indices below ``below`` issued in each cycle that issued
    any, in cycle order."""
    groups = (_issued(cycles, k) for k in range(1, len(cycles)))
    groups = ([dyn for dyn in group if dyn < below] for group in groups)
    return [group for group in groups if group]


def _first(cycles, predicate) -> int:
    """The first observation satisfying ``predicate``."""
    return next(k for k, cycle in enumerate(cycles) if predicate(cycle))


class TestMachineSemantics:
    """The machine the two kernels define, stage by stage: the scalar
    stages stepped through directed streams, and each stream replayed to
    the same statistics under both kernels."""

    def test_a_full_region_stops_dispatch_until_its_oldest_entry_issues(self):
        """Figure 2: a hint of 3 entries stops dispatch once the region
        holds 3; when the region's oldest entry issues, ``new_head``
        slides past its hole and dispatch resumes in the same cycle; the
        older region's entries stay resident throughout."""
        program = _straight_line(
            *_long_load(),  # 0, 1
            _add(3, 2),  # 2: older region, waits on the load
            _add(4, 2, 2),  # 3: older region, waits on the load
            _div(5, 6),  # 4: 12 cycles
            Instruction.hint(3),
            _add(7, 5),  # 5: the region's oldest, waits on the divide
            _add(8, 2, 3),  # 6
            _add(9, 2, 4),  # 7
            _add(10, 2, 5),  # 8: blocked by the full region
            _add(11, 2, 6),  # 9
        )
        stats = _kernels_agree(program, SoftwareDirectedPolicy)
        core, cycles = _step(program, SoftwareDirectedPolicy())
        assert _stats_bytes(core.stats) == _stats_bytes(stats)

        full = [k for k, cycle in enumerate(cycles) if cycle["region"] == [5, 6, 7]]
        assert len(full) >= 8 and full == list(range(full[0], full[-1] + 1))
        for k in full[1:]:
            cycle, before = cycles[k], cycles[k - 1]
            assert 8 not in cycle["state"]  # dispatch stopped
            assert cycle["resident"] == [2, 3, 5, 6, 7]  # the older region stays
            assert (
                cycle["stats"]["iq_dispatch_stall_cycles"]
                == before["stats"]["iq_dispatch_stall_cycles"] + 1
            )
        resumed = full[-1] + 1
        assert _issued(cycles, resumed) == [5]
        assert _dispatched(cycles, resumed) == [8]
        assert cycles[resumed]["region"] == [6, 7, 8]
        assert cycles[resumed]["resident"] == [2, 3, 6, 7, 8]
        assert core.iq.max_new_range == 3
        assert stats.iq_full_stall_cycles == 0

    def _dependents(self, count: int) -> Program:
        """A long load and ``count`` entries waiting on it."""
        dependents = (_add(3 + k % 27, 2, k) for k in range(count))
        return _straight_line(*_long_load(), *dependents)

    def test_the_global_limit_caps_the_span(self):
        """A fixed limit of 12 stops dispatch at a span of 12, counted as
        a limit stall, never as a full queue."""
        program = self._dependents(20)
        stats = _kernels_agree(program, lambda: FixedLimitPolicy(12))
        _, cycles = _step(program, FixedLimitPolicy(12))
        assert max(cycle["span"] for cycle in cycles) == 12
        held = [
            k
            for k in range(1, len(cycles))
            if cycles[k]["span"] == cycles[k - 1]["span"] == 12
        ]
        assert len(held) >= 40
        assert stats.iq_dispatch_stall_cycles >= len(held) - 1
        assert stats.iq_full_stall_cycles == 0

    def test_the_physical_queue_caps_the_span(self):
        """A 16-entry queue stops dispatch at a span of 16, counted as a
        full queue, never as a limit stall."""
        config = ProcessorConfig(
            iq_entries=16, iq_bank_size=4, l1i=DIRECTED_CONFIG.l1i
        )
        program = self._dependents(20)
        stats = _kernels_agree(program, BaselinePolicy, config)
        _, cycles = _step(program, BaselinePolicy(), config)
        assert max(cycle["span"] for cycle in cycles) == 16
        assert stats.iq_full_stall_cycles >= 40
        assert stats.iq_dispatch_stall_cycles == 0

    def test_the_queue_wraps_into_freed_slots(self):
        """The queue is circular and non-collapsing: each entry takes the
        slot after its predecessor's, modulo 16, and keeps it until it
        issues.  The 17th entry reuses slot 0 while the 14 entries that
        wait on the load stay where they are; the 32 instructions and
        the halt wrap the queue twice."""
        config = ProcessorConfig(
            iq_entries=16, iq_bank_size=4, l1i=DIRECTED_CONFIG.l1i
        )
        program = self._dependents(30)
        _kernels_agree(program, BaselinePolicy, config)
        _, cycles = _step(program, BaselinePolicy(), config)
        slots = {}
        for cycle in cycles:
            held = cycle["slots"]
            assert len(set(held.values())) == len(held)  # one entry per slot
            for dyn, slot in held.items():
                assert slots.setdefault(dyn, slot) == slot  # never moved
        assert slots == {dyn: dyn % 16 for dyn in range(33)}
        wrapped = _first(cycles, lambda cycle: 16 in cycle["slots"])
        assert cycles[wrapped]["resident"] == [*range(2, 16), 16]

    def test_only_banks_holding_an_entry_are_on(self):
        """Bank gating: in every cycle the queue counts as on the banks of
        4 slots that hold a resident entry, and a gating policy's
        ``iq_banks_on_sum`` adds those counts over the sampled cycles;
        the ungated baseline counts all 4 banks in every cycle."""
        config = ProcessorConfig(
            iq_entries=16, iq_bank_size=4, l1i=DIRECTED_CONFIG.l1i
        )
        program = self._dependents(30)
        sums = {}
        for policy in (SoftwareDirectedPolicy, BaselinePolicy):
            stats = _kernels_agree(program, policy, config)
            _, cycles = _step(program, policy(), config)
            holding = [len({slot // 4 for slot in c["slots"].values()}) for c in cycles]
            assert [cycle["banks"] for cycle in cycles] == holding
            assert stats.sampled_cycles == len(cycles) - 1
            on = holding[1:] if policy.iq_bank_gating else [4] * (len(cycles) - 1)
            assert stats.iq_banks_on_sum == sum(on)
            sums[policy] = stats.iq_banks_on_sum
        assert 0 < sums[SoftwareDirectedPolicy] < sums[BaselinePolicy]

    def test_abella_limits_the_rob(self):
        """Abella keeps the ROB at ``rob_ratio`` times its queue limit:
        at a ratio of 0.25 on the 80-entry queue, 20 entries; the ROB
        stop is counted by neither queue stall counter."""
        program = self._dependents(30)

        def abella():
            return AbellaPolicy(rob_ratio=0.25)

        stats = _kernels_agree(program, abella)
        core, cycles = _step(program, abella())
        assert core.rob.limit == 20
        assert max(cycle["rob"] for cycle in cycles) == 20
        assert max(cycle["span"] for cycle in cycles) <= 20
        assert sum(cycle["rob"] == 20 for cycle in cycles) >= 40
        assert stats.iq_dispatch_stall_cycles == stats.iq_full_stall_cycles == 0

    def test_a_consumer_issues_once_its_last_producer_broadcasts(self):
        """Wakeup: an entry with two producers issues in the cycle the
        later one writes back, not before; every broadcast counts the
        operands still waiting at its instant (``iq_cmp_gated``) and, for
        the ungated baseline, every operand slot (``iq_cmp_full``)."""
        program = _straight_line(
            *_long_load(),  # 0, 1: 63 cycles
            _div(3, 4),  # 2: 12 cycles
            Instruction.alu(Opcode.ADD, int_reg(5), [int_reg(2), int_reg(3)]),  # 3
            _add(6, 3),  # 4: the divide's only
            _add(7, 5),  # 5: the consumer's consumer
        )
        stats = _kernels_agree(program, SoftwareDirectedPolicy)
        core, cycles = _step(program, SoftwareDirectedPolicy())
        assert _stats_bytes(core.stats) == _stats_bytes(stats)

        def completed(dyn):
            return _first(cycles, lambda cycle: cycle["state"].get(dyn) == COMPLETED)

        divide, load = completed(2), completed(1)
        assert divide < load
        assert _issued(cycles, divide) == [4]
        assert all(cycles[k]["state"][3] == DISPATCHED for k in range(divide, load))
        assert _issued(cycles, load) == [3]
        assert _issued(cycles, load + 1) == [5]
        for before, after in zip(cycles, cycles[1:]):
            counted, counts = before["stats"], after["stats"]
            assert counts["iq_cmp_gated"] - counted["iq_cmp_gated"] == before["next_gated"]
            assert (
                counts["iq_broadcasts"] - counted["iq_broadcasts"]
                == before["next_broadcasts"]
            )
        assert stats.iq_cmp_gated > 0
        # Ungated, every broadcast compares both operand slots of all 80.
        assert stats.iq_cmp_full == stats.iq_broadcasts * 2 * 80

    def test_select_is_oldest_first(self):
        """Two divides wake four entries in one cycle, the first divide's
        two consumers first; at two issues per cycle select takes them by
        age (3, 4 then 5, 6), not in wakeup order (3, 5 then 4, 6)."""
        config = ProcessorConfig(issue_width=2, l1i=DIRECTED_CONFIG.l1i)
        program = _straight_line(
            _nop(),  # 0
            _div(1, 20),  # 1
            _div(2, 21),  # 2
            _add(3, 1),  # 3
            _add(4, 2),  # 4
            _add(5, 1, 2),  # 5
            _add(6, 2, 2),  # 6
        )
        _kernels_agree(program, BaselinePolicy, config)
        _, cycles = _step(program, BaselinePolicy(), config)
        assert _issue_groups(cycles, below=7) == [[1, 2], [3, 4], [5, 6]]

    def test_commit_stays_in_order_past_an_out_of_order_completion(self):
        """A younger add completes long before the older divide; it
        leaves the ROB only with or after it, in order."""
        program = _straight_line(
            _nop(),  # 0
            _div(1, 20),  # 1
            _add(2, 21),  # 2
            _add(3, 2),  # 3
        )
        _kernels_agree(program, BaselinePolicy)
        _, cycles = _step(program, BaselinePolicy())
        done_early = _first(
            cycles,
            lambda cycle: cycle["state"].get(2) == COMPLETED
            and cycle["state"].get(1) == ISSUED,
        )

        def retired(dyn):
            return _first(cycles[done_early:], lambda cycle: dyn not in cycle["state"])

        assert 10 <= retired(1) <= retired(2) <= retired(3)
        assert all(
            cycles[done_early + k]["state"][2] == COMPLETED for k in range(retired(1))
        )

    def test_registers_are_allocated_lowest_first(self):
        """The first integer destinations take registers 32, 33, 34 (the
        lowest free); the first FP destination takes FP register 16, whose
        tag sits above the 112 integer ones."""
        program = _straight_line(
            _nop(),  # 0
            _add(1, 20),  # 1
            _add(2, 20),  # 2
            _add(1, 1),  # 3: renames r1 again
            Instruction.alu(Opcode.FADD, fp_reg(1), [fp_reg(2), fp_reg(3)]),  # 4
        )
        _kernels_agree(program, BaselinePolicy)
        _, cycles = _step(program, BaselinePolicy())
        cycle = cycles[_first(cycles, lambda cycle: 4 in cycle["state"])]
        dests = [cycle["dests"][dyn] for dyn in range(1, 5)]
        assert dests == [(32,), (33,), (34,), (112 + 16,)]
        freed = [cycle["freed"][dyn] for dyn in range(1, 5)]
        assert freed == [(1,), (2,), (32,), (112 + 1,)]

    def test_each_unit_class_keeps_its_per_cycle_limit(self):
        """With one integer multiplier, four ready multiplies issue one
        per cycle in age order, while the adds beside them all issue in
        the first cycle."""
        counts = dict(DIRECTED_CONFIG.fu_counts)
        counts[FuClass.INT_MUL] = 1
        config = ProcessorConfig(fu_counts=counts, l1i=DIRECTED_CONFIG.l1i)
        program = _straight_line(
            _nop(),  # 0
            *(Instruction.alu(Opcode.MUL, int_reg(1 + k), [int_reg(20)]) for k in range(4)),
            *(_add(10 + k, 21, k) for k in range(4)),  # 5-8
        )
        _kernels_agree(program, BaselinePolicy, config)
        _, cycles = _step(program, BaselinePolicy(), config)
        assert _issue_groups(cycles, below=9) == [[1, 5, 6, 7, 8], [2], [3], [4]]

    @pytest.mark.parametrize("workload", ("gzip", "fpstream"))
    def test_every_rename_and_issue_obeys_the_rules(self, workload):
        """Over a benchmark's stream: in each cycle, each file's new
        destinations are its lowest registers free once commit has
        released its mappings (FP tags offset above the integer file),
        and no class issues more than its units."""
        config = ProcessorConfig.hpca2005()
        program = build_benchmark(workload)
        core, cycles = _step(program, BaselinePolicy(), config, budget=1_500)
        table, pcs = core._table, core._trace.pc
        limits = [config.fu_counts.get(fu, 0) for fu in FuClass]
        offsets = (0, config.int_phys_regs)
        sizes = (config.int_phys_regs, config.fp_phys_regs)
        fp_dests = 0
        for k in range(1, len(cycles)):
            before, after = cycles[k - 1], cycles[k]
            committed = set(before["state"]) - set(after["state"])
            dests = [tag for dyn in _dispatched(cycles, k) for tag in after["dests"][dyn]]
            for mask, offset, size in zip(before["free"], offsets, sizes):
                in_file = range(offset, offset + size)
                free = {offset + reg for reg in range(size) if mask >> reg & 1}
                for dyn in committed:
                    free |= {tag for tag in before["freed"][dyn] if tag in in_file}
                taken = [tag for tag in dests if tag in in_file]
                assert taken == sorted(free)[: len(taken)], (k, offset)
            fp_dests += sum(tag >= offsets[1] for tag in dests)
            issued = [table.fu[(pcs[dyn] - table.base) >> 2] for dyn in _issued(cycles, k)]
            assert all(issued.count(fu) <= limits[fu] for fu in set(issued)), k
        assert (fp_dests > 0) == (workload == "fpstream")


# ---------------------------------------------------------------------------
# Random machines: the two kernels against each other
# ---------------------------------------------------------------------------

#: A safety cap for the drawn machines: both kernels stop there, so a
#: machine that could not drain would still be compared, not hang.
FUZZ_MAX_CYCLES = 200_000


@st.composite
def machines(draw) -> ProcessorConfig:
    """A machine within ``ProcessorConfig.validate`` (FP registers from
    17, so an FP rename can always proceed): every structural field,
    non-power-of-two sizes, banks larger than their structure, 3-way
    caches and 48-byte lines included."""

    def size(low: int, high: int) -> int:
        return draw(st.integers(low, high))

    def cache(name: str) -> CacheConfig:
        line = draw(st.sampled_from((8, 16, 32, 48, 64)))
        assoc = draw(st.sampled_from((1, 2, 3, 4, 8)))
        return CacheConfig(name, size(line * assoc, 64 * 1024), assoc, line, size(1, 4))

    dispatch = size(1, 12)
    iq_entries = size(1, 96)
    config = ProcessorConfig(
        fetch_width=size(1, 12),
        dispatch_width=dispatch,
        issue_width=size(1, 12),
        commit_width=size(1, 12),
        fetch_queue_entries=size(1, 48),
        decode_latency=size(0, 4),
        branch_mispredict_penalty=size(0, 8),
        rob_entries=size(dispatch, 160),
        iq_entries=iq_entries,
        iq_bank_size=size(1, iq_entries + 8),
        int_phys_regs=size(32 + dispatch, 160),
        fp_phys_regs=size(17, 160),
        regfile_bank_size=size(1, 24),
        fu_counts={fu: size(1, 6) for fu in FuClass},
        l1i=cache("l1i"),
        l1d=cache("l1d"),
        l2=cache("l2"),
        l2_miss_latency=size(1, 80),
        branch=BranchPredictorConfig(
            gshare_entries=size(1, 4096),
            bimodal_entries=size(1, 4096),
            selector_entries=size(1, 2048),
            history_bits=size(0, 16),
            btb_entries=size(1, 4096),
            btb_assoc=size(1, 8),
            ras_entries=size(0, 32),
        ),
    )
    config.validate()
    return config


@needs_native
def test_a_machine_without_a_return_stack():
    """Found by the property below: with ``ras_entries=0`` the native
    kernel's push moved ``(size_t)-1`` entries.  A stack of no entries
    stays empty in both kernels, so every return mispredicts."""
    config = ProcessorConfig(branch=BranchPredictorConfig(ras_entries=0))
    scalar, native = (
        simulate(
            build_benchmark("vortex"),
            config=config,
            max_instructions=BUDGET,
            engine=engine,
        )
        for engine in ("scalar", "native")
    )
    assert _stats_bytes(scalar) == _stats_bytes(native)
    assert scalar.ras_mispredicts > 0


@needs_native
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    config=machines(),
    workload=st.sampled_from(ALL_BENCHMARKS),
    technique=st.sampled_from(TECHNIQUES),
    budget=st.integers(0, 3_000),
    warmup=st.sampled_from(("none", "one", "a third")),
)
def test_kernels_agree_on_random_machines(config, workload, technique, budget, warmup):
    """Both kernels replay an extended-suite program under any technique
    to the same statistics on any machine ``validate`` accepts."""
    warmup_instructions = {"none": 0, "one": 1, "a third": budget // 3}[warmup]
    scalar, native = (
        simulate(
            _technique_programs(workload)[technique],
            make_policy(technique, _CONFIG),
            config=config,
            max_instructions=budget,
            warmup_instructions=warmup_instructions,
            max_cycles=FUZZ_MAX_CYCLES,
            engine=engine,
        )
        for engine in ("scalar", "native")
    )
    assert _stats_bytes(scalar) == _stats_bytes(native)
