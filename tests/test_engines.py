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
  replay.  ``tests/test_native_sanitizer.py`` reruns this module against
  an AddressSanitizer build of the native kernel.
"""

from __future__ import annotations

import json
import subprocess
from array import array

import pytest

from repro.core import compile_program
from repro.harness import ParallelSuiteRunner, RunConfig
from repro.harness.cache import stats_to_dict
from repro.harness.experiment import SOFTWARE_TECHNIQUES, TECHNIQUES, make_policy
from repro.harness.parallel import SimulationJob
from repro.isa.opcodes import FuClass
from repro.techniques import AbellaPolicy, BaselinePolicy, SoftwareDirectedPolicy
from repro.uarch import available_engines, get_engine, resolve_engine_name, simulate
from repro.uarch.config import BranchPredictorConfig, CacheConfig, ProcessorConfig
from repro.uarch.engine import base as engine_base
from repro.uarch.engine import native as native_module
from repro.uarch.engine.native import NativeUnavailableError
from repro.uarch.engine.scalar import OutOfOrderCore
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
        decode_width=width,
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
