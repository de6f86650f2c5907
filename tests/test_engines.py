"""The replay-engine architecture: selection, equivalence, invariance.

The contract under test (see :mod:`repro.uarch.engine`):

* **Selection** — an explicit ``engine=`` argument wins, then
  ``REPRO_REPLAY_KERNEL``; otherwise the native kernel where it builds,
  else the scalar reference.
* **Bit-identity** — the native kernel's statistics are byte-identical
  to the scalar reference for all six techniques, at every trace window
  size including 1, across warm-up boundaries, and through the
  freeze-at-commit measure-span entry the shard stitcher uses — on the
  table-1 machine and on two machines two and four times as wide.
* **Fingerprint neutrality** — the engine never changes result-cache
  keys: a grid simulated under one kernel is a pure cache hit under the
  other.
* **Guarded availability** — pinning the native kernel without a C
  toolchain fails with one clear error naming the install extra, not a
  build error from callsite depth, and the kernel source compiles
  warning-free where a toolchain exists.
"""

from __future__ import annotations

import json
import subprocess

import pytest

from repro.core import compile_program
from repro.harness import ParallelSuiteRunner, RunConfig
from repro.harness.cache import stats_to_dict
from repro.harness.experiment import SOFTWARE_TECHNIQUES, TECHNIQUES, make_policy
from repro.harness.parallel import SimulationJob
from repro.harness.shard import ShardJob, ShardSpan, run_sharded
from repro.isa.opcodes import FuClass
from repro.uarch import available_engines, get_engine, resolve_engine_name, simulate
from repro.uarch.config import ProcessorConfig
from repro.uarch.core import simulate_span
from repro.uarch.engine import base as engine_base
from repro.uarch.engine import native as native_module
from repro.uarch.engine.native import NativeUnavailableError
from repro.uarch.engine.scalar import OutOfOrderCore
from repro.workloads import build_benchmark

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


#: Machines wider than table 1: more wakeups per cycle, more queue
#: banks and deeper rename pressure than the paper's machine exercises.
WIDE_CONFIGS = {
    "iq256-w16": _wide_config(16, 256, 32, 2),
    "iq512-w32": _wide_config(32, 512, 64, 4),
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


def _stats_bytes(stats) -> bytes:
    return json.dumps(stats_to_dict(stats), sort_keys=True).encode()


def _run(
    technique: str, engine: str, window: int, warmup: int = WARMUP, config=None
):
    return simulate(
        _program_for(technique),
        make_policy(technique, _CONFIG),
        config=config,
        max_instructions=BUDGET,
        warmup_instructions=warmup,
        trace_window=window,
        engine=engine,
    )


def _span(technique: str, engine: str, config=None):
    """The freeze-at-commit entry (``simulate_span``) the shard stitcher
    depends on: statistics frozen mid-commit."""
    return simulate_span(
        _program_for(technique),
        make_policy(technique, _CONFIG),
        config,
        max_instructions=BUDGET,
        first_entry=0,
        last_entry=2_000,
        warmup_commits=300,
        measure_commits=700,
        trace_window=512,
        engine=engine,
    )


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
        assert get_engine("scalar").build_core([]) .__class__ is OutOfOrderCore


@needs_native
class TestEngineEquivalence:
    """Scalar vs native bit-identity on the wide machines: every test
    runs on both ``WIDE_CONFIGS``, beyond the table-1 matrix of
    :class:`TestNativeEquivalence`."""

    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("window", (1, 7, 4096))
    def test_bit_identical_across_techniques_and_windows(self, technique, window):
        for name, config in WIDE_CONFIGS.items():
            scalar = _run(technique, "scalar", window, config=config)
            native = _run(technique, "native", window, config=config)
            assert _stats_bytes(scalar) == _stats_bytes(native), name

    @pytest.mark.parametrize("warmup", (0, 1, WARMUP, BUDGET // 2))
    def test_bit_identical_across_warmup_boundaries(self, warmup):
        for name, config in WIDE_CONFIGS.items():
            scalar = _run("abella", "scalar", 640, warmup=warmup, config=config)
            native = _run("abella", "native", 640, warmup=warmup, config=config)
            assert _stats_bytes(scalar) == _stats_bytes(native), name

    @pytest.mark.parametrize("technique", ("baseline", "abella", "improved"))
    def test_measure_span_freeze_is_bit_identical(self, technique):
        for name, config in WIDE_CONFIGS.items():
            scalar = _span(technique, "scalar", config)
            native = _span(technique, "native", config)
            assert _stats_bytes(scalar) == _stats_bytes(native), name


@needs_native
class TestNativeEquivalence:
    """Scalar vs native (compiled C) bit-identity on the table-1
    machine, plus the C loop's own boundary cases."""

    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("window", (1, 7, 4096))
    def test_bit_identical_across_techniques_and_windows(self, technique, window):
        """All six techniques × window sizes {1, 7, 4096} (4096 exceeds
        the budget, covering the monolithic single-window path)."""
        scalar = _run(technique, "scalar", window)
        native = _run(technique, "native", window)
        assert _stats_bytes(scalar) == _stats_bytes(native)

    @pytest.mark.parametrize("warmup", (0, 1, WARMUP, BUDGET // 2))
    def test_bit_identical_across_warmup_boundaries(self, warmup):
        """The C kernel replaces the scalar rebase walk with an absolute
        clock and a base flip; every reported cycle and every in-flight
        event must still agree wherever the boundary falls."""
        scalar = _run("abella", "scalar", 640, warmup=warmup)
        native = _run("abella", "native", 640, warmup=warmup)
        assert _stats_bytes(scalar) == _stats_bytes(native)

    @pytest.mark.parametrize("technique", ("baseline", "abella", "improved"))
    def test_measure_span_freeze_is_bit_identical(self, technique):
        scalar = _span(technique, "scalar")
        native = _span(technique, "native")
        assert _stats_bytes(scalar) == _stats_bytes(native)

    def test_native_shard_stitch_matches_sequential(self):
        """``merge_stats`` over full-overlap shards is bit-identical to
        one sequential run, whichever kernel replays the shards."""
        sequential = _run("abella", "native", 640)
        for engine in ("scalar", "native"):
            stitched = run_sharded(
                BENCHMARK,
                "abella",
                _CONFIG,
                span_entries=800,
                overlap="full",
                trace_window=640,
                engine=engine,
            )
            assert _stats_bytes(stitched) == _stats_bytes(sequential), engine

    def test_empty_trace_runs(self):
        from repro.uarch.trace import DecodedTrace

        scalar = get_engine("scalar").run(DecodedTrace())
        native = get_engine("native").run(DecodedTrace())
        assert _stats_bytes(scalar) == _stats_bytes(native)

    def test_max_cycles_budget_is_respected(self):
        from repro.uarch.trace import get_decoded_trace

        trace = get_decoded_trace(_program_for("baseline"), 2_000)
        scalar = get_engine("scalar").run(trace, max_cycles=123)
        native = get_engine("native").run(trace, max_cycles=123)
        assert _stats_bytes(scalar) == _stats_bytes(native)


class TestFingerprintInvariance:
    """Engines are transport: cache keys must not see them."""

    def test_simulation_job_fingerprint_ignores_the_engine(self):
        jobs = [
            SimulationJob(BENCHMARK, "baseline", _CONFIG, engine=engine)
            for engine in (None, "scalar", "native")
        ]
        assert len({job.fingerprint() for job in jobs}) == 1

    def test_shard_job_fingerprint_ignores_the_engine(self):
        span = ShardSpan(
            index=0,
            start=0,
            stop=1_000,
            warm_start=0,
            feed_stop=1_500,
            warmup_commits=0,
            measure_commits=800,
        )
        jobs = [
            ShardJob(
                BENCHMARK,
                "baseline",
                _CONFIG,
                span,
                cell_fingerprint="cell",
                engine=engine,
            )
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
            get_engine("native").build_core([])
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
