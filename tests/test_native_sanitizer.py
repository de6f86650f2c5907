"""The native kernel under AddressSanitizer and UndefinedBehaviorSanitizer.

The kernel reads the trace window and the static table through raw
buffer pointers, so an indexing slip is a silent out-of-bounds read in
an optimised build.  This gate builds ``_native.c`` with
``-O1 -g -fsanitize=address,undefined -fno-sanitize-recover=all`` into a
temporary directory, then runs ``tests/test_engines.py`` (the
equivalence matrix and the kernel's failure paths) and the hint
expansion tests of ``tests/test_hint_expansion.py`` (every benchmark's
noop program at two budgets; the edge cases at every budget up to 39;
the maps the kernel refuses) in a child interpreter with both sanitizer
runtimes preloaded.  A ``-c`` bootstrap
swaps the kernel's compiler for the instrumented one before pytest
starts, so the child needs no extra pytest option or environment
variable.  Any invalid access, leak-free use-after-free or undefined
behaviour aborts the child and fails the gate.  Skipped where the
compiler ships no sanitizer runtime.

The compiler-flags seam the gate relies on is pinned here too: flags
reach the compile command, and they enter the artefact digest, so the
instrumented build never shadows the shipped one.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.uarch.engine import build, native
from repro.uarch.engine.build import ExtensionCompiler

SANITIZER_FLAGS = (
    "-O1",
    "-g",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
)

SANITIZED_TESTS = (
    "tests/test_engines.py",
    "tests/test_hint_expansion.py::test_native_expansion_replays_like_live_emulation",
    "tests/test_hint_expansion.py::test_edge_cases_replay_like_live_emulation",
    "tests/test_hint_expansion.py::test_a_bad_map_is_refused",
    "tests/test_hint_expansion.py::test_a_trace_pc_without_a_map_entry_raises",
)

#: Run in the child: install the instrumented compiler (build directory
#: and flags from argv), then hand the remaining argv to pytest.
BOOTSTRAP = """\
import sys
import pytest
from repro.uarch.engine import native
from repro.uarch.engine.build import ExtensionCompiler
native._COMPILER = ExtensionCompiler(
    native._COMPILER.source_path,
    native._COMPILER.module_name,
    build_dir=sys.argv[1],
    flags=sys.argv[2].split(),
)
sys.exit(pytest.main(sys.argv[3:]))
"""


def _runtime(compiler, name: str):
    """Absolute path of the compiler's ``name`` runtime library, or None."""
    if compiler is None:
        return None
    result = subprocess.run(
        [compiler, f"-print-file-name={name}"], capture_output=True, text=True
    )
    path = result.stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


def test_native_kernel_is_clean_under_asan_and_ubsan(tmp_path, request):
    reason = native._COMPILER.unavailable_reason()
    if reason is not None:
        pytest.skip(f"native kernel unavailable: {reason}")
    compiler = native._COMPILER.compiler()
    runtimes = [_runtime(compiler, name) for name in ("libasan.so", "libubsan.so")]
    if None in runtimes:
        pytest.skip("the C compiler ships no ASan/UBSan runtime")

    build_dir = str(tmp_path / "build")
    ExtensionCompiler(
        native._COMPILER.source_path,
        native._COMPILER.module_name,
        build_dir=build_dir,
        flags=SANITIZER_FLAGS,
    ).build()

    src_dir = os.path.dirname(list(repro.__path__)[0])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src_dir, env.get("PYTHONPATH")))
    )
    env["LD_PRELOAD"] = " ".join(runtimes)
    env["ASAN_OPTIONS"] = "detect_leaks=0"
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            BOOTSTRAP,
            build_dir,
            " ".join(SANITIZER_FLAGS),
            "-x",
            "-q",
            # No capture: a sanitizer report aborts the child mid-test,
            # and must reach the stderr collected here.
            "-s",
            "-p",
            "no:cacheprovider",
            *SANITIZED_TESTS,
        ],
        cwd=str(request.config.rootpath),
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[:6000]
    assert " passed" in result.stdout


def _compiler(build_dir, flags) -> ExtensionCompiler:
    """The kernel's compiler harness over ``build_dir`` with ``flags``."""
    return ExtensionCompiler(
        native._COMPILER.source_path,
        native._COMPILER.module_name,
        build_dir=str(build_dir),
        flags=flags,
    )


def test_flags_enter_the_artifact_digest(tmp_path):
    """The instrumented build and the shipped one land in different
    artefact directories, so neither can shadow the other."""
    shipped = _compiler(tmp_path, native._COMPILER.flags).artifact_path()
    sanitized = _compiler(tmp_path, SANITIZER_FLAGS).artifact_path()
    assert sanitized != shipped
    assert sanitized == _compiler(tmp_path, list(SANITIZER_FLAGS)).artifact_path()


def test_build_passes_the_flags_ahead_of_the_shared_pair(monkeypatch, tmp_path):
    compiler = _compiler(tmp_path, SANITIZER_FLAGS)
    reason = compiler.unavailable_reason()
    if reason is not None:
        pytest.skip(f"native kernel unavailable: {reason}")
    commands = []

    def failing_compile(command, **kwargs):
        commands.append(command)
        return subprocess.CompletedProcess(command, 1, "", "stub compile error")

    monkeypatch.setattr(build.subprocess, "run", failing_compile)
    with pytest.raises(build.ExtensionBuildError, match="stub compile error"):
        compiler.build()
    assert len(commands) == 1
    assert commands[0][1:7] == [*SANITIZER_FLAGS, "-fPIC", "-shared"]
    assert not os.path.exists(compiler.artifact_path())
