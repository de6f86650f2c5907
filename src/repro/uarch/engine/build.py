"""Lazy C-extension builds for compiled replay kernels.

:class:`ExtensionCompiler` is the build/availability seam between a
compiled kernel module (``engine/native.py`` today) and the host
toolchain, modeled on hpy's test-suite ``ExtensionCompiler``: given a C
source file and a module name it answers two questions —

* :meth:`ExtensionCompiler.unavailable_reason` — can this host build the
  extension at all (a C compiler on ``PATH``, the running interpreter's
  ``Python.h``)?  ``None`` means yes; otherwise a human-readable reason
  the caller wraps into its kernel-specific ``*UnavailableError``.
* :meth:`ExtensionCompiler.load` — compile (once) and import the module.

The compile is **lazy and cached**: artefacts land in a directory keyed
by a digest of the C source, the compiler flags, the interpreter version
and the compiler, so editing the kernel source, building it another way
(an instrumented sanitizer build, say) or switching interpreters
rebuilds while repeated test sessions reuse the shared object.  Publication is atomic
(build to a pid-suffixed temp name, then ``os.replace``) so concurrent
pytest workers racing the first build never import a torn ``.so``.
This deliberately does *not* route through :mod:`repro.atomicio` — that
module transitively imports the chaoskit fault machinery, which the
``retry-discipline`` lint rule bans from the replay core, and a build
artefact is a derived local cache, not shared experiment state.

Adding a second compiled backend is a one-file change: instantiate
another ``ExtensionCompiler`` (or any object with the same two-method
surface) over its source and register the engine — nothing here is
specific to the native kernel.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from typing import Optional, Sequence

#: Environment override for the build/cache directory (e.g. CI keeping
#: artefacts on a tmpfs, or tests forcing a cold build).
BUILD_DIR_ENV_VAR = "REPRO_NATIVE_BUILD_DIR"


def _default_build_dir() -> str:
    cache_home = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(cache_home, "repro-native")


class ExtensionBuildError(RuntimeError):
    """The toolchain exists but the compile itself failed."""


class ExtensionCompiler:
    """Build one C extension module lazily, cache the artefact, load it.

    Args:
        source_path: path to the single C translation unit.
        module_name: the extension module's import name (must match its
            ``PyInit_<name>`` symbol).
        cc: compiler executable; default ``$CC``, else ``cc``, else
            ``gcc`` — whichever is first found on ``PATH``.
        build_dir: artefact cache root; default ``$REPRO_NATIVE_BUILD_DIR``,
            else ``~/.cache/repro-native``.
        flags: compiler flags ahead of the fixed ``-fPIC -shared`` pair
            (optimisation level, instrumentation; default ``-O2``); part
            of the artefact digest.
    """

    def __init__(
        self,
        source_path: str,
        module_name: str,
        cc: Optional[str] = None,
        build_dir: Optional[str] = None,
        flags: Sequence[str] = ("-O2",),
    ):
        self.source_path = source_path
        self.module_name = module_name
        self.flags = tuple(flags)
        self._cc_arg = cc
        self._build_dir_arg = build_dir
        self._module = None

    # ------------------------------------------------------------------
    # Availability
    # ------------------------------------------------------------------
    def compiler(self) -> Optional[str]:
        """Absolute path of the C compiler to use, or ``None``."""
        candidates = (
            [self._cc_arg]
            if self._cc_arg
            else [os.environ.get("CC"), "cc", "gcc"]
        )
        for candidate in candidates:
            if not candidate:
                continue
            found = shutil.which(candidate)
            if found:
                return found
        return None

    def include_dir(self) -> Optional[str]:
        """The running interpreter's header directory, if headers exist."""
        include = sysconfig.get_paths().get("include")
        if include and os.path.exists(os.path.join(include, "Python.h")):
            return include
        return None

    def unavailable_reason(self) -> Optional[str]:
        """Why this host cannot build the extension, or ``None`` if it can."""
        if not os.path.exists(self.source_path):
            return f"kernel source {self.source_path} is missing"
        if self.compiler() is None:
            return "no C compiler (cc/gcc/$CC) on PATH"
        if self.include_dir() is None:
            return "Python development headers (Python.h) are not installed"
        return None

    # ------------------------------------------------------------------
    # Build + load
    # ------------------------------------------------------------------
    def build_dir(self) -> str:
        """The digest-keyed artefact directory for the current inputs."""
        root = (
            self._build_dir_arg
            or os.environ.get(BUILD_DIR_ENV_VAR)
            or _default_build_dir()
        )
        digest = hashlib.sha256()
        with open(self.source_path, "rb") as handle:
            digest.update(handle.read())
        digest.update("\0".join(self.flags).encode())
        digest.update(sys.version.encode())
        digest.update((self.compiler() or "").encode())
        return os.path.join(root, f"{self.module_name}-{digest.hexdigest()[:16]}")

    def artifact_path(self) -> str:
        suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
        return os.path.join(self.build_dir(), self.module_name + suffix)

    def build(self) -> str:
        """Compile if needed and return the shared-object path.

        Raises :class:`ExtensionBuildError` when the toolchain is present
        but the compile fails (the compiler's stderr is included), and
        ``RuntimeError`` with the availability reason when it is not —
        callers normally check :meth:`unavailable_reason` first and wrap
        either into their kernel-specific error.
        """
        reason = self.unavailable_reason()
        if reason is not None:
            raise ExtensionBuildError(reason)
        artifact = self.artifact_path()
        if os.path.exists(artifact):
            return artifact
        os.makedirs(os.path.dirname(artifact), exist_ok=True)
        # pid-suffixed temp + os.replace: concurrent first builds race
        # benignly — last writer wins with an identical artefact.
        temp = f"{artifact}.tmp-{os.getpid()}"
        command = [
            self.compiler(),
            *self.flags,
            "-fPIC",
            "-shared",
            f"-I{self.include_dir()}",
            self.source_path,
            "-o",
            temp,
        ]
        result = subprocess.run(command, capture_output=True, text=True)
        if result.returncode != 0:
            if os.path.exists(temp):
                os.unlink(temp)
            raise ExtensionBuildError(
                f"C compile failed ({' '.join(command)}):\n{result.stderr}"
            )
        os.replace(temp, artifact)
        return artifact

    def load(self):
        """Build (if needed), import, and memoise the extension module."""
        if self._module is None:
            artifact = self.build()
            loader = importlib.machinery.ExtensionFileLoader(
                self.module_name, artifact
            )
            spec = importlib.util.spec_from_file_location(
                self.module_name, artifact, loader=loader
            )
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            self._module = module
        return self._module
