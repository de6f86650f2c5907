"""Setup shim so editable installs work without the `wheel` package.

This file enables the legacy `pip install -e .` code path on environments
whose setuptools cannot build PEP 660 editable wheels, declares the
native replay engine's extra, and lists the package tree (``repro`` is a
namespace package, so discovery must be explicit) including the
:mod:`repro.analysis` static checker and its ``repro-lint`` console
entry point.

The package has no runtime requirement: the compiler, the simulator and
the experiment harness need nothing beyond the standard library.  The
scalar replay engine always runs, and the faster native engine is used
only where a C toolchain can build it.
"""
from setuptools import find_namespace_packages, setup

setup(
    # ``repro`` has no __init__.py (namespace package), so the default
    # find_packages() would discover nothing; enumerate the namespace.
    packages=find_namespace_packages(where="src", include=["repro", "repro.*"]),
    package_dir={"": "src"},
    entry_points={
        "console_scripts": [
            # The reprolint CLI: strict over src/, advisory over
            # benchmarks/ and examples/ (same as python -m repro.analysis).
            "repro-lint = repro.analysis.cli:main",
        ],
    },
    extras_require={
        # The native replay kernel (engine="native", the default where
        # it builds) compiles its per-cycle loop as a C extension,
        # lazily, on first use.  Its dependency is a host *toolchain* (a
        # C compiler plus the Python development headers), not a Python
        # package, so the extra is an empty marker: installing it
        # documents intent.  Hosts without the toolchain run the scalar
        # kernel, and get a NativeUnavailableError naming this extra
        # only when the native kernel is pinned explicitly (see
        # ``repro.uarch.engine.native``).
        "native": [],
    },
)
