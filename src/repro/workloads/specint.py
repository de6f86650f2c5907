"""The eleven-benchmark synthetic SPECint2000 suite.

The paper uses the SPEC CPU2000 integer benchmarks except ``eon`` (C++,
which SUIF cannot compile) and the floating-point suite.  The same eleven
names are used here; each maps to a deterministic synthetic program built
from the traits in :mod:`repro.workloads.traits`.
"""

from __future__ import annotations

from functools import lru_cache

from repro.isa.program import Program
from repro.workloads.generator import generate_program
from repro.workloads.traits import ALL_TRAITS, EXTENDED_TRAITS, SPECINT_TRAITS


#: Benchmark names, in the order the paper's figures list them.
SPECINT_BENCHMARKS: tuple[str, ...] = (
    "gzip",
    "vpr",
    "gcc",
    "mcf",
    "crafty",
    "parser",
    "perlbmk",
    "gap",
    "vortex",
    "bzip2",
    "twolf",
)

#: Extended scenario families beyond the paper's suite (see
#: :data:`repro.workloads.traits.EXTENDED_TRAITS`).
EXTENDED_BENCHMARKS: tuple[str, ...] = tuple(EXTENDED_TRAITS)

#: Every benchmark the suite registry knows about.
ALL_BENCHMARKS: tuple[str, ...] = SPECINT_BENCHMARKS + EXTENDED_BENCHMARKS


@lru_cache(maxsize=None)
def _cached_benchmark(name: str) -> Program:
    traits = ALL_TRAITS[name]
    return generate_program(traits)


def build_benchmark(name: str, fresh: bool = False) -> Program:
    """Build (or return a cached copy of) the synthetic benchmark ``name``.

    Args:
        name: one of :data:`SPECINT_BENCHMARKS`.
        fresh: when True a brand-new program object is generated instead of
            the cached one.  Use this when the caller will mutate the
            program.  The compiler never does: it emits hints into a copy
            (:func:`repro.core.compile_program`), so compiles share the
            cached program safely.
    """
    if name not in ALL_TRAITS:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {', '.join(ALL_BENCHMARKS)}"
        )
    if fresh:
        return generate_program(ALL_TRAITS[name])
    return _cached_benchmark(name)


def build_suite(names: tuple[str, ...] | list[str] | None = None) -> dict[str, Program]:
    """Build every benchmark in ``names`` (default: the full suite)."""
    selected = tuple(names) if names is not None else SPECINT_BENCHMARKS
    return {name: build_benchmark(name) for name in selected}
