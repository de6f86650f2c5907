"""Synthetic SPECint2000-like workload suite.

The paper evaluates on eleven SPEC CPU2000 integer benchmarks compiled with
MachineSUIF.  SPEC sources and inputs cannot be redistributed (and a
pure-Python simulator could not run 100M-instruction samples anyway), so
this package provides a *synthetic* stand-in: for each benchmark a program
generator builds an IR program whose structural characteristics -- loop
body sizes and trip counts, dependence-chain depth and width, memory
intensity and working-set size, pointer chasing, call density, functional
unit mix, control-flow complexity -- are chosen to mimic the published
qualitative behaviour of that benchmark (:mod:`repro.workloads.traits`
says which behaviour each benchmark's traits stand for).

Public API::

    from repro.workloads import build_benchmark, SPECINT_BENCHMARKS

    program = build_benchmark("vortex")
    suite = {name: build_benchmark(name) for name in SPECINT_BENCHMARKS}
"""

from repro.workloads.traits import (
    ALL_TRAITS,
    BenchmarkTraits,
    EXTENDED_TRAITS,
    SPECINT_TRAITS,
)
from repro.workloads.generator import SyntheticProgramGenerator, generate_program
from repro.workloads.specint import (
    ALL_BENCHMARKS,
    EXTENDED_BENCHMARKS,
    SPECINT_BENCHMARKS,
    build_benchmark,
    build_suite,
)

__all__ = [
    "ALL_TRAITS",
    "BenchmarkTraits",
    "EXTENDED_TRAITS",
    "SPECINT_TRAITS",
    "SyntheticProgramGenerator",
    "generate_program",
    "ALL_BENCHMARKS",
    "EXTENDED_BENCHMARKS",
    "SPECINT_BENCHMARKS",
    "build_benchmark",
    "build_suite",
]
