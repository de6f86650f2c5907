"""Control-flow and data-dependence analysis substrate.

This package replaces the MachineSUIF analysis libraries the paper relies
on: control-flow graph construction, dominator computation, natural-loop
detection, DAG-region formation (the regions between procedure calls that
the paper analyses block-by-block), and instruction decode with data
dependences on integer register slots (:mod:`repro.cfg.ddg`).
"""

from repro.cfg.graph import ControlFlowGraph, build_cfg
from repro.cfg.dominators import compute_dominators, immediate_dominators
from repro.cfg.natural_loops import NaturalLoop, find_natural_loops
from repro.cfg.dag_regions import DagRegion, find_dag_regions

__all__ = [
    "ControlFlowGraph",
    "build_cfg",
    "compute_dominators",
    "immediate_dominators",
    "NaturalLoop",
    "find_natural_loops",
    "DagRegion",
    "find_dag_regions",
]
