"""Per-basic-block DAG analysis (section 4.2).

The paper analyses each basic block of a DAG region individually, using the
pseudo issue queue to determine how many IQ entries the block needs, and
"conservatively summarises the control flow paths leading to each block"
rather than analysing every path separately.  The summary threaded between
blocks here is a per-register availability delay: how many cycles after the
block starts executing a value produced by a predecessor becomes available.
Multiple predecessors are merged according to the configured policy
(conservative maximum by default); blocks with very many predecessors fall
back to the all-available assumption, reproducing the loss of accuracy the
paper reports for gcc's complex control flow.  Summaries are keyed by
register slot (:func:`~repro.cfg.ddg.slot`), as the scheduler reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cfg.dag_regions import DagRegion
from repro.cfg.ddg import decode_iq
from repro.cfg.graph import ControlFlowGraph
from repro.core.config import CompilerConfig
from repro.core.pseudo_queue import PseudoIssueQueue, ScheduleResult
from repro.isa.program import BasicBlock


@dataclass
class BlockRequirement:
    """The analysis result for one basic block.

    Attributes:
        procedure: enclosing procedure name.
        label: basic-block label.
        entries: issue-queue entries the block needs (clamped to the
            physical queue size and the configured floor).
        raw_entries: the unclamped requirement from the scheduler.
        schedule: the full pseudo-issue-queue schedule (for diagnostics).
        source: ``"dag"`` or ``"loop"`` depending on which analysis produced
            the value; loop headers carry the loop requirement.
    """

    procedure: str
    label: str
    entries: int
    raw_entries: int
    schedule: Optional[ScheduleResult] = None
    source: str = "dag"


@dataclass
class PathSummary:
    """Conservative summary of register availability at a block boundary:
    cycles until each register's value is available, keyed by slot."""

    latency: dict[int, int] = field(default_factory=dict)

    def joined_with(self, other: "PathSummary", policy: str) -> "PathSummary":
        """Merge two predecessor summaries under ``policy`` ("max" or "ready")."""
        if policy == "ready":
            return PathSummary()
        merged = dict(self.latency)
        for reg, value in other.latency.items():
            merged[reg] = max(merged.get(reg, 0), value)
        return PathSummary(latency=merged)

    @classmethod
    def ready(cls) -> "PathSummary":
        """Summary in which every value is already available."""
        return cls()


def analyse_block(
    block: BasicBlock,
    config: CompilerConfig,
    procedure_name: str = "",
    entry_summary: Optional[PathSummary] = None,
) -> BlockRequirement:
    """Run the pseudo-issue-queue analysis on a single basic block."""
    summary = entry_summary or PathSummary.ready()
    schedule, _ = PseudoIssueQueue(config).schedule_decoded(
        decode_iq(block.instructions, config.assumed_l1_hit_latency), summary.latency
    )
    raw = schedule.entries_needed
    return BlockRequirement(
        procedure=procedure_name,
        label=block.label,
        entries=config.clamp_requirement(raw),
        raw_entries=raw,
        schedule=schedule,
        source="dag",
    )


def analyse_dag_region(
    cfg: ControlFlowGraph,
    region: DagRegion,
    config: CompilerConfig,
) -> dict[str, BlockRequirement]:
    """Analyse every block of a DAG region, breadth-first from its start.

    Returns a mapping from block label to its requirement.  The traversal
    order matches figure 5 of the paper ("Traverse the DAG breadth-first");
    each block's entry summary is the merge of its predecessors' exit
    summaries restricted to predecessors inside the same region (values from
    outside the region are assumed available, as the paper assumes for the
    first block of a procedure).
    """
    scheduler = PseudoIssueQueue(config)
    load_latency = config.assumed_l1_hit_latency
    requirements: dict[str, BlockRequirement] = {}
    exit_summaries: dict[str, PathSummary] = {}
    region_blocks = set(region.blocks)
    procedure_name = cfg.procedure.name

    for label in region.blocks:
        block = cfg.block(label)
        preds_in_region = [p for p in cfg.pred(label) if p in region_blocks and p in exit_summaries]

        if len(cfg.pred(label)) > config.max_merge_preds:
            # Complex control flow: fall back to the all-available summary
            # (the gcc pathology described in section 5.3).
            entry_summary = PathSummary.ready()
        else:
            entry_summary = PathSummary.ready()
            for pred in preds_in_region:
                entry_summary = entry_summary.joined_with(
                    exit_summaries[pred], config.merge_policy
                )

        schedule, exit_latency = scheduler.schedule_decoded(
            decode_iq(block.instructions, load_latency), entry_summary.latency
        )
        raw = schedule.entries_needed
        requirements[label] = BlockRequirement(
            procedure=procedure_name,
            label=label,
            entries=config.clamp_requirement(raw),
            raw_entries=raw,
            schedule=schedule,
            source="dag",
        )
        exit_summaries[label] = PathSummary(latency=exit_latency)

    return requirements
