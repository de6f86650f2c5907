"""DAG-region formation.

Section 4.1 of the paper: "DAGs are formed from the basic blocks in the
procedure using control flow analysis.  The first block in a DAG is the
first block in the procedure, or a block immediately following a function
call", and no DAG block may be part of a natural loop.

A region is therefore a set of loop-free blocks grown from a start block by
following CFG edges until a loop block, a block that starts another region,
or the end of the procedure is reached.  Blocks whose only predecessors are
loop blocks (loop exits) also start regions so every loop-free block belongs
to exactly one region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.graph import ControlFlowGraph
from repro.cfg.natural_loops import NaturalLoop, blocks_in_any_loop
from repro.isa.opcodes import Opcode


@dataclass
class DagRegion:
    """A loop-free region of blocks analysed as one DAG.

    Attributes:
        start: label of the region's first block.
        blocks: labels of every block in the region, in breadth-first order
            from the start (the traversal order the compiler pass uses).
    """

    start: str
    blocks: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.blocks)

    def __contains__(self, label: str) -> bool:
        return label in self.blocks


def _ends_in_call(cfg: ControlFlowGraph, label: str) -> bool:
    """True when the block's final instruction is a procedure call."""
    term = cfg.block(label).terminator
    return term is not None and term.is_call


def _contains_call(cfg: ControlFlowGraph, label: str) -> bool:
    """True when any instruction in the block is a procedure call."""
    return any(instr.opcode is Opcode.CALL for instr in cfg.block(label).instructions)


def find_dag_regions(cfg: ControlFlowGraph, loops: list[NaturalLoop]) -> list[DagRegion]:
    """Partition the loop-free, reachable blocks of ``cfg`` into DAG regions."""
    loop_blocks = blocks_in_any_loop(loops)
    reachable = cfg.reachable()
    dag_blocks = [label for label in cfg.labels if label in reachable and label not in loop_blocks]
    dag_block_set = set(dag_blocks)

    # Region starts: the procedure entry (if loop-free), any block following
    # a block that contains a call, and any block all of whose predecessors
    # are loop blocks or that has no predecessors at all (e.g. loop exits).
    starts: list[str] = []
    for label in dag_blocks:
        preds = [p for p in cfg.pred(label) if p in reachable]
        is_entry = label == cfg.entry
        follows_call = any(_contains_call(cfg, p) for p in preds)
        only_loop_preds = bool(preds) and all(p in loop_blocks for p in preds)
        orphan = not preds and not is_entry
        if is_entry or follows_call or only_loop_preds or orphan:
            starts.append(label)
    if not starts and dag_blocks:
        starts.append(dag_blocks[0])

    start_set = set(starts)
    assigned: set[str] = set()
    regions: list[DagRegion] = []

    for start in starts:
        if start in assigned:
            continue
        region = DagRegion(start=start)
        queue = [start]
        assigned.add(start)
        while queue:
            label = queue.pop(0)
            region.blocks.append(label)
            # A block that ends in a call terminates the region; its
            # successors begin new regions (they are in `starts`).
            if _ends_in_call(cfg, label):
                continue
            for succ in cfg.succ(label):
                if (
                    succ in dag_block_set
                    and succ not in assigned
                    and succ not in start_set
                ):
                    assigned.add(succ)
                    queue.append(succ)
        regions.append(region)

    # Safety net: any loop-free block not yet claimed becomes its own region
    # (can happen with unusual CFG shapes); this keeps the partition total.
    for label in dag_blocks:
        if label not in assigned:
            assigned.add(label)
            regions.append(DagRegion(start=label, blocks=[label]))

    return regions
