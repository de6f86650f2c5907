"""Inter-procedural refinement for the *Improved* scheme (section 5.3).

The NOOP and Extension schemes analyse each procedure in isolation, so
functional-unit contention between a caller's instructions and the callee's
instructions is invisible to the compiler; the paper identifies this as the
main source of IPC loss in vortex and bzip2.  The *Improved* scheme
applies, "by hand", inter-procedural analysis to the most heavily used
procedures.

Here the refinement is automated.  For every call site to a *hot* procedure
(one invoked from inside a loop, or from at least ``hot_call_threshold``
call sites):

* the requirement of the calling block -- and, when the call sits inside a
  loop, the enclosing loop's requirement -- is enlarged by the callee's own
  entry requirement, so the caller's in-flight instructions and the
  callee's first instructions can share the queue without stalling dispatch
  at the boundary;
* the callee's entry requirement is enlarged by (a bounded amount of) the
  caller's pressure, so that after the call returns the region in force is
  large enough for the remainder of the calling region to keep flowing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cfg.natural_loops import NaturalLoop
from repro.core.config import CompilerConfig
from repro.core.dag_analysis import BlockRequirement, analyse_block
from repro.isa.opcodes import Opcode
from repro.isa.program import Program


#: Upper bound on how much caller pressure is folded back into a callee's
#: entry requirement (keeps the refinement from simply requesting the
#: maximum queue everywhere, which would forfeit the power savings).
MAX_CALLER_FEEDBACK_ENTRIES = 24


@dataclass
class CallSiteInfo:
    """Static description of one call site.

    Attributes:
        caller: calling procedure name.
        block: label of the block containing the call.
        callee: called procedure name.
        in_loop: True when the call site sits inside a natural loop.
        loop_header: header label of the innermost loop containing the call
            site (None when not in a loop).
    """

    caller: str
    block: str
    callee: str
    in_loop: bool
    loop_header: Optional[str] = None


@dataclass
class InterproceduralSummary:
    """Whole-program call-site and hot-procedure information."""

    call_sites: list[CallSiteInfo] = field(default_factory=list)
    hot_procedures: set[str] = field(default_factory=set)
    entry_requirements: dict[str, int] = field(default_factory=dict)

    def call_counts(self) -> dict[str, int]:
        """Static call-site count per callee."""
        counts: dict[str, int] = {}
        for site in self.call_sites:
            counts[site.callee] = counts.get(site.callee, 0) + 1
        return counts


def summarise_call_sites(
    program: Program,
    config: CompilerConfig,
    loops: dict[str, list[NaturalLoop]],
) -> InterproceduralSummary:
    """Collect call sites, hot procedures and callee entry-block requirements.

    ``loops`` maps each analysable procedure's name to its natural loops,
    innermost first, as the analysis found them
    (:attr:`~repro.core.pipeline.ProgramAnalysis.loops_by_procedure`).
    """
    summary = InterproceduralSummary()

    for procedure in program.analysable_procedures():
        # Innermost-first ordering lets the first match win.
        block_to_loop: dict[str, str] = {}
        for loop in loops[procedure.name]:
            for label in loop.body:
                block_to_loop.setdefault(label, loop.header)
        for block in procedure.blocks:
            for instr in block.instructions:
                if instr.opcode is Opcode.CALL:
                    header = block_to_loop.get(block.label)
                    summary.call_sites.append(
                        CallSiteInfo(
                            caller=procedure.name,
                            block=block.label,
                            callee=instr.call_target,
                            in_loop=header is not None,
                            loop_header=header,
                        )
                    )

    counts = summary.call_counts()
    for site in summary.call_sites:
        callee = program.procedures.get(site.callee)
        if callee is None or callee.is_library:
            continue
        if site.in_loop or counts.get(site.callee, 0) >= config.hot_call_threshold:
            summary.hot_procedures.add(site.callee)

    for name in summary.hot_procedures:
        callee = program.procedures[name]
        requirement = analyse_block(callee.entry_block, config, procedure_name=name)
        summary.entry_requirements[name] = requirement.raw_entries

    return summary


def _enlarged(existing: BlockRequirement, extra: int, config: CompilerConfig) -> BlockRequirement:
    """Copy ``existing`` with ``extra`` entries added (and re-clamped)."""
    raw = existing.raw_entries + extra
    return BlockRequirement(
        procedure=existing.procedure,
        label=existing.label,
        entries=config.clamp_requirement(raw),
        raw_entries=raw,
        schedule=existing.schedule,
        source=existing.source,
    )


def apply_interprocedural_refinement(
    program: Program,
    requirements: dict[tuple[str, str], BlockRequirement],
    config: CompilerConfig,
    loops: dict[str, list[NaturalLoop]],
) -> dict[tuple[str, str], BlockRequirement]:
    """Enlarge requirements around hot call sites (both caller and callee side).

    Args:
        program: the analysed program.
        requirements: per-(procedure, block) requirements from the intra-
            procedural analysis; a refined copy is returned, the input is
            left untouched.  A loop containing a hot call site is refined
            through its header's entry.
        config: compiler configuration.
        loops: each procedure's natural loops, as
            :func:`summarise_call_sites` takes them.

    Returns:
        A new requirements mapping with refined values.
    """
    summary = summarise_call_sites(program, config, loops)
    refined = dict(requirements)

    caller_pressure: dict[str, int] = {}

    for site in summary.call_sites:
        if site.callee not in summary.hot_procedures:
            continue
        callee_need = summary.entry_requirements.get(site.callee, 0)

        # Caller side: the block containing the call.
        block_key = (site.caller, site.block)
        existing = refined.get(block_key)
        if existing is not None and callee_need > 0:
            refined[block_key] = _enlarged(existing, callee_need, config)
            caller_pressure[site.callee] = max(
                caller_pressure.get(site.callee, 0), existing.raw_entries
            )

        # Caller side: the enclosing loop, when the call sits inside one.
        if site.loop_header is not None:
            loop_key = (site.caller, site.loop_header)
            loop_existing = refined.get(loop_key)
            if loop_existing is not None and callee_need > 0:
                refined[loop_key] = _enlarged(loop_existing, callee_need, config)
                caller_pressure[site.callee] = max(
                    caller_pressure.get(site.callee, 0), loop_existing.raw_entries
                )

    # Callee side: fold (bounded) caller pressure back into the callee's
    # entry block so the region in force after the call returns is not
    # undersized for the caller's remaining work.
    for callee_name, pressure in caller_pressure.items():
        callee = program.procedures[callee_name]
        entry_key = (callee_name, callee.entry_block.label)
        existing = refined.get(entry_key)
        if existing is None:
            continue
        extra = min(pressure, MAX_CALLER_FEEDBACK_ENTRIES)
        refined[entry_key] = _enlarged(existing, extra, config)

    return refined
