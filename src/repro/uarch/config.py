"""Processor configuration (table 1 of the paper).

Every structure the timing simulator models is parameterised here so that
ablation studies (bank size, queue capacity, cache sizes, abella interval)
only touch configuration, never simulator code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import FuClass


@dataclass
class CacheConfig:
    """Geometry and timing of one cache level.

    Attributes:
        name: label used in statistics.
        size_bytes: total capacity.
        assoc: set associativity.
        line_bytes: line size.
        hit_latency: access time in cycles on a hit.
    """

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int
    hit_latency: int

    @property
    def num_sets(self) -> int:
        """Number of sets implied by the geometry."""
        return max(1, self.size_bytes // (self.line_bytes * self.assoc))


@dataclass
class BranchPredictorConfig:
    """Hybrid predictor configuration (table 1)."""

    gshare_entries: int = 2048
    bimodal_entries: int = 2048
    selector_entries: int = 1024
    history_bits: int = 11
    btb_entries: int = 2048
    btb_assoc: int = 4
    ras_entries: int = 16


@dataclass
class ProcessorConfig:
    """The full machine description.

    The defaults are the paper's table 1 plus the handful of parameters the
    paper inherits from SimpleScalar without restating (memory ports, fetch
    queue depth, decode depth, memory latency beyond L2).
    """

    # Widths.
    fetch_width: int = 8
    dispatch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8

    # Front end.
    fetch_queue_entries: int = 32
    decode_latency: int = 3
    branch_mispredict_penalty: int = 2  # redirect cycles after resolution

    # Windows.
    rob_entries: int = 128
    iq_entries: int = 80
    iq_bank_size: int = 8

    # Register files: 112 integer and 112 FP physical registers, 14 banks of 8.
    int_phys_regs: int = 112
    fp_phys_regs: int = 112
    regfile_bank_size: int = 8

    # Functional units (table 1) plus 2 memory ports (SimpleScalar default).
    fu_counts: dict[FuClass, int] = field(
        default_factory=lambda: {
            FuClass.INT_ALU: 6,
            FuClass.INT_MUL: 3,
            FuClass.FP_ALU: 4,
            FuClass.FP_MULDIV: 2,
            FuClass.MEM_PORT: 2,
            FuClass.NONE: 64,
        }
    )

    # Memory hierarchy.
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("l1i", 64 * 1024, 2, 32, 1)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("l1d", 64 * 1024, 4, 32, 2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("l2", 512 * 1024, 8, 64, 10)
    )
    l2_miss_latency: int = 50

    # Branch prediction.
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)

    @classmethod
    def hpca2005(cls) -> "ProcessorConfig":
        """The configuration of table 1 of the paper."""
        return cls()

    @property
    def iq_banks(self) -> int:
        """Number of issue-queue banks."""
        return (self.iq_entries + self.iq_bank_size - 1) // self.iq_bank_size

    @property
    def int_regfile_banks(self) -> int:
        """Number of integer register-file banks."""
        return (self.int_phys_regs + self.regfile_bank_size - 1) // self.regfile_bank_size

    def validate(self) -> None:
        """Sanity-check structural parameters."""
        if self.iq_entries <= 0 or self.iq_bank_size <= 0:
            raise ValueError("issue queue must have positive capacity and bank size")
        if self.int_phys_regs < 32 + self.dispatch_width:
            raise ValueError("too few integer physical registers to rename")
        if self.rob_entries < self.dispatch_width:
            raise ValueError("ROB must hold at least one dispatch group")
        for width_name in ("fetch_width", "dispatch_width", "issue_width", "commit_width"):
            if getattr(self, width_name) <= 0:
                raise ValueError(f"{width_name} must be positive")
