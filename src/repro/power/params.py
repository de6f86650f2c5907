"""Energy coefficients for the power model.

The coefficients are expressed in arbitrary energy units; only ratios
matter.  They were calibrated so that the *baseline*
machine's issue-queue dynamic energy is split roughly 60% wakeup CAM, 25%
RAM read/write and 15% selection logic -- the balance Wattch-era studies
report for CAM-based issue queues -- and so the register file's per-access
energy is dominated by the banked array (the part bank gating can save)
with a small bank-independent overhead (decoders and global drivers).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EnergyParams:
    """Energy coefficients (arbitrary units).

    Attributes:
        iq_cmp_energy: energy of one tag comparator operation during a
            wakeup broadcast.
        iq_write_energy: energy of writing one issue-queue entry at dispatch.
        iq_read_energy: energy of reading one issue-queue entry at issue.
        iq_selection_energy_per_cycle: always-on selection-logic energy per
            cycle (the paper keeps selection on in every configuration).
        iq_bank_leakage: static energy per issue-queue bank per cycle.
        iq_ungated_static_fraction: fraction of issue-queue leakage that
            cannot be removed by turning banks off (peripheral logic).
        rf_access_base: bank-independent energy per register-file access.
        rf_access_per_bank: per-enabled-bank energy per register-file access
            (bit-line precharge in banks that are powered).
        rf_bank_leakage: static energy per register-file bank per cycle.
        rf_ungated_static_fraction: fraction of register-file leakage that
            cannot be removed by turning banks off.
    """

    iq_cmp_energy: float = 0.55
    iq_write_energy: float = 22.0
    iq_read_energy: float = 22.0
    iq_selection_energy_per_cycle: float = 24.0
    iq_bank_leakage: float = 1.0
    iq_ungated_static_fraction: float = 0.16
    rf_access_base: float = 0.30
    rf_access_per_bank: float = 0.05
    rf_bank_leakage: float = 1.0
    rf_ungated_static_fraction: float = 0.16

    def validate(self) -> None:
        """Check all coefficients are non-negative and fractions sane."""
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"energy coefficient {name} must be non-negative")
        for name in ("iq_ungated_static_fraction", "rf_ungated_static_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a fraction in [0, 1]")
