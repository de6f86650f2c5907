"""Branch prediction: hybrid gshare/bimodal predictor, BTB and return stack.

Table 1: "Hybrid 2K gshare, 2K bimodal, 1K selector" with a 2048-entry
4-way BTB.  The simulator is trace-driven, so prediction is consulted for
its *accuracy* (a mispredicted branch blocks fetch until it resolves); the
wrong path itself is not executed.
"""

from __future__ import annotations

from repro.uarch.config import BranchPredictorConfig


def _counter_update(counter: int, taken: bool) -> int:
    """Saturating 2-bit counter update."""
    if taken:
        return min(3, counter + 1)
    return max(0, counter - 1)


class HybridBranchPredictor:
    """gshare + bimodal with a selector table, plus BTB and return-address stack."""

    def __init__(self, config: BranchPredictorConfig | None = None):
        self.config = config or BranchPredictorConfig()
        cfg = self.config
        self._gshare = [1] * cfg.gshare_entries
        self._bimodal = [1] * cfg.bimodal_entries
        self._selector = [1] * cfg.selector_entries  # >=2 prefers gshare
        self._history = 0
        self._history_mask = (1 << cfg.history_bits) - 1
        # BTB: maps set index to a list of (tag, target) with LRU order.
        self._btb_sets = max(1, cfg.btb_entries // cfg.btb_assoc)
        self._btb: list[list[tuple[int, int]]] = [[] for _ in range(self._btb_sets)]
        self._ras: list[int] = []

    # ------------------------------------------------------------------
    def predict_and_update(self, pc: int, taken: bool, target: int) -> bool:
        """Predict the branch at ``pc`` and immediately train on the outcome.

        Trace-driven use: the actual outcome is known, so prediction and
        update happen together.  Returns whether the prediction was correct:
        direction, and target for a taken branch.
        """
        cfg = self.config

        gshare_index = (pc ^ self._history) % cfg.gshare_entries
        bimodal_index = pc % cfg.bimodal_entries
        selector_index = pc % cfg.selector_entries

        gshare_taken = self._gshare[gshare_index] >= 2
        bimodal_taken = self._bimodal[bimodal_index] >= 2
        use_gshare = self._selector[selector_index] >= 2
        predicted_taken = gshare_taken if use_gshare else bimodal_taken

        btb_hit = self._btb_lookup(pc) == target if taken else True
        correct = predicted_taken == taken and (not taken or btb_hit or predicted_taken is False)
        # A taken branch predicted taken but with an unknown/incorrect target
        # still redirects the front end: count it as incorrect.
        if taken and predicted_taken and not btb_hit:
            correct = False

        # Train.
        self._gshare[gshare_index] = _counter_update(self._gshare[gshare_index], taken)
        self._bimodal[bimodal_index] = _counter_update(self._bimodal[bimodal_index], taken)
        if gshare_taken != bimodal_taken:
            self._selector[selector_index] = _counter_update(
                self._selector[selector_index], gshare_taken == taken
            )
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        if taken:
            self._btb_insert(pc, target)
        return correct

    # ------------------------------------------------------------------
    # Return-address stack
    # ------------------------------------------------------------------
    def push_return_address(self, return_pc: int) -> None:
        """Record the return address of a call."""
        self._ras.append(return_pc)
        if len(self._ras) > self.config.ras_entries:
            self._ras.pop(0)

    def predict_return(self, actual_return_pc: int) -> bool:
        """Pop the RAS and report whether it matched the actual return target."""
        if not self._ras:
            return False
        return self._ras.pop() == actual_return_pc

    # ------------------------------------------------------------------
    # BTB helpers
    # ------------------------------------------------------------------
    def _btb_lookup(self, pc: int) -> int | None:
        entry_set = self._btb[pc % self._btb_sets]
        for tag, target in entry_set:
            if tag == pc:
                return target
        return None

    def _btb_insert(self, pc: int, target: int) -> None:
        entry_set = self._btb[pc % self._btb_sets]
        for position, (tag, _) in enumerate(entry_set):
            if tag == pc:
                entry_set.pop(position)
                break
        entry_set.insert(0, (pc, target))
        if len(entry_set) > self.config.btb_assoc:
            entry_set.pop()
