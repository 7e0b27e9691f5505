"""Branch prediction: 2-level direction predictor, BTB, and RAS.

Table 1 of the paper: 2-level predictor with 8192 entries in each
level, a 32-entry return address stack, an 8192-entry 4-way BTB, and an
8-cycle misprediction penalty (the penalty itself is enforced by the
pipeline, not here).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["TwoLevelPredictor", "BranchTargetBuffer", "ReturnAddressStack",
           "BranchPredictor", "PredictorStats"]


class PredictorStats:
    """Direction/target prediction counters."""

    __slots__ = ("lookups", "dir_correct", "dir_wrong",
                 "target_wrong", "btb_hits", "btb_misses")

    def __init__(self) -> None:
        self.lookups = 0
        self.dir_correct = 0
        self.dir_wrong = 0
        self.target_wrong = 0
        self.btb_hits = 0
        self.btb_misses = 0

    @property
    def mispredictions(self) -> int:
        return self.dir_wrong + self.target_wrong

    @property
    def mispredict_rate(self) -> float:
        return self.mispredictions / self.lookups if self.lookups else 0.0

    @property
    def accuracy(self) -> float:
        return 1.0 - self.mispredict_rate


class TwoLevelPredictor:
    """GAp-style 2-level adaptive direction predictor.

    First level: per-branch history registers (``l1_entries``); second
    level: pattern history table of 2-bit saturating counters indexed by
    history XOR branch address (gshare-flavoured combining, which is how
    sim-bpred wires a 2-level predictor with both tables populated).
    """

    def __init__(self, l1_entries: int = 8192, l2_entries: int = 8192,
                 history_bits: int = 13) -> None:
        for value, label in ((l1_entries, "l1_entries"), (l2_entries, "l2_entries")):
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{label} must be a power of two")
        if not 1 <= history_bits <= 30:
            raise ValueError("history_bits out of range")
        self.l1_entries = l1_entries
        self.l2_entries = l2_entries
        self.history_bits = history_bits
        self._history: List[int] = [0] * l1_entries
        self._pht: List[int] = [2] * l2_entries  # weakly taken
        self._hist_mask = (1 << history_bits) - 1

    def predict(self, pc: int) -> bool:
        word = pc >> 2
        history = self._history[word % self.l1_entries]
        return self._pht[(history ^ word) % self.l2_entries] >= 2

    def update(self, pc: int, taken: bool) -> None:
        word = pc >> 2
        l1 = word % self.l1_entries
        history = self._history[l1]
        l2 = (history ^ word) % self.l2_entries
        counter = self._pht[l2]
        if taken:
            if counter < 3:
                self._pht[l2] = counter + 1
            self._history[l1] = ((history << 1) | 1) & self._hist_mask
        else:
            if counter > 0:
                self._pht[l2] = counter - 1
            self._history[l1] = (history << 1) & self._hist_mask


class BranchTargetBuffer:
    """Set-associative BTB with LRU replacement (default 8192-entry 4-way)."""

    def __init__(self, entries: int = 8192, assoc: int = 4) -> None:
        if entries <= 0 or entries % assoc != 0:
            raise ValueError("entries must be a positive multiple of assoc")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self._sets: List[dict] = [dict() for _ in range(self.num_sets)]

    def lookup(self, pc: int) -> Optional[int]:
        """Predicted target for the branch at ``pc``, or ``None``."""
        word = pc >> 2
        entries = self._sets[word % self.num_sets]
        tag = word // self.num_sets
        target = entries.pop(tag, None)
        if target is not None:
            entries[tag] = target      # LRU refresh
        return target

    def update(self, pc: int, target: int) -> None:
        word = pc >> 2
        entries = self._sets[word % self.num_sets]
        tag = word // self.num_sets
        if entries.pop(tag, None) is None and len(entries) >= self.assoc:
            del entries[next(iter(entries))]
        entries[tag] = target


class ReturnAddressStack:
    """Fixed-depth return address stack (default 32 entries)."""

    def __init__(self, depth: int = 32) -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.depth = depth
        self._stack: List[int] = []

    def push(self, return_addr: int) -> None:
        if len(self._stack) >= self.depth:
            del self._stack[0]
        self._stack.append(return_addr)

    def pop(self) -> Optional[int]:
        if not self._stack:
            return None
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)


class BranchPredictor:
    """Combined front-end predictor used by the fetch stage.

    ``predict`` returns ``(taken, target)``; a taken prediction with no
    BTB target is treated as not-taken by the fetch unit (it cannot
    redirect without a target), which is the sim-outorder behaviour.
    """

    def __init__(self, l1_entries: int = 8192, l2_entries: int = 8192,
                 history_bits: int = 13, btb_entries: int = 8192,
                 btb_assoc: int = 4, ras_depth: int = 32) -> None:
        self.direction = TwoLevelPredictor(l1_entries, l2_entries, history_bits)
        self.btb = BranchTargetBuffer(btb_entries, btb_assoc)
        self.ras = ReturnAddressStack(ras_depth)
        self.stats = PredictorStats()

    def predict(self, pc: int) -> Tuple[bool, Optional[int]]:
        if not self.direction.predict(pc):
            return False, None
        target = self.btb.lookup(pc)
        if target is None:
            self.stats.btb_misses += 1
            return False, None
        self.stats.btb_hits += 1
        return True, target

    def resolve(self, pc: int, predicted_taken: bool,
                predicted_target: Optional[int],
                actual_taken: bool, actual_target: Optional[int]) -> bool:
        """Update state with the actual outcome; returns ``True`` when
        the branch was mispredicted (direction or target)."""
        self.stats.lookups += 1
        self.direction.update(pc, actual_taken)
        if actual_taken and actual_target is not None:
            self.btb.update(pc, actual_target)
        if predicted_taken != actual_taken:
            self.stats.dir_wrong += 1
            return True
        if actual_taken and predicted_target != actual_target:
            self.stats.target_wrong += 1
            return True
        self.stats.dir_correct += 1
        return False
