"""Kernel-activity accounting.

The paper distinguishes application compute time from kernel time spent on
memory management (fault handling, compaction, reclaim, promotion, swap
I/O).  :class:`KernelLedger` accumulates both the *event counts* and the
*cycle costs* of every kernel-side activity so experiments can report where
time went.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from ..config import CostModel


@dataclass
class KernelLedger:
    """Accumulates kernel-side event counts and their cycle costs.

    Categories are free-form strings; the memory subsystem uses:

    - ``minor_fault`` — base-page demand faults,
    - ``huge_fault`` — huge-page fault-time allocations,
    - ``base_prep`` — base frames zeroed/prepared,
    - ``huge_prep_frames`` — frames prepared as part of a huge allocation,
    - ``compaction_migrate`` — frames migrated by compaction,
    - ``reclaim`` — page-cache frames reclaimed,
    - ``promotion_frames`` — frames copied by khugepaged promotion,
    - ``promotions`` / ``demotions`` — whole huge pages promoted/demoted,
    - ``swap_in`` / ``swap_out`` — pages moved across the swap device,
    - ``tlb_flush`` — TLB shootdowns.
    """

    cost: CostModel
    counts: Counter = field(default_factory=Counter)
    cycles: Counter = field(default_factory=Counter)

    def add(self, category: str, count: int, cycles_per_event: float) -> None:
        """Record ``count`` events of ``category`` at a given unit cost."""
        if count == 0:
            return
        self.counts[category] += count
        self.cycles[category] += int(count * cycles_per_event)

    # Convenience wrappers tied to the cost model -------------------------

    def minor_fault(self, count: int = 1) -> None:
        """A base-page demand fault (kernel entry + PTE install)."""
        self.add("minor_fault", count, self.cost.minor_fault)

    def base_prep(self, frames: int) -> None:
        """Base frames zeroed for an anonymous mapping."""
        self.add("base_prep", frames, self.cost.base_page_prep)

    def huge_fault(self, frames_per_huge: int) -> None:
        """A huge page allocated in the fault path (checks + zeroing)."""
        self.add("huge_fault", 1, self.cost.huge_fault_extra)
        self.add("huge_prep_frames", frames_per_huge, self.cost.base_page_prep)

    def compaction(self, frames_migrated: int) -> None:
        """Frames migrated while assembling a free huge region."""
        self.add(
            "compaction_migrate", frames_migrated, self.cost.compaction_per_frame
        )

    def reclaim(self, frames: int) -> None:
        """Page-cache frames reclaimed to free memory."""
        self.add("reclaim", frames, self.cost.reclaim_per_frame)

    def promotion(self, frames_per_huge: int) -> None:
        """khugepaged promoted one region (copy + PTE rewrite + flush)."""
        self.add("promotions", 1, 0.0)
        self.add(
            "promotion_frames",
            frames_per_huge,
            self.cost.promotion_copy_per_frame,
        )
        self.tlb_flush()

    def demotion(self) -> None:
        """One huge page split back into base pages."""
        self.add("demotions", 1, 0.0)
        self.tlb_flush()

    def swap_in(self, pages: int = 1) -> None:
        """Pages read back from the swap device."""
        self.add("swap_in", pages, self.cost.swap_in)

    def swap_out(self, pages: int = 1) -> None:
        """Pages written out to the swap device."""
        self.add("swap_out", pages, self.cost.swap_out)

    def tlb_flush(self, count: int = 1) -> None:
        """TLB shootdowns caused by mapping changes."""
        self.add("tlb_flush", count, self.cost.tlb_flush)

    # Aggregation ---------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        """Total kernel cycles across all categories."""
        return sum(self.cycles.values())

    def cycles_for(self, *categories: str) -> int:
        """Total cycles across the given categories."""
        return sum(self.cycles[c] for c in categories)

    def snapshot(self) -> dict[str, dict[str, int]]:
        """A plain-dict copy of counts and cycles (for metrics/reports)."""
        return {
            "counts": dict(self.counts),
            "cycles": dict(self.cycles),
        }

    def merge(self, other: "KernelLedger") -> None:
        """Fold another ledger's counters into this one, in its key
        order and without re-costing them."""
        self.counts.update(other.counts)
        self.cycles.update(other.cycles)

    @contextmanager
    def isolated(self) -> Iterator["KernelLedger"]:
        """Charge a block to empty counters, then fold them back in.

        Everything holding this ledger charges the yielded phase ledger
        while the block runs, so it ends up with only the block's own
        charges, in first-touch order.  On exit they are merged in that
        order, which leaves this ledger exactly as charging it directly
        would have."""
        counts, cycles = self.counts, self.cycles
        phase = KernelLedger(self.cost)
        self.counts, self.cycles = phase.counts, phase.cycles
        try:
            yield phase
        finally:
            self.counts, self.cycles = counts, cycles
            self.merge(phase)
