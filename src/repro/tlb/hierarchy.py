"""Two-level translation hierarchy with per-data-structure attribution.

Mirrors the paper's Table 1 hardware: a first-level data TLB split by page
size (separate 4KB and huge-page structures) backed by a unified
second-level "STLB".  A first-level miss probes the STLB; an STLB miss
costs a page table walk.

:meth:`TranslationHierarchy.simulate` processes run-length-compressed
traces (millions of runs), attributing accesses, first-level misses and
walks to the data structure (array id) that issued them, which is how the
paper's Fig. 4/5 per-structure analysis is produced.  Its per-lookup loop
(:meth:`TranslationHierarchy._lookups`) is the reference in optimized
pure Python; :class:`repro.tlb.native.NativeTranslationHierarchy` runs
the same loop as compiled code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import CostModel, TlbConfig
from .tlb import SetAssociativeTlb
from .trace import MAX_ARRAY_IDS, TlbTrace

__all__ = [
    "MAX_ARRAY_IDS",
    "TranslationHierarchy",
    "TranslationStats",
]


@dataclass
class TranslationStats:
    """Event counts from trace simulation, attributable per array id."""

    accesses: np.ndarray = field(
        default_factory=lambda: np.zeros(MAX_ARRAY_IDS, dtype=np.int64)
    )
    l1_misses: np.ndarray = field(
        default_factory=lambda: np.zeros(MAX_ARRAY_IDS, dtype=np.int64)
    )
    walks: np.ndarray = field(
        default_factory=lambda: np.zeros(MAX_ARRAY_IDS, dtype=np.int64)
    )

    @property
    def total_accesses(self) -> int:
        """All simulated memory accesses."""
        return int(self.accesses.sum())

    @property
    def total_l1_misses(self) -> int:
        """All first-level DTLB misses."""
        return int(self.l1_misses.sum())

    @property
    def total_walks(self) -> int:
        """All page table walks (STLB misses)."""
        return int(self.walks.sum())

    @property
    def l1_miss_rate(self) -> float:
        """DTLB miss rate: L1 misses / accesses."""
        total = self.total_accesses
        return self.total_l1_misses / total if total else 0.0

    @property
    def walk_rate(self) -> float:
        """Page-walk rate: STLB misses / accesses."""
        total = self.total_accesses
        return self.total_walks / total if total else 0.0

    @property
    def stlb_hit_rate_of_l1_misses(self) -> float:
        """Fraction of DTLB misses that the STLB absorbed."""
        misses = self.total_l1_misses
        if not misses:
            return 0.0
        return 1.0 - self.total_walks / misses

    def translation_cycles(self, cost: CostModel) -> int:
        """Cycles spent on address translation under ``cost``."""
        l2_hits = self.total_l1_misses - self.total_walks
        return int(
            l2_hits * cost.l2_tlb_hit
            + self.total_walks * cost.page_walk
            + (self.total_accesses - self.total_l1_misses) * cost.l1_tlb_hit
        )

    def per_array(self, names: dict[int, str]) -> dict[str, dict[str, int]]:
        """Counts broken down by data structure, using workload names."""
        out: dict[str, dict[str, int]] = {}
        for array_id, name in names.items():
            out[name] = {
                "accesses": int(self.accesses[array_id]),
                "l1_misses": int(self.l1_misses[array_id]),
                "walks": int(self.walks[array_id]),
            }
        return out

    def merge(self, other: "TranslationStats") -> None:
        """Accumulate another stats block into this one."""
        self.accesses += other.accesses
        self.l1_misses += other.l1_misses
        self.walks += other.walks


class TranslationHierarchy:
    """Split L1 DTLB + unified STLB, simulated over compressed traces."""

    engine = "exact"
    """Engine name stamped on ``tlb.stream`` observability events."""

    def __init__(self, config: TlbConfig) -> None:
        self.config = config
        self.l1_base = SetAssociativeTlb(config.l1_base)
        self.l1_huge = SetAssociativeTlb(config.l1_huge)
        self.l2 = SetAssociativeTlb(config.l2)
        # Observability tracer, attached by the machine (None = off).
        # One event per simulated access *stream*, never per access, so
        # the tracer stays off the per-access hot loop entirely.
        self.tracer = None
        self._stream = 0

    def flush(self) -> None:
        """Full shootdown of every level."""
        self.l1_base.flush()
        self.l1_huge.flush()
        self.l2.flush()

    def access_one(self, key: int) -> str:
        """Reference single-access path for tests.

        Returns ``"l1"``, ``"l2"`` or ``"walk"`` describing where the
        translation was found.
        """
        l1 = self.l1_huge if key & 1 else self.l1_base
        if l1.probe(key):
            l1.access(key)
            return "l1"
        l1.insert(key)
        if self.l2.probe(key):
            self.l2.access(key)
            return "l2"
        self.l2.insert(key)
        return "walk"

    def simulate(self, trace: TlbTrace, stats: TranslationStats) -> None:
        """Run a compressed trace through the hierarchy, updating
        ``stats`` in place.

        A run of length ``c`` on one page costs one real lookup; the
        remaining ``c - 1`` accesses are guaranteed L1 hits (the entry was
        just installed or refreshed), so only counts are updated for them.
        Access attribution is vectorized over the full run arrays; the
        lookups walk the coalesced view (adjacent same-key runs are a
        single lookup — see :meth:`TlbTrace.lookup_view`) through
        :meth:`_lookups`, the one step an engine subclass replaces.
        """
        stats.accesses += trace.access_totals()
        l1m, wlk = self._lookups(*trace.lookup_view())
        stats.l1_misses += l1m
        stats.walks += wlk
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "tlb.stream",
                stream=self._stream,
                engine=self.engine,
                accesses=int(trace.counts.sum()) if trace.counts.size else 0,
                l1_misses=int(l1m.sum()),
                walks=int(wlk.sum()),
            )
            self._stream += 1

    def _lookups(
        self, lookup_keys: np.ndarray, lookup_array_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Look up ``lookup_keys`` in order from the carried state;
        returns the per-array ``(l1_misses, walks)`` they added."""
        l1b_sets = self.l1_base.sets
        l1b_mask = self.l1_base.set_mask
        l1b_ways = self.l1_base.geometry.ways
        l1b_res = self.l1_base.resident
        l1h_sets = self.l1_huge.sets
        l1h_mask = self.l1_huge.set_mask
        l1h_ways = self.l1_huge.geometry.ways
        l1h_res = self.l1_huge.resident
        l2_sets = self.l2.sets
        l2_mask = self.l2.set_mask
        l2_ways = self.l2.geometry.ways
        l2_res = self.l2.resident

        # Accumulate into plain int lists inside the loop; fold into
        # numpy counters once at the end.  Hits test the O(1) resident
        # view and pay at most one list scan (the LRU reorder, skipped
        # when the entry is already MRU); misses scan nothing.
        l1m_l = [0] * MAX_ARRAY_IDS
        wlk_l = [0] * MAX_ARRAY_IDS

        for k, a in zip(lookup_keys.tolist(), lookup_array_ids.tolist()):
            if k & 1:
                if k in l1h_res:
                    entries = l1h_sets[(k >> 1) & l1h_mask]
                    if entries[0] != k:
                        entries.remove(k)
                        entries.insert(0, k)
                    continue
                res = l1h_res
                entries = l1h_sets[(k >> 1) & l1h_mask]
                ways = l1h_ways
            else:
                if k in l1b_res:
                    entries = l1b_sets[(k >> 1) & l1b_mask]
                    if entries[0] != k:
                        entries.remove(k)
                        entries.insert(0, k)
                    continue
                res = l1b_res
                entries = l1b_sets[(k >> 1) & l1b_mask]
                ways = l1b_ways
            l1m_l[a] += 1
            res.add(k)
            entries.insert(0, k)
            if len(entries) > ways:
                res.discard(entries.pop())
            entries2 = l2_sets[(k >> 1) & l2_mask]
            if k in l2_res:
                if entries2[0] != k:
                    entries2.remove(k)
                    entries2.insert(0, k)
                continue
            wlk_l[a] += 1
            l2_res.add(k)
            entries2.insert(0, k)
            if len(entries2) > l2_ways:
                l2_res.discard(entries2.pop())

        return (
            np.asarray(l1m_l, dtype=np.int64),
            np.asarray(wlk_l, dtype=np.int64),
        )
