"""Physical memory model: frames, huge regions, mobility, compaction.

Each NUMA node is a flat array of base-page *frames* grouped into aligned
*huge regions* (32 frames per 128KB region in the SCALED profile, 512 per
2MB region on real x86-64).  Frames carry a mobility class:

- ``FREE`` — available for allocation,
- ``MOVABLE`` — user memory; compaction may migrate it,
- ``NONMOVABLE`` — kernel memory; never migrated (the paper's ``frag``
  tool plants exactly these),
- ``PINNED`` — ``mlock``-ed memory (the paper's ``memhog``); neither
  migrated nor reclaimed.

Frames may additionally be *reclaimable* (page-cache contents that can be
dropped at a cost), which models the single-use-memory interference of
§4.3.

Huge page allocation requires one fully free region.  When none exists the
allocator mirrors the kernel's behaviour: it attempts *compaction*
(migrating movable frames out of an almost-free region) and *reclaim*
(dropping reclaimable frames), charging the cycle cost of both to the
kernel ledger — this is the "extra effort" the paper measures under
moderate memory pressure.
"""

from __future__ import annotations

from enum import IntEnum
from typing import TYPE_CHECKING, Optional, Protocol

import numpy as np

from ..config import MachineConfig
from ..errors import OutOfMemoryError
from ..faults.injector import FaultInjector
from ..faults.sites import FaultSite
from .stats import KernelLedger

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids a cycle)
    from .sanitizer import MemSanitizer

_AMBIENT = object()
"""Sentinel: resolve the sanitizer from REPRO_SANITIZE / set_sanitize()."""


class FrameState(IntEnum):
    """Mobility class of one physical frame."""

    FREE = 0
    MOVABLE = 1
    NONMOVABLE = 2
    PINNED = 3
    HUGE = 4
    """Part of an allocated huge page.  Compaction never migrates
    individual frames out of a THP (the kernel would have to split it
    first); demotion returns the frames to ``MOVABLE``."""


class FrameOwner(Protocol):
    """Callbacks the allocator uses to coordinate with frame owners.

    Owners (the VMM, the page cache) register with a node and receive
    notifications when compaction migrates one of their frames or reclaim
    drops one.
    """

    def relocate_frame(self, old_frame: int, new_frame: int) -> None:
        """Compaction moved the owner's data from ``old_frame`` to
        ``new_frame``; the owner must repoint its mappings."""
        ...

    def reclaim_frame(self, frame: int) -> None:
        """Reclaim dropped the owner's (reclaimable) frame; the owner must
        forget it.  The allocator frees the frame itself."""
        ...


class NodeMemory:
    """Frame map for a single NUMA node."""

    def __init__(
        self,
        node_id: int,
        config: MachineConfig,
        ledger: KernelLedger,
        injector: Optional[FaultInjector] = None,
        sanitizer: Optional["MemSanitizer"] = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.ledger = ledger
        self.injector = injector
        self.sanitizer = sanitizer
        # Observability tracer, attached by the machine (None = off;
        # every emission site below guards on it — rule REP008).
        self.tracer = None
        self.frames_per_region = config.pages.frames_per_huge
        self.num_frames = config.frames_per_node
        self.num_regions = config.huge_regions_per_node
        self.state = np.zeros(self.num_frames, dtype=np.uint8)
        self.owner_id = np.full(self.num_frames, -1, dtype=np.int32)
        self.reclaimable = np.zeros(self.num_frames, dtype=bool)
        self._owners: dict[int, FrameOwner] = {}
        self._next_owner_id = 0
        # Free frames per huge region and in total, kept exact at every
        # state change below so no query rescans the frame map (MemSan's
        # verify_node cross-checks both against a full rescan).
        self._region_free = np.full(
            self.num_regions, self.frames_per_region, dtype=np.int64
        )
        self._free_total = self.num_frames

    # ------------------------------------------------------------------
    # Owner registry
    # ------------------------------------------------------------------

    def register_owner(self, owner: FrameOwner) -> int:
        """Register a frame owner; returns its id for allocation calls."""
        owner_id = self._next_owner_id
        self._next_owner_id += 1
        self._owners[owner_id] = owner
        return owner_id

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def free_frame_count(self) -> int:
        """Number of free frames on this node."""
        return self._free_total

    @property
    def free_bytes(self) -> int:
        """Free memory in bytes."""
        return self.free_frame_count * self.config.pages.base_page_size

    def region_free_counts(self) -> np.ndarray:
        """Free-frame count per huge region (length ``num_regions``)."""
        return self._region_free.copy()

    def pristine_region_count(self) -> int:
        """Number of fully free huge regions."""
        return int(
            np.count_nonzero(self._region_free == self.frames_per_region)
        )

    def per_region_sum(self, frame_mask: np.ndarray) -> np.ndarray:
        """Count of set frames in ``frame_mask`` per huge region."""
        return frame_mask.reshape(-1, self.frames_per_region).sum(
            axis=1, dtype=np.int64
        )

    def region_of(self, frame: int) -> int:
        """Huge region index containing ``frame``."""
        return frame // self.frames_per_region

    def region_frames(self, region: int) -> slice:
        """Slice of frame indices covered by huge region ``region``."""
        start = region * self.frames_per_region
        return slice(start, start + self.frames_per_region)

    def fragmentation_level(self) -> float:
        """Fraction of *free* memory with no enclosing free huge region.

        This is the paper's fragmentation definition (§4.4.1): the
        percentage of available memory where no contiguous huge-page-sized
        region exists.  0.0 means all free memory is in pristine regions;
        1.0 means none of it is.
        """
        counts = self._region_free
        free_total = self._free_total
        if free_total == 0:
            return 0.0
        pristine_free = int(
            counts[counts == self.frames_per_region].sum()
        )
        return 1.0 - pristine_free / free_total

    # ------------------------------------------------------------------
    # Base-page allocation
    # ------------------------------------------------------------------

    def alloc_frames(
        self,
        count: int,
        owner_id: int,
        state: FrameState = FrameState.MOVABLE,
        reclaimable: bool = False,
    ) -> np.ndarray:
        """Allocate ``count`` base frames; returns their indices.

        Mirroring the buddy allocator's preference for splitting
        already-broken blocks, frames are taken from partially used
        regions before pristine regions are broken up.

        Raises:
            OutOfMemoryError: if fewer than ``count`` frames are free.
        """
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if self.injector is not None:
            self.injector.check(FaultSite.ALLOC)
        if self._free_total < count:
            raise OutOfMemoryError(
                f"node {self.node_id}: need {count} frames, "
                f"only {self._free_total} free"
            )
        chosen = self._pick_broken_first(self._region_free, count)
        if self.sanitizer is not None:
            self.sanitizer.on_alloc_frames(self, chosen, state)
        self.state[chosen] = int(state)
        self.owner_id[chosen] = owner_id
        self.reclaimable[chosen] = reclaimable
        return chosen

    def place_frames(
        self,
        frames: np.ndarray,
        owner_id: int,
        state: FrameState,
        reclaimable: bool = False,
    ) -> None:
        """Allocate the caller-chosen free ``frames`` (the ``frag`` and
        noise tools plant pages at exact positions)."""
        frames = np.asarray(frames, dtype=np.int64)
        if self.sanitizer is not None:
            self.sanitizer.on_alloc_frames(self, frames, state)
        self._shift_free(frames[self.state[frames] == FrameState.FREE], -1)
        self.state[frames] = int(state)
        self.owner_id[frames] = owner_id
        self.reclaimable[frames] = reclaimable

    def _pick_broken_first(
        self, counts: np.ndarray, count: int
    ) -> np.ndarray:
        """Take ``count`` free frames, most-used regions first, and debit
        them from the free counters.

        ``counts`` is the free count per region to pick from (the live
        counters, or a copy with regions excluded).  Partially used
        regions come first, fewest free frames first, then pristine
        regions; ties keep region order, and frames within a region are
        taken in ascending order.
        """
        fpr = self.frames_per_region
        has_free = np.flatnonzero(counts)
        # Stable sort by free count: pristine regions (count == fpr) sort
        # after every partial one and keep their index order.
        order = has_free[np.argsort(counts[has_free], kind="stable")]
        cum = np.cumsum(counts[order])
        if cum.size == 0 or cum[-1] < count:
            raise OutOfMemoryError(
                f"node {self.node_id}: cannot find {count} free frames"
            )
        k = int(np.searchsorted(cum, count)) + 1
        regions = order[:k]
        taken = counts[regions]
        taken[-1] -= int(cum[k - 1]) - count
        block = self.state.reshape(-1, fpr)[regions]
        chosen = np.flatnonzero(block == FrameState.FREE)[:count]
        # Block row i is region regions[i]: shift its offsets into place.
        chosen += np.repeat((regions - np.arange(k)) * fpr, taken)
        self._region_free[regions] -= taken
        self._free_total -= count
        return chosen

    # ------------------------------------------------------------------
    # Huge-page allocation
    # ------------------------------------------------------------------

    def alloc_huge_region(
        self,
        owner_id: int,
        allow_compaction: bool = True,
        allow_reclaim: bool = True,
        state: FrameState = FrameState.HUGE,
    ) -> Optional[int]:
        """Allocate one fully free huge region; returns the region index.

        Falls back to compaction (migrating movable frames out of the
        least-occupied eligible region) and reclaim (dropping reclaimable
        frames) when no pristine region exists, charging the work to the
        kernel ledger.  Returns ``None`` when no region can be assembled —
        the caller decides whether that means "fall back to base pages"
        (THP policy) or "out of memory".
        """
        pristine = np.flatnonzero(self._region_free == self.frames_per_region)
        if pristine.size:
            region = int(pristine[0])
            return self._claim_region(region, owner_id, state)
        if not (allow_compaction or allow_reclaim):
            return None
        if self.injector is not None:
            # Region assembly — the compaction/reclaim effort the paper
            # measures under pressure — is the canonical injection site.
            self.injector.check(FaultSite.COMPACTION)
        region = self._assemble_region(allow_compaction, allow_reclaim)
        if region is None:
            return None
        return self._claim_region(region, owner_id, state)

    def _claim_region(
        self, region: int, owner_id: int, state: FrameState
    ) -> int:
        if self.sanitizer is not None:
            self.sanitizer.on_claim_region(self, region, state)
        frames = self.region_frames(region)
        self._free_total -= int(self._region_free[region])
        self._region_free[region] = 0
        self.state[frames] = int(state)
        self.owner_id[frames] = owner_id
        self.reclaimable[frames] = False
        return region

    def _assemble_region(
        self, allow_compaction: bool, allow_reclaim: bool
    ) -> Optional[int]:
        """Free up one region via reclaim and/or compaction.

        A region is a candidate if every used frame in it is either
        movable (and compaction is allowed) or reclaimable (and reclaim is
        allowed).  The candidate needing the least work is chosen, and its
        movable frames must fit in free frames *outside* the region.
        """
        state = self.state
        free_counts = self._region_free
        movable = state == FrameState.MOVABLE
        blocked = (
            (state == FrameState.NONMOVABLE)
            | (state == FrameState.PINNED)
            | (state == FrameState.HUGE)
        )
        movable_counts = self.per_region_sum(movable)
        reclaim_counts = self.per_region_sum(movable & self.reclaimable)
        blocked_counts = self.per_region_sum(blocked)

        migrate_counts = movable_counts - reclaim_counts
        eligible = blocked_counts == 0
        if not allow_compaction:
            eligible &= migrate_counts == 0
        if not allow_reclaim:
            eligible &= reclaim_counts == 0
            migrate_counts = movable_counts  # nothing is droppable
        candidates = np.flatnonzero(eligible)
        if candidates.size == 0:
            return None
        # Least total work first: prefer dropping over migrating.
        work = migrate_counts[candidates] * 2 + reclaim_counts[candidates]
        order = candidates[np.argsort(work, kind="stable")]
        total_free = self._free_total
        for region in order:
            region = int(region)
            need_migrate = int(migrate_counts[region])
            free_outside = total_free - int(free_counts[region])
            if need_migrate > free_outside:
                continue
            self._evacuate_region(region, allow_reclaim)
            return region
        return None

    def _evacuate_region(self, region: int, allow_reclaim: bool) -> None:
        """Drop reclaimable frames and migrate movable frames out."""
        frames = self.region_frames(region)
        start = frames.start
        local_states = self.state[frames]
        used = np.flatnonzero(local_states == FrameState.MOVABLE) + start
        reclaimed = 0
        migrated: list[int] = []
        for frame in used:
            frame = int(frame)
            if allow_reclaim and self.reclaimable[frame]:
                self._owners[int(self.owner_id[frame])].reclaim_frame(frame)
                self._release(frame)
                reclaimed += 1
            else:
                migrated.append(frame)
        if migrated:
            targets = self._migration_targets(len(migrated), region)
            if self.sanitizer is not None:
                self.sanitizer.on_migrate_frames(self, migrated, targets)
            for old, new in zip(migrated, targets):
                new = int(new)
                self.state[new] = self.state[old]
                self.owner_id[new] = self.owner_id[old]
                self.reclaimable[new] = self.reclaimable[old]
                self._owners[int(self.owner_id[old])].relocate_frame(old, new)
                self._release(old)
            self.ledger.compaction(len(migrated))
            self.ledger.tlb_flush()
            tracer = self.tracer
            if tracer is not None:
                tracer.emit(
                    "mem.compaction",
                    region=region,
                    migrated_frames=len(migrated),
                )
        if reclaimed:
            self.ledger.reclaim(reclaimed)
            tracer = self.tracer
            if tracer is not None:
                tracer.emit("mem.reclaim", frames=reclaimed)

    def _migration_targets(self, count: int, exclude_region: int) -> np.ndarray:
        """Free frames outside ``exclude_region``, broken regions first."""
        counts = self._region_free.copy()
        counts[exclude_region] = 0
        return self._pick_broken_first(counts, count)

    # ------------------------------------------------------------------
    # Freeing / pinning
    # ------------------------------------------------------------------

    def _shift_free(self, frames: np.ndarray, delta: int) -> None:
        """Add ``delta`` per frame to the free counters of ``frames``."""
        np.add.at(self._region_free, frames // self.frames_per_region, delta)
        self._free_total += delta * int(frames.size)

    def _release(self, frame: int) -> None:
        if self.sanitizer is not None:
            self.sanitizer.on_release_frame(self, frame)
        if self.state[frame] != FrameState.FREE:
            self._region_free[frame // self.frames_per_region] += 1
            self._free_total += 1
        self.state[frame] = int(FrameState.FREE)
        self.owner_id[frame] = -1
        self.reclaimable[frame] = False

    def reclaim_frames(self, count: int) -> int:
        """Drop up to ``count`` reclaimable (page-cache) frames to free
        memory — the kernel's reclaim-before-swap behaviour.  Returns
        the number of frames actually freed and charges their reclaim
        cost."""
        candidates = np.flatnonzero(
            (self.state == FrameState.MOVABLE) & self.reclaimable
        )[:count]
        if candidates.size == 0:
            return 0
        for frame in candidates:
            frame = int(frame)
            self._owners[int(self.owner_id[frame])].reclaim_frame(frame)
            self._release(frame)
        self.ledger.reclaim(int(candidates.size))
        tracer = self.tracer
        if tracer is not None:
            tracer.emit("mem.reclaim", frames=int(candidates.size))
        return int(candidates.size)

    def free_frames(self, frames: np.ndarray) -> None:
        """Return the given frames to the free pool."""
        if self.sanitizer is not None:
            self.sanitizer.on_free_frames(self, frames)
        frames = np.asarray(frames, dtype=np.int64)
        self._shift_free(frames[self.state[frames] != FrameState.FREE], 1)
        self.state[frames] = int(FrameState.FREE)
        self.owner_id[frames] = -1
        self.reclaimable[frames] = False

    def free_huge_region(self, region: int) -> None:
        """Return a whole huge region to the free pool."""
        if self.sanitizer is not None:
            self.sanitizer.on_free_huge_region(self, region)
        frames = self.region_frames(region)
        self._free_total += self.frames_per_region - int(
            self._region_free[region]
        )
        self._region_free[region] = self.frames_per_region
        self.state[frames] = int(FrameState.FREE)
        self.owner_id[frames] = -1
        self.reclaimable[frames] = False

    def demote_region(self, region: int) -> None:
        """A huge page in ``region`` was split: its frames become
        individually movable (and freeable) base pages."""
        if self.sanitizer is not None:
            self.sanitizer.on_demote_region(self, region)
        frames = self.region_frames(region)
        idx = (
            np.flatnonzero(self.state[frames] == FrameState.HUGE)
            + frames.start
        )
        self.state[idx] = int(FrameState.MOVABLE)

    def pin_frames(self, frames: np.ndarray) -> None:
        """Mark frames as pinned (``mlock``): not migratable, not
        reclaimable."""
        if self.sanitizer is not None:
            self.sanitizer.on_pin_frames(self, frames)
        frames = np.asarray(frames, dtype=np.int64)
        self._shift_free(frames[self.state[frames] == FrameState.FREE], -1)
        self.state[frames] = int(FrameState.PINNED)
        self.reclaimable[frames] = False


class PhysicalMemory:
    """All NUMA nodes of the machine plus the shared kernel ledger."""

    def __init__(
        self,
        config: MachineConfig,
        injector: Optional[FaultInjector] = None,
        sanitizer=_AMBIENT,
    ) -> None:
        self.config = config
        self.ledger = KernelLedger(cost=config.cost)
        self.injector = injector
        if sanitizer is _AMBIENT:
            # Deferred import: repro.mem.sanitizer imports FrameState
            # from this module, so the dependency must stay call-time.
            from .sanitizer import make_sanitizer

            sanitizer = make_sanitizer()
        self.sanitizer = sanitizer
        self.nodes = [
            NodeMemory(
                node_id,
                config,
                self.ledger,
                injector=injector,
                sanitizer=sanitizer,
            )
            for node_id in range(config.num_nodes)
        ]

    def node(self, node_id: int) -> NodeMemory:
        """The frame map of NUMA node ``node_id``."""
        return self.nodes[node_id]

    def reset_ledger(self) -> KernelLedger:
        """Swap in a fresh ledger (e.g. after scenario setup, before the
        measured run) and return the old one."""
        old = self.ledger
        self.ledger = KernelLedger(cost=self.config.cost)
        for node in self.nodes:
            node.ledger = self.ledger
        return old
