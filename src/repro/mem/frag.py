"""The paper's ``frag`` tool: controlled non-movable fragmentation.

§4.4.1 describes the mechanism precisely: allocate huge-page regions until
F% of the *available* memory is covered, split each region into base
pages, free every page except the first, and leave that first page
allocated **non-movable** (``alloc_pages_node`` without ``__GFP_MOVABLE``).

The result: F% of available memory contains no contiguous huge-page-sized
free region, and — because the surviving page is non-movable — compaction
can never repair it.  This is exactly the fragmentation state this class
produces on the simulated frame map.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, OutOfMemoryError
from .physical import FrameState, NodeMemory


class Fragmenter:
    """Fragment a node's free memory with non-movable sentinel pages."""

    def __init__(self, node: NodeMemory) -> None:
        self.node = node
        self.owner_id = node.register_owner(self)
        self.sentinel_frames: np.ndarray = np.empty(0, dtype=np.int64)

    def fragment(self, level: float) -> int:
        """Fragment ``level`` (0.0–1.0) of the currently free memory.

        Returns the number of regions fragmented.  Following the paper's
        tool, regions are taken greedily from fully free regions only; the
        call must happen while the target memory is still unfragmented
        (i.e. right after ``memhog`` sets up memory pressure).

        Raises:
            ConfigError: if ``level`` is outside [0, 1].
            OutOfMemoryError: if fewer pristine regions exist than the
                requested level requires.
        """
        if not 0.0 <= level <= 1.0:
            raise ConfigError(f"fragmentation level must be in [0,1], got {level}")
        if level == 0.0:
            return 0
        node = self.node
        fpr = node.frames_per_region
        free_frames = node.free_frame_count
        target_frames = int(free_frames * level)
        regions_needed = target_frames // fpr
        counts = node.region_free_counts()
        pristine = np.flatnonzero(counts == fpr)
        if pristine.size < regions_needed:
            raise OutOfMemoryError(
                f"need {regions_needed} pristine regions to fragment "
                f"{level:.0%} of free memory, only {pristine.size} exist"
            )
        # The paper's tool claims each whole region and frees all but its
        # first page; the net effect is one non-movable sentinel at the
        # start of each region.
        sentinels = pristine[:regions_needed] * fpr
        node.place_frames(sentinels, self.owner_id, FrameState.NONMOVABLE)
        self.sentinel_frames = np.concatenate(
            [self.sentinel_frames, sentinels]
        )
        return regions_needed

    def release(self) -> None:
        """Free all sentinel pages (undo the fragmentation)."""
        if self.sentinel_frames.size:
            self.node.free_frames(self.sentinel_frames)
            self.sentinel_frames = np.empty(0, dtype=np.int64)

    # FrameOwner protocol: sentinels are non-movable and non-reclaimable,
    # so neither callback should ever fire.
    def relocate_frame(self, old_frame: int, new_frame: int) -> None:  # pragma: no cover
        raise AssertionError("non-movable sentinel pages cannot be migrated")

    def reclaim_frame(self, frame: int) -> None:  # pragma: no cover
        raise AssertionError("non-movable sentinel pages cannot be reclaimed")
