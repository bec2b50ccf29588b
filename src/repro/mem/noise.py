"""Background system noise: the residual fragmentation of a long-running
machine.

The paper's constrained-memory experiments run on a machine that "has run
for a period of time and used pages across the entire physical memory
space" (§2.3.2): even after memhog carves out a precise amount of free
memory, that free memory is peppered with

- **non-movable kernel pages** (SLAB, page tables, driver buffers) that
  compaction can never repair — Fig. 6's dark-orange pages — and
- **movable stragglers** (other processes' pages, leftover cache) that
  compaction *can* migrate, at a cost.

:class:`BackgroundNoise` plants exactly this state: single pages scattered
one-per-region across free huge regions.  The non-movable component is
what makes Linux's greedy THP policy run out of huge pages before the
property array allocates (the mechanism behind Fig. 7); the movable
component adds the fault-path compaction work the paper observes as extra
kernel time under moderate pressure.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .physical import FrameState, NodeMemory


class BackgroundNoise:
    """Scatter single-page allocations across a node's free regions."""

    def __init__(self, node: NodeMemory) -> None:
        self.node = node
        self.owner_id = node.register_owner(self)
        self._movable: set[int] = set()
        self._nonmovable: list[int] = []

    def scatter(
        self,
        nonmovable_bytes: int = 0,
        movable_bytes: int = 0,
        seed: int = 0,
    ) -> tuple[int, int]:
        """Plant noise pages, one per free huge region, evenly spread.

        Sizes are expressed as the amount of memory whose huge-page
        allocatability the noise destroys: ``nonmovable_bytes`` poisons
        that many bytes' worth of huge regions permanently (one
        non-movable page per region), ``movable_bytes`` makes that many
        bytes' worth of regions require compaction (one movable page per
        region).  The memory actually consumed is tiny (one base page
        per region), exactly like real kernel-page litter.

        Returns the (non-movable, movable) page counts actually placed —
        capped by the number of pristine regions available, as a real
        system's noise would be.
        """
        if nonmovable_bytes < 0 or movable_bytes < 0:
            raise ConfigError("noise sizes must be non-negative")
        huge = self.node.config.pages.huge_page_size
        want_nonmovable = nonmovable_bytes // huge
        want_movable = movable_bytes // huge
        rng = np.random.default_rng(seed)

        placed_nm = self._place(want_nonmovable, FrameState.NONMOVABLE, rng)
        placed_m = self._place(want_movable, FrameState.MOVABLE, rng)
        return placed_nm, placed_m

    def _place(
        self, count: int, state: FrameState, rng: np.random.Generator
    ) -> int:
        if count == 0:
            return 0
        node = self.node
        fpr = node.frames_per_region
        counts = node.region_free_counts()
        pristine = np.flatnonzero(counts == fpr)
        if pristine.size == 0:
            return 0
        take = min(count, pristine.size)
        # Even spread across the pristine span, deterministic per seed.
        chosen = pristine[
            np.linspace(0, pristine.size - 1, take).astype(np.int64)
        ]
        offsets = rng.integers(0, fpr, size=take)
        frames = chosen * fpr + offsets
        node.place_frames(frames, self.owner_id, state)
        if state is FrameState.MOVABLE:
            self._movable.update(int(f) for f in frames)
        else:
            self._nonmovable.extend(int(f) for f in frames)
        return int(take)

    def release(self) -> None:
        """Free all noise pages."""
        # Sorted: compaction may have migrated movable noise pages, so the
        # set's iteration order is history-dependent; the free order (and
        # any fault-site evaluation it drives) must not be.
        all_frames = sorted(self._movable) + self._nonmovable
        if all_frames:
            self.node.free_frames(np.array(all_frames, dtype=np.int64))
        self._movable.clear()
        self._nonmovable.clear()

    # FrameOwner protocol ------------------------------------------------

    def relocate_frame(self, old_frame: int, new_frame: int) -> None:
        """Compaction migrated a movable noise page."""
        self._movable.discard(old_frame)
        self._movable.add(new_frame)

    def reclaim_frame(self, frame: int) -> None:  # pragma: no cover
        raise AssertionError("noise pages are not reclaimable")
