"""Stateful property test: the allocator's incremental free counters
under arbitrary operation sequences (hypothesis rule-based state machine).

``NodeMemory`` keeps the free-frame count of every huge region and of the
whole node up to date at each state change instead of rescanning the
frame map.  After every step this machine checks both counters against a
full rescan, and every base allocation is compared with the per-region
picker loop the counters replaced (kept here as the oracle).
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.config import tiny
from repro.mem.physical import FrameState, NodeMemory
from repro.mem.sanitizer import MemSanitizer
from repro.mem.stats import KernelLedger


def oracle_pick(free_mask: np.ndarray, fpr: int, count: int) -> np.ndarray:
    """The original broken-regions-first picker: one loop iteration per
    region, fewest free frames first, pristine regions last."""
    counts = np.add.reduceat(
        free_mask.astype(np.int64), np.arange(0, free_mask.size, fpr)
    )
    has_free = counts > 0
    pristine = counts == fpr
    partial = has_free & ~pristine
    order = np.concatenate(
        [
            np.flatnonzero(partial)[np.argsort(counts[partial], kind="stable")],
            np.flatnonzero(pristine),
        ]
    )
    chosen_parts: list[np.ndarray] = []
    remaining = count
    for region in order:
        start = region * fpr
        local = np.flatnonzero(free_mask[start : start + fpr]) + start
        if local.size > remaining:
            local = local[:remaining]
        chosen_parts.append(local)
        remaining -= local.size
        if remaining == 0:
            break
    return np.concatenate(chosen_parts)


class _Owner:
    """Frame owner tracking which frames it holds, through compaction
    and reclaim callbacks."""

    def __init__(self) -> None:
        self.frames: set[int] = set()

    def relocate_frame(self, old: int, new: int) -> None:
        self.frames.remove(old)
        self.frames.add(new)

    def reclaim_frame(self, frame: int) -> None:
        self.frames.remove(frame)


class CounterMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        config = tiny()
        self.node = NodeMemory(
            0, config, KernelLedger(cost=config.cost), sanitizer=MemSanitizer()
        )
        self.owner = _Owner()
        self.owner_id = self.node.register_owner(self.owner)
        self.huge: set[int] = set()  # regions held whole as HUGE

    # ------------------------------------------------------------- rules

    @rule(count=st.integers(min_value=1, max_value=200),
          reclaimable=st.booleans())
    def alloc_frames(self, count, reclaimable):
        node = self.node
        count = min(count, node.free_frame_count)
        if count == 0:
            return
        expected = oracle_pick(
            node.state == FrameState.FREE, node.frames_per_region, count
        )
        frames = node.alloc_frames(
            count, self.owner_id, reclaimable=reclaimable
        )
        assert np.array_equal(frames, expected)
        self.owner.frames.update(frames.tolist())

    @rule(allow_compaction=st.booleans(), allow_reclaim=st.booleans())
    def alloc_huge_region(self, allow_compaction, allow_reclaim):
        region = self.node.alloc_huge_region(
            self.owner_id,
            allow_compaction=allow_compaction,
            allow_reclaim=allow_reclaim,
        )
        if region is not None:
            self.huge.add(region)

    @precondition(lambda self: self.owner.frames)
    @rule(data=st.data())
    def free_frames(self, data):
        held = sorted(self.owner.frames)
        frames = data.draw(
            st.lists(st.sampled_from(held), min_size=1, unique=True)
        )
        self.node.free_frames(np.array(frames, dtype=np.int64))
        self.owner.frames.difference_update(frames)

    @precondition(lambda self: self.huge)
    @rule(data=st.data())
    def free_huge_region(self, data):
        region = data.draw(st.sampled_from(sorted(self.huge)))
        self.node.free_huge_region(region)
        self.huge.remove(region)

    @precondition(lambda self: self.huge)
    @rule(data=st.data())
    def demote_region(self, data):
        region = data.draw(st.sampled_from(sorted(self.huge)))
        self.node.demote_region(region)
        self.huge.remove(region)
        span = self.node.region_frames(region)
        self.owner.frames.update(range(span.start, span.stop))

    @precondition(lambda self: self.owner.frames)
    @rule(data=st.data())
    def pin_frames(self, data):
        movable = [
            f for f in sorted(self.owner.frames)
            if self.node.state[f] == FrameState.MOVABLE
        ]
        if not movable:
            return
        frames = data.draw(
            st.lists(st.sampled_from(movable), min_size=1, unique=True)
        )
        self.node.pin_frames(np.array(frames, dtype=np.int64))

    @rule(data=st.data(),
          state=st.sampled_from([FrameState.MOVABLE, FrameState.NONMOVABLE]))
    def place_frames(self, data, state):
        free = np.flatnonzero(self.node.state == FrameState.FREE).tolist()
        if not free:
            return
        frames = data.draw(
            st.lists(st.sampled_from(free), min_size=1, max_size=40,
                     unique=True)
        )
        self.node.place_frames(
            np.array(frames, dtype=np.int64), self.owner_id, state
        )
        self.owner.frames.update(frames)

    @rule(count=st.integers(min_value=1, max_value=64))
    def reclaim_frames(self, count):
        self.node.reclaim_frames(count)

    @precondition(lambda self: self.node.free_frame_count)
    @rule(count=st.integers(min_value=1, max_value=200),
          exclude=st.integers(min_value=0, max_value=63))
    def pick_excluding_region(self, count, exclude):
        """Compaction's target picker (one region masked out) matches the
        oracle; the counters it debits are restored afterwards."""
        node = self.node
        exclude %= node.num_regions
        free = node.state == FrameState.FREE
        free[node.region_frames(exclude)] = False
        count = min(count, int(np.count_nonzero(free)))
        if count == 0:
            return
        saved = (node._region_free.copy(), node._free_total)
        targets = node._migration_targets(count, exclude)
        node._region_free, node._free_total = saved
        expected = oracle_pick(free, node.frames_per_region, count)
        assert np.array_equal(targets, expected)

    # -------------------------------------------------------- invariants

    @invariant()
    def region_counts_match_rescan(self):
        node = self.node
        free = (node.state == FrameState.FREE).astype(np.int64)
        rescan = np.add.reduceat(
            free, np.arange(0, node.num_frames, node.frames_per_region)
        )
        assert np.array_equal(node.region_free_counts(), rescan)

    @invariant()
    def free_total_matches_rescan(self):
        node = self.node
        assert node.free_frame_count == int(
            np.count_nonzero(node.state == FrameState.FREE)
        )

    @invariant()
    def owner_tracking_agrees(self):
        held = np.flatnonzero(self.node.owner_id == self.owner_id)
        expected = set(self.owner.frames)
        for region in self.huge:
            span = self.node.region_frames(region)
            expected.update(range(span.start, span.stop))
        assert set(held.tolist()) == expected

    def teardown(self):
        self.node.sanitizer.verify_node(self.node)


CounterStatefulTest = CounterMachine.TestCase
CounterStatefulTest.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
