"""Unit tests for the physical frame map (allocation, compaction,
fragmentation metrics)."""

import numpy as np
import pytest

from repro.errors import OutOfMemoryError
from repro.mem.physical import FrameState, NodeMemory, PhysicalMemory


class _RecordingOwner:
    """Frame owner that records callbacks for assertions."""

    def __init__(self):
        self.relocations: list[tuple[int, int]] = []
        self.reclaims: list[int] = []

    def relocate_frame(self, old, new):
        self.relocations.append((old, new))

    def reclaim_frame(self, frame):
        self.reclaims.append(frame)


@pytest.fixture
def owner(node):
    return node.register_owner(_RecordingOwner())


class TestBaseAllocation:
    def test_fresh_node_is_all_free(self, node):
        assert node.free_frame_count == node.num_frames
        assert node.pristine_region_count() == node.num_regions
        assert node.fragmentation_level() == 0.0

    def test_alloc_marks_frames(self, node, owner):
        frames = node.alloc_frames(10, owner)
        assert frames.size == 10
        assert (node.state[frames] == FrameState.MOVABLE).all()
        assert (node.owner_id[frames] == owner).all()
        assert node.free_frame_count == node.num_frames - 10

    def test_alloc_zero(self, node, owner):
        assert node.alloc_frames(0, owner).size == 0

    def test_alloc_never_double_allocates(self, node, owner):
        a = node.alloc_frames(100, owner)
        b = node.alloc_frames(100, owner)
        assert np.intersect1d(a, b).size == 0

    def test_alloc_oom(self, node, owner):
        with pytest.raises(OutOfMemoryError):
            node.alloc_frames(node.num_frames + 1, owner)

    def test_broken_first_packing(self, node, owner):
        """Base allocations fill partially-used regions before breaking
        pristine ones."""
        fpr = node.frames_per_region
        node.alloc_frames(fpr // 2, owner)  # breaks one region
        before = node.pristine_region_count()
        node.alloc_frames(fpr // 2, owner)  # should fill the same region
        assert node.pristine_region_count() == before

    def test_free_roundtrip(self, node, owner):
        frames = node.alloc_frames(64, owner)
        node.free_frames(frames)
        assert node.free_frame_count == node.num_frames
        assert (node.state[frames] == FrameState.FREE).all()
        assert (node.owner_id[frames] == -1).all()


class TestHugeAllocation:
    def test_pristine_region_preferred(self, node, owner):
        region = node.alloc_huge_region(owner)
        assert region is not None
        frames = node.region_frames(region)
        assert (node.state[frames] == FrameState.HUGE).all()

    def test_exhausts_then_none(self, node, owner):
        for _ in range(node.num_regions):
            assert node.alloc_huge_region(owner) is not None
        assert node.alloc_huge_region(owner) is None

    def test_free_region_roundtrip(self, node, owner):
        region = node.alloc_huge_region(owner)
        node.free_huge_region(region)
        assert node.pristine_region_count() == node.num_regions

    def test_compaction_assembles_region(self, node):
        """With every region broken by one movable page, compaction must
        migrate pages to assemble a region."""
        recorder = _RecordingOwner()
        owner = node.register_owner(recorder)
        fpr = node.frames_per_region
        # One movable page at the start of every region.
        firsts = np.arange(0, node.num_frames, fpr, dtype=np.int64)
        node.place_frames(firsts, owner, FrameState.MOVABLE)
        assert node.pristine_region_count() == 0
        region = node.alloc_huge_region(owner)
        assert region is not None
        assert len(recorder.relocations) >= 1
        assert node.ledger.counts["compaction_migrate"] >= 1

    def test_compaction_disabled(self, node):
        recorder = _RecordingOwner()
        owner = node.register_owner(recorder)
        fpr = node.frames_per_region
        firsts = np.arange(0, node.num_frames, fpr, dtype=np.int64)
        node.place_frames(firsts, owner, FrameState.MOVABLE)
        assert (
            node.alloc_huge_region(owner, allow_compaction=False,
                                   allow_reclaim=False)
            is None
        )

    def test_nonmovable_blocks_compaction(self, node):
        recorder = _RecordingOwner()
        owner = node.register_owner(recorder)
        fpr = node.frames_per_region
        firsts = np.arange(0, node.num_frames, fpr, dtype=np.int64)
        node.place_frames(firsts, owner, FrameState.NONMOVABLE)
        assert node.alloc_huge_region(owner) is None

    def test_huge_frames_block_compaction(self, node):
        """Allocated huge pages are never split by compaction: if every
        region holds a huge page, no further region can be assembled."""
        recorder = _RecordingOwner()
        owner = node.register_owner(recorder)
        for _ in range(node.num_regions):
            node.alloc_huge_region(owner)
        # Free one base page inside a region: region has 1 free frame,
        # but the rest are HUGE and cannot be migrated.
        node.free_frames(np.array([0], dtype=np.int64))
        assert node.alloc_huge_region(owner) is None

    def test_reclaim_path(self, node):
        """Reclaimable (page-cache) frames are dropped to make room."""
        recorder = _RecordingOwner()
        owner = node.register_owner(recorder)
        fpr = node.frames_per_region
        firsts = np.arange(0, node.num_frames, fpr, dtype=np.int64)
        node.place_frames(
            firsts, owner, FrameState.MOVABLE, reclaimable=True
        )
        region = node.alloc_huge_region(
            owner, allow_compaction=False, allow_reclaim=True
        )
        assert region is not None
        assert len(recorder.reclaims) >= 1
        assert node.ledger.counts["reclaim"] >= 1


class TestFragmentationMetric:
    def test_fully_pristine_is_zero(self, node):
        assert node.fragmentation_level() == 0.0

    def test_every_region_broken_is_one(self, node, owner):
        fpr = node.frames_per_region
        firsts = np.arange(0, node.num_frames, fpr, dtype=np.int64)
        node.place_frames(firsts, owner, FrameState.NONMOVABLE)
        assert node.fragmentation_level() == 1.0

    def test_partial(self, node, owner):
        fpr = node.frames_per_region
        half = node.num_regions // 2
        firsts = np.arange(0, half * fpr, fpr, dtype=np.int64)
        node.place_frames(firsts, owner, FrameState.NONMOVABLE)
        level = node.fragmentation_level()
        # Half the regions have 1 page used: free memory in them is
        # (fpr-1)/fpr of half the total.
        expected = (half * (fpr - 1)) / (
            half * (fpr - 1) + (node.num_regions - half) * fpr
        )
        assert level == pytest.approx(expected)


class TestDemoteRegion:
    def test_demote_makes_frames_movable(self, node, owner):
        region = node.alloc_huge_region(owner)
        node.demote_region(region)
        frames = node.region_frames(region)
        assert (node.state[frames] == FrameState.MOVABLE).all()


class TestPhysicalMemory:
    def test_nodes_created(self, tiny_cfg):
        mem = PhysicalMemory(tiny_cfg)
        assert len(mem.nodes) == tiny_cfg.num_nodes
        assert mem.node(0).node_id == 0

    def test_reset_ledger_rebinds_nodes(self, physical):
        old = physical.ledger
        old_returned = physical.reset_ledger()
        assert old_returned is old
        assert physical.ledger is not old
        for node in physical.nodes:
            assert node.ledger is physical.ledger
