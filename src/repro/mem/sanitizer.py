"""MemSan: a runtime sanitizer for the simulated memory subsystem.

KASAN-style checking for the simulator: when enabled, :class:`MemSanitizer`
hooks the physical frame allocator, the VMM and the THP engine and
verifies the invariants the rest of the system silently relies on:

- **double-alloc / double-free** — frames handed out must be ``FREE``,
  frames released must not be;
- **huge-region discipline** — region claims require every frame in the
  (aligned, ``frames_per_region``-sized) region to be free; whole-region
  frees must release a uniformly-owned region; demotion must actually
  find ``HUGE`` frames;
- **transition legality** — compaction migrates only ``MOVABLE`` frames
  (never ``HUGE``/``PINNED``/``NONMOVABLE``), pinning starts from
  resident, unpinned frames;
- **VMM ↔ physical cross-checks** — every resident page is backed by a
  frame owned by its VMM (or its hugetlb pool), huge chunks map exactly
  their region's frames, and the reverse frame map is a bijection;
- **free-count bookkeeping** — the allocator's per-region and total
  free-frame counters equal a full rescan of the frame map;
- **leak detection** — at machine teardown no frame is still owned by
  the released process and the reverse map is empty.

Enablement follows the fault injector's zero-cost-when-off pattern: every
subsystem holds ``sanitizer=None`` by default and guards each hook with a
single ``is not None`` test.  The sanitizer is switched on with the
``REPRO_SANITIZE=1`` environment variable, the CLI ``--sanitize`` flag, or
programmatically via :func:`set_sanitize` / ``Machine(sanitize=True)``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import MemSanError
from .physical import FrameState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .page_cache import PageCache
    from .physical import NodeMemory
    from .vmm import VirtualMemoryManager, Vma

_OVERRIDE: Optional[bool] = None

_ENV_VAR = "REPRO_SANITIZE"

_FALSEY = ("", "0", "false", "no", "off")


def set_sanitize(enabled: Optional[bool]) -> Optional[bool]:
    """Set the process-wide sanitizer override; returns the previous value.

    ``True``/``False`` force MemSan on/off for subsequently constructed
    machines regardless of the environment; ``None`` defers to
    ``REPRO_SANITIZE`` again.
    """
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = enabled
    return previous


def sanitizer_enabled() -> bool:
    """Whether newly constructed machines should carry a sanitizer."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    return os.environ.get(_ENV_VAR, "").strip().lower() not in _FALSEY


def make_sanitizer(explicit: Optional[bool] = None) -> Optional["MemSanitizer"]:
    """Build a sanitizer according to an explicit request or the ambient
    setting.

    ``explicit=True`` always returns a fresh sanitizer, ``explicit=False``
    always returns ``None`` (even under ``REPRO_SANITIZE=1`` — used by the
    overhead benchmark's off-path baseline), and ``None`` defers to
    :func:`sanitizer_enabled`.
    """
    if explicit is False:
        return None
    if explicit is True or sanitizer_enabled():
        return MemSanitizer()
    return None


class MemSanitizer:
    """Invariant checker hooked into the simulated memory machinery.

    All hooks raise :class:`~repro.errors.MemSanError` on violation and
    count successful checks in :attr:`checks` so tests can assert the
    sanitizer actually ran.
    """

    def __init__(self) -> None:
        self.checks = 0

    def _fail(self, message: str) -> None:
        raise MemSanError(f"MemSan: {message}")

    # ------------------------------------------------------------------
    # Physical allocator hooks (NodeMemory)
    # ------------------------------------------------------------------

    def on_alloc_frames(
        self, node: "NodeMemory", frames: np.ndarray, state: FrameState
    ) -> None:
        """A base-frame allocation is about to commit."""
        self.checks += 1
        if int(state) == int(FrameState.FREE):
            self._fail("allocation must not install the FREE state")
        taken = node.state[frames] != int(FrameState.FREE)
        if taken.any():
            bad = np.asarray(frames)[taken][:8]
            self._fail(
                f"double-alloc on node {node.node_id}: frames "
                f"{bad.tolist()} are not FREE"
            )

    def on_claim_region(
        self, node: "NodeMemory", region: int, state: FrameState
    ) -> None:
        """A whole huge region is about to be claimed."""
        self.checks += 1
        if not 0 <= region < node.num_regions:
            self._fail(
                f"region {region} outside node {node.node_id}'s "
                f"{node.num_regions} regions"
            )
        if int(state) == int(FrameState.FREE):
            self._fail("region claim must not install the FREE state")
        frames = node.region_frames(region)
        if frames.stop - frames.start != node.frames_per_region:
            self._fail(
                f"region {region} spans {frames.stop - frames.start} "
                f"frames, expected {node.frames_per_region}"
            )
        used = node.state[frames] != int(FrameState.FREE)
        if used.any():
            self._fail(
                f"claiming region {region} on node {node.node_id} with "
                f"{int(used.sum())} non-free frame(s): the fully-free "
                "precondition is violated"
            )

    def on_free_frames(self, node: "NodeMemory", frames: np.ndarray) -> None:
        """Base frames are about to return to the free pool."""
        self.checks += 1
        states = node.state[frames]
        already_free = states == int(FrameState.FREE)
        if already_free.any():
            bad = np.asarray(frames)[already_free][:8]
            self._fail(
                f"double-free on node {node.node_id}: frames "
                f"{bad.tolist()} are already FREE"
            )
        huge = states == int(FrameState.HUGE)
        if huge.any():
            bad = np.asarray(frames)[huge][:8]
            self._fail(
                f"frames {bad.tolist()} on node {node.node_id} belong to a "
                "huge page; split (demote) the region or free it whole"
            )

    def on_release_frame(self, node: "NodeMemory", frame: int) -> None:
        """One frame is about to be released (reclaim/compaction path)."""
        self.checks += 1
        if node.state[frame] == int(FrameState.FREE):
            self._fail(
                f"double-free on node {node.node_id}: frame {frame} "
                "is already FREE"
            )

    def on_free_huge_region(self, node: "NodeMemory", region: int) -> None:
        """A whole huge region is about to be freed."""
        self.checks += 1
        frames = node.region_frames(region)
        states = node.state[frames]
        if (states == int(FrameState.FREE)).all():
            self._fail(
                f"double-free of huge region {region} on node "
                f"{node.node_id}: all frames already FREE"
            )
        owners = np.unique(node.owner_id[frames])
        if owners.size != 1:
            self._fail(
                f"huge region {region} on node {node.node_id} has mixed "
                f"owners {owners.tolist()}; whole-region free requires a "
                "single owner"
            )
        if np.unique(states).size != 1:
            self._fail(
                f"huge region {region} on node {node.node_id} has mixed "
                f"frame states; it was partially freed or demoted"
            )

    def on_demote_region(self, node: "NodeMemory", region: int) -> None:
        """A huge page split is about to run."""
        self.checks += 1
        frames = node.region_frames(region)
        if not (node.state[frames] == int(FrameState.HUGE)).any():
            self._fail(
                f"demoting region {region} on node {node.node_id} which "
                "contains no HUGE frames"
            )

    def on_migrate_frames(
        self, node: "NodeMemory", old_frames: list, new_frames: np.ndarray
    ) -> None:
        """Compaction is about to migrate ``old_frames`` → ``new_frames``."""
        self.checks += 1
        old = np.asarray(old_frames, dtype=np.int64)
        states = node.state[old]
        immobile = states != int(FrameState.MOVABLE)
        if immobile.any():
            bad = old[immobile][:8]
            names = sorted(
                {FrameState(int(s)).name for s in states[immobile]}
            )
            self._fail(
                f"compaction migrating non-MOVABLE frames {bad.tolist()} "
                f"({'/'.join(names)}) on node {node.node_id}; HUGE pages "
                "must be split and PINNED/NONMOVABLE pages never move"
            )
        targets = np.asarray(new_frames, dtype=np.int64)[: old.size]
        occupied = node.state[targets] != int(FrameState.FREE)
        if occupied.any():
            self._fail(
                f"compaction targeting non-free frames "
                f"{targets[occupied][:8].tolist()} on node {node.node_id}"
            )

    def on_pin_frames(self, node: "NodeMemory", frames: np.ndarray) -> None:
        """Frames are about to be pinned (mlock)."""
        self.checks += 1
        states = node.state[frames]
        ok = (states == int(FrameState.MOVABLE)) | (
            states == int(FrameState.NONMOVABLE)
        )
        if not ok.all():
            bad = np.asarray(frames)[~ok][:8]
            self._fail(
                f"pinning frames {bad.tolist()} on node {node.node_id} "
                "that are not resident base frames (mlock cannot pin "
                "FREE or HUGE frames)"
            )

    # ------------------------------------------------------------------
    # Sweeps (called at phase boundaries — not per allocation)
    # ------------------------------------------------------------------

    def verify_node(self, node: "NodeMemory") -> None:
        """Full consistency sweep over one node's frame map."""
        self.checks += 1
        state = node.state
        owner = node.owner_id
        free = state == int(FrameState.FREE)
        if (owner[free] != -1).any():
            bad = np.flatnonzero(free & (owner != -1))[:8]
            self._fail(
                f"node {node.node_id}: FREE frames {bad.tolist()} still "
                "carry an owner"
            )
        if node.reclaimable[free].any():
            bad = np.flatnonzero(free & node.reclaimable)[:8]
            self._fail(
                f"node {node.node_id}: FREE frames {bad.tolist()} still "
                "flagged reclaimable"
            )
        if (owner[~free] < 0).any():
            bad = np.flatnonzero(~free & (owner < 0))[:8]
            self._fail(
                f"node {node.node_id}: allocated frames {bad.tolist()} "
                "have no owner"
            )
        registered = np.array(sorted(node._owners), dtype=np.int64)
        unknown = ~free & ~np.isin(owner, registered)
        if unknown.any():
            bad = np.flatnonzero(unknown)[:8]
            self._fail(
                f"node {node.node_id}: frames {bad.tolist()} owned by "
                "unregistered owner ids"
            )
        stray = node.reclaimable & (state != int(FrameState.MOVABLE))
        if stray.any():
            bad = np.flatnonzero(stray)[:8]
            self._fail(
                f"node {node.node_id}: non-MOVABLE frames {bad.tolist()} "
                "flagged reclaimable"
            )
        huge_counts = node.per_region_sum(state == int(FrameState.HUGE))
        fpr = node.frames_per_region
        ragged = (huge_counts != 0) & (huge_counts != fpr)
        if ragged.any():
            bad = np.flatnonzero(ragged)[:8]
            self._fail(
                f"node {node.node_id}: regions {bad.tolist()} are "
                "partially HUGE; huge pages cover whole regions"
            )
        for region in np.flatnonzero(huge_counts == fpr):
            frames = node.region_frames(int(region))
            owners = np.unique(owner[frames])
            if owners.size != 1:
                self._fail(
                    f"node {node.node_id}: HUGE region {int(region)} has "
                    f"mixed owners {owners.tolist()}"
                )
        # Last, so a corrupted frame map fails on its own message first.
        rescan = node.per_region_sum(free)
        drift = np.flatnonzero(rescan != node._region_free)
        if drift.size:
            bad = drift[:8]
            self._fail(
                f"node {node.node_id}: _region_free disagrees with a "
                f"rescan in regions {bad.tolist()} (counter "
                f"{node._region_free[bad].tolist()}, rescan "
                f"{rescan[bad].tolist()})"
            )
        total = int(np.count_nonzero(free))
        if node._free_total != total:
            self._fail(
                f"node {node.node_id}: _free_total is {node._free_total} "
                f"but a rescan finds {total} free frames"
            )

    def verify_vmm(self, vmm: "VirtualMemoryManager") -> None:
        """Cross-check every VMA's page tables against the frame map."""
        self.checks += 1
        node = vmm.node
        seen: dict[int, tuple[int, int]] = {}
        for vma in vmm.vmas:
            self._verify_vma(vmm, vma, seen)
        mapped = sorted(vmm._frame_map)
        if sorted(seen) != mapped:
            missing = sorted(set(seen) - set(mapped))[:8]
            stale = sorted(set(mapped) - set(seen))[:8]
            self._fail(
                f"frame map out of sync on node {node.node_id}: resident "
                f"frames missing from it {missing}, stale entries {stale}"
            )
        for frame in mapped:
            vma, page = vmm._frame_map[frame]
            if int(vma.frame[page]) != frame:
                self._fail(
                    f"frame map entry {frame} -> ({vma.name}, page {page}) "
                    f"disagrees with the VMA's frame {int(vma.frame[page])}"
                )

    def _verify_vma(
        self,
        vmm: "VirtualMemoryManager",
        vma: "Vma",
        seen: dict[int, tuple[int, int]],
    ) -> None:
        node = vmm.node
        if (vma.is_huge & (vma.frame < 0)).any():
            bad = np.flatnonzero(vma.is_huge & (vma.frame < 0))[:8]
            self._fail(
                f"{vma.name}: pages {bad.tolist()} flagged huge but not "
                "resident"
            )
        for chunk in range(vma.nchunks):
            pages = vma.chunk_pages(chunk)
            region = int(vma.huge_region[chunk])
            if region < 0:
                if vma.is_huge[pages].any():
                    self._fail(
                        f"{vma.name} chunk {chunk}: pages flagged huge "
                        "but the chunk has no huge region"
                    )
                continue
            span = node.region_frames(region)
            expected = np.arange(span.start, span.stop, dtype=np.int64)[
                : pages.stop - pages.start
            ]
            if not (vma.frame[pages] == expected).all():
                self._fail(
                    f"{vma.name} chunk {chunk}: page frames do not match "
                    f"huge region {region}'s frames"
                )
            if not vma.is_huge[pages].all():
                self._fail(
                    f"{vma.name} chunk {chunk}: huge-mapped pages not "
                    "all flagged huge"
                )
            pool = vma.pool_regions.get(chunk)
            want_state = FrameState.PINNED if pool is not None else FrameState.HUGE
            want_owner = pool.owner_id if pool is not None else vmm.owner_id
            if not (node.state[span] == int(want_state)).all():
                self._fail(
                    f"{vma.name} chunk {chunk}: region {region} frames "
                    f"are not uniformly {want_state.name}"
                )
            if not (node.owner_id[span] == want_owner).all():
                self._fail(
                    f"{vma.name} chunk {chunk}: region {region} frames "
                    f"not owned by owner {want_owner}"
                )
        resident = np.flatnonzero(vma.frame >= 0)
        base = resident[~vma.is_huge[resident]]
        base_frames = vma.frame[base]
        if base_frames.size:
            states = node.state[base_frames]
            if (states != int(FrameState.MOVABLE)).any():
                bad = base_frames[states != int(FrameState.MOVABLE)][:8]
                self._fail(
                    f"{vma.name}: base-mapped frames {bad.tolist()} are "
                    "not MOVABLE"
                )
            owners = node.owner_id[base_frames]
            if (owners != vmm.owner_id).any():
                bad = base_frames[owners != vmm.owner_id][:8]
                self._fail(
                    f"{vma.name}: base-mapped frames {bad.tolist()} not "
                    f"owned by the VMM (owner {vmm.owner_id})"
                )
        for page in resident:
            frame = int(vma.frame[page])
            if frame in seen:
                other = seen[frame]
                self._fail(
                    f"frame {frame} mapped twice: by vma {other[0]} page "
                    f"{other[1]} and by {vma.name} page {int(page)}"
                )
            seen[frame] = (vma.vma_id, int(page))

    def verify_page_cache(self, cache: "PageCache") -> None:
        """Cross-check cached files against the frame maps."""
        self.checks += 1
        for name in sorted(cache._files):
            node_id, frames = cache._files[name]
            node = cache._node(node_id)
            arr = np.array(sorted(frames), dtype=np.int64)
            if arr.size == 0:
                continue
            if (node.state[arr] != int(FrameState.MOVABLE)).any():
                self._fail(
                    f"page cache file {name!r}: frames on node {node_id} "
                    "are not MOVABLE"
                )
            if not node.reclaimable[arr].all():
                self._fail(
                    f"page cache file {name!r}: frames on node {node_id} "
                    "lost their reclaimable flag"
                )
            owner = cache._owner_ids[node_id]
            if (node.owner_id[arr] != owner).any():
                self._fail(
                    f"page cache file {name!r}: frames on node {node_id} "
                    "not owned by the cache"
                )
            for frame in arr.tolist():
                if cache._frame_file.get((node_id, frame)) != name:
                    self._fail(
                        f"page cache frame {frame} on node {node_id} "
                        f"missing from the reverse map of {name!r}"
                    )

    def verify_teardown(self, vmm: "VirtualMemoryManager") -> None:
        """Leak check after a process released all its mappings."""
        self.checks += 1
        if vmm.vmas:
            names = [vma.name for vma in vmm.vmas]
            self._fail(f"teardown with live mappings: {names}")
        if vmm._frame_map:
            stale = sorted(vmm._frame_map)[:8]
            self._fail(
                f"teardown leak: frame map still holds {len(vmm._frame_map)} "
                f"entries (e.g. {stale})"
            )
        leaked = np.flatnonzero(vmm.node.owner_id == vmm.owner_id)
        if leaked.size:
            self._fail(
                f"teardown leak: {leaked.size} frame(s) on node "
                f"{vmm.node.node_id} still owned by the released process "
                f"(e.g. {leaked[:8].tolist()})"
            )

    # ------------------------------------------------------------------
    # THP engine hooks
    # ------------------------------------------------------------------

    def verify_promotion(self, vma: "Vma", chunk: int) -> None:
        """Preconditions of a khugepaged collapse of ``chunk``."""
        self.checks += 1
        if int(vma.huge_region[chunk]) >= 0:
            self._fail(
                f"promoting {vma.name} chunk {chunk} which is already "
                "huge-mapped"
            )
        pages = vma.chunk_pages(chunk)
        if (vma.frame[pages] < 0).any():
            self._fail(
                f"promoting {vma.name} chunk {chunk} with non-resident "
                "pages; collapse requires a fully resident chunk"
            )

    def verify_demotion(self, vma: "Vma", chunk: int) -> None:
        """Preconditions of a huge-page split of ``chunk``."""
        self.checks += 1
        if int(vma.huge_region[chunk]) < 0:
            self._fail(
                f"demoting {vma.name} chunk {chunk} which is not "
                "huge-mapped"
            )


class NullSanitizer(MemSanitizer):
    """A sanitizer whose hooks are no-ops.

    Used by the overhead benchmark to measure pure dispatch cost (the
    ``is not None`` guards plus a method call) separately from the cost
    of the checks themselves.
    """

    def __getattribute__(self, name: str):
        if name.startswith(("on_", "verify_")):
            return _noop
        return object.__getattribute__(self, name)


def _noop(*args, **kwargs) -> None:
    return None
