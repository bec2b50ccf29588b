"""Simulated process: array mapping and address translation.

:class:`SimProcess` owns the binding between a workload's logical arrays
and the VMAs backing them, translates logical access streams into
page-granular TLB traces, and services swap faults during the compute
phase when memory is oversubscribed.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..config import MachineConfig
from ..core.plan import PlacementPlan
from ..errors import OutOfMemoryError
from ..mem.thp import ThpMode
from ..mem.vmm import VirtualMemoryManager, Vma
from ..tlb.trace import AccessStream, TlbTrace, compress_trace
from ..workloads.base import Workload
from ..workloads.layout import MemoryLayout

# Keys the swap pass decodes at a time (bounds its transient memory),
# and the miss-search window it restarts at after each swap-in.
_SWAP_BLOCK = 1 << 18
_SWAP_WINDOW = 256
# Insertion stamps of pages that are never and always resident.
_NEVER = np.iinfo(np.int64).min
_ALWAYS = np.iinfo(np.int64).max


class SimProcess:
    """One workload's address-space state on a machine."""

    def __init__(
        self,
        vmm: VirtualMemoryManager,
        workload: Workload,
        layout: MemoryLayout,
        config: MachineConfig,
    ) -> None:
        self.vmm = vmm
        self.workload = workload
        self.layout = layout
        self.config = config
        self.vma_by_array: dict[int, Vma] = {}
        self._start_vpn: dict[int, int] = {}
        self._start_hvpn: dict[int, int] = {}
        self._elem_bytes: dict[int, int] = {}
        # Translation memo: stream -> (page-size maps it was translated
        # under, trace).  Weak keys, so a stream yielded once (bfs, sssp,
        # cc) takes its trace with it when the kernel drops it.
        self._traces: weakref.WeakKeyDictionary[
            AccessStream, tuple[tuple[bytes, ...], TlbTrace]
        ] = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # Initialization phase
    # ------------------------------------------------------------------

    def allocate_and_touch(
        self, plan: PlacementPlan, hugetlb_pool=None
    ) -> None:
        """Map and first-touch every array in the layout's order.

        ``madvise`` advice from the plan is applied *before* touching (as
        a programmer would), so fault-time THP allocation sees it.  Advice
        only matters when the THP mode is ``madvise``; under ``always``
        every eligible chunk is huge-candidate regardless.

        Arrays with a ``hugetlb_fractions`` entry have their leading
        chunks mapped from the boot-time reservation pool first (the
        explicit hugetlbfs mmap), with the remainder demand-faulted as
        usual.
        """
        pages = self.config.pages
        for spec in self.layout.allocation_sequence():
            vma = self.vmm.mmap(spec.name, spec.length_bytes)
            pool_fraction = plan.hugetlb_fractions.get(spec.array_id)
            if pool_fraction is not None and hugetlb_pool is not None:
                self._back_from_pool(vma, pool_fraction, hugetlb_pool)
            fraction = plan.advise_fractions.get(spec.array_id)
            if fraction is not None and self.vmm.policy.mode is ThpMode.MADVISE:
                advise_len = max(1, int(spec.length_bytes * fraction))
                self.vmm.madvise_huge(vma, 0, advise_len)
            self.vmm.touch(vma)
            self.vma_by_array[spec.array_id] = vma
            self._start_vpn[spec.array_id] = vma.start >> pages.base_shift
            self._start_hvpn[spec.array_id] = vma.start >> pages.huge_shift
            self._elem_bytes[spec.array_id] = spec.element_bytes

    def _back_from_pool(self, vma, fraction: float, pool) -> None:
        """Map the leading ``fraction`` of a VMA from the reservation."""
        huge = self.config.pages.huge_page_size
        want_bytes = max(1, int(vma.length * fraction))
        want_chunks = -(-want_bytes // huge)
        for chunk in range(min(want_chunks, vma.nchunks)):
            if not vma.chunk_is_full(chunk) or pool.available == 0:
                break
            self.vmm.back_chunk_from_pool(vma, chunk, pool)

    def release(self) -> None:
        """Unmap every array (end of run), freeing physical memory."""
        for vma in list(self.vma_by_array.values()):
            self.vmm.unmap(vma)
        self.vma_by_array.clear()

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------

    def translate(self, stream: AccessStream) -> TlbTrace:
        """Turn a logical access stream into a compressed TLB trace.

        Page keys follow :mod:`repro.tlb.trace`: base-page accesses get
        ``(vpn << 1)``, accesses landing in huge-mapped pages get
        ``(huge_vpn << 1) | 1``.  The per-page size map is the VMM's
        ground truth, so promotions/demotions between streams are
        reflected automatically.

        The same stream object translated again under the same page-size
        maps returns the same trace object (PageRank yields its sweeps
        every iteration), so the TLB engine can recognise the repeat.
        The other translation inputs, each array's start page and
        element size, are fixed for the process's lifetime.
        """
        huge_maps = tuple(
            vma.is_huge.tobytes() for vma in self.vma_by_array.values()
        )
        memo = self._traces.get(stream)
        if memo is not None and memo[0] == huge_maps:
            return memo[1]
        trace = self._translate(stream)
        self._traces[stream] = (huge_maps, trace)
        return trace

    def _translate(self, stream: AccessStream) -> TlbTrace:
        pages = self.config.pages
        base_shift = pages.base_shift
        huge_shift = pages.huge_shift
        aids = stream.array_ids
        keys = np.empty(aids.size, dtype=np.int64)
        for array_id in np.unique(aids):
            array_id = int(array_id)
            mask = aids == array_id
            vma = self.vma_by_array[array_id]
            offsets = stream.indices[mask] * self._elem_bytes[array_id]
            page = offsets >> base_shift
            base_keys = (self._start_vpn[array_id] + page) << 1
            huge_keys = (
                (self._start_hvpn[array_id] + (offsets >> huge_shift)) << 1
            ) | 1
            keys[mask] = np.where(vma.is_huge[page], huge_keys, base_keys)
        return compress_trace(keys, aids)

    # ------------------------------------------------------------------
    # Swap servicing (oversubscribed memory)
    # ------------------------------------------------------------------

    def has_swapped_pages(self) -> bool:
        """Whether any mapped page currently lives on the swap device."""
        return any(
            vma.swapped_pages > 0 for vma in self.vma_by_array.values()
        )

    def service_swap(self, trace: TlbTrace) -> tuple[int, int]:
        """Simulate demand paging over a trace under oversubscription.

        The model is a FIFO residency set holding the base pages that are
        resident at trace start, in mapping order then page order; every
        access to a non-resident base page swaps it in and evicts the FIFO
        head (a frame-for-frame exchange — the steady state of a thrashing
        system).  Huge-mapped pages never enter the FIFO.  Charges swap
        I/O and fault costs to the kernel ledger and returns ``(swap_ins,
        swap_outs)``.

        The FIFO is held as insertion stamps, one per page: the ``C``
        initial pages are stamped ``0 … C-1`` and each swap-in stamps its
        page ``C + swap_ins`` before counting itself.  Only a non-resident
        page is ever inserted, so the FIFO is exactly the ``C`` newest
        stamps, and a page is resident iff its stamp is ``>= swap_ins``:
        each swap-in evicts the head with no queue.  Huge keys map to one
        sentinel page stamped always-resident.  Keys are decoded to page
        slots in blocks of ``_SWAP_BLOCK``; within a block the next miss
        is found by a galloping window that grows 4× on each clean window
        and restarts at ``_SWAP_WINDOW`` keys after each swap-in.

        Residency is tracked per call; the VMM's page tables are not
        rewritten (the run's translation behaviour is unaffected: vpns do
        not change when a page moves between RAM and swap).

        Raises:
            OutOfMemoryError: if a swapped-out page is accessed while no
                base page is resident to make room for it.
        """
        vmas = self.vma_by_array
        stamp = np.full(
            sum(vma.frame.size for vma in vmas.values()) + 1,
            _NEVER,
            dtype=np.int64,
        )
        sentinel = stamp.size - 1
        stamp[sentinel] = _ALWAYS
        # Page slot of a base key: (key >> 1) + slot_shift[array id].
        slot_shift = np.zeros(max(vmas, default=0) + 1, dtype=np.int64)
        capacity = offset = 0
        for array_id, vma in vmas.items():
            resident = vma.frame >= 0
            stamps = stamp[offset : offset + resident.size]
            fifo = resident & ~vma.is_huge
            count = int(np.count_nonzero(fifo))
            stamps[fifo] = np.arange(capacity, capacity + count)
            stamps[resident & vma.is_huge] = _ALWAYS
            slot_shift[array_id] = offset - self._start_vpn[array_id]
            capacity += count
            offset += resident.size
        swap_ins = 0
        keys, aids = trace.keys, trace.array_ids
        for start in range(0, keys.size, _SWAP_BLOCK):
            block = slice(start, start + _SWAP_BLOCK)
            block_keys = keys[block]
            slots = np.where(
                block_keys & 1,
                sentinel,
                (block_keys >> 1) + slot_shift[aids[block]],
            )
            pos, width = 0, _SWAP_WINDOW
            while pos < slots.size:
                window = slots[pos : pos + width]
                missing = stamp[window] < swap_ins
                i = int(missing.argmax())
                if not missing[i]:
                    pos += window.size
                    width = min(4 * width, _SWAP_BLOCK)
                    continue
                if not capacity:
                    array_id = int(aids[start + pos + i])
                    key = int(block_keys[pos + i])
                    page = (key >> 1) - self._start_vpn[array_id]
                    raise OutOfMemoryError(
                        f"swap-in of page {page} of array {array_id} has no "
                        "resident base page to evict"
                    )
                stamp[window[i]] = capacity + swap_ins
                swap_ins += 1
                pos += i + 1
                width = _SWAP_WINDOW
        if swap_ins:
            ledger = self.vmm.node.ledger
            ledger.swap_in(swap_ins)
            ledger.swap_out(swap_ins)
            ledger.minor_fault(swap_ins)
            if self.vmm.swap_device is not None:
                self.vmm.swap_device.page_in(swap_ins)
                self.vmm.swap_device.page_out(swap_ins)
        return swap_ins, swap_ins

    # ------------------------------------------------------------------
    # Huge-page census
    # ------------------------------------------------------------------

    def huge_fraction_per_array(self) -> dict[str, float]:
        """Huge-page-backed fraction of each array (Fig. 6's outcome)."""
        return {
            vma.name: vma.huge_backed_fraction
            for vma in self.vma_by_array.values()
        }

    def total_huge_bytes(self) -> int:
        """Bytes of the workload's footprint backed by huge pages."""
        return sum(
            vma.huge_backed_bytes for vma in self.vma_by_array.values()
        )

    def footprint_bytes(self) -> int:
        """The workload's working-set size."""
        return self.layout.total_bytes
