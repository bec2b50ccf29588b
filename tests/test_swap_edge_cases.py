"""Edge cases in the swap path (severe oversubscription)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ExperimentError, OutOfMemoryError
from repro.machine.process import SimProcess
from repro.mem.memhog import Memhog
from repro.mem.stats import KernelLedger
from repro.mem.swap import SwapDevice
from repro.mem.thp import ThpPolicy
from repro.mem.vmm import VirtualMemoryManager
from repro.tlb.trace import TlbTrace


class TestPartialEviction:
    def test_swap_out_returns_partial_when_fifo_dries(self, node, tiny_cfg):
        """Requesting more evictions than resident pages yields the
        possible amount, not an error (callers loop on progress)."""
        vmm = VirtualMemoryManager(node, ThpPolicy.never(), tiny_cfg)
        vmm.swap_device = SwapDevice()
        vma = vmm.mmap("a", 4 * tiny_cfg.pages.base_page_size)
        vmm.touch(vma)
        assert vmm.swap_out_pages(64) == 4
        assert vma.swapped_pages == 4

    def test_swap_out_with_nothing_resident_raises(self, node, tiny_cfg):
        vmm = VirtualMemoryManager(node, ThpPolicy.never(), tiny_cfg)
        vmm.swap_device = SwapDevice()
        vma = vmm.mmap("a", 2 * tiny_cfg.pages.base_page_size)
        vmm.touch(vma)
        vmm.swap_out_pages(2)
        with pytest.raises(OutOfMemoryError):
            vmm.swap_out_pages(1)

    def test_touch_under_extreme_deficit_completes(self, node, tiny_cfg):
        """Even with only a couple of free frames, the fault storm must
        terminate with everything either resident or swapped."""
        hog = Memhog(node)
        hog.leave_free_bytes(2 * tiny_cfg.pages.base_page_size)
        vmm = VirtualMemoryManager(node, ThpPolicy.never(), tiny_cfg)
        vmm.swap_device = SwapDevice()
        vma = vmm.mmap("a", 32 * tiny_cfg.pages.base_page_size)
        vmm.touch(vma)
        assert vma.resident_pages + vma.swapped_pages == 32
        assert vma.resident_pages >= 1
        assert vmm.swap_device.pages_out >= 30


class TestHarnessGuards:
    def test_negative_free_target_rejected(self):
        from repro.config import tiny
        from repro.experiments.harness import ExperimentRunner
        from repro.experiments.policies import POLICIES
        from repro.experiments.scenarios import oversubscribed

        runner = ExperimentRunner(config=tiny(), datasets=("test-small",))
        # test-small's footprint is ~41KB; a 1.0 "GB" (64KB on TINY)
        # deficit would leave negative free memory.
        with pytest.raises(ExperimentError):
            runner.run_cell(
                "bfs", "test-small", POLICIES["base4k"], oversubscribed(1.0)
            )


def _hand_built_process(cfg, frame, is_huge):
    """A one-array SimProcess over a stub VMA: ``frame[i] < 0`` marks
    page ``i`` swapped out."""
    vmm = SimpleNamespace(
        node=SimpleNamespace(ledger=KernelLedger(cfg.cost)),
        swap_device=SwapDevice(),
    )
    process = SimProcess(vmm, workload=None, layout=None, config=cfg)
    process.vma_by_array[0] = SimpleNamespace(
        frame=np.array(frame), is_huge=np.array(is_huge)
    )
    process._start_vpn[0] = 0
    return process


def _base_page_trace(pages):
    keys = np.array(pages, dtype=np.int64) << 1
    return TlbTrace(
        keys=keys,
        counts=np.ones(keys.size, dtype=np.int64),
        array_ids=np.zeros(keys.size, dtype=np.uint8),
    )


class TestServiceSwap:
    def test_no_resident_base_page_raises_out_of_memory(self, tiny_cfg):
        """Pages 0-1 resident but huge-mapped, page 2 swapped out: the
        swap-in has no base page to exchange with, which is an
        out-of-memory condition the harness captures, not a crash."""
        process = _hand_built_process(
            tiny_cfg, frame=[10, 11, -1], is_huge=[True, True, False]
        )
        with pytest.raises(OutOfMemoryError, match="no resident base page"):
            process.service_swap(_base_page_trace([2]))

    def test_fifo_exchange_evicts_oldest_resident_page(self, tiny_cfg):
        """Two frames shared by four pages: every access to a swapped
        page evicts the oldest resident one (pure FIFO, no stale
        entries)."""
        process = _hand_built_process(
            tiny_cfg, frame=[10, 11, -1, -1], is_huge=[False] * 4
        )
        # 2 evicts 0, 3 evicts 1, 0 evicts 2, 1 evicts 3, 2 evicts 0;
        # the final access to 1 hits.
        ins, outs = process.service_swap(_base_page_trace([2, 3, 0, 1, 2, 1]))
        assert (ins, outs) == (5, 5)
        assert process.vmm.swap_device.pages_in == 5
        assert process.vmm.node.ledger.counts["swap_in"] == 5
