"""The vectorised swap pass against the per-key FIFO loop it replaced.

``reference_service_swap`` is the loop ``SimProcess.service_swap`` ran
before the pass (insertion stamps plus a galloping miss search, see
docs/performance.md "Swap servicing"), kept verbatim.  The pass must
return the same ``(swap_ins, swap_outs)``, make the same ledger and swap
device charges and raise the same ``OutOfMemoryError`` at the same first
miss, on hand-built processes and on every shipped oversubscribed cell.
"""

from __future__ import annotations

import json
from collections import deque
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import scaled, tiny
from repro.errors import OutOfMemoryError
from repro.experiments.harness import ExperimentRunner
from repro.experiments.parse import parse_policy, parse_scenario
from repro.machine import process as process_module
from repro.machine.process import SimProcess
from repro.mem.stats import KernelLedger
from repro.mem.swap import SwapDevice
from repro.runstate.serialize import encode_result
from repro.tlb.trace import TlbTrace


def reference_service_swap(self, trace: TlbTrace) -> tuple[int, int]:
    """The per-key loop: a ``deque`` of the resident base pages, walked
    once per trace key."""
    resident: dict[int, list[bool]] = {}
    start_vpn = self._start_vpn
    fifo: deque[tuple[int, int]] = deque()
    for array_id, vma in self.vma_by_array.items():
        flags = (vma.frame >= 0).tolist()
        resident[array_id] = flags
        for page, is_resident in enumerate(flags):
            if is_resident and not vma.is_huge[page]:
                fifo.append((array_id, page))
    swap_ins = 0
    keys = trace.keys.tolist()
    aids = trace.array_ids.tolist()
    for key, array_id in zip(keys, aids):
        if key & 1:
            continue  # huge-mapped pages were never swapped out
        page = (key >> 1) - start_vpn[array_id]
        flags = resident[array_id]
        if flags[page]:
            continue
        # Exchange: evict the FIFO head, reuse its frame.  The FIFO
        # holds exactly the resident base pages.
        if not fifo:
            raise OutOfMemoryError(
                f"swap-in of page {page} of array {array_id} has no "
                "resident base page to evict"
            )
        victim_aid, victim_page = fifo.popleft()
        resident[victim_aid][victim_page] = False
        flags[page] = True
        fifo.append((array_id, page))
        swap_ins += 1
    if swap_ins:
        ledger = self.vmm.node.ledger
        ledger.swap_in(swap_ins)
        ledger.swap_out(swap_ins)
        ledger.minor_fault(swap_ins)
        if self.vmm.swap_device is not None:
            self.vmm.swap_device.page_in(swap_ins)
            self.vmm.swap_device.page_out(swap_ins)
    return swap_ins, swap_ins


# ----------------------------------------------------------------------
# Hand-built processes
# ----------------------------------------------------------------------


def _process(arrays) -> SimProcess:
    """A SimProcess over stub VMAs, mapped in the order of ``arrays``:
    ``(array_id, start_vpn, frame, is_huge)``, ``frame[i] < 0`` marking
    page ``i`` swapped out."""
    cfg = tiny()
    vmm = SimpleNamespace(
        node=SimpleNamespace(ledger=KernelLedger(cfg.cost)),
        swap_device=SwapDevice(),
    )
    process = SimProcess(vmm, workload=None, layout=None, config=cfg)
    for array_id, start_vpn, frame, is_huge in arrays:
        process.vma_by_array[array_id] = SimpleNamespace(
            frame=np.array(frame, dtype=np.int64),
            is_huge=np.array(is_huge, dtype=bool),
        )
        process._start_vpn[array_id] = start_vpn
    return process


def _trace(accesses) -> TlbTrace:
    """``accesses`` is ``(array_id, key)`` pairs in trace order."""
    keys = np.array([key for _, key in accesses], dtype=np.int64)
    return TlbTrace(
        keys=keys,
        counts=np.ones(keys.size, dtype=np.int64),
        array_ids=np.array([aid for aid, _ in accesses], dtype=np.uint8),
    )


def _outcome(service, arrays, trace):
    """What one call of ``service`` returns or raises, and charges."""
    process = _process(arrays)
    try:
        result = service(process, trace)
    except OutOfMemoryError as exc:
        result = ("OutOfMemoryError", str(exc))
    device = process.vmm.swap_device
    return (
        result,
        dict(process.vmm.node.ledger.counts),
        dict(process.vmm.node.ledger.cycles),
        (device.pages_in, device.pages_out),
    )


@st.composite
def _swap_cases(draw):
    """1-4 arrays with non-sorted ids, random residency and huge maps,
    at most 0, 1 or any resident base pages, and a trace of base and
    huge keys with repeats."""
    n_arrays = draw(st.integers(1, 4))
    ids = draw(st.permutations(range(8)))[:n_arrays]
    cap = draw(st.sampled_from([0, 1, None]))
    arrays = []
    for array_id in ids:
        npages = draw(st.integers(1, 12))
        resident = draw(st.lists(st.booleans(), min_size=npages, max_size=npages))
        is_huge = draw(st.lists(st.booleans(), min_size=npages, max_size=npages))
        frame = [page if flag else -1 for page, flag in enumerate(resident)]
        start_vpn = draw(st.integers(0, 1 << 20))
        arrays.append((array_id, start_vpn, frame, is_huge))
    if cap is not None:
        # Keep only the first ``cap`` resident base pages resident.
        kept = 0
        for _, _, frame, is_huge in arrays:
            for page, huge in enumerate(is_huge):
                if frame[page] >= 0 and not huge:
                    if kept == cap:
                        frame[page] = -1
                    else:
                        kept += 1
    access = st.sampled_from(range(n_arrays)).flatmap(
        lambda i: st.one_of(
            st.integers(0, len(arrays[i][2]) - 1).map(
                lambda page, i=i: (
                    arrays[i][0],
                    (arrays[i][1] + page) << 1,
                )
            ),
            st.integers(0, 1 << 20).map(
                lambda hvpn, i=i: (arrays[i][0], (hvpn << 1) | 1)
            ),
        )
    )
    accesses = draw(st.lists(access, max_size=60))
    if accesses and draw(st.booleans()):
        accesses += draw(st.lists(st.sampled_from(accesses), max_size=40))
    return arrays, _trace(accesses)


@settings(max_examples=400, deadline=None)
@given(
    case=_swap_cases(),
    block=st.sampled_from([1, 2, 3, 5, 8, process_module._SWAP_BLOCK]),
    window=st.sampled_from([1, 2, process_module._SWAP_WINDOW]),
)
def test_pass_matches_reference_loop(case, block, window):
    """Same result or exception, ledger and swap-device charges, with
    blocks and windows small enough that block edges, window growth and
    the reset after a miss all occur."""
    arrays, trace = case
    expected = _outcome(reference_service_swap, arrays, trace)
    with mock.patch.object(process_module, "_SWAP_BLOCK", block), mock.patch.object(
        process_module, "_SWAP_WINDOW", window
    ):
        actual = _outcome(SimProcess.service_swap, arrays, trace)
    assert actual == expected


def test_empty_trace_charges_nothing():
    arrays = [(3, 100, [5, -1], [False, False])]
    outcome = _outcome(SimProcess.service_swap, arrays, _trace([]))
    assert outcome == _outcome(reference_service_swap, arrays, _trace([]))
    assert outcome[0] == (0, 0) and outcome[3] == (0, 0)


def test_no_capacity_raises_at_first_miss():
    """Resident pages only huge-mapped: the first base miss raises with
    its own page and array id, after earlier hits and huge keys."""
    arrays = [
        (5, 40, [1, -1, -1], [True, False, False]),
        (2, 10, [-1, 7], [False, True]),
    ]
    trace = _trace([(5, 81), (2, 22), (5, 99), (2, 20), (5, 84)])
    outcome = _outcome(SimProcess.service_swap, arrays, trace)
    assert outcome == _outcome(reference_service_swap, arrays, trace)
    assert outcome[0] == (
        "OutOfMemoryError",
        "swap-in of page 0 of array 2 has no resident base page to evict",
    )


def test_one_frame_thrashes():
    """``C == 1``: every access to a page other than the last one in
    swaps in; huge-mapped resident pages stay put."""
    arrays = [(1, 0, [-1, 4, -1, 9], [False, False, False, True])]
    trace = _trace([(1, 0), (1, 0), (1, 2), (1, 6), (1, 4), (1, 2), (1, 6)])
    outcome = _outcome(SimProcess.service_swap, arrays, trace)
    assert outcome == _outcome(reference_service_swap, arrays, trace)
    assert outcome[0] == (4, 4)


# ----------------------------------------------------------------------
# Every shipped oversubscribed cell
# ----------------------------------------------------------------------

OVERSUBSCRIBED_CELLS = [
    pytest.param(tiny, "test-small", workload, spec, id=f"tiny-{workload}-{spec}")
    for workload in ("bfs", "pagerank", "sssp", "cc")
    for spec in ("base4k", "thp", "ingens")
] + [
    pytest.param(scaled, "kron-s", "bfs", spec, id=f"scaled-bfs-{spec}")
    for spec in ("base4k", "thp")
]


def _run_cell(profile, dataset, workload, spec) -> tuple[str, int]:
    """The cell's ``encode_result`` JSON and its swap-ins, from a fresh
    runner (so no memo is shared between the two sides)."""
    config = profile()
    runner = ExperimentRunner(config=config, datasets=(dataset,))
    policy = parse_policy(spec, dataset=dataset, config=config)
    (result,) = runner.run_cells(
        [(workload, dataset, policy, parse_scenario("oversubscribed"))]
    )
    # Not key-sorted: the ledgers' key order is part of the contract.
    return json.dumps(encode_result(result)), result.swap_ins


@pytest.mark.parametrize("profile, dataset, workload, spec", OVERSUBSCRIBED_CELLS)
def test_oversubscribed_cell_matches_reference_loop(
    profile, dataset, workload, spec, monkeypatch
):
    encoded, swap_ins = _run_cell(profile, dataset, workload, spec)
    assert swap_ins > 0
    monkeypatch.setattr(SimProcess, "service_swap", reference_service_swap)
    assert (encoded, swap_ins) == _run_cell(profile, dataset, workload, spec)
