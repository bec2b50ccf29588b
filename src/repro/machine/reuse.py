"""Cross-cell reuse: each distinct compute phase simulated once.

A sweep re-runs one kernel on one graph under many (policy, scenario)
cells, but a cell's *compute* phase is a pure function of far fewer
inputs than its coordinates.  :class:`ComputeReuse`, owned by one
:class:`~repro.experiments.harness.ExperimentRunner`, exploits that in
two independent ways; :meth:`Machine.run
<repro.machine.machine.Machine.run>` receives a per-cell
:class:`CellReuse` handle to both.

**Compute memo** (runner lifetime).  With no manager, tracer, fault
injector or watchdog attached, the compute phase depends only on the
logical access stream, each array's page-size map and placement, the
swap residency and the machine geometry — :func:`compute_key` digests
exactly those after initialisation.  A hit replays the stored
:class:`ComputeOutcome` (translation counts, the compute-phase kernel
ledger delta, swap traffic) instead of translating and simulating.
Initialisation, metrics assembly and teardown always run per cell, so
init ledgers stay exact.  A compute phase that raises is never stored.

**Stream store** (one serial ``run_cells`` batch).  A kernel's access
streams depend on the graph and the algorithm, never on the memory
system, so cells sharing a *stream id* (workload, dataset, reorder,
weighted, PageRank iterations) can share them.  Before a batch the
runner declares how many pending cells share each id; the first
consumer records its streams as the kernel yields them (``uint8`` array
ids, ``int32`` indices when they fit) and later consumers replay them.
A stream object the kernel yields again (PageRank's per-iteration
sweeps) is recorded once and replayed as one object, so the per-cell
translation and TLB memos still recognise the repeat.
An entry is dropped after its last consumer and always at the end of
the batch; an id with one consumer is never recorded.  Manager cells
share streams too.  Pool and distributed workers build their own
runners and use only the memo.

Outputs are byte-identical with and without reuse: a replayed stream
equals the generated one element for element, and a replayed outcome
adds the very integers the simulation produced, in the ledger key order
a fresh run would have created.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import numpy as np

from ..mem.stats import KernelLedger
from ..tlb.hierarchy import TranslationStats
from ..tlb.trace import AccessStream

if TYPE_CHECKING:
    from ..obs.tracer import MetricsRegistry
    from ..workloads.base import Workload
    from .process import SimProcess

StreamId = tuple
"""``(workload, dataset, reorder, weighted, pagerank_iterations)``."""

_INT32 = np.iinfo(np.int32)


@dataclass(frozen=True)
class ComputeOutcome:
    """Everything one manager-free compute phase contributes to a cell.

    ``kernel`` holds the phase's own kernel-ledger charges (from
    :meth:`~repro.mem.stats.KernelLedger.isolated`), in the order the
    phase first touched each category, so merging it into another
    cell's post-initialisation ledger reproduces a fresh run's counts,
    cycles and key order.  The charges are added as recorded, never
    re-costed: each was truncated by ``int(count * cost)`` when charged.
    """

    accesses: np.ndarray
    l1_misses: np.ndarray
    walks: np.ndarray
    kernel: KernelLedger
    swap_ins: int
    swap_outs: int

    def apply(self, stats: TranslationStats, ledger: KernelLedger) -> None:
        """Add this outcome's translation counts and ledger charges."""
        stats.accesses += self.accesses
        stats.l1_misses += self.l1_misses
        stats.walks += self.walks
        ledger.merge(self.kernel)


def _feed(h: "hashlib._Hash", *values: object) -> None:
    """Hash each value as a length-prefixed field, so no two field
    sequences collide by concatenation."""
    for value in values:
        data = value if isinstance(value, bytes) else repr(value).encode()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)


def compute_key(
    stream_id: StreamId,
    access_budget: Optional[int],
    process: "SimProcess",
    check_swap: bool,
) -> bytes:
    """SHA-256 digest of every input of a manager-free compute phase,
    taken after initialisation: the stream id, the access budget, the
    machine geometry and cost model, each array's placement and
    page-size map (in mapping order) and, when pages are swapped out,
    the residency bitmap."""
    config = process.config
    h = hashlib.sha256()
    _feed(
        h,
        stream_id,
        access_budget,
        config.name,
        config.tlb,
        config.pages,
        config.cost,
        config.swap_enabled,
        check_swap,
    )
    for array_id, vma in process.vma_by_array.items():
        _feed(
            h,
            array_id,
            process._start_vpn[array_id],
            process._start_hvpn[array_id],
            process._elem_bytes[array_id],
            vma.is_huge.tobytes(),
        )
        if check_swap:
            _feed(h, (vma.frame >= 0).tobytes())
    return h.digest()


@dataclass
class Recording:
    """One kernel's streams as recorded by the stream store.

    ``parts`` holds each distinct stream object once, as ``(array_ids,
    indices)``; ``order`` lists the part yielded at each step, so a
    repeated object is one part named several times.
    """

    parts: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    order: list[int] = field(default_factory=list)
    # Part index of each stream object seen so far.  Weak keys: a
    # stream yielded once is not kept alive for this.
    _part_of: "weakref.WeakKeyDictionary[AccessStream, int]" = field(
        default_factory=weakref.WeakKeyDictionary, repr=False
    )

    def add(self, stream: AccessStream) -> None:
        """Record the next yielded stream."""
        part = self._part_of.get(stream)
        if part is None:
            part = self._part_of[stream] = len(self.parts)
            indices = stream.indices
            if indices.size and (
                int(indices.min()) >= _INT32.min
                and int(indices.max()) <= _INT32.max
            ):
                kept = indices.astype(np.int32)
            else:
                kept = indices.copy()
            self.parts.append(
                (stream.array_ids.astype(np.uint8, copy=False), kept)
            )
        self.order.append(part)

    def replay(self) -> Iterator[AccessStream]:
        """The recorded streams in order, widened back to ``int64``; a
        part named again later is yielded as the same object, and held
        only until its last step."""
        left = Counter(self.order)
        live: dict[int, AccessStream] = {}
        for part in self.order:
            stream = live.get(part)
            if stream is None:
                array_ids, indices = self.parts[part]
                stream = AccessStream(array_ids, indices.astype(np.int64))
            left[part] -= 1
            if left[part]:
                live[part] = stream
            else:
                live.pop(part, None)
            yield stream


class ComputeReuse:
    """A runner's compute memo and stream store (see the module doc)."""

    def __init__(self, metrics: "MetricsRegistry") -> None:
        self.metrics = metrics
        """Registry for ``reuse.compute_hits``, ``reuse.compute_misses``
        and ``reuse.stream_replays``."""
        self._memo: dict[bytes, ComputeOutcome] = {}
        self._consumers: Counter = Counter()
        self._streams: dict[StreamId, Recording] = {}

    def cell(self, stream_id: StreamId) -> "CellReuse":
        """The handle one cell passes to ``Machine.run``."""
        return CellReuse(self, stream_id)

    def clear(self) -> None:
        """Forget every memoised outcome and recorded stream."""
        self._memo.clear()
        self._consumers.clear()
        self._streams.clear()

    @contextmanager
    def batch(self, stream_ids: Iterable[StreamId]) -> Iterator[None]:
        """Share streams among one batch's pending cells, one entry of
        ``stream_ids`` per cell; call :meth:`consumed` after each."""
        self._consumers = Counter(stream_ids)
        try:
            yield
        finally:
            self._consumers.clear()
            self._streams.clear()

    def consumed(self, stream_id: StreamId) -> None:
        """One pending cell of the batch is done (whether it replayed,
        recorded, hit the memo or failed); the last one drops the
        entry."""
        self._consumers[stream_id] -= 1
        if self._consumers[stream_id] <= 0:
            del self._consumers[stream_id]
            self._streams.pop(stream_id, None)


class CellReuse:
    """One cell's view of its runner's :class:`ComputeReuse`."""

    def __init__(self, owner: ComputeReuse, stream_id: StreamId) -> None:
        self._owner = owner
        self.stream_id = stream_id

    def key(
        self,
        access_budget: Optional[int],
        process: "SimProcess",
        check_swap: bool,
    ) -> bytes:
        """This cell's compute-memo key (see :func:`compute_key`)."""
        return compute_key(self.stream_id, access_budget, process, check_swap)

    def recall(self, key: bytes) -> Optional[ComputeOutcome]:
        """The memoised outcome for ``key``, counting a hit or miss."""
        owner = self._owner
        outcome = owner._memo.get(key)
        owner.metrics.count(
            "reuse.compute_hits" if outcome is not None
            else "reuse.compute_misses"
        )
        return outcome

    def remember(self, key: bytes, outcome: ComputeOutcome) -> None:
        """Memoise a compute phase that ran to completion."""
        self._owner._memo[key] = outcome

    def streams(self, workload: "Workload") -> Iterator[AccessStream]:
        """The kernel's access streams: replayed when this batch has
        already recorded them, recorded as yielded when later cells of
        the batch will want them, else generated as usual."""
        owner = self._owner
        stream_id = self.stream_id
        recorded = owner._streams.get(stream_id)
        if recorded is not None:
            owner.metrics.count("reuse.stream_replays")
            yield from recorded.replay()
            return
        if owner._consumers[stream_id] < 2:
            yield from workload.run()
            return
        recording = Recording()
        for stream in workload.run():
            recording.add(stream)
            yield stream
        # Only a stream run to exhaustion is complete; a consumer that
        # stopped early (budget, failure) leaves nothing behind.
        if owner._consumers[stream_id] >= 2:
            owner._streams[stream_id] = recording
