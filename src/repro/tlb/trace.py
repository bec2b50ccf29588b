"""Access streams and TLB traces.

Workloads emit *logical* access streams: parallel arrays of
``(array_id, element_index)`` in program order, exactly following the
paper's Fig. 4 pseudocode (sequential vertex/edge array reads interleaved
with pointer-indirect property accesses).  The machine translates a
stream against the process's memory layout into a *TLB trace*: page keys
annotated with page-size class, run-length compressed.

Page keys pack the page number and size class into one integer::

    key = (page_number << 1) | size_class      # size: 0 = base, 1 = huge

so keys are unique across sizes and cheap to split in the simulation
loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

MAX_ARRAY_IDS = 8
"""Upper bound on distinct data-structure ids in one workload."""


@dataclass(eq=False)
class AccessStream:
    """A program-order sequence of logical array accesses.

    Equality and hashing are by identity: a kernel that yields the same
    stream object again (PageRank's repeated sweeps) lets translation
    memoise on the object (:meth:`SimProcess.translate
    <repro.machine.process.SimProcess.translate>`).  Streams are never
    mutated after they are yielded.

    Attributes:
        array_ids: ``uint8`` array naming which data structure each access
            touches (workload-defined ids, e.g. 0=vertex, 1=edge,
            2=values, 3=property).
        indices: ``int64`` element index within that array.
    """

    array_ids: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        if self.array_ids.shape != self.indices.shape:
            raise ValueError("array_ids and indices must have equal length")

    def __len__(self) -> int:
        return int(self.array_ids.size)

    @staticmethod
    def concatenate(streams: list["AccessStream"]) -> "AccessStream":
        """Concatenate streams in order."""
        if not streams:
            return AccessStream(
                np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
            )
        return AccessStream(
            np.concatenate([s.array_ids for s in streams]),
            np.concatenate([s.indices for s in streams]),
        )


def merge_streams(
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> AccessStream:
    """Merge sub-streams by program position into one stream.

    Each part is ``(positions, array_ids, indices)`` where ``positions``
    are fractional program-order coordinates.  A stable argsort interleaves
    them — used by kernels to weave per-vertex accesses (vertex array
    reads) between the per-edge access pairs at the correct points.
    """
    positions = np.concatenate([p[0] for p in parts])
    array_ids = np.concatenate([p[1] for p in parts])
    indices = np.concatenate([p[2] for p in parts])
    order = np.argsort(positions, kind="stable")
    return AccessStream(array_ids[order].astype(np.uint8), indices[order])


@dataclass(eq=False)
class TlbTrace:
    """A page-granular, run-length-compressed translation trace.

    Equality and hashing are by identity, so the batch engine can
    memoise a repeated trace object's simulation
    (:meth:`BatchTranslationHierarchy.simulate
    <repro.tlb.engine.BatchTranslationHierarchy.simulate>`).

    Attributes:
        keys: packed page keys (``(page << 1) | size``).
        counts: run length of each key (consecutive repeats collapsed;
            hits after the first access in a run are L1 hits by
            construction).
        array_ids: data-structure id of each run (runs never span
            array-id changes).
    """

    keys: np.ndarray
    counts: np.ndarray
    array_ids: np.ndarray
    # Coalesced lookup view (see :meth:`lookup_view`): built eagerly by
    # :func:`compress_trace`, lazily for hand-assembled traces.
    _lookup_keys: Optional[np.ndarray] = field(default=None, repr=False)
    _lookup_array_ids: Optional[np.ndarray] = field(default=None, repr=False)
    # Per-array access totals (see :meth:`access_totals`), same policy.
    _access_totals: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def total_accesses(self) -> int:
        """Number of represented accesses (sum of run lengths)."""
        return int(self.counts.sum())

    def __len__(self) -> int:
        return int(self.keys.size)

    def lookup_view(self) -> tuple[np.ndarray, np.ndarray]:
        """The trace with adjacent same-key runs coalesced — the only
        runs the TLB simulation loop must actually look up.

        Runs split on array-id changes even when the page key stays the
        same (two arrays sharing one huge page at a boundary), but every
        run after the first in such a group is a guaranteed L1 hit: the
        entry was installed or refreshed at MRU by the group's first
        run.  The simulation loop therefore only needs one lookup per
        *key group*; per-array access attribution stays exact because it
        is computed from the full run arrays, and the (potential) miss
        is attributed to the group's leading run — exactly what the
        uncoalesced loop did.

        Returns ``(keys, array_ids)`` of the group-leading runs.
        """
        if self._lookup_keys is None:
            self._lookup_keys, self._lookup_array_ids = _coalesce_lookups(
                self.keys, self.array_ids
            )
        assert self._lookup_array_ids is not None
        return self._lookup_keys, self._lookup_array_ids

    def access_totals(self) -> np.ndarray:
        """Accesses attributed per array id (length ``MAX_ARRAY_IDS``).

        A trace property, not a simulation result: attribution depends
        only on the run arrays, never on TLB state, so it is computed
        once at trace build time and shared by every engine that
        simulates the trace.
        """
        if self._access_totals is None:
            self._access_totals = _access_totals(self.array_ids, self.counts)
        return self._access_totals


def _access_totals(array_ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-array access totals (build-time helper).

    bincount is a single C pass; run lengths are integers, so the
    float64 accumulation is exact (totals are far below 2**53).
    """
    if counts.size == 0:
        return np.zeros(MAX_ARRAY_IDS, dtype=np.int64)
    return np.bincount(
        array_ids, weights=counts, minlength=MAX_ARRAY_IDS
    ).astype(np.int64)


def _coalesce_lookups(
    keys: np.ndarray, array_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Leading run of each adjacent same-key group (build-time helper)."""
    n = keys.size
    if n == 0:
        return keys, array_ids
    lead = np.empty(n, dtype=bool)
    lead[0] = True
    np.not_equal(keys[1:], keys[:-1], out=lead[1:])
    if bool(lead.all()):
        return keys, array_ids
    return keys[lead], array_ids[lead]


def compress_trace(
    keys: np.ndarray, array_ids: np.ndarray
) -> TlbTrace:
    """Run-length encode a raw key sequence.

    Consecutive accesses to the same page (with the same array id) are
    collapsed into one run.  Sequential scans of an array compress by up
    to the page size over the element size; pointer-indirect traffic stays
    nearly uncompressed — which is exactly why it dominates TLB pressure.
    """
    n = keys.size
    if n == 0:
        return TlbTrace(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.uint8),
        )
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    change[1:] |= array_ids[1:] != array_ids[:-1]
    starts = np.flatnonzero(change)
    counts = np.diff(np.append(starts, n))
    run_keys = keys[starts].astype(np.int64)
    run_array_ids = array_ids[starts].astype(np.uint8)
    run_counts = counts.astype(np.int64)
    lookup_keys, lookup_array_ids = _coalesce_lookups(run_keys, run_array_ids)
    return TlbTrace(
        run_keys,
        run_counts,
        run_array_ids,
        lookup_keys,
        lookup_array_ids,
        _access_totals(run_array_ids, run_counts),
    )
