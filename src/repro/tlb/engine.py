"""Vectorized batch translation engine.

Drop-in replacement for :class:`~repro.tlb.hierarchy.TranslationHierarchy`
that processes a whole coalesced lookup stream with NumPy set-wise passes
instead of a per-lookup Python loop, producing *bit-identical*
``accesses`` / ``l1_misses`` / ``walks`` counts.

Why this is exact
-----------------

A true-LRU set is *outcome independent*: every access leaves its key at
MRU whether it hit or missed, so the set's content after any prefix is
simply the ``ways`` most-recently-used distinct keys mapping to it, and

    hit(t)  <=>  reuse distance of t  <  ways

where the reuse distance is the number of *distinct* same-set keys
between an access and the previous access ``P(t)`` to the same key.  The
same holds for the STLB over the sub-stream of L1 misses (the L2 is only
probed and updated on an L1 miss), so the hierarchy decomposes into two
independent passes: L1 hit/miss per structure, then L2 over the L1-miss
sub-stream.

Reuse distances are counted through the first-occurrence identity: the
number of distinct keys in the window ``(P(t), t)`` equals the number of
positions ``y`` inside it whose own previous occurrence lies at or
before ``P(t)`` — each distinct key is counted exactly once, at its
first in-window appearance.  That turns hit/miss into window *counts*
over the already-computed previous-occurrence array:

1. *cold* (no previous occurrence): always a miss.
2. ``gap < ways`` (fewer than ``ways`` same-set lookups in between):
   a hit — the distinct count cannot reach ``ways``.
3. Everything else: in set-sorted coordinates each window is a
   contiguous slice, and position ``a + c`` is a first occurrence of a
   window starting at ``a`` iff its back-distance exceeds its depth,
   ``d[a + c] > c``.  A 1D column walk over the leading window
   columns counts short windows exactly, and a count reaching ``ways``
   in *any* subset of columns is a sound miss certificate for long
   windows (first occurrences only accumulate) — the dominant outcome
   in high-entropy streams.  The same count anchored at the window's
   *tail* is a mirror certificate; survivors go through geometrically
   widening matrix passes and the rare holdouts get exact per-query
   counts.

Cross-call state (the hierarchy is live across the workload's streams
and flushed on promotions) is carried by replaying each set's resident
keys, LRU-first, as uncounted warm-up lookups prepended to the batch.
Large batches are split into cache-sized chunks — exact under any
split, because the carried state replays between chunks.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..config import TlbConfig, TlbGeometry
from . import native
from .hierarchy import MAX_ARRAY_IDS, TranslationHierarchy, TranslationStats
from .trace import TlbTrace, compress_trace

_CHUNK = 1 << 17
"""Lookups per internal batch: large enough to amortize pass setup,
small enough that a chunk's working arrays stay cache-resident."""

_iota_cache = np.empty(0, dtype=np.int32)


def _iota(n: int) -> np.ndarray:
    """Cached ``arange(n, dtype=int32)`` view (read-only use only)."""
    global _iota_cache
    if _iota_cache.size < n:
        _iota_cache = np.arange(
            max(n, _CHUNK + 8192), dtype=np.int32
        )
    return _iota_cache[:n]


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """Stable ascending argsort of non-negative integer keys.

    NumPy's ``kind="stable"`` is a radix sort for 16-bit integers
    (O(n)) but a comparison sort for wider types, so sort 16 bits at a
    time, least-significant digit first.
    """
    if keys.size == 0:
        return np.empty(0, dtype=np.intp)
    if keys.dtype == np.uint16:
        return np.argsort(keys, kind="stable")
    hi = int(keys.max())
    if hi < (1 << 16):
        return np.argsort(keys.astype(np.uint16), kind="stable")
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while (hi >> shift) > 0:
        digit = ((keys >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
        shift += 16
    return order


class _BatchLru:
    """One set-associative structure simulated batch-at-a-time.

    ``key_shift``/``num_sets`` let a caller re-index the set bits: the
    default drops the page-size parity bit (``key >> 1``) like the
    exact structures do, while ``key_shift=0`` with doubled sets folds
    the parity bit *into* the set index — two identical-geometry L1s
    fused into one structure whose sets never interact.
    """

    def __init__(
        self,
        geometry: TlbGeometry,
        *,
        num_sets: int | None = None,
        key_shift: int = 1,
    ) -> None:
        self.geometry = geometry
        self.ways = geometry.ways
        self.num_sets = geometry.sets if num_sets is None else num_sets
        self.key_shift = key_shift
        self.set_mask = self.num_sets - 1
        # Per-set resident keys carried between batches as one flat
        # array: set-major ascending, LRU-first within each set — the
        # exact layout the warm-up prepend needs.
        self.state_keys = np.empty(0, dtype=np.int64)
        # Aggregate counters, mirroring SetAssociativeTlb bookkeeping.
        self.hits = 0
        self.misses = 0
        # Window-count buckets: smallest matrix width, and the widest
        # before queries fall back to per-query counting.  The first
        # bucket also serves as the long-window miss-certificate width.
        self.cap0 = max(16, 2 * self.ways)
        self.cap_max = 64 * self.cap0

    def flush(self) -> None:
        self.state_keys = np.empty(0, dtype=np.int64)

    def simulate(self, keys: np.ndarray) -> np.ndarray:
        """Return the boolean miss mask for ``keys`` (program order),
        updating carried per-set state exactly as sequential true-LRU
        access/insert would.

        Large batches are processed in cache-sized chunks: the engine
        is exact under any batch split (carried state replays each
        set's residents), chunked passes stay in cache instead of
        thrashing DRAM with multi-million-element scatters, and reuse
        windows are bounded by the chunk — a key evicted before a chunk
        boundary simply restarts cold, which is the same miss the full
        window would have produced.
        """
        n = keys.size
        if n > _CHUNK + (_CHUNK >> 1):
            out = np.empty(n, dtype=bool)
            for lo in range(0, n, _CHUNK):
                hi = min(n, lo + _CHUNK)
                out[lo:hi] = self._simulate_batch(keys[lo:hi])
            return out
        return self._simulate_batch(keys)

    def _simulate_batch(self, keys: np.ndarray) -> np.ndarray:
        n = keys.size
        if n == 0:
            return np.zeros(0, dtype=bool)
        ways = self.ways
        m0 = self.state_keys.size
        if m0:
            # Mixed-dtype concatenate promotes, so carried keys can
            # never be truncated by a narrower incoming batch.
            allk = np.concatenate([self.state_keys, keys])
        else:
            allk = keys
        mx = int(allk.max())
        if mx < 1 << 16:
            if allk.dtype != np.uint16:
                allk = allk.astype(np.uint16)
        elif mx < 1 << 31 and allk.dtype != np.int32:
            allk = allk.astype(np.int32)
        total = allk.size

        sidx = ((allk >> self.key_shift) & self.set_mask).astype(
            np.uint16
        )
        set_order = np.argsort(sidx, kind="stable")
        set_counts = np.bincount(sidx, minlength=self.num_sets)
        seg_start = np.concatenate(([0], np.cumsum(set_counts)))

        # Set-sorted layout: contiguous per-set subsequences, so every
        # reuse window is a contiguous slice and position differences
        # within a segment count intervening same-set lookups directly
        # (no per-segment rank needed).
        keys_ss = allk[set_order]

        # Previous occurrence of the same key, in set-sorted
        # coordinates: same key => same set, so one stable key sort of
        # the set-sorted stream pairs consecutive occurrences.
        key_order = _stable_order(keys_ss)
        sk = keys_ss[key_order]
        dup = np.flatnonzero(sk[1:] == sk[:-1])
        prev_pos = np.full(total, -1, dtype=np.int32)
        if dup.size:
            prev_pos[key_order[dup + 1]] = key_order[dup]

        # d = back-distance to the same key's previous occurrence; a
        # cold position's d reaches past the segment start, so it
        # qualifies at any window depth (as a first occurrence must).
        d_ss = _iota(total) - prev_pos
        cold = prev_pos < 0
        gap = d_ss - 1  # intervening same-set lookups
        miss_ss = cold.copy()  # cold => miss; hits need no write
        undecided = np.flatnonzero(~cold & (gap >= ways))
        if undecided.size:
            miss_ss[undecided] = self._resolve_windows(
                d_ss, gap[undecided], starts=prev_pos[undecided] + 1
            )

        # Batch-final occurrence of each distinct key: everything the
        # key sort already paired as having a later duplicate is not
        # one.  Sorted positions, so per-set residents are slices.
        last = np.ones(total, dtype=bool)
        last[key_order[dup]] = False
        self._extract_state(keys_ss, np.flatnonzero(last), seg_start)

        miss = np.empty(total, dtype=bool)
        miss[set_order] = miss_ss
        out = miss[m0:]
        nm = int(np.count_nonzero(out))
        self.misses += nm
        self.hits += out.size - nm
        return out

    def _resolve_windows(
        self,
        d_ss: np.ndarray,
        gaps: np.ndarray,
        starts: np.ndarray,
    ) -> np.ndarray:
        """Exactly decide hit/miss for lookups whose gap reaches the
        associativity, by counting distinct keys in their reuse windows
        (module docstring, steps 3-4).

        Every count reduces to one comparison form: position ``a + c``
        is the first occurrence of its key within a window starting at
        ``a`` iff its back-distance exceeds its depth, ``d > c``.  So a
        pass is a gather of the static ``d`` array plus a broadcast
        compare against ``arange(cap)`` — no per-query thresholds.
        Anchoring ``a`` at a *tail* of the window counts that
        sub-window's distinct keys, a mirror-image miss certificate.
        """
        ways = self.ways
        nq = gaps.size
        miss_out = np.zeros(nq, dtype=bool)

        # Leading-run pass: count just the first `ways` window columns
        # with plain 1D gathers — every window has at least that many
        # columns (gap >= ways here), so no mask, no matrix, and no
        # padding; column 0 always qualifies (d >= 1).  All-distinct
        # certifies a miss outright (the dominant case in high-entropy
        # streams), and gap == ways windows are decided exactly.
        if ways <= 16:
            cnt = np.ones(nq, dtype=np.uint8)
            idx = starts.copy()
            for c in range(1, ways):
                idx += 1
                cnt += d_ss[idx] > c
            certA = cnt >= ways
            miss_out[certA] = True
            done = certA | (gaps == ways)
            if bool(done.all()):
                return miss_out
            # Second tier: continue the column walk to 2*ways on the
            # survivors only.  These columns can fall past a short
            # window's end, so the depth test gains a gap mask (the pad
            # keeps the gather in bounds); a window of <= 2*ways
            # columns is now fully counted, and reaching `ways` still
            # certifies any longer window.
            pad = np.concatenate(
                (d_ss, np.zeros(self.cap_max, dtype=d_ss.dtype))
            )
            sel = np.flatnonzero(~done)
            scnt = cnt[sel].astype(np.int32)
            sgaps = gaps[sel]
            idx = starts[sel] + ways
            for c in range(ways, 2 * ways):
                scnt += (pad[idx] > c) & (c < sgaps)
                idx += 1
            sub = scnt >= ways
            miss_out[sel[sub]] = True
            done[sel] = sub | (sgaps <= 2 * ways)
        else:
            pad = np.concatenate(
                (d_ss, np.zeros(self.cap_max, dtype=d_ss.dtype))
            )
            done = np.zeros(nq, dtype=bool)
        if bool(done.all()):
            return miss_out

        # Matrix pass over the survivors: exact for short windows; for
        # longer ones a count already at `ways` is a sound miss
        # certificate (first occurrences only accumulate as the window
        # widens).  Pad keeps start + cap in bounds; the pad value 0
        # never exceeds a column offset.
        sel = np.flatnonzero(~done)
        cols = np.arange(self.cap0, dtype=np.int32)
        quals = (pad[starts[sel][:, None] + cols] > cols) & (
            cols[None, :] < gaps[sel][:, None]
        )
        is_miss = np.count_nonzero(quals, axis=1) >= ways
        miss_out[sel] = is_miss
        done[sel] = is_miss | (gaps[sel] <= self.cap0)

        if not bool(done.all()):
            # Mirror certificate: distinct keys bunched just before the
            # access (a burst after a long monotone run) escape the
            # prefix but not the tail sub-window.  Survivors have
            # gap > cap0, so the tail lies in-window: no mask, no pad.
            sel = np.flatnonzero(~done)
            anchor = starts[sel] + gaps[sel] - self.cap0
            tail = d_ss[anchor[:, None] + cols] > cols
            cert_idx = sel[np.count_nonzero(tail, axis=1) >= ways]
            miss_out[cert_idx] = True
            done[cert_idx] = True

        cap = self.cap0 * 4
        while cap <= self.cap_max:
            sel = np.flatnonzero(~done)
            if sel.size == 0:
                break
            cols = np.arange(cap, dtype=np.int32)
            quals = (pad[starts[sel][:, None] + cols] > cols) & (
                cols[None, :] < gaps[sel][:, None]
            )
            is_miss = np.count_nonzero(quals, axis=1) >= ways
            miss_out[sel] = is_miss
            done[sel] = is_miss | (gaps[sel] <= cap)
            cap *= 4
        # Survivors: very long windows dominated by re-references to a
        # few hot keys.  Count each outright; qualification is still
        # just distance-vs-depth.
        rest = np.flatnonzero(~done)
        if rest.size:
            iota = np.arange(int(gaps[rest].max()), dtype=d_ss.dtype)
            for i in rest:
                window = d_ss[starts[i] : starts[i] + gaps[i]]
                miss_out[i] = (
                    int(np.count_nonzero(window > iota[: window.size]))
                    >= ways
                )
        return miss_out

    # -- carried state ----------------------------------------------

    def _extract_state(
        self,
        keys_ss: np.ndarray,
        last_pos: np.ndarray,
        seg_start: np.ndarray,
    ) -> None:
        """Recover each set's resident keys: the content of a true-LRU
        set is its `ways` most recently used distinct keys — the
        highest-positioned batch-final occurrences in its segment.

        ``last_pos`` holds every batch-final occurrence position in
        ascending order, so each segment's residents are one slice
        (ascending position = LRU-first, the carried-state layout).
        Warm-up replay re-injects every carried key, so a set absent
        from the batch genuinely holds nothing.
        """
        ways = self.ways
        bounds = np.searchsorted(last_pos, seg_start)
        cnt = np.minimum(bounds[1:] - bounds[:-1], ways)
        total = int(cnt.sum())
        offs = np.cumsum(cnt) - cnt
        r = np.arange(total, dtype=np.int64) - np.repeat(offs, cnt)
        take = last_pos[np.repeat(bounds[1:] - cnt, cnt) + r]
        self.state_keys = keys_ss[take].astype(np.int64)


@dataclass(frozen=True)
class _Outcome:
    """Everything one ``simulate`` call did, from one carried state.

    ``state_keys`` and the counter deltas are per structure, in
    :attr:`BatchTranslationHierarchy._structures` order.  Carried state
    arrays are only ever replaced, never written in place, so the
    stored exit state can be shared with the structures.
    """

    l1_misses: np.ndarray
    walks: np.ndarray
    state_keys: tuple[np.ndarray, ...]
    hits: tuple[int, ...]
    misses: tuple[int, ...]


class BatchTranslationHierarchy:
    """Split L1 DTLB + unified STLB over batched NumPy passes.

    Interface-compatible with
    :class:`~repro.tlb.hierarchy.TranslationHierarchy` for everything
    the machine uses (``simulate`` / ``flush`` / ``tracer``) and
    produces bit-identical :class:`TranslationStats`.

    A trace object simulated again from the same carried state of every
    structure replays its stored :class:`_Outcome` instead: the engine
    is deterministic, so the counts, the exit state and the
    ``tlb.stream`` event are the ones the simulation would produce.
    PageRank's repeated sweeps reach the same state from the second
    iteration on (docs/performance.md "Repeated iterations within a
    cell").
    """

    engine = "batch"

    def __init__(self, config: TlbConfig) -> None:
        self.config = config
        if config.l1_base == config.l1_huge:
            # Identical L1 geometries: the parity bit can serve as an
            # extra set-index bit instead of a structure selector —
            # one fused structure with doubled sets behaves exactly
            # like the two split L1s (sets never interact), and the
            # per-chunk parity partition disappears entirely.
            self.l1_fused = _BatchLru(
                config.l1_base,
                num_sets=2 * config.l1_base.sets,
                key_shift=0,
            )
            self.l1_base = self.l1_huge = None
            self._l1_structures = (self.l1_fused,)
        else:
            self.l1_fused = None
            self.l1_base = _BatchLru(config.l1_base)
            self.l1_huge = _BatchLru(config.l1_huge)
            self._l1_structures = (self.l1_base, self.l1_huge)
        self.l2 = _BatchLru(config.l2)
        self._structures = self._l1_structures + (self.l2,)
        self.tracer = None
        self._stream = 0
        # trace -> {carried state of every structure: outcome}.  Weak
        # keys: a trace lives only as long as its translation memo
        # entry, so nothing outlives the stream it came from.
        self._outcomes: weakref.WeakKeyDictionary[
            TlbTrace, dict[tuple[bytes, ...], _Outcome]
        ] = weakref.WeakKeyDictionary()

    def flush(self) -> None:
        """Full shootdown of every level."""
        for structure in self._l1_structures:
            structure.flush()
        self.l2.flush()

    def _l1_groups(
        self, dk: np.ndarray
    ) -> tuple[tuple[_BatchLru, np.ndarray], ...]:
        """Distinct keys routed to their L1 structure."""
        if self.l1_fused is not None:
            return ((self.l1_fused, dk),)
        parity = (dk & 1) != 0
        return (
            (self.l1_base, dk[~parity]),
            (self.l1_huge, dk[parity]),
        )

    def _l1_closed(self, seen: np.ndarray, base: int) -> bool:
        """True if every L1 set's distinct keys fit within its ways."""
        dk = np.flatnonzero(seen) + base
        for structure, keys in self._l1_groups(dk):
            if keys.size == 0:
                continue
            sets = (keys >> structure.key_shift) & structure.set_mask
            counts = np.bincount(sets, minlength=structure.num_sets)
            if int(counts.max()) > structure.ways:
                return False
        return True

    def _closed_l1_decide(
        self, lk: np.ndarray, kmax: int
    ) -> "np.ndarray | None":
        """Whole-stream closed-sets fast path.

        If every L1 set's distinct keys — carried residents included —
        fit within its associativity, no L1 eviction can ever occur:
        once a key is resident it stays resident, so the only misses
        are the first occurrences of keys not already carried.  That
        reduces the entire L1 simulation to a few streaming passes over
        key-indexed tables — no sorting, no page-size partition (keys
        are unique across size classes, so one table serves both L1s).
        This is the regime huge-page-backed placements produce: a
        handful of distinct pages under constant ping-pong reuse.

        Small keys index the tables directly; otherwise the stream is
        rebased by its minimum key, which works whenever the key *span*
        fits a 2^16-entry table (page keys cluster within the process's
        mapped range, so huge-page streams qualify even on machines
        whose absolute page numbers are large).

        Returns the sorted positions of the L1 misses (first
        occurrences of non-carried keys, in program order), or None
        when any set can overflow — those streams go to the chunked
        engine.
        """
        state0 = [s.state_keys for s in self._l1_structures]
        hi = kmax
        for a in state0:
            if a.size:
                hi = max(hi, int(a.max()))
        if hi < (1 << 16):
            base = 0
            size = hi + 1
        else:
            lo = int(lk.min())
            for a in state0:
                if a.size:
                    lo = min(lo, int(a.min()))
            if hi - lo < (1 << 16):
                base = lo
                size = 1 << 16
            elif hi < (1 << 24):
                # Wide span but small absolute keys: a direct-indexed
                # table (≤16M entries) beats declining the fast path.
                base = 0
                size = hi + 1
            else:
                return None
        seen = np.zeros(size, dtype=bool)
        for a in state0:
            seen[a - base] = True
        # Screen on a short prefix first: open streams overflow their
        # sets within a few thousand lookups, long before a full-stream
        # table pass is worth paying for.
        pre = lk[: 1 << 14]
        seen[pre if base == 0 else np.subtract(pre, base, dtype=np.intp)] = (
            True
        )
        if not self._l1_closed(seen, base):
            return None
        idx = lk if base == 0 else np.subtract(lk, base, dtype=np.intp)
        seen[idx] = True
        if not self._l1_closed(seen, base):
            return None

        n = lk.size
        pos = np.full(size, -1, dtype=np.int32)
        pos[idx[::-1]] = _iota(n)[::-1]  # first occurrence wins
        # Carried keys are resident throughout, so they can never be a
        # counted first occurrence — mark them after the scatter so a
        # recurring carried key cannot reclaim a position.
        for a in state0:
            pos[a - base] = -2
        dkidx = np.flatnonzero(seen)
        fp = pos[dkidx]
        fp = fp[fp >= 0]
        fp.sort()  # program order; one miss per non-carried key

        # Exit state per structure: all of its distinct keys (nothing
        # was evicted), ordered by last access; carried keys never
        # re-accessed stay oldest, in carried order.
        for a in state0:
            pos[a - base] = np.arange(-a.size, 0, dtype=np.int32)
        pos[idx] = _iota(n)  # last occurrence wins
        dk = dkidx + base
        for structure, keys in self._l1_groups(dk):
            sets = (keys >> structure.key_shift) & structure.set_mask
            lp = pos[keys - base]
            order = np.argsort(lp, kind="stable")
            order = order[np.argsort(sets[order], kind="stable")]
            structure.state_keys = keys[order].astype(np.int64)
        nm = fp.size
        if self.l1_fused is not None:
            self.l1_fused.misses += nm
            self.l1_fused.hits += n - nm
        else:
            n_huge = int(np.count_nonzero(lk & 1))
            nm_huge = int(np.count_nonzero(lk[fp] & 1))
            self.l1_huge.misses += nm_huge
            self.l1_huge.hits += n_huge - nm_huge
            self.l1_base.misses += nm - nm_huge
            self.l1_base.hits += (n - n_huge) - (nm - nm_huge)
        return fp

    def simulate(self, trace: TlbTrace, stats: TranslationStats) -> None:
        """Run a compressed trace through the hierarchy, updating
        ``stats`` in place (same contract, and same resulting counts,
        as the exact simulator's loop).

        A repeat of an earlier call (same trace object, same carried
        state) restores that call's outcome; anything else is
        simulated and remembered.
        """
        structures = self._structures
        state = tuple(s.state_keys.tobytes() for s in structures)
        outcomes = self._outcomes.setdefault(trace, {})
        outcome = outcomes.get(state)
        if outcome is None:
            hits = [s.hits for s in structures]
            misses = [s.misses for s in structures]
            l1m, wlk = self._simulate(trace)
            outcome = _Outcome(
                l1m,
                wlk,
                tuple(s.state_keys for s in structures),
                tuple(s.hits - h for s, h in zip(structures, hits)),
                tuple(s.misses - m for s, m in zip(structures, misses)),
            )
            outcomes[state] = outcome
        else:
            for structure, keys, hits, misses in zip(
                structures, outcome.state_keys, outcome.hits, outcome.misses
            ):
                structure.state_keys = keys
                structure.hits += hits
                structure.misses += misses
        stats.accesses += trace.access_totals()
        stats.l1_misses += outcome.l1_misses
        stats.walks += outcome.walks

        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "tlb.stream",
                stream=self._stream,
                engine=self.engine,
                accesses=(
                    int(trace.counts.sum()) if trace.counts.size else 0
                ),
                l1_misses=int(outcome.l1_misses.sum()),
                walks=int(outcome.walks.sum()),
            )
            self._stream += 1

    def _simulate(self, trace: TlbTrace) -> tuple[np.ndarray, np.ndarray]:
        """Simulate ``trace`` from the carried state; returns the added
        per-array ``(l1_misses, walks)``.

        Streams whose L1 working set provably fits (huge-page-backed
        cells) are decided in one whole-stream pass; everything else
        runs chunk by chunk — page-size split, L1 probes, L2 over the
        L1-miss sub-stream, per-array attribution — so every
        intermediate array stays cache-resident, with LRU state carried
        across chunks exactly.
        """
        lookup_keys, lookup_array_ids = trace.lookup_view()
        n = lookup_keys.size

        l1m = np.zeros(MAX_ARRAY_IDS, dtype=np.int64)
        wlk = np.zeros(MAX_ARRAY_IDS, dtype=np.int64)
        fp = None
        if n:
            kmax = int(lookup_keys.max())
            # Closed-sets fast path first, on the un-downcast keys: its
            # table passes index with the stream directly, so a narrow
            # dtype would only add hidden intp casts.
            fp = self._closed_l1_decide(lookup_keys, kmax)
        if fp is not None:
            if fp.size:
                miss_aids = lookup_array_ids[fp]
                l1m += np.bincount(miss_aids, minlength=MAX_ARRAY_IDS)
                walk_mask = self.l2.simulate(lookup_keys[fp])
                if bool(walk_mask.any()):
                    wlk += np.bincount(
                        miss_aids[walk_mask], minlength=MAX_ARRAY_IDS
                    )
            n = 0  # chunk loop skipped
        elif n:
            if kmax < 1 << 16 and lookup_keys.dtype != np.uint16:
                lookup_keys = lookup_keys.astype(np.uint16)
            elif (
                kmax < 1 << 31
                and lookup_keys.dtype.itemsize > 4
            ):
                lookup_keys = lookup_keys.astype(np.int32)
        for lo in range(0, n, _CHUNK):
            keys = lookup_keys[lo : lo + _CHUNK]
            aids = lookup_array_ids[lo : lo + _CHUNK]
            if self.l1_fused is not None:
                miss = self.l1_fused.simulate(keys)
            else:
                huge = (keys & 1) != 0
                miss = np.empty(keys.size, dtype=bool)
                for structure, mask in (
                    (self.l1_base, ~huge),
                    (self.l1_huge, huge),
                ):
                    if bool(mask.any()):
                        miss[mask] = structure.simulate(keys[mask])
            if not bool(miss.any()):
                continue
            miss_aids = aids[miss]
            l1m += np.bincount(miss_aids, minlength=MAX_ARRAY_IDS)
            walk_mask = self.l2.simulate(keys[miss])
            if bool(walk_mask.any()):
                wlk += np.bincount(
                    miss_aids[walk_mask], minlength=MAX_ARRAY_IDS
                )
        return l1m, wlk


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------

TLB_ENGINES = ("exact", "batch", "native", "auto")

_ENGINE_CLASSES = {
    "exact": TranslationHierarchy,
    "batch": BatchTranslationHierarchy,
    "native": native.NativeTranslationHierarchy,
}

_auto_cache: dict[tuple, bool] = {}


def _probe_trace(config: TlbConfig, seed: int = 20220904) -> TlbTrace:
    """Deterministic probe exercising both page-size classes, set
    aliasing, capacity churn and ping-pong reuse, then the same keys
    again above 2^32 (a 64 GB node's high page numbers): an engine
    that narrows keys to 32 bits sees them as hits on the low keys."""
    rng = np.random.default_rng(seed)
    span = 4 * config.l2.entries
    pages = rng.integers(0, max(span, 8), size=4096)
    size_class = (rng.random(4096) < 0.25).astype(np.int64)
    keys = (pages << 1) | size_class
    hot = keys[: 8 * max(config.l1_base.ways, 1)]
    keys[rng.integers(0, keys.size, size=keys.size // 3)] = hot[
        rng.integers(0, hot.size, size=keys.size // 3)
    ]
    keys = np.concatenate([keys, keys[-1024:] + (1 << 33)])
    array_ids = rng.integers(0, 4, size=keys.size).astype(np.uint8)
    return compress_trace(keys, array_ids)


def batch_engine_matches(config: TlbConfig, engine: str = "batch") -> bool:
    """Self-check: run the probe trace through ``engine`` and the exact
    simulator (split in two batches, re-run with a flush in between)
    and compare counts.  Cached per engine and TLB geometry."""
    cache_key = (
        engine,
        config.l1_base.entries,
        config.l1_base.ways,
        config.l1_huge.entries,
        config.l1_huge.ways,
        config.l2.entries,
        config.l2.ways,
    )
    hit = _auto_cache.get(cache_key)
    if hit is not None:
        return hit
    trace = _probe_trace(config)
    half = trace.keys.size // 2
    parts = [
        TlbTrace(
            trace.keys[:half],
            trace.counts[:half],
            trace.array_ids[:half],
        ),
        TlbTrace(
            trace.keys[half:],
            trace.counts[half:],
            trace.array_ids[half:],
        ),
    ]
    exact = TranslationHierarchy(config)
    other = _ENGINE_CLASSES[engine](config)
    ok = True
    for flush_between in (False, True):
        s_exact = TranslationStats()
        s_other = TranslationStats()
        for part in parts:
            exact.simulate(part, s_exact)
            other.simulate(part, s_other)
            if flush_between:
                exact.flush()
                other.flush()
        ok = ok and (
            np.array_equal(s_exact.accesses, s_other.accesses)
            and np.array_equal(s_exact.l1_misses, s_other.l1_misses)
            and np.array_equal(s_exact.walks, s_other.walks)
        )
    _auto_cache[cache_key] = ok
    return ok


def make_hierarchy(
    engine: str, config: TlbConfig
) -> "TranslationHierarchy | BatchTranslationHierarchy":
    """Build the requested translation engine.

    ``auto`` selects the native engine when its kernel builds and
    passes a one-time per-geometry self-check against the exact
    simulator on a probe trace; otherwise the batch engine after the
    same check, and ``exact`` if that fails too (counts must never
    drift).

    Raises:
        ConfigError: ``native`` was asked for and cannot be built.
    """
    if engine == "auto":
        engine = _auto_engine(config)
    cls = _ENGINE_CLASSES.get(engine)
    if cls is None:
        raise ValueError(
            f"unknown tlb engine {engine!r}; expected one of {TLB_ENGINES}"
        )
    return cls(config)


def _auto_engine(config: TlbConfig) -> str:
    if native.load() is not None and batch_engine_matches(config, "native"):
        return "native"
    if batch_engine_matches(config):
        return "batch"
    return "exact"
