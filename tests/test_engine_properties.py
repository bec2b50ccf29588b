"""Equivalence properties for the vectorized batch translation engine.

The batch engine's only contract is *bit-identical counts* to the exact
per-lookup simulator (``TranslationHierarchy`` / ``access_one``) on any
trace sequence — including carried TLB state across ``simulate`` calls,
flushes, fused vs split L1 geometries, and every addressing mode of the
closed-sets fast path (direct, rebased for large-base keys, wide-direct).

Seeded-random streams drive both engines through identical segment
sequences; a spy on ``_closed_l1_decide`` pins down *which* decision
procedure actually ran, so the fast-path tests cannot silently pass via
the chunked fallback.
"""

import numpy as np
import pytest

from repro.config import TlbConfig, TlbGeometry
from repro.tlb.engine import (
    TLB_ENGINES,
    BatchTranslationHierarchy,
    batch_engine_matches,
    make_hierarchy,
)
from repro.tlb.hierarchy import TranslationHierarchy, TranslationStats
from repro.tlb.trace import TlbTrace, compress_trace

GEOMETRIES = {
    # Direct-mapped everywhere: every re-reference of a conflicting key
    # misses, the harshest eviction pattern.
    "ways-1": TlbConfig(
        l1_base=TlbGeometry(entries=8, ways=1),
        l1_huge=TlbGeometry(entries=4, ways=1),
        l2=TlbGeometry(entries=16, ways=1),
    ),
    # Fully associative: one set, pure LRU.
    "full-assoc": TlbConfig(
        l1_base=TlbGeometry(entries=4, ways=4),
        l1_huge=TlbGeometry(entries=4, ways=4),
        l2=TlbGeometry(entries=8, ways=8),
    ),
    # Non-power-of-two ways (sets stay a power of two), split L1.
    "split-12way": TlbConfig(
        l1_base=TlbGeometry(entries=16, ways=4),
        l1_huge=TlbGeometry(entries=8, ways=2),
        l2=TlbGeometry(entries=48, ways=12),
    ),
    # Identical L1 geometries -> the engine fuses both size classes
    # into one structure pass.
    "fused": TlbConfig(
        l1_base=TlbGeometry(entries=8, ways=4),
        l1_huge=TlbGeometry(entries=8, ways=4),
        l2=TlbGeometry(entries=32, ways=4),
    ),
}


def _run_both(config, segments, flush_after=frozenset()):
    """Drive exact and batch engines through identical segments;
    assert every stats array matches exactly."""
    exact = TranslationHierarchy(config)
    batch = BatchTranslationHierarchy(config)
    exact_stats = TranslationStats()
    batch_stats = TranslationStats()
    for i, (keys, aids) in enumerate(segments):
        trace = compress_trace(keys, aids)
        exact.simulate(trace, exact_stats)
        batch.simulate(trace, batch_stats)
        if i in flush_after:
            exact.flush()
            batch.flush()
    np.testing.assert_array_equal(exact_stats.accesses, batch_stats.accesses)
    np.testing.assert_array_equal(
        exact_stats.l1_misses, batch_stats.l1_misses
    )
    np.testing.assert_array_equal(exact_stats.walks, batch_stats.walks)
    return exact_stats


def _random_segments(
    rng, num_segments, seg_size, num_pages, base=0, huge_fraction=0.3
):
    segments = []
    for _ in range(num_segments):
        n = int(rng.integers(1, seg_size + 1))
        pages = rng.integers(0, num_pages, size=n) + base
        huge = rng.random(n) < huge_fraction
        keys = ((pages << 1) | huge).astype(np.int64)
        aids = rng.integers(0, 5, size=n).astype(np.uint8)
        segments.append((keys, aids))
    return segments


@pytest.fixture
def fast_path_spy(monkeypatch):
    """Record whether each simulate() call took the closed-sets fast
    path (decision returned non-None) or fell through to chunks."""
    fired = []
    original = BatchTranslationHierarchy._closed_l1_decide

    def spy(self, lookup_keys, kmax):
        result = original(self, lookup_keys, kmax)
        fired.append(result is not None)
        return result

    monkeypatch.setattr(BatchTranslationHierarchy, "_closed_l1_decide", spy)
    return fired


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_streams_match_exact(name, seed):
    """Carried state + random flushes across many segments."""
    rng = np.random.default_rng(1000 * seed + hash(name) % 997)
    segments = _random_segments(rng, num_segments=6, seg_size=800, num_pages=64)
    flush_after = {int(i) for i in rng.integers(0, 6, size=2)}
    _run_both(GEOMETRIES[name], segments, flush_after)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_multi_chunk_stream_matches_exact(name):
    """A single segment longer than the engine's chunk size exercises
    warm-state carry between chunks inside one simulate() call."""
    from repro.tlb.engine import _CHUNK

    rng = np.random.default_rng(7)
    n = _CHUNK + 1234
    pages = rng.integers(0, 256, size=n)
    keys = ((pages << 1) | (rng.random(n) < 0.25)).astype(np.int64)
    aids = rng.integers(0, 5, size=n).astype(np.uint8)
    _run_both(GEOMETRIES[name], [(keys, aids)])


@pytest.mark.parametrize("name", ["fused", "split-12way", "ways-1"])
def test_closed_fast_path_with_carried_state(name, fast_path_spy):
    """Small key universes stay closed: the fast path must fire, and a
    carried key recurring in a later segment must not be re-counted as
    a miss (regression guard for the first-occurrence scatter order)."""
    config = GEOMETRIES[name]
    rng = np.random.default_rng(11)
    # Few enough distinct keys that every L1 set holds its share.
    universe = np.array([0, 2, 4, 6, 1, 3], dtype=np.int64)
    segments = []
    for _ in range(5):
        n = int(rng.integers(50, 200))
        segments.append(
            (
                universe[rng.integers(0, universe.size, size=n)],
                rng.integers(0, 5, size=n).astype(np.uint8),
            )
        )
    _run_both(config, segments)
    assert any(fast_path_spy), "closed stream never took the fast path"


def test_closed_fast_path_rebased_large_base(fast_path_spy):
    """Keys clustered near 2**30 (a 64GB node's VPNs): the fast path
    must rebase rather than decline, and still match exactly."""
    rng = np.random.default_rng(13)
    base = 1 << 30
    segments = _random_segments(
        rng, num_segments=4, seg_size=300, num_pages=4, base=base
    )
    _run_both(GEOMETRIES["fused"], segments)
    assert any(fast_path_spy), "rebased closed stream never fast-pathed"


def test_closed_fast_path_wide_direct(fast_path_spy):
    """Distinct keys spread over more than 2**16 but below 2**24: the
    span is too wide to rebase into a 16-bit table, so the wide-direct
    table must pick it up.  The stride keeps every key in one L1 set,
    so the universe must fit within a single set's ways."""
    rng = np.random.default_rng(17)
    universe = (np.arange(4, dtype=np.int64) * (1 << 17)) << 1
    n = 500
    keys = universe[rng.integers(0, universe.size, size=n)]
    aids = rng.integers(0, 5, size=n).astype(np.uint8)
    _run_both(GEOMETRIES["fused"], [(keys, aids)])
    assert any(fast_path_spy), "wide-span closed stream never fast-pathed"


def test_open_stream_declines_fast_path(fast_path_spy):
    """A stream with more conflicting keys than L1 capacity must fall
    through to the chunked engine — and still match."""
    rng = np.random.default_rng(19)
    segments = _random_segments(
        rng, num_segments=2, seg_size=2000, num_pages=512
    )
    _run_both(GEOMETRIES["ways-1"], segments)
    assert not all(fast_path_spy), "over-capacity stream fast-pathed"


def _copy(trace):
    return TlbTrace(
        trace.keys.copy(), trace.counts.copy(), trace.array_ids.copy()
    )


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_repeated_trace_objects_match_exact(name, seed, monkeypatch):
    """The same trace objects simulated again and again, interleaved
    with other traces and flushes, match the exact engine after every
    step.  A memo hit must also restore the exit state and the
    per-structure hit and miss counters of a memo-free batch engine,
    which only ever sees fresh copies."""
    rng = np.random.default_rng(seed)
    config = GEOMETRIES[name]
    closed = np.array([0, 2, 4, 1], dtype=np.int64)
    pool = [
        compress_trace(keys, aids)
        for keys, aids in _random_segments(rng, 3, 600, 48)
    ]
    pool.append(
        compress_trace(
            closed[rng.integers(0, closed.size, size=300)],
            rng.integers(0, 5, size=300).astype(np.uint8),
        )
    )
    # Runs of one trace reach a steady state (PageRank's case); flushes
    # return to the empty state; -1 is a flush.
    schedule = [0, 0, 0, 1, -1, 0, 3, 3, -1, 0, 2, 1, 2, 1, 2, 1, -1, 3]
    schedule += [int(i) for i in rng.integers(-1, len(pool), size=40)]

    simulated = []
    inner = BatchTranslationHierarchy._simulate

    def counting(self, trace):
        if self is batch:
            simulated.append(trace)
        return inner(self, trace)

    monkeypatch.setattr(BatchTranslationHierarchy, "_simulate", counting)
    exact = TranslationHierarchy(config)
    batch = BatchTranslationHierarchy(config)
    memo_free = BatchTranslationHierarchy(config)
    engines = (exact, batch, memo_free)
    stats = [TranslationStats() for _ in engines]
    calls = 0
    for step in schedule:
        if step < 0:
            for engine in engines:
                engine.flush()
            continue
        trace = pool[step]
        exact.simulate(trace, stats[0])
        batch.simulate(trace, stats[1])
        memo_free.simulate(_copy(trace), stats[2])
        calls += 1
        for other in stats[1:]:
            for field in ("accesses", "l1_misses", "walks"):
                np.testing.assert_array_equal(
                    getattr(other, field), getattr(stats[0], field)
                )
        for mine, reference in zip(
            batch._structures, memo_free._structures
        ):
            np.testing.assert_array_equal(
                mine.state_keys, reference.state_keys
            )
            assert (mine.hits, mine.misses) == (
                reference.hits, reference.misses
            )
    assert 0 < len(simulated) < calls, "the memo never hit"


def test_non_power_of_two_occupancy():
    """Odd-sized streams and partial sets (the non-power-of-two
    occupancy case) across every geometry."""
    rng = np.random.default_rng(23)
    for config in GEOMETRIES.values():
        for n in (1, 3, 7, 129, 1021):
            pages = rng.integers(0, 48, size=n)
            keys = ((pages << 1) | (rng.random(n) < 0.5)).astype(np.int64)
            aids = rng.integers(0, 5, size=n).astype(np.uint8)
            _run_both(config, [(keys, aids)])


def test_make_hierarchy_engine_selection():
    config = GEOMETRIES["split-12way"]
    assert isinstance(make_hierarchy("exact", config), TranslationHierarchy)
    batch = make_hierarchy("batch", config)
    assert isinstance(batch, BatchTranslationHierarchy)
    assert batch.engine == "batch"
    assert make_hierarchy("exact", config).engine == "exact"
    # auto = batch after the one-time per-geometry self-check.
    assert batch_engine_matches(config)
    assert isinstance(
        make_hierarchy("auto", config), BatchTranslationHierarchy
    )
    with pytest.raises(ValueError):
        make_hierarchy("per-lookup", config)
    assert set(TLB_ENGINES) == {"exact", "batch", "auto"}
