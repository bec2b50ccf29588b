"""Equivalence properties for the batch and native translation engines.

Each engine's only contract is *bit-identical counts* to the exact
per-lookup simulator (``TranslationHierarchy`` / ``access_one``) on any
trace sequence — including carried TLB state across ``simulate`` calls,
flushes, fused vs split L1 geometries, keys above 2^32, and every
addressing mode of the batch engine's closed-sets fast path (direct,
rebased for large-base keys, wide-direct).

Seeded-random streams drive every engine through identical segment
sequences; a spy on ``_closed_l1_decide`` pins down *which* decision
procedure actually ran, so the fast-path tests cannot silently pass via
the chunked fallback.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import _build_parser
from repro.config import TlbConfig, TlbGeometry
from repro.errors import ConfigError
from repro.experiments.runconfig import RunConfig
from repro.tlb import engine as tlb_engine
from repro.tlb import native
from repro.tlb.engine import (
    TLB_ENGINES,
    BatchTranslationHierarchy,
    batch_engine_matches,
    make_hierarchy,
)
from repro.tlb.hierarchy import TranslationHierarchy, TranslationStats
from repro.tlb.native import NativeTranslationHierarchy
from repro.tlb.trace import TlbTrace, compress_trace

HAVE_NATIVE = native.load() is not None
"""False only where no working C compiler exists; CI asserts it is True."""
needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="the native kernel cannot be built here"
)

ENGINES = {"batch": BatchTranslationHierarchy}
if HAVE_NATIVE:
    ENGINES["native"] = NativeTranslationHierarchy

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


def _assert_same_state(exact, other):
    """A native engine's slots hold the exact engine's sets, MRU-first."""
    if not isinstance(other, NativeTranslationHierarchy):
        return
    structures = (exact.l1_base, exact.l1_huge, exact.l2)
    for tlb, slots in zip(structures, other.slots):
        assert [row[row >= 0].tolist() for row in slots] == tlb.sets


def _run_both(config, segments, flush_after=frozenset()):
    """Drive the exact engine and every engine of ``ENGINES`` through
    identical segments; assert every stats array matches exactly."""
    exact = TranslationHierarchy(config)
    others = [cls(config) for cls in ENGINES.values()]
    exact_stats = TranslationStats()
    other_stats = [TranslationStats() for _ in others]
    for i, (keys, aids) in enumerate(segments):
        trace = compress_trace(keys, aids)
        exact.simulate(trace, exact_stats)
        for other, stats in zip(others, other_stats):
            other.simulate(trace, stats)
        if i in flush_after:
            exact.flush()
            for other in others:
                other.flush()
        for other in others:
            _assert_same_state(exact, other)
    for stats in other_stats:
        for field in ("accesses", "l1_misses", "walks"):
            np.testing.assert_array_equal(
                getattr(exact_stats, field), getattr(stats, field)
            )
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
def test_wide_keys_match_exact(name):
    """Keys above 2^32 (a 64 GB node's page numbers), mixed with low
    keys whose low 32 bits they share."""
    rng = np.random.default_rng(29)
    segments = []
    for keys, aids in _random_segments(rng, 4, 600, 96):
        segments += [(keys, aids), (keys + (1 << 33), aids)]
    _run_both(GEOMETRIES[name], segments, {3})


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
    step, under the batch and native engines.  A batch memo hit must
    also restore the exit state and the per-structure hit and miss
    counters of a memo-free batch engine, which only ever sees fresh
    copies."""
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
    natives = [NativeTranslationHierarchy(config)] if HAVE_NATIVE else []
    engines = (exact, batch, memo_free, *natives)
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
        for compiled, compiled_stats in zip(natives, stats[3:]):
            compiled.simulate(trace, compiled_stats)
            _assert_same_state(exact, compiled)
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
    # auto = native after the one-time per-geometry self-check, batch
    # where the kernel cannot be built.
    assert batch_engine_matches(config)
    auto = make_hierarchy("auto", config)
    if HAVE_NATIVE:
        assert make_hierarchy("native", config).engine == "native"
        assert batch_engine_matches(config, "native")
        assert isinstance(auto, NativeTranslationHierarchy)
    else:
        assert type(auto) is BatchTranslationHierarchy
    with pytest.raises(ValueError):
        make_hierarchy("per-lookup", config)
    assert set(TLB_ENGINES) == {"exact", "batch", "native", "auto"}


@pytest.mark.parametrize("name", TLB_ENGINES)
def test_every_engine_name_is_accepted(name):
    """``RunConfig`` and ``--tlb-engine`` accept the same names."""
    assert RunConfig(tlb_engine=name).tlb_engine == name
    args = _build_parser().parse_args(
        ["run", "--workload", "bfs", "--tlb-engine", name]
    )
    assert RunConfig.from_cli(args).tlb_engine == name


@needs_native
def test_native_access_one_matches_exact():
    config = GEOMETRIES["split-12way"]
    exact = TranslationHierarchy(config)
    compiled = NativeTranslationHierarchy(config)
    rng = np.random.default_rng(31)
    for key in ((rng.integers(0, 40, size=400) << 1) | 1).tolist():
        assert compiled.access_one(key) == exact.access_one(key)
    _assert_same_state(exact, compiled)


def test_no_compiler_falls_back_to_batch(monkeypatch, tmp_path):
    """With no working compiler and an empty cache, ``auto`` picks the
    batch engine and ``native`` is a clear error."""
    monkeypatch.setenv("CC", "false")
    monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
    monkeypatch.setattr(tlb_engine, "_auto_cache", {})
    config = GEOMETRIES["split-12way"]
    assert native.load() is None
    assert type(make_hierarchy("auto", config)) is BatchTranslationHierarchy
    with pytest.raises(ConfigError, match="native TLB engine"):
        make_hierarchy("native", config)
    assert list(tmp_path.iterdir()) == []


@needs_native
def test_concurrent_builds_share_one_library(tmp_path):
    """Two processes building into one empty cache both load the kernel
    and leave one library behind."""
    env = dict(
        os.environ,
        XDG_CACHE_HOME=str(tmp_path),
        PYTHONPATH=str(Path(native.__file__).parents[2]),
    )
    code = "from repro.tlb import native; exit(native.load() is None)"
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env=env)
        for _ in range(2)
    ]
    assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
    assert [p.name for p in (tmp_path / "repro").iterdir()] == [
        native.library_name()
    ]


def _narrow(keys):
    return keys.astype(np.int32).astype(np.int64)


@needs_native
def test_self_check_catches_32_bit_keys(monkeypatch):
    """The probe's keys above 2^32 fail an engine that narrows them."""
    config = GEOMETRIES["split-12way"]
    monkeypatch.setattr(tlb_engine, "_auto_cache", {})
    assert batch_engine_matches(config)
    assert batch_engine_matches(config, "native")
    monkeypatch.setattr(tlb_engine, "_auto_cache", {})
    simulate = BatchTranslationHierarchy._simulate
    lookups = NativeTranslationHierarchy._lookups
    monkeypatch.setattr(
        BatchTranslationHierarchy,
        "_simulate",
        lambda self, trace: simulate(
            self, TlbTrace(_narrow(trace.keys), trace.counts, trace.array_ids)
        ),
    )
    monkeypatch.setattr(
        NativeTranslationHierarchy,
        "_lookups",
        lambda self, keys, aids: lookups(self, _narrow(keys), aids),
    )
    assert not batch_engine_matches(config)
    assert not batch_engine_matches(config, "native")


@needs_native
def test_array_ids_beyond_max_are_refused():
    """A miss by an array id past ``MAX_ARRAY_IDS`` raises, as in the
    exact loop, instead of counting past the per-array counters."""
    config = GEOMETRIES["split-12way"]
    keys = np.array([2, 4], dtype=np.int64)
    aids = np.array([1, 9], dtype=np.uint8)
    for cls in (TranslationHierarchy, NativeTranslationHierarchy):
        with pytest.raises(IndexError):
            cls(config)._lookups(keys, aids)
