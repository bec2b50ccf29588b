"""Tests for reuse within a cell: PageRank yields the same stream object
every iteration, ``SimProcess.translate`` memoises its trace on that
object and the page-size maps, and the batch engine memoises each
trace's simulation on the carried TLB state.  None of it may change a
byte of any output, including trace records, and none of it may keep a
stream, a trace or a memo entry alive past ``Machine.run``.
"""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest

from repro.config import scaled, tiny
from repro.experiments.harness import ExperimentRunner
from repro.experiments.parse import parse_policy, parse_scenario
from repro.experiments.runconfig import RunConfig
from repro.machine import machine as machine_module
from repro.machine.process import SimProcess
from repro.machine.reuse import ComputeReuse
from repro.mem.vmm import VirtualMemoryManager
from repro.policy.tournament import BASELINE_SPEC, DEFAULT_POLICIES
from repro.runstate.serialize import encode_result
from repro.tlb import native
from repro.tlb.engine import BatchTranslationHierarchy
from repro.tlb.trace import AccessStream
from repro.workloads.bfs import Bfs
from repro.workloads.layout import MemoryLayout
from repro.workloads.pagerank import PageRank

DATASET = "test-small"
SCENARIOS = ("fresh", "fragmented:0.5", "oversubscribed")
ENGINES = (
    "exact",
    "batch",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            native.load() is None,
            reason="the native kernel cannot be built here",
        ),
    ),
)


def _runner(config=None, **run_config) -> ExperimentRunner:
    return ExperimentRunner(
        config=tiny() if config is None else config,
        run_config=RunConfig(**run_config),
        datasets=(DATASET,),
    )


def _cells(
    workloads=("pagerank", "bfs"), specs=None, scenarios=SCENARIOS,
    config=None,
):
    specs = (BASELINE_SPEC,) + DEFAULT_POLICIES if specs is None else specs
    config = tiny() if config is None else config
    return [
        (
            workload,
            DATASET,
            parse_policy(spec, dataset=DATASET, config=config),
            parse_scenario(scenario),
        )
        for workload in workloads
        for scenario in scenarios
        for spec in specs
    ]


def _encoded(results) -> list[str]:
    # Not key-sorted: the ledgers' key order is part of the contract.
    return [json.dumps(encode_result(result)) for result in results]


def _fresh_copies(monkeypatch) -> None:
    """Make every kernel yield a new copy of each stream, so neither the
    translation memo nor the engine memo can ever hit."""
    for cls in (PageRank, Bfs):
        original = cls.run

        def run(self, _original=original):
            for stream in _original(self):
                yield AccessStream(
                    stream.array_ids.copy(), stream.indices.copy()
                )

        monkeypatch.setattr(cls, "run", run)


@pytest.fixture
def engine_spy(monkeypatch):
    """Count batch-engine ``simulate`` calls and the ones that actually
    ran the simulation (the rest were memo hits)."""
    calls = {"simulate": 0, "simulated": 0}
    simulate = BatchTranslationHierarchy.simulate
    inner = BatchTranslationHierarchy._simulate

    def counting_simulate(self, trace, stats):
        calls["simulate"] += 1
        simulate(self, trace, stats)

    def counting_inner(self, trace):
        calls["simulated"] += 1
        return inner(self, trace)

    monkeypatch.setattr(
        BatchTranslationHierarchy, "simulate", counting_simulate
    )
    monkeypatch.setattr(
        BatchTranslationHierarchy, "_simulate", counting_inner
    )
    return calls


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("profile", [tiny, scaled])
def test_cells_match_a_run_with_fresh_streams(
    profile, engine, monkeypatch, engine_spy
):
    """Every policy under every scenario gives the same bytes as a run
    whose kernels yield a fresh copy of every stream.  On ``scaled`` the
    manager policies promote between iterations, which rewrites the
    page-size maps and flushes the TLB (its node is too large for the
    ``oversubscribed`` scenario)."""
    config = profile()
    scenarios = SCENARIOS if profile is tiny else SCENARIOS[:2]
    cells = _cells(scenarios=scenarios, config=config)
    results = _runner(config, tlb_engine=engine).run_cells(cells)
    memoised = _encoded(results)
    if engine == "batch":
        assert engine_spy["simulated"] < engine_spy["simulate"]
    if profile is scaled:
        assert any(
            r.manager_promotions for r in results if r.workload == "pagerank"
        )
    with monkeypatch.context() as patch:
        _fresh_copies(patch)
        engine_spy.update(simulate=0, simulated=0)
        fresh = _encoded(_runner(config, tlb_engine=engine).run_cells(cells))
        assert engine_spy["simulated"] == engine_spy["simulate"]
    assert memoised == fresh


@pytest.mark.parametrize("engine", ENGINES)
def test_traced_pagerank_records_match(engine, monkeypatch, engine_spy):
    """A memo hit emits the ``tlb.stream`` event the simulation would
    have: trace records are byte-identical with and without the memos.
    On ``scaled``, ``ingens`` promotes between iterations."""
    config = scaled()
    cells = _cells(
        ("pagerank",), ("base4k", "thp", "ingens"), ("fresh",), config
    )

    def traced_runs():
        runner = _runner(config, tlb_engine=engine, trace=True)
        results = runner.run_cells(cells)
        return [json.dumps(result.trace) for result in results], results

    memoised, results = traced_runs()
    for result in results:
        streams = [e for e in result.trace if e["name"] == "tlb.stream"]
        assert [e["stream"] for e in streams] == list(range(6))
    if engine == "batch":
        assert engine_spy["simulated"] < engine_spy["simulate"]
    with monkeypatch.context() as patch:
        _fresh_copies(patch)
        fresh, _ = traced_runs()
    assert memoised == fresh


def test_translate_memo_keys_on_page_size_maps():
    """Changing any array's page-size map between two translations of
    the same stream object gives the fresh translation, not the memo."""
    runner = _runner()
    graph, _ = runner._prepared_graph(DATASET, "original", weighted=False)
    workload = runner._make_workload("pagerank", graph)
    _, _, policy, _ = _cells(("pagerank",), ("base4k",), ("fresh",))[0]
    machine = machine_module.Machine(tiny(), policy.make_thp())
    vmm = VirtualMemoryManager(machine.app_node, machine.thp, machine.config)
    layout = MemoryLayout(workload, policy.plan.order)
    process = SimProcess(vmm, workload, layout, machine.config)
    process.allocate_and_touch(policy.plan)
    stream = next(iter(workload.run()))

    first = process.translate(stream)
    assert process.translate(stream) is first
    for vma in process.vma_by_array.values():
        vma.is_huge[:] = True
        again = process.translate(stream)
        assert again is not first
        fresh = process._translate(stream)
        np.testing.assert_array_equal(again.keys, fresh.keys)
        np.testing.assert_array_equal(again.counts, fresh.counts)
        first = again


class TestLifetime:
    @pytest.mark.parametrize("workload", ["bfs", "pagerank"])
    def test_nothing_outlives_the_cell(self, workload, monkeypatch):
        """Streams, traces, the per-cell process and hierarchy and every
        memo entry are gone once the cell returns."""
        held: list[weakref.ref] = []
        memos: list[weakref.WeakKeyDictionary] = []
        translate = SimProcess.translate
        make_hierarchy = machine_module.make_hierarchy

        def tracking_translate(self, stream):
            trace = translate(self, stream)
            held.extend(
                [weakref.ref(self), weakref.ref(stream), weakref.ref(trace)]
            )
            memos.append(self._traces)
            return trace

        def tracking_hierarchy(engine, config):
            hierarchy = make_hierarchy(engine, config)
            held.append(weakref.ref(hierarchy))
            memos.append(hierarchy._outcomes)
            return hierarchy

        monkeypatch.setattr(SimProcess, "translate", tracking_translate)
        monkeypatch.setattr(
            machine_module, "make_hierarchy", tracking_hierarchy
        )
        runner = _runner(tlb_engine="batch")
        cells = _cells((workload,), ("base4k", "ingens"), ("fresh",))
        assert all(result.ok for result in runner.run_cells(cells))
        assert held and memos
        gc.collect()
        assert [ref for ref in held if ref() is not None] == []
        assert [len(memo) for memo in memos] == [0] * len(memos)


def test_store_records_repeated_streams_once(monkeypatch):
    """Two PageRank cells share one stream id: the first records the two
    distinct stream objects once each, and the replaying cell gets two
    objects, each yielded three times."""
    recordings = []
    seen: list[list[AccessStream]] = []
    consumed = ComputeReuse.consumed
    translate = SimProcess.translate
    run_cell_streams: list[AccessStream] = []

    def spying_consumed(self, stream_id):
        recordings.append(self._streams.get(stream_id))
        seen.append(list(run_cell_streams))
        run_cell_streams.clear()
        consumed(self, stream_id)

    def spying_translate(self, stream):
        run_cell_streams.append(stream)
        return translate(self, stream)

    monkeypatch.setattr(ComputeReuse, "consumed", spying_consumed)
    monkeypatch.setattr(SimProcess, "translate", spying_translate)
    runner = _runner()
    # The manager cell cannot hit the compute memo, so it must replay.
    cells = _cells(("pagerank",), ("base4k", "ingens"), ("fresh",))
    assert all(result.ok for result in runner.run_cells(cells))
    recording = recordings[0]
    assert recording is recordings[1]
    assert len(recording.parts) == 2
    assert recording.order == [0, 1, 0, 1, 0, 1]
    assert _counters(runner)["reuse.stream_replays"] == 1
    for streams in seen:
        assert len(streams) == 6
        assert all(streams[i] is streams[i % 2] for i in range(6))
        assert streams[0] is not streams[1]
    assert not set(seen[0]) & set(seen[1])
    assert not runner._reuse._streams


def _counters(runner: ExperimentRunner) -> dict[str, int]:
    return runner.metrics.snapshot()["counters"]
