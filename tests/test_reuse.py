"""Tests for cross-cell reuse (repro.machine.reuse): the runner-scoped
compute memo and the batch-scoped stream store must never change a
single output byte, must miss on any change to their inputs, and must
stay out of the way of cells that observe or perturb the compute phase.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tiny
from repro.experiments.harness import ExperimentRunner
from repro.experiments.parse import parse_policy, parse_scenario
from repro.experiments.runconfig import RunConfig
from repro.faults.spec import FaultPlan
from repro.machine import reuse as reuse_module
from repro.machine.machine import Machine
from repro.machine.reuse import ComputeOutcome, ComputeReuse, compute_key
from repro.mem.stats import KernelLedger
from repro.obs.tracer import MetricsRegistry
from repro.policy.tournament import (
    BASELINE_SPEC,
    DEFAULT_POLICIES,
    run_tournament,
)
from repro.runstate.serialize import encode_result
from repro.workloads.layout import MemoryLayout

DATASET = "test-small"
SCENARIOS = ("fresh", "fragmented:0.5", "oversubscribed")
STREAM_ID = ("bfs", DATASET, "original", False, 3)


def _runner(**run_config) -> ExperimentRunner:
    return ExperimentRunner(
        config=tiny(),
        run_config=RunConfig(**run_config),
        datasets=(DATASET,),
    )


def _policy(spec: str):
    return parse_policy(spec, dataset=DATASET, config=tiny())


def _tournament_cells() -> list[tuple]:
    """The cells ``run_tournament`` runs, in its order."""
    return [
        ("bfs", DATASET, _policy(spec), parse_scenario(scenario))
        for scenario in SCENARIOS
        for spec in (BASELINE_SPEC,) + DEFAULT_POLICIES
    ]


def _encoded(result) -> str:
    # Not key-sorted: the ledgers' key order is part of the contract.
    return json.dumps(encode_result(result))


def _counters(runner: ExperimentRunner) -> dict[str, int]:
    return runner.metrics.snapshot()["counters"]


def _tournament(runner: ExperimentRunner) -> str:
    return run_tournament(
        runner, policies=DEFAULT_POLICIES, scenarios=SCENARIOS,
        datasets=(DATASET,),
    ).to_json()


@pytest.fixture(scope="module")
def reference():
    """Every tournament cell in its own fresh runner with reuse off (the
    code path without a handle), and the leaderboard built from them."""
    original = Machine.run

    def run_without_reuse(self, *args, **kwargs):
        kwargs["reuse"] = None
        return original(self, *args, **kwargs)

    Machine.run = run_without_reuse
    try:
        results = [_runner().run_cell(*cell) for cell in _tournament_cells()]
    finally:
        Machine.run = original
    seeded = _runner()
    for cell, result in zip(_tournament_cells(), results):
        seeded._cache[seeded._cell_key(*cell)] = result
    return [_encoded(r) for r in results], _tournament(seeded)


class TestDifferential:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_tournament_bytes_match_fresh_runners(self, reference, workers):
        cells_ref, leaderboard_ref = reference
        runner = _runner(workers=workers)
        leaderboard = _tournament(runner)
        results = [runner.run_cell(*cell) for cell in _tournament_cells()]
        assert [_encoded(r) for r in results] == cells_ref
        assert leaderboard == leaderboard_ref
        if workers == 1:
            assert _counters(runner)["reuse.compute_hits"] > 0

    def test_hits_equal_duplicate_manager_free_keys(self, monkeypatch):
        keys: list[bytes] = []

        def recording_key(*args):
            keys.append(compute_key(*args))
            return keys[-1]

        monkeypatch.setattr(reuse_module, "compute_key", recording_key)
        runner = _runner()
        _tournament(runner)
        manager_free = sum(
            policy.make_manager() is None
            for _, _, policy, _ in _tournament_cells()
        )
        counters = _counters(runner)
        assert len(keys) == manager_free
        assert counters["reuse.compute_hits"] == len(keys) - len(set(keys))
        assert counters["reuse.compute_hits"] > 0
        assert counters["reuse.compute_misses"] == len(set(keys))
        # Every cell shares bfs/test-small in natural or DBG order; the
        # cells that miss or bypass the memo replay the recorded streams.
        assert counters["reuse.stream_replays"] > 0


def _state(npages=(5, 9), seed=0):
    """A stub post-initialisation process: per-array placement, page
    sizes and residency."""
    rng = np.random.default_rng(seed)
    process = SimpleNamespace(
        config=tiny(), vma_by_array={}, _start_vpn={}, _start_hvpn={},
        _elem_bytes={},
    )
    for array_id, n in enumerate(npages):
        process.vma_by_array[array_id] = SimpleNamespace(
            is_huge=rng.random(n) < 0.5,
            frame=np.where(rng.random(n) < 0.7, np.arange(n), -2),
        )
        process._start_vpn[array_id] = 100 * (array_id + 1)
        process._start_hvpn[array_id] = 10 * (array_id + 1)
        process._elem_bytes[array_id] = 4
    return process


def _copy(process):
    clone = _state(
        tuple(v.is_huge.size for v in process.vma_by_array.values())
    )
    for array_id, vma in process.vma_by_array.items():
        clone.vma_by_array[array_id].is_huge = vma.is_huge.copy()
        clone.vma_by_array[array_id].frame = vma.frame.copy()
    clone._start_vpn = dict(process._start_vpn)
    clone._start_hvpn = dict(process._start_hvpn)
    clone._elem_bytes = dict(process._elem_bytes)
    return clone


_OUTCOME = ComputeOutcome(
    np.zeros(8, np.int64), np.zeros(8, np.int64), np.zeros(8, np.int64),
    KernelLedger(tiny().cost), 0, 0,
)


class TestMemoKeyProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        array_id=st.integers(0, 1),
        page=st.integers(0, 4),
        field=st.sampled_from(["is_huge", "resident", "start_vpn", "budget"]),
    )
    def test_any_input_change_misses_and_identical_state_hits(
        self, seed, array_id, page, field
    ):
        reuse = ComputeReuse(MetricsRegistry())
        state = _state(seed=seed)
        handle = reuse.cell(STREAM_ID)
        handle.remember(handle.key(1000, state, True), _OUTCOME)

        assert handle.recall(handle.key(1000, _copy(state), True)) is _OUTCOME

        changed = _copy(state)
        budget = 1000
        vma = changed.vma_by_array[array_id]
        if field == "is_huge":
            vma.is_huge[page] = not vma.is_huge[page]
        elif field == "resident":
            vma.frame[page] = -2 if vma.frame[page] >= 0 else 7
        elif field == "start_vpn":
            changed._start_vpn[array_id] += 1
        else:
            budget = 1001
        assert handle.recall(handle.key(budget, changed, True)) is None

    def test_stream_id_and_swap_check_are_keyed(self):
        state = _state()
        key = compute_key(STREAM_ID, None, state, True)
        assert compute_key(STREAM_ID, None, state, False) != key
        other = ("bfs", DATASET, "dbg", False, 3)
        assert compute_key(other, None, state, True) != key


def _swap_phase(ledger: KernelLedger) -> None:
    """The charges one compute phase makes, in service_swap's order."""
    ledger.swap_in(3)
    ledger.swap_out(3)
    ledger.minor_fault(3)


@pytest.mark.parametrize(
    "init_keys",
    [(), ("minor_fault",), ("swap_out", "minor_fault"), ("swap_in",)],
)
def test_isolated_phase_replays_like_direct_charging(init_keys):
    """Charging a phase apart and adding its snapshot to any ledger gives
    the counts, cycles and key order of charging that ledger directly."""
    cost = tiny().cost

    def initialised() -> KernelLedger:
        ledger = KernelLedger(cost)
        ledger.base_prep(2)
        for key in init_keys:
            ledger.add(key, 1, 0.5)
        return ledger

    direct = initialised()
    _swap_phase(direct)
    recorder = initialised()
    with recorder.isolated() as phase:
        _swap_phase(recorder)
    replayed = initialised()
    replayed.merge(phase)
    for ledger in (recorder, replayed):
        assert json.dumps(ledger.snapshot()) == json.dumps(direct.snapshot())


def _oversubscribed_run(reuse):
    """One bfs/test-small base4k cell under oversubscription, on a
    machine the test keeps."""
    runner = _runner()
    cell = _cells([("bfs", DATASET, "base4k", "oversubscribed")])[0]
    _, _, policy, scenario = cell
    graph, _ = runner._prepared_graph(DATASET, "original", weighted=False)
    workload = runner._make_workload("bfs", graph)
    machine = Machine(tiny(), policy.make_thp())
    runner._apply_scenario(
        machine, scenario, MemoryLayout(workload, policy.plan.order),
        policy.plan,
    )
    return machine, machine.run(workload, plan=policy.plan, reuse=reuse)


def test_hit_replays_swap_device_traffic():
    reuse = ComputeReuse(MetricsRegistry())
    (first, miss), (second, hit) = (
        _oversubscribed_run(reuse.cell(STREAM_ID)) for _ in range(2)
    )
    assert reuse.metrics.snapshot()["counters"] == {
        "reuse.compute_hits": 1, "reuse.compute_misses": 1,
    }
    assert miss.swap_ins > 0
    assert _encoded(hit) == _encoded(miss)
    assert (second.swap.pages_in, second.swap.pages_out) == (
        first.swap.pages_in, first.swap.pages_out,
    )


BASE4K_TWICE = [
    ("bfs", DATASET, "base4k", "fresh"),
    ("bfs", DATASET, "base4k", "fragmented:0.5"),
]
"""Two cells whose compute phases are identical: no huge pages, same
placement, nothing swapped."""


def _cells(specs):
    return [
        (w, d, _policy(p), parse_scenario(s)) for w, d, p, s in specs
    ]


class TestBypass:
    def test_identical_manager_free_cells_hit(self):
        runner = _runner()
        runner.run_cells(_cells(BASE4K_TWICE))
        counters = _counters(runner)
        assert counters["reuse.compute_misses"] == 1
        assert counters["reuse.compute_hits"] == 1

    @pytest.mark.parametrize(
        "specs, run_config",
        [
            (
                [
                    ("bfs", DATASET, "ingens", "fresh"),
                    ("bfs", DATASET, "ingens", "fragmented:0.5"),
                ],
                {},
            ),
            (BASE4K_TWICE, {"trace": True}),
            (
                BASE4K_TWICE,
                {"faults": FaultPlan.parse("compaction:after=1000000000")},
            ),
            (BASE4K_TWICE, {"cell_cycles": 10**15}),
        ],
        ids=["manager", "tracer", "faults", "watchdog"],
    )
    def test_observed_cells_never_look_up(self, specs, run_config):
        runner = _runner(**run_config)
        assert all(r.ok for r in runner.run_cells(_cells(specs)))
        counters = _counters(runner)
        assert "reuse.compute_hits" not in counters
        assert "reuse.compute_misses" not in counters


class TestStoreLifetime:
    def test_store_empty_after_batch_and_single_ids_never_kept(
        self, monkeypatch
    ):
        held: list[set] = []
        original = ComputeReuse.consumed

        def spying(self, stream_id):
            held.append(set(self._streams))
            original(self, stream_id)

        monkeypatch.setattr(ComputeReuse, "consumed", spying)
        runner = _runner()
        # The bfs cells share one stream id (the manager cell cannot hit
        # the memo, so it must replay); sssp's weighted stream has one
        # consumer.
        runner.run_cells(
            _cells(
                [
                    ("bfs", DATASET, "base4k", "fresh"),
                    ("sssp", DATASET, "base4k", "fresh"),
                    ("bfs", DATASET, "ingens", "fresh"),
                ]
            )
        )
        shared = ("bfs", DATASET, "original", False, 3)
        # Recorded by the first bfs cell, held until the last one is done.
        assert held == [{shared}] * 3
        assert not runner._reuse._streams
        assert _counters(runner)["reuse.stream_replays"] == 1

    def test_store_dropped_when_a_cell_fails(self):
        runner = _runner(cell_budget=10)
        results = runner.run_cells(_cells(BASE4K_TWICE))
        assert not any(r.ok for r in results)
        assert not runner._reuse._streams
        assert "reuse.stream_replays" not in _counters(runner)

    def test_clear_cache_empties_the_memo(self):
        runner = _runner()
        cells = _cells(BASE4K_TWICE[:1])
        runner.run_cells(cells)
        runner.clear_cache()
        runner.run_cells(cells)
        counters = _counters(runner)
        assert counters["reuse.compute_misses"] == 1
        assert "reuse.compute_hits" not in counters
