"""Tests of the benchmark's own machinery.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cells  # noqa: E402
import layers  # noqa: E402
from repro.graph import datasets  # noqa: E402
from spans import Span, SpanRecorder, self_times, totals_under  # noqa: E402

TEST_SMALL = cells.Workload(
    "test-small",
    "scaled",
    (
        ("bfs", "test-small", "never", "fresh"),
        ("pagerank", "test-small", "hawkeye", "constrained:0.5"),
    ),
)


def test_self_times_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 2.0, 3.0, parent=1),
        Span("c", 5.0, 9.0, parent=0),
        Span("b", 6.0, 8.0, parent=3),
        Span("other", 20.0, 21.0),
        Span("b", 20.5, 20.75, parent=5),
    ]
    assert self_times(spans) == pytest.approx(
        [3.0, 2.0, 1.0, 2.0, 2.0, 0.75, 0.25]
    )
    totals = totals_under(spans, 0)
    assert set(totals) == {"root", "a", "b", "c"}
    assert totals["b"].self_s == pytest.approx(3.0)
    assert totals["b"].calls == 2
    assert sum(t.self_s for t in totals.values()) == pytest.approx(10.0)


def test_recorder_nests_counts_and_restores():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))

    class Box:
        def outer(self):
            return sum(self.inner() for _ in range(2))

        def inner(self):
            return 21

    originals = dict(vars(Box))
    rec.wrap(Box, "outer", "outer")
    rec.wrap(Box, "inner", "inner", counts=lambda args, result: {"v": result})
    assert Box().outer() == 42
    rec.restore()
    assert vars(Box)["outer"] is originals["outer"]
    assert vars(Box)["inner"] is originals["inner"]
    assert [(s.name, s.parent) for s in rec.spans] == [
        ("outer", -1),
        ("inner", 0),
        ("inner", 0),
    ]
    totals = totals_under(rec.spans, 0)
    assert totals["inner"].counts == {"v": 42}
    assert totals["outer"].self_s + totals["inner"].self_s == pytest.approx(
        rec.spans[0].duration
    )


def test_generator_steps_are_spans():
    rec = SpanRecorder()

    def items():
        yield [1, 2]
        yield [3]

    holder = {"gen": items}
    rec.wrap_generator(holder, "gen", "step", counts=lambda item: {"n": len(item)})
    assert list(holder["gen"]()) == [[1, 2], [3]]
    rec.restore()
    assert [s.name for s in rec.spans] == ["step"] * 3  # two items, one stop
    assert sum((s.counts or {}).get("n", 0) for s in rec.spans) == 3


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def _untraced_digest(workdir: str) -> str:
    prepared = TEST_SMALL.setup(cells.DEFAULT_SEED, workdir)
    try:
        extra = TEST_SMALL.execute(prepared)
        return cells.digest(TEST_SMALL.results(prepared), extra)
    finally:
        prepared.close()


def test_traced_pass_restores_wrappers_and_keeps_digest(tmp_path):
    probe = SpanRecorder()
    layers.instrument(probe)
    patched = list(probe._patches)
    probe.restore()
    assert len(patched) > 20
    for owner, attr, original in patched:
        assert _current(owner, attr) is original

    untraced = _untraced_digest(str(tmp_path))
    rec, metrics, results, extra = layers.traced_pass(
        TEST_SMALL, cells.DEFAULT_SEED, str(tmp_path)
    )
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, (owner, attr)
    assert cells.digest(results, extra) == untraced
    assert all(cells.cell_ok(r) for r in results)

    names = {s.name for s in rec.spans}
    assert {"machine.run", "workloads.stream", "tlb.simulate"} <= names
    assert metrics["experiments.cells"] == 2
    assert metrics["workloads.accesses"] == cells.total_accesses(results)
    layered = sum(metrics[m] for m in layers.SELF_TIME_METRICS)
    assert layered == pytest.approx(metrics["traced_run_s"])


def test_default_seed_reproduces_stock_datasets():
    stock_recipes = {"kron-s": datasets._kron, "road-m": datasets._road_m}
    for name, recipe in stock_recipes.items():
        stock = recipe(False)
        seeded = cells._recipes(cells.DEFAULT_SEED)[name](False)
        assert stock.num_edges == seeded.num_edges
        for field in ("indptr", "indices"):
            assert (getattr(stock, field) == getattr(seeded, field)).all()


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(cells.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.LAYER_MAP)
    pinned = json.loads((HERE / "digests.json").read_text())
    assert set(pinned) == set(cells.WORKLOADS)
