"""Per-layer host-time instrumentation of the simulator, from outside.

:func:`instrument` wraps each layer's public entry points on a
:class:`~spans.SpanRecorder`, patching every name where its caller looks
it up (``compress_trace`` in :mod:`repro.machine.process`,
``load_dataset`` in :mod:`repro.experiments.harness`, methods on their
classes).  :func:`layer_metrics` turns the recorded spans into the
per-layer metrics of ``BENCHMARK.json``, and :data:`LAYER_MAP` states
which end-to-end metric each should move, and on which workload.
"""

from __future__ import annotations

import gc
from typing import Any

import repro.policy.zoo  # noqa: F401  (defines manager subclasses)
from repro.experiments import harness
from repro.experiments.harness import ExperimentRunner
from repro.graph.reorder import ORDERINGS
from repro.machine import process
from repro.machine.machine import Machine
from repro.machine.process import SimProcess
from repro.mem.heuristics import HugePageManager
from repro.mem.physical import NodeMemory
from repro.mem.profiler import PageProfiler
from repro.mem.vmm import VirtualMemoryManager
from repro.runstate.journal import RunJournal
from repro.tlb.engine import BatchTranslationHierarchy
from repro.tlb.hierarchy import TranslationHierarchy
from repro.workloads.base import Workload
from spans import Span, SpanRecorder, totals_under

SETUP_ROOT = "setup"
"""Root span around a workload's set-up (graph build, reorder, self-check)."""

RUN_ROOT = "run"
"""Root span around one timed pass; its self time is harness glue."""

T, R, P = "tournament-kron-s", "bfs-road-m-frag", "pagerank-kron-m"

LAYER_MAP: dict[str, tuple[str, str, str]] = {
    # metric: (end-to-end metric it should move, mostly on, barely on)
    "graph.load_s": ("setup_s", P, T),
    "graph.reorder_s": ("setup_s", P, T),
    "workloads.stream_s": ("run_s", f"{P}, {T}", R),
    "workloads.accesses": ("run_s", f"{P}, {T}", R),
    "machine.translate_self_s": ("run_s", P, R),
    "machine.run_self_s": ("run_s", T, R),
    "tlb.compress_s": ("run_s", P, R),
    "tlb.lookups_per_access": ("run_s", P, R),
    "tlb.simulate_s": ("run_s", f"{T}, {P}", R),
    "tlb.ns_per_lookup": ("run_s", f"{T}, {P}", R),
    "tlb.fastpath_lookups": ("run_s", R, T),
    "tlb.chunked_lookups": ("run_s", f"{T}, {P}", R),
    "tlb.exact_lookups": ("run_s", "none (auto picks batch)", "all"),
    "mem.region_scan_s": ("run_s", f"{R}, {P}", T),
    "mem.region_scan_calls": ("run_s", f"{R}, {P}", T),
    "mem.init_self_s": ("run_s", f"{R}, {P}", T),
    "mem.scenario_setup_s": ("run_s", R, P),
    "mem.swap_s": ("run_s", T, f"{P}, {R}"),
    "mem.swap_ins": ("run_s", T, f"{P}, {R}"),
    "policy.observe_s": ("run_s", T, f"{P}, {R}"),
    "policy.manager_s": ("run_s", T, f"{P}, {R}"),
    "experiments.harness_self_s": ("run_s", T, f"{P}, {R}"),
    "runstate.journal_s": ("run_s", T, f"{P}, {R}"),
    "experiments.cells": ("run_s", T, f"{P}, {R}"),
    "traced_run_s": ("none (base of the shares)", "all", "-"),
    "trace_overhead_s": ("none", "all", "-"),
}

SELF_TIME_METRICS = {
    # metric: span names whose self times it sums (RUN_ROOT unless noted)
    "workloads.stream_s": ("workloads.stream",),
    "machine.translate_self_s": ("machine.translate",),
    "machine.run_self_s": ("machine.run",),
    "tlb.compress_s": ("tlb.compress",),
    "tlb.simulate_s": ("tlb.simulate",),
    "mem.region_scan_s": ("mem.region_scan",),
    "mem.init_self_s": ("mem.init",),
    "mem.scenario_setup_s": ("mem.scenario_setup",),
    "mem.swap_s": ("mem.swap",),
    "policy.observe_s": ("policy.observe",),
    "policy.manager_s": ("policy.manager",),
    "experiments.harness_self_s": (RUN_ROOT, "experiments.run_cells"),
    "runstate.journal_s": ("runstate.journal",),
}
"""Run-phase metrics that are sums of self times; together they account
for the whole traced pass."""


def _overriding(base: type, attr: str) -> list[type]:
    """``base`` and its subclasses that define a concrete ``attr``."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        method = vars(cls).get(attr)
        if method is not None and not getattr(
            method, "__isabstractmethod__", False
        ):
            found.append(cls)
    return found


def _lookups(trace: Any) -> int:
    return int(trace.lookup_view()[0].size)


def instrument(rec: SpanRecorder) -> None:
    """Wrap every layer's entry points on ``rec``."""
    rec.wrap(harness, "load_dataset", "graph.load")
    for name in ORDERINGS:
        rec.wrap(ORDERINGS, name, "graph.reorder")
    rec.wrap(
        ExperimentRunner,
        "run_cells",
        "experiments.run_cells",
        counts=lambda args, _: {"cells": len(args[1])},
    )
    rec.wrap(RunJournal, "begin", "runstate.journal")
    rec.wrap(RunJournal, "record_result", "runstate.journal")
    rec.wrap(Machine, "run", "machine.run")
    for cls in _overriding(Workload, "run"):
        rec.wrap_generator(
            cls,
            "run",
            "workloads.stream",
            counts=lambda stream: {"accesses": len(stream)},
        )
    rec.wrap(SimProcess, "translate", "machine.translate")
    rec.wrap(
        process,
        "compress_trace",
        "tlb.compress",
        counts=lambda _, trace: {
            "accesses": trace.total_accesses,
            "lookups": _lookups(trace),
        },
    )

    # The batch engine's path for a stream is whether its closed-sets
    # decision returned miss positions (fast path) or None (chunked).
    decided: list[bool] = []
    rec.hook(
        BatchTranslationHierarchy,
        "_closed_l1_decide",
        lambda positions: decided.append(positions is not None),
    )

    def batch_path(args: tuple, _: Any) -> dict[str, int]:
        fast = bool(decided) and decided[-1]
        decided.clear()
        key = "fastpath_lookups" if fast else "chunked_lookups"
        return {key: _lookups(args[1])}

    rec.wrap(
        BatchTranslationHierarchy, "simulate", "tlb.simulate", batch_path
    )
    rec.wrap(
        TranslationHierarchy,
        "simulate",
        "tlb.simulate",
        counts=lambda args, _: {"exact_lookups": _lookups(args[1])},
    )

    rec.wrap(NodeMemory, "region_free_counts", "mem.region_scan")
    rec.wrap(SimProcess, "allocate_and_touch", "mem.init")
    rec.wrap(VirtualMemoryManager, "khugepaged_pass", "mem.init")
    for attr in (
        "memhog_leave_free",
        "fragment",
        "scatter_noise",
        "reserve_hugetlb",
    ):
        rec.wrap(Machine, attr, "mem.scenario_setup")
    rec.wrap(
        SimProcess,
        "service_swap",
        "mem.swap",
        counts=lambda _, result: {"swap_ins": result[0]},
    )
    rec.wrap(PageProfiler, "observe", "policy.observe")
    for cls in _overriding(HugePageManager, "on_iteration"):
        rec.wrap(cls, "on_iteration", "policy.manager")


def traced_pass(workload, seed: int, workdir: str) -> tuple:
    """Set up and run one pass of ``workload`` with every layer wrapped,
    then restore the originals.  Returns ``(recorder, metrics, results,
    extra)``; ``metrics["traced_run_s"]`` is the pass's wall time."""
    rec = SpanRecorder()
    instrument(rec)
    try:
        setup_span = rec.open(SETUP_ROOT)
        prepared = workload.setup(seed, workdir)
        rec.close(setup_span)
        gc.collect()
        run_span = rec.open(RUN_ROOT)
        extra = workload.execute(prepared)
        rec.close(run_span)
    finally:
        rec.restore()
    try:
        results = workload.results(prepared)
    finally:
        prepared.close()
    metrics = layer_metrics(
        rec.spans, rec.spans.index(setup_span), rec.spans.index(run_span)
    )
    metrics["traced_run_s"] = run_span.duration
    return rec, metrics, results, extra


def layer_metrics(
    spans: list[Span], setup_root: int, run_root: int
) -> dict[str, float]:
    """The per-layer metrics of one traced set-up and pass."""
    setup = totals_under(spans, setup_root)
    run = totals_under(spans, run_root)

    def self_s(totals: dict, *names: str) -> float:
        return sum(totals[n].self_s for n in names if n in totals)

    def count(name: str, key: str) -> int:
        total = run.get(name)
        return total.counts.get(key, 0) if total is not None else 0

    metrics: dict[str, float] = {
        "graph.load_s": self_s(setup, "graph.load"),
        "graph.reorder_s": self_s(setup, "graph.reorder"),
    }
    for metric, names in SELF_TIME_METRICS.items():
        metrics[metric] = self_s(run, *names)
    compressed = count("tlb.compress", "accesses")
    lookups = sum(
        count("tlb.simulate", key)
        for key in ("fastpath_lookups", "chunked_lookups", "exact_lookups")
    )
    metrics.update(
        {
            "workloads.accesses": count("workloads.stream", "accesses"),
            "tlb.lookups_per_access": (
                count("tlb.compress", "lookups") / compressed
                if compressed
                else 0.0
            ),
            "tlb.ns_per_lookup": (
                metrics["tlb.simulate_s"] * 1e9 / lookups if lookups else 0.0
            ),
            "tlb.fastpath_lookups": count("tlb.simulate", "fastpath_lookups"),
            "tlb.chunked_lookups": count("tlb.simulate", "chunked_lookups"),
            "tlb.exact_lookups": count("tlb.simulate", "exact_lookups"),
            "mem.region_scan_calls": (
                run["mem.region_scan"].calls if "mem.region_scan" in run else 0
            ),
            "mem.swap_ins": count("mem.swap", "swap_ins"),
            "experiments.cells": count("experiments.run_cells", "cells"),
        }
    )
    return metrics
