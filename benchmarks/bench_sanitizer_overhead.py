"""MemSan overhead guard.

Like the fault injector, the sanitizer must be free when unused: every
hook site is a single ``sanitizer is not None`` test, so a machine built
with ``sanitize=False`` runs the exact pre-MemSan hot path.  This
benchmark bounds that claim empirically on a fig01-style cell (BFS on
kron-s, THP, fresh boot, SCALED profile):

- *off*: ``Machine(sanitize=False)`` — the guards all fail, no
  sanitizer object exists anywhere;
- *null*: the same machine with a :class:`NullSanitizer` wired into
  every subsystem, so each guard passes and dispatches to a no-op.

The null run is a strict superset of the off run's work (guard plus
dynamic dispatch at every hook site), so ``null/off - 1`` upper-bounds
the cost of carrying the hooks.  Both must stay within the 2% budget.
The *checking* sanitizer is deliberately not budgeted — it is a debug
tool, and its array sweeps are allowed to cost real time.  Timings are
interleaved min-of-N so machine noise cancels rather than accumulates.
"""

from __future__ import annotations

import gc
import time

from repro.config import scaled
from repro.graph.datasets import load_dataset
from repro.machine.machine import Machine
from repro.mem.sanitizer import NullSanitizer
from repro.mem.thp import ThpPolicy
from repro.workloads.registry import create_workload

ROUNDS = 5
OVERHEAD_BUDGET = 0.02


def _run_once(graph, dataset_name: str, attach_null: bool) -> float:
    machine = Machine(scaled(), ThpPolicy.always(), sanitize=False)
    if attach_null:
        null = NullSanitizer()
        machine.sanitizer = null
        machine.thp.sanitizer = null
        machine.physical.sanitizer = null
        for node in machine.physical.nodes:
            node.sanitizer = null
    workload = create_workload("bfs", graph)
    gc.collect()
    start = time.perf_counter()
    machine.run(workload, dataset=dataset_name)
    return time.perf_counter() - start


def test_sanitizer_off_hot_path_overhead():
    data = load_dataset("kron-s")
    # Warm-up: numpy allocators, dataset already loaded above.
    _run_once(data.graph, data.name, False)
    off = []
    null = []
    for round_index in range(ROUNDS):
        # Alternate which variant runs first so allocator/frequency
        # drift within a round does not bias one side systematically.
        pair = [
            (off, False),
            (null, True),
        ]
        if round_index % 2:
            pair.reverse()
        for bucket, attach_null in pair:
            bucket.append(_run_once(data.graph, data.name, attach_null))
    best_off = min(off)
    best_null = min(null)
    overhead = best_null / best_off - 1.0
    print(
        f"\nMemSan dispatch overhead (fig01-style cell, min of {ROUNDS}):"
        f"\n  sanitize=False (seed hot path) : {best_off * 1e3:8.1f} ms"
        f"\n  NullSanitizer attached         : {best_null * 1e3:8.1f} ms"
        f"\n  overhead                       : {overhead:+.2%}"
        f"  (budget {OVERHEAD_BUDGET:.0%})"
    )
    assert overhead < OVERHEAD_BUDGET, (
        f"idle MemSan hooks cost {overhead:.2%} on the hot path "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )


if __name__ == "__main__":
    test_sanitizer_off_hot_path_overhead()
