"""Work-stealing process pool for experiment cells.

Ownership model (docs/performance.md):

- The **parent** process is the single owner of the cell cache and the
  run journal.  Workers never see either: they receive bare cell
  specifications, simulate, and return results encoded through the
  journal's own full-fidelity round-trip
  (:func:`repro.runstate.serialize.encode_result`), so a decoded result
  is byte-identical to one produced in-process.
- **Work stealing** falls out of the queue discipline: cell indices sit
  on one shared task queue and each worker pulls its next index the
  moment it goes idle — no static partitioning, no stragglers holding
  partitions hostage.
- **Determinism** is the parent's job: results arrive in completion
  order, the caller (:meth:`repro.experiments.harness.ExperimentRunner
  .run_cells`) commits them in spec order.
- **Fork and spawn** both work.  Under ``fork`` workers inherit the
  parent's prepared graphs copy-on-write; under ``spawn`` the
  :class:`WorkerContext` is pickled to each worker, and a context that
  cannot be pickled (e.g. a figure's closure-built policy) degrades to
  parent-local execution rather than failing the sweep.
- The parent enforces the **wall-clock watchdog** from outside: each
  dispatch is timestamped, and a worker that blows well past
  ``cell_deadline_seconds`` (the in-worker watchdog fires first when
  the cell is merely slow; the parent-side deadline catches a truly
  wedged process) is terminated, its cell absorbed as
  ``FAILED(watchdog)``, and its pool slot rescheduled with a fresh
  worker.

Wall-clock reads in this module are infrastructure, not simulation —
the same exemption the cooperative watchdog carries.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..errors import ExperimentError
from ..mem.sanitizer import sanitizer_enabled, set_sanitize
from ..runstate.serialize import decode_result, encode_result

if TYPE_CHECKING:
    from ..experiments.harness import CellResult, ExperimentRunner

Cell = tuple  # (workload_name, dataset_name, Policy, Scenario)

_POLL_SECONDS = 0.2
"""Result-queue poll interval while a deadline or liveness check is armed."""

_DEAD_STRIKES = 3
"""Consecutive idle polls a worker must be dead for before its in-flight
cell is reclaimed (absorbs the race where a result message is still in
the queue when the worker exits)."""


def resolve_workers(workers: int) -> int:
    """Normalize a worker-count knob: ``0`` means one per CPU, and any
    request is clamped to the CPUs actually available.

    The clamp is what keeps the 1-CPU regression recorded in
    ``BENCH_sweep.json`` (0.82x vs serial with ``--workers 4`` on one
    core) from recurring: oversubscribing cores buys pure queue/IPC
    overhead, so ``--workers 4`` on a 1-CPU host resolves to ``1`` and
    takes the serial path.  Callers that need to know a clamp happened
    compare against their requested value and emit ``pool.autosize``.
    """
    cpus = os.cpu_count() or 1
    if workers == 0:
        return cpus
    return min(max(1, workers), cpus)


@dataclass
class WorkerContext:
    """Everything a worker needs to rebuild a journal-free runner.

    Carries the parent's prepared graph/permutation caches so graph
    loading and reordering happen exactly once (in the parent), and the
    ambient sanitizer setting so ``REPRO_SANITIZE`` semantics survive a
    ``spawn`` boundary (``fork`` inherits them anyway).
    """

    config: Any
    pagerank_iterations: int
    run_config: Any  # a worker-safe RunConfig (journal stripped)
    graph_cache: dict
    perm_cache: dict
    cells: list
    sanitize: bool

    @property
    def cell_deadline_seconds(self) -> Optional[float]:
        """The wall-clock deadline the parent-side watchdog enforces."""
        return self.run_config.cell_deadline_seconds

    @classmethod
    def from_runner(
        cls, runner: "ExperimentRunner", cells: list
    ) -> "WorkerContext":
        run_config = runner.run_config.worker_view()
        if run_config.faults is None:
            # Pin the effective plan so a config-level fault plan
            # survives the journey even if the worker's profile lookup
            # were to drift from the parent's.
            run_config = run_config.replace(
                faults=runner.effective_fault_plan
            )
        return cls(
            config=runner.config,
            pagerank_iterations=runner.pagerank_iterations,
            run_config=run_config,
            graph_cache=runner._graph_cache,
            perm_cache=runner._perm_cache,
            cells=cells,
            sanitize=sanitizer_enabled(),
        )

    def make_runner(self) -> "ExperimentRunner":
        """A journal-free, capture-always runner clone.

        Workers always capture failures as :class:`~repro.experiments
        .harness.CellFailure` payloads (strict mode never reaches the
        pool), and never journal — the parent owns durability.
        """
        from ..experiments.harness import ExperimentRunner

        runner = ExperimentRunner(
            config=self.config,
            run_config=self.run_config,
            pagerank_iterations=self.pagerank_iterations,
            capture_failures=True,
        )
        runner._graph_cache = self.graph_cache
        runner._perm_cache = self.perm_cache
        return runner


def _worker_main(
    worker_id: int,
    ctx: WorkerContext,
    tasks: "multiprocessing.Queue",
    results: "multiprocessing.Queue",
) -> None:
    """Worker loop: steal an index, simulate, return the encoded result."""
    if ctx.sanitize:
        set_sanitize(True)
    runner = ctx.make_runner()
    while True:
        index = tasks.get()
        if index is None:
            results.put(("exit", -1, worker_id, None))
            return
        results.put(("start", index, worker_id, None))
        try:
            outcome = runner._execute_cell(*ctx.cells[index])
            payload = encode_result(outcome)
        except BaseException as error:  # surfaced as ExperimentError above
            results.put(
                ("error", index, worker_id,
                 f"{type(error).__name__}: {error}")
            )
        else:
            results.put(("done", index, worker_id, payload))


def _context_picklable(ctx: WorkerContext) -> bool:
    try:
        pickle.dumps(ctx)
    except Exception:
        return False
    return True


def execute_cells(
    runner: "ExperimentRunner", cells: list, workers: int
) -> list["CellResult"]:
    """Execute ``cells`` on a process pool; results align with ``cells``.

    The caller owns dedupe, cache, journal and ordering — this function
    only fans simulation out and collects it back in.
    """
    from ..experiments.harness import CellFailure

    ctx = WorkerContext.from_runner(runner, list(cells))
    mp_ctx = multiprocessing.get_context()
    if mp_ctx.get_start_method() != "fork" and not _context_picklable(ctx):
        # Spawn would have to pickle the context; a closure-built policy
        # (figures construct some inline) cannot cross that boundary.
        # Degrade to parent-local execution on a clean runner clone.
        local = ctx.make_runner()
        return [local._execute_cell(*cell) for cell in cells]

    nworkers = max(1, min(workers, len(cells)))
    tasks: "multiprocessing.Queue" = mp_ctx.Queue()
    results_q: "multiprocessing.Queue" = mp_ctx.Queue()
    for index in range(len(cells)):
        tasks.put(index)
    for _ in range(nworkers):
        tasks.put(None)

    procs: dict[int, multiprocessing.process.BaseProcess] = {}
    next_worker_id = 0

    def spawn_worker() -> None:
        nonlocal next_worker_id
        proc = mp_ctx.Process(
            target=_worker_main,
            args=(next_worker_id, ctx, tasks, results_q),
            daemon=True,
        )
        procs[next_worker_id] = proc
        next_worker_id += 1
        proc.start()

    for _ in range(nworkers):
        spawn_worker()

    deadline = ctx.cell_deadline_seconds
    # The in-worker watchdog fires *at* the deadline and returns a
    # normal FAILED(watchdog) result; the parent only steps in when the
    # worker is wedged past a grace window on top of it.
    grace = None if deadline is None else deadline + max(1.0, deadline)

    outcomes: dict[int, "CellResult"] = {}
    in_flight: dict[int, tuple[int, float]] = {}  # index -> (wid, started)
    dead_strikes: dict[int, int] = {}  # worker id -> consecutive dead polls
    local: Optional["ExperimentRunner"] = None

    def absorb_watchdog(index: int, message: str) -> None:
        workload_name, dataset_name, policy, scenario = cells[index]
        outcomes[index] = CellFailure(
            workload=workload_name,
            dataset=dataset_name,
            policy=policy.name,
            scenario=scenario.name,
            error="watchdog",
            message=message,
        )

    def run_locally(index: int) -> None:
        nonlocal local
        if local is None:
            local = ctx.make_runner()
        outcomes[index] = local._execute_cell(*cells[index])

    try:
        while len(outcomes) < len(cells):
            try:
                kind, index, wid, payload = results_q.get(
                    timeout=_POLL_SECONDS
                )
            except queue.Empty:
                now = time.monotonic()  # repro: noqa REP001
                if grace is not None:
                    for index, (wid, started) in list(in_flight.items()):
                        if now - started <= grace:
                            continue
                        # Hung worker: absorb the cell, reschedule the
                        # pool slot with a fresh worker.
                        proc = procs.pop(wid, None)
                        if proc is not None:
                            proc.terminate()
                            proc.join(timeout=5.0)
                        del in_flight[index]
                        absorb_watchdog(
                            index,
                            f"worker exceeded the {deadline:g}s cell "
                            "deadline and was terminated by the parent",
                        )
                        if len(outcomes) + len(in_flight) < len(cells):
                            spawn_worker()
                for index, (wid, _started) in list(in_flight.items()):
                    proc = procs.get(wid)
                    if proc is not None and not proc.is_alive():
                        strikes = dead_strikes.get(wid, 0) + 1
                        dead_strikes[wid] = strikes
                        if strikes >= _DEAD_STRIKES:
                            # Worker died without reporting (hard crash):
                            # its cell re-runs in the parent.
                            procs.pop(wid, None)
                            del in_flight[index]
                            run_locally(index)
                            if len(outcomes) + len(in_flight) < len(cells):
                                spawn_worker()
                    else:
                        dead_strikes.pop(wid, None)
                if not in_flight and all(
                    not proc.is_alive() for proc in procs.values()
                ):
                    # The whole pool died between cells; finish serially.
                    for index in range(len(cells)):
                        if index not in outcomes:
                            run_locally(index)
                continue
            if kind == "start":
                in_flight[index] = (wid, time.monotonic())  # repro: noqa REP001
                dead_strikes.pop(wid, None)
                continue
            if kind == "exit":
                continue
            in_flight.pop(index, None)
            dead_strikes.pop(wid, None)
            if kind == "done":
                outcomes[index] = decode_result(payload)
            else:
                raise ExperimentError(
                    f"parallel worker failed on cell "
                    f"{cells[index][0]}/{cells[index][1]}: {payload}"
                )
    finally:
        for proc in procs.values():
            if proc.is_alive():
                proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        tasks.cancel_join_thread()
        results_q.cancel_join_thread()
        tasks.close()
        results_q.close()

    return [outcomes[index] for index in range(len(cells))]
