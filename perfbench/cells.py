"""The benchmark's workloads: seeded inputs, set-up, one timed pass, and
the output checks.

Every workload is a batch of experiment cells run serially
(``workers=1``) through :class:`repro.experiments.ExperimentRunner`.
Its graphs are rebuilt from :mod:`repro.graph.generators` with the stock
recipes of ``kron-s``, ``kron-m`` and ``road-m`` and registered under
those names in :data:`repro.graph.datasets.DATASETS`, so the simulator
only ever sees generated inputs.  Seed 0 reproduces the stock datasets
(R-MAT seed 25, uniform seed 41); seed ``s`` shifts both by ``s``.

A pass's outputs are folded into one SHA-256 digest: every cell's
:class:`~repro.machine.metrics.RunMetrics` (translation counts, cycle
totals, kernel ledgers, swap and huge-page outcomes) plus, for the
tournament, the leaderboard's JSON bytes.  On seed 0 the digest must
equal the one pinned in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.config import get_profile
from repro.experiments import ExperimentRunner, RunConfig
from repro.experiments.harness import CellFailure, CellResult
from repro.experiments.parse import parse_policy, parse_scenario
from repro.graph import datasets as registry
from repro.graph.csr import CsrGraph
from repro.graph.generators import rmat_graph, uniform_graph
from repro.policy.tournament import (
    BASELINE_SPEC,
    DEFAULT_POLICIES,
    run_tournament,
)
from repro.runstate.journal import RunJournal
from repro.tlb import engine as tlb_engine
from repro.workloads.registry import workload_needs_weights

DEFAULT_SEED = 0
"""The seed whose inputs are the stock datasets."""

TOURNAMENT_SCENARIOS = (
    "fresh",
    "fragmented:0.8",
    "constrained:0.5",
    "oversubscribed",
)


def _recipes(seed: int) -> dict[str, Callable[[bool], CsrGraph]]:
    """The stock dataset recipes with their seeds shifted by ``seed``."""

    def kron(scale: int, edges: int) -> Callable[[bool], CsrGraph]:
        return lambda weighted: rmat_graph(
            scale=scale,
            num_edges=edges,
            seed=25 + seed,
            shuffle_labels=True,
            weighted=weighted,
        )

    def road(weighted: bool) -> CsrGraph:
        return uniform_graph(
            num_vertices=1_048_576,
            num_edges=2_097_152,
            seed=41 + seed,
            weighted=weighted,
        )

    return {
        "kron-s": kron(17, 1_048_576),
        "kron-m": kron(20, 8_388_608),
        "road-m": road,
    }


def register_datasets(names: Sequence[str], seed: int) -> None:
    """Register the seeded recipe of each named dataset in the
    simulator's registry and drop any graph it has cached."""
    recipes = _recipes(seed)
    for name in names:
        if name in recipes:
            stock = registry.DATASETS[name]
            registry.DATASETS[name] = registry.DatasetSpec(
                stock.name, stock.paper_name, stock.description, recipes[name]
            )
    registry.clear_dataset_cache()


Cell = tuple  # (workload, dataset, Policy, Scenario), as the harness takes


@dataclass
class Prepared:
    """A runner with its graphs built, ready for one timed pass."""

    runner: ExperimentRunner
    cells: list[Cell]
    journal_dir: Optional[str] = None

    def close(self) -> None:
        if self.journal_dir is not None:
            self.runner.journal.close()
            shutil.rmtree(self.journal_dir, ignore_errors=True)
            self.journal_dir = None


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``cells`` lists ``(workload, dataset, policy spec, scenario spec)``;
    with ``tournament`` set, the pass is the stock policy tournament over
    them instead of a plain ``run_cells`` batch.
    """

    name: str
    profile: str
    cells: tuple[tuple[str, str, str, str], ...]
    tournament: bool = False

    @property
    def datasets(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(cell[1] for cell in self.cells))

    def setup(self, seed: int, workdir: str) -> Prepared:
        """Build the inputs from scratch: register and generate the
        graphs, apply their reorderings, and run the TLB ``auto``
        engine self-check.  Returns a cold runner on them."""
        register_datasets(self.datasets, seed)
        tlb_engine._auto_cache.clear()
        prepared = self.prepare(workdir)
        tlb_engine.batch_engine_matches(prepared.runner.config.tlb)
        return prepared

    def prepare(self, workdir: str) -> Prepared:
        """A runner with a cold cell cache (and, for the tournament, an
        empty journal) whose graphs are loaded and reordered; the graphs
        come from the dataset cache when :meth:`setup` already built
        them."""
        config = get_profile(self.profile)
        journal_dir = None
        run_config = RunConfig(workers=1)
        if self.tournament:
            journal_dir = tempfile.mkdtemp(prefix="journal-", dir=workdir)
            run_config = RunConfig(
                workers=1, journal=RunJournal(f"{journal_dir}/journal.jsonl")
            )
        runner = ExperimentRunner(
            config=config, run_config=run_config, datasets=self.datasets
        )
        cells = [
            (
                workload,
                dataset,
                parse_policy(policy, dataset=dataset, config=config),
                parse_scenario(scenario),
            )
            for workload, dataset, policy, scenario in self.cells
        ]
        for workload, dataset, policy, _ in cells:
            runner._prepared_graph(
                dataset,
                policy.plan.reorder,
                weighted=workload_needs_weights(workload),
            )
        return Prepared(runner, cells, journal_dir)

    def execute(self, prepared: Prepared) -> bytes:
        """The timed pass.  Returns the leaderboard bytes (tournament)
        or ``b""``."""
        runner = prepared.runner
        if not self.tournament:
            runner.run_cells(prepared.cells)
            return b""
        leaderboard = run_tournament(
            runner,
            policies=DEFAULT_POLICIES,
            scenarios=TOURNAMENT_SCENARIOS,
            workloads=("bfs",),
            datasets=self.datasets,
        )
        return leaderboard.to_json().encode()

    def results(self, prepared: Prepared) -> list[CellResult]:
        """Every cell's result after :meth:`execute` (cache hits)."""
        return [prepared.runner.run_cell(*cell) for cell in prepared.cells]


def _tournament_cells() -> tuple[tuple[str, str, str, str], ...]:
    return tuple(
        ("bfs", "kron-s", policy, scenario)
        for scenario in TOURNAMENT_SCENARIOS
        for policy in (BASELINE_SPEC,) + DEFAULT_POLICIES
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tournament-kron-s", "scaled", _tournament_cells(), tournament=True
        ),
        Workload(
            "pagerank-kron-m",
            "scaled-1m",
            (("pagerank", "kron-m", "base4k", "fresh"),),
        ),
        Workload(
            "bfs-road-m-frag",
            "paper-x86",
            (
                ("bfs", "road-m", "base4k", "frag-50"),
                ("bfs", "road-m", "thp", "frag-50"),
            ),
        ),
    )
}
"""The reference workloads; BENCHMARK.json records why each was chosen."""


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def _record(result: CellResult) -> dict:
    if isinstance(result, CellFailure):
        return {"failed": result.label, "cell": [
            result.workload, result.dataset, result.policy, result.scenario
        ]}
    t = result.translation
    return {
        "cell": [result.workload, result.dataset, result.policy_label],
        "accesses": t.accesses.tolist(),
        "l1_misses": t.l1_misses.tolist(),
        "walks": t.walks.tolist(),
        "compute_cycles": result.compute_cycles,
        "init_cycles": result.init_cycles,
        "preprocess_cycles": result.preprocess_cycles,
        "init_kernel": result.init_kernel,
        "compute_kernel": result.compute_kernel,
        "swap": [result.swap_ins, result.swap_outs],
        "huge_bytes": result.huge_bytes,
        "manager": [result.manager_promotions, result.manager_demotions],
    }


def digest(results: Sequence[CellResult], extra: bytes = b"") -> str:
    """SHA-256 over ``extra`` and each cell's canonical JSON record."""
    h = hashlib.sha256(extra)
    for result in results:
        h.update(json.dumps(_record(result), sort_keys=True).encode())
    return h.hexdigest()


def cell_ok(result: CellResult) -> bool:
    """A cell is sound if it produced metrics with, per array, page
    walks <= L1 misses <= accesses."""
    if isinstance(result, CellFailure):
        return False
    t = result.translation
    return bool(
        np.all(t.walks <= t.l1_misses) and np.all(t.l1_misses <= t.accesses)
    )


def total_accesses(results: Sequence[CellResult]) -> int:
    return sum(
        r.translation.total_accesses
        for r in results
        if not isinstance(r, CellFailure)
    )


class Checker:
    """Checks each pass's outputs and counts attempted and failed cells
    across the passes of a run.

    A pass fails as a whole when its digest differs from ``expected``
    (the pinned digest) or, without one, from the run's first pass."""

    def __init__(self, expected: Optional[str]) -> None:
        self.expected = expected
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.accesses = 0
        """Simulated accesses of the last pass checked."""

    def check(self, results: Sequence[CellResult], extra: bytes) -> None:
        found = digest(results, extra)
        bad = sum(not cell_ok(r) for r in results)
        reference = self.expected or (self.digests[0] if self.digests else None)
        if reference is not None and found != reference:
            bad = len(results)
        self.digests.append(found)
        self.attempted += len(results)
        self.failed += bad
        self.accesses = total_accesses(results)

    @property
    def correct(self) -> bool:
        return self.failed == 0
