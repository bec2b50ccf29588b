"""PageRank (paper §3.2).

Push-style power iteration: every vertex distributes ``rank[u] /
out_degree[u]`` to its outgoing neighbors, accumulating into the property
array (the next-iteration scores).  Property accesses are pointer
indirect and occur once per edge per iteration, so total property traffic
scales with iterations — the paper notes PR's property access count
depends on the iteration count to convergence and the threshold ε.

The source rank array is read sequentially (once per vertex per
iteration) and modeled as its own data structure (``ARRAY_RANK``).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..graph.csr import CsrGraph
from ..tlb.trace import AccessStream
from .base import (
    ARRAY_EDGE,
    ARRAY_PROPERTY,
    ARRAY_RANK,
    ARRAY_VERTEX,
    Workload,
)


class PageRank(Workload):
    """Iterative PageRank with damping.

    Args:
        graph: the network.
        damping: damping factor (0.85 in the original formulation).
        epsilon: convergence threshold on the L1 score delta.
        max_iterations: hard iteration cap — benchmarks use a small cap
            so trace volume stays proportional across datasets; examples
            run to convergence.
    """

    name = "pagerank"

    def __init__(
        self,
        graph: CsrGraph,
        damping: float = 0.85,
        epsilon: float = 1e-4,
        max_iterations: int = 3,
    ) -> None:
        super().__init__(graph)
        self.damping = damping
        self.epsilon = epsilon
        self.max_iterations = max_iterations
        self.scores = np.full(
            graph.num_vertices, 1.0 / max(1, graph.num_vertices)
        )
        self.iterations = 0
        self.converged = False

    def array_ids(self) -> tuple[int, ...]:
        return (ARRAY_VERTEX, ARRAY_EDGE, ARRAY_RANK, ARRAY_PROPERTY)

    def run(self) -> Iterator[AccessStream]:
        graph = self.graph
        num_vertices = graph.num_vertices
        out_degrees = np.diff(graph.indptr)
        all_vertices = np.arange(num_vertices, dtype=np.int64)
        # Every iteration touches every edge in the same order and ends
        # with the same sweep, so both streams are built once and the
        # same objects are yielded every iteration: translation and the
        # TLB engine memoise on the object (docs/performance.md
        # "Repeated iterations within a cell").
        edge_positions, targets = self.gather_frontier_edges(all_vertices)
        sources = np.repeat(all_vertices, out_degrees)
        edge_sweep = self.edge_phase_stream(
            all_vertices, edge_positions, targets, source_rank_reads=True
        )
        # End-of-iteration sweep: write the new scores back through the
        # property array and reload the rank array.
        score_sweep = AccessStream.concatenate(
            [
                self.sequential_pass_stream(ARRAY_PROPERTY),
                self.sequential_pass_stream(ARRAY_RANK),
            ]
        )
        base_score = (1.0 - self.damping) / max(1, num_vertices)
        self.scores[:] = 1.0 / max(1, num_vertices)
        self.iterations = 0
        self.converged = False
        for _ in range(self.max_iterations):
            yield edge_sweep
            contributions = np.where(
                out_degrees > 0, self.scores / np.maximum(out_degrees, 1), 0.0
            )
            dangling = float(self.scores[out_degrees == 0].sum())
            next_scores = np.zeros(num_vertices)
            np.add.at(next_scores, targets, contributions[sources])
            next_scores = base_score + self.damping * (
                next_scores + dangling / max(1, num_vertices)
            )
            delta = float(np.abs(next_scores - self.scores).sum())
            self.scores = next_scores
            self.iterations += 1
            yield score_sweep
            if delta < self.epsilon:
                self.converged = True
                break

    def result(self) -> np.ndarray:
        """Final PageRank scores (sum ≈ 1)."""
        return self.scores
