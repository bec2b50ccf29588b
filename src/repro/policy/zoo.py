"""The policy zoo: named page-management strategies for the tournament.

Each entry is a builder that materializes an
:class:`~repro.experiments.policies.Policy` (THP configuration +
placement plan + optional run-time manager), registered with the
:mod:`~repro.policy.registry` under a stable name so ``--policy
NAME[:k=v,...]`` resolves through one namespace everywhere.

The shipped zoo spans the paper's design space:

- the nine fixed ``POLICIES`` bars (``base4k``, ``thp``, ``thp-opt``,
  ``madv-*``, ``dbg``, ``dbg+thp``) under their own names, each
  materializing the table entry itself;
- ``never`` / ``greedy-always`` / ``madvise`` — the three Linux THP
  modes (aliases of the paper's ``base4k`` / ``thp`` /
  ``madv-property`` bars);
- ``khugepaged`` — fault-time allocation off, background promotion on
  (Linux's ``defrag=defer`` flavour);
- ``paper-selective`` — DBG + madvise on the leading ``s`` fraction of
  the property array (the paper's §5 optimization);
- ``advisor`` — the :class:`~repro.core.advisor.PageSizeAdvisor`'s
  graph-derived plan (dataset-aware: needs the input graph);
- ``hawkeye`` — run-time promotion by exact access counts;
- ``hawkeye-bits`` — run-time promotion by *sampled access bits*
  (HawkEye's practical signal: periodic page-table access-bit scans
  see touched-vs-untouched, not counts);
- ``ingens`` — run-time promotion by utilization threshold;
- ``autotuner`` — the online profile-then-promote runtime
  (:class:`~repro.core.autotuner.OnlineAdvisor`).

Parameters fold into the materialized policy's *name* (e.g.
``autotuner(c=90%)``), which flows into journal spec fingerprints — two
parameterizations of the same zoo entry are distinct cells.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..core.plan import PlacementPlan
from ..experiments.policies import (
    POLICIES,
    Policy,
    hugetlb_policy,
    selective_policy,
)
from ..mem.heuristics import HotnessManager, UtilizationManager
from ..mem.thp import ThpMode, ThpPolicy
from ..mem.vmm import Vma
from .hooks import (
    BASE_PAGES,
    DemoteCandidate,
    FaultContext,
    PageDecision,
    PromotionCandidate,
)
from .registry import register_policy

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .view import PolicyView


class AdvisorHook:
    """:class:`~repro.policy.hooks.PagePolicy` of the static advisor.

    The :class:`~repro.core.advisor.PageSizeAdvisor` front-loads its
    intelligence into the placement plan (which arrays/prefixes carry
    ``MADV_HUGEPAGE``), so its run-time hook is the kernel's advised
    semantics: back advised full chunks with huge pages at fault time,
    collapse advised candidates in khugepaged passes, split
    underutilized huge pages in demote scans.  Expressed as a
    first-class hook (rather than the ``madvise`` knob) so the advisor
    participates in the policy API like any zoo member — its decisions
    surface as ``policy.*`` trace events under ``--trace``.
    """

    name = "advisor"

    def on_fault(
        self, ctx: FaultContext, view: "PolicyView"
    ) -> PageDecision:
        return PageDecision(
            huge=ctx.chunk_full and ctx.advised and not ctx.partially_mapped
        )

    def on_khugepaged_scan(
        self,
        candidates: Sequence[PromotionCandidate],
        view: "PolicyView",
    ) -> Sequence[PromotionCandidate]:
        return tuple(c for c in candidates if c.advised)

    def on_demote_scan(
        self,
        candidates: Sequence[DemoteCandidate],
        view: "PolicyView",
    ) -> Sequence[DemoteCandidate]:
        return tuple(
            c for c in candidates if c.utilization < c.threshold
        )


class AutotunerHook:
    """:class:`~repro.policy.hooks.PagePolicy` of the online autotuner.

    The :class:`~repro.core.autotuner.OnlineAdvisor` makes every
    promotion decision itself at iteration boundaries (profile one
    iteration, promote the hot prefix), so its hook keeps the kernel
    passive: base pages at fault time, nothing volunteered to
    khugepaged, kernel-default splitting of underutilized huge pages.
    """

    name = "autotuner"

    def on_fault(
        self, ctx: FaultContext, view: "PolicyView"
    ) -> PageDecision:
        return BASE_PAGES

    def on_khugepaged_scan(
        self,
        candidates: Sequence[PromotionCandidate],
        view: "PolicyView",
    ) -> Sequence[PromotionCandidate]:
        return ()

    def on_demote_scan(
        self,
        candidates: Sequence[DemoteCandidate],
        view: "PolicyView",
    ) -> Sequence[DemoteCandidate]:
        return tuple(
            c for c in candidates if c.utilization < c.threshold
        )


class SampledHotnessManager(HotnessManager):
    """HawkEye-style promotion from *sampled access bits*.

    The exact-count :class:`~repro.mem.heuristics.HotnessManager` is a
    best-case oracle; real deployments scan page-table access bits
    periodically and only learn *which* pages were touched since the
    last scan, at a sampling granularity.  This manager quantizes the
    profiler's counts down to that signal: a chunk's hotness is the
    number of its sampled base pages with the access bit set (every
    ``sample_stride``-th page is scanned), not its access count.
    Deterministic by construction — the "sampling" is a fixed stride,
    never an RNG (rule REP013).
    """

    def __init__(
        self,
        sample_stride: int = 8,
        min_hot_pages: int = 1,
        promotions_per_pass: int = 8,
    ) -> None:
        super().__init__(
            min_accesses=1, promotions_per_pass=promotions_per_pass
        )
        if sample_stride < 1:
            raise ValueError(
                f"sample_stride must be >= 1, got {sample_stride}"
            )
        self.sample_stride = sample_stride
        self.min_hot_pages = min_hot_pages

    def _chunk_hot_bits(self, vma: Vma) -> np.ndarray:
        """Per-chunk count of sampled pages with their access bit set."""
        touched = self.profiler.page_counts(vma) > 0
        sampled = np.zeros_like(touched)
        sampled[:: self.sample_stride] = touched[:: self.sample_stride]
        frames_per_huge = self.config.pages.frames_per_huge
        nchunks = vma.nchunks
        padded = np.zeros(nchunks * frames_per_huge, dtype=np.int64)
        padded[: sampled.size] = sampled
        return padded.reshape(nchunks, frames_per_huge).sum(axis=1)

    def on_iteration(self) -> int:
        """Rank across all VMAs by sampled hot-bit count (ties broken
        by address order, like the kernel's scan)."""
        entries: list[tuple[int, Vma, int]] = []
        for vma in self.vmm.iter_vmas():
            bits = self._chunk_hot_bits(vma)
            for chunk in np.flatnonzero(bits >= self.min_hot_pages):
                chunk = int(chunk)
                if self._promotable(vma, chunk):
                    entries.append((int(bits[chunk]), vma, chunk))
        entries.sort(key=lambda item: -item[0])
        promoted = 0
        for _, vma, chunk in entries[: self.promotions_per_pass]:
            if not self.vmm.promote_chunk(vma, chunk):
                break
            promoted += 1
            self.total_promotions += 1
        return promoted


# ----------------------------------------------------------------------
# Zoo builders.  Each returns an experiments.Policy; dataset-aware
# builders accept (dataset, config) via the registry's materialization.
# ----------------------------------------------------------------------


def _fixed_builder(policy: Policy):
    """A builder returning the fixed table entry itself, so a fixed
    name (or an alias of one) keeps its name and journal spec
    fingerprint."""
    return lambda: policy


_FIXED_BUILDERS = {
    name: _fixed_builder(policy) for name, policy in POLICIES.items()
}

_ALIASES = {
    "never": "base4k",
    "greedy-always": "thp",
    "madvise": "madv-property",
}
"""The three Linux THP modes, as aliases of the paper's bars."""


def _khugepaged_builder():
    return Policy(
        name="khugepaged",
        thp_factory=lambda: ThpPolicy(
            mode=ThpMode.ALWAYS, fault_alloc=False
        ),
        plan=PlacementPlan(label="khugepaged"),
    )


def _paper_selective_builder(s: float = 0.5, reorder: str = "dbg"):
    return selective_policy(
        float(s), reorder="none" if reorder is None else str(reorder)
    )


def _advisor_builder(
    coverage: float = 0.8,
    *,
    dataset: Optional[str] = None,
    config=None,
):
    """The static advisor's plan for ``dataset`` (graph-derived)."""
    from ..core.advisor import PageSizeAdvisor
    from ..errors import ReproError
    from ..graph.datasets import load_dataset

    if dataset is None:
        raise ReproError(
            "policy 'advisor' derives its plan from the input graph; "
            "select it where a dataset is known (repro run/figure/"
            "tournament), not as a dataset-independent policy"
        )
    graph = load_dataset(dataset).graph
    report = PageSizeAdvisor(
        graph, config=config, coverage_target=float(coverage)
    ).advise()
    return Policy(
        name=report.plan.label,
        thp_factory=lambda: ThpPolicy(
            mode=ThpMode.MADVISE, hooks=AdvisorHook()
        ),
        plan=report.plan,
    )


def _manager_thp():
    """THP configuration under a run-time manager: the kernel stays
    passive (no fault-time allocation, no khugepaged) and the manager
    owns promotion."""
    return ThpPolicy(
        mode=ThpMode.ALWAYS, fault_alloc=False, khugepaged_enabled=False
    )


def _hawkeye_builder(per_pass: int = 8):
    return Policy(
        name="hawkeye",
        thp_factory=_manager_thp,
        plan=PlacementPlan(label="hawkeye"),
        manager_factory=lambda: HotnessManager(
            promotions_per_pass=int(per_pass)
        ),
    )


def _hawkeye_bits_builder(stride: int = 8, per_pass: int = 8):
    stride = int(stride)
    return Policy(
        name=f"hawkeye-bits(k={stride})",
        thp_factory=_manager_thp,
        plan=PlacementPlan(label=f"hawkeye-bits(k={stride})"),
        manager_factory=lambda: SampledHotnessManager(
            sample_stride=stride, promotions_per_pass=int(per_pass)
        ),
    )


def _ingens_builder(threshold: float = 0.9, per_pass: int = 8):
    threshold = float(threshold)
    return Policy(
        name=f"ingens(u={threshold:.0%})",
        thp_factory=_manager_thp,
        plan=PlacementPlan(label=f"ingens(u={threshold:.0%})"),
        manager_factory=lambda: UtilizationManager(
            utilization_threshold=threshold,
            promotions_per_pass=int(per_pass),
        ),
    )


def _autotuner_builder(
    coverage: float = 0.85, max_chunks: Optional[int] = None
):
    from ..core.autotuner import OnlineAdvisor

    coverage = float(coverage)
    max_chunks = None if max_chunks is None else int(max_chunks)
    return Policy(
        name=f"autotuner(c={coverage:.0%})",
        thp_factory=lambda: ThpPolicy(
            mode=ThpMode.ALWAYS, fault_alloc=False,
            khugepaged_enabled=False, hooks=AutotunerHook(),
        ),
        plan=PlacementPlan(label=f"autotuner(c={coverage:.0%})"),
        manager_factory=lambda: OnlineAdvisor(
            coverage_target=coverage, max_chunks=max_chunks
        ),
    )


def _hugetlb_builder(fraction: float = 1.0, reorder: str = "dbg"):
    return hugetlb_policy(
        float(fraction), reorder="none" if reorder is None else str(reorder)
    )


# THP allocation-path variants (the ablation figures' configurations,
# promoted to first-class zoo entries): all run the property-first plan
# so the allocation-path difference is the only variable.


def _thp_direct_builder():
    return Policy("thp-direct", ThpPolicy.always, POLICIES["thp-opt"].plan)


def _thp_khugepaged_builder():
    return Policy(
        "thp-khugepaged",
        lambda: ThpPolicy(mode=ThpMode.ALWAYS, fault_alloc=False),
        POLICIES["thp-opt"].plan,
    )


def _thp_defer_builder():
    return Policy(
        "thp-defer",
        lambda: ThpPolicy(
            mode=ThpMode.ALWAYS,
            fault_compact=False,
            fault_reclaim=False,
            khugepaged_enabled=False,
        ),
        POLICIES["thp-opt"].plan,
    )


def _thp_opt_defer_builder():
    return Policy(
        "thp-opt-defer",
        lambda: ThpPolicy(
            mode=ThpMode.ALWAYS,
            fault_reclaim=False,
            khugepaged_compact=False,
        ),
        POLICIES["thp-opt"].plan,
    )


def register_zoo() -> None:
    """Register the shipped zoo (idempotent; called at registry import)."""
    for name, policy in POLICIES.items():
        thp = policy.make_thp()
        register_policy(
            name, _FIXED_BUILDERS[name],
            summary=f"thp={thp.mode.value} "
            f"order={policy.plan.order.value} "
            f"reorder={policy.plan.reorder}",
        )
    for alias, name in _ALIASES.items():
        register_policy(
            alias, _FIXED_BUILDERS[name], summary=f"alias of {name}"
        )
    register_policy(
        "khugepaged", _khugepaged_builder,
        summary="no fault-time allocation; background promotion only",
    )
    register_policy(
        "paper-selective", _paper_selective_builder,
        summary="DBG + madvise leading s of the property array "
        "(params: s, reorder)",
    )
    register_policy(
        "advisor", _advisor_builder,
        summary="graph-derived selective plan from PageSizeAdvisor "
        "(params: coverage; dataset-aware)",
        dataset_aware=True,
    )
    register_policy(
        "hawkeye", _hawkeye_builder,
        summary="run-time promotion by exact access counts "
        "(params: per_pass)",
    )
    register_policy(
        "hawkeye-bits", _hawkeye_bits_builder,
        summary="run-time promotion by sampled access bits "
        "(params: stride, per_pass)",
    )
    register_policy(
        "ingens", _ingens_builder,
        summary="run-time promotion by utilization threshold "
        "(params: threshold, per_pass)",
    )
    register_policy(
        "autotuner", _autotuner_builder,
        summary="online profile-then-promote runtime "
        "(params: coverage, max_chunks)",
    )
    register_policy(
        "hugetlb", _hugetlb_builder,
        summary="boot-time hugetlbfs reservation for the property "
        "array prefix (params: fraction, reorder)",
    )
    register_policy(
        "thp-direct", _thp_direct_builder,
        summary="fault-time THP with direct compaction, "
        "property-first order",
    )
    register_policy(
        "thp-khugepaged", _thp_khugepaged_builder,
        summary="khugepaged-only promotion, property-first order",
    )
    register_policy(
        "thp-defer", _thp_defer_builder,
        summary="no fault compaction, no daemon (pristine regions "
        "only), property-first order",
    )
    register_policy(
        "thp-opt-defer", _thp_opt_defer_builder,
        summary="deferred reclaim (no fault reclaim, no daemon "
        "compaction), property-first order",
    )


register_zoo()
