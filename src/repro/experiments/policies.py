"""Named page-management policies (the bars of the paper's figures).

A :class:`Policy` pairs a THP kernel configuration with a placement plan
(allocation order, madvise ranges, reordering).  The fixed table
:data:`POLICIES` covers every policy the paper evaluates; names resolve
through :mod:`repro.policy.registry`, which registers each entry under
its key:

- ``base4k`` — THP disabled system-wide (the baseline, green bars);
- ``thp`` — Linux's greedy system-wide THP with the natural allocation
  order (orange/red bars);
- ``thp-opt`` — system-wide THP with the property-first allocation order
  (purple bars of Figs. 7/8);
- ``madv-vertex`` / ``madv-edge`` / ``madv-values`` / ``madv-property``
  — huge pages for a single data structure via ``madvise`` (Fig. 5);
- ``dbg`` — DBG preprocessing with 4KB pages (Fig. 10 green);
- ``dbg+thp`` — DBG with system-wide THP (Fig. 10 red);
- selective policies from :func:`selective_policy` — DBG + madvise on
  the leading s% of the property array (Fig. 10 purple/brown, Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..core.plan import PlacementPlan
from ..core.selective import selective_property_plan
from ..errors import ConfigError
from ..mem.heuristics import HugePageManager
from ..mem.thp import ThpPolicy
from ..workloads.base import (
    ARRAY_EDGE,
    ARRAY_PROPERTY,
    ARRAY_VALUES,
    ARRAY_VERTEX,
)
from ..workloads.layout import AllocationOrder


@dataclass(frozen=True)
class Policy:
    """One page-management configuration.

    Optionally carries a run-time huge-page manager factory (heuristic
    kernel policies and the online autotuner run *during* execution,
    unlike the static plans).
    """

    name: str
    thp_factory: Callable[[], ThpPolicy]
    plan: PlacementPlan
    manager_factory: Optional[Callable[[], HugePageManager]] = None

    def make_thp(self) -> ThpPolicy:
        """Fresh THP policy object (policies are stateless; machines are
        not)."""
        return self.thp_factory()

    def make_manager(self) -> Optional[HugePageManager]:
        """Fresh run-time manager, if this policy uses one."""
        if self.manager_factory is None:
            return None
        return self.manager_factory()


def _madvise_one(array_id: int, array_name: str) -> Policy:
    return Policy(
        name=f"madv-{array_name}",
        thp_factory=ThpPolicy.madvise,
        plan=PlacementPlan(
            advise_fractions={array_id: 1.0},
            label=f"madv-{array_name}",
        ),
    )


POLICIES: dict[str, Policy] = {
    "base4k": Policy(
        name="base4k",
        thp_factory=ThpPolicy.never,
        plan=PlacementPlan(label="base4k"),
    ),
    "thp": Policy(
        name="thp",
        thp_factory=ThpPolicy.always,
        plan=PlacementPlan(label="thp"),
    ),
    "thp-opt": Policy(
        name="thp-opt",
        thp_factory=ThpPolicy.always,
        plan=PlacementPlan(
            order=AllocationOrder.PROPERTY_FIRST, label="thp-opt"
        ),
    ),
    "madv-vertex": _madvise_one(ARRAY_VERTEX, "vertex"),
    "madv-edge": _madvise_one(ARRAY_EDGE, "edge"),
    "madv-values": _madvise_one(ARRAY_VALUES, "values"),
    "madv-property": _madvise_one(ARRAY_PROPERTY, "property"),
    "dbg": Policy(
        name="dbg",
        thp_factory=ThpPolicy.never,
        plan=PlacementPlan(reorder="dbg", label="dbg"),
    ),
    "dbg+thp": Policy(
        name="dbg+thp",
        thp_factory=ThpPolicy.always,
        plan=PlacementPlan(reorder="dbg", label="dbg+thp"),
    ),
}
"""The paper's fixed policies, registered under these names (plus the
``never`` / ``greedy-always`` / ``madvise`` aliases) in
:mod:`repro.policy.registry`."""


def selective_policy(
    fraction: float, reorder: str = "dbg"
) -> Policy:
    """Selective THP: madvise the leading ``fraction`` of the property
    array on a (optionally DBG-reordered) graph, property-first order.

    Raises:
        ConfigError: ``fraction`` is outside [0, 1] or NaN (such a plan
            would silently run a 4KB cell under a selective label).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(
            f"selective fraction must be in [0, 1], got {fraction}"
        )
    plan = selective_property_plan(fraction, reorder=reorder)
    return Policy(
        name=plan.label,
        thp_factory=ThpPolicy.madvise,
        plan=plan,
    )


def hugetlb_policy(fraction: float = 1.0, reorder: str = "dbg") -> Policy:
    """Explicit hugetlbfs reservation for the leading ``fraction`` of
    the property array, reserved at boot time (§2.3's alternative to
    THP).  THP stays off: every other array uses base pages."""
    return Policy(
        name=f"hugetlb(s={fraction:.0%},{reorder})",
        thp_factory=ThpPolicy.never,
        plan=PlacementPlan(
            order=AllocationOrder.PROPERTY_FIRST,
            hugetlb_fractions={ARRAY_PROPERTY: fraction},
            reorder=reorder,
            label=f"hugetlb(s={fraction:.0%},{reorder})",
        ),
    )
