"""String → experiment-object parsers shared by the CLI and ``repro.dist``.

The distributed sweep layer ships cell specs between processes as plain
strings (policy and scenario names survive HTTP trivially; policy
objects with closures do not), so the parsers live here where both the
CLI and :mod:`repro.dist` workers can reach them.

Grammar (same as the CLI flags):

- policy: a spec ``NAME[:k=v,...]`` or ``selective:<s>[:<reorder>]``
  resolved by the policy registry (:mod:`repro.policy.registry` — see
  ``repro policies``);
- scenario: a name from ``SCENARIOS``, or ``constrained:<gb>``, or
  ``fragmented:<level>[:<gb>]``.
"""

from __future__ import annotations

from ..errors import ReproError
from ..policy.registry import get_policy


parse_policy = get_policy
"""Resolve a policy spec string to a ``Policy``: the registry's one
resolver (:func:`repro.policy.registry.get_policy`), under the name the
CLI and :mod:`repro.dist` import."""


def parse_scenario(spec: str):
    """Resolve a scenario spec string to a ``Scenario``."""
    from .scenarios import SCENARIOS, constrained, fragmented

    if spec in SCENARIOS:
        return SCENARIOS[spec]
    if spec.startswith("constrained:"):
        try:
            return constrained(float(spec.split(":")[1]))
        except (IndexError, ValueError) as exc:
            raise ReproError(
                f"bad constrained scenario spec {spec!r}: expected "
                "constrained:<gb>"
            ) from exc
    if spec.startswith("fragmented:"):
        parts = spec.split(":")
        try:
            level = float(parts[1])
            pressure = float(parts[2]) if len(parts) > 2 else 3.0
        except (IndexError, ValueError) as exc:
            raise ReproError(
                f"bad fragmented scenario spec {spec!r}: expected "
                "fragmented:<level>[:<gb>]"
            ) from exc
        return fragmented(level, pressure)
    raise ReproError(
        f"unknown scenario {spec!r}; known: "
        + ", ".join(sorted(SCENARIOS))
        + ", constrained:<gb>, fragmented:<level>[:<gb>]"
    )
