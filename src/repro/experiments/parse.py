"""String → experiment-object parsers shared by the CLI and ``repro.dist``.

The distributed sweep layer ships cell specs between processes as plain
strings (policy and scenario names survive HTTP trivially; policy
objects with closures do not), so the parsers live here where both the
CLI and :mod:`repro.dist` workers can reach them.

Grammar (same as the CLI flags):

- policy: a name from ``POLICIES``, ``selective:<s>[:<reorder>]``, or
  a zoo spec ``NAME[:k=v,...]`` from the policy registry
  (:mod:`repro.policy.registry` — see ``repro policies``);
- scenario: a name from ``SCENARIOS``, or ``constrained:<gb>``, or
  ``fragmented:<level>[:<gb>]``.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ReproError


def parse_policy(spec: str, dataset: Optional[str] = None, config=None):
    """Resolve a policy spec string to a ``PolicyCell``.

    The historical grammar (``POLICIES`` names,
    ``selective:<s>[:<reorder>]``) resolves first — their names and
    journal fingerprints are pinned — then the zoo registry.
    ``dataset``/``config`` are forwarded to dataset-aware zoo entries
    (``advisor`` derives its plan from the input graph)."""
    from .policies import POLICIES, selective_policy

    if spec.startswith("selective:"):
        parts = spec.split(":")
        try:
            fraction = float(parts[1])
        except (IndexError, ValueError) as exc:
            raise ReproError(
                f"bad selective policy spec {spec!r}: expected "
                "selective:<s>[:<reorder>]"
            ) from exc
        reorder = parts[2] if len(parts) > 2 else "dbg"
        return selective_policy(fraction, reorder=reorder)
    if spec in POLICIES:
        return POLICIES[spec]
    from ..policy.registry import (
        get_policy,
        parse_policy_spec,
        registered_policies,
    )

    try:
        name, _ = parse_policy_spec(spec)
    except ReproError:
        name = None
    if name is not None and name in registered_policies():
        return get_policy(spec, dataset=dataset, config=config)
    raise ReproError(
        f"unknown policy {spec!r}; known: "
        + ", ".join(sorted(set(POLICIES) | set(registered_policies())))
        + ", selective:<s>[:<reorder>], and zoo specs NAME[:k=v,...]"
    )


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
