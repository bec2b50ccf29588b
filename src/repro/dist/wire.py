"""Cell ↔ wire encoding for the distributed sweep layer.

Policies are dataclasses carrying factory closures — they do not ride
JSON, so the distributed layer ships cells as *spec strings*
(:mod:`repro.experiments.parse`), with one extra guarantee: a cell is only dispatched
remotely when a candidate ``(policy_string, scenario_string)`` pair
**round-trips to the identical spec fingerprint** on the coordinator's
own runner.  A cell the grammar cannot express (say a policy built
programmatically with a custom manager) is not approximated — it is
executed locally, and the journal never sees a fingerprint the wire
form would not reproduce.

Workers repeat the verification on their side
(:mod:`repro.dist.worker`): reconstruct the runner from the shipped
settings, parse the strings, recompute the fingerprint, and refuse the
lease on mismatch.  Fingerprint equality end-to-end is what makes the
journal's spec-fingerprint dedupe a sound idempotency key.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ReproError
from ..experiments.parse import parse_policy, parse_scenario


def _policy_candidates(policy: Any) -> list[str]:
    from ..experiments.policies import POLICIES

    candidates = []
    for key, registered in POLICIES.items():
        if registered is policy or registered.name == policy.name:
            candidates.append(key)
    # Parameterized selective policies: derive selective:<s>[:<reorder>]
    # from the placement plan.  Candidates are only *candidates* — the
    # fingerprint round-trip in encode_cell discards wrong guesses.
    fractions = dict(getattr(policy.plan, "advise_fractions", {}) or {})
    if len(fractions) == 1:
        (fraction,) = fractions.values()
        reorder = policy.plan.reorder
        candidates.append(f"selective:{fraction:g}:{reorder}")
        candidates.append(f"selective:{fraction:g}")
    candidates.append(policy.name)
    return list(dict.fromkeys(candidates))


def _scenario_candidates(scenario: Any) -> list[str]:
    from ..experiments.scenarios import SCENARIOS

    candidates = [
        key for key, registered in SCENARIOS.items()
        if registered == scenario
    ]
    pressure = scenario.pressure_gb
    if scenario.frag_level:
        tail = f":{pressure:g}" if pressure is not None else ""
        candidates.append(f"fragmented:{scenario.frag_level:g}{tail}")
    elif pressure is not None and pressure > 0:
        candidates.append(f"constrained:{pressure:g}")
    candidates.append(scenario.name)
    return list(dict.fromkeys(candidates))


def encode_cell(runner: Any, cell: tuple) -> Optional[dict[str, Any]]:
    """Encode one cell as a wire task, or ``None`` when inexpressible.

    The returned task carries the cell coordinates as grammar strings
    plus the spec fingerprint the strings were verified against::

        {"workload": ..., "dataset": ..., "policy": ..., "scenario":
         ..., "spec": ..., "cell": {coords}}

    ``None`` means no candidate string pair reproduced the cell's
    fingerprint on ``runner`` — the caller must run the cell locally.
    """
    workload, dataset, policy, scenario = cell
    target = runner.cell_spec(workload, dataset, policy, scenario)
    for policy_text in _policy_candidates(policy):
        try:
            parsed_policy = parse_policy(policy_text)
        except ReproError:
            continue
        for scenario_text in _scenario_candidates(scenario):
            try:
                parsed_scenario = parse_scenario(scenario_text)
            except ReproError:
                continue
            if runner.cell_spec(
                workload, dataset, parsed_policy, parsed_scenario
            ) == target:
                return {
                    "workload": workload,
                    "dataset": dataset,
                    "policy": policy_text,
                    "scenario": scenario_text,
                    "spec": target,
                    "cell": {
                        "workload": workload,
                        "dataset": dataset,
                        "policy": policy.name,
                        "scenario": scenario.name,
                    },
                }
    return None
