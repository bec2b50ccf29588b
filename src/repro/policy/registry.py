"""Name-keyed policy registry: the one place a spec becomes a policy.

The registry maps stable names to builders that materialize
:class:`~repro.experiments.policies.Policy` objects; ``--policy``,
:mod:`repro.api` and the tournament all resolve through
:func:`get_policy`.  Specs have the grammar::

    NAME                      # defaults
    NAME:k=v[,k=v...]         # explicit parameters
    selective:<s>[:<reorder>] # DBG + madvise leading s of the property
                              # array (the paper's Fig. 10/11 bars)

Values parse as int, then float, then the keywords ``true`` / ``false``
/ ``none``, else stay strings.  When explicit parameters are present
the materialized policy is *renamed* to the canonical spec
(``NAME:k=v,...`` with keys sorted), so two parameterizations of the
same entry always produce distinct journal spec fingerprints — even
for parameters the builder does not fold into its own label.  A bare
``NAME`` keeps the builder's native name: the paper's fixed
``POLICIES`` are registered under their own names and materialize the
table entries themselves, and their aliases do too (``never``
materializes as ``base4k``), so names and fingerprints never move.

Some entries are *dataset-aware* (the static ``advisor`` derives its
plan from the input graph); :func:`get_policy` forwards ``dataset`` and
``config`` to those builders only.

This module sits *above* :mod:`repro.mem` (builders import the
experiment layer), so it is deliberately not re-exported from
``repro.policy``'s package root — import it directly or via
:mod:`repro.api`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..config import MachineConfig
    from ..experiments.policies import Policy


@dataclass(frozen=True)
class ZooEntry:
    """One registered policy family."""

    name: str
    builder: Callable[..., "Policy"]
    summary: str = ""
    dataset_aware: bool = False


_REGISTRY: dict[str, "ZooEntry"] = {}


def _ensure_zoo() -> None:
    """Load the shipped zoo (idempotent; registers on first import).

    Deferred rather than imported at module top so ``registry`` and
    ``zoo`` can import each other in either order.
    """
    from . import zoo  # noqa: F401  (import side effect: registration)


def register_policy(
    name: str,
    builder: Callable[..., "Policy"],
    *,
    summary: str = "",
    dataset_aware: bool = False,
    replace: bool = False,
) -> "ZooEntry":
    """Register ``builder`` under ``name`` for ``--policy`` lookup.

    Re-registering an identical (name, builder) pair is a no-op, so
    :func:`~repro.policy.zoo.register_zoo` is idempotent; replacing a
    different builder requires ``replace=True``.

    Raises:
        ReproError: on a malformed name or a conflicting registration.
    """
    if not name or any(ch in name for ch in ":,= \t\n"):
        raise ReproError(
            f"bad policy name {name!r}: names must be non-empty and "
            "contain no ':', ',', '=' or whitespace (reserved by the "
            "NAME:k=v,... spec grammar)"
        )
    existing = _REGISTRY.get(name)
    if existing is not None and not replace:
        if existing.builder is builder:
            return existing
        raise ReproError(
            f"policy {name!r} is already registered; pass replace=True "
            "to override it"
        )
    entry = ZooEntry(
        name=name,
        builder=builder,
        summary=summary,
        dataset_aware=dataset_aware,
    )
    _REGISTRY[name] = entry
    return entry


def registered_policies() -> dict[str, "ZooEntry"]:
    """Snapshot of the registry, sorted by name."""
    _ensure_zoo()
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


def _parse_value(raw: str) -> Any:
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    lowered = raw.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered == "none":
        return None
    return raw


def parse_policy_spec(spec: str) -> tuple[str, dict[str, Any]]:
    """Split ``NAME[:k=v,...]`` into the name and its parameter dict.

    Raises:
        ReproError: on malformed parameter syntax.
    """
    name, sep, rest = spec.partition(":")
    if not name:
        raise ReproError(
            f"bad policy spec {spec!r}: expected NAME[:k=v,...]"
        )
    if not sep:
        return name, {}
    params: dict[str, Any] = {}
    for item in rest.split(","):
        key, eq, raw = item.partition("=")
        key = key.strip()
        if not eq or not key or not key.isidentifier():
            raise ReproError(
                f"bad policy spec {spec!r}: expected NAME:k=v[,k=v...]"
            )
        if key in params:
            raise ReproError(
                f"bad policy spec {spec!r}: duplicate parameter {key!r}"
            )
        params[key] = _parse_value(raw.strip())
    return name, params


def canonical_spec(name: str, params: dict[str, Any]) -> str:
    """The normalized spec string: keys sorted, values as parsed."""
    if not params:
        return name
    body = ",".join(f"{key}={params[key]}" for key in sorted(params))
    return f"{name}:{body}"


def _selective(spec: str) -> "Policy":
    from ..experiments.policies import selective_policy

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


def get_policy(
    spec: str,
    *,
    dataset: Optional[str] = None,
    config: Optional["MachineConfig"] = None,
) -> "Policy":
    """Materialize the policy named by ``spec``.

    Args:
        spec: ``NAME[:k=v,...]`` against the registry, or
            ``selective:<s>[:<reorder>]`` with ``0 <= s <= 1``.
        dataset: dataset name forwarded to dataset-aware builders (the
            static ``advisor`` needs the graph it is advising on).
        config: machine configuration forwarded to dataset-aware
            builders.

    Raises:
        ReproError: unknown name, malformed spec, or parameters the
            builder rejects (:class:`~repro.errors.ConfigError` for a
            selective fraction outside [0, 1]).
    """
    if spec.startswith("selective:"):
        return _selective(spec)
    name, params = parse_policy_spec(spec)
    _ensure_zoo()
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ReproError(
            f"unknown policy {name!r}; registered: "
            + ", ".join(sorted(_REGISTRY))
            + ", and selective:<s>[:<reorder>]"
        )
    kwargs: dict[str, Any] = dict(params)
    if entry.dataset_aware:
        kwargs["dataset"] = dataset
        kwargs["config"] = config
    try:
        policy = entry.builder(**kwargs)
    except TypeError as exc:
        raise ReproError(
            f"bad parameters for policy {name!r}: {exc}"
        ) from exc
    if params:
        # Fold explicit parameters into the policy identity so every
        # parameterization fingerprints distinctly in the journal.
        policy = dataclasses.replace(
            policy, name=canonical_spec(name, params)
        )
    return policy
