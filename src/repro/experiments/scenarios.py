"""Named memory-state scenarios (paper §3, §4.3, §4.4).

A :class:`Scenario` describes the machine state the application finds at
startup.  Pressure levels are expressed in the paper's "GB" units, which
scale with the profile (see :attr:`MachineConfig.gb_equivalent`): on the
64GB ``paper-x86`` node 1 unit is 1 GiB; on the 64MB SCALED node it is
1 MiB.

Pressured scenarios also carry *background noise* — the non-movable
kernel pages and movable stragglers that fragment a long-running system
(§2.3.2, Fig. 6) — sized so that, matching the paper's observation,
Linux's THP policy needs roughly 2.5 "GB" of slack before it reaches its
unbounded performance (§4.3.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError

DEFAULT_NONMOVABLE_NOISE_GB = 2.25
"""Non-movable background noise in pressured scenarios ("GB" units)."""

DEFAULT_MOVABLE_NOISE_GB = 0.5
"""Movable background noise in pressured scenarios ("GB" units)."""


@dataclass(frozen=True)
class Scenario:
    """Machine memory state for one experiment cell.

    Attributes:
        name: scenario label in reports.
        pressure_gb: free memory left beyond the application's working
            set, in "GB" units.  ``None`` = fresh boot (no memhog, no
            noise).  Negative values oversubscribe memory (swap); it
            must be finite.
        frag_level: fraction in [0, 1] of available memory fragmented
            with non-movable sentinels by the ``frag`` tool (§4.4.1).
        noise_nonmovable_gb / noise_movable_gb: background-noise sizes;
            only applied when ``pressure_gb`` is not None.
        tmpfs_remote: stage the input file's page cache on the remote
            NUMA node (the paper's interference-free methodology).  When
            False the cache competes with the application on its own
            node (§4.3's single-use-memory interference).
    """

    name: str
    pressure_gb: Optional[float] = None
    frag_level: float = 0.0
    noise_nonmovable_gb: float = DEFAULT_NONMOVABLE_NOISE_GB
    noise_movable_gb: float = DEFAULT_MOVABLE_NOISE_GB
    tmpfs_remote: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.frag_level <= 1.0:
            raise ConfigError(
                f"scenario {self.name!r}: frag_level must be in [0, 1], "
                f"got {self.frag_level}"
            )
        if self.pressure_gb is not None and not math.isfinite(
            self.pressure_gb
        ):
            raise ConfigError(
                f"scenario {self.name!r}: pressure_gb must be finite, "
                f"got {self.pressure_gb}"
            )

    @property
    def is_pressured(self) -> bool:
        """Whether memhog (and noise) will run."""
        return self.pressure_gb is not None


def fresh() -> Scenario:
    """Freshly booted machine: all memory free and contiguous."""
    return Scenario(name="fresh")


def constrained(pressure_gb: float) -> Scenario:
    """Constrained memory: WSS + ``pressure_gb`` left free (§4.3.1)."""
    return Scenario(
        name=f"constrained(+{pressure_gb:g}GB)", pressure_gb=pressure_gb
    )


def fragmented(frag_level: float, pressure_gb: float = 3.0) -> Scenario:
    """Low pressure (default WSS+3GB) with ``frag_level`` of the
    available memory fragmented by non-movable pages (§4.4).

    Background noise is reduced (not the constrained-scenario default):
    the paper's fragmentation experiments inject a *controlled* amount
    of non-movable litter with the ``frag`` tool, so ambient noise must
    stay a minor residual — but a real long-running node is never
    perfectly clean, and a small floor keeps the 25%-fragmentation cliff
    of Fig. 9 where the paper observes it.
    """
    return Scenario(
        name=f"fragmented({frag_level:.0%},+{pressure_gb:g}GB)",
        pressure_gb=pressure_gb,
        frag_level=frag_level,
        noise_nonmovable_gb=1.0,
        noise_movable_gb=0.25,
    )


def oversubscribed(deficit_gb: float = 0.5) -> Scenario:
    """Memory oversubscribed by ``deficit_gb``: swapping dominates."""
    return Scenario(
        name=f"oversubscribed(-{deficit_gb:g}GB)", pressure_gb=-deficit_gb
    )


def page_cache_interference(pressure_gb: float) -> Scenario:
    """Constrained memory with the input file cached on the *local*
    node — the single-use-memory interference of §4.3."""
    return Scenario(
        name=f"pagecache-local(+{pressure_gb:g}GB)",
        pressure_gb=pressure_gb,
        tmpfs_remote=False,
    )


SCENARIOS = {
    "fresh": fresh(),
    "high-pressure": constrained(0.5),
    "low-pressure": constrained(3.0),
    "frag-50": fragmented(0.5),
    "oversubscribed": oversubscribed(0.5),
}
"""The paper's recurring scenario set."""
