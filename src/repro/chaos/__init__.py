"""repro.chaos — deterministic process-level adversity (docs/distributed.md).

The simulator's fault injector (:mod:`repro.faults`) perturbs code
*inside* a process; this package perturbs the processes themselves,
on exactly counted schedules:

- :mod:`repro.chaos.plan` — :class:`ChaosPlan`: the
  ``action:point:ordinal`` grammar (``kill-worker:cell:N``,
  ``kill-server:append:N``, ``enospc:append:N``, ``drop``/``delay``/
  ``sever`` network points).
- :mod:`repro.chaos.journal` — :class:`ChaosJournal`: a run journal
  that tears or refuses appends on cue.
- :mod:`repro.chaos.crash` — ``python -m repro.chaos.crash``: run any
  CLI command with a SIGKILL bomb at one counted crash point.
- :mod:`repro.chaos.dist_scenarios` — the ``repro chaos`` scenarios
  asserting the distributed layer's recovery invariants (exactly-once,
  partition tolerance, byte identity, split-brain refusal).
"""

from .dist_scenarios import SCENARIOS, run_scenarios
from .journal import ChaosJournal
from .plan import ChaosAction, ChaosPlan

__all__ = [
    "SCENARIOS",
    "ChaosAction",
    "ChaosJournal",
    "ChaosPlan",
    "run_scenarios",
]
