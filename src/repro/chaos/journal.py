"""A :class:`~repro.runstate.journal.RunJournal` that fails on cue.

:class:`ChaosJournal` is what a chaos-armed figure (``repro figure
--journal PATH --chaos ...``) writes through: it counts appends and consults the
:class:`~repro.chaos.plan.ChaosPlan` before each one, so disk-full and
crash-mid-append adversity lands at an exact, reproducible record.
"""

from __future__ import annotations

import errno
import os
import signal
from typing import Optional

from ..faults.injector import FaultInjector
from ..runstate.journal import JournalRecord, RunJournal, render_line
from .plan import ChaosPlan


class ChaosJournal(RunJournal):
    """Counts appends and executes the plan's ``append``-point actions.

    - ``enospc:append:N`` — appends from the N-th onward raise
      ``OSError(ENOSPC)`` *before* touching the file, exactly like a
      full disk seen by ``open``/``write``.
    - ``kill-server:append:N`` — the N-th append writes only the first
      half of the record (fsynced, so the torn bytes really land), then
      SIGKILLs the process: the sharpest possible crash mid-append.
      Recovery relies on the journal's torn-record rule — the partial
      line fails the integrity hash and is treated as never written.
    """

    def __init__(
        self,
        path: str,
        plan: ChaosPlan,
        injector: Optional[FaultInjector] = None,
        lock: bool = False,
    ) -> None:
        self.plan = plan
        self.appends = 0
        """Appends attempted through this journal (1-based ordinals)."""
        super().__init__(path, injector=injector, lock=lock)

    def _append(self, record: JournalRecord) -> None:
        self.appends += 1
        ordinal = self.appends
        if self.plan.enospc_at_append(ordinal):
            raise OSError(errno.ENOSPC, "chaos: disk full")
        if self.plan.kill_server_at_append(ordinal):
            line = render_line(record)
            torn = line[: max(1, len(line) // 2)]
            # Deliberately tears the journal: a raw partial append
            # IS the fault being injected here.
            with open(  # repro: noqa REP011 — deliberate torn write
                self.path, "a", encoding="utf-8"
            ) as handle:
                handle.write(torn)
                handle.flush()
                os.fsync(handle.fileno())
            os.kill(os.getpid(), signal.SIGKILL)
        super()._append(record)
