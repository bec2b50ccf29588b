"""SIGKILL-at-a-crash-point child driver: ``python -m repro.chaos.crash``.

Runs any ``repro`` CLI command with a bomb armed at one counted crash
point, then lets the command run until the bomb fires::

    python -m repro.chaos.crash --crash-at cell:2 -- \
        figure fig01 --datasets test-small --journal run.jsonl --resume

Crash points (ordinals are 1-based):

- ``cell:N`` — SIGKILL the process the moment the N-th cell *starts*
  executing: its ``running`` journal record is already durable, its
  result is not.  Exercises resume-from-in-flight.
- ``append:N`` — on the N-th journal append, write only the first half
  of the record (fsynced), then SIGKILL: a torn tail mid-append.
  Exercises torn-record recovery.

The process exits via ``SIGKILL`` (status ``-9``) when the bomb fires,
or with the wrapped command's exit code when the ordinal is never
reached — which the chaos tests use as the "crash points exhausted"
signal to stop iterating.

This module exists for the crash-recovery tests; it deliberately
reuses the *real* CLI entry point so a crash interrupts exactly the
code paths users run.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import Optional, Sequence

from ..errors import ConfigError


def _parse_crash_at(text: str) -> tuple[str, int]:
    point, _, raw_ordinal = text.partition(":")
    if point not in ("cell", "append"):
        raise ConfigError(
            f"unknown crash point {point!r}; expected cell:N or append:N"
        )
    try:
        ordinal = int(raw_ordinal)
    except ValueError as exc:
        raise ConfigError(f"bad crash ordinal in {text!r}") from exc
    if ordinal < 1:
        raise ConfigError("crash ordinals are 1-based")
    return point, ordinal


def _arm_cell_bomb(ordinal: int) -> None:
    from ..experiments.harness import ExperimentRunner

    original = ExperimentRunner._execute_cell
    state = {"count": 0}

    def bombed(self, *args, **kwargs):
        state["count"] += 1
        if state["count"] == ordinal:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(self, *args, **kwargs)

    ExperimentRunner._execute_cell = bombed


def _arm_append_bomb(ordinal: int) -> None:
    from ..runstate.journal import RunJournal, render_line

    original = RunJournal._append
    state = {"count": 0}

    def bombed(self, record):
        state["count"] += 1
        if state["count"] == ordinal:
            line = render_line(record)
            torn = line[: max(1, len(line) // 2)]
            # The torn raw write IS the injected crash — this must
            # not go through the atomic append helpers.
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(torn)
                handle.flush()
                os.fsync(handle.fileno())
            os.kill(os.getpid(), signal.SIGKILL)
        return original(self, record)

    RunJournal._append = bombed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.crash",
        description="run a repro CLI command with a SIGKILL bomb armed "
        "at one counted crash point",
    )
    parser.add_argument(
        "--crash-at",
        required=True,
        metavar="POINT:N",
        help="cell:N (kill as the N-th cell starts) or append:N (tear "
        "the N-th journal append, then kill)",
    )
    parser.add_argument(
        "cli_args",
        nargs=argparse.REMAINDER,
        metavar="-- ARGS",
        help="repro CLI arguments (e.g. -- figure fig01 --journal j.jsonl)",
    )
    args = parser.parse_args(argv)
    point, ordinal = _parse_crash_at(args.crash_at)
    if point == "cell":
        _arm_cell_bomb(ordinal)
    else:
        _arm_append_bomb(ordinal)
    cli_args = list(args.cli_args)
    if cli_args and cli_args[0] == "--":
        cli_args = cli_args[1:]
    from ..cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main())
