"""Crash-point recovery: SIGKILL anywhere, resume, identical bytes.

The invariant from docs/distributed.md: for every crash point —
mid-cell or mid-journal-append (torn record) — a resumed run completes
the figure and its saved JSON is **byte-identical** to an uninterrupted
run.  The crash is injected with :mod:`repro.chaos.crash`, which
SIGKILLs the process (no cleanup, no atexit) at a deterministic
ordinal, leaving a half-written record behind for the append points.

Also home to the :class:`repro.chaos.plan.ChaosPlan` grammar tests.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pytest

from repro.chaos.plan import ChaosPlan
from repro.cli import main as cli_main
from repro.errors import ConfigError
from repro.runstate.journal import scan_records


class TestChaosPlan:
    def test_parse_round_trip(self):
        plan = ChaosPlan.parse("kill-worker:cell:1,enospc:append:3")
        assert plan.kill_worker_at(1)
        assert not plan.kill_worker_at(2)
        assert plan.enospc_at_append(3)
        assert plan.enospc_at_append(5)  # threshold, not exact
        assert not plan.enospc_at_append(2)
        assert not plan.kill_server_at_append(3)

    def test_kill_server_is_exact(self):
        plan = ChaosPlan.parse("kill-server:append:4")
        assert plan.kill_server_at_append(4)
        assert not plan.kill_server_at_append(5)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "kill-worker",
            "kill-worker:cell",
            "kill-worker:cell:0",
            "kill-worker:cell:x",
            "kill-worker:append:1",  # wrong point for the action
            "enospc:cell:1",
            "no-such-action:cell:1",
        ],
    )
    def test_rejects_bad_grammar(self, text):
        with pytest.raises(ConfigError):
            ChaosPlan.parse(text)

    def test_tolerates_trailing_commas(self):
        plan = ChaosPlan.parse("kill-worker:cell:1,")
        assert plan.kill_worker_at(1)


FIGURE_ARGS = [
    "figure", "fig01",
    "--datasets", "test-small",
    "--workloads", "bfs,pagerank",
    "--profile", "tiny",
    "--json",
]


def _figure_args(journal: str, out: str, resume: bool = False) -> list[str]:
    args = FIGURE_ARGS + ["--journal", journal, "--out", out]
    if resume:
        args.append("--resume")
    return args


@pytest.fixture(scope="module")
def clean_figure(tmp_path_factory):
    """fig01 bytes from one uninterrupted run — the reference output."""
    base = tmp_path_factory.mktemp("clean")
    journal = str(base / "run.jsonl")
    out = str(base / "out")
    assert cli_main(_figure_args(journal, out)) == 0
    with open(os.path.join(out, "fig01.json"), "rb") as handle:
        return handle.read()


@pytest.mark.slow
class TestCrashRecovery:
    """SIGKILL at each crash point, restart with --resume, same bytes.

    fig01 over (bfs, pagerank) × test-small sweeps 8 cells (the
    figure's own policy × scenario grid), each journaling a begin and a
    done append.  The points below cover: the first cell mid-execution,
    a later cell mid-execution, a torn *begin* append, and two torn
    *done* appends at different depths.
    """

    @pytest.mark.parametrize(
        "crash_at",
        ["cell:1", "cell:2", "append:1", "append:2", "append:4"],
    )
    def test_sigkill_then_resume_is_byte_identical(
        self, crash_at, clean_figure, tmp_path
    ):
        journal = str(tmp_path / "run.jsonl")
        out = str(tmp_path / "out")
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__import__("repro").__file__)
        )))
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root, env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.chaos.crash",
             "--crash-at", crash_at, "--"]
            + _figure_args(journal, out),
            env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, (
            f"crash bomb at {crash_at} never fired: "
            f"exit {proc.returncode}, stderr "
            f"{proc.stderr.decode(errors='replace')[-500:]}"
        )
        # The interrupted run must not have produced the figure file —
        # output writes are atomic and happen after the sweep.
        assert not os.path.exists(os.path.join(out, "fig01.json"))

        assert cli_main(_figure_args(journal, out, resume=True)) == 0
        with open(os.path.join(out, "fig01.json"), "rb") as handle:
            resumed = handle.read()
        assert resumed == clean_figure, (
            f"resume after {crash_at} changed the figure bytes"
        )

    def test_torn_append_leaves_recoverable_journal(
        self, clean_figure, tmp_path
    ):
        """A SIGKILL mid-append leaves a torn tail; the journal must
        treat it as never written and re-run only that cell."""
        journal = str(tmp_path / "run.jsonl")
        out = str(tmp_path / "out")
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__import__("repro").__file__)
        )))
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root, env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.chaos.crash",
             "--crash-at", "append:4", "--"]
            + _figure_args(journal, out),
            env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL
        with open(journal, "rb") as handle:
            torn = handle.read()
        assert not torn.endswith(b"\n"), "append:4 should leave a torn tail"
        valid_before = list(scan_records(journal))
        assert len(valid_before) == 3  # begin+done cell 1, begin cell 2

        assert cli_main(_figure_args(journal, out, resume=True)) == 0
        # Exactly one spec — the one whose `done` append tore — gets a
        # second `running` record on resume; completed cells are never
        # re-executed.
        running_counts: dict[str, int] = {}
        for record in scan_records(journal):
            if record.status == "running":
                running_counts[record.spec] = (
                    running_counts.get(record.spec, 0) + 1
                )
        assert sorted(running_counts.values(), reverse=True)[0] == 2
        assert list(running_counts.values()).count(2) == 1
        assert all(count in (1, 2) for count in running_counts.values())
