"""Tests for the journal pidfile lock and the `repro runs gc` guard.

The lock serializes journal *owners*: a live sweep owns its journal,
and maintenance (`runs gc`) or a second writer must refuse to touch it
while the owner is alive.  Stale locks (dead owners — crashed or
SIGKILLed runs) are broken silently: crash recovery never requires
manual cleanup.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.errors import JournalLockedError
from repro.runstate import RunJournal, live_holder, lock_path_for
from repro.runstate.lock import PidLock, pid_alive, read_holder


@pytest.fixture
def dead_pid() -> int:
    """A PID that recently existed but is now certainly dead."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


class TestPidLock:
    def test_acquire_writes_pid_release_removes(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        lock = PidLock(path)
        lock.acquire()
        assert lock.owned
        assert read_holder(lock_path_for(path)) == os.getpid()
        lock.release()
        assert not lock.owned
        assert not os.path.exists(lock_path_for(path))

    def test_release_is_idempotent(self, tmp_path):
        lock = PidLock(str(tmp_path / "run.jsonl"))
        lock.acquire()
        lock.release()
        lock.release()

    def test_same_process_reacquires(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        first = PidLock(path)
        first.acquire()
        second = PidLock(path)
        second.acquire()  # must not raise: same pid owns it
        assert second.owned
        first.release()

    def test_live_foreign_owner_blocks(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        # PID 1 is always alive and never us.
        with open(lock_path_for(path), "w", encoding="utf-8") as handle:
            handle.write("1\n")
        with pytest.raises(JournalLockedError):
            PidLock(path).acquire()

    def test_stale_lock_broken_silently(self, tmp_path, dead_pid):
        path = str(tmp_path / "run.jsonl")
        with open(lock_path_for(path), "w", encoding="utf-8") as handle:
            handle.write(f"{dead_pid}\n")
        lock = PidLock(path)
        lock.acquire()  # dead owner: acquisition must succeed
        assert read_holder(lock_path_for(path)) == os.getpid()
        lock.release()

    def test_garbled_lock_broken_silently(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(lock_path_for(path), "w", encoding="utf-8") as handle:
            handle.write("not a pid\n")
        lock = PidLock(path)
        lock.acquire()
        lock.release()

    def test_context_manager(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with PidLock(path) as lock:
            assert lock.owned
        assert not os.path.exists(lock_path_for(path))

    def test_pid_alive(self, dead_pid):
        assert pid_alive(os.getpid())
        assert not pid_alive(dead_pid)
        assert not pid_alive(0)
        assert not pid_alive(-1)

    def test_live_holder(self, tmp_path, dead_pid):
        path = str(tmp_path / "run.jsonl")
        assert live_holder(path) is None  # no lock at all
        with open(lock_path_for(path), "w", encoding="utf-8") as handle:
            handle.write(f"{dead_pid}\n")
        assert live_holder(path) is None  # stale
        with open(lock_path_for(path), "w", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        assert live_holder(path) == os.getpid()
        os.unlink(lock_path_for(path))


class TestJournalLocking:
    def test_locked_journal_blocks_second_owner(self, tmp_path, monkeypatch):
        path = str(tmp_path / "run.jsonl")
        journal = RunJournal(path, lock=True)
        # Simulate a *different* live process owning the lock: rewrite
        # the holder to PID 1 so a second lock=True journal must refuse.
        with open(lock_path_for(path), "w", encoding="utf-8") as handle:
            handle.write("1\n")
        with pytest.raises(JournalLockedError):
            RunJournal(path, lock=True)
        with open(lock_path_for(path), "w", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        journal.close()
        assert not os.path.exists(lock_path_for(path))

    def test_close_is_idempotent_and_unlocked_journal_has_no_lock(
        self, tmp_path
    ):
        path = str(tmp_path / "run.jsonl")
        journal = RunJournal(path)  # lock=False default
        assert not os.path.exists(lock_path_for(path))
        journal.close()
        journal.close()


class TestRunsGcGuard:
    """Regression: `repro runs gc` must refuse a live run's journal."""

    def _sweep(self, tmp_path) -> str:
        journal = str(tmp_path / "run.jsonl")
        assert cli_main([
            "run", "--workload", "bfs", "--dataset", "test-small",
            "--profile", "tiny", "--journal", journal,
        ]) == 0
        return journal

    def test_gc_refused_while_owner_lives(self, tmp_path, capsys):
        journal = self._sweep(tmp_path)
        # Forge a live foreign owner (PID 1): gc must refuse, exit 2,
        # and leave the journal bytes untouched.
        with open(lock_path_for(journal), "w", encoding="utf-8") as handle:
            handle.write("1\n")
        with open(journal, "rb") as handle:
            before = handle.read()
        code = cli_main(["runs", "gc", "--journal", journal])
        assert code == 2
        captured = capsys.readouterr()
        assert "refusing to gc" in captured.err
        with open(journal, "rb") as handle:
            assert handle.read() == before
        os.unlink(lock_path_for(journal))

    def test_gc_proceeds_after_owner_exits(self, tmp_path, dead_pid, capsys):
        journal = self._sweep(tmp_path)
        # A stale lock (dead owner) must not block maintenance.
        with open(lock_path_for(journal), "w", encoding="utf-8") as handle:
            handle.write(f"{dead_pid}\n")
        assert cli_main(["runs", "gc", "--journal", journal]) == 0
        captured = capsys.readouterr()
        assert "kept 1 completed cell" in captured.out

    def test_cli_sweep_releases_lock_at_command_end(self, tmp_path):
        journal = self._sweep(tmp_path)
        # The in-process `repro run` above finished: its lock is gone,
        # so gc needs no forgiveness window.
        assert live_holder(journal) is None
        assert cli_main(["runs", "gc", "--journal", journal]) == 0
