"""Pidfile-based liveness lock for run-state files.

A journal is owned by at most one live process at a time: the sweep
writing it.  Maintenance commands (``repro runs gc``) and a second
sweep on the same journal must *refuse* to touch a journal whose owner
is still alive — compacting a file another process is appending to
would corrupt the exactly-once accounting the chaos scenarios verify.

The lock is a sidecar file (``<journal>.lock``) containing the owner's
PID.  Liveness is checked with ``os.kill(pid, 0)``: a lock whose owner
is dead (a crashed or SIGKILLed sweep) is *stale* and silently broken —
crash recovery must never require manual lock cleanup.  Acquisition is
atomic (``O_CREAT | O_EXCL``), and re-acquiring from the owning process
itself succeeds (one process may build several ``RunJournal`` views of
the same path).

This is a liveness guard, not a byte-range lock: it serializes *owners*
(one writer process per journal), which is the only discipline the
append-only journal needs.
"""

from __future__ import annotations

import atexit
import os
from typing import Optional

from ..errors import JournalLockedError

LOCK_SUFFIX = ".lock"


def lock_path_for(path: str) -> str:
    """The sidecar lock path guarding ``path``."""
    return os.fspath(path) + LOCK_SUFFIX


def pid_alive(pid: int) -> bool:
    """True when ``pid`` names a live process we can see.

    ``PermissionError`` means the process exists but belongs to someone
    else — that still counts as alive (never steal a foreign lock).
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def read_holder(lock_path: str) -> Optional[int]:
    """The PID recorded in ``lock_path``, or ``None`` if absent/garbled."""
    try:
        with open(lock_path, "r", encoding="utf-8") as handle:
            text = handle.read().strip()
    except OSError:
        return None
    try:
        return int(text.split()[0])
    except (ValueError, IndexError):
        return None


def live_holder(path: str) -> Optional[int]:
    """The live PID holding the lock for ``path``, or ``None``.

    ``path`` is the *protected* file (e.g. the journal); the sidecar
    lock is derived.  A recorded-but-dead holder is reported as ``None``
    — stale locks never block anyone.
    """
    holder = read_holder(lock_path_for(path))
    if holder is None or not pid_alive(holder):
        return None
    return holder


class PidLock:
    """Advisory single-owner lock on one run-state file.

    Usage::

        lock = PidLock(journal_path)
        lock.acquire()   # raises JournalLockedError if a live foreign
                         # process owns it; breaks stale locks silently
        ...
        lock.release()   # also registered atexit

    The lock content is ``"<pid>\\n"``; liveness — not file existence —
    is what blocks acquisition, so a SIGKILLed owner never wedges the
    journal.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self.lock_path = lock_path_for(self.path)
        self._owned = False

    @property
    def owned(self) -> bool:
        return self._owned

    def acquire(self) -> None:
        """Take the lock, breaking stale (dead-owner) locks.

        Raises:
            JournalLockedError: a different live process holds it.
        """
        if self._owned:
            return
        pid = os.getpid()
        while True:
            try:
                fd = os.open(
                    self.lock_path,
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                    0o644,
                )
            except FileExistsError:
                holder = read_holder(self.lock_path)
                if holder == pid:
                    # Same process re-acquiring (a second RunJournal
                    # view of the same path): already ours.
                    self._owned = True
                    atexit.register(self.release)
                    return
                if holder is not None and pid_alive(holder):
                    raise JournalLockedError(
                        f"{self.path!r} is locked by live process "
                        f"{holder} ({self.lock_path}); refusing to "
                        "take over a journal another run/server owns"
                    )
                # Stale (dead owner or garbled): break it and retry.
                try:
                    os.unlink(self.lock_path)
                except FileNotFoundError:
                    pass
                continue
            try:
                os.write(fd, f"{pid}\n".encode("ascii"))
            finally:
                os.close(fd)
            self._owned = True
            atexit.register(self.release)
            return

    def release(self) -> None:
        """Drop the lock if we own it (idempotent; atexit-safe)."""
        if not self._owned:
            return
        self._owned = False
        if read_holder(self.lock_path) == os.getpid():
            try:
                os.unlink(self.lock_path)
            except FileNotFoundError:
                pass

    def __enter__(self) -> "PidLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
