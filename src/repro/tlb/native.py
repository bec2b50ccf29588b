"""Native exact translation engine: the reference loop as compiled code.

``lru.c`` replays a coalesced lookup stream through the split L1 DTLB
and unified STLB in one C pass, in the same order of operations as
:meth:`TranslationHierarchy._lookups
<repro.tlb.hierarchy.TranslationHierarchy._lookups>`, so its counts are
the exact engine's by construction (and checked against it before
``auto`` picks it, :func:`repro.tlb.engine.batch_engine_matches`).

The kernel is built on first use with ``$CC`` (default ``cc``) into
:func:`cache_dir`, or into :func:`tempfile.gettempdir` when that cannot
be created or written.  The file name hashes the source, the flags and
the machine type, so an edited kernel never loads a stale build.  A
build is written under a temporary name and published with
:func:`os.replace`, so processes building at the same time each load a
whole library.  Any build or load failure leaves the engine unavailable
(:func:`load` returns None) instead of raising.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shlex
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ..config import TlbConfig
from ..errors import ConfigError
from .hierarchy import MAX_ARRAY_IDS, TranslationHierarchy

SOURCE = Path(__file__).with_name("lru.c")
FLAGS = ("-O2", "-shared", "-fPIC")

_kernels: dict[Path, Optional[Callable[..., None]]] = {}
"""Loaded kernel per cache directory; one build or load per process."""


def cache_dir() -> Path:
    """Where built kernels are kept: ``$XDG_CACHE_HOME/repro``, by
    default ``~/.cache/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


@functools.lru_cache(maxsize=None)
def library_name() -> str:
    """The built kernel's file name, keyed by what the build depends on."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join(FLAGS).encode())
    digest.update(platform.machine().encode())
    return f"lru-{digest.hexdigest()[:16]}.so"


def load() -> Optional[Callable[..., None]]:
    """The kernel's ``lru_replay`` function, built on first use, or
    None when it cannot be built or loaded."""
    key = cache_dir()
    if key not in _kernels:
        _kernels[key] = _load(key)
    return _kernels[key]


def _load(primary: Path) -> Optional[Callable[..., None]]:
    directory = primary
    try:
        directory.mkdir(parents=True, exist_ok=True)
        writable = os.access(directory, os.W_OK)
    except OSError:
        writable = False
    if not writable:
        directory = Path(tempfile.gettempdir())
    path = directory / library_name()
    if not path.exists() and not _build(path):
        return None
    try:
        # Never load a library another user could have planted.
        if path.stat().st_uid != os.getuid():
            return None
        replay = ctypes.CDLL(str(path)).lru_replay
    except (OSError, AttributeError):
        return None
    replay.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] + [
        ctypes.c_void_p
    ] * 2
    replay.restype = None
    return replay


def _build(path: Path) -> bool:
    """Compile the kernel to ``path``; False if anything fails."""
    compiler = shlex.split(os.environ.get("CC") or "cc")
    try:
        fd, scratch = tempfile.mkstemp(
            prefix=f".{path.stem}-", suffix=".tmp", dir=path.parent
        )
    except OSError:
        return False
    os.close(fd)
    try:
        done = subprocess.run(
            [*compiler, *FLAGS, "-o", scratch, str(SOURCE)],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=120,
            check=False,
        )
        if done.returncode != 0:
            return False
        os.replace(scratch, path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


class _Lru(ctypes.Structure):
    """``lru_t`` in lru.c: one structure's slots and geometry."""

    _fields_ = [
        ("slots", ctypes.c_void_p),
        ("mask", ctypes.c_int64),
        ("ways", ctypes.c_int64),
    ]


class NativeTranslationHierarchy(TranslationHierarchy):
    """The exact hierarchy with :meth:`_lookups` in compiled code.

    The state is one ``sets x ways`` int64 array per structure
    (``slots``: L1 base, L1 huge, STLB), MRU-first within a set and -1
    in empty slots, updated in place by the kernel.  Carried state and
    flushes need no replay: the arrays *are* the state.

    Raises:
        ConfigError: when the kernel cannot be built or loaded.
    """

    engine = "native"

    def __init__(self, config: TlbConfig) -> None:
        replay = load()
        if replay is None:
            raise ConfigError(
                f"the native TLB engine is unavailable: {SOURCE.name} "
                "could not be built with $CC (default cc) or loaded; "
                "use --tlb-engine auto or batch"
            )
        # The parent's constructor is skipped: it builds the Python
        # structures, which this engine never reads or updates.
        self.config = config
        self.tracer = None
        self._stream = 0
        geometries = (config.l1_base, config.l1_huge, config.l2)
        self.slots = tuple(
            np.full((g.sets, g.ways), -1, dtype=np.int64) for g in geometries
        )
        # Bound once: the kernel's view of the slots never moves (flush
        # writes in place), so each call passes one table address.
        self._tables = (_Lru * 3)(
            *(
                _Lru(s.ctypes.data, g.sets - 1, g.ways)
                for s, g in zip(self.slots, geometries)
            )
        )
        self._replay = functools.partial(
            replay, ctypes.addressof(self._tables)
        )

    def flush(self) -> None:
        """Full shootdown of every level."""
        for slots in self.slots:
            slots.fill(-1)

    def access_one(self, key: int) -> str:
        """Single-access path for tests: ``"l1"``, ``"l2"`` or
        ``"walk"``, through the kernel."""
        l1m, wlk = self._lookups(
            np.array([key], dtype=np.int64), np.zeros(1, dtype=np.uint8)
        )
        return "walk" if wlk[0] else "l2" if l1m[0] else "l1"

    def _lookups(
        self, lookup_keys: np.ndarray, lookup_array_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        keys = np.ascontiguousarray(lookup_keys, dtype=np.int64)
        aids = np.ascontiguousarray(lookup_array_ids, dtype=np.uint8)
        if aids.shape != keys.shape or keys.ndim != 1:
            raise ValueError(
                "lookup keys and array ids must be 1-D and of equal length"
            )
        # One counter per uint8 value, so no array id can index past
        # them; ids beyond MAX_ARRAY_IDS are refused after the pass,
        # where the reference loop would raise IndexError.
        l1m = np.zeros(256, dtype=np.int64)
        wlk = np.zeros(256, dtype=np.int64)
        self._replay(
            keys.ctypes.data,
            aids.ctypes.data,
            keys.size,
            l1m.ctypes.data,
            wlk.ctypes.data,
        )
        if l1m[MAX_ARRAY_IDS:].any():
            raise IndexError(
                f"array id beyond MAX_ARRAY_IDS ({MAX_ARRAY_IDS})"
            )
        return l1m[:MAX_ARRAY_IDS], wlk[:MAX_ARRAY_IDS]
