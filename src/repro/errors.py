"""Exception hierarchy for the repro package.

Every error raised by the simulator derives from :class:`ReproError` so
callers can catch simulator failures without masking programming errors
(``TypeError``, ``ValueError`` from misuse are still raised directly where
appropriate).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all simulator errors."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class OutOfMemoryError(ReproError):
    """A physical memory allocation could not be satisfied.

    Raised when neither free frames, compaction, nor reclaim can produce
    the requested pages and swap is not enabled for the machine.
    """


class AllocationError(ReproError):
    """A virtual memory operation failed (bad range, overlap, misuse)."""


class AddressError(ReproError):
    """An access touched an unmapped or out-of-range virtual address."""


class GraphError(ReproError):
    """A graph structure is malformed or an operation is unsupported."""


class DatasetError(GraphError):
    """A named dataset is unknown or could not be materialized."""


class WorkloadError(ReproError):
    """A workload was configured or driven incorrectly."""


class ExperimentError(ReproError):
    """An experiment harness cell could not be configured or run."""


class InjectedFaultError(ReproError):
    """A deterministic injected fault fired at a named site.

    Raised by :class:`repro.faults.FaultInjector` when a site's trigger
    matches.  Carries enough context for the harness to attribute the
    failure (``CellFailure`` site labels) and for tests to assert
    determinism.

    Attributes:
        site: the :class:`repro.faults.FaultSite` that fired.
        hit: 1-based fire count at that site within the injector.
        evaluation: 1-based site-evaluation index that fired, if known.
    """

    def __init__(self, site, hit: int, evaluation=None) -> None:
        self.site = site
        self.hit = hit
        self.evaluation = evaluation
        label = getattr(site, "value", site)
        detail = f"fire #{hit}"
        if evaluation is not None:
            detail += f", evaluation {evaluation}"
        super().__init__(f"injected fault at site {label!r} ({detail})")


class MemSanError(ReproError):
    """The runtime memory sanitizer (MemSan) detected a broken invariant.

    Raised by :class:`repro.mem.sanitizer.MemSanitizer` hooks when a
    simulated-memory operation violates frame-state discipline
    (double-alloc/free, illegal transitions, huge-region preconditions)
    or when a sweep finds the frame map, VMM page tables and page cache
    out of sync.  This always indicates a simulator bug, never a modeled
    adverse condition — it is deliberately *not* absorbed by the
    experiment harness's failure handling.
    """


class CellBudgetExceededError(ExperimentError):
    """A cell exceeded its simulated-access budget.

    The harness's runaway guard: raised by the machine's compute loop
    when a cell's simulated accesses pass the configured cap, so a
    misbehaving workload degrades into a structured ``CellFailure``
    instead of burning a figure batch's time budget.
    """


class WatchdogExpiredError(ExperimentError):
    """The cell watchdog fired: a cell ran past its simulated-cycle
    budget or its wall-clock deadline.

    Raised by :class:`repro.runstate.watchdog.CellWatchdog` from inside
    the machine's compute loop.  The harness absorbs it into a
    ``CellFailure`` labelled ``FAILED(watchdog)`` without retrying — a
    hung or runaway cell cannot be fixed by replaying it, only bounded.

    Attributes:
        reason: ``"cycles"`` or ``"wall-clock"`` — which bound tripped.
    """

    cause_label = "watchdog"
    """Rendered into ``CellFailure`` markers instead of the class name."""

    def __init__(self, reason: str, detail: str) -> None:
        self.reason = reason
        super().__init__(f"watchdog expired ({reason}): {detail}")


class JournalError(ReproError):
    """A run journal could not be read or is being misused.

    Torn or corrupt *records* never raise this — they are detected via
    the per-record integrity hash and treated as never-run.  This error
    covers structural misuse: a journal path that exists but is a
    directory, an unreadable file, or recording to a closed journal.
    """


class JournalLockedError(JournalError):
    """A journal is owned by another *live* process.

    Raised by :class:`repro.runstate.lock.PidLock` when a different
    running process holds a journal's pidfile lock — e.g. ``repro runs
    gc`` pointed at the journal of a live sweep.  Stale locks (dead
    owners) never raise this; they are broken silently so crash recovery
    needs no manual cleanup.
    """


class MergeConflictError(JournalError):
    """A journal merge found conflicting results for one fingerprint.

    Split-brain: two shards hold ``done`` records for the same spec
    fingerprint whose semantic content (cell coordinates, payload,
    attempts, kernel cycles) differs.  Identical duplicates — the normal
    outcome of a cell re-leased after a worker partition — merge
    silently; a genuine divergence means the shards were produced under
    different settings or one of them is corrupt, and the merge refuses
    rather than guessing which side to keep.

    Attributes:
        conflicts: one dict per conflicting fingerprint —
            ``{"spec", "label", "variants": [{"source", "digest",
            "status"}]}`` — so the refusal report can name exactly what
            diverged and where each variant came from.
    """

    def __init__(self, conflicts) -> None:
        self.conflicts = list(conflicts)
        specs = ", ".join(c["spec"] for c in self.conflicts)
        super().__init__(
            f"conflicting results for {len(self.conflicts)} "
            f"fingerprint(s): {specs}"
        )


class DistError(ReproError):
    """The distributed sweep layer could not dispatch or collect a cell.

    Raised by :mod:`repro.dist` for coordinator/worker protocol
    failures the layer *chose* to surface (a lease the coordinator no
    longer recognizes, an integrity-hash mismatch on a streamed
    result).  Transport-level failures stay ``OSError`` so the bounded
    retry loop can treat them uniformly.
    """


class ChaosError(ReproError):
    """A chaos scenario's invariant did not hold.

    Raised by :mod:`repro.chaos.dist_scenarios` when a post-adversity
    assertion fails — e.g. a merged journal differs from the serial
    reference, or a re-leased spec executed twice.  A chaos *action*
    firing is never an error; only a broken recovery invariant is.
    """
