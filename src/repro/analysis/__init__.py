"""Static analysis for the simulator.

:mod:`repro.analysis.lint` — AST-based repo-specific lint rules
(REP001–REP008, REP012 and REP013 per-file/project rules plus the
interprocedural ConcSan rules REP009–REP011) runnable as
``python -m repro.analysis``.  The runtime memory sanitizer, MemSan,
lives with the subsystem it checks, in :mod:`repro.mem.sanitizer`.
"""

from __future__ import annotations

from .baseline import apply_baseline, load_baseline, render_baseline
from .findings import ALL_RULES, RULE_SUMMARIES, Finding
from .lint import lint_paths, lint_text

__all__ = [
    "ALL_RULES",
    "Finding",
    "RULE_SUMMARIES",
    "apply_baseline",
    "lint_paths",
    "lint_text",
    "load_baseline",
    "render_baseline",
]
