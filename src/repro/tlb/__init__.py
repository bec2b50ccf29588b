"""Address-translation hardware model.

- :mod:`repro.tlb.trace` — logical access streams emitted by workloads and
  their translation into page-granular TLB traces.
- :mod:`repro.tlb.tlb` — a set-associative, LRU TLB structure.
- :mod:`repro.tlb.hierarchy` — the paper's two-level hierarchy: split L1
  DTLB (separate structures per page size, Table 1) over a unified STLB,
  with per-data-structure miss attribution.
- :mod:`repro.tlb.engine` — the vectorized batch translation engine: a
  set-wise LRU decision procedure producing counts identical to the
  exact simulator, at a fraction of the per-lookup cost
  (docs/performance.md).
- :mod:`repro.tlb.native` — the exact simulator's lookup loop as a C
  kernel (``lru.c``), compiled on first use; ``auto``'s first choice.
"""

from .trace import AccessStream, TlbTrace, merge_streams
from .tlb import SetAssociativeTlb
from .hierarchy import TranslationHierarchy, TranslationStats
from .engine import (
    TLB_ENGINES,
    BatchTranslationHierarchy,
    batch_engine_matches,
    make_hierarchy,
)
from .native import NativeTranslationHierarchy

__all__ = [
    "AccessStream",
    "BatchTranslationHierarchy",
    "NativeTranslationHierarchy",
    "SetAssociativeTlb",
    "TLB_ENGINES",
    "TlbTrace",
    "TranslationHierarchy",
    "TranslationStats",
    "batch_engine_matches",
    "make_hierarchy",
    "merge_streams",
]
