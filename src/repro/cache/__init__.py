"""Set-associative cache substrate.

A value-accurate (data-holding) L1 data cache simulator equivalent in
scope to the Pin-tool cache the paper builds:

* :class:`CacheGeometry` — size / associativity / block-size triple with
  all derived address-decomposition parameters (paper baseline:
  64 KB, 4-way, 32 B blocks, LRU).
* :class:`AddressMapper` — tag/index/offset decomposition.
* Replacement policies — LRU (the paper's choice) plus FIFO, Random and
  tree-PLRU for sensitivity studies.
* :class:`SetAssociativeCache` — the cache model proper, backed by a
  :class:`FunctionalMemory` next level that also serves as the
  correctness oracle for the controllers in :mod:`repro.core`.
"""

from repro.cache.config import CacheGeometry, BASELINE_GEOMETRY
from repro.cache.address import AddressMapper
from repro.cache.memory import FunctionalMemory
from repro.cache.replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    TreePLRUPolicy,
    make_policy,
)
from repro.cache.cache import AccessResult, SetAssociativeCache
from repro.cache.hierarchy import CacheBackedMemory, CacheHierarchy
from repro.cache.stats import CacheStats

__all__ = [
    "CacheGeometry",
    "BASELINE_GEOMETRY",
    "AddressMapper",
    "FunctionalMemory",
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "TreePLRUPolicy",
    "make_policy",
    "SetAssociativeCache",
    "AccessResult",
    "CacheStats",
    "CacheHierarchy",
    "CacheBackedMemory",
]
