"""The Set-Buffer (paper Figure 6a).

A latch array sized to one cache set, sitting between the column mux and
the write drivers.  It is filled by an array 'read row', absorbs the
word-granular writes WG groups, detects silent writes by comparing the
incoming word with the word it already holds, and is drained back into
the array as a single full-row write.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple
from repro.errors import ValidationError

__all__ = ["SetBuffer"]


class SetBuffer:
    """Data plane of WG/WG+RB: one buffered cache set.

    Data is organised as ``data[way][word_offset]``; ``modified`` tracks
    exactly which words differ from what the cache currently holds, so a
    write-back applies the minimal functional update (the hardware
    writes the full row, which the controller accounts separately).
    """

    def __init__(self) -> None:
        self.valid: bool = False
        self.set_index: Optional[int] = None
        self._data: List[List[int]] = []
        self._modified: Set[Tuple[int, int]] = set()

    def fill(self, set_index: int, set_data: List[List[int]]) -> None:
        """Load a whole set, as read from the array row."""
        if not set_data or any(len(way) != len(set_data[0]) for way in set_data):
            raise ValidationError("set data must be a non-empty rectangular array")
        self.valid = True
        self.set_index = set_index
        self._data = [list(way) for way in set_data]
        self._modified = set()

    def invalidate(self) -> None:
        """Drop the buffered set (after a flush forced by a cache fill)."""
        self.valid = False
        self.set_index = None
        self._data = []
        self._modified = set()

    def holds(self, set_index: int) -> bool:
        """True when the buffer currently holds ``set_index``."""
        return self.valid and self.set_index == set_index

    def read(self, way: int, word_offset: int) -> int:
        """Serve a word from the buffer (the WG+RB bypass path)."""
        self._check_valid()
        return self._data[way][word_offset]

    def write(self, way: int, word_offset: int, value: int) -> bool:
        """Merge one word; returns True when the write was *silent*.

        A silent write stores the value already present (Lepak &
        Lipasti); the comparators next to the latches detect it and the
        buffer is left untouched, so it does not need a write-back.
        """
        self._check_valid()
        if self._data[way][word_offset] == value:
            return True
        self._data[way][word_offset] = value
        self._modified.add((way, word_offset))
        return False

    def engine_views(self) -> Tuple[List[List[int]], Set[Tuple[int, int]]]:
        """``(data, modified)`` internals for the columnar engine.

        The WG kernel in :mod:`repro.engine.columnar` copies these into
        its flat form (one list in the cache's ``way * wpb + word``
        layout, flat modified indices) at chunk start and assigns both
        attributes anew in this per-way form at chunk end.  The views
        go stale when the buffer is refilled or drained (:meth:`fill`/
        :meth:`take_modified` rebind the set), so callers must re-fetch
        them after any per-access :meth:`write`.
        """
        self._check_valid()
        return self._data, self._modified

    def take_modified(self) -> Dict[Tuple[int, int], int]:
        """Return and clear the modified words (the write-back payload)."""
        self._check_valid()
        payload = {
            (way, word): self._data[way][word] for way, word in self._modified
        }
        self._modified = set()
        return payload

    @property
    def has_modifications(self) -> bool:
        return bool(self._modified)

    @property
    def modified_words(self) -> int:
        """How many words currently differ from the array's copy."""
        return len(self._modified)

    @property
    def ways(self) -> int:
        return len(self._data)

    @property
    def words_per_way(self) -> int:
        return len(self._data[0]) if self._data else 0

    def row_snapshot(self) -> List[int]:
        """The full row as the write drivers would see it (way-major)."""
        self._check_valid()
        return [word for way in self._data for word in way]

    def _check_valid(self) -> None:
        if not self.valid:
            raise ValidationError("Set-Buffer is empty")
