"""The set-associative, data-holding L1 cache model.

The cache owns block residency (lookups, fills, evictions, write-backs
to the next level) and the data words themselves.  It deliberately knows
nothing about 8T arrays or RMW: translating requests into SRAM array
operations is the job of the controllers in :mod:`repro.core`, which sit
on top of this model.

Storage layout
--------------
Residency state lives in flat per-set arrays rather than per-block
objects — this is the hot data structure of the whole simulator, and
slot arrays keep the inner loops on C-level list primitives:

* ``_tags[set]``  — one int per way; ``-1`` marks an invalid way (real
  tags are non-negative, so ``list.index`` doubles as the lookup);
* ``_dirty[set]`` — one bool per way;
* ``_data[set]``  — the set's words, flat: ``way * words_per_block +
  word_offset``;
* ``_stamps[set]`` / ``_tick`` — monotonic last-touch stamps for LRU
  (victim = argmin stamp; ``victim()`` is only consulted once every way
  is valid, i.e. stamped, so this matches the list-based LRU exactly).

Non-LRU policies (fifo/random/plru) keep per-set policy objects; the
columnar engine's kernels require stamp-LRU and check
:attr:`engine_fast_ok` before engaging.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Any, List, Optional

from repro.cache.address import AddressMapper
from repro.cache.config import CacheGeometry
from repro.cache.memory import FunctionalMemory
from repro.cache.replacement import ReplacementPolicy, make_policy
from repro.cache.stats import CacheStats
from repro.trace.record import MemoryAccess
from repro.utils.rng import DeterministicRNG
from repro.errors import ValidationError

__all__ = ["SetAssociativeCache", "AccessResult"]

#: Invalid-way sentinel in the tag slots.  Tags are masked to
#: ``tag_bits`` bits and therefore never negative.
_NO_TAG = -1


def _copies(row: List[Any], count: int) -> List[List[Any]]:
    """``count`` independent copies of ``row`` (one slot array per set)."""
    return list(map(list, repeat(row, count)))


@dataclass(frozen=True)
class AccessResult:
    """Outcome of making one request resident in the cache.

    Attributes:
        hit: True when the block was already resident.
        set_index: set the request maps to.
        way: way holding the block after the call.
        word_offset: word position inside the block.
        filled: True when a fill from the next level happened.
        evicted_tag: tag of the victim block, when one was evicted.
        evicted_dirty: True when the victim was dirty (written back).
    """

    hit: bool
    set_index: int
    way: int
    word_offset: int
    filled: bool = False
    evicted_tag: Optional[int] = None
    evicted_dirty: bool = False


class SetAssociativeCache:
    """Value-accurate set-associative cache over a functional memory."""

    def __init__(
        self,
        geometry: CacheGeometry,
        memory: Optional[FunctionalMemory] = None,
        replacement: str = "lru",
        rng: Optional[DeterministicRNG] = None,
    ) -> None:
        self.geometry = geometry
        self.mapper = AddressMapper(geometry)
        self.memory = memory if memory is not None else FunctionalMemory()
        self.stats = CacheStats()
        self._replacement_name = replacement
        rng = rng if rng is not None else DeterministicRNG(0)

        ways = geometry.associativity
        wpb = geometry.words_per_block
        num_sets = geometry.num_sets
        self._ways = ways
        self._wpb = wpb
        self._codec = geometry.codec
        self._tags: List[List[int]] = _copies([_NO_TAG] * ways, num_sets)
        self._dirty: List[List[bool]] = _copies([False] * ways, num_sets)
        self._data: List[List[int]] = _copies([0] * (ways * wpb), num_sets)
        self._stamps: List[List[int]] = _copies([0] * ways, num_sets)
        self._tick = 1

        self._policies: Optional[List[ReplacementPolicy]]
        if replacement.lower() == "lru":
            # LRU is modelled by the stamps alone; no policy objects.
            self._policies = None
        else:
            self._policies = []
            for set_index in range(num_sets):
                policy = make_policy(replacement, ways)
                if replacement == "random":
                    policy._rng = rng.fork("replacement", str(set_index))  # noqa: SLF001
                self._policies.append(policy)

    # -- engine contract ----------------------------------------------------

    @property
    def engine_fast_ok(self) -> bool:
        """True when the columnar kernels may drive the slot arrays directly.

        The kernels replicate stamp-LRU inline; any other replacement
        policy forces the scalar path (which goes through the policy
        objects).
        """
        return self._policies is None

    # -- residency ----------------------------------------------------------

    def lookup(self, address: int) -> Optional[int]:
        """Way holding ``address``, or None on miss.  No side effects."""
        codec = self._codec
        set_index = (address >> codec.index_shift) & codec.index_mask
        tag = (address >> codec.tag_shift) & codec.tag_mask
        try:
            return self._tags[set_index].index(tag)
        except ValueError:
            return None

    def ensure_resident(self, access: MemoryAccess) -> AccessResult:
        """Make the block of ``access`` resident, filling on a miss.

        Updates hit/miss statistics and the replacement state.  Dirty
        victims are written back to the next level.
        """
        address = access.address
        codec = self._codec
        set_index = (address >> codec.index_shift) & codec.index_mask
        tag = (address >> codec.tag_shift) & codec.tag_mask
        word_offset = (address & codec.offset_mask) >> codec.word_shift
        stats = self.stats

        tags = self._tags[set_index]
        try:
            way = tags.index(tag)
        except ValueError:
            way = None
        if way is not None:
            if access.is_read:
                stats.read_hits += 1
            else:
                stats.write_hits += 1
            self._touch(set_index, way)
            return AccessResult(
                hit=True, set_index=set_index, way=way, word_offset=word_offset
            )

        way, evicted_tag, evicted_dirty = self._fill(
            set_index, tag, address, access.is_read
        )
        return AccessResult(
            hit=False,
            set_index=set_index,
            way=way,
            word_offset=word_offset,
            filled=True,
            evicted_tag=evicted_tag,
            evicted_dirty=evicted_dirty,
        )

    def _fill(
        self, set_index: int, tag: int, address: int, is_read: bool
    ):
        """Miss half of :meth:`ensure_resident`.

        Records miss statistics, evicts the victim (writing a dirty one
        back), fills from the next level and stamps the way.  Returns
        ``(way, evicted_tag, evicted_dirty)``.
        """
        stats = self.stats
        if is_read:
            stats.read_misses += 1
        else:
            stats.write_misses += 1
        way = self._choose_fill_way(set_index)
        tags = self._tags[set_index]
        victim_tag = tags[way]
        evicted_tag: Optional[int] = None
        evicted_dirty = False
        wpb = self._wpb
        data = self._data[set_index]
        base = way * wpb
        if victim_tag != _NO_TAG:
            evicted_tag = victim_tag
            evicted_dirty = self._dirty[set_index][way]
            stats.evictions += 1
            if evicted_dirty:
                stats.dirty_evictions += 1
                victim_address = self.mapper.compose(victim_tag, set_index)
                self.memory.write_block(victim_address, data[base : base + wpb])

        block_address = self.mapper.block_address(address)
        fill_data = self.memory.read_block(block_address, wpb)
        data[base : base + wpb] = fill_data
        tags[way] = tag
        self._dirty[set_index][way] = False
        self._record_fill(set_index, way)
        return way, evicted_tag, evicted_dirty

    # -- replacement plumbing -----------------------------------------------

    def _touch(self, set_index: int, way: int) -> None:
        if self._policies is None:
            self._stamps[set_index][way] = self._tick
            self._tick += 1
        else:
            self._policies[set_index].on_access(way)

    def _record_fill(self, set_index: int, way: int) -> None:
        if self._policies is None:
            self._stamps[set_index][way] = self._tick
            self._tick += 1
        else:
            self._policies[set_index].on_fill(way)

    def _choose_fill_way(self, set_index: int) -> int:
        tags = self._tags[set_index]
        try:
            return tags.index(_NO_TAG)
        except ValueError:
            pass
        if self._policies is None:
            stamps = self._stamps[set_index]
            return stamps.index(min(stamps))
        return self._policies[set_index].victim()

    # -- data plane ----------------------------------------------------------

    def read_word(self, set_index: int, way: int, word_offset: int) -> int:
        """Read a word from a resident block."""
        if self._tags[set_index][way] == _NO_TAG:
            raise ValidationError("read from an invalid block")
        return self._data[set_index][way * self._wpb + word_offset]

    def write_word(
        self, set_index: int, way: int, word_offset: int, value: int
    ) -> None:
        """Write a word into a resident block (marks it dirty)."""
        if self._tags[set_index][way] == _NO_TAG:
            raise ValidationError("write to an invalid block")
        self._data[set_index][way * self._wpb + word_offset] = value
        self._dirty[set_index][way] = True

    def read_set_data(self, set_index: int) -> List[List[int]]:
        """Copy of every way's data words — the Set-Buffer fill (read row)."""
        data = self._data[set_index]
        wpb = self._wpb
        return [
            data[way * wpb : (way + 1) * wpb] for way in range(self._ways)
        ]

    def set_tags(self, set_index: int) -> List[Optional[int]]:
        """Tags resident in a set (None for invalid ways) — Tag-Buffer fill."""
        return [
            tag if tag != _NO_TAG else None for tag in self._tags[set_index]
        ]

    def tag_slots(self) -> List[List[int]]:
        """Copy of every set's tag slots, ``-1`` for an invalid way."""
        return [list(tags) for tags in self._tags]

    def flush_all_dirty(self) -> int:
        """Write every dirty block to memory (end-of-run drain for oracles).

        Returns the number of blocks written back.
        """
        written = 0
        wpb = self._wpb
        for set_index in range(self.geometry.num_sets):
            tags = self._tags[set_index]
            dirty = self._dirty[set_index]
            data = self._data[set_index]
            for way in range(self._ways):
                if tags[way] != _NO_TAG and dirty[way]:
                    address = self.mapper.compose(tags[way], set_index)
                    base = way * wpb
                    self.memory.write_block(address, data[base : base + wpb])
                    dirty[way] = False
                    written += 1
        return written

    # -- debug-mode structural audit -----------------------------------------

    def check_invariants(self) -> None:
        """Audit the slot arrays; raises :class:`InvariantViolation`.

        Part of the correctness tooling (see ``docs/correctness.md``):
        the inline invariant checker calls this after every access when
        a controller runs with ``enable_invariant_checks()``.  Checks
        are read-only and cover tag uniqueness and range, dirty bits
        only on valid ways, and stamp-LRU consistency (valid ways carry
        distinct stamps strictly below the tick; never-filled ways stay
        at stamp 0).
        """
        from repro.errors import InvariantViolation

        tag_limit = 1 << self.geometry.tag_bits
        check_stamps = self._policies is None
        for set_index in range(self.geometry.num_sets):
            tags = self._tags[set_index]
            dirty = self._dirty[set_index]
            valid_tags = [tag for tag in tags if tag != _NO_TAG]
            if len(valid_tags) != len(set(valid_tags)):
                raise InvariantViolation(
                    f"set {set_index}: duplicate tag among ways {tags}"
                )
            for way, tag in enumerate(tags):
                if tag != _NO_TAG and not 0 <= tag < tag_limit:
                    raise InvariantViolation(
                        f"set {set_index} way {way}: tag {tag:#x} outside "
                        f"the {self.geometry.tag_bits}-bit tag space"
                    )
                if dirty[way] and tag == _NO_TAG:
                    raise InvariantViolation(
                        f"set {set_index} way {way}: dirty but invalid"
                    )
            if len(self._data[set_index]) != self._ways * self._wpb:
                raise InvariantViolation(
                    f"set {set_index}: data slot length "
                    f"{len(self._data[set_index])} != ways*words "
                    f"{self._ways * self._wpb}"
                )
            if check_stamps:
                stamps = self._stamps[set_index]
                valid_stamps = [
                    stamps[way]
                    for way, tag in enumerate(tags)
                    if tag != _NO_TAG
                ]
                if any(
                    not 1 <= stamp < self._tick for stamp in valid_stamps
                ):
                    raise InvariantViolation(
                        f"set {set_index}: valid-way stamp outside "
                        f"[1, {self._tick}): {stamps}"
                    )
                if len(valid_stamps) != len(set(valid_stamps)):
                    raise InvariantViolation(
                        f"set {set_index}: duplicate LRU stamps {stamps} "
                        "(victim choice would be ambiguous)"
                    )
                if any(
                    stamps[way] != 0
                    for way, tag in enumerate(tags)
                    if tag == _NO_TAG
                ):
                    raise InvariantViolation(
                        f"set {set_index}: never-filled way carries a "
                        f"nonzero stamp: {stamps}"
                    )

    @property
    def replacement_name(self) -> str:
        return self._replacement_name
