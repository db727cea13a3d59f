"""Cache geometry configuration.

The paper's baseline is a 64 KB, 4-way, 32 B-block L1 data cache with
LRU replacement and 48-bit physical addresses (Section 5.1 and 5.4);
sensitivity studies use 32 KB/64 B (Figure 10) and 32 KB & 128 KB with
32 B blocks (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from repro.errors import ConfigurationError
from repro.trace.record import WORD_BYTES
from repro.utils.bitops import is_power_of_two, log2_exact

__all__ = ["AddressCodec", "CacheGeometry", "BASELINE_GEOMETRY"]


class AddressCodec(NamedTuple):
    """Shift/mask constants for splitting a byte address in one pass.

    The trace decoders split whole chunks with these
    (:mod:`repro.engine.batch`, :mod:`repro.engine.columnar`), so they are
    computed once per geometry and cached on the :class:`CacheGeometry`
    instance.  The decomposition is
    exactly :class:`repro.cache.address.AddressMapper`'s::

        set_index   = (address >> index_shift) & index_mask
        tag         = (address >> tag_shift) & tag_mask
        word_offset = (address & offset_mask) >> word_shift
    """

    index_shift: int
    index_mask: int
    tag_shift: int
    tag_mask: int
    offset_mask: int
    word_shift: int
    words_per_block: int


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity/block-size triple plus derived parameters.

    Attributes:
        size_bytes: total data capacity.
        associativity: ways per set.
        block_bytes: cache block (line) size.
        address_bits: physical address width (paper assumes 48).
    """

    size_bytes: int
    associativity: int
    block_bytes: int
    address_bits: int = 48

    def __post_init__(self) -> None:
        for name in ("size_bytes", "associativity", "block_bytes"):
            value = getattr(self, name)
            if not is_power_of_two(value):
                raise ConfigurationError(
                    f"{name} must be a positive power of two, got {value!r}"
                )
        if self.block_bytes < WORD_BYTES:
            raise ConfigurationError(
                f"block_bytes must be at least the word size "
                f"({WORD_BYTES} B), got {self.block_bytes}"
            )
        if self.address_bits <= 0:
            raise ConfigurationError(
                f"address_bits must be positive, got {self.address_bits}"
            )
        if self.size_bytes < self.block_bytes * self.associativity:
            raise ConfigurationError(
                "cache must hold at least one set: size_bytes "
                f"{self.size_bytes} < block_bytes*associativity "
                f"{self.block_bytes * self.associativity}"
            )
        if self.offset_bits + self.index_bits >= self.address_bits:
            raise ConfigurationError(
                "address_bits too small: no bits left for the tag"
            )

    # -- derived address decomposition --------------------------------------

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.associativity

    @property
    def words_per_block(self) -> int:
        return self.block_bytes // WORD_BYTES

    @property
    def words_per_set(self) -> int:
        return self.words_per_block * self.associativity

    @property
    def set_bytes(self) -> int:
        """Bytes held by one set — the Set-Buffer capacity (Section 5.4)."""
        return self.block_bytes * self.associativity

    @property
    def offset_bits(self) -> int:
        return log2_exact(self.block_bytes)

    @property
    def index_bits(self) -> int:
        return log2_exact(self.num_sets)

    @property
    def tag_bits(self) -> int:
        return self.address_bits - self.index_bits - self.offset_bits

    @cached_property
    def codec(self) -> AddressCodec:
        """Shift/mask constants for chunked address decoding.

        Cached per geometry (the dataclass is frozen, so the derived
        bit layout never changes after construction); the chunk decoders
        read these once before their loops.
        """
        return AddressCodec(
            index_shift=self.offset_bits,
            index_mask=self.num_sets - 1,
            tag_shift=self.offset_bits + self.index_bits,
            tag_mask=(1 << self.tag_bits) - 1,
            offset_mask=self.block_bytes - 1,
            word_shift=log2_exact(WORD_BYTES),
            words_per_block=self.words_per_block,
        )

    def describe(self) -> str:
        """Compact human-readable label, e.g. ``64KB/4-way/32B``."""
        if self.size_bytes >= 1024:
            size = f"{self.size_bytes // 1024}KB"
        else:
            size = f"{self.size_bytes}B"
        return f"{size}/{self.associativity}-way/{self.block_bytes}B"


BASELINE_GEOMETRY = CacheGeometry(
    size_bytes=64 * 1024, associativity=4, block_bytes=32
)
"""The paper's baseline L1-D geometry (Section 5.1)."""
