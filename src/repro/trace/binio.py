"""Packed binary trace file format.

Layout: an 8-byte magic header followed by fixed-size records.  Two
on-disk variants share the record body::

    icount   u64 little-endian
    kind     u8  (0 = read, 1 = write)
    address  u64 little-endian
    value    u64 little-endian

``b"RPTRACE1"`` files carry the 25-byte body alone.  ``b"RPTRACE2"``
files (written with ``crc=True``) append a CRC-32 of the body to every
record (29 bytes total), so bit rot in cached campaign traces is
*detected* — a corrupt record raises :class:`TraceFormatError` naming
the record index and byte offset instead of replaying garbage into
hours of simulation.  The reader dispatches on the magic, so both
variants read through the same function.

:func:`read_binary_trace` decodes a whole file into a
:class:`~repro.trace.columns.TraceColumns` with one ``np.frombuffer``
over a packed structured dtype, so no record is built.  It checks the
whole file before it returns anything, and a file with several faults
reports the first of: bad header, truncated tail, first CRC mismatch,
first bad kind byte, first misaligned address.
:func:`write_binary_trace` is its mirror: the trace's columns packed
into the same dtype and written as its bytes, so no record is built.

The binary format is ~4x smaller and far faster to parse than the text
format; campaign runs that cache traces on disk use it.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Any, Iterable, Optional, Union

import numpy

from repro.errors import TraceFormatError
from repro.trace.columns import TraceColumns
from repro.trace.record import WORD_BYTES, MemoryAccess

# Bound as ``Any``: the decode is checked against the writer by the
# trace tests, and NumPy's stubs would only add casts.
np: Any = numpy

__all__ = [
    "read_binary_trace",
    "write_binary_trace",
    "MAGIC",
    "MAGIC_CRC",
]

MAGIC = b"RPTRACE1"
MAGIC_CRC = b"RPTRACE2"

_BODY = [("icount", "<u8"), ("kind", "u1"), ("address", "<u8"), ("value", "<u8")]
#: One whole record of each variant, packed (25 and 29 bytes).
_DTYPES = {
    MAGIC: np.dtype(_BODY),
    MAGIC_CRC: np.dtype(_BODY + [("crc", "<u4")]),
}
#: The bytes of a record that its ``RPTRACE2`` CRC-32 covers.
_BODY_SIZE = _DTYPES[MAGIC].itemsize

PathLike = Union[str, Path]


def write_binary_trace(
    path: PathLike, trace: Iterable[MemoryAccess], crc: bool = False
) -> int:
    """Write ``trace`` to ``path`` in binary form; returns the record count.

    ``crc=True`` selects the integrity-checked ``RPTRACE2`` variant
    with a per-record CRC-32 (4 bytes/record, ~16 % size cost).  The
    trace's columns (:meth:`TraceColumns.of`) are packed into the
    reader's record dtype, so no record is built; each CRC is computed
    over its record's 25-byte body in the packed bytes.
    """
    columns = TraceColumns.of(trace)
    magic = MAGIC_CRC if crc else MAGIC
    dtype = _DTYPES[magic]
    records = np.zeros(len(columns), dtype=dtype)
    records["icount"] = columns.icounts
    records["kind"] = columns.kinds
    records["address"] = columns.addresses
    records["value"] = columns.values
    data = records.tobytes()
    if crc:
        view = memoryview(data)
        records["crc"] = np.fromiter(
            (
                zlib.crc32(view[start : start + _BODY_SIZE])
                for start in range(0, len(data), dtype.itemsize)
            ),
            dtype=np.uint32,
            count=len(records),
        )
        data = records.tobytes()
    with open(path, "wb") as handle:
        handle.write(magic)
        handle.write(data)
    return len(records)


def _first(mask: Any) -> Optional[int]:
    """Index of the first true entry of ``mask``, else ``None``."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else None


def read_binary_trace(path: PathLike) -> TraceColumns:
    """Decode a binary trace file (either variant) into columns.

    Raises :class:`TraceFormatError` for a truncated or unknown header
    and, naming the record index and byte offset, for a truncated
    record, a CRC mismatch (``RPTRACE2``), a kind byte other than 0 or
    1, and an address that is not word aligned.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    header = data[: len(MAGIC)]
    if len(header) != len(MAGIC):
        raise TraceFormatError(
            f"{path}: truncated header ({len(header)} of "
            f"{len(MAGIC)} bytes)"
        )
    dtype = _DTYPES.get(header)
    if dtype is None:
        raise TraceFormatError(
            f"{path}: bad magic {header!r}, expected {MAGIC!r} "
            f"or {MAGIC_CRC!r}"
        )
    record_size = dtype.itemsize

    def record(index: int) -> str:
        return f"record #{index} at byte offset {len(MAGIC) + index * record_size}"

    count, tail = divmod(len(data) - len(MAGIC), record_size)
    if tail:
        raise TraceFormatError(
            f"{path}: truncated {record(count)} ({tail} of {record_size} bytes)"
        )
    records = np.frombuffer(data, dtype=dtype, count=count, offset=len(MAGIC))

    if header == MAGIC_CRC:
        view = memoryview(data)
        computed = np.fromiter(
            (
                zlib.crc32(view[start : start + _BODY_SIZE])
                for start in range(len(MAGIC), len(data), record_size)
            ),
            dtype=np.uint32,
            count=count,
        )
        bad = _first(computed != records["crc"])
        if bad is not None:
            raise TraceFormatError(
                f"{path}: CRC mismatch in {record(bad)}: stored "
                f"0x{int(records['crc'][bad]):08x}, computed "
                f"0x{int(computed[bad]):08x}"
            )

    kinds = records["kind"]
    bad = _first(kinds > 1)
    if bad is not None:
        raise TraceFormatError(
            f"{path}: {record(bad)} has bad kind byte {int(kinds[bad])}"
        )
    addresses = records["address"]
    bad = _first(addresses % WORD_BYTES)
    if bad is not None:
        raise TraceFormatError(
            f"{path}: {record(bad)}: address must be {WORD_BYTES}-byte "
            f"aligned, got {int(addresses[bad]):#x}"
        )
    return TraceColumns(
        records["icount"].astype(np.uint64),
        kinds.astype(np.uint8),
        addresses.astype(np.uint64),
        records["value"].astype(np.uint64),
    )
