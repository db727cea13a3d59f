"""Human-readable trace file format.

One record per line::

    <icount> <R|W> <hex address> [<hex value>]

Lines starting with ``#`` and blank lines are ignored.  The value column
is mandatory for writes and optional (defaulting to 0) for reads.  The
file is ASCII, and every number must fit in 64 unsigned bits, the width
of the :class:`~repro.trace.columns.TraceColumns` columns the reader
fills.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Tuple, Union

from repro.errors import TraceFormatError
from repro.trace.columns import TraceColumns
from repro.trace.record import WORD_BYTES, AccessType, MemoryAccess

__all__ = ["read_text_trace", "write_text_trace"]

PathLike = Union[str, Path]

_FIELD_LIMIT = 1 << 64
#: The kind letter of a ``kinds`` column entry (1 = write).
_LETTERS = (AccessType.READ.value, AccessType.WRITE.value)


def write_text_trace(path: PathLike, trace: Iterable[MemoryAccess]) -> int:
    """Write ``trace`` to ``path``; returns the number of records written.

    Lines are formatted straight from the trace's columns
    (:meth:`TraceColumns.of`), so no record is built.
    """
    columns = TraceColumns.of(trace)
    with open(path, "w", encoding="ascii") as handle:
        handle.write("# repro trace v1: icount kind address value\n")
        handle.writelines(
            f"{icount} {_LETTERS[kind]} {address:#x} {value:#x}\n"
            for icount, kind, address, value in zip(
                columns.icounts.tolist(),
                columns.kinds.tolist(),
                columns.addresses.tolist(),
                columns.values.tolist(),
            )
        )
    return len(columns)


def _parse_line(line: str, line_number: int) -> Tuple[int, int, int, int]:
    """``(icount, kind, address, value)`` of one record, kind 1 for a write."""
    fields = line.split()
    if len(fields) not in (3, 4):
        raise TraceFormatError(
            f"line {line_number}: expected 3 or 4 fields, got {len(fields)}: {line!r}"
        )
    try:
        icount = int(fields[0])
        kind = AccessType.from_letter(fields[1])
        address = int(fields[2], 0)
        value = int(fields[3], 0) if len(fields) == 4 else 0
    except ValueError as exc:
        raise TraceFormatError(f"line {line_number}: {exc}") from exc
    if kind.is_write and len(fields) != 4:
        raise TraceFormatError(
            f"line {line_number}: write record is missing its value field"
        )
    for name, number in (("icount", icount), ("address", address), ("value", value)):
        if not 0 <= number < _FIELD_LIMIT:
            raise TraceFormatError(
                f"line {line_number}: {name} {number} does not fit in "
                f"64 unsigned bits"
            )
    if address % WORD_BYTES:
        raise TraceFormatError(
            f"line {line_number}: address must be {WORD_BYTES}-byte "
            f"aligned, got {address:#x}"
        )
    return icount, int(kind.is_write), address, value


def read_text_trace(path: PathLike) -> TraceColumns:
    """Parse a text trace file into columns.

    Raises :class:`TraceFormatError` naming the line for bytes that are
    not ASCII and for a malformed record: a wrong field count, an
    unknown kind letter, a write without its value, a field that is not
    a number or does not fit in 64 unsigned bits, or an address that is
    not word aligned.
    """
    icounts: List[int] = []
    kinds: List[int] = []
    addresses: List[int] = []
    values: List[int] = []
    # Undecodable bytes become lone surrogates, so the line that holds
    # one can be named instead of failing somewhere inside a read.
    with open(path, encoding="ascii", errors="surrogateescape") as handle:
        for line_number, raw in enumerate(handle, start=1):
            if not raw.isascii():
                raise TraceFormatError(f"line {line_number}: not ASCII text")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            icount, kind, address, value = _parse_line(line, line_number)
            icounts.append(icount)
            kinds.append(kind)
            addresses.append(address)
            values.append(value)
    return TraceColumns.from_lists(icounts, kinds, addresses, values)
