"""Human-readable trace file format.

One record per line::

    <icount> <R|W> <hex address> [<hex value>]

Lines starting with ``#`` and blank lines are ignored.  The value column
is mandatory for writes and optional (defaulting to 0) for reads.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Union

from repro.errors import TraceFormatError
from repro.trace.record import AccessType, MemoryAccess

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.config import CacheGeometry
    from repro.engine.batch import AccessBatch

__all__ = ["read_text_trace", "read_text_trace_batches", "write_text_trace"]

PathLike = Union[str, Path]


def write_text_trace(path: PathLike, trace: Iterable[MemoryAccess]) -> int:
    """Write ``trace`` to ``path``; returns the number of records written."""
    count = 0
    with open(path, "w", encoding="ascii") as handle:
        handle.write("# repro trace v1: icount kind address value\n")
        for access in trace:
            handle.write(
                f"{access.icount} {access.kind.value} "
                f"{access.address:#x} {access.value:#x}\n"
            )
            count += 1
    return count


def _parse_line(line: str, line_number: int) -> MemoryAccess:
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
    try:
        return MemoryAccess(icount=icount, kind=kind, address=address, value=value)
    except ValueError as exc:
        raise TraceFormatError(f"line {line_number}: {exc}") from exc


def read_text_trace(path: PathLike) -> Iterator[MemoryAccess]:
    """Lazily parse a text trace file."""
    with open(path, "r", encoding="ascii") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield _parse_line(line, line_number)


def read_text_trace_batches(
    path: PathLike,
    geometry: "CacheGeometry",
    batch_size: Optional[int] = None,
) -> Iterator["AccessBatch"]:
    """Parse a text trace into struct-of-arrays batches.

    The text format is validation-heavy, so this simply chunks
    :func:`read_text_trace` through
    :func:`repro.engine.batch.iter_batches`; the speedup comes from the
    columnar engine downstream (for fast decode too, convert to the
    binary format and use :func:`repro.trace.read_binary_trace_batches`).
    """
    from repro.engine.batch import iter_batches

    return iter_batches(read_text_trace(path), geometry, batch_size)
