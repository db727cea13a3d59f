"""Deterministic byte-level file corruption.

Used by the integrity tests to prove that a truncated or bit-flipped
trace file is *detected* (``TraceFormatError`` naming the byte offset)
rather than silently parsed into garbage.  Corruption is in-place and exact — no randomness, so a
failing test reproduces byte-for-byte.

The ``*_entry`` helpers target result-store entries specifically, one
per damage class the store's validated reads must classify and
quarantine: :func:`tear_entry` (truncation mid-document → ``torn``),
:func:`corrupt_entry_crc` (payload edited under an intact header →
``crc``), and :func:`skew_entry_code` (recorded code version rewritten
→ ``skew``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.errors import ValidationError

__all__ = [
    "truncate_file",
    "flip_bit",
    "tear_entry",
    "corrupt_entry_crc",
    "skew_entry_code",
]

PathLike = Union[str, Path]


def truncate_file(path: PathLike, keep_bytes: int) -> int:
    """Cut ``path`` down to its first ``keep_bytes`` bytes.

    Returns the number of bytes removed.  ``keep_bytes`` past the end
    of the file is a no-op (returns 0).
    """
    if keep_bytes < 0:
        raise ValidationError(f"keep_bytes must be non-negative, got {keep_bytes}")
    path = Path(path)
    size = path.stat().st_size
    if keep_bytes >= size:
        return 0
    with open(path, "rb+") as handle:
        handle.truncate(keep_bytes)
    return size - keep_bytes


def flip_bit(path: PathLike, byte_offset: int, bit: int = 0) -> int:
    """Flip one bit in place; returns the new byte value.

    ``byte_offset`` may be negative to index from the end of the file
    (``-1`` = last byte).
    """
    if not 0 <= bit <= 7:
        raise ValidationError(f"bit must be in [0, 7], got {bit}")
    path = Path(path)
    size = path.stat().st_size
    if byte_offset < 0:
        byte_offset += size
    if not 0 <= byte_offset < size:
        raise ValidationError(
            f"byte_offset {byte_offset} outside file of {size} bytes"
        )
    with open(path, "rb+") as handle:
        handle.seek(byte_offset)
        original = handle.read(1)[0]
        flipped = original ^ (1 << bit)
        handle.seek(byte_offset)
        handle.write(bytes([flipped]))
    return flipped


# -- result-store entry corruptors ------------------------------------------


def tear_entry(path: PathLike, fraction: float = 0.5) -> int:
    """Tear a store entry: keep only the leading ``fraction`` of it.

    Models a write interrupted mid-flight (power loss after a partial
    flush).  The remainder is no longer valid JSON, so a validated
    read classifies it ``torn``.  Returns bytes removed.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValidationError(f"fraction must be in [0, 1), got {fraction}")
    size = Path(path).stat().st_size
    return truncate_file(path, int(size * fraction))


def _load_entry(path: Path) -> dict:
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(
            f"{path} is not a readable JSON store entry: {exc}"
        ) from exc
    if not isinstance(document, dict):
        raise ValidationError(f"{path} is not a JSON-object store entry")
    return document


def corrupt_entry_crc(path: PathLike, field: str = "") -> str:
    """Silently edit a store entry's payload under its intact CRC.

    Models media bit rot that escaped the filesystem: the document
    still parses and the header still matches, but the payload no
    longer checksums — the ``crc`` damage class.  Edits ``field``
    (default: the first payload key) and returns its name.
    """
    path = Path(path)
    document = _load_entry(path)
    payload = document.get("payload")
    if not isinstance(payload, dict) or not payload:
        raise ValidationError(f"{path} has no payload to corrupt")
    target = field or sorted(payload)[0]
    if target not in payload:
        raise ValidationError(f"{path}: payload has no field {target!r}")
    value = payload[target]
    payload[target] = (
        value + 1 if isinstance(value, int) and not isinstance(value, bool)
        else f"corrupted:{value}"
    )
    path.write_text(json.dumps(document, sort_keys=True) + "\n")
    return target


def skew_entry_code(path: PathLike, code: str = "0000dead0000beef") -> str:
    """Rewrite the code version a store entry claims it was built by.

    Models version skew — an entry smuggled across a code upgrade (or
    a hand-edited header).  The key no longer matches the meta digest,
    so a validated read classifies it ``skew``.  Returns the previous
    recorded version.
    """
    path = Path(path)
    document = _load_entry(path)
    meta = document.get("meta")
    if not isinstance(meta, dict):
        raise ValidationError(f"{path} has no meta header to skew")
    previous = str(meta.get("code", ""))
    meta["code"] = code
    path.write_text(json.dumps(document, sort_keys=True) + "\n")
    return previous
