"""Fsync'd LRU index journal for the result store.

The index is an append-only JSONL journal (header line + one op per
line) replayed into an ``OrderedDict`` on open.  Recency is *journal
order* — ``put``/``touch`` move a key to the back, eviction pops from
the front — so LRU decisions are a pure function of operation history
and never consult the wall clock (determinism rule RPR101 applies to
the sim layer that drives this).

Ops::

    {"op": "put", "key": "<hex>", "size": 1234}
    {"op": "touch", "key": "<hex>"}
    {"op": "evict", "key": "<hex>"}
    {"op": "remove", "key": "<hex>"}

Outside a batch every append goes through
:func:`repro.store.durable.append_lines` (one fsync'd write) before the
caller proceeds: a crash leaves at most one torn trailing line, and
replay simply skips lines that do not parse (counted in
:attr:`StoreIndex.skipped_lines`).  Inside :meth:`StoreIndex.batch`
(one campaign's lookup pass) ``touch`` lines are queued and appended
with one fsync when the batch ends; a ``put``, ``evict`` or ``remove``
writes the queued touches ahead of itself in the same call, so the
journal keeps operation order.  A crash inside a batch loses the
queued touches, which is recency and never an entry.  The index is a
*cache of the object tree*, not the source of truth — :meth:`reconcile`
repairs it against the objects actually on disk, so even deleting
``index.jsonl`` outright (or losing another process's appends to a
compaction) loses nothing but LRU order.

When the journal grows past ~4x the live entry count it is compacted:
rewritten as header + one ``put`` per live entry via
:func:`repro.store.durable.atomic_write`, the same commit the store
uses for entries, with a per-process tempfile.  Queued touches count
toward that threshold, and a compaction inside a batch captures their
recency, so it drops them.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.store.durable import append_lines, atomic_write

__all__ = ["INDEX_FORMAT", "INDEX_VERSION", "StoreIndex"]

INDEX_FORMAT = "repro8t-store-index"
INDEX_VERSION = 1

#: Compact once the journal holds more than ``live * _COMPACT_FACTOR +
#: _COMPACT_SLACK`` op lines; the slack keeps tiny stores from
#: compacting on every other write.
_COMPACT_FACTOR = 4
_COMPACT_SLACK = 16


class StoreIndex:
    """Replayable LRU journal over ``{key: size_bytes}``."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._entries: "OrderedDict[str, int]" = OrderedDict()
        self._op_lines = 0
        self.skipped_lines = 0
        #: Touch lines held back by an open :meth:`batch`, else None.
        self._queued: Optional[List[str]] = None
        self._replay()

    # -- replay / persistence -------------------------------------------

    def _replay(self) -> None:
        if not self.path.exists():
            self._rewrite()
            return
        try:
            lines = self.path.read_text().splitlines()
        except OSError:
            lines = []
        body = lines
        if lines:
            header = self._parse_line(lines[0])
            if (
                header is not None
                and header.get("format") == INDEX_FORMAT
                and header.get("version") == INDEX_VERSION
            ):
                body = lines[1:]
            else:
                # Foreign or damaged header: treat the whole file as
                # untrusted and rebuild from ops that still parse.
                self.skipped_lines += 1
        for line in body:
            record = self._parse_line(line)
            if record is None:
                self.skipped_lines += 1
                continue
            self._apply(record)
            self._op_lines += 1
        if self.skipped_lines:
            self._rewrite()

    @staticmethod
    def _parse_line(line: str) -> Optional[Dict]:
        line = line.strip()
        if not line:
            return None
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return None
        return record if isinstance(record, dict) else None

    def _apply(self, record: Dict) -> None:
        op = record.get("op")
        key = record.get("key")
        if not isinstance(key, str):
            self.skipped_lines += 1
            return
        if op == "put":
            size = record.get("size")
            self._entries[key] = int(size) if isinstance(size, int) else 0
            self._entries.move_to_end(key)
        elif op == "touch":
            if key in self._entries:
                self._entries.move_to_end(key)
        elif op in ("evict", "remove"):
            self._entries.pop(key, None)
        else:
            self.skipped_lines += 1

    def _append(self, record: Dict) -> None:
        line = json.dumps(record, sort_keys=True)
        if self._queued is not None and record["op"] == "touch":
            self._queued.append(line)
        else:
            # Queued touches go first: the journal keeps operation order.
            queued = self._queued or []
            append_lines(self.path, [*queued, line])
            queued.clear()
        self._op_lines += 1
        if self._op_lines > len(self._entries) * _COMPACT_FACTOR + _COMPACT_SLACK:
            self._rewrite()

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Queue ``touch`` lines for the block; append them with one
        fsync when it ends, also on an exception.

        A batch opened inside another joins it: the outer one writes.
        """
        if self._queued is not None:
            yield
            return
        self._queued = []
        try:
            yield
        finally:
            queued, self._queued = self._queued, None
            append_lines(self.path, queued)

    def _rewrite(self) -> None:
        """Compact: header + one ``put`` per live entry, atomically."""
        records = [{"format": INDEX_FORMAT, "version": INDEX_VERSION}]
        records.extend(
            {"op": "put", "key": key, "size": size}
            for key, size in self._entries.items()
        )
        atomic_write(
            self.path,
            "".join(
                json.dumps(record, sort_keys=True) + "\n" for record in records
            ),
        )
        self._op_lines = len(self._entries)
        if self._queued:
            # The rewrite holds every queued touch's recency.
            self._queued.clear()

    # -- mutation -------------------------------------------------------

    def put(self, key: str, size: int) -> None:
        self._entries[key] = size
        self._entries.move_to_end(key)
        self._append({"op": "put", "key": key, "size": size})

    def touch(self, key: str) -> None:
        if key not in self._entries:
            return
        self._entries.move_to_end(key)
        self._append({"op": "touch", "key": key})

    def evict(self, key: str) -> None:
        if self._entries.pop(key, None) is not None:
            self._append({"op": "evict", "key": key})

    def remove(self, key: str) -> None:
        if self._entries.pop(key, None) is not None:
            self._append({"op": "remove", "key": key})

    def reconcile(self, on_disk: Dict[str, int]) -> Tuple[int, int]:
        """Repair the index against the objects actually present.

        Index entries whose object vanished are dropped; objects the
        index never heard of are appended (at the LRU-oldest end is
        impossible in an append journal, so they land as most-recent —
        a safe bias: unknown provenance is not a reason to evict
        first).  Returns ``(dropped, adopted)``.
        """
        dropped = [key for key in self._entries if key not in on_disk]
        adopted = [key for key in on_disk if key not in self._entries]
        for key in dropped:
            del self._entries[key]
        for key in adopted:
            self._entries[key] = on_disk[key]
        if dropped or adopted:
            self._rewrite()
        return len(dropped), len(adopted)

    # -- queries --------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def size_of(self, key: str) -> int:
        return self._entries.get(key, 0)

    def total_bytes(self) -> int:
        return sum(self._entries.values())

    def lru_order(self) -> Iterator[str]:
        """Keys oldest-first (the eviction scan order)."""
        return iter(list(self._entries))
