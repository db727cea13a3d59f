"""Durable content-addressed result store with self-healing reads.

Layout under the store root::

    objects/<key[:2]>/<key>.json    committed entries
    quarantine/<key>.<reason>.json  entries that failed validation
    index.jsonl                     fsync'd LRU journal (StoreIndex)

Guarantees:

* **Atomic commits.**  ``put`` commits through
  :func:`repro.store.durable.atomic_write`: a tempfile *in the objects
  directory*, flushed, fsynced, then ``os.replace``-renamed over the
  final name.  A crash at any point leaves either the old state or the
  new state, never a half-written entry.  Opening a store deletes
  tempfiles whose writer process is dead and leaves a live writer's
  alone.
* **Validated reads.**  Every ``get`` re-checks format, schema version,
  key/meta identity (including the recorded code version) and payload
  CRC.  An entry that fails any check is *quarantined* — moved into
  ``quarantine/`` with its failure reason in the filename — and the
  read reports a miss, so the caller recomputes and re-stores.  Corrupt
  data is therefore self-healing and is never returned.
* **Bounded size.**  With ``max_bytes`` set, committing a new entry
  evicts least-recently-used entries until the store fits.  Recency is
  journal order (see :class:`repro.store.index.StoreIndex`), not wall
  clock, so eviction decisions are deterministic.  The newest entry is
  never evicted by its own commit.  Each bounded commit first
  reconciles the index with the object tree, so entries other writers
  committed count against the bound too.

Telemetry: the ``on_event`` callback receives ``store.hit`` /
``store.miss`` / ``store.corrupt`` / ``store.evict`` (all registered in
:mod:`repro.obs.names`); the same counts accumulate in
:attr:`ResultStore.counters` for ``cache stats``.

Concurrency: one internal lock serialises a store object's operations;
the campaign runners additionally confine store access to the
coordinating thread (lookups before dispatch, commits as rows fold).
Several processes may share one root without a lock: every entry
commit is atomic, and an index that misses another process's entries
is repaired against the object tree on the next open.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.errors import StoreError, StoreIntegrityError
from repro.store.durable import atomic_write, sweep_stale_tempfiles
from repro.store.entry import decode_entry, encode_entry, entry_header
from repro.store.index import StoreIndex
from repro.store.keys import row_key, verdict_key
from repro.store.version import code_version

__all__ = ["ResultStore"]

EventCallback = Callable[..., None]

_COUNTERS = (
    "hits",
    "misses",
    "corrupt",
    "evictions",
    "puts",
    "invalidated",
)


class ResultStore:
    """Content-addressed ``(config, workload, code) -> payload`` store."""

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: Optional[int] = None,
        on_event: Optional[EventCallback] = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise StoreError(f"max_bytes must be positive, got {max_bytes}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.on_event = on_event
        self.counters: Dict[str, int] = {name: 0 for name in _COUNTERS}
        self._lock = threading.Lock()
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(
                f"store root {self.root} exists and is not a directory"
            )
        self.objects_dir = self.root / "objects"
        self.quarantine_dir = self.root / "quarantine"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        sweep_stale_tempfiles(self.root)
        self.index = StoreIndex(self.root / "index.jsonl")
        self.index.reconcile(self._scan_objects())

    # -- filesystem layout ---------------------------------------------

    def _object_path(self, key: str) -> Path:
        return self.objects_dir / key[:2] / f"{key}.json"

    def _scan_objects(self) -> Dict[str, int]:
        found: Dict[str, int] = {}
        for path in self.objects_dir.rglob("*.json"):
            found[path.stem] = path.stat().st_size
        return found

    # -- core get/put ---------------------------------------------------

    def get(
        self,
        key: str,
        meta: Optional[Dict[str, object]] = None,
        benchmark: Optional[str] = None,
    ) -> Optional[Dict]:
        """Validated lookup; quarantines damage and reports a miss."""
        with self._lock:
            path = self._object_path(key)
            try:
                text = path.read_text()
            except FileNotFoundError:
                self.counters["misses"] += 1
                if self.on_event is not None:
                    self.on_event("store.miss", key=key, benchmark=benchmark)
                return None
            except OSError as exc:
                # Unreadable entry (permissions, I/O error): treat as
                # damage — quarantine may fail too, but the read must
                # still degrade to a miss rather than explode.
                self._quarantine(key, path, "unreadable")
                self.counters["misses"] += 1
                if self.on_event is not None:
                    self.on_event(
                        "store.corrupt",
                        key=key,
                        benchmark=benchmark,
                        reason="unreadable",
                        error=str(exc),
                    )
                return None
            try:
                payload = decode_entry(text, str(path), key=key, meta=meta)
            except StoreIntegrityError as exc:
                self._quarantine(key, path, exc.reason)
                self.counters["corrupt"] += 1
                self.counters["misses"] += 1
                if self.on_event is not None:
                    self.on_event(
                        "store.corrupt",
                        key=key,
                        benchmark=benchmark,
                        reason=exc.reason,
                    )
                    self.on_event("store.miss", key=key, benchmark=benchmark)
                return None
            self.index.touch(key)
            self.counters["hits"] += 1
            if self.on_event is not None:
                self.on_event("store.hit", key=key, benchmark=benchmark)
            return payload

    def put(
        self,
        key: str,
        meta: Dict[str, object],
        payload: Dict,
        benchmark: Optional[str] = None,
    ) -> None:
        """Atomically commit one entry, then enforce the size bound."""
        with self._lock:
            text = encode_entry(key, meta, payload)
            path = self._object_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, text, benchmark=benchmark)
            self.index.put(key, len(text.encode()))
            self.counters["puts"] += 1
            self._enforce_bound(protect=key, benchmark=benchmark)

    def _enforce_bound(
        self, protect: str, benchmark: Optional[str] = None
    ) -> None:
        if self.max_bytes is None:
            return
        # Other writers on this root commit and evict behind this
        # index's back: bound the entries actually on disk.
        self.index.reconcile(self._scan_objects())
        while self.index.total_bytes() > self.max_bytes:
            victim = None
            for key in self.index.lru_order():
                if key != protect:
                    victim = key
                    break
            if victim is None:
                # Only the just-committed entry remains; a store that
                # evicts its sole entry caches nothing, so the bound
                # yields to it.
                return
            self._delete_object(victim)
            self.index.evict(victim)
            self.counters["evictions"] += 1
            if self.on_event is not None:
                self.on_event("store.evict", key=victim, benchmark=benchmark)

    def _delete_object(self, key: str) -> None:
        try:
            self._object_path(key).unlink()
        except OSError:
            pass

    def _quarantine(self, key: str, path: Path, reason: str) -> Path:
        """Move a bad entry aside; it is kept for post-mortems, not reads."""
        target = self.quarantine_dir / f"{key}.{reason}.json"
        serial = 0
        while target.exists():
            serial += 1
            target = self.quarantine_dir / f"{key}.{reason}.{serial}.json"
        try:
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        self.index.remove(key)
        return target

    # -- typed convenience keys ----------------------------------------

    def get_row(
        self, config, benchmark: str, code: Optional[str] = None
    ) -> Optional[Dict]:
        key, meta = row_key(config, benchmark, code=code)
        return self.get(key, meta, benchmark=benchmark)

    def put_row(
        self,
        config,
        benchmark: str,
        payload: Dict,
        code: Optional[str] = None,
    ) -> str:
        key, meta = row_key(config, benchmark, code=code)
        self.put(key, meta, payload, benchmark=benchmark)
        return key

    def get_verdict(
        self,
        entry_document: Dict,
        invariants: bool,
        code: Optional[str] = None,
    ) -> Optional[Dict]:
        key, meta = verdict_key(entry_document, invariants, code=code)
        return self.get(
            key, meta, benchmark=str(entry_document.get("benchmark") or "")
        )

    def put_verdict(
        self,
        entry_document: Dict,
        invariants: bool,
        payload: Dict,
        code: Optional[str] = None,
    ) -> str:
        key, meta = verdict_key(entry_document, invariants, code=code)
        self.put(
            key,
            meta,
            payload,
            benchmark=str(entry_document.get("benchmark") or ""),
        )
        return key

    # -- maintenance (cache stats|verify|gc|invalidate) ----------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "root": str(self.root),
                "entries": len(self.index),
                "total_bytes": self.index.total_bytes(),
                "max_bytes": self.max_bytes,
                "quarantined": sum(
                    1 for _ in self.quarantine_dir.glob("*.json")
                ),
                "code_version": code_version(),
                "index_skipped_lines": self.index.skipped_lines,
                "counters": dict(self.counters),
            }

    def verify(self) -> Dict[str, object]:
        """Validate every entry; quarantine the ones that fail.

        Returns ``{"checked": n, "ok": n, "corrupt": [{"key", "reason"},
        ...]}``.  Verification is itself a self-healing pass: anything
        it flags has already been moved aside, so a subsequent read
        misses cleanly instead of tripping over known damage.
        """
        with self._lock:
            corrupt: List[Dict[str, str]] = []
            checked = 0
            for path in sorted(self.objects_dir.rglob("*.json")):
                checked += 1
                key = path.stem
                try:
                    header = entry_header(path.read_text(), str(path))
                    if header["key"] != key:
                        raise StoreIntegrityError(
                            f"{path}: entry key does not match filename",
                            reason="skew",
                        )
                except StoreIntegrityError as exc:
                    self._quarantine(key, path, exc.reason)
                    self.counters["corrupt"] += 1
                    if self.on_event is not None:
                        self.on_event(
                            "store.corrupt", key=key, reason=exc.reason
                        )
                    corrupt.append({"key": key, "reason": exc.reason})
                except OSError:
                    self._quarantine(key, path, "unreadable")
                    corrupt.append({"key": key, "reason": "unreadable"})
            return {
                "checked": checked,
                "ok": checked - len(corrupt),
                "corrupt": corrupt,
            }

    def gc(self, prune_quarantine: bool = False) -> Dict[str, object]:
        """Drop entries written by a different code version.

        Stale entries can never be served (the meta cross-check rejects
        them as skew), so they are pure dead weight; ``gc`` reclaims
        them eagerly instead of waiting for LRU pressure.  With
        ``prune_quarantine`` the quarantine directory is emptied too.
        """
        with self._lock:
            current = code_version()
            removed = 0
            freed = 0
            for path in sorted(self.objects_dir.rglob("*.json")):
                key = path.stem
                try:
                    header = entry_header(path.read_text(), str(path))
                    stale = header["meta"].get("code") != current
                except (StoreIntegrityError, OSError):  # repro-lint: disable=RPR205
                    # Damaged entries are gc'd outright — verify would
                    # quarantine them, but a gc pass is an explicit
                    # request to reclaim space.  Not silent: the removal
                    # is counted in the returned gc report.
                    stale = True
                if stale:
                    freed += self.index.size_of(key) or path.stat().st_size
                    self._delete_object(key)
                    self.index.remove(key)
                    removed += 1
            pruned = 0
            if prune_quarantine:
                for path in self.quarantine_dir.glob("*.json"):
                    try:
                        path.unlink()
                        pruned += 1
                    except OSError:
                        pass
            return {
                "removed": removed,
                "freed_bytes": freed,
                "quarantine_pruned": pruned,
                "code_version": current,
            }

    def invalidate(
        self,
        benchmark: Optional[str] = None,
        kind: Optional[str] = None,
        everything: bool = False,
    ) -> Dict[str, object]:
        """Remove entries by selector (benchmark and/or kind, or all)."""
        if not everything and benchmark is None and kind is None:
            raise StoreError(
                "invalidate needs a selector: benchmark=, kind=, or "
                "everything=True"
            )
        with self._lock:
            removed = 0
            for path in sorted(self.objects_dir.rglob("*.json")):
                key = path.stem
                if not everything:
                    try:
                        meta = entry_header(path.read_text(), str(path))[
                            "meta"
                        ]
                    except (StoreIntegrityError, OSError):  # repro-lint: disable=RPR205
                        # An unreadable header matches no filter, so the
                        # damaged entry is removed — exactly what an
                        # invalidate pass wants, and the removal shows
                        # up in the returned count.
                        meta = {}
                    if benchmark is not None and meta.get(
                        "benchmark"
                    ) != benchmark:
                        continue
                    if kind is not None and meta.get("kind") != kind:
                        continue
                self._delete_object(key)
                self.index.remove(key)
                removed += 1
            self.counters["invalidated"] += removed
            return {"removed": removed}
