"""Durable estimation-record cache.

The Accelergy CACTI plug-in memoizes ``self.records`` keyed on the
query and persists them to disk ("enable data reuse"); this is the
production version of that idea for the estimator layer.  Records live
in one append-only JSONL file, written through
:func:`repro.store.durable.append_lines`: outside a batch every ``put``
appends its own fsync'd line; inside :meth:`EstimationRecordCache.batch`
(one figure) the records are queued and appended with one fsync when
the batch ends.  A crash can tear at most the final line, a torn line
is skipped (and counted) on the next load rather than poisoning the
cache, and the next record starts on a fresh line.  A crash inside a
batch loses the batch's records, which the next run recomputes.

Keys reuse the content-addressed canonicalisation from
:mod:`repro.store.keys`: a record's identity is the digest of its meta
header ``{kind, backend, query-fingerprint, code-version}``, where the
code version covers :data:`repro.store.version.ESTIMATOR_CODE_PATHS`
(the power models and the geometry code they derive from).  Any edit
to an energy/area model rotates the version and turns the whole cache
into misses — stale estimates are structurally unreachable — while
leaving campaign-row caches untouched.

Hit/miss telemetry is emitted by the registry (see
:mod:`repro.power.estimator.registry`); the cache itself keeps plain
counters for ``stats`` and tests.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.power.estimator.protocol import Estimation
from repro.power.estimator.query import EstimationQuery
from repro.store.durable import append_lines
from repro.store.keys import canonical_json, digest
from repro.store.version import ESTIMATOR_CODE_PATHS, code_version

__all__ = [
    "EstimationRecordCache",
    "estimator_code_version",
    "record_key",
]

#: Filename used when the cache path is a directory.
RECORDS_FILENAME = "estimations.jsonl"


def estimator_code_version() -> str:
    """Code version of the estimator-result surface (16 hex chars)."""
    return code_version(paths=ESTIMATOR_CODE_PATHS)


def record_key(
    backend_id: str,
    query: EstimationQuery,
    code: Optional[str] = None,
) -> Tuple[str, Dict[str, object]]:
    """(key, meta) identifying one estimation record.

    The key is the digest of the meta header, so a loaded record's
    stored meta can be cross-checked against the expectation — skew
    (a different backend, query, or code version) reads as a miss.
    """
    meta: Dict[str, object] = {
        "kind": "estimation",
        "backend": backend_id,
        "query": query.fingerprint(),
        "code": code if code is not None else estimator_code_version(),
    }
    return digest(meta), meta


class EstimationRecordCache:
    """Fsync'd JSONL cache of :class:`Estimation` records.

    ``path`` may be a file (used as-is) or a directory (the cache file
    is ``estimations.jsonl`` inside it).  The file is replayed once at
    construction; lookups afterwards are in-memory.  Write failures
    degrade to a structured warning — an unwritable cache never fails
    an estimate.
    """

    def __init__(
        self,
        path: Union[str, Path],
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        path = Path(path)
        if path.is_dir() or (not path.exists() and not path.suffix):
            path.mkdir(parents=True, exist_ok=True)
            path = path / RECORDS_FILENAME
        self.path = path
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.counters: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "skipped_lines": 0,
            "write_failures": 0,
        }
        self._records: Dict[str, Estimation] = {}
        #: Record lines held back by an open :meth:`batch`, else None.
        self._queued: Optional[List[str]] = None
        self._replay()

    # -- persistence ---------------------------------------------------------

    def _replay(self) -> None:
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return
        except OSError as exc:
            self.telemetry.warn(
                "estimator.cache_unreadable",
                f"estimation cache {self.path} unreadable: {exc}; "
                "starting cold",
            )
            return
        for line_number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                document = json.loads(line)
                key = document["key"]
                meta = document["meta"]
                estimation = Estimation.from_payload(document["payload"])
                expected = digest(meta)
            except (KeyError, TypeError, ValueError):
                # A torn final line from a crashed writer, or hand
                # damage: skip and count, never serve.
                self.counters["skipped_lines"] += 1
                continue
            if expected != key:
                self.counters["skipped_lines"] += 1
                continue
            # Last writer wins — replay order is append order.
            self._records[key] = estimation

    def _write(self, lines: Sequence[str]) -> bool:
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            append_lines(self.path, lines)
            return True
        except OSError as exc:
            self.counters["write_failures"] += len(lines)
            self.telemetry.warn(
                "estimator.cache_unwritable",
                f"estimation cache {self.path} unwritable: {exc}; "
                f"{len(lines)} record(s) not persisted",
            )
            return False

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Queue the block's records; append them with one fsync when it
        ends, also on an exception.

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
            if queued:
                self._write(queued)

    # -- lookups -------------------------------------------------------------

    def get(self, key: str) -> Optional[Estimation]:
        """In-memory lookup; counts a hit or a miss."""
        record = self._records.get(key)
        if record is None:
            self.counters["misses"] += 1
            return None
        self.counters["hits"] += 1
        return record.as_cached()

    def put(
        self,
        key: str,
        meta: Dict[str, object],
        estimation: Estimation,
    ) -> bool:
        """Persist one record (append + fsync) and index it.

        Inside a :meth:`batch` the record is queued and ``True`` means
        queued; a failed batch write is counted when the batch ends.
        """
        line = canonical_json(
            {"key": key, "meta": meta, "payload": estimation.to_payload()}
        )
        if self._queued is not None:
            self._queued.append(line)
            persisted = True
        else:
            persisted = self._write((line,))
        self._records[key] = estimation
        self.counters["puts"] += 1
        return persisted

    def __len__(self) -> int:
        return len(self._records)

    def stats(self) -> Dict[str, object]:
        return {
            "path": str(self.path),
            "records": len(self._records),
            "code_version": estimator_code_version(),
            **self.counters,
        }
