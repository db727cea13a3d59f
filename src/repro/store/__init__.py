"""Durable content-addressed result store.

Caches campaign rows and check-replay verdicts keyed on
``(config fingerprint, workload fingerprint, code version)`` with
atomic commits, validated self-healing reads (corrupt or version-
skewed entries are quarantined and recomputed, never served), and
size-bounded LRU eviction driven by an fsync'd index journal.

Modules:

``version``
    :func:`code_version` — digest of the result-bearing source tree;
    part of every key, so code changes invalidate the cache.
``keys``
    :func:`row_key` / :func:`verdict_key` — meta headers and their
    sha256 keys.
``entry``
    On-disk entry format with CRC + schema validation
    (:func:`encode_entry` / :func:`decode_entry`).
``index``
    :class:`StoreIndex` — the replayable LRU journal.
``store``
    :class:`ResultStore` — the store itself.
``durable``
    ``atomic_write`` / ``append_lines`` — the two fsync'd writes every
    durable file in the package (and the ledger, estimation records and
    lint cache) goes through.
"""

from repro.store.entry import (
    FORMAT_NAME,
    SCHEMA_VERSION,
    decode_entry,
    encode_entry,
    entry_header,
    payload_crc,
)
from repro.store.index import StoreIndex
from repro.store.keys import (
    canonical_json,
    digest,
    row_config_fingerprint,
    row_key,
    verdict_key,
    workload_fingerprint,
)
from repro.store.store import ResultStore
from repro.store.version import ENV_CODE_VERSION, code_version

__all__ = [
    "FORMAT_NAME",
    "SCHEMA_VERSION",
    "ENV_CODE_VERSION",
    "ResultStore",
    "StoreIndex",
    "canonical_json",
    "code_version",
    "decode_entry",
    "digest",
    "encode_entry",
    "entry_header",
    "payload_crc",
    "row_config_fingerprint",
    "row_key",
    "verdict_key",
    "workload_fingerprint",
]
