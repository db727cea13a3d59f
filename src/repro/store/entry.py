"""Result-store entry format: one validated JSON document per key.

Layout of an entry file::

    {"format": "repro8t-result", "schema": 1,
     "key": "<sha256 hex>",
     "meta": {"kind": ..., "benchmark": ..., "config": ...,
              "workload": ..., "code": ...},
     "crc": "<crc32 hex of canonical payload JSON>",
     "payload": {...}}

The file is the document's canonical JSON (sorted keys, ``","`` and
``":"`` separators) and a newline, so the checksummed payload text is
stored verbatim between the top-level ``"payload":`` and ``,"schema":``
keys.  :func:`encode_entry` dumps the payload once and splices it into
the document.  Reads compute the CRC over that stored text, and
re-dump the parsed payload canonically only when it does not match:
an entry in any other valid layout (indented, unsorted) is classified
exactly as a canonical one.

Reads are paranoid by construction — every failure mode maps to a
:class:`repro.errors.StoreIntegrityError` with a classifying
``reason``:

``torn``
    The file is not valid JSON or not an object: a torn write, a
    truncation, bit rot inside the structure.
``schema``
    Wrong format name or schema version: written by an incompatible
    build.
``skew``
    The stored ``key``/``meta`` do not match what the caller asked
    for — a renamed file, a hand-edited header, or version skew
    between the entry's recorded code version and the expectation.
``crc``
    The payload checksum does not match: the payload was damaged while
    the header survived.

The store turns any of these into quarantine + miss; nothing invalid
is ever returned.
"""

from __future__ import annotations

import json
import zlib
from typing import Dict, Optional

from repro.errors import StoreIntegrityError
from repro.store.keys import canonical_json

__all__ = [
    "FORMAT_NAME",
    "SCHEMA_VERSION",
    "payload_crc",
    "encode_entry",
    "decode_entry",
    "entry_header",
]

FORMAT_NAME = "repro8t-result"
SCHEMA_VERSION = 1


#: The top-level keys around the payload: ``"payload"`` and
#: ``"schema"`` sort after every other key of the document.
_PAYLOAD_KEY = '"payload":'
_SCHEMA_KEY = ',"schema":'


def _crc(text: str) -> str:
    return format(zlib.crc32(text.encode()) & 0xFFFFFFFF, "08x")


def payload_crc(payload: Dict) -> str:
    return _crc(canonical_json(payload))


def encode_entry(key: str, meta: Dict[str, object], payload: Dict) -> str:
    """Serialise one entry: the document's canonical JSON and a newline.

    The payload is dumped once, for its CRC and for its place in the
    document.
    """
    body = canonical_json(payload)
    head = canonical_json(
        {"crc": _crc(body), "format": FORMAT_NAME, "key": key, "meta": meta}
    )
    return f"{head[:-1]},{_PAYLOAD_KEY}{body}{_SCHEMA_KEY}{SCHEMA_VERSION}}}\n"


def _crc_matches(text: str, document: Dict, payload: Dict) -> bool:
    """Whether the recorded CRC is that of the payload's canonical JSON.

    A canonical document stores that JSON between the first
    ``"payload":`` and the last ``,"schema":`` (canonical JSON escapes
    quotes inside strings, so both markers can only be keys); any other
    layout, or a damaged slice, falls back to a canonical re-dump.
    """
    stored = document.get("crc")
    begin = text.find(_PAYLOAD_KEY)
    end = text.rfind(_SCHEMA_KEY)
    if 0 <= begin < end and _crc(text[begin + len(_PAYLOAD_KEY) : end]) == stored:
        return True
    return stored == payload_crc(payload)


def _parse(text: str, where: str) -> Dict:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StoreIntegrityError(
            f"{where}: entry is not valid JSON ({exc}); torn or truncated "
            "write",
            reason="torn",
        ) from exc
    if not isinstance(document, dict):
        raise StoreIntegrityError(
            f"{where}: entry is not a JSON object", reason="torn"
        )
    return document


def _check_schema(document: Dict, where: str) -> None:
    if document.get("format") != FORMAT_NAME:
        raise StoreIntegrityError(
            f"{where}: not a {FORMAT_NAME} entry "
            f"(format={document.get('format')!r})",
            reason="schema",
        )
    if document.get("schema") != SCHEMA_VERSION:
        raise StoreIntegrityError(
            f"{where}: unsupported schema version "
            f"{document.get('schema')!r} (this build reads "
            f"{SCHEMA_VERSION})",
            reason="schema",
        )


def decode_entry(
    text: str,
    where: str,
    key: Optional[str] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Dict:
    """Parse + validate one entry; returns the payload.

    With ``key``/``meta`` given, the stored header must match them
    exactly — in particular the recorded ``code`` version — otherwise
    the entry is *skewed* and must not be served.
    """
    document = _parse(text, where)
    _check_schema(document, where)
    stored_meta = document.get("meta")
    payload = document.get("payload")
    if not isinstance(stored_meta, dict) or not isinstance(payload, dict):
        raise StoreIntegrityError(
            f"{where}: entry is missing its meta/payload sections",
            reason="torn",
        )
    if key is not None and document.get("key") != key:
        raise StoreIntegrityError(
            f"{where}: entry key {str(document.get('key'))[:16]}... does "
            f"not match the requested key {key[:16]}...",
            reason="skew",
        )
    if meta is not None and stored_meta != meta:
        drift = sorted(
            name
            for name in set(stored_meta) | set(meta)
            if stored_meta.get(name) != meta.get(name)
        )
        raise StoreIntegrityError(
            f"{where}: entry meta diverges on {drift} (version skew); "
            "refusing to serve it",
            reason="skew",
        )
    if not _crc_matches(text, document, payload):
        raise StoreIntegrityError(
            f"{where}: payload CRC mismatch (stored "
            f"{document.get('crc')!r}); entry is corrupt",
            reason="crc",
        )
    return payload


def entry_header(text: str, where: str) -> Dict:
    """Parse an entry far enough to read its header (no key check).

    Used by ``verify``/``gc``/``invalidate`` scans, which walk entries
    without a specific expectation.  Schema and CRC are still enforced;
    only the key/meta cross-check is skipped.  Returns
    ``{"key": ..., "meta": {...}}``.
    """
    document = _parse(text, where)
    _check_schema(document, where)
    stored_meta = document.get("meta")
    payload = document.get("payload")
    if not isinstance(stored_meta, dict) or not isinstance(payload, dict):
        raise StoreIntegrityError(
            f"{where}: entry is missing its meta/payload sections",
            reason="torn",
        )
    if not isinstance(document.get("key"), str):
        raise StoreIntegrityError(
            f"{where}: entry has no key", reason="torn"
        )
    if not _crc_matches(text, document, payload):
        raise StoreIntegrityError(
            f"{where}: payload CRC mismatch", reason="crc"
        )
    return {"key": document["key"], "meta": stored_meta}
