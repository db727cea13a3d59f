"""The entry codec works on the stored text: one payload dump per write,
no re-dump per read of a canonical entry.

``encode_entry`` splices the payload's canonical JSON into the document
instead of dumping it twice; the bytes must equal the canonical dump of
the whole document.  Reads checksum the stored payload text and fall
back to a canonical re-dump for any other layout, so a reformatted
entry and a damaged one are classified as before.
"""

import json

import pytest

from repro.errors import StoreIntegrityError
from repro.store import (
    canonical_json,
    decode_entry,
    digest,
    encode_entry,
    entry_header,
    payload_crc,
)
from repro.store import entry as entry_module

META = {
    "kind": "campaign-row",
    "benchmark": "mcf",
    "config": "c" * 16,
    "workload": "w" * 16,
    "code": "v" * 16,
}
KEY = digest(META)

#: Shaped like the three payload kinds the store holds.
PAYLOADS = {
    "row": {
        "benchmark": "bwaves",
        "results": {
            "wg": {
                "technique": "wg",
                "geometry": {"size_bytes": 65536, "associativity": 4},
                "requests": 540,
                "events": {"row_reads": 12, "row_writes": 3},
                "counts": {"grouped_writes": 9, "dirty_windows": 0},
                "cache_stats": {"read_hits": 100, "evictions": 4},
            },
            "conventional": {"technique": "conventional", "requests": 540},
        },
    },
    "verdict": {
        "ok": True,
        "skipped": False,
        "divergences": [],
        "note": None,
        "case": {"schema": 3, "payload": "nested keys named like the markers"},
    },
    "estimation": {
        "estimator": "cacti-lite",
        "energy_pj": 1.25e-3,
        "area_mm2": 0.0417,
        "label": "caché — 8T ✓",
        "accuracy": 95,
    },
}


def _canonical_document(key, meta, payload):
    return {
        "format": "repro8t-result",
        "schema": 1,
        "key": key,
        "meta": meta,
        "crc": payload_crc(payload),
        "payload": payload,
    }


def reason_of(call):
    with pytest.raises(StoreIntegrityError) as err:
        call()
    return err.value.reason


@pytest.fixture
def dumps(monkeypatch):
    """Count the entry codec's canonical dumps."""
    calls = []

    def counting(payload):
        calls.append(payload)
        return canonical_json(payload)

    monkeypatch.setattr(entry_module, "canonical_json", counting)
    return calls


class TestEncode:
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_bytes_are_the_canonical_document(self, kind):
        payload = PAYLOADS[kind]
        expected = canonical_json(_canonical_document(KEY, META, payload)) + "\n"
        assert encode_entry(KEY, META, payload) == expected

    def test_non_ascii_strings_are_escaped_like_the_document(self):
        text = encode_entry(KEY, META, PAYLOADS["estimation"])
        assert text.isascii()
        assert json.loads(text)["payload"]["label"] == "caché — 8T ✓"

    def test_the_payload_is_dumped_once(self, dumps):
        encode_entry(KEY, META, PAYLOADS["row"])
        assert [call for call in dumps if call is PAYLOADS["row"]] == [
            PAYLOADS["row"]
        ]


class TestStoredTextCrc:
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_a_canonical_entry_is_not_dumped_again(self, kind, dumps):
        text = encode_entry(KEY, META, PAYLOADS[kind])
        dumps.clear()
        assert decode_entry(text, "t", key=KEY, meta=META) == PAYLOADS[kind]
        assert entry_header(text, "t") == {"key": KEY, "meta": META}
        assert dumps == []

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda document: json.dumps(document, indent=2),
            lambda document: json.dumps(document),
            lambda document: json.dumps(document, sort_keys=True),
            lambda document: json.dumps(
                dict(reversed(list(document.items()))), separators=(",", ":")
            ),
        ],
        ids=("indent", "unsorted", "spaced", "reordered"),
    )
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_any_other_layout_decodes_through_the_redump(
        self, kind, rewrite, dumps
    ):
        document = json.loads(encode_entry(KEY, META, PAYLOADS[kind]))
        text = rewrite(document) + "\n"
        assert text != encode_entry(KEY, META, PAYLOADS[kind])
        dumps.clear()
        assert decode_entry(text, "t", key=KEY, meta=META) == PAYLOADS[kind]
        assert entry_header(text, "t") == {"key": KEY, "meta": META}
        assert len(dumps) == 2

    @pytest.mark.parametrize(
        "kind, old, new",
        [
            ("row", '"requests":540', '"requests":541'),
            ("verdict", '"ok":true', '"ok":false'),
            ("estimation", '"accuracy":95', '"accuracy":59'),
        ],
    )
    def test_payload_text_edited_under_its_crc_is_crc(self, kind, old, new):
        text = encode_entry(KEY, META, PAYLOADS[kind])
        damaged = text.replace(old, new, 1)
        assert damaged != text
        assert (
            reason_of(lambda: decode_entry(damaged, "t", key=KEY, meta=META))
            == "crc"
        )
        assert reason_of(lambda: entry_header(damaged, "t")) == "crc"

    def test_a_single_flipped_payload_byte_is_crc(self):
        text = encode_entry(KEY, META, PAYLOADS["row"])
        at = text.index('"row_reads":12') + len('"row_reads":1')
        damaged = text[:at] + "3" + text[at + 1 :]
        assert reason_of(lambda: decode_entry(damaged, "t", key=KEY)) == "crc"
        assert reason_of(lambda: entry_header(damaged, "t")) == "crc"

    def test_a_stored_crc_of_other_text_is_crc(self):
        document = json.loads(encode_entry(KEY, META, PAYLOADS["row"]))
        document["crc"] = payload_crc({"other": 1})
        text = canonical_json(document) + "\n"
        assert reason_of(lambda: decode_entry(text, "t", key=KEY)) == "crc"
        assert reason_of(lambda: entry_header(text, "t")) == "crc"

    def test_a_marker_inside_the_header_falls_back(self, dumps):
        meta = dict(META, payload="a meta key named like the marker")
        text = encode_entry(digest(meta), meta, PAYLOADS["row"])
        dumps.clear()
        assert decode_entry(text, "t", meta=meta) == PAYLOADS["row"]
        assert len(dumps) == 1

    def test_checks_keep_their_order(self):
        """A skewed entry with a damaged payload still reads as skew."""
        text = encode_entry(KEY, META, PAYLOADS["row"]).replace(
            '"requests":540', '"requests":541', 1
        )
        assert reason_of(lambda: decode_entry(text, "t", key="0" * 64)) == "skew"
