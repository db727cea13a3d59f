"""Unit tests for the text trace format."""

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.trace.columns import TraceColumns
from repro.trace.record import AccessType, MemoryAccess
from repro.trace.textio import read_text_trace, write_text_trace


_COLUMNS = ("icounts", "kinds", "addresses", "values")


def _sample_trace():
    return [
        MemoryAccess(icount=1, kind=AccessType.READ, address=0x100),
        MemoryAccess(icount=4, kind=AccessType.WRITE, address=0x108, value=0xBEEF),
        MemoryAccess(icount=9, kind=AccessType.READ, address=0x0),
    ]


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "trace.txt"
        written = write_text_trace(path, _sample_trace())
        assert written == 3
        columns = read_text_trace(path)
        assert isinstance(columns, TraceColumns)
        assert columns == TraceColumns.from_lists(
            [1, 4, 9], [0, 1, 0], [0x100, 0x108, 0x0], [0, 0xBEEF, 0]
        )
        assert list(columns) == _sample_trace()

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.txt"
        assert write_text_trace(path, []) == 0
        assert list(read_text_trace(path)) == []

    def test_empty_file_gives_columns_of_the_column_dtypes(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing but a comment\n\n")
        columns = read_text_trace(path)
        assert len(columns) == 0
        assert [getattr(columns, c).dtype for c in _COLUMNS] == [
            np.uint64, np.uint8, np.uint64, np.uint64
        ]

    def test_read_builds_no_records(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.txt"
        write_text_trace(path, _sample_trace())
        built = []
        original = MemoryAccess.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(MemoryAccess, "__post_init__", counting)
        assert len(read_text_trace(path)) == 3
        assert built == []

    @pytest.mark.parametrize("crc", (False, True), ids=("RPTRACE1", "RPTRACE2"))
    def test_columns_equal_the_binary_decode(self, tmp_path, crc):
        from repro.trace.binio import read_binary_trace, write_binary_trace
        from repro.workload.generator import generate_trace
        from repro.workload.spec2006 import get_profile

        trace = generate_trace(get_profile("mcf"), 300, seed=6)
        write_text_trace(tmp_path / "t.trc", trace)
        write_binary_trace(tmp_path / "t.bin", trace, crc=crc)
        text = read_text_trace(tmp_path / "t.trc")
        assert text == read_binary_trace(tmp_path / "t.bin")
        assert text == trace


class TestPropertyRoundTrip:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    _accesses = st.lists(
        st.builds(
            MemoryAccess,
            icount=st.integers(min_value=0, max_value=2**40),
            kind=st.sampled_from([AccessType.READ, AccessType.WRITE]),
            address=st.integers(min_value=0, max_value=2**40).map(
                lambda x: x * 8
            ),
            value=st.integers(min_value=0, max_value=2**63),
        ),
        max_size=40,
    )

    @settings(max_examples=40, deadline=None)
    @given(trace=_accesses)
    def test_any_trace_roundtrips(self, tmp_path_factory, trace):
        path = tmp_path_factory.mktemp("txt") / "t.trc"
        write_text_trace(path, trace)
        assert list(read_text_trace(path)) == trace


class TestParsing:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# comment\n\n3 R 0x10\n")
        records = list(read_text_trace(path))
        assert len(records) == 1
        assert records[0].address == 0x10

    def test_read_value_optional(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("3 R 0x10\n")
        assert list(read_text_trace(path))[0].value == 0

    def test_decimal_addresses_accepted(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("3 R 16\n")
        assert list(read_text_trace(path))[0].address == 16

    def test_write_without_value_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("3 W 0x10\n")
        with pytest.raises(TraceFormatError, match="missing its value"):
            list(read_text_trace(path))

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("3 R\n")
        with pytest.raises(TraceFormatError, match="expected 3 or 4"):
            list(read_text_trace(path))

    def test_crlf_line_endings_accepted(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"# comment\r\n\r\n3 R 0x10\r\n4 W 0x18 0x5\r\n")
        assert read_text_trace(path) == TraceColumns.from_lists(
            [3, 4], [0, 1], [0x10, 0x18], [0, 5]
        )

    def test_non_numeric_field_reported_with_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0 R 0x0\nnot a record\n")
        with pytest.raises(TraceFormatError, match="line 2: invalid literal"):
            read_text_trace(path)

    def test_bad_kind(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("3 Q 0x10\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            list(read_text_trace(path))

    def test_unaligned_address_reported_with_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 R 0x10\n2 R 0x11\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            list(read_text_trace(path))

    def test_non_ascii_bytes_reported_with_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"1 R 0x10\n2 R 0x\xff8\n")
        with pytest.raises(TraceFormatError, match="line 2: not ASCII text"):
            read_text_trace(path)

    @pytest.mark.parametrize(
        "line, name",
        [
            (f"{2**64} R 0x10", "icount"),
            (f"1 R {2**64:#x}", "address"),
            (f"1 W 0x10 {2**64:#x}", "value"),
            ("1 W 0x10 -1", "value"),
        ],
        ids=["icount", "address", "value", "negative-value"],
    )
    def test_field_outside_64_bits_reported_with_line(self, tmp_path, line, name):
        path = tmp_path / "t.txt"
        path.write_text(f"0 R 0x8\n{line}\n")
        with pytest.raises(
            TraceFormatError, match=f"line 2: {name} .* does not fit in 64"
        ):
            read_text_trace(path)

    def test_largest_64_bit_fields_accepted(self, tmp_path):
        path = tmp_path / "t.txt"
        top = 2**64 - 1
        path.write_text(f"{top} W {top - 7:#x} {top:#x}\n")
        assert list(read_text_trace(path)) == [
            MemoryAccess(icount=top, kind=AccessType.WRITE, address=top - 7, value=top)
        ]


class TestWriterText:
    """The writer formats columns; the text is the per-record format's."""

    @staticmethod
    def per_record(trace):
        return "# repro trace v1: icount kind address value\n" + "".join(
            f"{a.icount} {a.kind.value} {a.address:#x} {a.value:#x}\n"
            for a in trace
        )

    @pytest.mark.parametrize(
        "source", ("generated", "records", "extremes", "empty", "iterator")
    )
    def test_text_matches_per_record_format(self, tmp_path, source):
        from repro.workload.generator import generate_trace
        from repro.workload.spec2006 import get_profile

        top = 2**64 - 1
        generated = generate_trace(get_profile("mcf"), 300, seed=7)
        records = {
            "generated": list(generated),
            "records": list(generate_trace(get_profile("lbm"), 300, seed=7)),
            "extremes": [
                MemoryAccess(top, AccessType.WRITE, top - 7, top),
                MemoryAccess(0, AccessType.READ, 0),
            ],
            "empty": [],
            "iterator": _sample_trace(),
        }[source]
        trace = {
            "generated": generated,
            "iterator": iter(_sample_trace()),
            "empty": TraceColumns.from_lists([], [], [], []),
        }.get(source, records)
        path = tmp_path / "t.txt"
        assert write_text_trace(path, trace) == len(records)
        assert path.read_bytes() == self.per_record(records).encode("ascii")
        assert read_text_trace(path) == TraceColumns.of(records)

    def test_writing_columns_builds_no_records(self, tmp_path, monkeypatch):
        from repro.workload.generator import generate_trace
        from repro.workload.spec2006 import get_profile

        trace = generate_trace(get_profile("gcc"), 200, seed=1)
        built = []
        original = MemoryAccess.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(MemoryAccess, "__post_init__", counting)
        write_text_trace(tmp_path / "t.txt", trace)
        assert built == []
