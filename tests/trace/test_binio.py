"""Unit and property tests for the binary trace format."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.faultinject import flip_bit, truncate_file
from repro.trace.binio import (
    MAGIC,
    MAGIC_CRC,
    read_binary_trace,
    write_binary_trace,
)
from repro.trace.columns import TraceColumns
from repro.trace.record import AccessType, MemoryAccess

_accesses = st.lists(
    st.builds(
        MemoryAccess,
        icount=st.integers(min_value=0, max_value=2**40),
        kind=st.sampled_from([AccessType.READ, AccessType.WRITE]),
        address=st.integers(min_value=0, max_value=2**40).map(lambda x: x * 8),
        value=st.integers(min_value=0, max_value=2**64 - 1),
    ),
    max_size=50,
)


class TestRoundTrip:
    def test_simple(self, tmp_path):
        trace = [
            MemoryAccess(icount=0, kind=AccessType.WRITE, address=8, value=1),
            MemoryAccess(icount=2, kind=AccessType.READ, address=0),
        ]
        path = tmp_path / "t.bin"
        assert write_binary_trace(path, trace) == 2
        columns = read_binary_trace(path)
        assert isinstance(columns, TraceColumns)
        assert columns == TraceColumns.from_lists([0, 2], [1, 0], [8, 0], [1, 0])
        assert list(columns) == trace

    @given(trace=_accesses)
    def test_property_roundtrip(self, tmp_path_factory, trace):
        path = tmp_path_factory.mktemp("bin") / "t.bin"
        write_binary_trace(path, trace)
        assert list(read_binary_trace(path)) == trace


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 25)
        with pytest.raises(TraceFormatError, match="bad magic"):
            list(read_binary_trace(path))

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "trunc.bin"
        path.write_bytes(MAGIC + b"\x00" * 10)
        with pytest.raises(TraceFormatError, match="truncated"):
            list(read_binary_trace(path))

    def test_bad_kind_byte(self, tmp_path):
        path = tmp_path / "kind.bin"
        record = struct.pack("<QBQQ", 0, 7, 0, 0)
        path.write_bytes(MAGIC + record)
        with pytest.raises(TraceFormatError, match="bad kind"):
            list(read_binary_trace(path))

    def test_empty_file_ok(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(MAGIC)
        assert list(read_binary_trace(path)) == []

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(MAGIC[:3])
        with pytest.raises(TraceFormatError, match="truncated header"):
            list(read_binary_trace(path))

    def test_error_names_record_and_offset(self, tmp_path):
        path = tmp_path / "kind.bin"
        good = struct.pack("<QBQQ", 0, 1, 8, 0)
        bad = struct.pack("<QBQQ", 1, 7, 8, 0)
        path.write_bytes(MAGIC + good + bad)
        with pytest.raises(
            TraceFormatError, match=r"record #1 at byte offset 33"
        ) as excinfo:
            list(read_binary_trace(path))
        assert "bad kind byte 7" in str(excinfo.value)

    @pytest.mark.parametrize("crc", (False, True), ids=("RPTRACE1", "RPTRACE2"))
    def test_misaligned_address_names_record_and_offset(self, tmp_path, crc):
        path = tmp_path / "odd.bin"
        size = 29 if crc else 25
        write_binary_trace(path, SAMPLE, crc=crc)
        # Rewrite record #2's address to 0x11 (and, for RPTRACE2, its CRC).
        data = bytearray(path.read_bytes())
        body = struct.pack("<QBQQ", 5, 1, 0x11, 99)
        if crc:
            body += struct.pack("<I", zlib.crc32(body))
        data[8 + 2 * size :] = body
        path.write_bytes(bytes(data))
        with pytest.raises(
            TraceFormatError,
            match=rf"record #2 at byte offset {8 + 2 * size}: address must "
            r"be 8-byte aligned, got 0x11",
        ):
            read_binary_trace(path)


SAMPLE = [
    MemoryAccess(icount=0, kind=AccessType.WRITE, address=8, value=1),
    MemoryAccess(icount=2, kind=AccessType.READ, address=0),
    MemoryAccess(icount=5, kind=AccessType.WRITE, address=16, value=99),
]


class TestCrcVariant:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.bin"
        assert write_binary_trace(path, SAMPLE, crc=True) == 3
        assert path.read_bytes()[:8] == MAGIC_CRC
        columns = read_binary_trace(path)
        assert isinstance(columns, TraceColumns)
        assert list(columns) == SAMPLE

    @given(trace=_accesses)
    def test_property_roundtrip(self, tmp_path_factory, trace):
        path = tmp_path_factory.mktemp("crc") / "t.bin"
        write_binary_trace(path, trace, crc=True)
        assert list(read_binary_trace(path)) == trace

    def test_records_are_29_bytes(self, tmp_path):
        path = tmp_path / "t.bin"
        write_binary_trace(path, SAMPLE, crc=True)
        assert path.stat().st_size == 8 + 29 * len(SAMPLE)

    def test_bit_rot_detected_with_offsets(self, tmp_path):
        path = tmp_path / "t.bin"
        write_binary_trace(path, SAMPLE, crc=True)
        # Flip one bit inside the *body* of record #1 (offset 8 + 29 + 2).
        flip_bit(path, byte_offset=8 + 29 + 2, bit=5)
        with pytest.raises(
            TraceFormatError,
            match=r"CRC mismatch in record #1 at byte offset 37: "
            r"stored 0x[0-9a-f]{8}, computed 0x[0-9a-f]{8}$",
        ):
            list(read_binary_trace(path))

    def test_corrupt_crc_field_itself_detected(self, tmp_path):
        path = tmp_path / "t.bin"
        write_binary_trace(path, SAMPLE, crc=True)
        flip_bit(path, byte_offset=-1, bit=0)  # last CRC byte
        with pytest.raises(TraceFormatError, match=r"record #2"):
            list(read_binary_trace(path))

    def test_truncation_detected_with_offsets(self, tmp_path):
        path = tmp_path / "t.bin"
        write_binary_trace(path, SAMPLE, crc=True)
        truncate_file(path, keep_bytes=8 + 29 + 10)
        with pytest.raises(
            TraceFormatError,
            match=r"truncated record #1 at byte offset 37 \(10 of 29 bytes\)",
        ):
            list(read_binary_trace(path))


def _record(icount, kind, address, crc_ok=True):
    body = struct.pack("<QBQQ", icount, kind, address, 0)
    return body + struct.pack("<I", zlib.crc32(body) ^ (0 if crc_ok else 1))


# Each record fault spans two faulty records, so the report must name
# the first of them.
_FAULTS = {
    "header": b"RPTRACEX",
    "crc": _record(3, 0, 8, crc_ok=False) + _record(4, 0, 8, crc_ok=False),
    "kind": _record(5, 9, 8) + _record(6, 7, 8),
    "aligned": _record(7, 0, 12) + _record(8, 0, 20),
}


class TestFaultOrder:
    """A file with several faults reports the first of: bad header,
    truncated tail, first CRC mismatch, first bad kind byte, first
    misaligned address."""

    def _file(self, tmp_path, faults):
        # Records #0-#1 misaligned, #2-#3 bad kind, #4-#5 CRC mismatch:
        # the file holds the faults in the reverse of the report order.
        header = _FAULTS["header"] if "header" in faults else MAGIC_CRC
        body = b"".join(
            _FAULTS[fault] if fault in faults else _record(0, 0, 0) * 2
            for fault in ("aligned", "kind", "crc")
        )
        if "tail" in faults:
            body += b"\x00" * 10
        path = tmp_path / "faults.bin"
        path.write_bytes(header + body)
        return path

    @pytest.mark.parametrize(
        "faults, expected",
        [
            (
                {"header", "tail", "crc", "kind", "aligned"},
                "bad magic b'RPTRACEX'",
            ),
            (
                {"tail", "crc", "kind", "aligned"},
                r"truncated record #6 at byte offset 182 \(10 of 29 bytes\)",
            ),
            (
                {"crc", "kind", "aligned"},
                r"CRC mismatch in record #4 at byte offset 124",
            ),
            (
                {"kind", "aligned"},
                r"record #2 at byte offset 66 has bad kind byte 9",
            ),
            (
                {"aligned"},
                r"record #0 at byte offset 8: address must be 8-byte",
            ),
        ],
        ids=["header", "tail", "crc", "kind", "aligned"],
    )
    def test_first_fault_is_reported(self, tmp_path, faults, expected):
        with pytest.raises(TraceFormatError, match=expected):
            read_binary_trace(self._file(tmp_path, faults))

    def test_clean_file_reads(self, tmp_path):
        assert len(read_binary_trace(self._file(tmp_path, set()))) == 6


_VARIANTS = pytest.mark.parametrize(
    "crc", (False, True), ids=("RPTRACE1", "RPTRACE2")
)
_COLUMNS = ("icounts", "kinds", "addresses", "values")


@pytest.fixture
def post_init_calls(monkeypatch):
    """Count MemoryAccess validations (one per record built)."""
    calls = []
    original = MemoryAccess.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(MemoryAccess, "__post_init__", counting)
    return calls


def _generated(length=400, seed=3):
    from repro.workload.generator import generate_trace
    from repro.workload.spec2006 import get_profile

    return generate_trace(get_profile("gcc"), length, seed=seed)


class TestDecodedColumns:
    @_VARIANTS
    def test_generated_columns_round_trip(self, tmp_path, crc):
        trace = _generated()
        path = tmp_path / "t.bin"
        assert write_binary_trace(path, trace, crc=crc) == len(trace)
        assert read_binary_trace(path) == trace

    @_VARIANTS
    def test_columns_are_owned_contiguous_arrays(self, tmp_path, crc):
        # The packed records are strided, read-only views of the file's
        # bytes; the columns handed out must be standalone arrays.
        path = tmp_path / "t.bin"
        write_binary_trace(path, SAMPLE, crc=crc)
        columns = read_binary_trace(path)
        assert [getattr(columns, c).dtype for c in _COLUMNS] == [
            np.uint64, np.uint8, np.uint64, np.uint64
        ]
        for name in _COLUMNS:
            column = getattr(columns, name)
            assert column.flags.c_contiguous and column.flags.owndata, name
            assert column.flags.writeable, name

    @_VARIANTS
    def test_empty_file_gives_empty_columns(self, tmp_path, crc):
        path = tmp_path / "t.bin"
        assert write_binary_trace(path, [], crc=crc) == 0
        columns = read_binary_trace(path)
        assert len(columns) == 0 and not columns
        assert [getattr(columns, c).dtype for c in _COLUMNS] == [
            np.uint64, np.uint8, np.uint64, np.uint64
        ]

    @_VARIANTS
    def test_decode_builds_no_records(self, tmp_path, crc, post_init_calls):
        path = tmp_path / "t.bin"
        write_binary_trace(path, _generated(), crc=crc)
        post_init_calls.clear()
        columns = read_binary_trace(path)
        assert len(columns) == 400
        assert post_init_calls == []

    @_VARIANTS
    def test_widest_fields_round_trip(self, tmp_path, crc):
        top = 2**64 - 1
        trace = [
            MemoryAccess(icount=top, kind=AccessType.WRITE, address=top - 7, value=top),
            MemoryAccess(icount=0, kind=AccessType.READ, address=0),
        ]
        path = tmp_path / "t.bin"
        write_binary_trace(path, trace, crc=crc)
        columns = read_binary_trace(path)
        assert columns.icounts.tolist() == [top, 0]
        assert columns.addresses.tolist() == [top - 7, 0]
        assert columns.values.tolist() == [top, 0]
        assert list(columns) == trace


class TestErrorPins:
    """Exact messages for faults the basic error tests only match loosely."""

    def test_zero_byte_file_is_a_truncated_header(self, tmp_path):
        path = tmp_path / "zero.bin"
        path.write_bytes(b"")
        with pytest.raises(
            TraceFormatError, match=r"truncated header \(0 of 8 bytes\)$"
        ):
            read_binary_trace(path)

    def test_bad_magic_names_both_variants(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"RPCOL1\x00\x00" + b"\x00" * 25)
        with pytest.raises(TraceFormatError) as excinfo:
            read_binary_trace(path)
        message = str(excinfo.value)
        assert "bad magic b'RPCOL1\\x00\\x00'" in message
        assert repr(MAGIC) in message and repr(MAGIC_CRC) in message

    def test_truncated_crc_free_record_pins_index_and_offset(self, tmp_path):
        path = tmp_path / "t.bin"
        write_binary_trace(path, SAMPLE)
        truncate_file(path, keep_bytes=8 + 25 * 2 + 10)
        with pytest.raises(
            TraceFormatError,
            match=r"truncated record #2 at byte offset 58 \(10 of 25 bytes\)$",
        ):
            read_binary_trace(path)

    def test_bad_kind_byte_in_crc_variant_uses_29_byte_records(self, tmp_path):
        path = tmp_path / "kind.bin"
        path.write_bytes(MAGIC_CRC + _record(0, 1, 8) + _record(1, 7, 8))
        with pytest.raises(
            TraceFormatError, match=r"record #1 at byte offset 37 has bad kind byte 7$"
        ):
            read_binary_trace(path)

    def test_crc_checked_before_kind_in_adjacent_records(self, tmp_path):
        # Record #0 has a bad kind byte under a valid CRC, record #1 a
        # CRC mismatch: the CRC mismatch is the fault reported.
        path = tmp_path / "both.bin"
        path.write_bytes(
            MAGIC_CRC + _record(0, 7, 8) + _record(1, 1, 8, crc_ok=False)
        )
        with pytest.raises(TraceFormatError, match=r"CRC mismatch in record #1"):
            read_binary_trace(path)

    def test_crc_mismatch_reports_stored_and_computed_values(self, tmp_path):
        path = tmp_path / "t.bin"
        write_binary_trace(path, SAMPLE, crc=True)
        flip_bit(path, byte_offset=8 + 29 + 2, bit=5)
        record = path.read_bytes()[8 + 29 : 8 + 2 * 29]
        (stored,) = struct.unpack("<I", record[25:])
        computed = zlib.crc32(record[:25])
        assert stored != computed
        with pytest.raises(TraceFormatError) as excinfo:
            read_binary_trace(path)
        assert str(excinfo.value).endswith(
            f"CRC mismatch in record #1 at byte offset 37: "
            f"stored 0x{stored:08x}, computed 0x{computed:08x}"
        )

    @_VARIANTS
    def test_fault_deep_in_a_long_file_names_its_record(self, tmp_path, crc):
        # Far past the first few thousand records, the index and byte
        # offset in the message still point at the faulty record.
        size = 29 if crc else 25
        offset = 8 + 5000 * size
        trace = [
            MemoryAccess(icount=i, kind=AccessType.READ, address=8 * i)
            for i in range(6000)
        ]
        path = tmp_path / "long.bin"
        write_binary_trace(path, trace, crc=crc)
        if crc:
            flip_bit(path, byte_offset=offset + 2, bit=0)
            expected = rf"CRC mismatch in record #5000 at byte offset {offset}: "
        else:
            data = bytearray(path.read_bytes())
            data[offset + 8] = 2  # kind byte
            path.write_bytes(bytes(data))
            expected = rf"record #5000 at byte offset {offset} has bad kind byte 2$"
        with pytest.raises(TraceFormatError, match=expected):
            read_binary_trace(path)


def _packed_per_record(trace, crc):
    """The file a per-record ``struct`` packer writes: the format's
    definition, which the column writer must match byte for byte."""
    out = [MAGIC_CRC if crc else MAGIC]
    for access in trace:
        body = struct.pack(
            "<QBQQ", access.icount, int(access.is_write), access.address,
            access.value,
        )
        out.append(body + struct.pack("<I", zlib.crc32(body)) if crc else body)
    return b"".join(out)


_TOP = 2**64 - 1
_EXTREMES = [
    MemoryAccess(icount=_TOP, kind=AccessType.WRITE, address=_TOP - 7, value=_TOP),
    MemoryAccess(icount=0, kind=AccessType.READ, address=0),
    MemoryAccess(icount=2**63, kind=AccessType.WRITE, address=2**63, value=2**63),
]


class TestWriterBytes:
    """The writer packs columns; the bytes are the per-record format's."""

    @_VARIANTS
    @pytest.mark.parametrize(
        "source",
        ("generated", "records", "extremes", "empty", "iterator"),
    )
    def test_bytes_match_per_record_packing(self, tmp_path, crc, source):
        records = {
            "generated": list(_generated()),
            "records": list(_generated(seed=4)),
            "extremes": _EXTREMES,
            "empty": [],
            "iterator": SAMPLE,
        }[source]
        trace = {
            "generated": _generated(),
            "iterator": iter(SAMPLE),
            "empty": TraceColumns.from_lists([], [], [], []),
        }.get(source, records)
        path = tmp_path / "t.bin"
        assert write_binary_trace(path, trace, crc=crc) == len(records)
        assert path.read_bytes() == _packed_per_record(records, crc)

    @_VARIANTS
    def test_writing_columns_builds_no_records(
        self, tmp_path, crc, post_init_calls
    ):
        trace = _generated()
        post_init_calls.clear()
        write_binary_trace(tmp_path / "t.bin", trace, crc=crc)
        assert post_init_calls == []
