"""Unit and property tests for SEC-DED ECC and bit interleaving."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sram.ecc import (
    CODEWORD_BITS,
    DATA_BITS,
    InterleavedRowLayout,
    decode,
    encode,
)

_words = st.integers(min_value=0, max_value=(1 << DATA_BITS) - 1)


class TestEncodeDecode:
    def test_clean_roundtrip_simple(self):
        for data in (0, 1, 0xDEADBEEF, (1 << 64) - 1):
            result = decode(encode(data))
            assert result.status == "clean"
            assert result.data == data

    @given(data=_words)
    @settings(max_examples=60, deadline=None)
    def test_clean_roundtrip_property(self, data):
        result = decode(encode(data))
        assert result.status == "clean"
        assert result.data == data

    @given(
        data=_words,
        flip=st.integers(min_value=0, max_value=CODEWORD_BITS - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_bit_error_corrected(self, data, flip):
        corrupted = encode(data) ^ (1 << flip)
        result = decode(corrupted)
        assert result.status == "corrected"
        assert result.data == data

    @given(
        data=_words,
        flips=st.sets(
            st.integers(min_value=0, max_value=CODEWORD_BITS - 1),
            min_size=2,
            max_size=2,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_double_bit_error_detected(self, data, flips):
        corrupted = encode(data)
        for flip in flips:
            corrupted ^= 1 << flip
        result = decode(corrupted)
        assert result.status == "uncorrectable"
        assert not result.ok

    def test_range_validation(self):
        with pytest.raises(ValueError):
            encode(1 << DATA_BITS)
        with pytest.raises(ValueError):
            decode(1 << CODEWORD_BITS)


class TestInterleavedLayout:
    def test_adjacent_columns_are_different_words(self):
        layout = InterleavedRowLayout(words=16)
        word_a, _ = layout.logical_position(10)
        word_b, _ = layout.logical_position(11)
        assert word_a != word_b

    def test_non_interleaved_adjacent_same_word(self):
        layout = InterleavedRowLayout(words=1)
        assert layout.logical_position(10)[0] == layout.logical_position(11)[0]

    def test_mapping_is_a_bijection(self):
        layout = InterleavedRowLayout(words=4, bits_per_word=8)
        seen = set()
        for word in range(4):
            for bit in range(8):
                column = layout.physical_column(word, bit)
                assert layout.logical_position(column) == (word, bit)
                seen.add(column)
        assert seen == set(range(layout.columns))

    def test_bounds(self):
        layout = InterleavedRowLayout(words=4, bits_per_word=8)
        with pytest.raises(ValueError):
            layout.physical_column(4, 0)
        with pytest.raises(ValueError):
            layout.logical_position(layout.columns)


class TestUpsetBursts:
    def test_interleaving_spreads_a_burst(self):
        """The paper's point: a multi-cell strike becomes one bit per
        word under interleaving — correctable by SEC-DED."""
        layout = InterleavedRowLayout(words=16)
        assert layout.burst_correctable(first_column=100, width=16)
        assert layout.max_correctable_burst() == 16

    def test_without_interleaving_bursts_kill_a_word(self):
        layout = InterleavedRowLayout(words=1)
        assert not layout.burst_correctable(first_column=0, width=2)
        assert layout.max_correctable_burst() == 1

    def test_burst_wider_than_interleave_uncorrectable(self):
        layout = InterleavedRowLayout(words=4)
        assert layout.burst_correctable(0, 4)
        assert not layout.burst_correctable(0, 5)

    def test_errors_per_word_counts(self):
        layout = InterleavedRowLayout(words=4)
        counts = layout.errors_per_word(first_column=0, width=6)
        assert counts == {0: 2, 1: 2, 2: 1, 3: 1}

    def test_burst_truncated_at_row_edge(self):
        layout = InterleavedRowLayout(words=2, bits_per_word=4)
        hits = layout.upset_burst(first_column=6, width=10)
        assert len(hits) == 2  # columns 6 and 7 only

    @pytest.mark.parametrize(
        "words, bits_per_word",
        [(1, CODEWORD_BITS), (2, CODEWORD_BITS), (1, 8), (2, 8), (4, 8), (16, 8)],
    )
    def test_closed_form_matches_definition_exhaustively(
        self, words, bits_per_word
    ):
        """``burst_correctable`` is the closed form of "every word of
        ``errors_per_word`` takes at most one flip", at every start
        column and every width through the row edge and past it."""
        layout = InterleavedRowLayout(words=words, bits_per_word=bits_per_word)
        for first_column in range(layout.columns):
            for width in range(layout.columns + 3):
                expected = all(
                    count <= 1
                    for count in layout.errors_per_word(first_column, width).values()
                )
                assert layout.burst_correctable(first_column, width) == expected, (
                    first_column,
                    width,
                )

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            InterleavedRowLayout(words=4).burst_correctable(0, -1)

    @given(
        words=st.sampled_from([2, 4, 8, 16]),
        start=st.integers(min_value=0, max_value=200),
        width=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_correctability_criterion_property(self, words, start, width):
        layout = InterleavedRowLayout(words=words)
        start = start % layout.columns
        expected = all(
            count <= 1 for count in layout.errors_per_word(start, width).values()
        )
        assert layout.burst_correctable(start, width) == expected
