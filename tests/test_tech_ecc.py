"""SEC-DED codes and ECC interleaving plans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.tech.ecc import (
    DecodeStatus,
    InterleavingPlan,
    SECDED,
    parity_bits_needed,
    protection_overhead,
)


class TestParityMath:
    def test_known_values(self):
        assert parity_bits_needed(4) == 3  # Hamming(7,4)
        assert parity_bits_needed(11) == 4  # Hamming(15,11)
        assert parity_bits_needed(64) == 7  # 64+7+1=72 with extended bit

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            parity_bits_needed(0)


class TestSECDED:
    def test_codeword_length_64(self):
        code = SECDED(64)
        assert code.codeword_bits == 72

    def test_clean_roundtrip(self):
        code = SECDED(16)
        for data in (0, 1, 0xBEEF, 0xFFFF):
            result = code.decode(code.encode(data))
            assert result.status is DecodeStatus.CLEAN
            assert result.data == data

    def test_corrects_every_single_bit_error(self):
        code = SECDED(16)
        data = 0xA5C3
        word = code.encode(data)
        for bit in range(code.codeword_bits):
            result = code.decode(word ^ (1 << bit))
            assert result.status is DecodeStatus.CORRECTED
            assert result.data == data
            assert result.corrected_position == bit + 1

    def test_detects_double_bit_errors(self):
        code = SECDED(16)
        word = code.encode(0x1234)
        for a, b in ((0, 1), (3, 17), (5, code.codeword_bits - 1)):
            corrupted = word ^ (1 << a) ^ (1 << b)
            result = code.decode(corrupted)
            assert result.status is DecodeStatus.DETECTED_UNCORRECTABLE

    @settings(max_examples=60, deadline=None)
    @given(data=st.integers(0, 2**32 - 1), bit=st.integers(0, 38))
    def test_property_single_error_correction_32(self, data, bit):
        code = SECDED(32)
        assert code.codeword_bits == 39
        word = code.encode(data)
        result = code.decode(word ^ (1 << bit))
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == data

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.integers(0, 2**16 - 1),
        bits=st.sets(st.integers(0, 21), min_size=2, max_size=2),
    )
    def test_property_double_error_detection(self, data, bits):
        code = SECDED(16)
        word = code.encode(data)
        for bit in bits:
            word ^= 1 << bit
        assert code.decode(word).status is DecodeStatus.DETECTED_UNCORRECTABLE

    def test_out_of_range_rejected(self):
        code = SECDED(8)
        with pytest.raises(ConfigurationError):
            code.encode(256)
        with pytest.raises(ConfigurationError):
            code.decode(1 << code.codeword_bits)


class TestInterleavingPlan:
    def test_bits_per_word_shrink_with_spread(self):
        values = [
            InterleavingPlan(16, 72, s).bits_per_word_per_subarray()
            for s in (1, 4, 16, 64, 128)
        ]
        assert values == sorted(values, reverse=True)
        assert values[0] == 72
        assert values[-1] == 1

    def test_subarray_loss_survival_threshold(self):
        assert not InterleavingPlan(16, 72, 64).survives_subarray_loss()
        assert InterleavingPlan(16, 72, 72).survives_subarray_loss()
        assert InterleavingPlan(16, 72, 128).survives_subarray_loss()

    def test_adjacent_upset_bounded_by_words_when_unspread(self):
        plan = InterleavingPlan(16, 72, 4)
        assert plan.widest_correctable_adjacent_upset() == 16

    def test_full_spread_tolerates_whole_subarray(self):
        plan = InterleavingPlan(16, 72, 128)
        assert plan.widest_correctable_adjacent_upset() == plan.cells_per_subarray

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            InterleavingPlan(0, 72, 4)


class TestSECDEDEdgeCases:
    def test_triple_error_can_alias_to_wrong_correction(self):
        # Flipping codeword positions 1, 2, 3 makes the syndrome
        # 1^2^3 = 0 while the overall parity goes odd: the decoder
        # sees a single-bit error in the overall parity bit and
        # reports CORRECTED — with wrong data, since position 3 is a
        # data bit.  SEC-DED guarantees nothing at 3+ errors; this
        # pins the aliasing behaviour the fault injector's oracle
        # (which knows the original data) classifies as MISCORRECTED.
        code = SECDED(16)
        data = 0x0F0F
        word = code.encode(data)
        for position in (1, 2, 3):
            word ^= 1 << (position - 1)
        result = code.decode(word)
        assert result.status is DecodeStatus.CORRECTED
        assert result.data != data
        assert result.corrected_position == code.codeword_bits

    def test_all_zero_word(self):
        for width in (1, 8, 64):
            code = SECDED(width)
            assert code.encode(0) == 0
            result = code.decode(0)
            assert result.status is DecodeStatus.CLEAN
            assert result.data == 0

    def test_max_width_word(self):
        for width in (1, 8, 64):
            code = SECDED(width)
            data = (1 << width) - 1
            result = code.decode(code.encode(data))
            assert result.status is DecodeStatus.CLEAN
            assert result.data == data

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_roundtrip_any_width(self, data):
        width = data.draw(st.integers(1, 80), label="width")
        value = data.draw(st.integers(0, (1 << width) - 1), label="value")
        code = SECDED(width)
        clean = code.decode(code.encode(value))
        assert clean.status is DecodeStatus.CLEAN
        assert clean.data == value
        bit = data.draw(st.integers(0, code.codeword_bits - 1), label="bit")
        flipped = code.decode(code.encode(value) ^ (1 << bit))
        assert flipped.status is DecodeStatus.CORRECTED
        assert flipped.data == value


class TestProtectionOverhead:
    def test_classic_128b_block(self):
        bits, overhead = protection_overhead(128, word_bits=64)
        assert bits == 16 * 8  # 8 check bits per 64-bit word
        assert overhead == pytest.approx(0.125)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            protection_overhead(0)
        with pytest.raises(ConfigurationError):
            protection_overhead(100, word_bits=64)
