"""Tests for quality-word decoding and high-quality pixel classification."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntlpipe import (
    Background,
    CloudConfidence,
    CloudMaskQuality,
    Dataset,
    DayNight,
    GridSpec,
    IntRaster,
    QualityDecodeError,
    QualityFlags,
    decode_vnp46a2_quality,
    encode_vnp46a2_quality,
    high_quality_mask,
    is_high_quality_vnp46a2,
    is_high_quality_vscntl,
)
from ntlpipe import quality
from ntlpipe.quality import vnp46a2_high_quality, vnp46a2_reserved


def all_valid_flag_combinations():
    for day, bg, cmq, conf, shadow, cirrus, snow in itertools.product(
        DayNight, Background, CloudMaskQuality, CloudConfidence, (False, True), (False, True), (False, True)
    ):
        yield QualityFlags(
            day_night=day,
            background=bg,
            cloud_mask_quality=cmq,
            cloud_confidence=conf,
            shadow=shadow,
            cirrus=cirrus,
            snow_ice=snow,
        )


class TestDecode:
    def test_zero_word_decodes_to_all_clear_night(self):
        flags = decode_vnp46a2_quality(0)
        assert flags == QualityFlags(
            day_night=DayNight.NIGHT,
            background=Background.LAND_DESERT,
            cloud_mask_quality=CloudMaskQuality.POOR,
            cloud_confidence=CloudConfidence.CONFIDENT_CLEAR,
            shadow=False,
            cirrus=False,
            snow_ice=False,
        )

    def test_word_114_is_trusted_land_pixel(self):
        # 114 = 0b001110010: land no desert, high mask quality, probably clear
        flags = decode_vnp46a2_quality(114)
        assert flags.day_night is DayNight.NIGHT
        assert flags.background is Background.LAND_NO_DESERT
        assert flags.cloud_mask_quality is CloudMaskQuality.HIGH
        assert flags.cloud_confidence is CloudConfidence.PROBABLY_CLEAR
        assert not flags.shadow and not flags.cirrus and not flags.snow_ice
        assert is_high_quality_vnp46a2(flags)

    def test_word_370_adds_shadow_and_fails_quality(self):
        # 370 = 114 with bit 8 set
        flags = decode_vnp46a2_quality(370)
        assert flags.shadow
        assert flags.background is Background.LAND_NO_DESERT
        assert flags.cloud_mask_quality is CloudMaskQuality.HIGH
        assert not is_high_quality_vnp46a2(flags)

    def test_reserved_background_codes_rejected(self):
        for code in (4, 6, 7):
            with pytest.raises(QualityDecodeError) as exc_info:
                decode_vnp46a2_quality(code << 1)
            assert str(code << 1) in str(exc_info.value)

    def test_reserved_table_agrees_with_decode_on_every_word(self):
        reserved = []
        for word in range(1 << 16):
            try:
                decode_vnp46a2_quality(word)
            except QualityDecodeError:
                reserved.append(word)
        assert np.flatnonzero(vnp46a2_reserved(np.arange(1 << 16))).tolist() == reserved
        assert np.flatnonzero(vnp46a2_reserved(np.arange(1 << 16, dtype=np.uint16))).tolist() == reserved

    def test_reserved_check_makes_no_word_sized_temporary(self):
        # bits 0-3 go straight into uint8, so an int64 array of words is never copied whole as int64
        words = np.arange(1 << 18, dtype=np.int64)
        tracemalloc.start()
        try:
            vnp46a2_reserved(words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the uint8 bits and three boolean arrays are four bytes a word; an int64 temporary would add eight
        assert peak < 6 * words.size

    def test_reserved_high_bits_rejected(self):
        for bit in range(11, 16):
            with pytest.raises(QualityDecodeError):
                decode_vnp46a2_quality(1 << bit)

    def test_out_of_range_word_is_a_contract_violation(self):
        with pytest.raises(ValueError):
            decode_vnp46a2_quality(-1)
        with pytest.raises(ValueError):
            decode_vnp46a2_quality(1 << 16)

    def test_decode_error_carries_raw_word(self):
        with pytest.raises(QualityDecodeError, match="2056"):
            decode_vnp46a2_quality(2056)


class TestEncodeDecodeRoundTrip:
    def test_decode_then_encode_recovers_every_valid_word(self):
        reserved_backgrounds = {4, 6, 7}
        valid = 0
        for word in range(1 << 11):
            if (word >> 1) & 0b111 in reserved_backgrounds:
                with pytest.raises(QualityDecodeError):
                    decode_vnp46a2_quality(word)
            else:
                assert encode_vnp46a2_quality(decode_vnp46a2_quality(word)) == word
                valid += 1
        assert valid == 1280  # 2^11 words minus the 3-of-8 reserved backgrounds

    def test_encode_then_decode_recovers_every_flag_combination(self):
        combos = 0
        for flags in all_valid_flag_combinations():
            assert decode_vnp46a2_quality(encode_vnp46a2_quality(flags)) == flags
            combos += 1
        assert combos == 1280


class TestHighQualityRules:
    def trusted_flags(self, **overrides):
        base = dict(
            day_night=DayNight.NIGHT,
            background=Background.LAND_NO_DESERT,
            cloud_mask_quality=CloudMaskQuality.HIGH,
            cloud_confidence=CloudConfidence.CONFIDENT_CLEAR,
            shadow=False,
            cirrus=False,
            snow_ice=False,
        )
        base.update(overrides)
        return QualityFlags(**base)

    def test_trusted_baseline(self):
        assert is_high_quality_vnp46a2(self.trusted_flags())
        assert is_high_quality_vnp46a2(self.trusted_flags(cloud_confidence=CloudConfidence.PROBABLY_CLEAR))

    def test_day_flag_does_not_matter(self):
        assert is_high_quality_vnp46a2(self.trusted_flags(day_night=DayNight.DAY))

    def test_any_water_or_desert_background_fails(self):
        for bg in (Background.LAND_DESERT, Background.INLAND_WATER, Background.SEA_WATER, Background.COASTAL):
            assert not is_high_quality_vnp46a2(self.trusted_flags(background=bg))

    def test_submaximal_mask_quality_fails(self):
        for cmq in (CloudMaskQuality.POOR, CloudMaskQuality.LOW, CloudMaskQuality.MEDIUM):
            assert not is_high_quality_vnp46a2(self.trusted_flags(cloud_mask_quality=cmq))

    def test_cloudy_confidence_fails(self):
        for conf in (CloudConfidence.PROBABLY_CLOUDY, CloudConfidence.CONFIDENT_CLOUDY):
            assert not is_high_quality_vnp46a2(self.trusted_flags(cloud_confidence=conf))

    def test_contamination_flags_fail(self):
        assert not is_high_quality_vnp46a2(self.trusted_flags(shadow=True))
        assert not is_high_quality_vnp46a2(self.trusted_flags(cirrus=True))
        assert not is_high_quality_vnp46a2(self.trusted_flags(snow_ice=True))

    def test_rule_matches_exhaustive_predicate(self):
        for flags in all_valid_flag_combinations():
            expected = (
                flags.background is Background.LAND_NO_DESERT
                and flags.cloud_mask_quality is CloudMaskQuality.HIGH
                and flags.cloud_confidence.value <= 1
                and not (flags.shadow or flags.cirrus or flags.snow_ice)
            )
            assert is_high_quality_vnp46a2(flags) == expected

    def test_vscntl_rule_is_positive_count(self):
        assert not is_high_quality_vscntl(0)
        assert is_high_quality_vscntl(1)
        assert is_high_quality_vscntl(31)


class TestHighQualityMask:
    @pytest.fixture
    def spec(self):
        return GridSpec(ncols=2, nrows=2, x_origin=0.0, y_origin=0.0, cell_size=1.0)

    def test_vscntl_counts(self, spec):
        counts = IntRaster(spec, [0, 1, 5, 0])
        mask = high_quality_mask(counts, Dataset.VSC_NTL)
        assert np.array_equal(mask, [[False, True], [True, False]])

    def test_vnp46a2_words(self, spec):
        words = IntRaster(spec, [114, 370, 2, 114])
        mask = high_quality_mask(words, Dataset.VNP46A2)
        assert np.array_equal(mask, [[True, False], [False, True]])

    def test_vscntl_mask_is_the_scalar_rule_on_valid_cells(self, spec):
        values = [0, 1, 31, 2**40]
        missing = [False, False, True, False]
        mask = high_quality_mask(IntRaster(spec, values, missing=missing), Dataset.VSC_NTL)
        expected = [is_high_quality_vscntl(v) and not m for v, m in zip(values, missing)]
        assert mask.ravel().tolist() == expected

    def test_missing_quality_is_low_quality(self, spec):
        counts = IntRaster(spec, [3, 3, 3, 3], missing=[False, True, False, True])
        mask = high_quality_mask(counts, Dataset.VSC_NTL)
        assert np.array_equal(mask, [[True, False], [True, False]])
        words = IntRaster(spec, [114, 114, 114, 114], missing=[False, True, False, True])
        mask = high_quality_mask(words, Dataset.VNP46A2)
        assert np.array_equal(mask, [[True, False], [True, False]])

    def test_reserved_code_in_raster_surfaces_decode_error(self, spec):
        words = IntRaster(spec, [114, 8, 114, 114])  # 8 = background code 4
        with pytest.raises(QualityDecodeError):
            high_quality_mask(words, Dataset.VNP46A2)

    def test_smallest_reserved_word_is_raised(self, spec):
        words = IntRaster(spec, [2048, 14, 8, 14])  # background codes 7 and 4, high bit 11
        with pytest.raises(QualityDecodeError) as raised:
            high_quality_mask(words, Dataset.VNP46A2)
        assert raised.value.qf == 8

    def test_no_valid_word_is_all_low_quality(self, spec):
        words = IntRaster(spec, [8, 8, 114, 114], missing=[True] * 4)
        assert not high_quality_mask(words, Dataset.VNP46A2).any()

    def test_reserved_code_under_mask_is_ignored(self, spec):
        words = IntRaster(spec, [114, 8, 114, 114], missing=[False, True, False, False])
        mask = high_quality_mask(words, Dataset.VNP46A2)
        assert np.array_equal(mask, [[True, False], [True, True]])

    def test_mask_agrees_with_scalar_rule(self, spec):
        rng = np.random.default_rng(53)
        # draw words from the valid space via encode: random field values
        words = np.empty(spec.shape, dtype=np.int64)
        for _ in range(20):
            flat = []
            for _ in range(spec.size):
                flags = QualityFlags(
                    day_night=DayNight(int(rng.integers(0, 2))),
                    background=list(Background)[int(rng.integers(0, 5))],
                    cloud_mask_quality=CloudMaskQuality(int(rng.integers(0, 4))),
                    cloud_confidence=CloudConfidence(int(rng.integers(0, 4))),
                    shadow=bool(rng.integers(0, 2)),
                    cirrus=bool(rng.integers(0, 2)),
                    snow_ice=bool(rng.integers(0, 2)),
                )
                flat.append(encode_vnp46a2_quality(flags))
            words = IntRaster(spec, np.array(flat).reshape(spec.shape))
            mask = high_quality_mask(words, Dataset.VNP46A2)
            for r in range(spec.nrows):
                for c in range(spec.ncols):
                    scalar = is_high_quality_vnp46a2(decode_vnp46a2_quality(int(words.values[r, c])))
                    assert mask[r, c] == scalar


def distinct_word_high_quality(words, valid):
    """vnp46a2_high_quality as it was, decoding each distinct valid word, smallest first: the reference."""
    codes = np.sort(words[valid])
    codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))] if codes.size else codes
    good = [int(code) for code in codes.tolist() if is_high_quality_vnp46a2(decode_vnp46a2_quality(code))]
    return np.isin(words, good) & valid


def outcome(function, words, valid):
    """The mask ``function`` returns, or the type and message of what it raises."""
    try:
        return function(words, valid).tolist()
    except Exception as exc:
        return type(exc), str(exc)


# trusted and valid low-quality words, reserved ones (background codes 4, 6 and 7;
# bits 11-15) and any other 16-bit word
UINT16_WORDS = st.one_of(
    st.sampled_from([50, 51, 114, 115, 0, 242, 370, 1074]),
    st.sampled_from([8, 12, 14, 2048, 2098, 65535]),
    st.integers(0, 2047),
    st.integers(0, 2**16 - 1),
)
# and, in an int64 array, words of 2^16 or more (2^16 + 50 holds a trusted word in its low 16 bits)
INT_WORDS = st.one_of(UINT16_WORDS, st.sampled_from([1 << 16, (1 << 16) + 50]), st.integers(0, 2**63 - 1))


@st.composite
def word_arrays(draw):
    """(words, valid): an int64 or uint16 array of 1-3 dimensions of non-negative words, and which are valid."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    size = int(np.prod(shape))
    narrow = draw(st.booleans())
    elements = draw(st.lists(UINT16_WORDS if narrow else INT_WORDS, min_size=size, max_size=size))
    words = np.array(elements, dtype=np.uint16 if narrow else np.int64).reshape(shape)
    valid = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size))).reshape(shape)
    return words, valid


class TestTrustedWords:
    def test_the_trusted_words_are_every_word_the_decoder_trusts(self):
        trusted = []
        for word in range(1 << 16):
            try:
                flags = decode_vnp46a2_quality(word)
            except QualityDecodeError:
                continue
            if is_high_quality_vnp46a2(flags):
                trusted.append(word)
        assert trusted == list(quality._TRUSTED_WORDS)
        assert trusted == [word for word in range(1 << 16) if word & 0xFFBE == 0x32]

    @settings(max_examples=300, deadline=None)
    @given(arrays=word_arrays())
    def test_mask_or_error_equals_the_distinct_word_decode(self, arrays):
        words, valid = arrays
        assert outcome(vnp46a2_high_quality, words, valid) == outcome(distinct_word_high_quality, words, valid)

    def test_only_the_smallest_refused_word_is_decoded(self, monkeypatch):
        decoded = []
        decode = quality.decode_vnp46a2_quality
        monkeypatch.setattr(quality, "decode_vnp46a2_quality", lambda qf: decoded.append(qf) or decode(qf))
        words = np.array([[50, 242, 14], [2048, 8, 115]])
        assert vnp46a2_high_quality(words, words < 8).tolist() == [[False, False, False], [False, False, False]]
        valid = np.isin(words, [50, 242, 115])
        assert vnp46a2_high_quality(words, valid).tolist() == [[True, False, False], [False, False, True]]
        assert decoded == []
        with pytest.raises(QualityDecodeError) as raised:
            vnp46a2_high_quality(words, words != 242)
        assert raised.value.qf == 8 and decoded == [8]
