"""Per-pixel quality semantics for the two supported radiance products.

VNP46A2 ships a 16-bit quality word per pixel. The layout decoded here:

    bit 0      day/night          0 = night, 1 = day
    bits 1-3   background         0 = land & desert, 1 = land no desert,
                                  2 = inland water, 3 = sea water,
                                  5 = coastal; 4, 6, 7 reserved
    bits 4-5   cloud mask quality 0 = poor, 1 = low, 2 = medium, 3 = high
    bits 6-7   cloud confidence   0 = confident clear, 1 = probably clear,
                                  2 = probably cloudy, 3 = confident cloudy
    bit 8      shadow detected
    bit 9      cirrus detected
    bit 10     snow/ice surface
    bits 11-15 reserved, must be zero

Reserved background codes and reserved high bits raise QualityDecodeError
(carrying the raw word); a word outside [0, 2^16) violates the call
contract and raises ValueError instead. vnp46a2_reserved finds the words
holding a reserved field across a whole array without decoding them.

VSC-NTL carries no bit mask, only a per-pixel count of cloud-free
observations entering the monthly composite; any positive count marks the
pixel high-quality.

A pixel is high-quality in VNP46A2 iff the background is land without
desert, cloud mask quality is at its top code, cloud confidence is clear or
probably clear, and no shadow, cirrus, or snow/ice was detected. The
day/night flag plays no part: the product is a nighttime composite.
"""

import enum
from dataclasses import dataclass

from ._numpy import np
from .errors import QualityDecodeError

__all__ = [
    "Dataset",
    "DayNight",
    "Background",
    "CloudMaskQuality",
    "CloudConfidence",
    "QualityFlags",
    "decode_vnp46a2_quality",
    "encode_vnp46a2_quality",
    "is_high_quality_vnp46a2",
    "is_high_quality_vscntl",
    "high_quality_mask",
    "vnp46a2_high_quality",
    "vnp46a2_reserved",
    "VNP46A2_HIGH_QUALITY_CODE",
    "VNP46A2_LOW_QUALITY_CODE",
]

# night, land-no-desert background, high mask quality, confident clear
VNP46A2_HIGH_QUALITY_CODE = 50
# same word with cloud confidence forced to confident-cloudy
VNP46A2_LOW_QUALITY_CODE = 242


class Dataset(enum.Enum):
    """The two radiance products; the value is the on-disk directory name."""

    VSC_NTL = "VSC-NTL"
    VNP46A2 = "VNP46A2"

    @property
    def word_dtype(self):
        """The dtype of a stack of this product's integer quality: uint16 words, or int64 cloud-free counts."""
        return np.uint16 if self is Dataset.VNP46A2 else np.int64


class DayNight(enum.Enum):
    NIGHT = 0
    DAY = 1


class Background(enum.Enum):
    LAND_DESERT = 0
    LAND_NO_DESERT = 1
    INLAND_WATER = 2
    SEA_WATER = 3
    COASTAL = 5


class CloudMaskQuality(enum.Enum):
    POOR = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3


class CloudConfidence(enum.Enum):
    CONFIDENT_CLEAR = 0
    PROBABLY_CLEAR = 1
    PROBABLY_CLOUDY = 2
    CONFIDENT_CLOUDY = 3


@dataclass(frozen=True)
class QualityFlags:
    """One pixel's decoded quality word."""

    day_night: DayNight
    background: Background
    cloud_mask_quality: CloudMaskQuality
    cloud_confidence: CloudConfidence
    shadow: bool
    cirrus: bool
    snow_ice: bool


_BACKGROUND_BY_CODE = {member.value: member for member in Background}
# every word is_high_quality_vnp46a2 trusts once decoded: all fields fixed but bits 0 (day/night)
# and 6 (cloud confidence's low bit), i.e. the words w with (w & 0xFFBE) == 0x32
_TRUSTED_WORDS = (50, 51, 114, 115)
# indexed by a word's bits 0-3: whether its background code, bits 1-3, is reserved (4, 6 or 7); a tuple, not an
# array, so importing the module loads no numpy
_RESERVED_BACKGROUND = tuple(low >> 1 not in _BACKGROUND_BY_CODE for low in range(16))


def decode_vnp46a2_quality(qf):
    """Decode a 16-bit VNP46A2 quality word into its seven fields."""
    qf = int(qf)
    if not 0 <= qf < 1 << 16:
        raise ValueError(f"quality word must be a 16-bit non-negative integer, got {qf}")
    if qf >> 11:
        raise QualityDecodeError("reserved bits 11-15 are set", qf)
    background_code = (qf >> 1) & 0b111
    try:
        background = _BACKGROUND_BY_CODE[background_code]
    except KeyError:
        raise QualityDecodeError(f"reserved background code {background_code}", qf) from None
    return QualityFlags(
        day_night=DayNight(qf & 1),
        background=background,
        cloud_mask_quality=CloudMaskQuality((qf >> 4) & 0b11),
        cloud_confidence=CloudConfidence((qf >> 6) & 0b11),
        shadow=bool(qf & 1 << 8),
        cirrus=bool(qf & 1 << 9),
        snow_ice=bool(qf & 1 << 10),
    )


def encode_vnp46a2_quality(flags):
    """Pack QualityFlags back into the 16-bit word; inverse of decode."""
    return (
        flags.day_night.value
        | flags.background.value << 1
        | flags.cloud_mask_quality.value << 4
        | flags.cloud_confidence.value << 6
        | flags.shadow << 8
        | flags.cirrus << 9
        | flags.snow_ice << 10
    )


def is_high_quality_vnp46a2(flags):
    """Whether a decoded VNP46A2 pixel qualifies as a trusted observation."""
    return (
        flags.background is Background.LAND_NO_DESERT
        and flags.cloud_mask_quality is CloudMaskQuality.HIGH
        and flags.cloud_confidence in (CloudConfidence.CONFIDENT_CLEAR, CloudConfidence.PROBABLY_CLEAR)
        and not flags.shadow
        and not flags.cirrus
        and not flags.snow_ice
    )


def is_high_quality_vscntl(cloud_free_count):
    """Whether a VSC-NTL pixel is trusted: any cloud-free observation will do."""
    return cloud_free_count > 0


def high_quality_mask(quality, dataset):
    """Per-cell high-quality booleans for a quality raster, or for every month of a quality stack.

    ``quality`` holds VNP46A2 words or VSC-NTL cloud-free counts depending
    on ``dataset``. Cells with no quality observation are low-quality: an
    unvouched-for value cannot be trusted. VNP46A2 words go through
    vnp46a2_high_quality.
    """
    if dataset is Dataset.VSC_NTL:
        return is_high_quality_vscntl(quality.values) & ~quality.missing
    return vnp46a2_high_quality(quality.values, ~quality.missing)


def vnp46a2_high_quality(words, valid):
    """High-quality booleans for an integer array of non-negative VNP46A2 words of any shape, False where not ``valid``.

    A valid word is high-quality when it is one of _TRUSTED_WORDS (four).
    No word is decoded but the smallest valid one decode_vnp46a2_quality
    refuses, raising its error.
    """
    refused = valid & vnp46a2_reserved(words)
    if refused.any():
        decode_vnp46a2_quality(words[refused].min())
    high = np.zeros_like(valid)
    for word in _TRUSTED_WORDS:
        high |= words == word
    return high & valid


def vnp46a2_reserved(words):
    """Whether each word holds a reserved field, as decode_vnp46a2_quality would find.

    ``words`` is an integer array of non-negative words; a word is reserved
    when it is 2^11 or more or its background code is 4, 6 or 7. Nothing
    is decoded, and no word is cast whole.
    """
    words = np.asarray(words)
    # bits 0-3 of each word, written straight into uint8: masked to 4 bits, the unsafe cast is exact
    low = np.bitwise_and(words, 15, out=np.empty(words.shape, np.uint8), casting="unsafe")
    return (words >= 1 << 11) | np.array(_RESERVED_BACKGROUND)[low]
