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
contract and raises ValueError instead.

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

import numpy as np

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
    """Per-cell high-quality booleans for a quality raster.

    ``quality`` is an IntRaster of VNP46A2 words or VSC-NTL cloud-free
    counts depending on ``dataset``. Cells with no quality observation are
    low-quality: an unvouched-for value cannot be trusted. VNP46A2 words
    are decoded once per distinct code, so decode errors surface for
    reserved codes anywhere in the raster.
    """
    if dataset is Dataset.VSC_NTL:
        hq = quality.values > 0
    else:
        codes = np.unique(quality.values[quality.valid])
        good = {
            int(code)
            for code in codes
            if is_high_quality_vnp46a2(decode_vnp46a2_quality(int(code)))
        }
        hq = np.isin(quality.values, sorted(good))
    return hq & quality.valid
