"""
Exception taxonomy shared by all modules.

Everything raised on purpose derives from BlockPrnuError so callers (and the
CLI exit-code mapping) can tell deliberate rejections from genuine bugs.
"""


class BlockPrnuError(Exception):
    """Base class for all deliberate errors raised by this package."""


# ---------- bitstream / parsing ----------

class MalformedStream(BlockPrnuError):
    """Byte stream is not a valid Annex-B elementary stream."""


class TruncatedUnit(BlockPrnuError):
    """Stream ended in the middle of a NAL unit."""


class BitstreamExhausted(BlockPrnuError):
    """A read ran past the end of the available bits."""


class MissingParameterSet(BlockPrnuError):
    """Slice references an SPS/PPS id that was never seen."""


class UnsupportedProfile(BlockPrnuError):
    """Syntax requires features outside the supported Baseline/Main subset."""


# ---------- trace / tabular inputs ----------

class SchemaError(BlockPrnuError):
    """A line or header does not match the documented format."""


class CoverageGap(BlockPrnuError):
    """A trace does not cover the full macroblock grid."""


class RangeError(BlockPrnuError):
    """A numeric field is outside its allowed range."""


class EmptyInput(BlockPrnuError):
    """An aggregate was requested over zero elements."""


# ---------- fingerprint estimation ----------

class DimensionMismatch(BlockPrnuError):
    """Arrays that must share a shape do not."""


class EmptyAccumulator(BlockPrnuError):
    """finalize() called before any frame was accumulated."""


class AllMaskedOut(BlockPrnuError):
    """No pixel survived masking; there is nothing to estimate."""


# ---------- matching ----------

class DegenerateFingerprint(BlockPrnuError):
    """A fingerprint has zero energy and cannot be correlated."""


# ---------- weighting / calibration ----------

class MissingKey(BlockPrnuError):
    """A weight table has no entry for the requested key."""


class MissingAnchor(BlockPrnuError):
    """Calibration observations do not include the anchor condition."""


class InsufficientData(BlockPrnuError):
    """Not enough observations to build a table."""


class InsufficientFrames(BlockPrnuError):
    """Splicing needs at least two source frames."""


class EmptyBucket(BlockPrnuError):
    """The anchor bucket holds no observations."""


# ---------- configuration ----------

class ConfigError(BlockPrnuError):
    """A configuration value is out of its domain or inconsistent."""
