"""
Exception taxonomy shared by all modules.

Everything raised on purpose derives from BlockPrnuError so callers can tell
deliberate rejections from genuine bugs. Each class carries its CLI exit
code: 2 for ConfigError, 3 for malformed input (InputError and its
subclasses) and 4 for a degenerate computation (the rest).
"""


class BlockPrnuError(Exception):
    """Base class for all deliberate errors raised by this package."""
    exit_code = 4


class InputError(BlockPrnuError):
    """An input file or value does not have the documented form."""
    exit_code = 3


# ---------- bitstream / parsing ----------

class MalformedStream(InputError):
    """Byte stream is not a valid Annex-B elementary stream."""


class TruncatedUnit(InputError):
    """Stream ended in the middle of a NAL unit."""


class BitstreamExhausted(InputError):
    """A read ran past the end of the available bits."""


class MissingParameterSet(InputError):
    """Slice references an SPS/PPS id that was never seen."""


class UnsupportedProfile(InputError):
    """Syntax requires features outside the supported Baseline/Main subset."""


# ---------- trace / tabular inputs ----------

class SchemaError(InputError):
    """A line or header does not match the documented format."""


class CoverageGap(InputError):
    """A trace does not cover the full macroblock grid."""


class RangeError(InputError):
    """A numeric field is outside its allowed range."""


class EmptyInput(BlockPrnuError):
    """An aggregate was requested over zero elements."""


# ---------- fingerprint estimation ----------

class DimensionMismatch(InputError):
    """Arrays that must share a shape do not."""


class EmptyAccumulator(BlockPrnuError):
    """finalize() called before any frame was accumulated."""


class AllMaskedOut(BlockPrnuError):
    """No pixel survived masking; there is nothing to estimate."""


# ---------- matching ----------

class DegenerateFingerprint(BlockPrnuError):
    """A fingerprint has zero energy and cannot be correlated."""


# ---------- weighting / calibration ----------

class MissingKey(InputError):
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
    exit_code = 2


def decode_text(data: bytes, source) -> str:
    """Outside bytes as UTF-8 text, or a SchemaError that names `source`."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{source}: not UTF-8 ({exc.reason} at byte "
                          f"{exc.start})") from exc
