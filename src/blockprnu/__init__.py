"""
Sensor-pattern fingerprints from compressed video.

Each coding block's contribution to the fingerprint is weighted by what the
codec did to it: skipped blocks carry no fresh sensor noise, heavily
quantized blocks carry less, and the lambda*rate cost of a block predicts
how much survives. Fingerprints are matched by peak-to-correlation energy.
"""
from .bitstream import (NalUnit, ParameterSetContext, Pps,
                        SliceHeaderInfo, Sps, load_trace, parse_annexb,
                        parse_pps, parse_slice_header, parse_sps, save_trace,
                        serialize_trace, split_nal_units,
                        validate_against_slices)
from .calibration import (CalibrationRun, SplicedVideo,
                          build_lambda_rate_table, build_qp_table,
                          calibrate_lambda_rate, calibrate_qp,
                          quantile_bucket_edges, splice_by_lambda_rate)
from .errors import (AllMaskedOut, BitstreamExhausted, BlockPrnuError,
                     ConfigError, CoverageGap, DegenerateFingerprint,
                     DimensionMismatch, EmptyAccumulator, EmptyBucket,
                     EmptyInput, InputError, InsufficientData,
                     InsufficientFrames, MalformedStream, MissingAnchor,
                     MissingKey, MissingParameterSet, RangeError, SchemaError,
                     TruncatedUnit, UnsupportedProfile)
from .evaluation import (BPP_GROUP_EDGES, ExperimentGrid, RocCurve,
                         ThresholdTable, format_ratio,
                         group_labels_for_edges, improvement_ratios, roc,
                         run_grid, sbr_summary, scheme_mean_pce,
                         threshold_table)
from .matching import (DEFAULT_THRESHOLD, MatchReport, PceConfig,
                       batch_match, format_report_records, pce)
from .noise import (DenoiseConfig, YuvLuma, denoise, extract_residual,
                    read_yuv420, saturation_mask, wiener_adaptive,
                    write_yuv420, zero_mean_rows_cols)
from .prnu import (Fingerprint, FingerprintAccumulator, Video,
                   estimate_fingerprint, finalize, read_fingerprint,
                   residual_extractor, resolve_workers, stream_fingerprints,
                   write_fingerprint)
from .trace import (BLOCK_TYPES, MACROBLOCK, BlockRecord, TraceFile,
                    bits_per_pixel, lambda_grid, lambda_of_qp,
                    skipped_block_rate)
from .weighting import (ALL_SCHEMES, ANCHOR_LAMBDA_RATE, ANCHOR_QP, SCHEMES,
                        TABLE_SCHEMES, SchemeConfig, WeightTable, build_mask,
                        paint_blocks)

__version__ = "0.1.0"

# The simulator is the one module that needs scipy. Its names resolve on
# first use, so the analysis path imports on numpy alone.
_SIMULATOR_NAMES = ("CodecConfig", "EncodeResult", "SensorModel",
                    "encode_block", "encode_sequence", "simulate_capture",
                    "synthetic_clean_frames")


def __getattr__(name):
    if name in _SIMULATOR_NAMES:
        from . import simulator
        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SIMULATOR_NAMES))
