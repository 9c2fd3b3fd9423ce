"""
Sensor fingerprint estimation by maximum-likelihood aggregation.

Each frame contributes its luma-weighted noise residual to a streaming
numerator and an intensity-energy denominator:

    K = sum_i(I_i * W_i * M_i) / sum_i(I_i^2 * M_i)

where M_i is the per-pixel weighting mask (codec-metadata-driven) times the
saturation mask. Pixels whose denominator never clears a floor carry no
evidence and are dropped from the support.

A video's luma I arrives as one (frames, H, W) uint8 stack, and each
frame's residual W as a float64 (H, W) array.
"""
from __future__ import annotations

import os
import struct
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (AllMaskedOut, ConfigError, DimensionMismatch,
                     EmptyAccumulator, InsufficientData, SchemaError,
                     decode_text)
from .noise import DenoiseConfig, extract_residual, saturation_mask
from .trace import TraceFile
from .weighting import SCHEMES, SchemeConfig, build_mask, paint_blocks

_MAGIC = b"BPFP\x01"
DENOMINATOR_FLOOR_SCALE = 1e-3


@dataclass
class Fingerprint:
    """Finalized sensor pattern estimate plus its valid-pixel support."""
    k_values: np.ndarray
    support: np.ndarray
    source_id: str = ""

    @property
    def shape(self) -> tuple[int, int]:
        return self.k_values.shape


class FingerprintAccumulator:
    """Streaming sums for the aggregation ratio, fed in frame order."""

    def __init__(self, height: int, width: int):
        if height <= 0 or width <= 0:
            raise ConfigError(f"accumulator needs a positive shape, "
                              f"got {height}x{width}")
        self.numerator = np.zeros((height, width), dtype=np.float64)
        self.denominator = np.zeros((height, width), dtype=np.float64)
        self.frames_ingested = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.numerator.shape

    def accumulate(self, luma: np.ndarray, residual: np.ndarray,
                   mask: np.ndarray,
                   sat_mask: np.ndarray | None = None) -> None:
        luma = luma.astype(np.float64)
        for name, arr in (("residual", residual), ("mask", mask),
                          ("picture", luma)):
            if arr.shape != self.shape:
                raise DimensionMismatch(f"{name} shape {arr.shape} vs "
                                        f"accumulator {self.shape}")
        m = mask if sat_mask is None else mask * sat_mask
        self.numerator += luma * residual * m
        self.denominator += luma * luma * m
        self.frames_ingested += 1


def finalize(acc: FingerprintAccumulator,
             denominator_floor: float | None = None,
             normalize: bool = True,
             source_id: str = "") -> Fingerprint:
    """Turn accumulated sums into a fingerprint.

    :param denominator_floor: pixels whose denominator is below this are
        excluded from the support; by default 1e-3 times the mean of the
        nonzero denominator entries
    :param normalize: zero-mean the estimate over its support and scale it
        to unit energy (relative weighting is all that matters downstream)
    """
    if acc.frames_ingested == 0:
        raise EmptyAccumulator("finalize before any frame was accumulated")
    den = acc.denominator
    if denominator_floor is None:
        nonzero = den[den > 0]
        if nonzero.size == 0:
            raise AllMaskedOut("denominator is zero everywhere")
        denominator_floor = DENOMINATOR_FLOOR_SCALE * float(nonzero.mean())
    if not denominator_floor > 0:
        raise ConfigError(f"denominator floor must be positive, "
                          f"got {denominator_floor}")
    support = den >= denominator_floor
    if not support.any():
        raise AllMaskedOut("no pixel cleared the denominator floor")
    k = np.zeros(acc.shape, dtype=np.float64)
    k[support] = acc.numerator[support] / den[support]
    if normalize:
        k[support] -= k[support].mean()
        energy = float(np.sqrt((k * k).sum()))
        if energy > 0:
            k /= energy
    return Fingerprint(k_values=k, support=support, source_id=source_id)


# ---------------------------------------------------------------------------
# binary fingerprint files
# ---------------------------------------------------------------------------

def write_fingerprint(fp: Fingerprint, path: str | Path) -> None:
    """magic, width, height, source id, float32 K row-major, packed support."""
    sid = fp.source_id.encode("utf-8")
    h, w = fp.shape
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<III", w, h, len(sid))
    blob += sid
    blob += fp.k_values.astype("<f4").tobytes()
    blob += np.packbits(fp.support.astype(np.uint8)).tobytes()
    Path(path).write_bytes(bytes(blob))


def read_fingerprint(path: str | Path) -> Fingerprint:
    data = Path(path).read_bytes()
    if data[:len(_MAGIC)] != _MAGIC:
        raise SchemaError(f"{path}: not a fingerprint file")
    off = len(_MAGIC)
    if len(data) < off + 12:
        raise SchemaError(f"{path}: truncated header")
    w, h, sid_len = struct.unpack_from("<III", data, off)
    off += 12
    if len(data) < off + sid_len:
        raise SchemaError(f"{path}: truncated source id")
    sid = decode_text(data[off:off + sid_len], f"{path}: source id")
    off += sid_len
    n = w * h
    if n == 0:
        raise SchemaError(f"{path}: empty fingerprint")
    if len(data) < off + 4 * n:
        raise SchemaError(f"{path}: truncated sample data")
    k = np.frombuffer(data, dtype="<f4", count=n, offset=off)
    k = k.reshape(h, w).astype(np.float64)
    off += 4 * n
    packed_len = (n + 7) // 8
    if len(data) != off + packed_len:
        raise SchemaError(f"{path}: support bitmap size mismatch")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=off))
    support = bits[:n].reshape(h, w).astype(bool)
    return Fingerprint(k_values=k, support=support, source_id=sid)


# ---------------------------------------------------------------------------
# end-to-end estimation pipeline
# ---------------------------------------------------------------------------

def resolve_workers(value: int | None = None) -> int:
    """Worker count: an explicit value, else BLOCKPRNU_WORKERS, else the
    CPUs this process may run on."""
    if value is not None:
        if value < 1:
            raise ConfigError("workers must be at least 1")
        return value
    env = os.environ.get("BLOCKPRNU_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"BLOCKPRNU_WORKERS={env!r} is not an integer") from exc
        if value < 1:
            raise ConfigError("BLOCKPRNU_WORKERS must be at least 1")
        return value
    # the CPUs this process may run on, not the host's, under taskset or
    # a cpuset; sched_getaffinity is missing on macOS and Windows
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def require_references(camera_ids, references: dict[str, Fingerprint]) -> None:
    """InsufficientData for the first camera without a reference
    fingerprint; calibration and grids check it before any extraction."""
    for cam in camera_ids:
        if cam not in references:
            raise InsufficientData(f"no reference fingerprint for camera {cam}")


@contextmanager
def residual_extractor(denoise_config: DenoiseConfig = DenoiseConfig(),
                       workers: int = 1):
    """Yield ``extract(pictures) -> list[np.ndarray]``: the residual of
    each (H, W) plane of a luma stack, in frame order.

    With workers > 1 one process pool serves every call made inside the
    with block, so a command that extracts several videos starts one pool.
    Residuals are the same for any worker count. They stay a list: a
    stacked copy would sit beside the pool's pending results.
    """
    job = partial(extract_residual, config=denoise_config)
    if workers <= 1:
        yield lambda pictures: [job(luma) for luma in pictures]
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield lambda pictures: list(pool.map(
            job, pictures, chunksize=max(1, len(pictures) // workers)))


def _block_weights(pictures: np.ndarray, trace: TraceFile | None,
                   scheme: SchemeConfig,
                   residual_count: int) -> np.ndarray | None:
    """Every frame's block weights (None: masks of ones), once the luma
    stack, the trace and the residual count are checked to agree."""
    if not len(pictures):
        raise EmptyAccumulator("no pictures to estimate from")
    if pictures.ndim != 3:
        raise DimensionMismatch(f"luma must be a (frames, H, W) stack, "
                                f"got {pictures.ndim}-D")
    if pictures.dtype != np.uint8:
        raise ConfigError(f"luma must be uint8, got {pictures.dtype}")
    if trace is None and (SCHEMES[scheme.scheme].lookup
                          or SCHEMES[scheme.scheme].zero_skip):
        raise DimensionMismatch(f"scheme {scheme.scheme} needs a trace")
    frames = len(pictures) if trace is None else trace.frame_count
    if not frames == residual_count == len(pictures):
        raise DimensionMismatch(f"{len(pictures)} pictures vs "
                                f"{frames} trace frames vs "
                                f"{residual_count} residuals")
    return None if trace is None else build_mask(trace, scheme)


def _accumulate(pictures: np.ndarray, weights: np.ndarray | None,
                residuals: Sequence[np.ndarray],
                denominator_floor: float | None,
                source_id: str) -> Fingerprint:
    h, w = pictures.shape[1:]
    acc = FingerprintAccumulator(h, w)
    for i, (luma, residual) in enumerate(zip(pictures, residuals)):
        # one frame painted at a time: a painted stack would hold the
        # whole video's masks at once
        mask = (np.ones((h, w), dtype=np.float64) if weights is None
                else paint_blocks(weights[i], (h, w)))
        acc.accumulate(luma, residual, mask, saturation_mask(luma))
    return finalize(acc, denominator_floor=denominator_floor,
                    source_id=source_id)


def fingerprint_from_residuals(pictures: np.ndarray,
                               trace: TraceFile | None,
                               residuals: Sequence[np.ndarray],
                               scheme: SchemeConfig,
                               denominator_floor: float | None = None,
                               source_id: str = "") -> Fingerprint:
    """Mask, accumulate in frame order and finalize precomputed residuals
    of a (frames, H, W) uint8 luma stack.

    The block weights of every frame are built before the first frame is
    accumulated; each frame's mask is painted from them in turn. trace may
    be None only for schemes that ignore block metadata (neither a table
    nor zeroed skips in `SCHEMES`), and then every mask is all ones.
    """
    pictures = np.asarray(pictures)
    weights = _block_weights(pictures, trace, scheme, len(residuals))
    return _accumulate(pictures, weights, residuals, denominator_floor,
                       source_id)


def estimate_fingerprint(pictures: np.ndarray,
                         trace: TraceFile | None,
                         scheme: SchemeConfig,
                         denoise_config: DenoiseConfig = DenoiseConfig(),
                         denominator_floor: float | None = None,
                         source_id: str = "",
                         workers: int = 1) -> Fingerprint:
    """Estimate one fingerprint from a (frames, H, W) uint8 luma stack
    and its trace, both checked, and the block weights built, before any
    residual is extracted. Accumulation runs in frame order, so the
    result is identical for any worker count.
    """
    pictures = np.asarray(pictures)
    weights = _block_weights(pictures, trace, scheme, len(pictures))
    with residual_extractor(denoise_config, workers) as extract:
        residuals = extract(pictures)
    return _accumulate(pictures, weights, residuals, denominator_floor,
                       source_id)
