"""
Synthetic sensor and block codec for controlled, seeded experiments.

The sensor applies a fixed multiplicative pattern plus Gaussian read noise.
The codec is deliberately small: 16x16 macroblocks, 8x8 orthonormal DCT,
uniform quantization with step 2^((qp-4)/6), a coefficient-magnitude rate
model, zero-motion inter prediction, mean-of-neighbors intra prediction,
and a two-way rate-distortion mode decision (CODE vs SKIP) using
J = D + lambda * R with D as summed squared reconstruction error.

None of this is meant to be a faithful H.264; it is meant to expose the
same block-level metadata (type, QP, bits) with known ground truth.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import fft as sfft
from scipy.ndimage import uniform_filter

from .errors import ConfigError
from .trace import (BLOCK_TYPES, MACROBLOCK, QP_MAX, QP_MIN, SKIP,
                    TraceFile, blocks, lambda_of_qp)

_HEADER_BITS = 8
_SKIP_BITS = 1


def _check_shape(shape: tuple[int, ...]) -> None:
    if len(shape) != 2 or min(shape) < 1 or any(n % MACROBLOCK for n in shape):
        raise ConfigError(f"sensor shape {shape} is not two positive "
                          f"multiples of 16")


def _rng(seed: int) -> np.random.Generator:
    """The generator of a seed, which numpy takes only when non-negative."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class SensorModel:
    """Fixed multiplicative pattern plus per-capture Gaussian read noise."""
    k_true: np.ndarray
    read_noise_sigma: float = 2.0

    def __post_init__(self):
        k = self.k_true
        _check_shape(k.shape)
        if not np.abs(k).max() < 0.1:
            raise ConfigError("|k_true| must stay below 0.1")
        if not 0 <= self.read_noise_sigma < np.inf:
            raise ConfigError("read noise sigma must be non-negative and finite")

    @property
    def height(self) -> int:
        return self.k_true.shape[0]

    @property
    def width(self) -> int:
        return self.k_true.shape[1]

    @classmethod
    def random(cls, height: int, width: int, k_strength: float = 0.02,
               read_noise_sigma: float = 2.0, seed: int = 0) -> "SensorModel":
        _check_shape((height, width))
        if not 0 <= k_strength < np.inf:
            raise ConfigError(f"k strength must be non-negative and finite, got {k_strength}")
        rng = _rng(seed)
        k = rng.normal(0.0, k_strength, size=(height, width))
        return cls(k_true=np.clip(k, -0.099, 0.099),
                   read_noise_sigma=read_noise_sigma)


@dataclass(frozen=True)
class CodecConfig:
    """Either a fixed QP or a per-frame bit budget; never both."""
    qp: int | None = None
    target_bits_per_frame: float | None = None
    gop: int = 12
    start_qp: int = 30

    def __post_init__(self):
        if (self.qp is None) == (self.target_bits_per_frame is None):
            raise ConfigError("set exactly one of qp / target_bits_per_frame")
        if self.qp is not None and not (QP_MIN <= self.qp <= QP_MAX):
            raise ConfigError(f"qp {self.qp} outside [{QP_MIN}, {QP_MAX}]")
        if self.qp is None and not 0 < self.target_bits_per_frame < np.inf:
            raise ConfigError("target bits per frame must be positive and finite")
        if self.gop < 1:
            raise ConfigError("gop must be at least 1")
        if not (QP_MIN <= self.start_qp <= QP_MAX):
            raise ConfigError(f"start_qp outside [{QP_MIN}, {QP_MAX}]")


@dataclass
class EncodeResult:
    pictures: np.ndarray     # (frames, h, w) uint8 decoded luma
    trace: TraceFile
    distortion: np.ndarray   # (frames, gh, gw) summed squared error
    rate: np.ndarray         # (frames, gh, gw) bits
    cost: np.ndarray         # (frames, gh, gw) J = D + lambda * R
    lam: np.ndarray          # (frames, gh, gw) lambda actually used
    qp_per_frame: list[int]


def simulate_capture(model: SensorModel, clean_frames: Sequence[np.ndarray],
                     seed: int = 0) -> np.ndarray:
    """Run clean scene radiance through the sensor.

    Each output sample is clip(round(clean * (1 + k) + noise)) as 8-bit;
    the frames come back as one (frames, h, w) uint8 stack.
    """
    rng = _rng(seed)
    gain = 1.0 + model.k_true
    out = np.empty((len(clean_frames),) + model.k_true.shape, dtype=np.uint8)
    for i, clean in enumerate(clean_frames):
        clean = np.asarray(clean, dtype=np.float64)
        if clean.shape != model.k_true.shape:
            raise ConfigError(f"frame {i} shape {clean.shape} does not match "
                              f"sensor {model.k_true.shape}")
        sample = clean * gain
        if model.read_noise_sigma > 0:
            sample = sample + rng.normal(0.0, model.read_noise_sigma,
                                         size=clean.shape)
        out[i] = np.clip(np.rint(sample), 0, 255)
    return out


# ---------------------------------------------------------------------------
# transform / rate model
# ---------------------------------------------------------------------------

def _qstep(qp: int) -> float:
    return 2.0 ** ((qp - 4) / 6.0)


def code_candidate(residual: np.ndarray, qp: int) -> tuple[np.ndarray, np.ndarray]:
    """Transform-code prediction residuals at one QP.

    :param residual: (..., 16, 16) macroblock residuals
    :returns: (reconstructed residuals (..., 16, 16), rate bits (...))
        rate counts 1 + ceil(log2(1 + |level|)) per quantized coefficient
        plus 8 header bits per macroblock
    """
    step = _qstep(qp)
    coeffs = sfft.dctn(blocks(residual, 8), type=2, norm="ortho",
                       axes=(-2, -1))
    levels = np.rint(coeffs / step)
    coeff_bits = 1.0 + np.ceil(np.log2(1.0 + np.abs(levels)))
    rate = coeff_bits.sum(axis=(-4, -3, -2, -1)) + _HEADER_BITS
    rec = np.empty(residual.shape)
    blocks(rec, 8)[...] = sfft.idctn(levels * step, type=2, norm="ortho",
                                     axes=(-2, -1))
    return rec, rate


def encode_block(block: np.ndarray, reference: np.ndarray, qp: int,
                 lam: float | None = None,
                 allow_skip: bool = True) -> dict:
    """Rate-distortion mode decision for one macroblock, or for each block
    of a (..., 16, 16) stack against a reference that broadcasts to it.

    Returns a dict with the chosen mode ("CODE"/"SKIP"), the decoded block,
    and (d, r, j) for the choice plus both candidates, each of the stack's
    leading shape. Ties go to CODE.
    """
    if lam is None:
        lam = lambda_of_qp(qp)
    block = np.asarray(block, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    rec_res, r_code = code_candidate(block - reference, qp)
    recon = np.clip(np.rint(reference + rec_res), 0, 255)
    d_code = ((block - recon) ** 2).sum(axis=(-2, -1))
    j_code = d_code + lam * r_code
    candidates = {"CODE": (d_code, r_code, j_code)}
    skip = np.zeros(np.shape(j_code), dtype=bool)
    d, r, j = candidates["CODE"]
    if allow_skip:
        recon_s = np.clip(np.rint(reference), 0, 255)
        d_skip = ((block - recon_s) ** 2).sum(axis=(-2, -1))
        j_skip = d_skip + lam * _SKIP_BITS
        candidates["SKIP"] = (d_skip, float(_SKIP_BITS), j_skip)
        skip = j_skip < j_code
        recon = np.where(skip[..., None, None], recon_s, recon)
        # [()] turns a single block's 0-d results into scalars
        d, r, j = (np.where(skip, s, c)[()] for s, c in
                   zip(candidates["SKIP"], candidates["CODE"]))
    return {"mode": np.where(skip, "SKIP", "CODE")[()], "recon": recon,
            "d": d, "r": r, "j": j, "lam": lam, "candidates": candidates}


# ---------------------------------------------------------------------------
# sequence encoder
# ---------------------------------------------------------------------------

def _controller_step(qp: int, frame_bits: float, target: float) -> int:
    ratio = frame_bits / target
    if ratio > 2.0:
        qp += 4
    elif ratio > 1.4:
        qp += 2
    elif ratio > 1.08:
        qp += 1
    elif ratio < 0.5:
        qp -= 4
    elif ratio < 0.7:
        qp -= 2
    elif ratio < 0.92:
        qp -= 1
    return int(np.clip(qp, QP_MIN, QP_MAX))


def _encode_intra(orig: np.ndarray, qp: int) -> tuple[np.ndarray, ...]:
    """Code every block of an intra frame: (decoded frame, distortion, rate).

    A block's predictor is the mean of the decoded row above it and the
    decoded column left of it (128 when it has neither), so the blocks of
    one anti-diagonal of the grid depend only on earlier diagonals and are
    coded in one call.
    """
    h, w = orig.shape
    gh, gw = h // MACROBLOCK, w // MACROBLOCK
    dec = np.zeros((h, w))
    distortion, rate = np.zeros((gh, gw)), np.zeros((gh, gw))
    orig_blocks, dec_blocks = blocks(orig), blocks(dec)
    span = np.arange(MACROBLOCK)
    for diagonal in range(gh + gw - 1):
        by = np.arange(max(0, diagonal - gw + 1), min(gh, diagonal + 1))
        bx = diagonal - by
        y0, x0 = by[:, None] * MACROBLOCK, bx[:, None] * MACROBLOCK
        # decoded pixels are whole numbers, so these sums are exact
        top = np.where(by > 0, dec[y0 - 1, x0 + span].sum(axis=1), 0.0)
        left = np.where(bx > 0, dec[y0 + span, x0 - 1].sum(axis=1), 0.0)
        count = MACROBLOCK * ((by > 0).astype(np.int64) + (bx > 0))
        pred = np.divide(top + left, count, out=np.full(by.size, 128.0),
                         where=count > 0)[:, None, None]
        out = encode_block(orig_blocks[by, bx], pred, qp, allow_skip=False)
        distortion[by, bx], rate[by, bx] = out["d"], out["r"]
        dec_blocks[by, bx] = out["recon"]
    return dec, distortion, rate


def encode_sequence(frames: Sequence[np.ndarray],
                    config: CodecConfig) -> EncodeResult:
    """Encode a sequence with per-frame QP and zero-motion references.

    Frame 0 and every gop-th frame are intra coded (CODE only, predictor =
    mean of decoded left/top neighbor pixels, 128 when there are none).
    Other frames predict from the co-located block of the previous decoded
    frame and may SKIP. Skip blocks inherit the QP of their reference
    block and record the single signaling bit.
    """
    lumas = [np.asarray(f) for f in frames]
    if not lumas:
        raise ConfigError("nothing to encode")
    h, w = lumas[0].shape
    if h % MACROBLOCK or w % MACROBLOCK:
        raise ConfigError("frame dimensions must be multiples of 16")
    gh, gw = h // MACROBLOCK, w // MACROBLOCK
    n = len(lumas)

    distortion = np.zeros((n, gh, gw))
    rate = np.zeros((n, gh, gw))
    cost = np.zeros((n, gh, gw))
    lam_grid = np.zeros((n, gh, gw))
    type_code = np.zeros((n, gh, gw), dtype=np.int8)
    qps = np.zeros((n, gh, gw), dtype=np.int64)
    qp_per_frame: list[int] = []
    pictures = np.empty((n, h, w), dtype=np.uint8)

    qp = config.qp if config.qp is not None else config.start_qp
    prev_dec: np.ndarray | None = None

    for t, luma in enumerate(lumas):
        if luma.shape != (h, w):
            raise ConfigError(f"frame {t} shape changed")
        orig = luma.astype(np.float64)
        lam = lambda_of_qp(qp)
        intra = t % config.gop == 0 or prev_dec is None

        if intra:
            dec, distortion[t], rate[t] = _encode_intra(orig, qp)
            cost[t] = distortion[t] + lam * rate[t]
            type_code[t] = BLOCK_TYPES.index("I")
            qps[t] = qp
        else:
            out = encode_block(blocks(orig), blocks(prev_dec), qp, lam)
            dec = np.empty((h, w))
            blocks(dec)[...] = out["recon"]
            distortion[t], rate[t], cost[t] = out["d"], out["r"], out["j"]
            use_skip = out["mode"] == "SKIP"
            type_code[t] = np.where(use_skip, SKIP, BLOCK_TYPES.index("P"))
            qps[t] = np.where(use_skip, qps[t - 1], qp)

        lam_grid[t] = lam
        qp_per_frame.append(qp)
        pictures[t] = dec
        prev_dec = dec
        if config.target_bits_per_frame is not None:
            qp = _controller_step(qp, float(rate[t].sum()),
                                  config.target_bits_per_frame)

    trace = TraceFile(width=w, height=h, frame_count=n, type_code=type_code,
                      qp=qps, bits=rate.astype(np.int64))
    return EncodeResult(pictures=pictures, trace=trace, distortion=distortion,
                        rate=rate, cost=cost, lam=lam_grid,
                        qp_per_frame=qp_per_frame)


# ---------------------------------------------------------------------------
# scene content for experiments
# ---------------------------------------------------------------------------

def synthetic_clean_frames(height: int, width: int, count: int, seed: int = 0,
                           motion: int = 2) -> list[np.ndarray]:
    """Textured static background with one textured object drifting across.

    Static regions give a codec something to skip at low bitrates while the
    object path forces fresh coding; that mix is what the weighting schemes
    are about.
    """
    rng = _rng(seed)
    # a background of std 22 about mid-grey, an object of std 32
    base = uniform_filter(rng.normal(0.0, 1.0, size=(height, width)), 7,
                          mode="wrap")
    base = 128.0 + 22.0 * base / max(base.std(), 1e-12)
    obj = uniform_filter(rng.normal(0.0, 1.0, size=(height, width)), 3,
                         mode="wrap")
    obj = 32.0 * obj / max(obj.std(), 1e-12)
    oh, ow = max(height // 4, MACROBLOCK), max(width // 4, MACROBLOCK)
    window = np.zeros((height, width))
    window[:oh, :ow] = 1.0
    frames = []
    for t in range(count):
        shift = (motion * t) % height, (motion * t) % width
        mask = np.roll(window, shift, axis=(0, 1))
        frame = np.clip(base + mask * np.roll(obj, shift, axis=(0, 1)), 10, 245)
        frames.append(frame)
    return frames
