"""
Noise-residual extraction: the sensor pattern lives in what the denoiser
removes.

The primary denoiser is a multi-level orthogonal wavelet decomposition
(db4, periodized) with per-subband adaptive Wiener filtering of the detail
coefficients; the approximation band is treated as scene content. A plain
3x3 spatial Wiener filter is available as a fallback. Residuals are
zero-meaned per row and per column to kill line artifacts.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import correlate1d, uniform_filter

from .errors import ConfigError, DimensionMismatch, SchemaError

# db4 analysis lowpass; highpass and synthesis follow from orthogonality
_DEC_LO = np.array([
    -0.010597401784997278, 0.032883011666982945, 0.030841381835986965,
    -0.18703481171888114, -0.02798376941698385, 0.6308807679295904,
    0.7148465705525415, 0.23037781330885523,
])
_DEC_HI = _DEC_LO[::-1] * np.where(np.arange(_DEC_LO.size) % 2 == 0, -1.0, 1.0)
_HALF_LEN = _DEC_LO.size // 2

WIENER_WINDOWS = (3, 5, 7, 9)
SATURATION_HIGH = 250
SATURATION_LOW = 5


@dataclass(frozen=True)
class Picture:
    """One decoded frame, luma plane only."""
    luma: np.ndarray
    frame_idx: int = 0

    def __post_init__(self):
        if self.luma.ndim != 2:
            raise DimensionMismatch(f"luma must be 2-D, got {self.luma.ndim}-D")
        if self.luma.dtype != np.uint8:
            raise ConfigError(f"luma must be uint8, got {self.luma.dtype}")

    @property
    def height(self) -> int:
        return self.luma.shape[0]

    @property
    def width(self) -> int:
        return self.luma.shape[1]


@dataclass
class NoiseResidual:
    """picture minus denoised picture, row/column zero-meaned."""
    values: np.ndarray
    frame_idx: int = 0
    degenerate: bool = False


@dataclass(frozen=True)
class DenoiseConfig:
    method: str = "wavelet"        # "wavelet" or "spatial"
    noise_var: float = 3.0         # in sample-value units squared
    levels: int = 4

    def __post_init__(self):
        if self.method not in ("wavelet", "spatial"):
            raise ConfigError(f"unknown denoise method {self.method!r}")
        if not self.noise_var > 0:
            raise ConfigError(f"noise variance must be positive: {self.noise_var}")
        if self.levels < 1:
            raise ConfigError(f"levels must be at least 1, got {self.levels}")


# ---------------------------------------------------------------------------
# periodized orthogonal DWT
# ---------------------------------------------------------------------------

def _dwt_axis(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    # band[k] = sum_m F[m] * x[(2k + m) % n]: a periodic correlation with
    # tap 0 on the output sample, kept at even k
    even = np.arange(0, x.shape[axis], 2)
    return tuple(correlate1d(x, f, axis, mode="wrap", origin=-_HALF_LEN)
                 .take(even, axis) for f in (_DEC_LO, _DEC_HI))


def _idwt_axis(lo: np.ndarray, hi: np.ndarray, axis: int) -> np.ndarray:
    # exact adjoint of _dwt_axis, so orthogonality makes it the inverse; in
    # polyphase form on the half-length bands, output phase r is
    #   out[2p + r] = sum_q F[2q + r] * band[(p - q) % (n/2)]
    # (reversed phase filter, last tap on the output sample)
    phases = [sum(correlate1d(band, f[r::2][::-1], axis, mode="wrap",
                              origin=_HALF_LEN // 2 - 1)
                  for band, f in ((lo, _DEC_LO), (hi, _DEC_HI)))
              for r in (0, 1)]
    shape = list(lo.shape)
    shape[axis] *= 2
    return np.stack(phases, axis=axis + 1).reshape(shape)


def _dwt2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    lo, hi = _dwt_axis(x, axis=1)
    ll, lh = _dwt_axis(lo, axis=0)
    hl, hh = _dwt_axis(hi, axis=0)
    return ll, lh, hl, hh


def _idwt2(ll: np.ndarray, lh: np.ndarray, hl: np.ndarray,
           hh: np.ndarray) -> np.ndarray:
    lo = _idwt_axis(ll, lh, axis=0)
    hi = _idwt_axis(hl, hh, axis=0)
    return _idwt_axis(lo, hi, axis=1)


def wavedec2(x: np.ndarray, levels: int) -> tuple[np.ndarray, list[tuple]]:
    """Multi-level 2-D DWT. Stops early if an extent goes odd.

    Returns (approximation, details) with details ordered coarse to fine,
    each entry a (LH, HL, HH) triple.
    """
    details: list[tuple] = []
    cur = np.asarray(x, dtype=np.float64)
    for _ in range(levels):
        if cur.shape[0] % 2 or cur.shape[1] % 2 or min(cur.shape) < 2:
            break
        cur, lh, hl, hh = _dwt2(cur)
        details.append((lh, hl, hh))
    details.reverse()
    return cur, details


def waverec2(approx: np.ndarray, details: list[tuple]) -> np.ndarray:
    cur = approx
    for lh, hl, hh in details:
        cur = _idwt2(cur, lh, hl, hh)
    return cur


# ---------------------------------------------------------------------------
# denoisers
# ---------------------------------------------------------------------------

def wiener_adaptive(coeffs: np.ndarray, noise_var: float,
                    windows: tuple[int, ...] = WIENER_WINDOWS) -> np.ndarray:
    """Minimum-variance adaptive Wiener attenuation of one subband.

    :param coeffs: detail coefficients, assumed zero-mean
    :param noise_var: variance attributed to sensor noise
    :param windows: square window sizes over which local energy is estimated;
        the smallest estimate wins per coefficient
    """
    signal_var = None
    sq = coeffs * coeffs
    for w in windows:
        est = np.maximum(uniform_filter(sq, w, mode="reflect") - noise_var, 0.0)
        signal_var = est if signal_var is None else np.minimum(signal_var, est)
    return coeffs * signal_var / (signal_var + noise_var)


def _wavelet_noise(x: np.ndarray, config: DenoiseConfig) -> np.ndarray | None:
    """Noise estimate: reconstruct from Wiener-filtered details only.

    Returns None when the picture is too small for even one level.
    """
    approx, details = wavedec2(x, config.levels)
    if not details:
        return None
    filtered = [tuple(wiener_adaptive(band, config.noise_var) for band in lvl)
                for lvl in details]
    return waverec2(np.zeros_like(approx), filtered)


def wiener_spatial(x: np.ndarray, noise_var: float, size: int = 3) -> np.ndarray:
    """Pixel-domain adaptive Wiener filter with reflect padding."""
    local_mean = uniform_filter(x, size, mode="reflect")
    local_sq = uniform_filter(x * x, size, mode="reflect")
    local_var = np.maximum(local_sq - local_mean * local_mean, 0.0)
    signal_var = np.maximum(local_var - noise_var, 0.0)
    return local_mean + (x - local_mean) * signal_var / (signal_var + noise_var)


def denoise(x: np.ndarray, config: DenoiseConfig) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if config.method == "wavelet":
        noise = _wavelet_noise(x, config)
        if noise is not None:
            return x - noise
    return wiener_spatial(x, config.noise_var)


def zero_mean_rows_cols(w: np.ndarray) -> np.ndarray:
    """Remove per-row then per-column means (both end up exactly zero)."""
    w = w - w.mean(axis=1, keepdims=True)
    return w - w.mean(axis=0, keepdims=True)


def extract_residual(picture: Picture,
                     config: DenoiseConfig = DenoiseConfig()) -> NoiseResidual:
    """Noise residual of one picture: luma minus its denoised version.

    A constant picture has no usable noise; the result is all zeros with
    the degenerate flag set.
    """
    x = picture.luma.astype(np.float64)
    if x.size == 0 or x.max() == x.min():
        return NoiseResidual(values=np.zeros_like(x),
                             frame_idx=picture.frame_idx, degenerate=True)
    residual = x - denoise(x, config)
    residual = zero_mean_rows_cols(residual)
    return NoiseResidual(values=residual, frame_idx=picture.frame_idx)


def saturation_mask(picture: Picture) -> np.ndarray:
    """1.0 where the sample is trustworthy, 0.0 at clipped/near-clipped values."""
    luma = picture.luma
    ok = (luma > SATURATION_LOW) & (luma < SATURATION_HIGH)
    return ok.astype(np.float64)


# ---------------------------------------------------------------------------
# raw planar 4:2:0 I/O (luma is all the pipeline consumes)
# ---------------------------------------------------------------------------

def read_yuv420(path: str | Path, width: int, height: int) -> list[Picture]:
    data = Path(path).read_bytes()
    frame_bytes = width * height + 2 * (width // 2) * (height // 2)
    if frame_bytes == 0 or len(data) % frame_bytes:
        raise SchemaError(f"{path}: size {len(data)} is not a whole number of "
                          f"{width}x{height} 4:2:0 frames")
    pictures = []
    for i in range(len(data) // frame_bytes):
        off = i * frame_bytes
        luma = np.frombuffer(data, dtype=np.uint8, count=width * height,
                             offset=off).reshape(height, width)
        pictures.append(Picture(luma=luma.copy(), frame_idx=i))
    return pictures


def write_yuv420(pictures: list[Picture], path: str | Path) -> None:
    chunks = []
    for pic in pictures:
        chunks.append(pic.luma.tobytes())
        chunks.append(bytes([128]) * (2 * (pic.width // 2) * (pic.height // 2)))
    Path(path).write_bytes(b"".join(chunks))
