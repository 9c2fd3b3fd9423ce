"""
Noise-residual extraction: the sensor pattern lives in what the denoiser
removes.

The primary denoiser is a multi-level orthogonal wavelet decomposition
(db4, periodized) with per-subband adaptive Wiener filtering of the detail
coefficients; the approximation band is treated as scene content. A plain
3x3 spatial Wiener filter is available as a fallback. Residuals are
zero-meaned per row and per column to kill line artifacts.

A video is one (frames, H, W) uint8 luma stack, as `read_yuv420` returns
it; `extract_residual` takes one (H, W) plane of it and returns that
frame's residual as a float64 (H, W) array.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError, SchemaError

# db4 analysis lowpass; highpass and synthesis follow from orthogonality
_DEC_LO = np.array([
    -0.010597401784997278, 0.032883011666982945, 0.030841381835986965,
    -0.18703481171888114, -0.02798376941698385, 0.6308807679295904,
    0.7148465705525415, 0.23037781330885523,
])
_DEC_HI = _DEC_LO[::-1] * np.where(np.arange(_DEC_LO.size) % 2 == 0, -1.0, 1.0)
_TAPS = _DEC_LO.size
_HALF_LEN = _TAPS // 2
# analysis: rows give the lo and hi outputs of one 8-tap window
_ANALYSIS = np.stack([_DEC_LO, _DEC_HI])
# synthesis, indexed [band, output phase, tap] over one 4-tap window
_SYNTHESIS = np.array([[f[r::2][::-1] for r in (0, 1)]
                       for f in (_DEC_LO, _DEC_HI)])

WIENER_WINDOWS = (3, 5, 7, 9)
SATURATION_HIGH = 250
SATURATION_LOW = 5


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

@lru_cache(maxsize=256)
def _cyclic(n: int, start: int, stop: int) -> np.ndarray:
    """Indices start..stop-1 wrapped onto an axis of n samples."""
    index = np.arange(start, stop) % n
    index.flags.writeable = False
    return index


@lru_cache(maxsize=256)
def _mirror(n: int, pad: int) -> np.ndarray:
    """Indices of an axis of n samples extended by `pad` on both sides by
    half-sample symmetric reflection (d c b a | a b c d | d c b a), which
    repeats with period 2n however far it reaches: np.pad's "symmetric"
    mode as one cached `take`, without np.pad's per-call overhead."""
    index = np.arange(-pad, n + pad) % (2 * n)
    index = np.where(index < n, index, 2 * n - 1 - index)
    index.flags.writeable = False
    return index


def _windows(a: np.ndarray, length: int, step: int = 1) -> np.ndarray:
    """Read-only view of the `length`-sample windows of a C-contiguous
    array along axis -2, one every `step` samples, with shape
    (..., windows, length, m): a (k, length) filter matrix times the view
    filters every window at once. This is sliding_window_view's view
    without its per-call cost, which dominates on small planes."""
    *lead, n, m = a.shape
    *lead_strides, row, col = a.strides
    view = np.ndarray((*lead, (n - length) // step + 1, length, m), a.dtype,
                      a, 0, (*lead_strides, step * row, row, col))
    view.flags.writeable = False
    return view


def _dwt_axis(x: np.ndarray, axis: int) -> np.ndarray:
    """Periodized analysis along `axis`; returns the lo and hi bands
    stacked on a new leading axis.

    band[k] = sum_m F[m] * x[(2k + m) % n]: the axis is wrapped by one
    filter length less one, and only the kept even outputs are computed,
    each as one 8-tap window times the lo and the hi filter.
    """
    axis %= x.ndim
    rows = x.swapaxes(axis, -2)
    n = rows.shape[-2]
    windows = _windows(rows.take(_cyclic(n, 0, n + _TAPS - 1), axis=-2),
                       _TAPS, step=2)
    analysis = _ANALYSIS.reshape((2,) + (1,) * (windows.ndim - 2) + (1, _TAPS))
    return (analysis @ windows)[..., 0, :].swapaxes(axis + 1, -2)


def _idwt_axis(lo: np.ndarray, hi: np.ndarray, axis: int) -> np.ndarray:
    # exact adjoint of _dwt_axis, so orthogonality makes it the inverse; in
    # polyphase form on the half-length bands, output phase r is
    #   out[2p + r] = sum_q F[2q + r] * band[(p - q) % (n/2)]
    # so one 4-tap window of each band, band[p-3 .. p], times that band's
    # (phase, tap) matrix gives both outputs of pair p
    axis %= lo.ndim
    rows = np.stack((lo, hi)).swapaxes(axis + 1, -2)
    h = rows.shape[-2]
    windows = _windows(rows.take(_cyclic(h, 1 - _HALF_LEN, h), axis=-2),
                       _HALF_LEN)
    synthesis = _SYNTHESIS.reshape((2,) + (1,) * (windows.ndim - 3)
                                   + (2, _HALF_LEN))
    lo_part, hi_part = synthesis @ windows
    out = lo_part + hi_part
    out = out.reshape(out.shape[:-3] + (2 * h, out.shape[-1]))
    return out.swapaxes(axis, -2)


def wavedec2(x: np.ndarray, levels: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Multi-level 2-D DWT. Stops early if an extent goes odd.

    Returns (approximation, details) with details ordered coarse to fine,
    each entry a (3, h, w) stack that unpacks as (LH, HL, HH).
    """
    details: list[np.ndarray] = []
    cur = np.asarray(x, dtype=np.float64)
    for _ in range(levels):
        if cur.shape[0] % 2 or cur.shape[1] % 2 or min(cur.shape) < 2:
            break
        # rows, then columns: indexed [column band][row band], the stack
        # is [[LL, LH], [HL, HH]]
        bands = _dwt_axis(_dwt_axis(cur, 0), -1)
        bands = bands.reshape((4,) + bands.shape[2:])
        cur = bands[0]
        details.append(bands[1:])
    details.reverse()
    return cur, details


def waverec2(approx: np.ndarray, details: list) -> np.ndarray:
    cur = approx
    for lh, hl, hh in details:
        # columns, then rows: the inverse of wavedec2's order
        cols = _idwt_axis(np.stack((cur, lh)), np.stack((hl, hh)), -1)
        cur = _idwt_axis(cols[0], cols[1], 0)
    return cur


# ---------------------------------------------------------------------------
# denoisers
# ---------------------------------------------------------------------------

def _radii(windows) -> list[int]:
    if any(w < 1 or w % 2 == 0 for w in windows):
        raise ConfigError(f"window sizes must be odd and positive, got {windows}")
    return sorted({w // 2 for w in windows})


def _box_sums(x: np.ndarray, radii: list[int]):
    """Sums of x over square (2r+1)^2 boxes for each ascending radius r,
    reflect-extended over the last two axes. Yields (r, sums); the plane
    is updated in place for the next radius, so read it before advancing.

    The boxes grow from one padded plane: the box of radius r is the box
    of radius r-1 plus its new edge rows (row sums over 2r+1 columns) and
    its new edge columns (column sums over 2r-1 rows). Only terms of x are
    ever added, so for non-negative x no sum cancels.
    """
    h, w = x.shape[-2:]
    p = radii[-1]
    padded = x.take(_mirror(h, p), axis=-2).take(_mirror(w, p), axis=-1)
    row_sums = padded[..., p:p + w].copy()
    col_sums = padded[..., p:p + h, :].copy()
    box = padded[..., p:p + h, p:p + w].copy()
    if radii[0] == 0:
        yield 0, box
    for r in range(1, p + 1):
        row_sums += padded[..., p - r:p - r + w]
        row_sums += padded[..., p + r:p + r + w]
        box += row_sums[..., p - r:p - r + h, :]
        box += row_sums[..., p + r:p + r + h, :]
        box += col_sums[..., p - r:p - r + w]
        box += col_sums[..., p + r:p + r + w]
        if r < p:
            col_sums += padded[..., p - r:p - r + h, :]
            col_sums += padded[..., p + r:p + r + h, :]
        if r in radii:
            yield r, box


def wiener_adaptive(coeffs: np.ndarray, noise_var: float,
                    windows: tuple[int, ...] = WIENER_WINDOWS) -> np.ndarray:
    """Minimum-variance adaptive Wiener attenuation of one subband, or of
    a stack of subbands along leading axes.

    :param coeffs: detail coefficients, assumed zero-mean
    :param noise_var: variance attributed to sensor noise
    :param windows: odd square window sizes over which local energy is
        estimated; the smallest estimate wins per coefficient
    """
    local = None
    for r, box in _box_sums(coeffs * coeffs, _radii(windows)):
        mean = box / (2 * r + 1) ** 2
        local = mean if local is None else np.minimum(local, mean, out=local)
    local -= noise_var
    signal_var = np.maximum(local, 0.0, out=local)
    return coeffs * signal_var / (signal_var + noise_var)


def _wavelet_noise(x: np.ndarray, config: DenoiseConfig) -> np.ndarray | None:
    """Noise estimate: reconstruct from Wiener-filtered details only.

    Returns None when the picture is too small for even one level.
    """
    approx, details = wavedec2(x, config.levels)
    if not details:
        return None
    filtered = [wiener_adaptive(lvl, config.noise_var) for lvl in details]
    return waverec2(np.zeros_like(approx), filtered)


def wiener_spatial(x: np.ndarray, noise_var: float, size: int = 3) -> np.ndarray:
    """Pixel-domain adaptive Wiener filter with reflect padding."""
    [(r, box)] = _box_sums(np.stack((x, x * x)), _radii((size,)))
    local_mean, local_sq = box / (2 * r + 1) ** 2
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


def extract_residual(luma: np.ndarray,
                     config: DenoiseConfig = DenoiseConfig()) -> np.ndarray:
    """Noise residual of one (H, W) luma plane: luma minus its denoised
    version, as float64.

    A constant plane has no usable noise; its residual is all zeros.
    """
    x = luma.astype(np.float64)
    if x.size == 0 or x.max() == x.min():
        return np.zeros_like(x)
    return zero_mean_rows_cols(x - denoise(x, config))


def saturation_mask(luma: np.ndarray) -> np.ndarray:
    """1.0 where the sample is trustworthy, 0.0 at clipped/near-clipped values."""
    ok = (luma > SATURATION_LOW) & (luma < SATURATION_HIGH)
    return ok.astype(np.float64)


# ---------------------------------------------------------------------------
# raw planar 4:2:0 I/O (luma is all the pipeline consumes)
# ---------------------------------------------------------------------------

def _chroma_bytes(width: int, height: int) -> int:
    """Both 4:2:0 chroma planes: each is ceil(w/2) x ceil(h/2)."""
    return 2 * ((width + 1) // 2) * ((height + 1) // 2)


def read_yuv420(path: str | Path, width: int, height: int) -> np.ndarray:
    """The luma planes of a raw 4:2:0 file as one (frames, height, width)
    uint8 stack."""
    data = Path(path).read_bytes()
    frame_bytes = width * height + _chroma_bytes(width, height)
    if frame_bytes == 0 or len(data) % frame_bytes:
        raise SchemaError(f"{path}: size {len(data)} is not a whole number of "
                          f"{width}x{height} 4:2:0 frames")
    frames = np.frombuffer(data, dtype=np.uint8).reshape(-1, frame_bytes)
    # a copy, so the chroma bytes are not kept alive behind the luma
    return frames[:, :width * height].reshape(-1, height, width).copy()


def write_yuv420(luma: np.ndarray, path: str | Path) -> None:
    """Write a (frames, height, width) uint8 luma stack as raw 4:2:0 with
    flat (128) chroma."""
    if luma.dtype != np.uint8:
        raise ConfigError(f"luma must be uint8, got {luma.dtype}")
    count, height, width = luma.shape
    frames = np.full((count, height * width + _chroma_bytes(width, height)),
                     128, dtype=np.uint8)
    frames[:, :height * width] = luma.reshape(count, height * width)
    Path(path).write_bytes(frames.tobytes())
