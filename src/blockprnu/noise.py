"""
Noise-residual extraction: the sensor pattern lives in what the denoiser
removes.

The primary denoiser is a multi-level orthogonal wavelet decomposition
(db4, periodized) with per-subband adaptive Wiener filtering of the detail
coefficients over fixed windows; the approximation band is scene content.
A fixed 3x3 spatial Wiener filter is the fallback. Residuals are
zero-meaned per row and per column to kill line artifacts.

A video is one (frames, H, W) uint8 luma stack. `read_yuv420` returns a
`YuvLuma`, a stack that reads a raw file's planes only when it is
indexed, sliced or iterated, so a video is never held whole in memory
unless asked for with ``stack[:]``. `extract_residual` takes one (H, W)
plane of it and returns that frame's residual as a float64 (H, W) array.
At 720p it peaks at 32 MB (4.4 planes); the Wiener filter works in place,
a tile of rows at a time, and no buffer is kept from one frame to the next.
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
# synthesis, indexed [output phase, 2 * tap + band] over 4 lo and 4 hi taps
_SYNTHESIS = np.array([[f[r::2][::-1] for f in (_DEC_LO, _DEC_HI)]
                       for r in (0, 1)]).swapaxes(1, 2).reshape(2, _TAPS)

WAVELET_LEVELS = 4
WIENER_WINDOWS = (3, 5, 7, 9)     # every odd size up to the largest
TILE_COEFFS = 1 << 16             # coefficients per row tile of wiener_adaptive
SATURATION_HIGH = 250
SATURATION_LOW = 5


@dataclass(frozen=True)
class DenoiseConfig:
    method: str = "wavelet"        # "wavelet" or "spatial"
    noise_var: float = 3.0         # in sample-value units squared

    def __post_init__(self):
        if self.method not in ("wavelet", "spatial"):
            raise ConfigError(f"unknown denoise method {self.method!r}")
        if not 0 < self.noise_var < np.inf:
            raise ConfigError(f"noise variance must be positive and finite: {self.noise_var}")


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


def _idwt_rows(bands: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Periodized synthesis along axis 0 of (h, lo/hi band, ...) into
    (h, output phase, m), which reshapes to 2h rows for free.

    The exact adjoint of _dwt_axis, so orthogonality makes it the inverse.
    In polyphase form out[2p + r] = sum_q F[2q + r] * band[(p - q) % h]
    over both bands, so rows p-3 .. p of the bands, interleaved, times one
    (phase, 8) matrix give both outputs of pair p.
    """
    h, wrap = bands.shape[0], _HALF_LEN - 1
    # rows -3 .. h-1 in one C-ordered array, whatever the strides of bands
    rows = np.empty((h + wrap,) + bands.shape[1:])
    rows[:wrap] = bands[_cyclic(h, -wrap, 0)]
    rows[wrap:] = bands
    windows = _windows(rows.reshape(2 * (h + wrap), -1), _TAPS, step=2)
    return np.matmul(_SYNTHESIS, windows, out=out)


def wavedec2(x: np.ndarray, levels: int) -> list[np.ndarray]:
    """Multi-level 2-D DWT. Stops early if an extent goes odd.

    Returns the levels coarse to fine, each one contiguous (4, h, w) array
    that unpacks as (LL, LH, HL, HH). A level's LL is the plane the next
    coarser level splits; the coarsest LL is the approximation.
    """
    out: list[np.ndarray] = []
    cur = np.asarray(x, dtype=np.float64)
    for _ in range(levels):
        if cur.shape[0] % 2 or cur.shape[1] % 2 or min(cur.shape) < 2:
            break
        # rows, then columns: indexed [column band][row band], the stack
        # is [[LL, LH], [HL, HH]]
        bands = _dwt_axis(_dwt_axis(cur, 0), -1)
        out.append(np.ascontiguousarray(bands.reshape((4,) + bands.shape[2:])))
        cur = out[-1][0]
    out.reverse()
    return out


def waverec2(levels: list[np.ndarray]) -> np.ndarray:
    """Inverse of wavedec2, given at least one level. Each level is
    synthesized into the LL of the next finer one, which is overwritten;
    the finest gives a new plane."""
    for i, level in enumerate(levels):
        _, h, w = level.shape
        out = levels[i + 1][0] if i + 1 < len(levels) else np.empty((2 * h, 2 * w))
        # columns, then rows: the inverse of wavedec2's order; columns are
        # the rows of the bands transposed to [column][col band][row band][row]
        cols = _idwt_rows(level.reshape(2, 2, h, w).transpose(3, 0, 1, 2))
        _idwt_rows(cols.reshape(2 * w, 2, h).transpose(2, 1, 0),
                   out=out.reshape(h, 2, 2 * w))
        del cols
    return out


# ---------------------------------------------------------------------------
# denoisers
# ---------------------------------------------------------------------------

def _reflected(x: np.ndarray, p: int, start: int = 0, stop: int | None = None):
    """Rows start .. stop - 1 of x, both axes extended by p by _mirror."""
    h, w = x.shape[-2:]
    rows = _mirror(h, p)[start:(h if stop is None else stop) + 2 * p]
    return x.take(rows, axis=-2).take(_mirror(w, p), axis=-1)


def _box_sums(padded: np.ndarray, p: int):
    """Sums over square (2r+1)^2 boxes for r = 1, 2, ..., p of the plane
    that `padded` extends by p on each side of its last two axes. Yields
    (r, sums); the plane is updated in place for the next radius, so read
    it before advancing.

    The box of radius r is the box of radius r-1 plus its new edge rows
    (row sums over 2r+1 columns) and its new edge columns (column sums over
    2r-1 rows). Only terms are added: no sum of non-negative terms cancels.
    A sum reads only terms within p, so a padded tile gets the plane's sums.
    """
    h, w = (n - 2 * p for n in padded.shape[-2:])
    row_sums = padded[..., p:p + w].copy()
    col_sums = padded[..., p:p + h, :].copy()
    box = padded[..., p:p + h, p:p + w].copy()
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
        yield r, box


def wiener_adaptive(coeffs: np.ndarray, noise_var: float,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Minimum-variance adaptive Wiener attenuation of one subband, or of
    a stack of subbands along leading axes: the local energy is estimated
    over each square window of WIENER_WINDOWS, and the smallest estimate
    wins per coefficient.

    It runs a tile of rows of about TILE_COEFFS coefficients at a time and
    writes a tile once the next has read its neighbours, so the float64
    `out` (new when None) may be `coeffs` itself.

    :param coeffs: detail coefficients, assumed zero-mean
    :param noise_var: variance attributed to sensor noise
    """
    p, h = WIENER_WINDOWS[-1] // 2, coeffs.shape[-2]
    # p rows or more, so that a tile reads back no further than the last one
    step = max(p, TILE_COEFFS * h // max(coeffs.size, 1))
    out = np.empty(coeffs.shape) if out is None else out
    sq = _reflected(coeffs, p, 0, step)
    for start in range(0, h, step):
        local = None
        for r, box in _box_sums(np.square(sq, out=sq), p):
            mean = box / (2 * r + 1) ** 2
            local = mean if local is None else np.minimum(local, mean, out=local)
        local -= noise_var
        signal_var = np.maximum(local, 0.0, out=local)
        rows = slice(start, start + step)
        tile = coeffs[..., rows, :] * signal_var / (signal_var + noise_var)
        sq = _reflected(coeffs, p, start + step, start + 2 * step)
        out[..., rows, :] = tile
    return out


def _wavelet_noise(x: np.ndarray, config: DenoiseConfig) -> np.ndarray | None:
    """Noise estimate: reconstruct from Wiener-filtered details only.

    Returns None when the picture is too small for even one level.
    """
    levels = wavedec2(x, WAVELET_LEVELS)
    if not levels:
        return None
    levels[0][0] = 0.0
    for level in levels:
        wiener_adaptive(level[1:], config.noise_var, out=level[1:])
    return waverec2(levels)


def wiener_spatial(x: np.ndarray, noise_var: float) -> np.ndarray:
    """Pixel-domain 3x3 adaptive Wiener filter with reflect padding."""
    [(_, box)] = _box_sums(_reflected(np.stack((x, x * x)), 1), 1)
    local_mean, local_sq = box / 9
    local_var = np.maximum(local_sq - local_mean * local_mean, 0.0)
    signal_var = np.maximum(local_var - noise_var, 0.0)
    return local_mean + (x - local_mean) * signal_var / (signal_var + noise_var)


def zero_mean_rows_cols(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Remove per-row then per-column means (both end up exactly zero);
    `out` may be `w` itself."""
    out = np.subtract(w, w.mean(axis=1, keepdims=True), out=out)
    return np.subtract(out, out.mean(axis=0, keepdims=True), out=out)


def extract_residual(luma: np.ndarray,
                     config: DenoiseConfig = DenoiseConfig()) -> np.ndarray:
    """Noise residual of one (H, W) luma plane: luma minus its denoised
    version, as float64.

    A constant plane has no usable noise; its residual is all zeros.
    """
    if luma.size == 0 or luma.max() == luma.min():
        return np.zeros(luma.shape)
    noise = _wavelet_noise(luma, config) if config.method == "wavelet" else None
    if noise is None:
        noise = luma - wiener_spatial(luma.astype(np.float64), config.noise_var)
    return zero_mean_rows_cols(noise, out=noise)


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


class YuvLuma:
    """The luma planes of a raw 4:2:0 file as a (frames, height, width)
    uint8 stack that reads only the planes it is indexed, sliced or
    iterated for: an int gives one (H, W) plane, a slice a (k, H, W)
    array, and ``stack[:]`` or ``np.asarray(stack)`` the whole video. Each
    read opens the file, reads its planes straight into place, skips the
    chroma and closes it; a file that has shrunk since it was sized
    raises SchemaError."""

    dtype = np.dtype(np.uint8)
    ndim = 3

    def __init__(self, path: str | Path, width: int, height: int):
        size = Path(path).stat().st_size
        self._chroma = _chroma_bytes(width, height)
        self._frame_bytes = width * height + self._chroma
        if self._frame_bytes == 0 or size % self._frame_bytes:
            raise SchemaError(f"{path}: size {size} is not a whole number of "
                              f"{width}x{height} 4:2:0 frames")
        self.path = path
        self.shape = (size // self._frame_bytes, height, width)
        self.size = self.shape[0] * height * width

    def __len__(self) -> int:
        return self.shape[0]

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._read(range(*key.indices(len(self))))
        index = range(len(self))[key]
        return self._read(range(index, index + 1))[0]

    def __array__(self, dtype=None, copy=None):
        planes = self[:]
        return planes if dtype is None else planes.astype(dtype, copy=False)

    def _read(self, frames: range) -> np.ndarray:
        luma = np.empty((len(frames),) + self.shape[1:], dtype=np.uint8)
        with open(self.path, "rb") as f:
            for i, plane in zip(frames, luma):
                f.seek(i * self._frame_bytes)
                if f.readinto(plane) != plane.nbytes:
                    raise SchemaError(f"{self.path}: truncated while reading")
        return luma


def read_yuv420(path: str | Path, width: int, height: int) -> YuvLuma:
    """The luma planes of a raw 4:2:0 file as a `YuvLuma` stack, read on
    demand; ``read_yuv420(...)[:]`` reads them all. A size that is not a
    whole number of frames raises SchemaError at once."""
    return YuvLuma(path, width, height)


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
