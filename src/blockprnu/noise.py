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
plane of it, or a (k, H, W) run of planes, and returns the residuals as
float64 of the same shape; every kernel works on the last two axes, so a
plane's residual is bit for bit the same alone or in a run.

Each wavelet stage (analysis, Wiener filter, synthesis) works a strip of
rows at a time, written straight into its level or into the residual,
and hands its strips to a `spread` function, which computes them on
several threads, when it is given one; the strips follow from the
level's shape alone, so the bytes do not depend on the threads. At 720p
one extraction peaks at 2.2 planes of float64 (16.0 MB of tracemalloc)
on one thread and about 2.4 planes (17.5-18.1 MB) on two: the pyramid,
the residual and a few strips. No buffer is kept from one call to the
next.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable

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
TILE_COEFFS = 1 << 16             # coefficients per strip of rows
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
# periodized orthogonal DWT, a strip of rows at a time
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


def _strips(h: int, row_coeffs: int) -> list[slice]:
    """Row slices covering h rows of `row_coeffs` coefficients each, about
    TILE_COEFFS coefficients per slice: whole groups of 4 rows, the last
    slice taking the rows left over, so none is shorter than 4 rows unless
    all h are.

    The wavelet transforms size strips by one plane's level row (4w), so
    they follow from the plane's shape alone, not from the worker count or
    the frames in a run: BLAS may round an output by the length of its pass
    (OpenBLAS rounds the last n % 4 outputs of n, and a pass of one, its
    own way), and the same strips give a plane the same bytes. The Wiener
    filter's output does not depend on its strips, which it sizes by all
    the planes and bands of a row."""
    step = 4 * max(1, TILE_COEFFS // (4 * max(row_coeffs, 1)))
    starts = range(0, max(h - 4, 1), step)
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], h])]


def _each(spread, fn, items: list) -> list:
    """[fn(item) for item in items], by `spread` if it is given and there
    is more than one item."""
    if spread is None or len(items) < 2:
        return [fn(item) for item in items]
    return spread(fn, items)


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


def _dwt_rows(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Analysis down axis -2 of rows already wrapped by the filter length
    less one: band[j] = sum_m F[m] * rows[2j + m], for the lo and the hi
    filter, stacked on a new leading axis, as (2, ..., j, 1, m) in `out`
    (new when None). Only the kept even outputs are computed, each as one
    8-tap window times both filters; returns (2, ..., j, m)."""
    windows = _windows(rows, _TAPS, step=2)
    analysis = _ANALYSIS.reshape((2,) + (1,) * (windows.ndim - 2) + (1, _TAPS))
    return np.matmul(analysis, windows, out=out)[..., 0, :]


def _analyze(plane: np.ndarray, level: np.ndarray, rows: slice) -> None:
    """Rows `rows` of the four bands of `level`, (4, ..., h, w), from the
    (..., 2h, 2w) plane they split: rows, then columns. The columns are
    filtered as the rows of the strip transposed, and the bands written
    back into the level in its own C order."""
    n, m = plane.shape[-2:]
    strip = plane.take(_cyclic(n, 2 * rows.start, 2 * rows.stop + _TAPS - 2),
                       axis=-2)
    lohi = _dwt_rows(strip.astype(np.float64, copy=False)).swapaxes(-1, -2)
    del strip
    cols = np.empty(lohi.shape[:-2] + (m + _TAPS - 1, lohi.shape[-1]))
    cols[..., :m, :] = lohi
    cols[..., m:, :] = lohi[..., _cyclic(m, 0, _TAPS - 1), :]
    del lohi
    # indexed [column band][row band]: [[LL, LH], [HL, HH]]; BLAS writes
    # each column of the strip into the level's rows with a stride
    _dwt_rows(cols, out=level.reshape((2, 2) + level.shape[1:])[..., rows, :]
              .swapaxes(-1, -2)[..., None, :])


def _synthesis(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Periodized synthesis along axis 1 of (k, n, lo/hi band, ...) rows
    that start 3 rows early, into (k, n - 3, output phase, m), which
    reshapes to 2(n - 3) rows for free.

    The exact adjoint of the analysis, so orthogonality makes it the
    inverse. In polyphase form out[2p + r] = sum_q F[2q + r] * band[p - q]
    over both bands, so rows p-3 .. p of the bands, interleaved, times one
    (phase, 8) matrix give both outputs of pair p.
    """
    k, n = rows.shape[:2]
    rows = np.ascontiguousarray(rows)
    windows = _windows(rows.reshape(k, 2 * n, -1), _TAPS, step=2)
    return np.matmul(_SYNTHESIS, windows, out=out)


def _synthesize(level: np.ndarray, out: np.ndarray, rows: slice) -> None:
    """Rows 2 * rows.start .. 2 * rows.stop of the (..., 2h, 2w) `out`
    from rows `rows` of the four bands of `level`, (4, ..., h, w), and the
    3 rows before them: columns, then rows, the inverse of the analysis."""
    h, w = level.shape[-2:]
    k = level[0].size // (h * w)          # planes in the stack
    bands, wrap = level.reshape(2, 2, k, h, w), _HALF_LEN - 1

    def columns(index):
        """Band rows `index` synthesized along their columns, indexed
        [plane][row][row band][column]."""
        # the bands transposed to [plane][column][col band][row band][row],
        # their last 3 columns wrapped before the first
        cols = bands[:, :, :, index].transpose(2, 4, 0, 1, 3)
        wrapped = np.empty((k, wrap + w) + cols.shape[2:])
        wrapped[:, :wrap] = cols[:, _cyclic(w, -wrap, 0)]
        wrapped[:, wrap:] = cols
        cols = _synthesis(wrapped).reshape(k, 2 * w, 2, -1)
        return cols.transpose(0, 3, 2, 1)

    strip = columns(rows)
    # the strip's rows after the 3 rows, wrapped, that its first ones read
    lines = np.empty((k, wrap + strip.shape[1], 2, 2 * w))
    lines[:, :wrap] = columns(_cyclic(h, rows.start - wrap, rows.start))
    lines[:, wrap:] = strip
    del strip
    _synthesis(lines, out=out.reshape(k, 2 * h, 2 * w)
               [:, 2 * rows.start:2 * rows.stop].reshape(k, -1, 2, 2 * w))


def wavedec2(x: np.ndarray, levels: int,
             spread: Callable | None = None) -> list[np.ndarray]:
    """Multi-level 2-D DWT over the last two axes of a plane or a stack of
    planes. Stops early if an extent goes odd.

    Returns the levels coarse to fine, each one contiguous (4, ..., h, w)
    array that unpacks as (LL, LH, HL, HH), with the stack's leading axes
    after the band. A level's LL is what the next coarser level splits;
    the coarsest LL is the approximation. Each level is written a strip of
    rows at a time (`_strips`), by `spread` if given.
    """
    out: list[np.ndarray] = []
    cur = np.asarray(x)
    for _ in range(levels):
        *lead, h, w = cur.shape
        if h % 2 or w % 2 or min(h, w) < 2:
            break
        level = np.empty((4, *lead, h // 2, w // 2))
        _each(spread, partial(_analyze, cur, level), _strips(h // 2, 2 * w))
        out.append(level)
        cur = level[0]
    out.reverse()
    return out


def waverec2(levels: list[np.ndarray],
             spread: Callable | None = None) -> np.ndarray:
    """Inverse of wavedec2, given at least one level. Each level is
    synthesized into the LL of the next finer one, which is overwritten,
    and taken out of the list, which ends empty: no coarser level is held
    while the finest is synthesized into a new plane or stack. A level is
    read a strip of rows at a time (`_strips`), by `spread` if given."""
    while levels:
        level = levels.pop(0)
        *lead, h, w = level.shape[1:]
        out = levels[0][0] if levels else np.empty((*lead, 2 * h, 2 * w))
        _each(spread, partial(_synthesize, level, out), _strips(h, 4 * w))
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


def _wiener_strip(coeffs: np.ndarray, noise_var: float, out: np.ndarray,
                  rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """Filter rows `rows` of `coeffs` into `out`, except the p rows next to
    each neighbouring strip, which its window reads: those come back
    filtered, as (head, tail), for the caller to write once every strip
    has read its window. Strips are at least p rows long, so the rows one
    strip reads of another are all among those held back."""
    p, h = WIENER_WINDOWS[-1] // 2, coeffs.shape[-2]
    sq = _reflected(coeffs, p, rows.start, rows.stop)
    local = None
    for r, box in _box_sums(np.square(sq, out=sq), p):
        mean = box / (2 * r + 1) ** 2
        local = mean if local is None else np.minimum(local, mean, out=local)
    local -= noise_var
    signal_var = np.maximum(local, 0.0, out=local)
    tile = coeffs[..., rows, :] * signal_var / (signal_var + noise_var)
    n = rows.stop - rows.start
    head, tail = (p if rows.start else 0), (p if rows.stop < h else 0)
    inner = slice(rows.start + head, rows.stop - tail)
    out[..., inner, :] = tile[..., head:n - tail, :]
    return tile[..., :head, :].copy(), tile[..., n - tail:, :].copy()


def wiener_adaptive(coeffs: np.ndarray, noise_var: float,
                    out: np.ndarray | None = None,
                    spread: Callable | None = None) -> np.ndarray:
    """Minimum-variance adaptive Wiener attenuation of one subband, or of
    a stack of subbands along leading axes: the local energy is estimated
    over each square window of WIENER_WINDOWS, and the smallest estimate
    wins per coefficient.

    It runs a strip of rows at a time (`_strips`), by `spread` if given.
    The rows a strip shares with its neighbours' windows are written after
    every strip has run, so the float64 `out` (new when None) may be
    `coeffs` itself.

    :param coeffs: detail coefficients, assumed zero-mean
    :param noise_var: variance attributed to sensor noise
    """
    out = np.empty(coeffs.shape) if out is None else out
    h = coeffs.shape[-2]
    strips = _strips(h, coeffs.size // max(h, 1))
    shared = _each(spread, partial(_wiener_strip, coeffs, noise_var, out),
                   strips)
    for rows, (head, tail) in zip(strips, shared):
        out[..., rows.start:rows.start + head.shape[-2], :] = head
        out[..., rows.stop - tail.shape[-2]:rows.stop, :] = tail
    return out


def _wavelet_noise(x: np.ndarray, config: DenoiseConfig,
                   spread: Callable | None) -> np.ndarray | None:
    """Noise estimate: reconstruct from Wiener-filtered details only.

    Returns None when the picture is too small for even one level.
    """
    levels = wavedec2(x, WAVELET_LEVELS, spread)
    if not levels:
        return None
    levels[0][0] = 0.0
    for level in levels:
        wiener_adaptive(level[1:], config.noise_var, out=level[1:],
                        spread=spread)
    return waverec2(levels, spread)


def wiener_spatial(x: np.ndarray, noise_var: float) -> np.ndarray:
    """Pixel-domain 3x3 adaptive Wiener filter with reflect padding."""
    [(_, box)] = _box_sums(_reflected(np.stack((x, x * x)), 1), 1)
    local_mean, local_sq = box / 9
    local_var = np.maximum(local_sq - local_mean * local_mean, 0.0)
    signal_var = np.maximum(local_var - noise_var, 0.0)
    return local_mean + (x - local_mean) * signal_var / (signal_var + noise_var)


def zero_mean_rows_cols(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Remove per-row then per-column means of each plane (both end up
    exactly zero); `out` may be `w` itself."""
    out = np.subtract(w, w.mean(axis=-1, keepdims=True), out=out)
    return np.subtract(out, out.mean(axis=-2, keepdims=True), out=out)


def extract_residual(luma: np.ndarray,
                     config: DenoiseConfig = DenoiseConfig(),
                     spread: Callable | None = None) -> np.ndarray:
    """Noise residual of one (H, W) luma plane, or of each plane of a
    (k, H, W) stack: luma minus its denoised version, as float64. A plane
    of a stack gets exactly the residual it gets alone, and the same with
    or without `spread`.

    :param spread: None, or a function that returns ``[fn(item) for item
        in items]`` for ``spread(fn, items)`` and computes the items on
        several threads, in any order; the wavelet kernels pass it the
        strips of rows of each stage

    A constant plane has no usable noise; its residual is all zeros.
    """
    if luma.size == 0:
        return np.zeros(luma.shape)
    planes = luma.reshape(luma.shape[:-2] + (-1,))
    constant = planes.max(axis=-1) == planes.min(axis=-1)
    if constant.all():
        return np.zeros(luma.shape)
    noise = (_wavelet_noise(luma, config, spread)
             if config.method == "wavelet" else None)
    if noise is None:
        noise = luma - wiener_spatial(luma.astype(np.float64), config.noise_var)
    noise = zero_mean_rows_cols(noise, out=noise)
    if constant.any():
        noise[constant] = 0.0
    return noise


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
