"""
Fingerprint matching by peak-to-correlation-energy.

The cross-correlation plane over all cyclic shifts comes from one
real-FFT product; PCE is the signed squared peak against the mean squared
correlation outside an exclusion neighborhood around the peak. The ratio
is invariant to scaling either input, so fingerprints never need to be
re-normalized for matching.

The plane is never held whole. The product spectrum is inverse-transformed
along columns in place, then along rows one chunk of CHUNK_ROWS rows at a
time; the peak and the per-row energies are read chunk by chunk, and the
few rows of the exclusion window are transformed again once the peak is
known. Every buffer lives in a per-thread `_Workspace` that serves all the
pairs the thread computes. The workspace also holds the test plane being
matched, whose spectrum it computes on the test's first correlation, so a
test is transformed once however many references it meets. A reference
is held as a `ReferenceSpectrum`: its complex128 spectrum alone, computed
once, so it is transformed once however many tests meet it.

Planes are matched at the float32 or float64 they are given in; a print
read from a file is float32. Every transform runs on float64, so a float32
plane is first widened into the workspace's product buffer, which is free
while a plane is transformed, and every PCE equals that of the float64
widening of the same planes.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
# one module-level FFT name, so that counters can wrap every transform
from numpy import fft as sfft

from .errors import (BlockPrnuError, ConfigError, DegenerateFingerprint,
                     DimensionMismatch)
from .prnu import Fingerprint, resolve_workers

DEFAULT_THRESHOLD = 60.0
CHUNK_ROWS = 64
# plane dtypes matched as given; any other is widened to float64
_KEPT = (np.dtype(np.float32), np.dtype(np.float64))


@dataclass(frozen=True)
class PceConfig:
    exclusion_half_width: int = 5      # 11x11 neighborhood around the peak
    search_window: str = "full"        # "full": all cyclic shifts; "zero": (0,0) only

    def __post_init__(self):
        if self.exclusion_half_width < 0:
            raise ConfigError(f"exclusion half width must be non-negative, "
                              f"got {self.exclusion_half_width}")
        if self.search_window not in ("full", "zero"):
            raise ConfigError(f"unknown search window {self.search_window!r}")


@dataclass(frozen=True)
class MatchReport:
    pce: float
    peak_offset: tuple[int, int]       # (dx, dy), cyclic shift of reference vs test
    correlation_peak: float
    decision: bool
    threshold: float = DEFAULT_THRESHOLD


def check_threshold(threshold: float) -> None:
    """Refuse a NaN threshold, which no PCE exceeds; +-inf stay legal."""
    if np.isnan(threshold):
        raise ConfigError(f"PCE threshold must be a number, got {threshold}")


def _values(fp) -> np.ndarray:
    """The plane as the float32 or float64 it is given in; any other dtype
    is widened to float64."""
    a = np.asarray(fp.k_values if isinstance(fp, Fingerprint) else fp)
    return a if a.dtype in _KEPT else a.astype(np.float64)


def _check_plane(a: np.ndarray) -> None:
    if a.ndim != 2 or min(a.shape) == 0:
        raise DimensionMismatch(f"need non-empty 2-D fingerprints, got {a.shape}")
    if not np.isfinite(a).all():
        raise DegenerateFingerprint("fingerprint holds non-finite values")
    if not np.any(a):
        raise DegenerateFingerprint("zero-energy fingerprint")


class _Plane:
    """A fingerprint plane, validated once. A failed validation is kept
    and raised anew by `check`, which `pce` calls where a standalone call
    validates, so every cell keeps the error precedence of one."""

    def __init__(self, plane):
        self.values = _values(plane)
        self.shape = self.values.shape
        try:
            _check_plane(self.values)
            self._error = None
        except BlockPrnuError as exc:
            self._error = exc

    def check(self) -> None:
        if self._error is not None:
            raise type(self._error)(*self._error.args)


class ReferenceSpectrum(_Plane):
    """A reference plane held as its complex128 real spectrum alone. The
    spectrum is computed by the first `transform`, on a correlation or
    before `batch_match` starts its rows, and the values are dropped then.
    Drivers that match many fingerprints against one camera pass one to
    `pce` in place of the array, so the reference is transformed once."""
    spectrum = None

    def transform(self, ws: _Workspace) -> np.ndarray | None:
        """The spectrum, computed in `ws` on the first call; an invalid
        plane is never transformed and has none."""
        if self.spectrum is None and self._error is None:
            h, w = self.shape
            spectrum = np.empty((h, w // 2 + 1), dtype=np.complex128)
            ws.rfft2(self, spectrum)
            self.spectrum, self.values = spectrum, None
        return self.spectrum


class _Workspace:
    """One thread's buffers for correlating planes of one shape, and the
    test plane they serve: the conjugated test spectrum, one product
    spectrum, a chunk of correlation rows and the per-row energies. They
    are reallocated only when the shape changes, so no pair allocates
    anything the size of a plane."""

    def __init__(self):
        self.shape = None

    def _fit(self, shape: tuple[int, int]) -> None:
        if shape != self.shape:
            h, w = self.shape = shape
            self.conj = np.empty((h, w // 2 + 1), dtype=np.complex128)
            self.product = np.empty_like(self.conj)
            self.chunk = np.empty((min(h, CHUNK_ROWS), w))
            self.row_energy = np.empty(h)

    def rfft2(self, plane: _Plane, out: np.ndarray) -> None:
        """Write the real spectrum of `plane` into `out`. A float32 plane
        is widened into the product buffer first: transformed directly,
        numpy would widen it into a new plane of its own. The product
        spectrum viewed as float64 is at least w + 1 values wide."""
        self._fit(plane.shape)
        values = plane.values
        if values.dtype != np.float64:
            wide = self.product.view(np.float64)[:, :plane.shape[1]]
            np.copyto(wide, values)
            values = wide
        sfft.rfft2(values, out=out)

    def hold(self, test: _Plane) -> _Workspace:
        """Point the workspace at `test`, whose spectrum is computed on
        its first correlation; returns the workspace."""
        self.test = test
        self._transformed = False
        return self

    def correlate(self, reference: ReferenceSpectrum) -> None:
        """Leave the product spectrum of the held test with `reference`,
        inverse-transformed along columns, ready for `chunks` and `band`."""
        if not self._transformed:
            self._fit(self.test.shape)
            self.rfft2(self.test, self.conj)
            np.conjugate(self.conj, out=self.conj)
            self._transformed = True
        np.multiply(reference.transform(self), self.conj, out=self.product)
        sfft.ifft(self.product, axis=0, out=self.product)

    def chunks(self):
        """Yield (first row, rows) of the correlation plane, top to bottom.
        Every chunk overwrites the one before."""
        h, w = self.shape
        step = len(self.chunk)
        for r0 in range(0, h, step):
            rows = self.chunk[:min(step, h - r0)]
            # n= restores an odd width that the half spectrum cannot encode
            sfft.irfft(self.product[r0:r0 + len(rows)], n=w, axis=1, out=rows)
            yield r0, rows

    def band(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """c[rows][:, cols], transforming only the given rows again."""
        out = np.empty((rows.size, cols.size))
        step = len(self.chunk)
        for i in range(0, rows.size, step):
            part = rows[i:i + step]
            block = self.chunk[:part.size]
            sfft.irfft(self.product[part], n=self.shape[1], axis=1, out=block)
            out[i:i + part.size] = block[:, cols]
        return out


def _window(center: int, half: int, n: int) -> np.ndarray:
    """Indices within cyclic distance `half` of `center` on an axis of n."""
    if 2 * half + 1 >= n:
        return np.arange(n)
    return (center + np.arange(-half, half + 1)) % n


def _off_peak_energy(ws: _Workspace, py: int, px: int, half: int) -> float:
    """Mean of c^2 outside the cyclic (2*half+1)^2 window around the peak.

    Whole rows outside the window come from the per-row sums of squares;
    the window's rows, transformed again, contribute only their columns
    outside it. Only squares outside the window are ever added, so a
    dominant peak cannot cancel the off-peak energy away.
    """
    h, w = ws.shape
    rows, cols = _window(py, half, h), _window(px, half, w)
    keep_rows = np.ones(h, dtype=bool)
    keep_rows[rows] = False
    keep_cols = np.ones(w, dtype=bool)
    keep_cols[cols] = False
    band = ws.band(rows, np.flatnonzero(keep_cols))
    total = (ws.row_energy[keep_rows].sum()
             + np.einsum("ij,ij->", band, band))
    return float(total / (h * w - rows.size * cols.size))


def pce(test, reference, config: PceConfig = PceConfig(),
        threshold: float = DEFAULT_THRESHOLD) -> MatchReport:
    """Match two equally sized fingerprints.

    Full-plane search takes the cell of largest correlation magnitude and
    keeps its sign, so anti-correlated artifacts surface as strongly
    negative PCE instead of masquerading as matches.
    """
    check_threshold(threshold)
    ws = (test if isinstance(test, _Workspace)
          else _Workspace().hold(_Plane(test)))
    t = ws.test
    r = (reference if isinstance(reference, ReferenceSpectrum)
         else ReferenceSpectrum(reference))
    if t.shape != r.shape:
        raise DimensionMismatch(f"{t.shape} vs {r.shape}")
    t.check()
    r.check()
    half = config.exclusion_half_width
    h, w = r.shape
    if (2 * half + 1) ** 2 >= h * w:
        raise DimensionMismatch("exclusion neighborhood covers the whole plane")
    ws.correlate(r)
    full = config.search_window == "full"
    peak, flat = 0.0, 0     # an all-zero plane keeps these, and is flat
    for r0, rows in ws.chunks():
        np.einsum("ij,ij->i", rows, rows, out=ws.row_energy[r0:r0 + len(rows)])
        if full:
            # the chunk's first cell of largest |c| is its first maximum or
            # its first minimum; a later chunk wins only with a larger |c|,
            # so the plane's first cell of largest |c| is kept
            i = min(int(rows.argmax()), int(rows.argmin()),
                    key=lambda k: (-abs(rows.flat[k]), k))
            if abs(rows.flat[i]) > abs(peak):
                peak, flat = float(rows.flat[i]), r0 * w + i
        elif r0 == 0:
            peak = float(rows[0, 0])
    py, px = divmod(flat, w)
    energy = _off_peak_energy(ws, py, px, half)
    if energy == 0.0:
        raise DegenerateFingerprint("flat correlation plane")
    value = float(np.sign(peak) * peak * peak / energy)
    return MatchReport(pce=value, peak_offset=(int(px), int(py)),
                       correlation_peak=peak, decision=value > threshold,
                       threshold=threshold)


def batch_match(tests: Iterable, references: Iterable,
                config: PceConfig = PceConfig(),
                threshold: float = DEFAULT_THRESHOLD) -> list[list]:
    """All-pairs matching; a failing pair stores its error in the matrix
    instead of aborting the rest.

    Each plane is validated once for the call. Each reference is
    transformed once, before the first row, and held as its complex128
    spectrum until the call returns: 16*h*(w//2+1) bytes, 7.4 MB at 720p.
    Each test is transformed once for its whole row. So T tests against R
    references take T + R validations and T + R forward FFTs. With n
    workers (`resolve_workers()`, so at most the usable CPUs, and at most
    the rows) thread k transforms references k, k+n, ... and then takes
    rows k, k+n, ..., both with a workspace of its own, which holds each
    of its tests in turn and is passed to `pce`; numpy's FFTs and
    reductions release the GIL. The matrix is the same at any worker count, and no
    thread outlives the call.
    """
    check_threshold(threshold)
    n = resolve_workers()
    tests = list(tests)
    references = [r if isinstance(r, ReferenceSpectrum)
                  else ReferenceSpectrum(r) for r in references]
    if not tests:
        return []
    n = min(n, len(tests))
    workspaces = [_Workspace() for _ in range(n)]

    def transform(k: int) -> None:
        for r in references[k::n]:
            r.transform(workspaces[k])

    def rows(k: int) -> list[list]:
        ws = workspaces[k]
        out = []
        for t in tests[k::n]:
            ws.hold(_Plane(t))
            row = []
            for r in references:
                try:
                    row.append(pce(ws, r, config, threshold))
                except BlockPrnuError as exc:
                    row.append(exc)
            out.append(row)
        return out

    if n == 1:
        transform(0)
        return rows(0)
    matrix: list[list] = [[] for _ in tests]
    with ThreadPoolExecutor(max_workers=n) as pool:
        list(pool.map(transform, range(n)))
        for k, part in enumerate(pool.map(rows, range(n))):
            matrix[k::n] = part
    return matrix


def format_report_records(matrix: list[list], test_ids: Sequence[str],
                          reference_ids: Sequence[str]) -> list[str]:
    """One text record per pair: test_id,reference_id,pce,dx,dy,decision.

    decision is 1/0; error cells carry error:<Type> in the decision column
    with nan PCE so downstream tooling can filter them.
    """
    lines = []
    for ti, row in zip(test_ids, matrix):
        for ri, cell in zip(reference_ids, row):
            if isinstance(cell, MatchReport):
                dx, dy = cell.peak_offset
                lines.append(f"{ti},{ri},{cell.pce!r},{dx},{dy},"
                             f"{1 if cell.decision else 0}")
            else:
                lines.append(f"{ti},{ri},nan,0,0,error:{type(cell).__name__}")
    return lines
