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
pairs the thread computes.
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


def _values(fp) -> np.ndarray:
    return np.asarray(fp.k_values if isinstance(fp, Fingerprint) else fp,
                      dtype=np.float64)


def _check_plane(a: np.ndarray) -> None:
    if a.ndim != 2 or min(a.shape) == 0:
        raise DimensionMismatch(f"need non-empty 2-D fingerprints, got {a.shape}")
    if not np.isfinite(a).all():
        raise DegenerateFingerprint("fingerprint holds non-finite values")
    if not np.any(a):
        raise DegenerateFingerprint("zero-energy fingerprint")


class _Workspace:
    """One thread's buffers for correlating planes of one shape: the
    conjugated test spectrum, one product spectrum, a chunk of correlation
    rows and the per-row energies. They are reallocated only when the
    shape changes, so no pair allocates anything the size of a plane."""

    def __init__(self):
        self.shape = None

    def fit(self, shape: tuple[int, int]) -> None:
        if shape != self.shape:
            h, w = shape
            self.conj = np.empty((h, w // 2 + 1), dtype=np.complex128)
            self.product = np.empty_like(self.conj)
            self.chunk = np.empty((min(h, CHUNK_ROWS), w))
            self.row_energy = np.empty(h)
            self.shape = shape

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

    def transform_into(self, out: np.ndarray) -> None:
        """Write the plane's real spectrum into `out`."""
        sfft.rfft2(self.values, out=out)


class ReferenceSpectrum(_Plane):
    """A reference plane and its real spectrum, computed on the first
    correlation. Drivers that match many fingerprints against one camera
    pass one to `pce` in place of the array, so the reference is
    transformed once; holding one at a time keeps one spectrum alive."""
    _spectrum = None

    def transform_into(self, out: np.ndarray) -> None:
        if self._spectrum is None:
            self._spectrum = sfft.rfft2(self.values)
        np.copyto(out, self._spectrum)


class _TestSpectrum(_Plane):
    """A test plane and its conjugated real spectrum.

    `batch_match` builds one per row and passes it to `pce` in place of
    the array, so a test is transformed once however many references it
    meets. The spectrum is computed on the first correlation, into the
    workspace given, which must not serve another test until this one is
    done.
    """
    def __init__(self, test, workspace: _Workspace | None = None):
        super().__init__(test)
        self._workspace = _Workspace() if workspace is None else workspace
        self._transformed = False

    def correlate(self, reference: _Plane) -> _Workspace:
        """Leave the product spectrum with `reference`, inverse-transformed
        along columns, in the workspace, ready for `chunks` and `band`."""
        ws = self._workspace
        if not self._transformed:
            ws.fit(self.shape)
            self.transform_into(ws.conj)
            np.conjugate(ws.conj, out=ws.conj)
            self._transformed = True
        reference.transform_into(ws.product)
        ws.product *= ws.conj
        sfft.ifft(ws.product, axis=0, out=ws.product)
        return ws


class _Peak:
    """The largest |c| over the chunks of a plane, read from the extremes
    so no |c| plane is built. The first maximum and the first minimum in
    flat order are kept (strict > and < across chunks); of the two, the
    larger magnitude wins, and the earlier one on a tie."""

    def __init__(self):
        self.hi = self.lo = None        # (value, flat index)

    def update(self, rows: np.ndarray, start: int) -> None:
        """Take in a chunk whose first cell has flat index `start`."""
        i, j = int(rows.argmax()), int(rows.argmin())
        if self.hi is None or rows.flat[i] > self.hi[0]:
            self.hi = (rows.flat[i], start + i)
        if self.lo is None or rows.flat[j] < self.lo[0]:
            self.lo = (rows.flat[j], start + j)

    def result(self) -> tuple[float, int]:
        """(value, flat index) of the peak."""
        (v_hi, i_hi), (v_lo, i_lo) = self.hi, self.lo
        a_hi, a_lo = abs(v_hi), abs(v_lo)
        if a_hi > a_lo or (a_hi == a_lo and i_hi < i_lo):
            return float(v_hi), i_hi
        return float(v_lo), i_lo


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
    t = test if isinstance(test, _TestSpectrum) else _TestSpectrum(test)
    r = reference if isinstance(reference, _Plane) else _Plane(reference)
    if t.shape != r.shape:
        raise DimensionMismatch(f"{t.shape} vs {r.shape}")
    t.check()
    r.check()
    half = config.exclusion_half_width
    h, w = r.shape
    if (2 * half + 1) ** 2 >= h * w:
        raise DimensionMismatch("exclusion neighborhood covers the whole plane")
    ws = t.correlate(r)
    full = config.search_window == "full"
    found = _Peak()
    for r0, rows in ws.chunks():
        np.einsum("ij,ij->i", rows, rows, out=ws.row_energy[r0:r0 + len(rows)])
        if full:
            found.update(rows, r0 * w)
        elif r0 == 0:
            origin = float(rows[0, 0])
    peak, flat = found.result() if full else (origin, 0)
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

    Each reference is validated once for the call, and each test
    validated and transformed once for its whole row, so T tests against
    R references take T + R validations and T + T*R forward FFTs. With n
    workers (BLOCKPRNU_WORKERS, else the CPUs this process may run on)
    thread k takes rows k, k+n, ... with a workspace of its own; numpy's
    FFTs and reductions release the GIL. The matrix is the same at any
    worker count, and no thread outlives the call.
    """
    n = resolve_workers()
    tests = list(tests)
    references = [r if isinstance(r, _Plane) else _Plane(r)
                  for r in references]
    n = max(1, min(n, len(tests)))

    def rows(k: int) -> list[list]:
        ws = _Workspace()
        out = []
        for t in tests[k::n]:
            spectrum = _TestSpectrum(t, ws)
            row = []
            for r in references:
                try:
                    row.append(pce(spectrum, r, config, threshold))
                except BlockPrnuError as exc:
                    row.append(exc)
            out.append(row)
        return out

    if n == 1:
        return rows(0)
    matrix: list[list] = [[] for _ in tests]
    with ThreadPoolExecutor(max_workers=n) as pool:
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
