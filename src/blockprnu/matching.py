"""
Fingerprint matching by peak-to-correlation-energy.

The cross-correlation plane over all cyclic shifts comes from one
real-FFT product; PCE is the signed squared peak against the mean squared
correlation outside an exclusion neighborhood around the peak. The ratio
is invariant to scaling either input, so fingerprints never need to be
re-normalized for matching.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
# one module-level FFT name, so that counters can wrap every transform
from numpy import fft as sfft

from .errors import (BlockPrnuError, ConfigError, DegenerateFingerprint,
                     DimensionMismatch)
from .prnu import Fingerprint

DEFAULT_THRESHOLD = 60.0


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
    return fp.k_values if isinstance(fp, Fingerprint) else np.asarray(fp, dtype=np.float64)


def _check_plane(a: np.ndarray) -> None:
    if a.ndim != 2 or min(a.shape) == 0:
        raise DimensionMismatch(f"need non-empty 2-D fingerprints, got {a.shape}")
    if not np.isfinite(a).all():
        raise DegenerateFingerprint("fingerprint holds non-finite values")
    if not np.any(a):
        raise DegenerateFingerprint("zero-energy fingerprint")


class _TestSpectrum:
    """A test plane, validated once, and its conjugated real spectrum.

    `batch_match` builds one per row and passes it to `pce` in place of
    the array, so a test is transformed once however many references it
    meets. The spectrum is computed on the first correlation. A failed
    validation is kept and raised anew by `pce` after its shape check, so
    every cell keeps the error precedence of a standalone call.
    """
    def __init__(self, test):
        self._values = _values(test)
        self.shape = self._values.shape
        self._conj = None
        try:
            _check_plane(self._values)
            self._error = None
        except BlockPrnuError as exc:
            self._error = exc

    def check(self) -> None:
        if self._error is not None:
            raise type(self._error)(*self._error.args)

    def correlate(self, reference: np.ndarray) -> np.ndarray:
        if self._conj is None:
            spectrum = sfft.rfft2(self._values)
            self._conj = np.conjugate(spectrum, out=spectrum)
        product = sfft.rfft2(reference)
        product *= self._conj
        # s= restores an odd width that the half spectrum cannot encode
        return sfft.irfft2(product, s=self.shape)


def crosscorr(test: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """c[dy, dx] = sum_x test(x) * reference(x + (dy, dx)), cyclic."""
    return _TestSpectrum(test).correlate(_values(reference))


def _peak(c: np.ndarray) -> tuple[int, int]:
    """(row, col) of the largest |c|, the first in flat order on a tie,
    found from the extremes so no |c| plane is built."""
    hi, lo = int(c.argmax()), int(c.argmin())
    a_hi, a_lo = abs(c.flat[hi]), abs(c.flat[lo])
    return divmod(hi if a_hi > a_lo or (a_hi == a_lo and hi < lo) else lo,
                  c.shape[1])


def _window(center: int, half: int, n: int) -> np.ndarray:
    """Indices within cyclic distance `half` of `center` on an axis of n."""
    if 2 * half + 1 >= n:
        return np.arange(n)
    return (center + np.arange(-half, half + 1)) % n


def _off_peak_energy(c: np.ndarray, py: int, px: int, half: int) -> float:
    """Mean of c^2 outside the cyclic (2*half+1)^2 window around the peak.

    Whole rows outside the window come from per-row sums of squares; the
    window's rows contribute only their columns outside it. Only squares
    outside the window are ever added, so a dominant peak cannot cancel
    the off-peak energy away.
    """
    h, w = c.shape
    rows, cols = _window(py, half, h), _window(px, half, w)
    keep_rows = np.ones(h, dtype=bool)
    keep_rows[rows] = False
    keep_cols = np.ones(w, dtype=bool)
    keep_cols[cols] = False
    band = c[np.ix_(rows, np.flatnonzero(keep_cols))]
    total = (np.einsum("ij,ij->i", c, c)[keep_rows].sum()
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
    b = _values(reference)
    if t.shape != b.shape:
        raise DimensionMismatch(f"{t.shape} vs {b.shape}")
    t.check()
    _check_plane(b)
    half = config.exclusion_half_width
    if (2 * half + 1) ** 2 >= b.size:
        raise DimensionMismatch("exclusion neighborhood covers the whole plane")
    c = t.correlate(b)
    py, px = (0, 0) if config.search_window == "zero" else _peak(c)
    peak = float(c[py, px])
    energy = _off_peak_energy(c, py, px, half)
    if energy == 0.0:
        raise DegenerateFingerprint("flat correlation plane")
    value = float(np.sign(peak) * peak * peak / energy)
    return MatchReport(pce=value, peak_offset=(int(px), int(py)),
                       correlation_peak=peak, decision=value > threshold,
                       threshold=threshold)


def batch_match(tests: Sequence, references: Sequence,
                config: PceConfig = PceConfig(),
                threshold: float = DEFAULT_THRESHOLD) -> list[list]:
    """All-pairs matching; a failing pair stores its error in the matrix
    instead of aborting the rest.

    Each test is validated and transformed once for its whole row, so
    T tests against R references take T + T*R forward FFTs.
    """
    matrix: list[list] = []
    for t in tests:
        spectrum = _TestSpectrum(t)
        row = []
        for r in references:
            try:
                row.append(pce(spectrum, r, config, threshold))
            except BlockPrnuError as exc:
                row.append(exc)
        matrix.append(row)
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
