"""
Fingerprint matching by peak-to-correlation-energy.

The cross-correlation plane over all cyclic shifts comes from one FFT
product; PCE is the signed squared peak against the mean squared
correlation outside an exclusion neighborhood around the peak. The ratio
is invariant to scaling either input, so fingerprints never need to be
re-normalized for matching.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import fft as sfft

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


def crosscorr(test: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """c[dy, dx] = sum_x test(x) * reference(x + (dy, dx)), cyclic."""
    return np.real(sfft.ifft2(np.conj(sfft.fft2(test)) * sfft.fft2(reference)))


def pce(test, reference, config: PceConfig = PceConfig(),
        threshold: float = DEFAULT_THRESHOLD) -> MatchReport:
    """Match two equally sized fingerprints.

    Full-plane search takes the cell of largest correlation magnitude and
    keeps its sign, so anti-correlated artifacts surface as strongly
    negative PCE instead of masquerading as matches.
    """
    a = _values(test)
    b = _values(reference)
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    if a.ndim != 2 or min(a.shape) == 0:
        raise DimensionMismatch(f"need non-empty 2-D fingerprints, got {a.shape}")
    if not np.any(a) or not np.any(b):
        raise DegenerateFingerprint("zero-energy fingerprint")
    h, w = a.shape
    half = config.exclusion_half_width
    if (2 * half + 1) ** 2 >= a.size:
        raise DimensionMismatch("exclusion neighborhood covers the whole plane")
    c = crosscorr(a, b)
    if config.search_window == "zero":
        py, px = 0, 0
    else:
        py, px = np.unravel_index(int(np.abs(c).argmax()), c.shape)
    peak = float(c[py, px])

    # cyclic distances so a border peak keeps a full-size neighborhood
    dy = np.abs(np.arange(h) - py)
    dy = np.minimum(dy, h - dy)
    dx = np.abs(np.arange(w) - px)
    dx = np.minimum(dx, w - dx)
    excluded = (dy[:, None] <= half) & (dx[None, :] <= half)
    rest = c[~excluded]
    energy = float((rest * rest).mean())
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
    instead of aborting the rest."""
    matrix: list[list] = []
    for t in tests:
        row = []
        for r in references:
            try:
                row.append(pce(t, r, config, threshold))
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
