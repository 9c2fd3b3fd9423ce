"""Peak-to-correlation-energy matching."""

import itertools
import os
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import fft

from blockprnu import (
    ConfigError,
    DegenerateFingerprint,
    DimensionMismatch,
    Fingerprint,
    MatchReport,
    PceConfig,
    SchemeConfig,
    batch_match,
    estimate_fingerprint,
    format_report_records,
    pce,
    read_fingerprint,
    resolve_workers,
    write_fingerprint,
)
from blockprnu import matching
from blockprnu.cli import main
from blockprnu.matching import ReferenceSpectrum, _Plane, _Workspace
from conftest import CountingFft


def crosscorr(test, reference):
    """The whole plane c[dy, dx] = sum_x test(x) * reference(x + (dy, dx)),
    cyclic, gathered from the chunks `pce` reads."""
    ws = _Workspace().hold(_Plane(test))
    ws.correlate(ReferenceSpectrum(reference))
    c = np.empty(ws.shape)
    for r0, rows in ws.chunks():
        c[r0:r0 + len(rows)] = rows
    return c


def unit_noise(shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    x -= x.mean()
    return x / np.sqrt((x * x).sum())


def test_self_match_is_a_loud_peak_at_origin():
    x = unit_noise((64, 64), 0)
    report = pce(x, x)
    assert report.pce > 1000.0
    assert report.peak_offset == (0, 0)
    assert report.decision
    assert report.correlation_peak == pytest.approx(1.0, abs=1e-9)
    assert report.threshold == 60.0


def test_cyclic_shift_is_located_and_pce_preserved():
    x = unit_noise((64, 64), 1)
    base = pce(x, x)
    for sy, sx in [(3, 7), (0, 63), (63, 0), (32, 32)]:
        shifted = np.roll(x, (sy, sx), axis=(0, 1))
        report = pce(x, shifted)
        assert report.peak_offset == (sx, sy)
        assert report.pce == pytest.approx(base.pce, rel=1e-6)


def test_pce_scale_invariant():
    x = unit_noise((32, 32), 2)
    y = np.roll(x, (4, 4), axis=(0, 1)) + 0.2 * unit_noise((32, 32), 3)
    base = pce(x, y)
    assert pce(2.5 * x, y).pce == pytest.approx(base.pce, rel=1e-9)
    assert pce(x, 0.3 * y).pce == pytest.approx(base.pce, rel=1e-9)


def test_anticorrelated_pattern_goes_negative():
    x = unit_noise((48, 48), 4)
    report = pce(x, -x)
    assert report.pce < -1000.0
    assert not report.decision
    assert report.correlation_peak == pytest.approx(-1.0, abs=1e-9)


def test_zero_search_only_reads_the_origin():
    x = unit_noise((64, 64), 5)
    cfg = PceConfig(search_window="zero")
    aligned = pce(x, x, cfg)
    assert aligned.peak_offset == (0, 0)
    assert aligned.pce == pytest.approx(pce(x, x).pce, rel=1e-9)
    shifted = pce(x, np.roll(x, (9, 9), axis=(0, 1)), cfg)
    assert shifted.peak_offset == (0, 0)
    assert abs(shifted.pce) < 60.0
    assert not shifted.decision


def test_unrelated_noise_statistics():
    zero = PceConfig(search_window="zero")
    zero_vals, full_vals = [], []
    for trial in range(100):
        a = unit_noise((64, 64), 100 + 2 * trial)
        b = unit_noise((64, 64), 101 + 2 * trial)
        zero_vals.append(pce(a, b, zero).pce)
        full_vals.append(pce(a, b).pce)
    zero_vals = np.abs(zero_vals)
    assert 0.3 < zero_vals.mean() < 3.0
    assert max(abs(v) for v in full_vals) < 60.0


def test_crosscorr_definition():
    rng = np.random.default_rng(6)
    # every lag against the direct cyclic sum, odd widths included
    for shape in [(8, 8), (7, 9), (5, 6), (6, 11)]:
        a = rng.normal(size=shape)
        b = rng.normal(size=shape)
        c = crosscorr(a, b)
        assert c.shape == shape
        for dy in range(shape[0]):
            for dx in range(shape[1]):
                direct = (a * np.roll(b, (-dy, -dx), axis=(0, 1))).sum()
                assert c[dy, dx] == pytest.approx(direct, abs=1e-10)


def test_matching_error_cases():
    x = unit_noise((32, 32), 7)
    with pytest.raises(DimensionMismatch):
        pce(x, unit_noise((16, 16), 8))
    with pytest.raises(DimensionMismatch):
        pce(np.zeros((0, 0)), np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch):
        pce(x.ravel(), x.ravel())
    with pytest.raises(DegenerateFingerprint):
        pce(x, np.zeros((32, 32)))
    with pytest.raises(DimensionMismatch):
        # 11x11 exclusion swallows an 8x8 plane entirely
        pce(unit_noise((8, 8), 9), unit_noise((8, 8), 10))
    delta = np.zeros((64, 64))
    delta[0, 0] = 1.0
    with pytest.raises(DegenerateFingerprint):
        pce(delta, delta)  # nothing left outside the exclusion zone


def test_fingerprint_wrappers_and_threshold():
    x = unit_noise((32, 32), 11)
    fp = Fingerprint(k_values=x, support=np.ones((32, 32), bool), source_id="a")
    assert pce(fp, x).pce == pytest.approx(pce(x, x).pce, rel=1e-12)
    strict = pce(x, x, threshold=1e9)
    assert not strict.decision
    assert strict.threshold == 1e9


def test_batch_match_isolates_failures():
    good = unit_noise((32, 32), 12)
    other = unit_noise((32, 32), 13)
    bad = np.zeros((32, 32))
    matrix = batch_match([good, bad], [good, other])
    assert isinstance(matrix[0][0], MatchReport)
    assert matrix[0][0].decision
    assert isinstance(matrix[0][1], MatchReport)
    assert isinstance(matrix[1][0], DegenerateFingerprint)
    assert isinstance(matrix[1][1], DegenerateFingerprint)

    lines = format_report_records(matrix, ["t0", "t1"], ["r0", "r1"])
    assert len(lines) == 4
    assert lines[0].startswith("t0,r0,")
    assert lines[0].endswith(",1")
    assert lines[3] == "t1,r1,nan,0,0,error:DegenerateFingerprint"
    first = lines[0].split(",")
    assert float(first[2]) == pytest.approx(matrix[0][0].pce)
    assert (int(first[3]), int(first[4])) == matrix[0][0].peak_offset


def test_pce_config_validation():
    with pytest.raises(ConfigError):
        PceConfig(exclusion_half_width=-1)
    with pytest.raises(ConfigError):
        PceConfig(search_window="half")


# ---------------------------------------------------------------------------
# the complex-FFT, |c| and boolean-mask PCE, kept as the reference
# ---------------------------------------------------------------------------

def reference_pce(test, reference, config=PceConfig(), threshold=60.0):
    """(pce, peak_offset, decision, plane) computed the direct way: full
    complex spectra, an |c| plane for the peak and a boolean exclusion mask."""
    a = np.asarray(test, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    h, w = a.shape
    half = config.exclusion_half_width
    c = np.real(fft.ifft2(np.conj(fft.fft2(a)) * fft.fft2(b)))
    if config.search_window == "zero":
        py, px = 0, 0
    else:
        py, px = np.unravel_index(int(np.abs(c).argmax()), c.shape)
    peak = float(c[py, px])
    dy = np.abs(np.arange(h) - py)
    dy = np.minimum(dy, h - dy)
    dx = np.abs(np.arange(w) - px)
    dx = np.minimum(dx, w - dx)
    excluded = (dy[:, None] <= half) & (dx[None, :] <= half)
    rest = c[~excluded]
    value = float(np.sign(peak) * peak * peak / (rest * rest).mean())
    return value, (int(px), int(py)), value > threshold, c


@settings(max_examples=150, deadline=None)
@given(h=st.integers(3, 40), w=st.integers(3, 40), half=st.integers(0, 5),
       kind=st.sampled_from(["shifted", "unrelated", "delta"]),
       shift=st.tuples(st.integers(0, 39), st.integers(0, 39)),
       search=st.sampled_from(["full", "zero"]),
       seed=st.integers(0, 2**32 - 1))
@example(h=3, w=3, half=0, kind="shifted", shift=(8, 0), search="full",
         seed=21077)
def test_pce_matches_reference(h, w, half, kind, shift, search, seed):
    # odd and even sizes; planes narrower or shorter than the window, where
    # it wraps onto itself; peaks anywhere up to the border
    assume((2 * half + 1) ** 2 < h * w)
    rng = np.random.default_rng(seed)
    sy, sx = shift[0] % h, shift[1] % w
    if kind == "delta":
        # peak-dominated: off-peak energy is 1e-18 of the peak's
        a = 1e-9 * rng.normal(size=(h, w))
        b = 1e-9 * rng.normal(size=(h, w))
        a[0, 0] += 1.0
        b[sy, sx] += 1.0
    else:
        a = rng.normal(size=(h, w))
        b = rng.normal(size=(h, w))
        if kind == "shifted":
            b = np.roll(a, (sy, sx), axis=(0, 1)) + 0.5 * b
    config = PceConfig(exclusion_half_width=half, search_window=search)
    report = pce(a, b, config)
    value, offset, decision, c = reference_pce(a, b, config)
    # Both paths round every cell by about eps * log2(n) * max|c|. Relative
    # to the chosen peak and to the off-peak rms that is negligible on
    # ordinary planes, but on a peak-dominated one (PCE ~ 1e18) either path
    # is ~1e-8 from an exact direct sum, so the bound widens there. A
    # cancelling energy sum would be off by ~1e2 and still fail.
    peak = c[offset[1], offset[0]]
    rms = abs(peak) / np.sqrt(abs(value))
    rounding = np.log2(h * w) * np.finfo(float).eps * np.abs(c).max()
    bound = 1e-9 + 2 * rounding * (1 / abs(peak) + 1 / rms)
    assert report.pce == pytest.approx(value, rel=bound)
    assert report.peak_offset == offset
    assert report.decision == decision
    # only a peak-dominated plane peaks at the planted shift by
    # construction: under half-strength noise a small shifted plane can
    # peak elsewhere (the 3x3 example above peaks at (2, 1), not (0, 2)),
    # and there the reference alone decides
    if kind == "delta" and search == "full":
        assert report.peak_offset == (sx, sy)


def test_pce_finds_a_planted_shift_where_the_signal_dominates():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(32, 48))
    b = np.roll(a, (5, 17), axis=(0, 1)) + 0.5 * rng.normal(size=(32, 48))
    report = pce(a, b)
    value, offset, decision, _ = reference_pce(a, b)
    assert report.peak_offset == offset == (17, 5)
    assert report.pce == pytest.approx(value, rel=1e-9)
    assert report.decision and decision


def peak_of(plane, chunk_rows, monkeypatch):
    """(row, col) of the peak `pce` finds in `plane`, read chunk_rows rows
    at a time: a unit impulse correlates with a plane into the plane, up to
    rounding that leaves the cells of largest |c| as they are."""
    monkeypatch.setattr(matching, "CHUNK_ROWS", chunk_rows)
    impulse = np.zeros(plane.shape)
    impulse[0, 0] = 1.0
    c = crosscorr(impulse, plane)
    top = np.abs(plane) == np.abs(plane).max()
    assert np.array_equal(c[top], plane[top])
    assert np.abs(c[~top]).max(initial=0.0) < np.abs(plane).max()
    dx, dy = pce(impulse, plane, PceConfig(exclusion_half_width=0)).peak_offset
    return dy, dx


def test_peak_tie_goes_to_first_flat_index(monkeypatch):
    # one row per chunk puts each extreme of a tie in a chunk of its own
    for chunk_rows in (1, 2, 4):
        c = np.zeros((4, 5))
        c[1, 2] = -3.0
        c[2, 4] = 3.0
        assert peak_of(c, chunk_rows, monkeypatch) == (1, 2)
        assert peak_of(-c, chunk_rows, monkeypatch) == (1, 2)
        c[0, 3] = 3.0
        assert peak_of(c, chunk_rows, monkeypatch) == (0, 3)
        for plane in (c, -c, np.full((3, 3), 2.0), np.full((3, 3), -2.0)):
            assert peak_of(plane, chunk_rows, monkeypatch) == np.unravel_index(
                np.abs(plane).argmax(), plane.shape)


def test_non_finite_fingerprint_is_degenerate(tmp_path):
    x = unit_noise((32, 32), 14)
    bad = x.copy()
    bad[5, 7] = np.nan
    for args in ((bad, x), (x, bad), (np.where(bad == bad, x, np.inf), x)):
        with pytest.raises(DegenerateFingerprint):
            pce(*args)
    matrix = batch_match([x, bad], [x, bad])
    assert isinstance(matrix[0][0], MatchReport)
    assert [type(cell) for cell in (matrix[0][1], *matrix[1])] == \
        [DegenerateFingerprint] * 3
    assert format_report_records(matrix, ["t0", "t1"], ["r0", "r1"])[1] == \
        "t0,r1,nan,0,0,error:DegenerateFingerprint"

    # a .bpf holding a NaN reads back, but matching it is a degenerate result
    support = np.ones((32, 32), bool)
    write_fingerprint(Fingerprint(bad, support, "bad"), tmp_path / "bad.bpf")
    write_fingerprint(Fingerprint(x, support, "good"), tmp_path / "good.bpf")
    assert np.isnan(read_fingerprint(tmp_path / "bad.bpf").k_values[5, 7])
    rc = main(["match", "--test", str(tmp_path / "bad.bpf"),
               "--reference", str(tmp_path / "good.bpf")])
    assert rc == 4


def test_batch_match_cells_equal_standalone_pce():
    tests = [unit_noise((24, 30), 20 + i) for i in range(3)]
    refs = [np.roll(tests[0], (2, 5), axis=(0, 1)), unit_noise((24, 30), 30)]
    config = PceConfig(exclusion_half_width=3)
    matrix = batch_match(tests, refs, config, threshold=50.0)
    for t, row in zip(tests, matrix):
        for r, cell in zip(refs, row):
            assert cell == pce(t, r, config, threshold=50.0)  # bit-identical
    assert matrix[0][0].peak_offset == (5, 2)


def test_batch_match_error_types_and_precedence():
    good = unit_noise((32, 32), 15)
    zero = np.zeros((32, 32))
    small = unit_noise((16, 16), 16)
    tiny = unit_noise((8, 8), 17)
    matrix = batch_match([good, zero, tiny, np.zeros((8, 8))],
                         [good, small, tiny, zero])
    expected = [
        [MatchReport, DimensionMismatch, DimensionMismatch, DegenerateFingerprint],
        # a degenerate test still reports a shape mismatch first
        [DegenerateFingerprint, DimensionMismatch, DimensionMismatch,
         DegenerateFingerprint],
        # the 11x11 window covers an 8x8 plane
        [DimensionMismatch, DimensionMismatch, DimensionMismatch,
         DimensionMismatch],
        # degeneracy is checked before the window size
        [DimensionMismatch, DimensionMismatch, DegenerateFingerprint,
         DimensionMismatch],
    ]
    assert [[type(cell) for cell in row] for row in matrix] == expected
    for t, row in zip([good, zero, tiny, np.zeros((8, 8))], matrix):
        for r, cell in zip([good, small, tiny, zero], row):
            if isinstance(cell, Exception):
                with pytest.raises(type(cell)):
                    pce(t, r)
    # every error cell is its own exception object
    assert matrix[1][0] is not matrix[1][3]


def test_batch_match_transforms_each_test_and_reference_once(monkeypatch,
                                                             workers):
    workers(1)
    counter = CountingFft(matching.sfft)
    monkeypatch.setattr(matching, "sfft", counter)
    tests = [unit_noise((20, 24), 40 + i) for i in range(3)]
    refs = [unit_noise((20, 24), 50 + i) for i in range(4)]
    matrix = batch_match(tests, refs)
    assert all(isinstance(cell, MatchReport) for row in matrix for cell in row)
    assert counter.forward == 3 + 4
    counter.forward = 0
    workers(2)
    assert batch_match(tests, refs) == matrix
    assert counter.forward == 3 + 4
    counter.forward = 0
    pce(tests[0], refs[0])
    assert counter.forward == 2
    # an invalid reference is never transformed, and no test is
    # transformed for a row of errors
    counter.forward = 0
    batch_match(tests[:1] + [np.zeros((20, 24))], refs[:2] + [0 * refs[0]])
    assert counter.forward == 1 + 2


@pytest.mark.parametrize("n", [1, 2])
def test_batch_match_calls_the_module_pce_per_pair(monkeypatch, workers, n):
    # a wrapper bound to the module name sees every pair, as a tracer does
    workers(n)
    calls = []
    real = matching.pce

    def counted(*args, **kwargs):
        calls.append(1)             # list.append is atomic across threads
        return real(*args, **kwargs)

    monkeypatch.setattr(matching, "pce", counted)
    tests = [unit_noise((20, 24), 110 + i) for i in range(3)]
    refs = [unit_noise((20, 24), 120 + i) for i in range(4)]
    matrix = batch_match(tests, refs)
    assert len(calls) == 3 * 4
    assert matrix == [[real(t, r) for r in refs] for t in tests]


@pytest.mark.parametrize("n", [1, 2])
def test_batch_match_validates_each_plane_once(monkeypatch, workers, n):
    workers(n)
    checked = []
    real = matching._check_plane

    def counted(a):
        checked.append(a.shape)     # list.append is atomic across threads
        real(a)

    monkeypatch.setattr(matching, "_check_plane", counted)
    tests = [unit_noise((20, 24), 70 + i) for i in range(3)]
    tests.append(np.zeros((20, 24)))
    refs = [unit_noise((20, 24), 80 + i) for i in range(4)]
    refs.append(np.full((20, 24), np.nan))
    matrix = batch_match(tests, refs)
    assert len(checked) == len(tests) + len(refs)
    # cells keep the types and the precedence of standalone calls
    monkeypatch.setattr(matching, "_check_plane", real)
    for t, row in zip(tests, matrix):
        for r, cell in zip(refs, row):
            if isinstance(cell, MatchReport):
                assert cell == pce(t, r)
            else:
                with pytest.raises(type(cell), match=re.escape(str(cell))):
                    pce(t, r)


def test_reference_spectrum_is_transformed_once(monkeypatch):
    counter = CountingFft(matching.sfft)
    monkeypatch.setattr(matching, "sfft", counter)
    ref = unit_noise((20, 24), 60)
    spectrum = ReferenceSpectrum(ref)
    tests = [unit_noise((20, 24), 61 + i) for i in range(3)]
    tests.append(np.roll(ref, (3, 5), axis=(0, 1)))
    for t in tests:
        assert pce(t, spectrum) == pce(t, ref)
        assert pce(t, spectrum, PceConfig(search_window="zero")) == \
            pce(t, ref, PceConfig(search_window="zero"))
    # 8 calls on the spectrum transform their tests and the reference once,
    # 8 on the array transform both every time
    assert counter.forward == (8 + 1) + 2 * 8
    # a reference error is raised by every call, where a call on the array
    # raises it, each time as its own exception
    for bad in (np.zeros((20, 24)), np.full((20, 24), np.nan)):
        spectrum = ReferenceSpectrum(bad)
        errors = []
        for t in (tests[0], np.zeros((20, 24)), unit_noise((8, 8), 1)):
            with pytest.raises(Exception) as want:
                pce(t, bad)
            with pytest.raises(type(want.value), match=re.escape(str(want.value))) as got:
                pce(t, spectrum)
            errors.append(got.value)
        assert errors[0] is not errors[1]


# ---------------------------------------------------------------------------
# float32 planes, as read from a file
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(32, 40), (33, 41), (32, 41), (33, 40),
                                   (130, 29), (12, 13)])
def test_float32_planes_match_as_their_float64_widening(shape, workers):
    # an odd width leaves the product spectrum, viewed as float64, one
    # value wider than the plane widened into it
    h, w = shape
    config = PceConfig(exclusion_half_width=min(5, (h - 2) // 2))
    tests = [unit_noise(shape, 130 + i).astype(np.float32) for i in range(3)]
    refs = [np.roll(tests[0], (3, 5), axis=(0, 1))
            + np.float32(0.3) * unit_noise(shape, 140).astype(np.float32),
            unit_noise(shape, 141).astype(np.float32), np.zeros(shape, np.float32)]
    wide_tests = [t.astype(np.float64) for t in tests]
    wide_refs = [r.astype(np.float64) for r in refs]
    expected = assert_batch_is_standalone(wide_tests, wide_refs, config,
                                          workers)
    assert expected[0][0].peak_offset == (5, 3)
    for n in (1, 2):
        workers(n)
        got = batch_match(tests, refs, config)
        assert [[type(c) if isinstance(c, Exception) else c for c in row]
                for row in got] == expected
    for t, wide_t, row in zip(tests, wide_tests, expected):
        for r, wide_r, cell in zip(refs[:2], wide_refs, row):
            assert pce(t, r, config) == cell
            assert pce(wide_t, r, config) == pce(t, wide_r, config) == cell
            spectrum = ReferenceSpectrum(r)
            assert pce(t, spectrum, config) == cell
            assert np.array_equal(spectrum.spectrum, np.fft.rfft2(wide_r))
            assert spectrum.values is None
    # other dtypes are widened to float64, as before
    half = tests[0].astype(np.float16)
    assert pce(half, refs[1], config) == pce(half.astype(np.float64),
                                             wide_refs[1], config)


def test_read_prints_match_as_their_float64_widening(tmp_path):
    support = np.ones((24, 31), bool)
    planes = [unit_noise((24, 31), 150), unit_noise((24, 31), 151)]
    planes[1] += 0.5 * np.roll(planes[0], (2, 7), axis=(0, 1))
    read = []
    for i, k in enumerate(planes):
        write_fingerprint(Fingerprint(k, support, f"c{i}"), tmp_path / f"{i}.bpf")
        read.append(read_fingerprint(tmp_path / f"{i}.bpf"))
    wide = [fp.k_values.astype(np.float64) for fp in read]
    assert [fp.k_values.dtype for fp in read] == [np.float32] * 2
    assert batch_match(read, read) == batch_match(wide, wide)
    assert pce(read[0], read[1]) == pce(wide[0], wide[1])
    assert pce(read[0], read[1]).peak_offset == (7, 2)


# ---------------------------------------------------------------------------
# the chunked core and the threaded batch
# ---------------------------------------------------------------------------

@pytest.fixture
def workers(monkeypatch):
    """Sets the worker count that batch_match reads from BLOCKPRNU_WORKERS,
    and shows as many CPUs, so that the count is not capped on a smaller
    host."""
    def set_workers(n: int) -> None:
        monkeypatch.setenv("BLOCKPRNU_WORKERS", str(n))
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)
    return set_workers


def assert_batch_is_standalone(tests, refs, config, workers):
    """batch_match at 1, 2 and 3 workers equals standalone pce, bit for bit,
    and errors keep their types."""
    expected = []
    for t in tests:
        row = []
        for r in refs:
            try:
                row.append(pce(t, r, config))
            except (DimensionMismatch, DegenerateFingerprint) as exc:
                row.append(type(exc))
        expected.append(row)
    for n in (1, 2, 3):
        workers(n)
        matrix = batch_match(tests, refs, config)
        assert [[type(c) if isinstance(c, Exception) else c for c in row]
                for row in matrix] == expected
    return expected


@pytest.mark.parametrize("shape", [(1, 31), (63, 37), (64, 33), (65, 45),
                                   (130, 29)])
@pytest.mark.parametrize("search", ["full", "zero"])
def test_batch_match_equals_pce_across_workers_and_chunks(shape, search,
                                                          workers):
    # peaks in the first, a middle and the last chunk of 64 rows; windows
    # that straddle a chunk boundary (rows 59-69) and wrap across the plane
    # edge, which puts the window rows in the first and the last chunk
    h, w = shape
    half = 1 if h == 1 else 5
    config = PceConfig(exclusion_half_width=half, search_window=search)
    t0, t1 = unit_noise(shape, 60), unit_noise(shape, 61)
    shifts = sorted({(dy % h, dx % w) for dy, dx in
                     [(0, 0), (64, 3), (h - 1, w - 2), (h - 2, 1), (1, w // 2)]})
    refs = [np.roll(t0, s, axis=(0, 1)) + 0.3 * unit_noise(shape, 62 + i)
            for i, s in enumerate(shifts)] + [unit_noise(shape, 70)]
    expected = assert_batch_is_standalone([t0, t1, -t0, t0[::-1]], refs,
                                          config, workers)
    if search == "full":
        assert [cell.peak_offset for cell in expected[0][:len(shifts)]] == \
            [(dx, dy) for dy, dx in shifts]
        assert [cell.pce < 0 for cell in expected[2][:len(shifts)]] == \
            [True] * len(shifts)
    else:
        assert all(cell.peak_offset == (0, 0) for cell in expected[0])


def test_pce_tie_across_chunks_goes_to_first_flat_index(workers):
    # a delta test makes the plane the reference itself: +3 and -3 in the
    # first and the second chunk of 64 rows, exactly tied
    test = np.zeros((130, 29))
    test[0, 0] = 1.0
    ref = np.zeros((130, 29))
    ref[100, 9] = 0.5
    for first, second in ((3.0, -3.0), (-3.0, 3.0)):
        ref[2, 4], ref[70, 4] = first, second
        c = crosscorr(test, ref)
        assert c.max() == -c.min()            # the tie survives the FFT
        expected = assert_batch_is_standalone([test], [ref], PceConfig(),
                                              workers)
        assert expected[0][0].peak_offset == (4, 2)
        assert np.sign(expected[0][0].pce) == np.sign(first)


def test_batch_match_errors_at_any_worker_count(workers):
    good = unit_noise((32, 32), 15)
    zero = np.zeros((32, 32))
    tests = [good, zero, unit_noise((8, 8), 17), np.zeros((8, 8)), good]
    refs = [good, unit_noise((16, 16), 16), unit_noise((8, 8), 17), zero]
    workers(1)
    first = batch_match(tests, refs)
    errors = [cell for row in first for cell in row
              if isinstance(cell, Exception)]
    assert len(errors) == 18
    for n in (2, 3):
        workers(n)
        matrix = batch_match(tests, refs)
        assert [[type(c) for c in row] for row in matrix] == \
            [[type(c) for c in row] for row in first]
        cells = [cell for row in matrix for cell in row]
        # every error cell is its own exception object
        assert len({id(c) for c in cells}) == len(cells)
        assert [str(c) for c in cells] == [str(c) for row in first for c in row]


def test_batch_match_threads_under_fast_switching(workers):
    # more threads than cores, switching every microsecond: a workspace or
    # a row shared between threads would show as a changed cell
    tests = [unit_noise((70, 33), 100 + i) for i in range(6)]
    refs = [np.roll(tests[i], (i, 2 * i), axis=(0, 1)) for i in range(3)]
    workers(1)
    expected = batch_match(tests, refs)
    workers(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert batch_match(tests, refs) == expected
    finally:
        sys.setswitchinterval(interval)


def test_batch_match_worker_count(monkeypatch):
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(matching, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.delenv("BLOCKPRNU_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    tests = [unit_noise((24, 30), 90 + i) for i in range(5)]
    refs = [np.roll(tests[1], (3, 4), axis=(0, 1)), unit_noise((24, 30), 99)]
    threads = threading.active_count()

    expected = batch_match(tests, refs)
    assert pools == [3]                         # the affinity mask
    monkeypatch.setenv("BLOCKPRNU_WORKERS", "1")
    assert batch_match(tests, refs) == expected
    assert pools == [3]                         # one worker runs inline
    monkeypatch.setenv("BLOCKPRNU_WORKERS", "2")
    assert batch_match(tests, refs) == expected
    assert pools == [3, 2]
    # no more threads than usable CPUs, nor than rows, are started
    monkeypatch.setenv("BLOCKPRNU_WORKERS", "9")
    assert batch_match((t for t in tests), iter(refs)) == expected
    assert pools == [3, 2, 3]
    assert batch_match(tests[:2], refs) == expected[:2]
    assert pools == [3, 2, 3, 2]
    assert threading.active_count() == threads  # no thread outlives a call

    monkeypatch.setenv("BLOCKPRNU_WORKERS", "0")
    with pytest.raises(ConfigError):
        batch_match(tests, refs)


def test_every_parallel_section_is_capped_at_the_usable_cpus(monkeypatch,
                                                             pool_spawns):
    # BLOCKPRNU_WORKERS=8 on the 2 CPUs pool_spawns shows: the residual
    # pool and the matching threads are both built for 2, so batch_match
    # holds 2 workspaces, not 8
    monkeypatch.setenv("BLOCKPRNU_WORKERS", "8")
    pictures = np.random.default_rng(7).integers(20, 230, size=(4, 32, 32),
                                                 dtype=np.uint8)
    estimate_fingerprint(pictures, None, SchemeConfig("conventional"),
                         workers=resolve_workers())
    assert pool_spawns == [2]
    threads = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            threads.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(matching, "ThreadPoolExecutor", RecordingPool)
    h, w = 256, 256
    tests = [unit_noise((h, w), 200 + i) for i in range(8)]
    refs = [unit_noise((h, w), 300)]
    spectrum = 16 * h * (w // 2 + 1)
    workspace = 2 * spectrum + 8 * matching.CHUNK_ROWS * w + 8 * h
    tracemalloc.start()
    try:
        batch_match(tests, refs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert threads == [2]
    assert peak < spectrum + 3 * workspace, peak


def test_no_pair_allocates_a_plane(workers):
    # float32 planes are widened into the workspace; an odd width leaves
    # the product buffer one value wider than the plane
    for (h, w), dtype in itertools.product([(256, 250), (255, 251)],
                                           [np.float64, np.float32]):
        plane = 8 * h * w
        spectrum = 16 * h * (w // 2 + 1)
        workspace = 2 * spectrum + 8 * 64 * w + 8 * h
        tests = [unit_noise((h, w), 80 + i).astype(dtype) for i in range(2)]
        refs = [unit_noise((h, w), 82 + i).astype(dtype) for i in range(4)]
        workers(2)
        batch_match(tests, refs[:1])            # FFT plans and thread start-up
        for n in (1, 2):
            workers(n)
            tracemalloc.start()
            try:
                batch_match(tests, refs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # one workspace per thread and one spectrum per reference for
            # the call; a plane-sized array per pair, or a float32 plane
            # widened by the FFT itself, would add at least `plane` on top
            assert peak < n * workspace + len(refs) * spectrum + plane // 2, \
                (h, w, dtype, n)
