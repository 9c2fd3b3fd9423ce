"""Peak-to-correlation-energy matching."""

import numpy as np
import pytest

from blockprnu import (
    ConfigError,
    DegenerateFingerprint,
    DimensionMismatch,
    Fingerprint,
    MatchReport,
    PceConfig,
    batch_match,
    crosscorr,
    format_report_records,
    pce,
)


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
    a = rng.normal(size=(8, 8))
    b = rng.normal(size=(8, 8))
    c = crosscorr(a, b)
    # spot-check one lag against the direct cyclic sum
    dy, dx = 3, 5
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
