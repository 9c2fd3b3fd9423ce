"""Fingerprint accumulation, finalization, file format, and the pipeline."""

import numpy as np
import pytest

from blockprnu import (
    AllMaskedOut,
    ConfigError,
    DimensionMismatch,
    EmptyAccumulator,
    Fingerprint,
    FingerprintAccumulator,
    NoiseResidual,
    Picture,
    SchemeConfig,
    SensorModel,
    estimate_fingerprint,
    finalize,
    fingerprint_from_residuals,
    read_fingerprint,
    simulate_capture,
    write_fingerprint,
)


def ingest(acc, luma, residual, mask):
    acc.accumulate(Picture(luma=luma.astype(np.uint8)),
                   NoiseResidual(values=residual, frame_idx=0), mask)


def test_zero_mask_contributes_nothing():
    rng = np.random.default_rng(0)
    luma = rng.integers(20, 230, size=(16, 16)).astype(np.uint8)
    res = rng.normal(size=(16, 16))
    a = FingerprintAccumulator(16, 16)
    ingest(a, luma, res, np.zeros((16, 16)))
    ingest(a, luma, res, np.ones((16, 16)))
    b = FingerprintAccumulator(16, 16)
    ingest(b, luma, res, np.ones((16, 16)))
    assert np.array_equal(a.numerator, b.numerator)
    assert np.array_equal(a.denominator, b.denominator)


def test_single_frame_recovers_residual_over_luma():
    rng = np.random.default_rng(1)
    res = rng.normal(size=(8, 8))
    acc = FingerprintAccumulator(8, 8)
    ingest(acc, np.full((8, 8), 100), res, np.ones((8, 8)))
    fp = finalize(acc, normalize=False)
    assert np.allclose(fp.k_values, res / 100.0, atol=1e-12)
    assert fp.support.all()


def test_two_frames_match_direct_ratio():
    rng = np.random.default_rng(2)
    lumas = [rng.integers(10, 240, size=(12, 12)) for _ in range(2)]
    residuals = [rng.normal(size=(12, 12)) for _ in range(2)]
    masks = [rng.uniform(0.1, 1.0, size=(12, 12)) for _ in range(2)]
    acc = FingerprintAccumulator(12, 12)
    for luma, res, mask in zip(lumas, residuals, masks):
        ingest(acc, luma, res, mask)
    fp = finalize(acc, denominator_floor=1e-12, normalize=False)
    num = sum(l.astype(float) * r * m for l, r, m in zip(lumas, residuals, masks))
    den = sum(l.astype(float) ** 2 * m for l, m in zip(lumas, masks))
    assert np.allclose(fp.k_values, num / den, atol=1e-12)


def test_merge_equals_sequential_ingest():
    # integer-valued terms add exactly, so the two orders agree bit for bit
    rng = np.random.default_rng(3)
    frames = [(rng.integers(1, 250, size=(8, 8)),
               rng.integers(-6, 7, size=(8, 8)).astype(np.float64),
               rng.integers(0, 3, size=(8, 8)).astype(np.float64))
              for _ in range(6)]
    whole = FingerprintAccumulator(8, 8)
    for luma, res, mask in frames:
        ingest(whole, luma, res, mask)
    left, right = FingerprintAccumulator(8, 8), FingerprintAccumulator(8, 8)
    for luma, res, mask in frames[:3]:
        ingest(left, luma, res, mask)
    for luma, res, mask in frames[3:]:
        ingest(right, luma, res, mask)
    left.merge(right)
    assert np.array_equal(left.numerator, whole.numerator)
    assert np.array_equal(left.denominator, whole.denominator)
    assert left.frames_ingested == whole.frames_ingested == 6


def test_accumulator_shape_checks():
    acc = FingerprintAccumulator(8, 8)
    with pytest.raises(DimensionMismatch):
        ingest(acc, np.full((8, 8), 100), np.zeros((4, 4)), np.ones((8, 8)))
    with pytest.raises(DimensionMismatch):
        ingest(acc, np.full((4, 4), 100), np.zeros((8, 8)), np.ones((8, 8)))
    with pytest.raises(DimensionMismatch):
        acc.merge(FingerprintAccumulator(4, 4))
    with pytest.raises(ConfigError):
        FingerprintAccumulator(0, 8)


def test_finalize_without_frames_rejected():
    with pytest.raises(EmptyAccumulator):
        finalize(FingerprintAccumulator(8, 8))


def test_finalize_rejects_nonpositive_floor():
    acc = FingerprintAccumulator(8, 8)
    ingest(acc, np.full((8, 8), 100), np.ones((8, 8)), np.ones((8, 8)))
    for floor in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError):
            finalize(acc, denominator_floor=floor)


def test_all_masked_out():
    acc = FingerprintAccumulator(8, 8)
    ingest(acc, np.full((8, 8), 100), np.ones((8, 8)), np.zeros((8, 8)))
    with pytest.raises(AllMaskedOut):
        finalize(acc)
    strong = FingerprintAccumulator(8, 8)
    ingest(strong, np.full((8, 8), 100), np.ones((8, 8)), np.ones((8, 8)))
    with pytest.raises(AllMaskedOut):
        finalize(strong, denominator_floor=1e12)


def test_default_floor_drops_starved_pixels():
    luma = np.full((8, 8), 100)
    mask = np.ones((8, 8))
    mask[:, 4:] = 1e-9  # right half gathers almost no evidence
    acc = FingerprintAccumulator(8, 8)
    ingest(acc, luma, np.ones((8, 8)), mask)
    fp = finalize(acc)
    assert fp.support[:, :4].all()
    assert not fp.support[:, 4:].any()
    assert np.all(fp.k_values[:, 4:] == 0.0)


def test_normalized_fingerprint_is_zero_mean_unit_energy():
    rng = np.random.default_rng(4)
    acc = FingerprintAccumulator(16, 16)
    for _ in range(3):
        ingest(acc, rng.integers(30, 220, size=(16, 16)),
               rng.normal(size=(16, 16)), rng.uniform(0.2, 1.0, size=(16, 16)))
    fp = finalize(acc)
    assert abs(fp.k_values[fp.support].mean()) < 1e-12
    assert (fp.k_values ** 2).sum() == pytest.approx(1.0, abs=1e-12)


def test_pipeline_recovers_planted_pattern():
    rng = np.random.default_rng(5)
    model = SensorModel.random(64, 64, k_strength=0.05, seed=20)
    clean = [np.full((64, 64), 120.0) + rng.uniform(-4, 4) for _ in range(40)]
    pictures = simulate_capture(model, clean, seed=21)
    fp = estimate_fingerprint(pictures, None, SchemeConfig("conventional"))
    truth = model.k_true - model.k_true.mean()
    truth /= np.sqrt((truth ** 2).sum())
    corr = (fp.k_values * truth).sum()
    assert corr > 0.5


def test_estimate_fingerprint_argument_checks():
    pics = [Picture(luma=np.full((32, 32), 100, dtype=np.uint8))]
    with pytest.raises(EmptyAccumulator):
        estimate_fingerprint([], None, SchemeConfig("conventional"))
    with pytest.raises(DimensionMismatch):
        estimate_fingerprint(pics, None, SchemeConfig("skip_eliminate"))
    with pytest.raises(DimensionMismatch):
        estimate_fingerprint(pics, [], SchemeConfig("conventional"))
    with pytest.raises(DimensionMismatch):
        fingerprint_from_residuals(pics, None, [], SchemeConfig("conventional"))


def test_estimate_worker_count_does_not_change_result():
    rng = np.random.default_rng(6)
    model = SensorModel.random(32, 32, k_strength=0.04, seed=22)
    clean = [np.full((32, 32), 110.0) for _ in range(6)]
    pictures = simulate_capture(model, clean, seed=23)
    one = estimate_fingerprint(pictures, None, SchemeConfig("conventional"),
                               workers=1)
    two = estimate_fingerprint(pictures, None, SchemeConfig("conventional"),
                               workers=2)
    assert np.array_equal(one.k_values, two.k_values)
    assert np.array_equal(one.support, two.support)


def test_fingerprint_file_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    # float32-representable samples survive the on-disk cast unchanged
    k = rng.normal(size=(5, 5)).astype(np.float32).astype(np.float64)
    support = rng.uniform(size=(5, 5)) > 0.3  # 25 bits, not byte-aligned
    fp = Fingerprint(k_values=k, support=support, source_id="camera-α")
    path = tmp_path / "fp.bpf"
    write_fingerprint(fp, path)
    back = read_fingerprint(path)
    assert np.array_equal(back.k_values, k)
    assert np.array_equal(back.support, support)
    assert back.source_id == "camera-α"
    # a second write of the reread print is byte-identical
    again = tmp_path / "fp2.bpf"
    write_fingerprint(back, again)
    assert path.read_bytes() == again.read_bytes()


def test_fingerprint_file_errors(tmp_path):
    from blockprnu import SchemaError

    good = tmp_path / "ok.bpf"
    write_fingerprint(Fingerprint(k_values=np.zeros((2, 2)),
                                  support=np.ones((2, 2), bool),
                                  source_id="x"), good)
    blob = good.read_bytes()

    cases = {
        "magic.bpf": b"JUNK" + blob[4:],
        "header.bpf": blob[:9],
        "sid.bpf": blob[:17],
        "samples.bpf": blob[:-3],
        "bitmap.bpf": blob + b"\x00",
    }
    for name, data in cases.items():
        p = tmp_path / name
        p.write_bytes(data)
        with pytest.raises(SchemaError):
            read_fingerprint(p)
