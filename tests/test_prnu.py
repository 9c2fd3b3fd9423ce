"""Fingerprint accumulation, finalization, file format, and the pipeline."""

import numpy as np
import pytest

from blockprnu import (
    SCHEMES,
    AllMaskedOut,
    BlockRecord,
    ConfigError,
    DimensionMismatch,
    EmptyAccumulator,
    Fingerprint,
    FingerprintAccumulator,
    MissingKey,
    SchemeConfig,
    SensorModel,
    TraceFile,
    WeightTable,
    estimate_fingerprint,
    finalize,
    fingerprint_from_residuals,
    lambda_grid,
    paint_blocks,
    read_fingerprint,
    saturation_mask,
    simulate_capture,
    skipped_block_rate,
    write_fingerprint,
)
from blockprnu import prnu
from blockprnu.trace import SKIP
from conftest import uniform_trace


def ingest(acc, luma, residual, mask):
    acc.accumulate(luma.astype(np.uint8), residual, mask)


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


def test_accumulator_shape_checks():
    acc = FingerprintAccumulator(8, 8)
    with pytest.raises(DimensionMismatch):
        ingest(acc, np.full((8, 8), 100), np.zeros((4, 4)), np.ones((8, 8)))
    with pytest.raises(DimensionMismatch):
        ingest(acc, np.full((4, 4), 100), np.zeros((8, 8)), np.ones((8, 8)))
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
    pics = np.full((1, 32, 32), 100, dtype=np.uint8)
    with pytest.raises(EmptyAccumulator):
        estimate_fingerprint([], None, SchemeConfig("conventional"))
    with pytest.raises(DimensionMismatch):
        estimate_fingerprint(pics, None, SchemeConfig("skip_eliminate"))
    with pytest.raises(DimensionMismatch):
        estimate_fingerprint(pics, uniform_trace(2, 2, 2),
                             SchemeConfig("conventional"))
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


# ---------------------------------------------------------------------------
# the stacked mask path against the per-frame loop it replaced
# ---------------------------------------------------------------------------

def _per_frame_fingerprint(pictures, trace, residuals, config):
    """Oracle: each frame's block weights from that frame's grids alone,
    painted, accumulated in frame order and finalized; no trace gives
    masks of ones."""
    h, w = pictures[0].shape
    rule = SCHEMES[config.scheme]
    acc = FingerprintAccumulator(h, w)
    for i, (pic, residual) in enumerate(zip(pictures, residuals)):
        if trace is None:
            mask = np.ones((h, w))
        else:
            qp, bits = trace.qp[i], trace.bits[i].astype(np.float64)
            if rule.lookup is None:
                weights = np.ones(qp.shape)
            elif config.scheme == "lambda_r":
                weights = config.table.weight_interp(lambda_grid(qp) * bits)
            else:
                weights = np.array([[config.table.weight_exact(q) for q in row]
                                    for row in qp])
            if rule.zero_skip:
                weights = np.where(trace.type_code[i] == SKIP, 0.0, weights)
            mask = paint_blocks(weights, (h, w))
        acc.accumulate(pic, residual, mask, saturation_mask(pic))
    return finalize(acc)


def _skipped_trace(rng, frames, qp_of=None):
    """40x24 frames on a ceil-sized 3x2 grid, with skips, QPs 20..30."""
    records = []
    for f in range(frames):
        for y in range(2):
            for x in range(3):
                qp = int(rng.integers(20, 31)) if qp_of is None else qp_of(f, x, y)
                if rng.random() < 0.3:
                    records.append(BlockRecord(f, x, y, "SKIP", qp, 1))
                else:
                    records.append(BlockRecord(f, x, y, "P", qp,
                                               int(rng.integers(20, 900))))
    return TraceFile(40, 24, frames, records)


def _pictures_and_residuals(rng, frames):
    pictures = np.stack([rng.integers(0, 256, size=(24, 40)).astype(np.uint8)
                         for _ in range(frames)])
    residuals = [rng.normal(size=(24, 40)) for _ in range(frames)]
    return pictures, residuals


def _tables(rng):
    keys = np.arange(20.0, 31.0)
    weights = rng.uniform(0.2, 1.5, size=keys.size)
    weights[keys == 25.0] = 1.0
    return {
        "qp_all": WeightTable("qp_all", keys, weights, 25.0),
        "qp_noskip": WeightTable("qp_noskip", keys, weights, 25.0),
        "lambda_r": WeightTable("lambda_r", [10.0, 60.0, 300.0, 900.0],
                                [0.3, 1.0, 1.4, 1.7], 60.0),
    }


def test_stacked_masks_match_the_per_frame_loop_for_every_scheme():
    rng = np.random.default_rng(41)
    trace = _skipped_trace(rng, 5)
    assert (trace.grid_h, trace.grid_w) == (2, 3) and trace.skip.any()
    pictures, residuals = _pictures_and_residuals(rng, 5)
    tables = _tables(rng)
    for scheme in SCHEMES:
        config = SchemeConfig(scheme, tables.get(scheme))
        got = fingerprint_from_residuals(pictures, trace, residuals, config)
        want = _per_frame_fingerprint(pictures, trace, residuals, config)
        assert np.array_equal(got.k_values, want.k_values), scheme
        assert np.array_equal(got.support, want.support), scheme
        if SCHEMES[scheme].lookup is None and not SCHEMES[scheme].zero_skip:
            got = fingerprint_from_residuals(pictures, None, residuals, config)
            want = _per_frame_fingerprint(pictures, None, residuals, config)
            assert np.array_equal(got.k_values, want.k_values), scheme
            assert np.array_equal(got.support, want.support), scheme


def test_skipped_block_rate_matches_the_per_frame_loop():
    trace = _skipped_trace(np.random.default_rng(42), 7)
    total = skipped = 0
    for i in range(trace.frame_count):
        total += trace.type_code[i].size
        skipped += int((trace.type_code[i] == SKIP).sum())
    assert skipped_block_rate(trace) == skipped / total


def test_missing_qp_is_raised_before_any_frame_is_accumulated(monkeypatch):
    rng = np.random.default_rng(43)
    # frame 1 holds qp 35 and frame 3 qp 32, both missing from the table
    missing = {(1, 2, 0): 35, (3, 0, 1): 32}
    trace = _skipped_trace(rng, 4, lambda f, x, y: missing.get((f, x, y), 25))
    pictures, residuals = _pictures_and_residuals(rng, 4)
    accumulated = []
    monkeypatch.setattr(prnu.FingerprintAccumulator, "accumulate",
                        lambda self, *args: accumulated.append(args))
    for scheme in ("qp_all", "qp_noskip"):
        config = SchemeConfig(scheme, _tables(rng)[scheme])
        with pytest.raises(MissingKey, match="qp 32$"):
            fingerprint_from_residuals(pictures, trace, residuals, config)
    assert accumulated == []


def test_stack_trace_and_table_are_checked_before_any_extraction(monkeypatch):
    extracted = []
    monkeypatch.setattr(prnu, "extract_residual",
                        lambda luma, config: extracted.append(luma))
    conventional = SchemeConfig("conventional")
    with pytest.raises(DimensionMismatch, match="2-D"):
        estimate_fingerprint(np.zeros((32, 32), np.uint8), None, conventional)
    with pytest.raises(ConfigError, match="uint8"):
        estimate_fingerprint(np.zeros((1, 32, 32)), None, conventional)
    rng = np.random.default_rng(44)
    trace = _skipped_trace(rng, 4, lambda f, x, y: 35 if f == 2 else 25)
    pictures, _ = _pictures_and_residuals(rng, 4)
    qp_all = SchemeConfig("qp_all", _tables(rng)["qp_all"])
    with pytest.raises(MissingKey, match="qp 35$"):
        estimate_fingerprint(pictures, trace, qp_all)
    with pytest.raises(DimensionMismatch, match="3 pictures vs 4 trace"):
        estimate_fingerprint(pictures[:3], trace, conventional)
    assert extracted == []
