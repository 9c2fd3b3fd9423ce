"""Residual splicing and weight-table calibration."""

import numpy as np
import pytest

from blockprnu import (
    BlockRecord,
    CalibrationRun,
    CalibrationVideo,
    CodecConfig,
    EmptyBucket,
    FrameBlockMap,
    InsufficientData,
    InsufficientFrames,
    MissingAnchor,
    NoiseResidual,
    SchemeConfig,
    SensorModel,
    build_lambda_rate_table,
    build_qp_table,
    calibrate_lambda_rate,
    calibrate_qp,
    encode_sequence,
    estimate_fingerprint,
    quantile_bucket_edges,
    simulate_capture,
    splice_by_lambda_rate,
    synthetic_clean_frames,
)

MB = 16


def residual_of(grid_values):
    """Plane whose 16x16 blocks are constant at the given (gh, gw) values."""
    grid = np.asarray(grid_values, dtype=np.float64)
    plane = np.repeat(np.repeat(grid, MB, 0), MB, 1)
    return NoiseResidual(values=plane, frame_idx=0)


def map_with_bits(frame_idx, bits_row, types_row=None):
    """1 x len(bits_row) grid at qp 12 so lambda*rate equals the bit count."""
    types_row = types_row or ["P"] * len(bits_row)
    recs = [BlockRecord(frame_idx, x, 0, t, 12, b)
            for x, (t, b) in enumerate(zip(types_row, bits_row))]
    return FrameBlockMap(frame_idx, len(bits_row), 1, recs)


def test_splice_needs_two_frames():
    res = residual_of([[1.0]])
    fmap = map_with_bits(0, [10])
    with pytest.raises(InsufficientFrames):
        splice_by_lambda_rate([res], [fmap])
    with pytest.raises(InsufficientFrames):
        splice_by_lambda_rate([res, res], [fmap])


def test_splice_ties_keep_frame_order():
    residuals = [residual_of([[float(t + 1), float(t + 1)]]) for t in range(3)]
    maps = [map_with_bits(t, [40, 40]) for t in range(3)]
    spliced = splice_by_lambda_rate(residuals, maps)
    assert spliced.grid_h == 1 and spliced.grid_w == 2
    for j, frame in enumerate(spliced.frames):
        assert np.all(frame.values == j + 1.0)
        assert frame.filled.all()
        assert frame.mean_lambda_rate == 40.0


def test_splice_hand_grid_matches_per_position_sort():
    # position 0 costs per frame: 30, 10, 20 -> ranks frames (1, 2, 0)
    # position 1 costs per frame:  5, 50, 40 -> ranks frames (0, 2, 1)
    costs = [[30, 5], [10, 50], [20, 40]]
    residuals = [residual_of([[10.0 * t, 10.0 * t + 1]]) for t in range(3)]
    maps = [map_with_bits(t, costs[t]) for t in range(3)]
    spliced = splice_by_lambda_rate(residuals, maps)

    def block(frame, pos):
        v = frame.values[0:MB, pos * MB:(pos + 1) * MB]
        assert np.ptp(v) == 0.0
        return v[0, 0]

    assert block(spliced.frames[0], 0) == 10.0   # frame 1's block
    assert block(spliced.frames[1], 0) == 20.0   # frame 2's block
    assert block(spliced.frames[2], 0) == 0.0    # frame 0's block
    assert block(spliced.frames[0], 1) == 1.0
    assert block(spliced.frames[1], 1) == 21.0
    assert block(spliced.frames[2], 1) == 11.0
    assert spliced.frames[0].mean_lambda_rate == pytest.approx((10 + 5) / 2)
    assert spliced.frames[1].mean_lambda_rate == pytest.approx((20 + 40) / 2)
    assert spliced.frames[2].mean_lambda_rate == pytest.approx((30 + 50) / 2)


def test_splice_skip_exclusion_leaves_holes():
    residuals = [residual_of([[float(t + 1)]]) for t in range(3)]
    maps = [
        map_with_bits(0, [30]),
        map_with_bits(1, [1], ["SKIP"]),
        map_with_bits(2, [20]),
    ]
    spliced = splice_by_lambda_rate(residuals, maps, include_skip=False)
    assert spliced.frames[0].values[0, 0] == 3.0   # frame 2, cheaper coded block
    assert spliced.frames[1].values[0, 0] == 1.0
    assert not spliced.frames[2].filled.any()      # only two coded contributions
    assert np.all(spliced.frames[2].values == 0.0)
    assert np.isnan(spliced.frames[2].mean_lambda_rate)

    kept = splice_by_lambda_rate(residuals, maps, include_skip=True)
    # the skip block's lambda*rate is tiny, so it ranks first
    assert kept.frames[0].values[0, 0] == 2.0
    assert kept.frames[2].filled.all()


def test_splice_conserves_blocks_and_orders_costs():
    rng = np.random.default_rng(0)
    n, gh, gw = 5, 3, 4
    residuals = [NoiseResidual(values=rng.normal(size=(gh * MB, gw * MB)),
                               frame_idx=t) for t in range(n)]
    maps = []
    for t in range(n):
        recs = [BlockRecord(t, x, y, "P", 12, int(rng.integers(8, 500)))
                for y in range(gh) for x in range(gw)]
        maps.append(FrameBlockMap(t, gw, gh, recs))
    spliced = splice_by_lambda_rate(residuals, maps, include_skip=True)
    total_in = sum(r.values for r in residuals)
    total_out = sum(f.values for f in spliced.frames)
    assert np.allclose(total_in, total_out, atol=1e-12)
    assert all(f.filled.all() for f in spliced.frames)
    costs = [f.mean_lambda_rate for f in spliced.frames]
    assert all(a <= b for a, b in zip(costs, costs[1:]))


def test_qp_table_single_camera_square_root():
    runs = [CalibrationRun("a", samples=[(15.0, 400.0), (30.0, 100.0)])]
    table, report = build_qp_table(runs)
    assert table.scheme == "qp_noskip"
    assert table.keys.size == 52
    assert table.weight_exact(15) == 1.0
    assert table.weight_exact(30) == pytest.approx(0.5, abs=1e-12)
    # densification interpolates between observed QPs and clamps outside
    assert table.weight_exact(20) == pytest.approx(1.0 - (5 / 15) * 0.5)
    assert table.weight_exact(0) == 1.0
    assert table.weight_exact(51) == pytest.approx(0.5, abs=1e-12)
    assert "a,15,400.0,1.0" in report
    assert "a,30,100.0,0.25" in report


def test_qp_table_averages_across_cameras_then_roots():
    runs = [
        CalibrationRun("a", samples=[(15.0, 100.0), (30.0, 64.0)]),
        CalibrationRun("b", samples=[(15.0, 200.0), (30.0, 72.0)]),
    ]
    table, _ = build_qp_table(runs)
    # norms 0.64 and 0.36 average to 0.5
    assert table.weight_exact(30) == pytest.approx(np.sqrt(0.5), abs=1e-9)
    assert table.weight_exact(15) == 1.0


def test_qp_table_repeated_conditions_average():
    runs = [CalibrationRun("a", samples=[(15.0, 100.0), (30.0, 100.0),
                                         (30.0, 300.0)])]
    table, _ = build_qp_table(runs)
    assert table.weight_exact(30) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_qp_table_floors_nonpositive_pce():
    runs = [CalibrationRun("a", samples=[(15.0, 1000.0), (20.0, -4.0)])]
    table, _ = build_qp_table(runs)
    assert table.weight_exact(20) == pytest.approx(1e-3, abs=1e-15)


def test_qp_table_error_cases():
    with pytest.raises(InsufficientData):
        build_qp_table([])
    with pytest.raises(InsufficientData):
        build_qp_table([CalibrationRun("a")])
    with pytest.raises(MissingAnchor):
        build_qp_table([CalibrationRun("a", samples=[(30.0, 10.0)])])


def test_quantile_bucket_edges():
    edges = quantile_bucket_edges(list(range(101)), n_buckets=4)
    assert np.allclose(edges, [0, 25, 50, 75, 100])
    with pytest.raises(InsufficientData):
        quantile_bucket_edges([])


def test_lambda_rate_table_anchor_insertion():
    runs = [CalibrationRun("a", samples=[(20.0, 100.0), (30.0, 100.0),
                                         (65.0, 400.0), (70.0, 400.0)])]
    edges = np.array([0.0, 40.0, 80.0])
    table, report = build_lambda_rate_table(runs, edges)
    assert table.scheme == "lambda_r"
    # bucket means keyed by member means, anchor 60 inserted exactly
    assert np.allclose(table.keys, [25.0, 60.0, 67.5])
    assert table.weight_exact(25.0) == pytest.approx(0.5, abs=1e-12)
    assert table.weight_exact(60.0) == 1.0
    assert table.weight_exact(67.5) == 1.0
    assert "a,0,100.0,0.25" in report
    assert "a,1,400.0,1.0" in report


def test_lambda_rate_table_cross_camera():
    runs = [
        CalibrationRun("a", samples=[(20.0, 16.0), (60.0, 100.0)]),
        CalibrationRun("b", samples=[(30.0, 64.0), (60.0, 100.0)]),
    ]
    edges = np.array([0.0, 40.0, 80.0])
    table, _ = build_lambda_rate_table(runs, edges)
    assert table.weight_exact(25.0) == pytest.approx(np.sqrt(0.4), abs=1e-12)


def test_lambda_rate_table_error_cases():
    edges = np.array([0.0, 40.0, 80.0])
    with pytest.raises(InsufficientData):
        build_lambda_rate_table([], edges)
    with pytest.raises(InsufficientData):
        build_lambda_rate_table([CalibrationRun("a")], edges)
    with pytest.raises(InsufficientData):
        build_lambda_rate_table(
            [CalibrationRun("a", samples=[(float("inf"), 5.0)])], edges)
    with pytest.raises(InsufficientData):
        build_lambda_rate_table([CalibrationRun("a", samples=[(60.0, 1.0)])],
                                np.array([40.0]))
    with pytest.raises(EmptyBucket):
        build_lambda_rate_table(
            [CalibrationRun("a", samples=[(20.0, 5.0)])], edges)


@pytest.fixture(scope="module")
def camera_setup():
    model = SensorModel.random(64, 64, k_strength=0.05, seed=30)
    clean = synthetic_clean_frames(64, 64, 20, seed=31)
    bright = [np.full((64, 64), 130.0)] * 20
    ref_pics = simulate_capture(model, bright, seed=32)
    reference = estimate_fingerprint(ref_pics, None,
                                     SchemeConfig("conventional"),
                                     source_id="cam")
    return model, clean, reference


def video_at_qp(model, clean, qp, seed):
    captured = simulate_capture(model, clean[:8], seed=seed)
    result = encode_sequence(captured, CodecConfig(qp=qp))
    return CalibrationVideo(camera_id="cam", pictures=result.pictures,
                            trace=result.trace, qp=qp)


def test_calibrate_qp_end_to_end(camera_setup):
    model, clean, reference = camera_setup
    videos = [video_at_qp(model, clean, 15, 33),
              video_at_qp(model, clean, 30, 34)]
    table, report = calibrate_qp(videos, {"cam": reference},
                                 include_skip=False)
    assert table.scheme == "qp_noskip"
    assert table.weight_exact(15) == 1.0
    assert 0.0 <= table.weight_exact(30) < 1.0  # coarser QP erodes the pattern
    assert len(report) == 2

    all_blocks, _ = calibrate_qp(videos, {"cam": reference}, include_skip=True)
    assert all_blocks.scheme == "qp_all"


def test_calibrate_qp_input_checks(camera_setup):
    model, clean, reference = camera_setup
    video = video_at_qp(model, clean, 15, 35)
    with pytest.raises(InsufficientData):
        calibrate_qp([video], {}, include_skip=False)
    bare = CalibrationVideo(camera_id="cam", pictures=video.pictures,
                            trace=video.trace, qp=None)
    with pytest.raises(InsufficientData):
        calibrate_qp([bare], {"cam": reference}, include_skip=False)


def test_calibrate_lambda_rate_end_to_end(camera_setup):
    model, clean, reference = camera_setup
    videos = [video_at_qp(model, clean, 10, 36),
              video_at_qp(model, clean, 25, 37)]
    table, report = calibrate_lambda_rate(videos, {"cam": reference},
                                          n_buckets=3)
    assert table.scheme == "lambda_r"
    assert table.weight_exact(60.0) == 1.0
    assert np.all(np.diff(table.keys) > 0)
    assert np.all(table.weights >= 0)
    for line in report:
        cam, bucket, raw, norm = line.split(",")
        assert cam == "cam"
        float(raw), float(norm)

    with pytest.raises(InsufficientData):
        calibrate_lambda_rate(videos, {}, n_buckets=3)


def test_calibrate_lambda_rate_worker_invariance(camera_setup, pool_spawns,
                                                 tmp_path):
    model, clean, reference = camera_setup
    videos = [video_at_qp(model, clean, 10, 36),
              video_at_qp(model, clean, 25, 37)]
    outputs = []
    for workers in (1, 2):
        table, report = calibrate_lambda_rate(videos, {"cam": reference},
                                              n_buckets=3, workers=workers)
        path = tmp_path / f"w{workers}.wt"
        table.save(path)
        outputs.append((path.read_bytes(), report))
    assert outputs[0] == outputs[1]
    assert pool_spawns == [2]  # one pool for both videos, none at workers=1


def test_spliced_frames_keep_the_frame_shape():
    # 24x40 frames: a 2x3 grid rounded up has a partial last block row and
    # column, padded for the ranking and cropped again; a 1x2 floor grid
    # leaves the pixels beyond it zero, so spliced frames still match a
    # full-size reference
    costs = [[[30, 5, 7], [1, 2, 3]], [[10, 50, 9], [3, 2, 1]]]
    residuals = [NoiseResidual(values=residual_of([[t + 1.0] * 3] * 2)
                               .values[:24, :40], frame_idx=t)
                 for t in range(2)]

    def maps(gh, gw):
        return [FrameBlockMap(t, gw, gh,
                              [BlockRecord(t, x, y, "P", 12, costs[t][y][x])
                               for y in range(gh) for x in range(gw)])
                for t in range(2)]

    first = splice_by_lambda_rate(residuals, maps(2, 3)).frames[0].values
    assert first.shape == (24, 40)
    # rank 0 takes frame 1 at (0, 0) and (1, 2), frame 0 elsewhere
    assert np.all(first[:16, :16] == 2.0)
    assert np.all(first[16:, 32:] == 2.0)
    assert np.all(first[16:, :16] == 1.0)
    assert np.all(first[:16, 32:] == 1.0)

    first = splice_by_lambda_rate(residuals, maps(1, 2)).frames[0].values
    assert first.shape == (24, 40)
    assert np.all(first[:16, :16] == 2.0)
    assert np.all(first[:16, 16:32] == 1.0)
    assert not first[16:].any() and not first[:, 32:].any()
