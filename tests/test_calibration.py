"""Residual splicing and weight-table calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockprnu import (
    AllMaskedOut,
    BlockRecord,
    CalibrationRun,
    CodecConfig,
    ConfigError,
    DimensionMismatch,
    EmptyBucket,
    InsufficientData,
    InsufficientFrames,
    MissingAnchor,
    RangeError,
    SchemeConfig,
    SensorModel,
    TraceFile,
    Video,
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
from blockprnu import evaluation, matching, prnu
from blockprnu.calibration import PCE_FLOOR, QP_RANGE, _bucket_index
from blockprnu.weighting import WeightTable
from conftest import CountingFft, uniform_trace

MB = 16


def residual_of(grid_values):
    """Plane whose 16x16 blocks are constant at the given (gh, gw) values."""
    grid = np.asarray(grid_values, dtype=np.float64)
    plane = np.repeat(np.repeat(grid, MB, 0), MB, 1)
    return plane


def map_with_bits(frame_idx, bits_row, types_row=None):
    """Records of a 1 x len(bits_row) grid at qp 12 so lambda*rate equals
    the bit count."""
    types_row = types_row or ["P"] * len(bits_row)
    return [BlockRecord(frame_idx, x, 0, t, 12, b)
            for x, (t, b) in enumerate(zip(types_row, bits_row))]


def trace_of(maps):
    """Trace whose frame t holds the records maps[t], 16 pixels per block."""
    grid_w = 1 + max(r.mb_x for r in maps[0])
    grid_h = 1 + max(r.mb_y for r in maps[0])
    return TraceFile(grid_w * MB, grid_h * MB, len(maps),
                     [r for recs in maps for r in recs])


def test_splice_needs_two_frames():
    res = residual_of([[1.0]])
    fmap = map_with_bits(0, [10])
    with pytest.raises(InsufficientFrames):
        splice_by_lambda_rate([res], trace_of([fmap]))
    with pytest.raises(InsufficientFrames):
        splice_by_lambda_rate([res, res], trace_of([fmap]))


def test_splice_refuses_residuals_of_another_shape():
    maps = [map_with_bits(t, [10]) for t in range(2)]
    small, large = residual_of([[1.0]]), residual_of([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DimensionMismatch, match=r"\(32, 32\) vs \(16, 16\)"):
        splice_by_lambda_rate([small, large], trace_of(maps))


def test_splice_reads_a_stream_once_in_frame_order():
    # a generator is consumed once, frame by frame, and gives what a list
    # of the same residuals gives
    rng = np.random.default_rng(5)
    residuals = [rng.normal(size=(32, 48)) for t in range(4)]
    maps = [[BlockRecord(t, x, y, "P", 12, int(rng.integers(8, 500)))
             for y in range(2) for x in range(3)] for t in range(4)]
    read = []
    stream = (read.append(t) or r for t, r in enumerate(residuals))
    streamed = splice_by_lambda_rate(stream, trace_of(maps))
    listed = splice_by_lambda_rate(residuals, trace_of(maps))
    assert read == [0, 1, 2, 3]
    assert np.array_equal(streamed.values, listed.values)
    with pytest.raises(InsufficientFrames, match="^3 residuals vs 4 trace"):
        splice_by_lambda_rate(iter(residuals[:3]), trace_of(maps))
    with pytest.raises(InsufficientFrames, match="^5 residuals vs 4 trace"):
        splice_by_lambda_rate(residuals + residuals[:1], trace_of(maps))


def test_splice_ties_keep_frame_order():
    residuals = [residual_of([[float(t + 1), float(t + 1)]]) for t in range(3)]
    maps = [map_with_bits(t, [40, 40]) for t in range(3)]
    spliced = splice_by_lambda_rate(residuals, trace_of(maps))
    assert spliced.filled.shape == (3, 1, 2)
    for j in range(3):
        assert np.all(spliced.values[j] == j + 1.0)
        assert spliced.filled[j].all()
        assert spliced.mean_lambda_rate[j] == 40.0


def test_splice_hand_grid_matches_per_position_sort():
    # position 0 costs per frame: 30, 10, 20 -> ranks frames (1, 2, 0)
    # position 1 costs per frame:  5, 50, 40 -> ranks frames (0, 2, 1)
    costs = [[30, 5], [10, 50], [20, 40]]
    residuals = [residual_of([[10.0 * t, 10.0 * t + 1]]) for t in range(3)]
    maps = [map_with_bits(t, costs[t]) for t in range(3)]
    spliced = splice_by_lambda_rate(residuals, trace_of(maps))

    def block(values, pos):
        v = values[0:MB, pos * MB:(pos + 1) * MB]
        assert np.ptp(v) == 0.0
        return v[0, 0]

    assert block(spliced.values[0], 0) == 10.0   # frame 1's block
    assert block(spliced.values[1], 0) == 20.0   # frame 2's block
    assert block(spliced.values[2], 0) == 0.0    # frame 0's block
    assert block(spliced.values[0], 1) == 1.0
    assert block(spliced.values[1], 1) == 21.0
    assert block(spliced.values[2], 1) == 11.0
    assert spliced.mean_lambda_rate[0] == pytest.approx((10 + 5) / 2)
    assert spliced.mean_lambda_rate[1] == pytest.approx((20 + 40) / 2)
    assert spliced.mean_lambda_rate[2] == pytest.approx((30 + 50) / 2)


def test_splice_skip_exclusion_leaves_holes():
    residuals = [residual_of([[float(t + 1)]]) for t in range(3)]
    maps = [
        map_with_bits(0, [30]),
        map_with_bits(1, [1], ["SKIP"]),
        map_with_bits(2, [20]),
    ]
    spliced = splice_by_lambda_rate(residuals, trace_of(maps),
                                    include_skip=False)
    assert spliced.values[0][0, 0] == 3.0   # frame 2, cheaper coded block
    assert spliced.values[1][0, 0] == 1.0
    assert not spliced.filled[2].any()      # only two coded contributions
    assert np.all(spliced.values[2] == 0.0)
    assert np.isnan(spliced.mean_lambda_rate[2])

    kept = splice_by_lambda_rate(residuals, trace_of(maps), include_skip=True)
    # the skip block's lambda*rate is tiny, so it ranks first
    assert kept.values[0][0, 0] == 2.0
    assert kept.filled[2].all()


def test_splice_conserves_blocks_and_orders_costs():
    rng = np.random.default_rng(0)
    n, gh, gw = 5, 3, 4
    residuals = [rng.normal(size=(gh * MB, gw * MB)) for t in range(n)]
    maps = []
    for t in range(n):
        recs = [BlockRecord(t, x, y, "P", 12, int(rng.integers(8, 500)))
                for y in range(gh) for x in range(gw)]
        maps.append(recs)
    spliced = splice_by_lambda_rate(residuals, trace_of(maps),
                                    include_skip=True)
    total_in = sum(residuals)
    total_out = sum(spliced.values)
    assert np.allclose(total_in, total_out, atol=1e-12)
    assert spliced.filled.all()
    costs = list(spliced.mean_lambda_rate)
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
    for buckets in (-3, 0):
        with pytest.raises(ConfigError,
                           match=f"^need at least one bucket, got {buckets}$"):
            quantile_bucket_edges([1.0, 2.0], buckets)


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


# ---------------------------------------------------------------------------
# the shared fit against the two separate builders it replaced
# ---------------------------------------------------------------------------

def oracle_qp_table(runs, anchor_qp=15, scheme="qp_noskip"):
    """The QP builder before the shared fit, kept as the oracle."""
    if not runs or all(not r.samples for r in runs):
        raise InsufficientData("no QP observations")
    report = []
    normalized = {}
    for run in sorted(runs, key=lambda r: r.camera_id):
        by_qp = {}
        for key, value in run.samples:
            by_qp.setdefault(int(round(key)), []).append(max(value, PCE_FLOOR))
        means = {q: float(np.mean(v)) for q, v in by_qp.items()}
        if anchor_qp not in means:
            raise MissingAnchor(f"camera {run.camera_id} has no qp={anchor_qp} "
                                f"observation")
        anchor_value = means[anchor_qp]
        for q in sorted(means):
            norm = means[q] / anchor_value
            normalized.setdefault(q, []).append(norm)
            report.append(f"{run.camera_id},{q},{means[q]!r},{norm!r}")
    keys = np.array(sorted(normalized), dtype=np.float64)
    weights = np.array([np.sqrt(np.mean(normalized[int(q)])) for q in keys])
    anchor_pos = int(np.flatnonzero(keys == anchor_qp)[0])
    weights[anchor_pos] = 1.0
    dense = np.interp(QP_RANGE.astype(np.float64), keys, weights)
    table = WeightTable(scheme=scheme, keys=QP_RANGE.astype(np.float64),
                        weights=dense, anchor_key=float(anchor_qp))
    return table, report


def oracle_lambda_rate_table(runs, bucket_edges, anchor_lr=60.0):
    """The lambda*rate builder before the shared fit, kept as the oracle."""
    if not runs or all(not r.samples for r in runs):
        raise InsufficientData("no lambda*rate observations")
    edges = np.asarray(bucket_edges, dtype=np.float64)
    n_buckets = edges.size - 1
    if n_buckets < 1:
        raise InsufficientData("need at least one bucket")
    anchor_bucket = int(_bucket_index(edges, [anchor_lr])[0])
    report = []
    normalized = {}
    centers_pool = {}
    for run in sorted(runs, key=lambda r: r.camera_id):
        clean = [(lr, max(p, PCE_FLOOR)) for lr, p in run.samples
                 if np.isfinite(lr)]
        if not clean:
            continue
        lrs = np.array([c[0] for c in clean])
        pces = np.array([c[1] for c in clean])
        buckets = _bucket_index(edges, lrs)
        means = {}
        for b in np.unique(buckets):
            sel = buckets == b
            means[int(b)] = float(pces[sel].mean())
            centers_pool.setdefault(int(b), []).extend(lrs[sel].tolist())
        if anchor_bucket not in means:
            raise EmptyBucket(f"camera {run.camera_id} has no sample in the "
                              f"anchor bucket (lambda*rate {anchor_lr})")
        anchor_value = means[anchor_bucket]
        for b in sorted(means):
            norm = means[b] / anchor_value
            normalized.setdefault(b, []).append(norm)
            report.append(f"{run.camera_id},{b},{means[b]!r},{norm!r}")
    if not normalized:
        raise InsufficientData("no usable lambda*rate observations")
    keys = []
    weights = []
    for b in sorted(normalized):
        keys.append(float(np.mean(centers_pool[b])))
        weights.append(float(np.sqrt(np.mean(normalized[b]))))
    keys = np.array(keys)
    weights = np.array(weights)
    if anchor_lr in keys:
        weights[keys == anchor_lr] = 1.0
    else:
        pos = int(np.searchsorted(keys, anchor_lr))
        keys = np.insert(keys, pos, anchor_lr)
        weights = np.insert(weights, pos, 1.0)
    table = WeightTable(scheme="lambda_r", keys=keys, weights=weights,
                        anchor_key=float(anchor_lr))
    return table, report


def outcome(build, *args):
    """The table text and report lines of a build, or its error's type and
    message."""
    try:
        table, report = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return table.to_text(), report


PCES = st.one_of(st.floats(-50.0, 5000.0), st.sampled_from([0.0, -3.0]))
CAMERAS = st.lists(st.sampled_from("abc"), min_size=1, max_size=3,
                   unique=True)


@settings(max_examples=300, deadline=None)
@given(cameras=CAMERAS, data=st.data())
def test_qp_fit_matches_the_separate_builder(cameras, data):
    # repeated QPs, non-positive PCE and cameras without a QP-15 sample;
    # the one difference is a run without samples, which the fit skips
    qps = st.sampled_from([15.0, 15.0, 0.0, 24.0, 33.0, 51.0])
    runs = [CalibrationRun(cam, data.draw(st.lists(st.tuples(qps, PCES),
                                                   max_size=6)))
            for cam in cameras]
    got = outcome(build_qp_table, runs)
    sampled = [r for r in runs if r.samples]
    if sampled and len(sampled) < len(runs):
        assert outcome(oracle_qp_table, runs)[0] is MissingAnchor
        assert got == outcome(oracle_qp_table, sampled)
    else:
        assert got == outcome(oracle_qp_table, runs)


@settings(max_examples=300, deadline=None)
@given(cameras=CAMERAS, buckets=st.integers(1, 5), data=st.data())
def test_lambda_rate_fit_matches_the_separate_builder(cameras, buckets, data):
    # the oracle also drops non-finite keys and skips a run left without
    # samples, so no input differs; edges are the drivers' quantiles
    # where any key is finite
    keys = st.one_of(st.floats(1.0, 600.0), st.sampled_from(
        [60.0, float("inf"), float("-inf"), float("nan")]))
    runs = [CalibrationRun(cam, data.draw(st.lists(st.tuples(keys, PCES),
                                                   max_size=8)))
            for cam in cameras]
    finite = [k for r in runs for k, _ in r.samples if np.isfinite(k)]
    edges = (quantile_bucket_edges(finite, buckets) if finite
             else np.linspace(0.0, 600.0, buckets + 1))
    assert (outcome(build_lambda_rate_table, runs, edges)
            == outcome(oracle_lambda_rate_table, runs, edges))


def test_qp_fit_skips_a_camera_without_samples():
    runs = [CalibrationRun("a", samples=[(15.0, 400.0), (30.0, 100.0)]),
            CalibrationRun("b")]
    with pytest.raises(MissingAnchor, match="^camera b has no qp=15 "):
        oracle_qp_table(runs)
    table, report = build_qp_table(runs)
    assert table.weight_exact(30) == pytest.approx(0.5, abs=1e-12)
    assert report == ["a,15,400.0,1.0", "a,30,100.0,0.25"]


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
    return Video(result.pictures, result.trace, "cam", qp=qp)


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


def test_calibrate_qp_worker_invariance(camera_setup, pool_spawns,
                                       tmp_path):
    model, clean, reference = camera_setup
    videos = [video_at_qp(model, clean, 15, 33),
              video_at_qp(model, clean, 30, 34)]
    outputs = []
    for workers in (1, 2):
        table, report = calibrate_qp(videos, {"cam": reference},
                                     include_skip=False, workers=workers)
        path = tmp_path / f"w{workers}.wt"
        table.save(path)
        outputs.append((path.read_bytes(), report))
    assert outputs[0] == outputs[1]
    assert pool_spawns == [2]  # one pool for both videos, none at workers=1


def test_calibrate_qp_raises_the_first_error_before_the_next_video(
        camera_setup, monkeypatch):
    # an all-skip trace leaves the coded-only fingerprint without support
    model, clean, reference = camera_setup
    video = video_at_qp(model, clean, 15, 33)
    skipped = Video(video.pictures, uniform_trace(8, 4, 4, "SKIP", qp=15),
                    "cam", qp=15)
    extracted = []
    real = prnu.extract_residual
    monkeypatch.setattr(prnu, "extract_residual",
                        lambda luma, config: extracted.append(luma)
                        or real(luma, config))
    with pytest.raises(AllMaskedOut):
        calibrate_qp([skipped, video], {"cam": reference}, include_skip=False)
    assert len(extracted) == len(skipped.pictures)


def test_calibrate_qp_input_checks(camera_setup):
    model, clean, reference = camera_setup
    video = video_at_qp(model, clean, 15, 35)
    with pytest.raises(InsufficientData):
        calibrate_qp([video], {}, include_skip=False)
    bare = Video(video.pictures, video.trace, "cam")
    with pytest.raises(InsufficientData):
        calibrate_qp([bare], {"cam": reference}, include_skip=False)


def test_calibrate_qp_checks_every_condition_before_extracting(
        camera_setup, monkeypatch):
    model, clean, reference = camera_setup
    video = video_at_qp(model, clean, 15, 35)
    bare = Video(video.pictures, video.trace, "cam")
    extracted = []
    monkeypatch.setattr(prnu, "extract_residual",
                        lambda pic, config: extracted.append(pic))
    with pytest.raises(InsufficientData, match="no fixed-QP condition"):
        calibrate_qp([video, bare], {"cam": reference}, include_skip=False)
    at_30 = Video(video.pictures, video.trace, "cam", qp=30)
    with pytest.raises(MissingAnchor, match="^camera cam has no qp=15 "):
        calibrate_qp([at_30], {"cam": reference}, include_skip=False)
    for buckets in (-3, 0):
        with pytest.raises(ConfigError, match="at least one bucket"):
            calibrate_lambda_rate([video, video], {"cam": reference},
                                  n_buckets=buckets)
    one_frame = Video(video.pictures[:1], uniform_trace(1, 4, 4), "cam")
    with pytest.raises(InsufficientFrames,
                       match="^splicing needs at least 2 frames, got 1$"):
        calibrate_lambda_rate([video, one_frame], {"cam": reference})
    assert extracted == []


def test_calibration_video_qp_must_be_a_valid_qp(camera_setup):
    model, clean, _ = camera_setup
    video = video_at_qp(model, clean, 15, 35)
    for qp in (0, 51, None):
        Video(video.pictures, video.trace, "cam", qp=qp)
    for qp in (-1, 52, 99):
        with pytest.raises(RangeError, match=f"qp {qp} "):
            Video(video.pictures, video.trace, "cam", qp=qp)


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


def test_calibrate_lambda_rate_transforms_each_reference_once_per_video(
        camera_setup, monkeypatch):
    model, clean, reference = camera_setup
    videos = [video_at_qp(model, clean, 10, 36),
              video_at_qp(model, clean, 25, 37)]
    counter = CountingFft(matching.sfft)
    monkeypatch.setattr(matching, "sfft", counter)
    table, report = calibrate_lambda_rate(videos, {"cam": reference},
                                          n_buckets=3)
    matches = counter.forward - len(videos)
    assert matches >= len(videos)
    # the table is that of matching every spliced frame against the array
    monkeypatch.setattr(evaluation, "ReferenceSpectrum", lambda r: r)
    counter.forward = 0
    again, again_report = calibrate_lambda_rate(videos, {"cam": reference},
                                                n_buckets=3)
    assert counter.forward == 2 * matches
    assert again_report == report
    assert np.array_equal(again.keys, table.keys)
    assert np.array_equal(again.weights, table.weights)


def test_spliced_frames_keep_the_frame_shape():
    # 24x40 frames: a 2x3 grid rounded up has a partial last block row and
    # column, padded for the ranking and cropped again; a 1x2 floor grid
    # leaves the pixels beyond it zero, so spliced frames still match a
    # full-size reference
    costs = [[[30, 5, 7], [1, 2, 3]], [[10, 50, 9], [3, 2, 1]]]
    residuals = [residual_of([[t + 1.0] * 3] * 2)[:24, :40]
                 for t in range(2)]

    def maps(gh, gw):
        return TraceFile(40, 24, 2,
                         [BlockRecord(t, x, y, "P", 12, costs[t][y][x])
                          for t in range(2) for y in range(gh)
                          for x in range(gw)])

    first = splice_by_lambda_rate(residuals, maps(2, 3)).values[0]
    assert first.shape == (24, 40)
    # rank 0 takes frame 1 at (0, 0) and (1, 2), frame 0 elsewhere
    assert np.all(first[:16, :16] == 2.0)
    assert np.all(first[16:, 32:] == 2.0)
    assert np.all(first[16:, :16] == 1.0)
    assert np.all(first[:16, 32:] == 1.0)

    first = splice_by_lambda_rate(residuals, maps(1, 2)).values[0]
    assert first.shape == (24, 40)
    assert np.all(first[:16, :16] == 2.0)
    assert np.all(first[:16, 16:32] == 1.0)
    assert not first[16:].any() and not first[:, 32:].any()
