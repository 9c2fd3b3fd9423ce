"""Sensor capture model and the rate-distortion toy codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockprnu import (
    BlockRecord,
    CodecConfig,
    ConfigError,
    SensorModel,
    TraceFile,
    encode_block,
    encode_sequence,
    lambda_of_qp,
    simulate_capture,
    skipped_block_rate,
    synthetic_clean_frames,
)
from blockprnu.simulator import (_SKIP_BITS, _controller_step, _qstep,
                                 code_candidate)


def flat_model(value=0.0, sigma=0.0, size=16):
    return SensorModel(k_true=np.full((size, size), value),
                       read_noise_sigma=sigma)


def test_capture_is_identity_without_pattern_or_noise():
    model = flat_model()
    clean = np.arange(256, dtype=np.float64).reshape(16, 16) % 200 + 10
    (pic,) = simulate_capture(model, [clean])
    assert np.array_equal(pic, clean.astype(np.uint8))


def test_capture_applies_multiplicative_gain():
    model = flat_model(value=0.05)
    (pic,) = simulate_capture(model, [np.full((16, 16), 128.0)])
    assert np.all(pic == 134)  # rint(128 * 1.05)


def test_capture_clips_to_8_bit():
    model = flat_model(value=0.09)
    (pic,) = simulate_capture(model, [np.full((16, 16), 250.0)])
    assert np.all(pic == 255)


def test_capture_noise_variance():
    model = flat_model(sigma=2.0)
    clean = [np.full((16, 16), 128.0)] * 1000
    pics = simulate_capture(model, clean, seed=42)
    samples = pics.astype(np.float64)
    # rounding to integers adds about 1/12 on top of sigma^2
    assert samples.var() == pytest.approx(4.0 + 1.0 / 12.0, rel=0.05)


def test_sensor_model_validation():
    with pytest.raises(ConfigError):
        SensorModel(k_true=np.zeros((15, 16)))
    with pytest.raises(ConfigError):
        SensorModel(k_true=np.full((16, 16), 0.1))
    with pytest.raises(ConfigError):
        SensorModel(k_true=np.zeros((16, 16)), read_noise_sigma=-1.0)
    wild = SensorModel.random(16, 16, k_strength=0.5, seed=0)
    assert np.abs(wild.k_true).max() <= 0.099
    with pytest.raises(ConfigError):
        simulate_capture(flat_model(size=16), [np.zeros((32, 32))])


def test_qstep_examples():
    assert _qstep(4) == 1.0
    assert _qstep(10) == 2.0
    assert _qstep(16) == 4.0
    assert _qstep(7) == pytest.approx(2.0 ** 0.5)


def test_code_candidate_zero_residual_floor_rate():
    res = np.zeros((16, 16))
    rec, rate = code_candidate(res, qp=30)
    assert np.max(np.abs(rec)) < 1e-12
    # 256 zero levels cost one bit each, plus the 8 header bits
    assert rate == 264.0


def test_code_candidate_rate_grows_with_signal():
    rng = np.random.default_rng(0)
    res = rng.normal(0.0, 12.0, size=(16, 16))
    _, quiet = code_candidate(res, qp=40)
    _, loud = code_candidate(res, qp=10)
    assert loud > quiet >= 264.0


def test_encode_block_skips_static_content():
    rng = np.random.default_rng(1)
    block = rng.integers(40, 200, size=(16, 16)).astype(np.float64)
    out = encode_block(block, block, qp=30)
    assert out["mode"] == "SKIP"
    assert out["d"] == 0.0 and out["r"] == 1.0
    assert out["j"] == out["lam"] * 1.0


def test_encode_block_codes_novel_content():
    rng = np.random.default_rng(2)
    block = rng.integers(40, 200, size=(16, 16)).astype(np.float64)
    ref = np.full((16, 16), 128.0)
    out = encode_block(block, ref, qp=10)
    assert out["mode"] == "CODE"
    assert out["d"] < ((block - ref) ** 2).sum()
    for mode in ("CODE", "SKIP"):
        d, r, j = out["candidates"][mode]
        assert j == d + out["lam"] * r  # cost identity holds exactly


def test_encode_block_tie_prefers_code():
    block = np.full((16, 16), 77.0)
    out = encode_block(block, block, qp=20, lam=0.0)
    assert out["candidates"]["CODE"][2] == out["candidates"]["SKIP"][2] == 0.0
    assert out["mode"] == "CODE"


def test_encode_block_uses_qp_lambda_by_default():
    block = np.full((16, 16), 50.0)
    out = encode_block(block, block, qp=33)
    assert out["lam"] == lambda_of_qp(33)


def test_encode_block_on_a_stack_equals_one_block_at_a_time():
    rng = np.random.default_rng(4)
    blocks = rng.integers(0, 256, size=(3, 5, 16, 16)).astype(np.float64)
    refs = blocks + rng.integers(-3, 4, size=blocks.shape)
    refs[0, 0] = blocks[0, 0]                   # a sure skip
    refs = np.clip(refs, 0, 255)
    for allow_skip in (True, False):
        out = encode_block(blocks, refs, qp=30, allow_skip=allow_skip)
        assert out["mode"].shape == out["d"].shape == (3, 5)
        for i in range(3):
            for k in range(5):
                one = encode_block(blocks[i, k], refs[i, k], qp=30,
                                   allow_skip=allow_skip)
                assert one["mode"] == out["mode"][i, k]
                assert np.array_equal(one["recon"], out["recon"][i, k])
                for key in ("d", "r", "j"):
                    assert one[key] == out[key][i, k]
                for mode, values in one["candidates"].items():
                    for got, want in zip(values, out["candidates"][mode]):
                        assert got == np.broadcast_to(want, (3, 5))[i, k]
        assert (out["mode"] == "SKIP").any() == allow_skip


def test_near_lossless_at_qp_1():
    rng = np.random.default_rng(3)
    frame = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
    result = encode_sequence([frame], CodecConfig(qp=1))
    err = np.abs(result.pictures[0].astype(float) - frame.astype(float))
    assert err.mean() < 1.0


def test_distortion_monotone_in_qp():
    frames = synthetic_clean_frames(32, 32, 2, seed=4)
    frames = [np.clip(np.rint(f), 0, 255).astype(np.uint8) for f in frames]
    totals = [encode_sequence(frames, CodecConfig(qp=q)).distortion.sum()
              for q in (10, 20, 30, 40)]
    assert totals[0] < totals[1] < totals[2] < totals[3]


def test_encode_sequence_structure():
    frames = synthetic_clean_frames(48, 32, 5, seed=5)
    result = encode_sequence(frames, CodecConfig(qp=28, gop=2))
    trace = result.trace
    assert trace.width == 32 and trace.height == 48
    assert trace.frame_count == 5
    assert len(trace.records) == 5 * 3 * 2
    assert result.qp_per_frame == [28] * 5
    by_frame = {}
    for rec in trace.records:
        by_frame.setdefault(rec.frame_idx, set()).add(rec.block_type)
    assert by_frame[0] == {"I"} and by_frame[2] == {"I"} and by_frame[4] == {"I"}
    assert by_frame[1] <= {"P", "SKIP"} and by_frame[3] <= {"P", "SKIP"}
    assert result.pictures.shape == (5, 48, 32)
    assert result.pictures.dtype == np.uint8
    # cost grid restates the lagrangian identity blockwise
    assert np.allclose(result.cost,
                       result.distortion + result.lam * result.rate)


def test_skip_rows_inherit_reference_qp():
    frames = [np.full((32, 32), 128, dtype=np.uint8)] * 3
    result = encode_sequence(frames,
                             CodecConfig(target_bits_per_frame=100.0,
                                         start_qp=20))
    assert result.qp_per_frame[0] == 20
    assert result.qp_per_frame[1] != 20  # controller reacted to the I frame
    skips = [r for r in result.trace.records if r.block_type == "SKIP"]
    assert skips, "constant frames must skip"
    assert all(r.qp == 20 for r in skips)  # inherited through the chain
    assert {r.frame_idx for r in skips} == {1, 2}


def test_controller_step_bands():
    assert _controller_step(30, 250.0, 100.0) == 34
    assert _controller_step(30, 160.0, 100.0) == 32
    assert _controller_step(30, 120.0, 100.0) == 31
    assert _controller_step(30, 100.0, 100.0) == 30
    assert _controller_step(30, 80.0, 100.0) == 29
    assert _controller_step(30, 60.0, 100.0) == 28
    assert _controller_step(30, 30.0, 100.0) == 26
    assert _controller_step(50, 1e9, 1.0) == 51
    assert _controller_step(2, 1.0, 1e9) == 0


def test_bitrate_controller_tracks_target(rate_encode):
    result = rate_encode
    assert len(set(result.qp_per_frame)) > 1
    tail = result.rate[6:].sum(axis=(1, 2))
    assert 0.5 * 1500 < tail.mean() < 2.0 * 1500


def test_static_scene_low_rate_skips_heavily():
    frames = synthetic_clean_frames(64, 64, 10, seed=6, motion=0)
    frames = [np.clip(np.rint(f), 0, 255).astype(np.uint8) for f in frames]
    result = encode_sequence(frames, CodecConfig(qp=30))
    assert skipped_block_rate(result.trace) >= 0.7


def test_synthetic_frames_shape_and_motion():
    frames = synthetic_clean_frames(48, 64, 4, seed=7, motion=4)
    assert len(frames) == 4
    assert all(f.shape == (48, 64) for f in frames)
    assert all(10.0 <= f.min() and f.max() <= 245.0 for f in frames)
    assert not np.array_equal(frames[0], frames[1])
    static = synthetic_clean_frames(48, 64, 2, seed=7, motion=0)
    assert np.array_equal(static[0], static[1])
    again = synthetic_clean_frames(48, 64, 4, seed=7, motion=4)
    assert all(np.array_equal(a, b) for a, b in zip(frames, again))


def test_codec_config_validation():
    with pytest.raises(ConfigError):
        CodecConfig()
    with pytest.raises(ConfigError):
        CodecConfig(qp=20, target_bits_per_frame=100.0)
    with pytest.raises(ConfigError):
        CodecConfig(qp=52)
    with pytest.raises(ConfigError):
        CodecConfig(target_bits_per_frame=-5.0)
    with pytest.raises(ConfigError):
        CodecConfig(qp=20, gop=0)
    with pytest.raises(ConfigError):
        encode_sequence([], CodecConfig(qp=20))
    with pytest.raises(ConfigError):
        encode_sequence([np.zeros((20, 20), dtype=np.uint8)],
                        CodecConfig(qp=20))


# ---------------------------------------------------------------------------
# the wavefront encoder against the per-block loop
# ---------------------------------------------------------------------------

def encode_per_block(lumas, config):
    """The block-by-block encoder that `encode_sequence` replaced: intra
    blocks coded one at a time in raster order, one record per block.
    Returns (decoded lumas, distortion, rate, cost, lam, qp per frame,
    records)."""
    h, w = lumas[0].shape
    gh, gw = h // 16, w // 16
    n = len(lumas)
    distortion, rate, cost, lam_grid = (np.zeros((n, gh, gw)) for _ in range(4))
    qp_per_frame, records, decoded = [], [], []
    qp = config.qp if config.qp is not None else config.start_qp
    prev_dec = None
    prev_qp_grid = np.zeros((gh, gw), dtype=np.int64)
    for t, luma in enumerate(lumas):
        orig = luma.astype(np.float64)
        lam = lambda_of_qp(qp)
        dec = np.zeros((h, w))
        qp_grid = np.full((gh, gw), qp, dtype=np.int64)
        if t % config.gop == 0 or prev_dec is None:
            for by in range(gh):
                for bx in range(gw):
                    y0, x0 = by * 16, bx * 16
                    neighbors = []
                    if by > 0:
                        neighbors.append(dec[y0 - 1, x0:x0 + 16])
                    if bx > 0:
                        neighbors.append(dec[y0:y0 + 16, x0 - 1])
                    pred = (np.concatenate(neighbors).mean()
                            if neighbors else 128.0)
                    ref = np.full((16, 16), pred)
                    out = encode_block(orig[y0:y0 + 16, x0:x0 + 16], ref, qp,
                                       lam, allow_skip=False)
                    dec[y0:y0 + 16, x0:x0 + 16] = out["recon"]
                    distortion[t, by, bx] = out["d"]
                    rate[t, by, bx] = out["r"]
                    cost[t, by, bx] = out["j"]
                    records.append(BlockRecord(t, bx, by, "I", qp, int(out["r"])))
        else:
            blocks = orig.reshape(gh, 16, gw, 16).swapaxes(1, 2)
            refs = prev_dec.reshape(gh, 16, gw, 16).swapaxes(1, 2)
            rec_res, rate_c = code_candidate(blocks - refs, qp)
            recon_c = np.clip(np.rint(refs + rec_res), 0, 255)
            d_code = ((blocks - recon_c) ** 2).sum(axis=(-2, -1))
            j_code = d_code + lam * rate_c
            d_skip = ((blocks - refs) ** 2).sum(axis=(-2, -1))
            j_skip = d_skip + lam * _SKIP_BITS
            use_skip = j_skip < j_code
            recon = np.where(use_skip[..., None, None], refs, recon_c)
            dec = recon.swapaxes(1, 2).reshape(h, w)
            distortion[t] = np.where(use_skip, d_skip, d_code)
            rate[t] = np.where(use_skip, _SKIP_BITS, rate_c)
            cost[t] = np.where(use_skip, j_skip, j_code)
            qp_grid = np.where(use_skip, prev_qp_grid, qp)
            for by in range(gh):
                for bx in range(gw):
                    skip = bool(use_skip[by, bx])
                    records.append(BlockRecord(
                        t, bx, by, "SKIP" if skip else "P",
                        int(qp_grid[by, bx]), _SKIP_BITS if skip else int(rate[t, by, bx])))
        lam_grid[t] = lam
        qp_per_frame.append(qp)
        decoded.append(dec.astype(np.uint8))
        prev_dec, prev_qp_grid = dec, qp_grid
        if config.target_bits_per_frame is not None:
            qp = _controller_step(qp, float(rate[t].sum()),
                                  config.target_bits_per_frame)
    return decoded, distortion, rate, cost, lam_grid, qp_per_frame, records


@settings(max_examples=60, deadline=None)
@given(gh=st.integers(1, 6), gw=st.integers(1, 6), count=st.integers(1, 4),
       content=st.sampled_from(["constant", "noise", "synthetic"]),
       qp=st.integers(0, 51), rate_controlled=st.booleans(),
       bits_per_pixel=st.sampled_from([0.05, 0.3, 1.0, 3.0]),
       gop=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
def test_encode_sequence_equals_per_block_loop(gh, gw, count, content, qp,
                                               rate_controlled, bits_per_pixel,
                                               gop, seed):
    h, w = 16 * gh, 16 * gw
    rng = np.random.default_rng(seed)
    if content == "constant":
        frames = [np.full((h, w), int(rng.integers(0, 256)), dtype=np.uint8)] * count
    elif content == "noise":
        frames = list(rng.integers(0, 256, size=(count, h, w), dtype=np.uint8))
    else:
        frames = synthetic_clean_frames(h, w, count, seed=seed, motion=3)
    if rate_controlled:
        config = CodecConfig(target_bits_per_frame=bits_per_pixel * h * w,
                             start_qp=qp, gop=gop)
    else:
        config = CodecConfig(qp=qp, gop=gop)
    got = encode_sequence(frames, config)
    decoded, distortion, rate, cost, lam, qps, records = \
        encode_per_block([np.asarray(f) for f in frames], config)
    assert all(np.array_equal(p, d) for p, d in zip(got.pictures, decoded))
    for name, want in (("distortion", distortion), ("rate", rate),
                       ("cost", cost), ("lam", lam)):
        assert np.array_equal(getattr(got, name), want), name
    assert got.qp_per_frame == qps
    oracle = TraceFile(w, h, count, records)
    for name in ("type_code", "qp", "bits"):
        assert np.array_equal(getattr(got.trace, name), getattr(oracle, name)), name
    assert got.trace.records == records
