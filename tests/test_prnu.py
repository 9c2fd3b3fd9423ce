"""Fingerprint accumulation, finalization, file format, and the pipeline."""

import os
import struct
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from blockprnu import (
    SCHEMES,
    AllMaskedOut,
    BlockPrnuError,
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
    YuvLuma,
    build_mask,
    estimate_fingerprint,
    finalize,
    lambda_grid,
    paint_blocks,
    read_fingerprint,
    read_yuv420,
    saturation_mask,
    simulate_capture,
    skipped_block_rate,
    stream_fingerprints,
    write_fingerprint,
    write_yuv420,
)
from blockprnu import (InsufficientData, Video, calibrate_lambda_rate,
                       calibrate_qp, evaluation, prnu, run_grid)
from blockprnu.trace import SKIP
from conftest import uniform_trace


def ingest(acc, luma, residual, mask):
    acc.accumulate(luma.astype(np.uint8), residual, mask)


def one_fingerprint(pictures, trace, residuals, config):
    """The pass with one scheme; that scheme's error is raised."""
    [fp] = stream_fingerprints(Video(pictures, trace), [config],
                               zip(pictures, residuals))
    if isinstance(fp, Exception):
        raise fp
    return fp


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


def _spent_accumulator():
    """An accumulator finalized once, after a rejected floor left it as
    it was, and the fingerprint it became."""
    rng = np.random.default_rng(5)
    acc = FingerprintAccumulator(8, 8)
    ingest(acc, rng.integers(30, 220, size=(8, 8)), rng.normal(size=(8, 8)),
           np.ones((8, 8)))
    with pytest.raises(ConfigError):
        finalize(acc, denominator_floor=0.0)
    fp = finalize(acc)
    return acc, fp, fp.k_values.copy()


def test_finalize_twice_is_rejected():
    acc, fp, k = _spent_accumulator()
    for kwargs in ({}, {"normalize": False}, {"denominator_floor": 1e-12}):
        with pytest.raises(BlockPrnuError, match="already finalized"):
            finalize(acc, **kwargs)
    assert fp.k_values.tobytes() == k.tobytes()


def test_accumulate_after_finalize_is_rejected():
    acc, fp, k = _spent_accumulator()
    luma, residual = np.full((8, 8), 100), np.ones((8, 8))
    with pytest.raises(BlockPrnuError, match="already finalized"):
        ingest(acc, luma, residual, np.ones((8, 8)))
    # nor as the peer of a fresh accumulator, which is left untouched
    fresh = FingerprintAccumulator(8, 8)
    with pytest.raises(BlockPrnuError, match="already finalized"):
        fresh.accumulate(luma.astype(np.uint8), residual, np.ones((8, 8)),
                         [(acc, np.ones((8, 8)))])
    assert fresh.frames_ingested == 0 and not fresh.numerator.any()
    assert fp.k_values.tobytes() == k.tobytes()


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


def test_estimate_fingerprint_argument_checks(monkeypatch):
    pics = np.full((1, 32, 32), 100, dtype=np.uint8)
    extracted = []
    monkeypatch.setattr(prnu, "extract_residual",
                        lambda luma, config, spread: extracted.append(luma))
    varied = np.random.default_rng(7).integers(20, 230, size=(5, 32, 32),
                                               dtype=np.uint8)
    for floor in (-1.0, 0.0, float("nan")):
        for workers in (1, 2):
            with pytest.raises(ConfigError,
                               match="^denominator floor must be positive"):
                estimate_fingerprint(varied, None, SchemeConfig("conventional"),
                                     denominator_floor=floor, workers=workers)
    # none is extracted: at 2 workers a submitted task would not even
    # pickle, as the counter is a lambda
    assert extracted == []
    with pytest.raises(EmptyAccumulator):
        estimate_fingerprint([], None, SchemeConfig("conventional"))
    with pytest.raises(DimensionMismatch):
        estimate_fingerprint(pics, None, SchemeConfig("skip_eliminate"))
    with pytest.raises(DimensionMismatch):
        estimate_fingerprint(pics, uniform_trace(2, 2, 2),
                             SchemeConfig("conventional"))
    with pytest.raises(DimensionMismatch):
        stream_fingerprints(Video(pics), [SchemeConfig("conventional")], [])


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
    assert back.k_values.dtype == np.float32
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
        acc.accumulate(pic, residual, mask * saturation_mask(pic))
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
    configs = [SchemeConfig(scheme, tables.get(scheme)) for scheme in SCHEMES]
    # every scheme in one pass, fed in lockstep from one stream
    stream = zip(pictures, residuals)
    results = stream_fingerprints(Video(pictures, trace), configs, stream)
    assert next(stream, None) is None
    for scheme, config, got in zip(SCHEMES, configs, results):
        want = _per_frame_fingerprint(pictures, trace, residuals, config)
        assert np.array_equal(got.k_values, want.k_values), scheme
        assert np.array_equal(got.support, want.support), scheme
        if SCHEMES[scheme].lookup is None and not SCHEMES[scheme].zero_skip:
            got = one_fingerprint(pictures, None, residuals, config)
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
            one_fingerprint(pictures, trace, residuals, config)
    assert accumulated == []


def test_stack_trace_and_table_are_checked_before_any_extraction(monkeypatch):
    extracted = []
    monkeypatch.setattr(prnu, "extract_residual",
                        lambda luma, config, spread: extracted.append(luma))
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


def test_grid_and_calibrations_refuse_a_bad_video_before_extracting(
        monkeypatch):
    extracted = []
    monkeypatch.setattr(prnu, "extract_residual",
                        lambda luma, config, spread: extracted.append(luma))
    conventional = SchemeConfig("conventional")
    references = {"cam": Fingerprint(k_values=np.ones((128, 128)),
                                     support=np.ones((128, 128), bool))}
    consumers = [
        lambda videos: run_grid(videos, [conventional], references),
        lambda videos: calibrate_qp(videos, references, include_skip=False),
        lambda videos: calibrate_lambda_rate(videos, references),
    ]
    pictures = np.full((4, 128, 128), 100, np.uint8)
    traced = Video(pictures, uniform_trace(4, 8, 8), "cam", "t", qp=15)
    # a 128x128 stack with a 64x64 trace
    with pytest.raises(DimensionMismatch,
                       match="^128x128 pictures vs 64x64 trace$"):
        estimate_fingerprint(pictures, uniform_trace(4, 4, 4), conventional)
    for run in consumers:
        with pytest.raises(DimensionMismatch,
                           match="^128x128 pictures vs 64x64 trace$"):
            run([traced,
                 Video(pictures, uniform_trace(4, 4, 4), "cam", "v", qp=15)])
        # 3 pictures on a 4-frame trace
        with pytest.raises(DimensionMismatch,
                           match="^3 pictures vs 4 trace frames$"):
            run([traced,
                 Video(pictures[:3], uniform_trace(4, 8, 8), "cam", "v",
                       qp=15)])
        # a video without a trace, which each of these needs
        with pytest.raises(InsufficientData, match="^video v has no trace$"):
            run([traced, Video(pictures, None, "cam", "v", qp=15)])
        with pytest.raises(InsufficientData,
                           match="^video of camera cam has no trace$"):
            run([traced, Video(pictures, None, "cam", qp=15)])
    assert extracted == []


# ---------------------------------------------------------------------------
# residuals stream through every driver
# ---------------------------------------------------------------------------

class StreamWatch:
    """Wraps `residual_extractor` wherever a driver reads it. At each
    (luma, residual) pair the stream yields it records how many residual
    planes yielded so far are still alive, counting every plane of a
    part's stacked result while any of them is held."""

    def __init__(self, monkeypatch):
        self.yielded = self.alive = 0
        real = prnu.residual_extractor

        @contextmanager
        def watched(*args, **kwargs):
            with real(*args, **kwargs) as extract:
                yield lambda pictures: self._stream(extract(pictures))

        for module in (prnu, evaluation):
            monkeypatch.setattr(module, "residual_extractor", watched)

    def _stream(self, frames):
        parts = []
        for luma, residual in frames:
            part = residual if residual.base is None else residual.base
            if not any(ref() is part for ref in parts):
                parts.append(weakref.ref(part))
            self.yielded += 1
            held = [ref() for ref in parts]
            self.alive = max(self.alive, sum(p.size for p in held
                                             if p is not None) // luma.size)
            del part, held
            yield luma, residual


def _random_video(frames):
    """32x32 frames on a 2x2 grid, coded blocks of random cost, and a
    reference of the same size."""
    rng = np.random.default_rng(frames)
    pictures = rng.integers(20, 230, size=(frames, 32, 32), dtype=np.uint8)
    trace = TraceFile(32, 32, frames, [
        BlockRecord(f, x, y, "P", 20, int(rng.integers(20, 900)))
        for f in range(frames) for y in range(2) for x in range(2)])
    reference = Fingerprint(k_values=rng.normal(size=(32, 32)),
                            support=np.ones((32, 32), bool))
    return pictures, trace, {"cam": reference}


@pytest.mark.parametrize("frames", [4, 16])
@pytest.mark.parametrize("workers", [1, 2])
def test_drivers_hold_a_bounded_number_of_residuals(monkeypatch, workers,
                                                    frames, helper_threads):
    # 32x32 frames come in parts of 2 frames here, and runs of `workers`
    # parts: once a run's frames are used no driver holds its residuals,
    # so at most one run of residuals is alive
    monkeypatch.setattr(prnu, "TASK_PIXELS", 2 * 32 * 32)
    run_frames = 2 * workers
    pictures, trace, references = _random_video(frames)
    schemes = [SchemeConfig("conventional"), SchemeConfig("skip_eliminate")]
    drivers = {
        "estimate_fingerprint": lambda: estimate_fingerprint(
            pictures, trace, schemes[0], workers=workers),
        "run_grid": lambda: run_grid(
            [Video(pictures, trace, "cam", "v")], schemes, references,
            workers=workers),
        "calibrate_lambda_rate": lambda: calibrate_lambda_rate(
            [Video(pictures, trace, "cam")], references,
            n_buckets=1, workers=workers),
    }
    for name, run in drivers.items():
        with monkeypatch.context() as patch:
            watch = StreamWatch(patch)
            run()
        assert watch.yielded == frames, name
        assert 0 < watch.alive <= run_frames, name


def test_no_driver_holds_a_residual_while_the_next_is_extracted(
        monkeypatch, helper_threads):
    # 32x32 frames below a TASK_PIXELS of one frame and a pixel come in
    # parts of one frame and runs of `workers` parts: when any part of a
    # run is extracted, every residual of the runs before it has been used
    # and dropped, at one worker and at two
    monkeypatch.setattr(prnu, "TASK_PIXELS", 32 * 32 + 1)
    frames = 4
    pictures, trace, references = _random_video(frames)
    index = {plane.tobytes(): i for i, plane in enumerate(pictures)}
    schemes = [SchemeConfig("conventional"), SchemeConfig("skip_eliminate")]
    residuals, alive, lock = [], [], threading.Lock()
    real = prnu.extract_residual

    def watched(luma, config, spread):
        [run] = {index[plane.tobytes()] // workers for plane in luma}
        with lock:
            alive.append(sum(ref() is not None for earlier, ref in residuals
                             if earlier < run))
        residual = real(luma, config, spread)
        with lock:
            residuals.append((run, weakref.ref(residual)))
        return residual

    monkeypatch.setattr(prnu, "extract_residual", watched)

    def videos():
        return [Video(pictures, trace, "cam", "v", qp=15)]

    drivers = {
        "estimate_fingerprint": lambda: estimate_fingerprint(
            pictures, trace, schemes[0], workers=workers),
        "run_grid": lambda: run_grid(videos(), schemes, references,
                                     workers=workers),
        "calibrate_qp": lambda: calibrate_qp(videos(), references,
                                             include_skip=False,
                                             workers=workers),
        "calibrate_lambda_rate": lambda: calibrate_lambda_rate(
            videos(), references, n_buckets=1, workers=workers),
    }
    for workers in (1, 2):
        for name, run in drivers.items():
            residuals.clear()
            alive.clear()
            run()
            assert alive == [0] * frames, (name, workers)
        # one helper thread a call at two workers, none at one
        assert len(helper_threads) == (workers - 1) * len(drivers)


@pytest.mark.parametrize("workers", [1, 2])
def test_drivers_read_each_plane_once(tmp_path, monkeypatch, workers):
    frames = 6
    pictures, trace, references = _random_video(frames)
    paths = []
    for name in ("a", "b"):
        paths.append(str(tmp_path / f"{name}.yuv"))
        write_yuv420(pictures, paths[-1])
    reads = []
    real = YuvLuma._read

    def counted(self, indices):
        reads.extend((self.path, i) for i in indices)
        return real(self, indices)

    monkeypatch.setattr(YuvLuma, "_read", counted)

    def videos():
        return [Video(read_yuv420(path, 32, 32), trace, "cam", path, qp=15)
                for path in paths]

    schemes = [SchemeConfig("conventional"), SchemeConfig("skip_eliminate")]
    drivers = {
        "estimate_fingerprint": lambda: estimate_fingerprint(
            read_yuv420(paths[0], 32, 32), trace, schemes[1],
            workers=workers),
        "run_grid": lambda: run_grid(videos(), schemes, references,
                                     workers=workers),
        "calibrate_qp": lambda: calibrate_qp(videos(), references,
                                             include_skip=False,
                                             workers=workers),
        "calibrate_lambda_rate": lambda: calibrate_lambda_rate(
            videos(), references, n_buckets=1, workers=workers),
    }
    for name, run in drivers.items():
        reads.clear()
        run()
        read = paths[:1] if name == "estimate_fingerprint" else paths
        # one read of every plane, in frame order, video by video
        assert reads == [(path, i) for path in read for i in range(frames)], \
            name


# ---------------------------------------------------------------------------
# memory bounded by a run of frames
# ---------------------------------------------------------------------------

def _whole_plane_finalize(acc, denominator_floor=None, normalize=True):
    """Oracle: the finalize that gathered the supported pixels into new
    arrays and left the accumulator as it was."""
    den = acc.denominator
    if denominator_floor is None:
        nonzero = den[den > 0]
        if nonzero.size == 0:
            raise AllMaskedOut("denominator is zero everywhere")
        denominator_floor = prnu.DENOMINATOR_FLOOR_SCALE * float(nonzero.mean())
    support = den >= denominator_floor
    if not support.any():
        raise AllMaskedOut("no pixel cleared the denominator floor")
    k = np.zeros(acc.shape, dtype=np.float64)
    k[support] = acc.numerator[support] / den[support]
    if normalize:
        k[support] -= k[support].mean()
        energy = float(np.sqrt((k * k).sum()))
        if energy > 0:
            k /= energy
    return k, support


def _whole_plane_fingerprint_bytes(fp):
    """Oracle: the file as one blob built in memory."""
    sid = fp.source_id.encode("utf-8")
    h, w = fp.shape
    return (prnu._MAGIC + struct.pack("<III", w, h, len(sid)) + sid
            + fp.k_values.astype("<f4").tobytes()
            + np.packbits(fp.support.astype(np.uint8)).tobytes())


def test_in_place_finalize_and_write_are_bit_equal_to_whole_plane_ones(
        tmp_path):
    rng = np.random.default_rng(45)
    for case in range(60):
        h, w = (int(n) for n in rng.integers(1, 90, size=2))
        numerator = rng.normal(size=(h, w)) * 10.0 ** rng.integers(-3, 4)
        denominator = rng.uniform(0, 1e4, size=(h, w)) ** 2
        # zero, starved and tiny denominators
        denominator[rng.random((h, w)) < rng.choice([0.0, 0.3, 0.9])] = 0.0
        denominator[rng.random((h, w)) < 0.1] *= 1e-9
        floor = [None, 1e-12, float(np.median(denominator)) or 1.0][case % 3]
        normalize = case % 4 != 3
        acc = FingerprintAccumulator(h, w)
        acc.numerator[...], acc.denominator[...] = numerator, denominator
        acc.frames_ingested = 1
        try:
            want_k, want_support = _whole_plane_finalize(acc, floor, normalize)
        except AllMaskedOut:
            with pytest.raises(AllMaskedOut):
                finalize(acc, floor, normalize)
            continue
        got = finalize(acc, floor, normalize, source_id=f"case{case}")
        # bit for bit, the sign of every zero included
        assert got.k_values.tobytes() == want_k.tobytes(), case
        assert np.array_equal(got.support, want_support), case
        path = tmp_path / f"{case}.bpf"
        write_fingerprint(got, path)
        assert path.read_bytes() == _whole_plane_fingerprint_bytes(got), case


def _luma_file(tmp_path, frames, h, w, seed=46):
    rng = np.random.default_rng(seed)
    path = tmp_path / f"{frames}x{h}x{w}.yuv"
    write_yuv420(rng.integers(20, 230, size=(frames, h, w), dtype=np.uint8),
                 path)
    return path


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2])
def test_estimate_memory_does_not_grow_with_video_length(tmp_path, workers,
                                                         helper_threads):
    # at 512x512 a frame is TASK_PIXELS, so each frame is a run of its own,
    # extracted in this thread with its strips shared with one helper at 2
    # workers, and one residual is alive at a time however long the video;
    # a float64 plane is 2 MiB
    assert 512 * 512 == prnu.TASK_PIXELS
    conventional = SchemeConfig("conventional")
    peaks = {}
    for frames in (4, 24):
        path = _luma_file(tmp_path, frames, 512, 512)
        peaks[frames] = _traced_peak(lambda: estimate_fingerprint(
            read_yuv420(path, 512, 512), None, conventional,
            workers=workers))
    assert abs(peaks[24] - peaks[4]) < 512 * 512 * 8, peaks
    # one helper thread a call at two workers, none at one
    assert len(helper_threads) == (2 if workers == 2 else 0)


@pytest.mark.parametrize("cpus", [{0, 1}, {3}])
def test_residual_pool_is_capped_at_the_usable_cpus(monkeypatch, cpus,
                                                    helper_threads):
    # 64 workers asked for on 2 usable CPUs are 2: parts of 2^18 pixels and
    # at most 24 / 2 frames, or of the 3 frames a smaller TASK_PIXELS
    # allows, and one helper thread. On one CPU no thread starts. The
    # residuals are those of one worker either way
    pictures = np.random.default_rng(49).integers(20, 230, size=(24, 32, 32),
                                                  dtype=np.uint8)
    with prnu.residual_extractor(workers=1) as extract:
        expected = list(extract(pictures))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    parts = []
    real = prnu.extract_residual

    def recorded(luma, config, spread):
        parts.append(len(luma))
        return real(luma, config, spread)

    monkeypatch.setattr(prnu, "extract_residual", recorded)
    two = len(cpus) == 2
    for task_pixels, sizes in ((prnu.TASK_PIXELS, [12, 12] if two else [24]),
                               (3 * 32 * 32, [3] * 8)):
        monkeypatch.setattr(prnu, "TASK_PIXELS", task_pixels)
        parts.clear()
        with prnu.residual_extractor(workers=64) as extract:
            got = list(extract(pictures))
        assert parts == sizes
        assert len(got) == len(expected) == 24
        for (luma, residual), (want_luma, want) in zip(got, expected):
            assert np.array_equal(luma, want_luma)
            assert residual.tobytes() == want.tobytes()
    assert len(helper_threads) == (2 if two else 0)


def test_spread_computes_each_item_once_on_the_caller_and_its_helpers():
    # the calling thread and its helpers take the items from one iterator:
    # under a short switch interval, with more threads than CPUs, each item
    # is still computed once and the results come back in item order. A
    # failing item raises once the helpers are done
    counts, lock = [0] * 400, threading.Lock()

    def square(i):
        with lock:
            counts[i] += 1
        return i * i

    def fail(i):
        if i == 3:
            raise ValueError(i)
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool, ThreadPoolExecutor(1) as caller:
            got = caller.submit(prnu._spread, pool, 7, square,
                                list(range(400)))
            assert got.result(timeout=60) == [i * i for i in range(400)]
            assert counts == [1] * 400
            with pytest.raises(ValueError):
                prnu._spread(pool, 1, fail, list(range(8)))
    finally:
        sys.setswitchinterval(interval)


def _skipped_trace_of(rng, frames, h, w, grid_h=None):
    """P blocks with QPs 20..30, about 30% of them skipped, on a grid of
    `grid_h` macroblock rows (default: floor-sized)."""
    grid_h = h // 16 if grid_h is None else grid_h
    skip = rng.random((frames, grid_h, w // 16)) < 0.3
    qp = rng.integers(20, 31, size=skip.shape)
    return TraceFile(w, h, frames, [
        BlockRecord(f, x, y, "SKIP" if s else "P", int(qp[f, y, x]),
                    1 if s else 100 + 10 * f + x)
        for (f, y, x), s in np.ndenumerate(skip)])


@pytest.mark.parametrize("grid_h", [12, 13])
def test_strip_masks_equal_whole_frame_masks_across_strips(grid_h):
    # 200x120 frames are two strips, of 128 and 72 rows; the second ends
    # in half a macroblock row, weighted 0 on a floor-sized grid
    h, w, frames = 200, 120, 3
    assert [(s.start, s.stop) for s in prnu._strips(h, w)] == [(0, 128),
                                                               (128, 200)]
    rng = np.random.default_rng(48)
    trace = _skipped_trace_of(rng, frames, h, w, grid_h)
    pictures = rng.integers(0, 256, size=(frames, h, w), dtype=np.uint8)
    residuals = [rng.normal(size=(h, w)) for _ in range(frames)]
    tables = _tables(rng)
    configs = [SchemeConfig(scheme, tables.get(scheme)) for scheme in SCHEMES]
    results = stream_fingerprints(Video(pictures, trace), configs,
                                  zip(pictures, residuals))
    for config, got in zip(configs, results):
        # the whole-frame arithmetic the strips replace
        acc = FingerprintAccumulator(h, w)
        for luma, residual, weights in zip(pictures, residuals,
                                           build_mask(trace, config)):
            mask = paint_blocks(weights, (h, w)) * saturation_mask(luma)
            luma = luma.astype(np.float64)
            acc.numerator += luma * residual * mask
            acc.denominator += luma * luma * mask
        acc.frames_ingested = frames
        want_k, want_support = _whole_plane_finalize(acc)
        assert got.k_values.tobytes() == want_k.tobytes(), config.scheme
        assert np.array_equal(got.support, want_support), config.scheme


def test_a_frame_is_added_in_strips():
    # 256x256 is four strips of 64 rows, each a quarter of a plane
    h = w = 256
    strip_bytes = 64 * w * 8
    rng = np.random.default_rng(47)
    video = Video(rng.integers(0, 256, size=(1, h, w), dtype=np.uint8),
                  _skipped_trace_of(rng, 1, h, w))
    residuals = [rng.normal(size=(h, w))]
    schemes = [SchemeConfig("conventional"), SchemeConfig("skip_eliminate")]
    accumulators = len(schemes) * 2 * h * w * 8
    peak = _traced_peak(lambda: stream_fingerprints(
        video, schemes, zip(video.pictures, residuals)))
    assert peak <= accumulators + 8 * strip_bytes, peak - accumulators
    assert [(s.start, s.stop) for s in prnu._strips(h, w)] == [
        (0, 64), (64, 128), (128, 192), (192, 256)]

