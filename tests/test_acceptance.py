"""
Acceptance suite: one test per release gate, tolerances pinned inline.

Run with -v to get a single pass/fail line per gate. Every test here is
self-contained and seeded; nothing depends on execution order.
"""
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from blockprnu import (
    BlockRecord,
    CalibrationRun,
    CodecConfig,
    Fingerprint,
    FingerprintAccumulator,
    PceConfig,
    SchemeConfig,
    SensorModel,
    TraceFile,
    Video,
    WeightTable,
    build_qp_table,
    calibrate_lambda_rate,
    calibrate_qp,
    encode_sequence,
    estimate_fingerprint,
    finalize,
    lambda_of_qp,
    pce,
    read_fingerprint,
    run_grid,
    scheme_mean_pce,
    simulate_capture,
    skipped_block_rate,
    splice_by_lambda_rate,
    synthetic_clean_frames,
    threshold_table,
)
from blockprnu.bitstream import BitReader, BitWriter, parse_annexb
from blockprnu.cli import main
from blockprnu.errors import BlockPrnuError
from blockprnu.evaluation import ExperimentGrid, MatchReport
from blockprnu.simulator import encode_block
from test_bitstream import full_stream


# ---------------------------------------------------------------------------
# 1. Lagrangian closed form and per-block cost identity
# ---------------------------------------------------------------------------

def test_criterion_01_lagrangian_formula_and_cost_identity():
    getcontext().prec = 60
    ln_base = Decimal("0.852").ln()
    for qp in range(52):
        want = (ln_base * (Decimal(qp) - 12) / 3).exp()
        assert abs(lambda_of_qp(qp) - float(want)) <= 1e-9, qp

    frames = synthetic_clean_frames(48, 48, 6, seed=11)
    fixed = encode_sequence(frames, CodecConfig(qp=24, gop=3))
    assert np.array_equal(fixed.cost, fixed.distortion + fixed.lam * fixed.rate)
    rated = encode_sequence(frames, CodecConfig(target_bits_per_frame=900,
                                                gop=3, start_qp=30))
    assert np.array_equal(rated.cost, rated.distortion + rated.lam * rated.rate)

    rng = np.random.default_rng(3)
    for _ in range(20):
        block = rng.uniform(0.0, 255.0, (16, 16))
        reference = rng.uniform(0.0, 255.0, (16, 16))
        out = encode_block(block, reference, qp=int(rng.integers(0, 52)))
        for d, r, j in out["candidates"].values():
            assert j == d + out["lam"] * r


# ---------------------------------------------------------------------------
# 2. streaming accumulator vs single-pass ratio
# ---------------------------------------------------------------------------

def test_criterion_02_accumulator_matches_brute_force():
    rng = np.random.default_rng(7)
    for case in range(20):
        n = int(rng.integers(1, 9))
        # luma 1..255 keeps every pixel's denominator positive, so the
        # single-pass ratio is defined everywhere
        lumas = [rng.integers(1, 256, (64, 64)).astype(np.uint8)
                 for _ in range(n)]
        residuals = [rng.normal(size=(64, 64)) for _ in range(n)]
        masks = [rng.uniform(0.1, 1.0, (64, 64)) for _ in range(n)]

        acc = FingerprintAccumulator(64, 64)
        for luma, res, mask in zip(lumas, residuals, masks):
            acc.accumulate(luma, res, mask)
        got = finalize(acc, denominator_floor=1e-300, normalize=False)

        num = np.zeros((64, 64))
        den = np.zeros((64, 64))
        for luma, res, mask in zip(lumas, residuals, masks):
            i = luma.astype(np.float64)
            num += i * res * mask
            den += i * i * mask
        assert got.support.all()
        assert np.abs(got.k_values - num / den).max() <= 1e-9, case


# ---------------------------------------------------------------------------
# 3. matcher calibration: loud self-match, quiet non-match
# ---------------------------------------------------------------------------

def test_criterion_03_pce_selfmatch_and_nonmatch_statistics():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(100, 100))
    shifted = np.roll(x, (17, 31), axis=(0, 1))
    report = pce(x, shifted)
    assert report.pce > 1e4
    assert report.peak_offset == (31, 17)

    # 1000 unrelated pairs at 10^4 pixels; the aligned-origin statistic
    # must average to about one and the search-maximum must stay under
    # the decision threshold
    zero_cfg = PceConfig(search_window="zero")
    aligned_mags = np.empty(1000)
    search_peaks = np.empty(1000)
    for t in range(1000):
        a = rng.normal(size=(100, 100))
        b = rng.normal(size=(100, 100))
        aligned_mags[t] = abs(pce(a, b, zero_cfg).pce)
        search_peaks[t] = pce(a, b).pce
    assert 0.5 <= aligned_mags.mean() <= 2.0
    assert search_peaks.max() < 60.0


# ---------------------------------------------------------------------------
# 4. detection-count table fixture
# ---------------------------------------------------------------------------

# per-group detection counts by scheme, with group populations; the totals
# row is what the summary table must reproduce verbatim
REFERENCE_SCHEMES = ["conventional", "loop_filter_only", "skip_eliminate",
                     "qp_all", "qp_noskip", "lambda_r"]
REFERENCE_COUNTS = [
    [2, 3, 10, 4, 7, 10],
    [27, 34, 42, 32, 40, 55],
    [40, 47, 51, 46, 53, 63],
    [65, 69, 72, 74, 77, 82],
    [92, 94, 93, 97, 97, 97],
]
REFERENCE_POPULATIONS = [103, 104, 103, 103, 104]
REFERENCE_TOTALS = [226, 247, 268, 253, 274, 307]
GROUP_BPP = [0.01, 0.03, 0.06, 0.1, 0.2]


def test_criterion_04_threshold_table_reference_counts():
    video_ids = []
    bpp = {}
    cells = {}
    for g, population in enumerate(REFERENCE_POPULATIONS):
        for k in range(population):
            vid = f"g{g}v{k}"
            video_ids.append(vid)
            bpp[vid] = GROUP_BPP[g]
            for s, scheme in enumerate(REFERENCE_SCHEMES):
                hit = k < REFERENCE_COUNTS[g][s]
                cells[(vid, scheme)] = MatchReport(
                    pce=100.0 if hit else 1.0, peak_offset=(0, 0),
                    correlation_peak=0.0, decision=hit)
    grid = ExperimentGrid(video_ids=video_ids, schemes=REFERENCE_SCHEMES,
                          bpp=bpp, cells=cells)
    table = threshold_table(grid)
    assert table.schemes == REFERENCE_SCHEMES
    assert table.counts.tolist() == REFERENCE_COUNTS
    assert table.populations.tolist() == REFERENCE_POPULATIONS
    assert table.totals.tolist() == REFERENCE_TOTALS
    assert table.total_population == 517


# ---------------------------------------------------------------------------
# 5. scheme ordering under strong compression
# ---------------------------------------------------------------------------

SIZE = 64
RATES = [1200, 2000, 3200, 5600, 9600]
CAL_QPS = [15, 23, 31, 39, 47]


def _camera(seed):
    return SensorModel.random(SIZE, SIZE, k_strength=0.06,
                              read_noise_sigma=2.0, seed=seed)


def _reference(model, seed):
    flat = [np.full((SIZE, SIZE), 130.0)] * 24
    return estimate_fingerprint(simulate_capture(model, flat, seed=seed),
                                None, SchemeConfig("conventional"))


def _captured(model, content_seed, count=24):
    clean = synthetic_clean_frames(SIZE, SIZE, count, seed=content_seed)
    return simulate_capture(model, clean, seed=content_seed + 1)


def test_criterion_05_scheme_ordering_at_low_bitrate():
    cal_refs = {}
    cal_videos = []
    for i in range(4):
        model = _camera(2000 + i)
        cal_refs[f"cal{i}"] = _reference(model, 2100 + i)
        for j, qp in enumerate(CAL_QPS):
            res = encode_sequence(_captured(model, 2200 + 10 * i + j, 12),
                                  CodecConfig(qp=qp, gop=4))
            cal_videos.append(Video(
                camera_id=f"cal{i}", pictures=res.pictures,
                trace=res.trace, qp=qp))
    qp_noskip, _ = calibrate_qp(cal_videos, cal_refs, include_skip=False)
    qp_all, _ = calibrate_qp(cal_videos, cal_refs, include_skip=True)
    lr, _ = calibrate_lambda_rate(cal_videos, cal_refs, n_buckets=10)

    references = {}
    videos = []
    for i in range(20):
        model = _camera(1000 + i)
        references[f"cam{i}"] = _reference(model, 1100 + i)
        for v in range(2):
            captured = _captured(model, 1200 + 10 * i + v)
            for rate in RATES:
                res = encode_sequence(
                    captured, CodecConfig(target_bits_per_frame=rate,
                                          gop=4, start_qp=28))
                videos.append((rate, Video(
                    video_id=f"c{i}v{v}r{rate}", camera_id=f"cam{i}",
                    pictures=res.pictures, trace=res.trace)))

    configs = [SchemeConfig("conventional"), SchemeConfig("skip_eliminate"),
               SchemeConfig("qp_all", qp_all),
               SchemeConfig("qp_noskip", qp_noskip),
               SchemeConfig("lambda_r", lr)]
    grid = run_grid([v for _, v in videos], configs, references)

    for rate in RATES[:2]:
        ids = [v.video_id for r, v in videos if r == rate]
        m = scheme_mean_pce(grid, video_ids=ids)
        assert m["lambda_r"] > m["qp_noskip"], rate
        assert m["qp_noskip"] > m["qp_all"], rate
        assert m["qp_noskip"] > m["skip_eliminate"], rate
        assert m["qp_all"] > m["conventional"], rate
        assert m["skip_eliminate"] > m["conventional"], rate
        assert m["lambda_r"] / m["conventional"] >= 1.5, rate


# ---------------------------------------------------------------------------
# 6. skip saturation on static content
# ---------------------------------------------------------------------------

def test_criterion_06_static_content_skip_rates():
    # descending fixed QP stands in for ascending bitrate; the measured
    # bits-per-pixel must confirm that direction
    qps = [46, 38, 30, 22, 14]
    sbr = {q: [] for q in qps}
    bpp = {q: [] for q in qps}
    for i in range(8):
        rng = np.random.default_rng(3000 + i)
        k = np.clip(rng.normal(0.0, 0.02, size=(SIZE, SIZE)), -0.099, 0.099)
        model = SensorModel(k_true=k, read_noise_sigma=1.0)
        clean = synthetic_clean_frames(SIZE, SIZE, 24, seed=3100 + i,
                                       motion=0)
        captured = simulate_capture(model, clean, seed=3200 + i)
        for q in qps:
            res = encode_sequence(captured, CodecConfig(qp=q, gop=12))
            sbr[q].append(skipped_block_rate(res.trace))
            bpp[q].append(float(res.rate.sum()) / (24 * SIZE * SIZE))
    medians = [float(np.median(sbr[q])) for q in qps]
    mean_bpp = [float(np.mean(bpp[q])) for q in qps]
    assert all(a < b for a, b in zip(mean_bpp, mean_bpp[1:]))
    assert medians[0] > 0.7
    assert all(a >= b for a, b in zip(medians, medians[1:]))


# ---------------------------------------------------------------------------
# 7. rate-cost splicing against a per-position sort oracle
# ---------------------------------------------------------------------------

def _oracle_splice(residuals, trace, include_skip):
    count = len(residuals)
    gh, gw = trace.grid_h, trace.grid_w
    h, w = residuals[0].shape
    costs = np.full((count, gh, gw), np.inf)
    for rec in trace.records:
        if rec.block_type == "SKIP" and not include_skip:
            continue
        costs[rec.frame_idx, rec.mb_y, rec.mb_x] = lambda_of_qp(rec.qp) * rec.bits
    frames = [np.zeros((h, w)) for _ in range(count)]
    filled = [np.zeros((gh, gw), dtype=bool) for _ in range(count)]
    placed = [[] for _ in range(count)]
    for by in range(gh):
        for bx in range(gw):
            column = costs[:, by, bx]
            for j, t in enumerate(np.argsort(column, kind="stable")):
                if not np.isfinite(column[t]):
                    break
                sl = (slice(16 * by, 16 * by + 16),
                      slice(16 * bx, 16 * bx + 16))
                frames[j][sl] = residuals[t][sl]
                filled[j][by, bx] = True
                placed[j].append(column[t])
    means = [float(np.mean(v)) if v else float("nan") for v in placed]
    return frames, filled, means


def _random_instance(rng):
    count = int(rng.integers(2, 7))
    gh, gw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    residuals = [rng.normal(size=(16 * gh, 16 * gw)) for t in range(count)]
    records = []
    for t in range(count):
        for by in range(gh):
            for bx in range(gw):
                if rng.random() < 0.3:
                    records.append(BlockRecord(t, bx, by, "SKIP",
                                               int(rng.integers(10, 46)), 1))
                else:
                    records.append(BlockRecord(t, bx, by, "P",
                                               int(rng.integers(10, 46)),
                                               int(rng.integers(1, 500))))
    trace = TraceFile(width=16 * gw, height=16 * gh, frame_count=count,
                      records=records)
    return residuals, trace, count, gh, gw


def test_criterion_07_splice_sort_oracle_and_conservation():
    rng = np.random.default_rng(17)
    for case in range(100):
        residuals, trace, count, gh, gw = _random_instance(rng)
        for include_skip in (False, True):
            spliced = splice_by_lambda_rate(residuals, trace,
                                            include_skip=include_skip)
            frames, filled, means = _oracle_splice(residuals, trace,
                                                   include_skip)
            assert len(spliced.values) == count
            for j in range(count):
                assert np.array_equal(spliced.values[j], frames[j])
                assert np.array_equal(spliced.filled[j], filled[j])
                got = spliced.mean_lambda_rate[j]
                if math.isnan(means[j]):
                    assert math.isnan(got)
                else:
                    assert got == pytest.approx(means[j], rel=1e-9)

        # with skips admitted every block is placed exactly once
        spliced = splice_by_lambda_rate(residuals, trace, include_skip=True)
        assert spliced.filled.all()
        for by in range(gh):
            for bx in range(gw):
                sl = (slice(16 * by, 16 * by + 16),
                      slice(16 * bx, 16 * bx + 16))
                sources = sorted(r[sl].tobytes() for r in residuals)
                targets = sorted(f[sl].tobytes() for f in spliced.values)
                assert sources == targets, case


# ---------------------------------------------------------------------------
# 8. weight-table fitting against hand-computed values
# ---------------------------------------------------------------------------

def test_criterion_08_qp_calibration_hand_values():
    runs = [
        CalibrationRun("a", samples=[(15.0, 400.0), (30.0, 100.0),
                                     (45.0, 25.0)]),
        CalibrationRun("b", samples=[(15.0, 900.0), (30.0, 144.0),
                                     (45.0, 36.0)]),
    ]
    table, report = build_qp_table(runs)
    assert table.weight_exact(15) == 1.0
    want30 = math.sqrt((100.0 / 400.0 + 144.0 / 900.0) / 2.0)
    want45 = math.sqrt((25.0 / 400.0 + 36.0 / 900.0) / 2.0)
    assert abs(table.weight_exact(30) - want30) <= 1e-9
    assert abs(table.weight_exact(45) - want45) <= 1e-9
    # densified keys interpolate linearly between observations
    want20 = 1.0 + (20.0 - 15.0) / (30.0 - 15.0) * (want30 - 1.0)
    assert abs(table.weight_exact(20) - want20) <= 1e-9
    assert len(report) == 6


# ---------------------------------------------------------------------------
# 9. parser: bijection, fuzzing, header recovery
# ---------------------------------------------------------------------------

def test_criterion_09_parser_bijection_fuzz_and_qp_recovery():
    writer = BitWriter()
    for value in range(2 ** 16 + 1):
        writer.write_ue(value)
    writer.write_trailing()
    reader = BitReader(writer.to_bytes())
    for value in range(2 ** 16 + 1):
        assert reader.read_ue() == value

    base = full_stream([(7, 4, 0, True), (0, 0, 0, False), (0, 2, 0, False)])
    slices, _ = parse_annexb(base)
    assert [s.base_qp for s in slices] == [30, 26, 28]

    rng = np.random.default_rng(19)
    error_kinds = set()
    for i in range(10_000):
        kind = i % 3
        if kind == 0:
            data = rng.bytes(int(rng.integers(0, 200)))
        elif kind == 1:
            data = b"\x00\x00\x01" + rng.bytes(int(rng.integers(0, 120)))
        else:
            buf = bytearray(base)
            for _ in range(int(rng.integers(1, 4))):
                buf[int(rng.integers(0, len(buf)))] = int(rng.integers(0, 256))
            data = bytes(buf)
        try:
            parse_annexb(data)
        except BlockPrnuError as err:
            error_kinds.add(type(err).__name__)
    # anything that is not a typed package error propagates and fails;
    # the fuzz corpus must actually exercise several failure classes
    assert len(error_kinds) >= 2

    for init in (-12, -5, 0, 7, 12):
        for delta in (-8, 0, 5, 15):
            qp = 26 + init + delta
            if not 0 <= qp <= 51:
                continue
            slices, _ = parse_annexb(full_stream([(2, delta, 0, False)],
                                                 init_qp_minus26=init))
            assert slices[0].base_qp == qp


# ---------------------------------------------------------------------------
# 10. detection statistic tracks squared pattern energy
# ---------------------------------------------------------------------------

def test_criterion_10_pce_scales_with_squared_energy_ratio():
    cfg = PceConfig(search_window="zero")
    for e in (0.5, 0.7):
        ratios = []
        for s in range(8):
            rng = np.random.default_rng(4000 + s)
            k = np.clip(rng.normal(0.0, 0.00445, size=(SIZE, SIZE)),
                        -0.099, 0.099)
            clean = [np.full((SIZE, SIZE), 130.0)] * 2
            norm = k - k.mean()
            norm = norm / np.sqrt(np.sum(norm * norm))
            ref = Fingerprint(k_values=norm,
                              support=np.ones((SIZE, SIZE), dtype=bool),
                              source_id="true")
            vals = []
            for scale in (1.0, e):
                cam = SensorModel(k_true=scale * k, read_noise_sigma=4.0)
                est = estimate_fingerprint(
                    simulate_capture(cam, clean, seed=4100 + s),
                    None, SchemeConfig("conventional"))
                vals.append(pce(est, ref, config=cfg).pce)
            ratios.append(vals[1] / vals[0])
        mean_ratio = float(np.mean(ratios))
        assert abs(mean_ratio - e ** 2) <= 0.30 * e ** 2, e


# ---------------------------------------------------------------------------
# 11. CLI determinism across reruns and worker counts
# ---------------------------------------------------------------------------

def _cli(*argv):
    return main([str(a) for a in argv])


def test_criterion_11_cli_determinism(tmp_path, capsys):
    def read(path):
        return path.read_bytes()

    # simulate: rerun-identical
    for name in ("a", "a2"):
        rc = _cli("simulate", "--width", 64, "--height", 64, "--frames", 8,
                  "--seed", 5, "--qp", 18, "--out-prefix", tmp_path / name,
                  "--out", tmp_path / f"{name}.summary")
        assert rc == 0
    for ext in (".yuv", ".trace", ".true.bpf"):
        assert read(tmp_path / f"a{ext}") == read(tmp_path / f"a2{ext}")
    assert read(tmp_path / "a.summary") == read(tmp_path / "a2.summary")

    # estimate: worker-count invariant
    refs = tmp_path / "refs"
    for n, name in ((1, "one"), (3, "three")):
        rc = _cli("estimate", "--frames", tmp_path / "a.yuv",
                  "--trace", tmp_path / "a.trace",
                  "--scheme", "conventional", "--source-id", "cam",
                  "--out", refs / f"{name}.bpf", "--workers", n)
        assert rc == 0
    assert read(refs / "one.bpf") == read(refs / "three.bpf")
    assert read(refs / "one.bpf.json") == read(refs / "three.bpf.json")
    (refs / "three.bpf").unlink()
    (refs / "three.bpf.json").unlink()
    (refs / "one.bpf").rename(refs / "cam.bpf")
    (refs / "one.bpf.json").rename(refs / "cam.bpf.json")

    # inspect and match: rerun-identical stdout
    outputs = []
    for _ in range(2):
        assert _cli("inspect", tmp_path / "a.trace") == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        assert _cli("match", "--test", refs / "cam.bpf",
                    "--reference", refs / "cam.bpf") == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    # calibrate (both modes) and evaluate: worker-count invariant
    for qp, cseed in ((15, 101), (28, 102)):
        rc = _cli("simulate", "--width", 64, "--height", 64, "--frames", 8,
                  "--seed", 5, "--content-seed", cseed, "--qp", qp,
                  "--out-prefix", tmp_path / f"v{qp}")
        assert rc == 0
    manifest = tmp_path / "calib.csv"
    manifest.write_text("cam,v15.yuv,v15.trace,15\n"
                        "cam,v28.yuv,v28.trace,28\n")
    for n in (1, 3):
        rc = _cli("calibrate", "--mode", "qp", "--manifest", manifest,
                  "--references", refs, "--out", tmp_path / f"qp{n}.wt",
                  "--report", tmp_path / f"qp{n}.report", "--workers", n)
        assert rc == 0
        rc = _cli("calibrate", "--mode", "lambda_r", "--manifest", manifest,
                  "--references", refs, "--out", tmp_path / f"lr{n}.wt",
                  "--buckets", 4, "--workers", n)
        assert rc == 0
    assert read(tmp_path / "qp1.wt") == read(tmp_path / "qp3.wt")
    assert read(tmp_path / "qp1.report") == read(tmp_path / "qp3.report")
    assert read(tmp_path / "lr1.wt") == read(tmp_path / "lr3.wt")

    eval_manifest = tmp_path / "eval.csv"
    eval_manifest.write_text("v15,cam,v15.yuv,v15.trace\n"
                             "v28,cam,v28.yuv,v28.trace\n")
    for n in (1, 3):
        rc = _cli("evaluate", "--manifest", eval_manifest,
                  "--references", refs,
                  "--schemes", "conventional,qp_noskip,lambda_r",
                  "--qp-noskip-table", tmp_path / "qp1.wt",
                  "--lambda-table", tmp_path / "lr1.wt",
                  "--out-prefix", tmp_path / f"e{n}", "--workers", n)
        assert rc == 0
    for ext in (".table.txt", ".cells.csv", ".means.txt"):
        assert read(tmp_path / f"e1{ext}") == read(tmp_path / f"e3{ext}")
