"""Experiment grids, detection tables, ROC, and skip-rate summaries."""

import numpy as np
import pytest

from blockprnu import (
    CodecConfig,
    ConfigError,
    EmptyAccumulator,
    EmptyInput,
    ExperimentGrid,
    InsufficientData,
    MatchReport,
    MissingKey,
    SchemaError,
    SchemeConfig,
    SensorModel,
    TraceFile,
    Video,
    WeightTable,
    bits_per_pixel,
    encode_sequence,
    estimate_fingerprint,
    format_ratio,
    group_labels_for_edges,
    improvement_ratios,
    pce,
    roc,
    run_grid,
    sbr_summary,
    scheme_mean_pce,
    simulate_capture,
    synthetic_clean_frames,
    threshold_table,
)
from blockprnu import evaluation, matching, prnu
from blockprnu.evaluation import scheme_means
from conftest import CountingFft, grid_records, uniform_trace


def report(value, decision=None):
    return MatchReport(pce=value, peak_offset=(0, 0), correlation_peak=1.0,
                       decision=value > 60.0 if decision is None else decision)


def neutral_qp_table(scheme):
    return WeightTable(scheme=scheme, keys=np.arange(52, dtype=np.float64),
                       weights=np.ones(52), anchor_key=15.0)


def neutral_lr_table():
    return WeightTable(scheme="lambda_r", keys=np.array([1.0, 60.0, 5000.0]),
                       weights=np.ones(3), anchor_key=60.0)


@pytest.fixture(scope="module")
def eval_setup():
    model = SensorModel.random(64, 64, k_strength=0.05, seed=40)
    bright = [np.full((64, 64), 130.0)] * 15
    reference = estimate_fingerprint(simulate_capture(model, bright, seed=41),
                                     None, SchemeConfig("conventional"),
                                     source_id="cam")
    clean = synthetic_clean_frames(64, 64, 8, seed=42)
    captured = simulate_capture(model, clean, seed=43)
    result = encode_sequence(captured, CodecConfig(qp=24))
    video = Video(result.pictures, result.trace, "cam", "v0")
    return video, {"cam": reference}


def test_run_grid_single_scheme(eval_setup):
    video, references = eval_setup
    grid = run_grid([video], [SchemeConfig("conventional")], references)
    assert grid.video_ids == ["v0"]
    assert grid.schemes == ["conventional"]
    assert grid.bpp["v0"] == pytest.approx(bits_per_pixel(video.trace))
    cell = grid.cells[("v0", "conventional")]
    assert isinstance(cell, MatchReport)
    assert grid.notes == []


def test_run_grid_all_schemes(eval_setup):
    video, references = eval_setup
    configs = [
        SchemeConfig("conventional"),
        SchemeConfig("loop_filter_only"),
        SchemeConfig("skip_eliminate"),
        SchemeConfig("qp_all", neutral_qp_table("qp_all")),
        SchemeConfig("qp_noskip", neutral_qp_table("qp_noskip")),
        SchemeConfig("lambda_r", neutral_lr_table()),
    ]
    grid = run_grid([video], configs, references)
    assert len(grid.cells) == 6
    assert all(isinstance(c, MatchReport) for c in grid.cells.values())
    assert any("loop_filter_only" in note for note in grid.notes)
    # neutral tables leave mask scale as the only difference, and PCE
    # ignores scale, so the all-blocks schemes agree
    conv = grid.cells[("v0", "conventional")].pce
    assert grid.cells[("v0", "loop_filter_only")].pce == pytest.approx(conv)
    assert grid.cells[("v0", "qp_all")].pce == pytest.approx(conv, rel=1e-9)


def test_run_grid_cells_equal_per_cell_estimates(eval_setup,
                                                 helper_threads):
    # residuals are shared across schemes and videos come through one
    # extractor, whose pool starts one helper thread, yet every cell is exactly what a lone estimate would give
    video, references = eval_setup
    twin = Video(video.pictures, video.trace, "cam", "v1")
    configs = [
        SchemeConfig("conventional"),
        SchemeConfig("skip_eliminate"),
        SchemeConfig("qp_noskip", neutral_qp_table("qp_noskip")),
        SchemeConfig("lambda_r", neutral_lr_table()),
    ]
    grid = run_grid([video, twin], configs, references, workers=2)
    assert len(helper_threads) == 1
    for config in configs:
        fp = estimate_fingerprint(video.pictures, video.trace, config)
        expected = pce(fp, references["cam"])
        assert grid.cells[("v0", config.scheme)] == expected
        assert grid.cells[("v1", config.scheme)] == expected


def test_run_grid_transforms_each_reference_once_per_video(eval_setup,
                                                          monkeypatch):
    video, references = eval_setup
    twin = Video(video.pictures, video.trace, "cam", "v1")
    configs = [SchemeConfig("conventional"), SchemeConfig("skip_eliminate"),
               SchemeConfig("lambda_r", neutral_lr_table())]
    counter = CountingFft(matching.sfft)
    monkeypatch.setattr(matching, "sfft", counter)
    grid = run_grid([video, twin], configs, references)
    assert counter.forward == 2 * (len(configs) + 1)
    # the cells are those of matching every fingerprint against the array
    monkeypatch.setattr(evaluation, "ReferenceSpectrum", lambda r: r)
    counter.forward = 0
    assert run_grid([video, twin], configs, references).cells == grid.cells
    assert counter.forward == 2 * 2 * len(configs)


def test_empty_video_is_refused_when_built(eval_setup):
    video, _ = eval_setup
    with pytest.raises(EmptyAccumulator, match="^no pictures to estimate from$"):
        Video([], video.trace, "cam", "e")


def test_run_grid_refuses_duplicate_video_ids_before_any_extraction(
        eval_setup, monkeypatch):
    video, references = eval_setup
    twin = Video(video.pictures, video.trace, "cam", "v1")

    def no_extraction(*args, **kwargs):
        raise AssertionError("residuals extracted before the check")

    monkeypatch.setattr(evaluation, "residual_extractor", no_extraction)
    with pytest.raises(SchemaError, match="^duplicate video id 'v0'$"):
        run_grid([video, twin, video], [SchemeConfig("conventional")],
                 references)


def test_run_grid_rejects_duplicate_schemes(eval_setup):
    video, references = eval_setup
    with pytest.raises(ConfigError):
        run_grid([video], [SchemeConfig("conventional"),
                           SchemeConfig("conventional")], references)


def test_run_grid_stores_cell_errors(eval_setup):
    video, references = eval_setup
    # table that only knows qp 15 while the video was coded at qp 24
    sparse = WeightTable(scheme="qp_all", keys=np.array([15.0]),
                         weights=np.array([1.0]), anchor_key=15.0)
    grid = run_grid([video], [SchemeConfig("conventional"),
                              SchemeConfig("qp_all", sparse)], references)
    assert isinstance(grid.cells[("v0", "conventional")], MatchReport)
    assert isinstance(grid.cells[("v0", "qp_all")], MissingKey)


def test_saturation_is_tested_once_per_frame_on_a_six_scheme_grid(
        eval_setup, monkeypatch):
    video, references = eval_setup
    tested = []

    def unsaturated(luma):
        tested.append(luma.shape)
        return real(luma)
    real = prnu.unsaturated
    monkeypatch.setattr(prnu, "unsaturated", unsaturated)
    videos = [video, Video(video.pictures, video.trace, "cam", "v1")]
    configs = [SchemeConfig("conventional"), SchemeConfig("loop_filter_only"),
               SchemeConfig("skip_eliminate"),
               SchemeConfig("qp_all", neutral_qp_table("qp_all")),
               SchemeConfig("qp_noskip", neutral_qp_table("qp_noskip")),
               SchemeConfig("lambda_r", neutral_lr_table())]
    grid = run_grid(videos, configs, references, workers=2)
    assert all(isinstance(c, MatchReport) for c in grid.cells.values())
    # one test per frame, not one per scheme and strip
    assert tested == [(64, 64)] * 16


def fake_grid():
    cells = {
        ("v0", "conventional"): report(100.0),
        ("v1", "conventional"): report(50.0),
        ("v0", "lambda_r"): report(200.0),
        ("v1", "lambda_r"): MissingKey("no entry"),
    }
    return ExperimentGrid(video_ids=["v0", "v1"],
                          schemes=["conventional", "lambda_r"],
                          bpp={"v0": 0.01, "v1": 0.1}, cells=cells)


def test_scheme_mean_pce_ignores_error_cells():
    grid = fake_grid()
    means = scheme_mean_pce(grid)
    assert means["conventional"] == 75.0
    assert means["lambda_r"] == 200.0  # the error cell drops out
    subset = scheme_mean_pce(grid, video_ids=["v0"])
    assert subset == {"conventional": 100.0, "lambda_r": 200.0}
    with pytest.raises(EmptyInput):
        scheme_mean_pce(grid, video_ids=["v1"])  # lambda_r has only an error
    # the evaluate command writes such a scheme's mean as nan
    subset = scheme_means(grid, video_ids=["v1"])
    assert subset["conventional"] == 50.0 and np.isnan(subset["lambda_r"])


def test_improvement_ratios():
    ratios = improvement_ratios({"conventional": 50.0, "lambda_r": 125.0})
    assert ratios == {"conventional": 1.0, "lambda_r": 2.5}
    with pytest.raises(ConfigError):
        improvement_ratios({"lambda_r": 10.0})
    with pytest.raises(EmptyInput):
        improvement_ratios({"conventional": 0.0, "lambda_r": 5.0})
    with pytest.raises(EmptyInput):
        improvement_ratios({"conventional": np.nan, "lambda_r": 5.0})


def test_format_ratio_three_significant_digits():
    assert format_ratio(1.66666) == "1.67"
    assert format_ratio(15.0) == "15"
    assert format_ratio(0.123456) == "0.123"
    assert format_ratio(234.5) == "234"


def test_group_labels():
    labels = group_labels_for_edges((0.024, 0.052, 0.084, 0.172))
    assert labels == ["<0.024", "<0.052", "<0.084", "<0.172", ">0.172"]


def test_threshold_table_counts_and_text():
    cells = {
        ("a", "conventional"): report(100.0),   # bpp 0.01 -> group 0, hit
        ("b", "conventional"): report(10.0),    # bpp 0.03 -> group 1, miss
        ("c", "conventional"): MissingKey("x"),  # bpp 0.1 -> group 3, miss
        ("d", "conventional"): report(61.0),    # bpp 0.5 -> group 4, hit
    }
    grid = ExperimentGrid(video_ids=["a", "b", "c", "d"],
                          schemes=["conventional"],
                          bpp={"a": 0.01, "b": 0.03, "c": 0.1, "d": 0.5},
                          cells=cells, notes=["sample note"])
    table = threshold_table(grid)
    assert table.group_labels == ["<0.024", "<0.052", "<0.084", "<0.172",
                                  ">0.172"]
    assert table.counts[:, 0].tolist() == [1, 0, 0, 0, 1]
    assert table.populations.tolist() == [1, 1, 0, 1, 1]
    assert table.totals.tolist() == [2]
    assert table.total_population == 4

    text = table.to_text()
    lines = text.splitlines()
    assert lines[0].startswith("group")
    assert lines[0].endswith("population")
    assert lines[-2].startswith("total")
    assert lines[-1] == "# sample note"
    body = [ln.split() for ln in lines[1:-2]]
    assert [row[0] for row in body] == table.group_labels
    assert [int(row[1]) for row in body] == [1, 0, 0, 0, 1]
    assert [int(row[2]) for row in body] == [1, 1, 0, 1, 1]


def test_threshold_table_permissive_threshold_counts_population():
    grid = fake_grid()
    table = threshold_table(grid, threshold=-np.inf)
    # every successful cell counts; the one error still misses
    assert table.counts[:, 0].sum() == 2
    assert table.counts[:, 1].sum() == 1
    assert table.total_population == 2


def test_roc_separated_and_tied():
    clean = roc([100.0, 90.0], [1.0, 2.0])
    assert clean.auc == pytest.approx(1.0, abs=1e-12)
    assert clean.fpr[0] == clean.tpr[0] == 0.0
    assert clean.fpr[-1] == clean.tpr[-1] == 1.0
    assert np.all(np.diff(clean.fpr) >= 0)
    assert np.all(np.diff(clean.tpr) >= 0)

    tied = roc([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert tied.auc == pytest.approx(0.5, abs=1e-12)

    with pytest.raises(EmptyInput):
        roc([], [1.0])
    with pytest.raises(EmptyInput):
        roc([1.0], [])


def test_sbr_summary_rows():
    half = TraceFile(width=32, height=32, frame_count=1,
                     records=grid_records(0, [["P", "P"], ["SKIP", "SKIP"]]))
    quarter = TraceFile(width=32, height=32, frame_count=1,
                        records=grid_records(0, [["P", "P"], ["P", "SKIP"]]))
    rows = sbr_summary({"low": [half, quarter], "uniform": [half]})
    assert rows[0] == "low,0.25,0.3125,0.375,0.4375,0.5"
    assert rows[1] == "uniform,0.5,0.5,0.5,0.5,0.5"
    with pytest.raises(EmptyInput):
        sbr_summary({"empty": []})


@pytest.mark.parametrize("edges", [(), (float("nan"),), (0.1, float("inf")),
                                   (0.8, 0.4), (0.4, 0.4)])
def test_threshold_table_rejects_bad_edges(edges):
    with pytest.raises(ConfigError, match="finite and increasing"):
        threshold_table(fake_grid(), edges)
    with pytest.raises(ConfigError):
        group_labels_for_edges(edges)


def test_run_grid_missing_reference_fails_before_any_extraction(eval_setup,
                                                                monkeypatch):
    video, references = eval_setup
    stranger = Video(video.pictures, video.trace, "nocam", "s")

    def no_extraction(*args, **kwargs):
        raise AssertionError("residuals extracted before the check")

    monkeypatch.setattr(evaluation, "residual_extractor", no_extraction)
    with pytest.raises(InsufficientData, match="nocam"):
        run_grid([video, stranger], [SchemeConfig("conventional")],
                 references)
