"""Command-line interface: subcommands, exit codes, reproducibility."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockprnu import (
    WeightTable,
    bits_per_pixel,
    read_fingerprint,
    skipped_block_rate,
    write_yuv420,
)
from blockprnu import cli, errors, prnu
from blockprnu.bitstream import load_trace, save_trace
from blockprnu.cli import main
from conftest import uniform_trace


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    """One simulated camera and video on disk."""
    root = tmp_path_factory.mktemp("sim")
    prefix = root / "a"
    rc = run("simulate", "--width", 64, "--height", 64, "--frames", 8,
             "--seed", 5, "--qp", 18, "--out-prefix", prefix,
             "--out", root / "summary.txt")
    assert rc == 0
    return {
        "root": root,
        "yuv": prefix.with_suffix(".yuv"),
        "trace": prefix.with_suffix(".trace"),
        "true": root / "a.true.bpf",
        "summary": root / "summary.txt",
    }


@pytest.fixture(scope="module")
def reference(sim):
    """Conventional-scheme fingerprint of the simulated video."""
    out = sim["root"] / "refs" / "cam.bpf"
    rc = run("estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
             "--scheme", "conventional", "--source-id", "cam",
             "--out", out, "--workers", 1)
    assert rc == 0
    return out


def test_simulate_outputs(sim):
    for key in ("yuv", "trace", "true", "summary"):
        assert sim[key].exists(), key
    summary = dict(line.split("=") for line in
                   sim["summary"].read_text().splitlines())
    assert summary["frames"] == "8"
    assert summary["qp_last"] == "18"
    assert 0.0 <= float(summary["skipped_block_rate"]) <= 1.0
    assert float(summary["bits_per_pixel"]) > 0.0
    truth = read_fingerprint(sim["true"])
    assert truth.source_id == "true"
    assert truth.shape == (64, 64)
    assert truth.support.all()
    assert (truth.k_values ** 2).sum() == pytest.approx(1.0, abs=1e-6)


def test_simulate_deterministic(sim, tmp_path):
    rc = run("simulate", "--width", 64, "--height", 64, "--frames", 8,
             "--seed", 5, "--qp", 18, "--out-prefix", tmp_path / "b",
             "--out", tmp_path / "s.txt")
    assert rc == 0
    assert (tmp_path / "b.yuv").read_bytes() == sim["yuv"].read_bytes()
    assert (tmp_path / "b.trace").read_bytes() == sim["trace"].read_bytes()
    assert (tmp_path / "b.true.bpf").read_bytes() == sim["true"].read_bytes()


def test_simulate_content_seed_changes_video_not_camera(sim, tmp_path):
    rc = run("simulate", "--width", 64, "--height", 64, "--frames", 8,
             "--seed", 5, "--content-seed", 99, "--qp", 18,
             "--out-prefix", tmp_path / "c")
    assert rc == 0
    assert (tmp_path / "c.true.bpf").read_bytes() == sim["true"].read_bytes()
    assert (tmp_path / "c.yuv").read_bytes() != sim["yuv"].read_bytes()


def test_simulate_needs_exactly_one_rate_mode(tmp_path):
    assert run("simulate", "--out-prefix", tmp_path / "x") == 2
    assert run("simulate", "--qp", 20, "--target-bits", 500,
               "--out-prefix", tmp_path / "x") == 2


@pytest.mark.parametrize("flags, message", [
    (["--qp", 20, "--width", 0], "sensor shape (128, 0) is not two"),
    (["--qp", 20, "--height", -16], "sensor shape (-16, 128) is not two"),
    (["--qp", 20, "--k-strength", -1], "k strength must be non-negative"),
    (["--target-bits", "nan"], "target bits per frame must be positive"),
    (["--qp", 30, "--seed", -1], "seed must be non-negative, got -1"),
    (["--qp", 30, "--content-seed", -5], "seed must be non-negative, got -5"),
])
def test_simulate_refuses_bad_sizes_and_strengths(tmp_path, capsys, flags,
                                                  message):
    rc = run("simulate", "--frames", 2, *flags, "--out-prefix", tmp_path / "x")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_inspect_agrees_with_library(sim, capsys):
    assert run("inspect", sim["trace"]) == 0
    out = dict(line.split("=") for line in
               capsys.readouterr().out.strip().splitlines())
    trace = load_trace(sim["trace"])
    assert out["width"] == "64" and out["height"] == "64"
    assert out["frames"] == "8"
    assert int(out["blocks"]) == len(trace.records) == 8 * 16
    type_total = sum(int(out[f"count_{t}"]) for t in ("I", "P", "B", "SKIP"))
    assert type_total == len(trace.records)
    assert float(out["skipped_block_rate"]) == skipped_block_rate(trace)
    assert float(out["bits_per_pixel"]) == bits_per_pixel(trace)


def test_estimate_writes_fingerprint_and_sidecar(reference, sim):
    fp = read_fingerprint(reference)
    assert fp.source_id == "cam"
    assert fp.shape == (64, 64)
    meta = json.loads((reference.parent / "cam.bpf.json").read_text())
    assert meta["scheme"] == "conventional"
    assert meta["frame_count"] == 8
    assert meta["width"] == meta["height"] == 64
    assert meta["source_id"] == "cam"
    assert meta["table"] is None
    assert "config_hash" in meta
    assert "workers" not in meta  # worker count must not affect outputs


def test_estimate_worker_invariance(sim, tmp_path):
    for n, name in ((1, "w1"), (3, "w3")):
        rc = run("estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
                 "--scheme", "conventional", "--source-id", "cam",
                 "--out", tmp_path / f"{name}.bpf", "--workers", n)
        assert rc == 0
    assert ((tmp_path / "w1.bpf").read_bytes()
            == (tmp_path / "w3.bpf").read_bytes())
    assert ((tmp_path / "w1.bpf.json").read_text()
            == (tmp_path / "w3.bpf.json").read_text())


def test_estimate_source_id_defaults_to_output_stem(sim, tmp_path):
    rc = run("estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
             "--scheme", "conventional", "--out", tmp_path / "cam7.bpf",
             "--workers", 1)
    assert rc == 0
    assert read_fingerprint(tmp_path / "cam7.bpf").source_id == "cam7"


def test_estimate_table_flag_validation(sim, tmp_path, capsys):
    capsys.readouterr()
    assert run("estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
               "--scheme", "lambda_r", "--out", tmp_path / "x.bpf") == 2
    assert (capsys.readouterr().err
            == "error: scheme lambda_r needs a weight table\n")
    table = tmp_path / "t.wt"
    WeightTable(scheme="qp_noskip", keys=np.arange(52, dtype=np.float64),
                weights=np.ones(52), anchor_key=15.0).save(table)
    assert run("estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
               "--scheme", "conventional", "--table", table,
               "--out", tmp_path / "x.bpf") == 2
    assert (capsys.readouterr().err
            == "error: scheme conventional does not take a weight table\n")
    # right flag, wrong table kind: input error, not usage
    rc = run("estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
             "--scheme", "qp_all", "--table", table,
             "--out", tmp_path / "x.bpf", "--workers", 1)
    assert rc == 3


def test_match_self_is_a_detection(reference, capsys):
    assert run("match", "--test", reference, "--reference", reference) == 0
    fields = capsys.readouterr().out.strip().split(",")
    assert fields[0] == fields[1] == "cam"
    assert float(fields[2]) > 60.0
    assert (fields[3], fields[4]) == ("0", "0")
    assert fields[5] == "1"


def test_match_threshold_and_search_flags(reference, capsys):
    assert run("match", "--test", reference, "--reference", reference,
               "--threshold", 1e12, "--search", "zero") == 0
    fields = capsys.readouterr().out.strip().split(",")
    assert fields[5] == "0"


def test_exit_codes_for_bad_inputs(sim, tmp_path, capsys):
    assert run("inspect", tmp_path / "missing.trace") == 3
    assert "missing.trace" in capsys.readouterr().err

    corrupt = tmp_path / "bad.trace"
    corrupt.write_text("not a trace\n")
    assert run("inspect", corrupt) == 3

    assert run("match", "--test", sim["true"], "--reference", sim["true"],
               "--exclusion", 10) == 2
    assert run("estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
               "--scheme", "conventional", "--out", tmp_path / "x.bpf",
               "--workers", 0) == 2


def test_out_of_domain_values_exit_2(sim, tmp_path, capsys):
    common = ("estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
              "--scheme", "conventional", "--out", tmp_path / "x.bpf",
              "--workers", 1)
    assert run(*common, "--floor", 0) == 2
    assert "floor" in capsys.readouterr().err
    assert run(*common, "--noise-var", 0) == 2
    assert "noise variance" in capsys.readouterr().err
    assert not (tmp_path / "x.bpf").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("calibrate", ("--mode", "qp", "--exclusion", 4), "exclusion"),
    ("calibrate", ("--mode", "qp", "--noise-var", 0), "noise variance"),
    ("calibrate", ("--mode", "qp", "--workers", 0), "workers"),
    ("evaluate", ("--schemes", "conventional", "--exclusion", 4),
     "exclusion"),
    ("estimate", ("--noise-var", 0), "noise variance"),
    ("estimate", ("--floor", 0), "denominator floor"),
    ("calibrate", ("--mode", "lambda_r", "--buckets", 0), "bucket"),
    ("evaluate", ("--threshold", "nan"), "threshold"),
    ("evaluate", ("--schemes", "conventional,conventional"),
     "duplicate schemes"),
    ("match", ("--threshold", "nan"), "threshold"),
    ("match", ("--exclusion", 4), "exclusion"),
    ("estimate", ("--table", "missing.wt"), "does not take a weight table"),
])
def test_bad_flags_exit_2_before_any_input_is_read(tmp_path, capsys, command,
                                                   flags, message):
    # every input named is missing, which would exit 3 if it were read
    manifest = tmp_path / "videos.csv"
    manifest.write_text("v,cam,missing.yuv,missing.trace\n"
                        if command == "evaluate"
                        else "cam,missing.yuv,missing.trace,15\n")
    inputs = {
        "calibrate": ("--manifest", manifest, "--references", tmp_path,
                      "--out", tmp_path / "t.wt"),
        "evaluate": ("--manifest", manifest, "--references", tmp_path,
                     "--out-prefix", tmp_path / "grid"),
        "estimate": ("--frames", tmp_path / "missing.yuv", "--trace",
                     tmp_path / "missing.trace", "--scheme", "conventional",
                     "--out", tmp_path / "x.bpf"),
        "match": ("--test", tmp_path / "missing.bpf", "--reference",
                  tmp_path / "missing.bpf", "--out", tmp_path / "m.txt"),
    }
    capsys.readouterr()
    assert run(command, *inputs[command], *flags) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["videos.csv"]


def test_degenerate_inputs_exit_4(tmp_path):
    flat = np.full((4, 64, 64), 128, dtype=np.uint8)
    write_yuv420(flat, tmp_path / "flat.yuv")
    save_trace(uniform_trace(4, 4, 4), tmp_path / "flat.trace")
    rc = run("estimate", "--frames", tmp_path / "flat.yuv",
             "--trace", tmp_path / "flat.trace", "--scheme", "conventional",
             "--out", tmp_path / "flat.bpf", "--workers", 1)
    assert rc == 0  # all-zero pattern is representable
    rc = run("match", "--test", tmp_path / "flat.bpf",
             "--reference", tmp_path / "flat.bpf")
    assert rc == 4  # but matching it is meaningless


def test_frame_count_mismatch_is_input_error(sim, tmp_path, capsys):
    save_trace(uniform_trace(3, 4, 4), tmp_path / "short.trace")
    capsys.readouterr()
    rc = run("estimate", "--frames", sim["yuv"],
             "--trace", tmp_path / "short.trace",
             "--scheme", "conventional", "--out", tmp_path / "x.bpf",
             "--workers", 1)
    assert rc == 3
    # the error names the frames file
    assert capsys.readouterr().err.startswith(f"error: {sim['yuv']}: ")


def test_workers_env_var(sim, tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCKPRNU_WORKERS", "junk")
    rc = run("estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
             "--scheme", "conventional", "--out", tmp_path / "x.bpf")
    assert rc == 2
    monkeypatch.setenv("BLOCKPRNU_WORKERS", "2")
    rc = run("estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
             "--scheme", "conventional", "--source-id", "cam",
             "--out", tmp_path / "env.bpf")
    assert rc == 0
    rc = run("estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
             "--scheme", "conventional", "--source-id", "cam",
             "--out", tmp_path / "one.bpf", "--workers", 1)
    assert rc == 0
    assert ((tmp_path / "env.bpf").read_bytes()
            == (tmp_path / "one.bpf").read_bytes())


def test_default_workers_follow_cpu_affinity(monkeypatch):
    # under taskset or a cpuset the affinity mask, not the host, sets the
    # default; platforms without sched_getaffinity fall back to cpu_count
    from blockprnu.prnu import resolve_workers
    monkeypatch.delenv("BLOCKPRNU_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                        raising=False)
    assert resolve_workers(None) == 2
    # an explicit count, or BLOCKPRNU_WORKERS, is capped at those CPUs
    assert resolve_workers(5) == 2
    assert resolve_workers(1) == 1
    monkeypatch.setenv("BLOCKPRNU_WORKERS", "5")
    assert resolve_workers(None) == 2
    monkeypatch.delenv("BLOCKPRNU_WORKERS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert resolve_workers(None) == 64
    assert resolve_workers(5) == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_workers(None) == 1


@pytest.fixture(scope="module")
def calib(sim, reference, tmp_path_factory):
    """Two more videos from the same camera at different fixed QPs."""
    root = tmp_path_factory.mktemp("calib")
    for qp, cseed in ((15, 101), (28, 102)):
        rc = run("simulate", "--width", 64, "--height", 64, "--frames", 8,
                 "--seed", 5, "--content-seed", cseed, "--qp", qp,
                 "--out-prefix", root / f"v{qp}")
        assert rc == 0
    manifest = root / "calib.csv"
    manifest.write_text(
        "# camera,frames,trace,qp\n"
        "cam,v15.yuv,v15.trace,15\n"
        "cam,v28.yuv,v28.trace,28\n")
    return root, manifest, reference.parent


def test_calibrate_qp_cli(calib):
    root, manifest, refs = calib
    rc = run("calibrate", "--mode", "qp", "--manifest", manifest,
             "--references", refs, "--out", root / "qp.wt",
             "--report", root / "qp_report.txt", "--workers", 1)
    assert rc == 0
    table = WeightTable.load(root / "qp.wt")
    assert table.scheme == "qp_noskip"
    assert table.weight_exact(15) == 1.0
    assert table.keys.size == 52
    report = (root / "qp_report.txt").read_text().strip().splitlines()
    assert len(report) == 2
    assert all(line.startswith("cam,") for line in report)

    rc = run("calibrate", "--mode", "qp", "--manifest", manifest,
             "--references", refs, "--out", root / "qp_all.wt",
             "--include-skip", "--workers", 1)
    assert rc == 0
    assert WeightTable.load(root / "qp_all.wt").scheme == "qp_all"


def test_calibrate_lambda_cli(calib):
    root, manifest, refs = calib
    rc = run("calibrate", "--mode", "lambda_r", "--manifest", manifest,
             "--references", refs, "--out", root / "lr.wt",
             "--buckets", 4, "--workers", 1)
    assert rc == 0
    table = WeightTable.load(root / "lr.wt")
    assert table.scheme == "lambda_r"
    assert table.weight_interp(60.0) == 1.0


@pytest.mark.parametrize("flag", ["--threshold", "--anchor-qp",
                                  "--anchor-lambda-rate"])
def test_calibrate_has_no_threshold_or_anchor_flag_exit_2(calib, tmp_path,
                                                        flag):
    # calibration takes no decision, and its anchors are fixed at 15 and 60
    root, manifest, refs = calib
    with pytest.raises(SystemExit) as err:
        run("calibrate", "--mode", "qp", "--manifest", manifest,
            "--references", refs, "--out", tmp_path / "t.wt", flag, 5,
            "--workers", 1)
    assert err.value.code == 2
    assert not (tmp_path / "t.wt").exists()


def test_calibrate_missing_reference_exit_4(calib, tmp_path):
    root, manifest, _ = calib
    (tmp_path / "emptyrefs").mkdir()
    rc = run("calibrate", "--mode", "qp", "--manifest", manifest,
             "--references", tmp_path / "emptyrefs", "--out",
             tmp_path / "t.wt", "--workers", 1)
    assert rc == 3  # unreadable reference file is an input problem


def _calibrate_bad_manifest(calib, tmp_path, capsys, rows):
    """Exit code and the one stderr line of a qp calibration whose manifest
    holds the given rows; no table may be written."""
    root, _, refs = calib
    manifest = root / "bad_calib.csv"
    manifest.write_text(rows)
    capsys.readouterr()
    rc = run("calibrate", "--mode", "qp", "--manifest", manifest,
             "--references", refs, "--out", tmp_path / "t.wt",
             "--workers", 1)
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert not (tmp_path / "t.wt").exists()
    return rc, err


def test_calibrate_qp_outside_range_exit_3(calib, tmp_path, capsys):
    rc, err = _calibrate_bad_manifest(calib, tmp_path, capsys,
                                      "cam,v15.yuv,v15.trace,15\n"
                                      "cam,v28.yuv,v28.trace,99\n")
    assert rc == 3
    assert "qp 99" in err


def test_calibrate_empty_qp_field_exit_3(calib, tmp_path, capsys,
                                         monkeypatch):
    loaded = []
    monkeypatch.setattr(cli, "load_trace",
                        lambda path: loaded.append(path) or load_trace(path))
    rc, err = _calibrate_bad_manifest(calib, tmp_path, capsys,
                                      "cam,v15.yuv,v15.trace,15\n"
                                      "cam,v28.yuv,v28.trace,\n")
    assert rc == 3
    assert "bad_calib.csv:2: empty qp field" in err
    assert loaded == []         # the manifest is checked before any trace


# ---------------------------------------------------------------------------
# inputs that cannot give a result fail before any residual is extracted
# ---------------------------------------------------------------------------

@pytest.fixture
def extractions(monkeypatch):
    """Stacked parts handed to extract_residual (run in-process)."""
    planes = []
    real = prnu.extract_residual
    monkeypatch.setattr(prnu, "extract_residual",
                        lambda luma, config, spread: planes.append(luma)
                        or real(luma, config, spread))
    return planes


def test_estimate_table_without_the_video_qp_exit_3(sim, tmp_path, capsys,
                                                    extractions):
    table = tmp_path / "t.wt"
    WeightTable(scheme="qp_all", keys=np.array([15.0, 16.0]),
                weights=np.array([1.0, 0.9]), anchor_key=15.0).save(table)
    capsys.readouterr()
    assert run("estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
               "--scheme", "qp_all", "--table", table,
               "--out", tmp_path / "x.bpf", "--workers", 1) == 3
    err = capsys.readouterr().err
    assert err == "error: table has no weight for qp 18\n"
    assert extractions == []
    assert not (tmp_path / "x.bpf").exists()


def test_calibrate_qp_without_an_anchor_video_exit_4(calib, tmp_path, capsys,
                                                     extractions):
    rc, err = _calibrate_bad_manifest(calib, tmp_path, capsys,
                                      "cam,v28.yuv,v28.trace,28\n")
    assert rc == 4
    assert err == "error: camera cam has no qp=15 observation\n"
    assert extractions == []


@pytest.mark.parametrize("buckets", [-3, 0])
def test_calibrate_lambda_without_buckets_exit_2(calib, tmp_path, capsys,
                                                 extractions, buckets):
    root, manifest, refs = calib
    capsys.readouterr()
    assert run("calibrate", "--mode", "lambda_r", "--manifest", manifest,
               "--references", refs, "--out", tmp_path / "lr.wt",
               "--buckets", buckets, "--workers", 1) == 2
    err = capsys.readouterr().err
    assert err == f"error: need at least one bucket, got {buckets}\n"
    assert extractions == []
    assert not (tmp_path / "lr.wt").exists()


def test_calibrate_lambda_one_frame_video_exit_4_before_extracting(
        calib, tmp_path, capsys, extractions):
    root, _, refs = calib
    one = np.full((1, 64, 64), 100, dtype=np.uint8)
    write_yuv420(one, root / "one.yuv")
    save_trace(uniform_trace(1, 4, 4), root / "one.trace")
    manifest = root / "one_frame.csv"
    manifest.write_text("cam,v15.yuv,v15.trace\ncam,one.yuv,one.trace\n")
    capsys.readouterr()
    assert run("calibrate", "--mode", "lambda_r", "--manifest", manifest,
               "--references", refs, "--out", tmp_path / "lr.wt",
               "--workers", 1) == 4
    err = capsys.readouterr().err
    assert err == "error: splicing needs at least 2 frames, got 1\n"
    assert extractions == []
    assert not (tmp_path / "lr.wt").exists()


@pytest.fixture(scope="module")
def calib_tables(calib):
    """The qp_noskip and lambda_r tables of the calibration videos, as
    qp.wt and lr.wt next to them, whichever tests ran before."""
    root, manifest, refs = calib
    for mode, name, extra in (("qp", "qp.wt", ()),
                              ("lambda_r", "lr.wt", ("--buckets", 4))):
        assert run("calibrate", "--mode", mode, "--manifest", manifest,
                   "--references", refs, "--out", root / name, *extra,
                   "--workers", 1) == 0


def test_evaluate_cli(calib, calib_tables):
    root, _, refs = calib
    manifest = root / "eval.csv"
    manifest.write_text("v15,cam,v15.yuv,v15.trace\n"
                        "v28,cam,v28.yuv,v28.trace\n")
    rc = run("evaluate", "--manifest", manifest, "--references", refs,
             "--schemes", "conventional,skip_eliminate,qp_noskip,lambda_r",
             "--qp-noskip-table", root / "qp.wt",
             "--lambda-table", root / "lr.wt",
             "--out-prefix", root / "out", "--workers", 1)
    assert rc == 0

    table_text = (root / "out.table.txt").read_text()
    lines = table_text.splitlines()
    assert lines[0].startswith("group") and lines[0].endswith("population")
    assert any(ln.startswith("total") for ln in lines)

    cells = (root / "out.cells.csv").read_text().strip().splitlines()
    assert len(cells) == 2 * 4
    for line in cells:
        parts = line.split(",")
        assert parts[0] in ("v15", "v28")
        assert parts[1] in ("conventional", "skip_eliminate", "qp_noskip",
                            "lambda_r")

    means = dict(ln.split(",") for ln in
                 (root / "out.means.txt").read_text().strip().splitlines())
    assert "conventional" in means
    assert means["ratio_conventional"] == "1"


def test_evaluate_scheme_without_a_successful_cell_writes_nan_means(
        calib, tmp_path):
    # a table without the videos' QPs fails every qp_noskip cell, which is
    # data like any failing cell: all three files are written
    root, _, refs = calib
    manifest = root / "eval.csv"
    manifest.write_text("v15,cam,v15.yuv,v15.trace\n"
                        "v28,cam,v28.yuv,v28.trace\n")
    table = tmp_path / "sparse.wt"
    WeightTable(scheme="qp_noskip", keys=np.array([0.0, 1.0]),
                weights=np.array([1.0, 0.5]), anchor_key=0.0).save(table)
    rc = run("evaluate", "--manifest", manifest, "--references", refs,
             "--schemes", "conventional,qp_noskip", "--qp-noskip-table", table,
             "--out-prefix", tmp_path / "out", "--workers", 1)
    assert rc == 0
    cells = (tmp_path / "out.cells.csv").read_text().splitlines()
    assert [c.split(",", 2)[2] for c in cells if ",qp_noskip," in c] == [
        "nan,0,0,error:MissingKey"] * 2
    assert (tmp_path / "out.table.txt").exists()
    means = dict(ln.split(",") for ln in
                 (tmp_path / "out.means.txt").read_text().splitlines())
    assert float(means["conventional"]) > 0
    assert means["qp_noskip"] == "nan"
    assert means["ratio_conventional"] == "1"
    assert means["ratio_qp_noskip"] == "nan"

    # without a successful baseline cell every ratio is nan
    rc = run("evaluate", "--manifest", manifest, "--references", refs,
             "--schemes", "qp_noskip,conventional", "--qp-noskip-table", table,
             "--out-prefix", tmp_path / "base", "--workers", 1,
             "--exclusion", 999)
    assert rc == 0
    assert (tmp_path / "base.means.txt").read_text() == (
        "qp_noskip,nan\nconventional,nan\n"
        "ratio_qp_noskip,nan\nratio_conventional,nan\n")


def test_small_frame_commands_fork_no_pool(sim, calib, calib_tables,
                                           tmp_path, helper_threads):
    # 64x64 frames are smaller than a part: at --workers 2 each command
    # extracts them in stacked runs on its own thread and one helper
    # thread, forks no process and writes the bytes --workers 1 writes
    root, manifest, refs = calib
    videos = root / "eval_workers.csv"
    videos.write_text("v15,cam,v15.yuv,v15.trace\n"
                      "v28,cam,v28.yuv,v28.trace\n")
    calibrate = ("calibrate", "--manifest", manifest, "--references", refs)
    commands = {
        "estimate": lambda out: (
            "estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
            "--scheme", "skip_eliminate", "--source-id", "cam",
            "--out", out / "cam.bpf"),
        "calibrate_qp": lambda out: (
            *calibrate, "--mode", "qp", "--out", out / "qp.wt",
            "--report", out / "report.txt"),
        "calibrate_qp_all": lambda out: (
            *calibrate, "--mode", "qp", "--include-skip",
            "--out", out / "qp_all.wt"),
        "calibrate_lambda_r": lambda out: (
            *calibrate, "--mode", "lambda_r", "--buckets", 4,
            "--out", out / "lr.wt"),
        "evaluate": lambda out: (
            "evaluate", "--manifest", videos, "--references", refs,
            "--schemes", "conventional,skip_eliminate,qp_noskip,lambda_r",
            "--qp-noskip-table", root / "qp.wt",
            "--lambda-table", root / "lr.wt", "--out-prefix", out / "out"),
    }
    for name, argv in commands.items():
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"{name}-{workers}"
            out.mkdir()
            started = len(helper_threads)
            assert run(*argv(out), "--workers", workers) == 0, name
            # no thread at one worker, one helper at two, however many
            # videos the command reads, and none outlives the command
            assert len(helper_threads) - started == workers - 1, name
            assert not any(t.is_alive() for t in helper_threads), name
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] and outputs[0] == outputs[1], name


def test_evaluate_duplicate_video_id_exit_3_before_extracting(
        calib, tmp_path, capsys, extractions):
    root, _, refs = calib
    manifest = root / "twice.csv"
    manifest.write_text("v15,cam,v15.yuv,v15.trace\n"
                        "v15,cam,v28.yuv,v28.trace\n")
    capsys.readouterr()
    assert run("evaluate", "--manifest", manifest, "--references", refs,
               "--schemes", "conventional", "--out-prefix",
               tmp_path / "out", "--workers", 1) == 3
    assert capsys.readouterr().err == "error: duplicate video id 'v15'\n"
    assert extractions == []
    assert not (tmp_path / "out.table.txt").exists()


def test_evaluate_scheme_validation(calib, capsys):
    root, _, refs = calib
    manifest = root / "eval.csv"
    capsys.readouterr()
    for schemes, message in (("conventional,warp", "unknown scheme 'warp'"),
                             ("lambda_r", "scheme lambda_r needs a weight "
                                          "table"),
                             (" , ", "no schemes requested")):
        assert run("evaluate", "--manifest", manifest, "--references", refs,
                   "--schemes", schemes, "--out-prefix", root / "bad") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(root.glob("bad.*"))


def test_main_requires_subcommand():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# exit codes carried by the error classes
# ---------------------------------------------------------------------------

EXIT_CODES = {
    "ConfigError": 2,
    "InputError": 3, "SchemaError": 3, "CoverageGap": 3, "RangeError": 3,
    "MalformedStream": 3, "TruncatedUnit": 3, "BitstreamExhausted": 3,
    "MissingParameterSet": 3, "UnsupportedProfile": 3, "MissingKey": 3,
    "DimensionMismatch": 3,
    "EmptyInput": 4, "EmptyAccumulator": 4, "AllMaskedOut": 4,
    "DegenerateFingerprint": 4, "MissingAnchor": 4, "InsufficientData": 4,
    "InsufficientFrames": 4, "EmptyBucket": 4,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_keeps_its_exit_code():
    found = {cls.__name__: cls.exit_code
             for cls in _subclasses(errors.BlockPrnuError)
             if cls.__module__ == errors.__name__}
    assert found == EXIT_CODES


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_main_exits_with_the_code_of_the_class(name, monkeypatch, capsys):
    def fail(args):
        raise getattr(errors, name)("boom")

    monkeypatch.setattr(cli, "cmd_inspect", fail)
    assert run("inspect", "any.trace") == EXIT_CODES[name]
    assert capsys.readouterr().err == "error: boom\n"


# ---------------------------------------------------------------------------
# outside text that is not UTF-8: exit 3 with one error line
# ---------------------------------------------------------------------------

def _one_error_line(capsys, *words):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    for word in ("not UTF-8",) + words:
        assert word in err, err


def test_inspect_trace_ending_in_0xff(sim, tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_bytes(sim["trace"].read_bytes().rstrip(b"\n")[:-1] + b"\xff")
    assert run("inspect", bad) == 3
    _one_error_line(capsys, "bad.trace")


def test_inspect_trace_whose_grid_overflows_int64(tmp_path, capsys):
    # a typed error, not a bare OverflowError traceback (exit 1)
    huge = tmp_path / "huge.trace"
    huge.write_text("#w=1000000000000000000000000 h=16 mb=16 frames=1\n"
                    "0,0,0,I,20,10\n")
    assert run("inspect", huge) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: trace header claims") and len(err.splitlines()) == 1



@pytest.mark.parametrize("command, flags, message", [
    ("estimate", ["--noise-var", "inf"], "noise variance must be positive and finite"),
    ("match", ["--threshold", "nan"], "PCE threshold must be a number"),
    ("evaluate", ["--threshold", "nan"], "PCE threshold must be a number"),
    ("simulate", ["--target-bits", "inf"], "target bits per frame must be positive and finite"),
    ("simulate", ["--qp", 20, "--read-noise", "inf"], "read noise sigma must be non-negative and finite"),
    ("simulate", ["--qp", 20, "--k-strength", "inf"], "k strength must be non-negative and finite"),
])
def test_non_finite_settings_exit_2_without_output(sim, reference, calib, tmp_path,
                                                   capsys, command, flags, message):
    root, _, refs = calib
    (root / "one.csv").write_text("v15,cam,v15.yuv,v15.trace\n")
    inputs = {
        "estimate": ["--frames", sim["yuv"], "--trace", sim["trace"],
                     "--scheme", "conventional", "--out", tmp_path / "cam.bpf",
                     "--workers", 1],
        "match": ["--test", reference, "--reference", reference,
                  "--out", tmp_path / "match.txt"],
        "evaluate": ["--manifest", root / "one.csv", "--references", refs,
                     "--schemes", "conventional", "--out-prefix", tmp_path / "o",
                     "--workers", 1],
        "simulate": ["--frames", 2, "--out-prefix", tmp_path / "x",
                     "--out", tmp_path / "summary.txt"],
    }
    capsys.readouterr()
    assert run(command, *inputs[command], *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())

def test_evaluate_manifest_holding_0xff(calib, tmp_path, capsys):
    root, _, refs = calib
    manifest = root / "bad_eval.csv"
    manifest.write_bytes(b"v15,cam\xff,v15.yuv,v15.trace\n")
    assert run("evaluate", "--manifest", manifest, "--references", refs,
               "--schemes", "conventional", "--out-prefix", tmp_path / "o",
               "--workers", 1) == 3
    _one_error_line(capsys, "bad_eval.csv")


def test_weight_table_holding_0xff(sim, tmp_path, capsys):
    table = tmp_path / "bad.wt"
    table.write_bytes(b"#scheme=lambda_r anchor_key=60.0\n60.0,1.0\xff\n")
    assert run("estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
               "--scheme", "lambda_r", "--table", table,
               "--out", tmp_path / "x.bpf", "--workers", 1) == 3
    _one_error_line(capsys, "bad.wt")
    assert not (tmp_path / "x.bpf").exists()


def test_fingerprint_source_id_not_utf8(reference, tmp_path, capsys):
    data = bytearray(reference.read_bytes())
    sid = len(b"BPFP\x01") + 12                 # the source id "cam" follows
    assert data[sid:sid + 3] == b"cam"
    data[sid] = 0xff
    bad = tmp_path / "bad.bpf"
    bad.write_bytes(bytes(data))
    assert run("match", "--test", bad, "--reference", reference) == 3
    _one_error_line(capsys, "bad.bpf", "source id")


LONG_FIELD = "x" * 131_073      # one past the csv module's field limit


@pytest.mark.parametrize("case, code, message", [
    ("source id", 2, "source id '\\udcff' is not UTF-8 text"),
    ("output stem", 2, "source id 'cam\\udcff' is not UTF-8 text"),
    ("v15,cam,v15.yuv,v15.trace\nv28,cam,v28.yuv," + LONG_FIELD, 3,
     "in.csv:2: field larger than field limit"),
    ("v15,cam,v15\0.yuv,v15.trace", 3, "in.csv:1: NUL in manifest"),
    ("v15,c\0am,v15.yuv,v15.trace", 3, "in.csv:1: NUL in manifest"),
], ids=["source id", "output stem", "long field", "NUL path", "NUL camera"])
def test_unusable_ids_and_manifest_fields_exit_with_one_error_line(
        sim, calib, tmp_path, capsys, extractions, case, code, message):
    # each escaped as a traceback: UnicodeEncodeError after the whole
    # extraction, _csv.Error, and ValueError from opening the file
    root, _, refs = calib
    out = tmp_path / "out"
    if case in ("source id", "output stem"):
        named = ["--source-id", "\udcff"] if case == "source id" else []
        argv = ["estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
                "--scheme", "conventional", "--out", out / "cam\udcff.bpf",
                "--workers", 1, *named]
    else:
        manifest = tmp_path / "in.csv"
        manifest.write_text(case.replace("v15.", f"{root}/v15.")
                            .replace("v28.", f"{root}/v28."))
        argv = ["evaluate", "--manifest", manifest, "--references", refs,
                "--schemes", "conventional", "--out-prefix", out / "o",
                "--workers", 1]
    capsys.readouterr()
    assert run(*argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    assert extractions == []
    assert not out.exists()


def test_manifest_errors_name_the_line_after_a_quoted_line_break(calib, tmp_path,
                                                                 capsys):
    rc, err = _calibrate_bad_manifest(calib, tmp_path, capsys,
                                      'cam,"v15\n.yuv",v15.trace,15\n'
                                      "cam,v28.yuv,v28.trace,\n")
    assert rc == 3
    assert "bad_calib.csv:3: empty qp field" in err


@pytest.mark.parametrize("rows, message", [
    ("cam,v15.yuv\ncam,v28.yuv,v28.trace," + LONG_FIELD + "\n",
     "bad_calib.csv:1: expected 4-4 fields, got 2"),
    ("cam,v15.yuv,v15.trace\n# a\0comment\ncam,v28.yuv,v28.trace,\n",
     "bad_calib.csv:2: NUL in manifest"),
], ids=["csv error later", "NUL in a comment"])
def test_manifest_errors_come_in_file_order_and_refuse_any_nul(
        calib, tmp_path, capsys, rows, message):
    rc, err = _calibrate_bad_manifest(calib, tmp_path, capsys, rows)
    assert rc == 3
    assert message in err


MANIFEST_PIECES = st.one_of(
    st.sampled_from([b"\0", b'"', b",", b"\r", b"\n", b"\r\n", b"#", b" ",
                     b"cam", b"15", b"a.yuv", b"a.trace", b"..", b"/", b"\xff",
                     b"\xc3", b"\xed\xa0\x80", "é".encode(),
                     b"y" * 131_073]),
    st.binary(max_size=12))


@settings(max_examples=150, deadline=None)
@given(data=st.lists(MANIFEST_PIECES, max_size=24).map(b"".join),
       command=st.sampled_from(["qp", "lambda_r", "evaluate"]))
def test_random_manifests_exit_with_one_error_line(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "m.csv"
        manifest.write_bytes(data)
        common = ["--manifest", manifest, "--references", Path(tmp) / "refs",
                  "--workers", 1]
        if command == "evaluate":
            argv = ["evaluate", *common, "--schemes", "conventional",
                    "--out-prefix", Path(tmp) / "out" / "o"]
        else:
            argv = ["calibrate", "--mode", command, *common,
                    "--out", Path(tmp) / "out" / "t.wt"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(*argv)
        assert code in (2, 3, 4)
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1, err.getvalue()
        assert not (Path(tmp) / "out").exists()


# ---------------------------------------------------------------------------
# bits-per-pixel group edges
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("edges", ["", "0.1,x", "0.1,,0.2", "0.8,0.4",
                                   "0.4,0.4", "nan", "0.1,inf"])
def test_evaluate_bad_edges_exit_2_before_the_grid(calib, tmp_path, capsys,
                                                   monkeypatch, edges):
    root, _, refs = calib
    manifest = root / "eval.csv"
    manifest.write_text("v15,cam,v15.yuv,v15.trace\n")
    monkeypatch.setattr(cli, "run_grid", None)      # never reached
    assert run("evaluate", "--manifest", manifest, "--references", refs,
               "--schemes", "conventional", "--edges", edges,
               "--out-prefix", tmp_path / "o", "--workers", 1) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert not (tmp_path / "o.table.txt").exists()
