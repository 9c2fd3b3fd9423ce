"""Command-line interface: subcommands, exit codes, reproducibility."""

import json
import os

import numpy as np
import pytest

from blockprnu import (
    Picture,
    WeightTable,
    bits_per_pixel,
    read_fingerprint,
    skipped_block_rate,
    write_yuv420,
)
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
    assert float(out["skipped_block_rate"]) == skipped_block_rate(trace.frames())
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


def test_estimate_table_flag_validation(sim, tmp_path):
    with pytest.raises(SystemExit) as err:
        run("estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
            "--scheme", "lambda_r", "--out", tmp_path / "x.bpf")
    assert err.value.code == 2
    table = tmp_path / "t.wt"
    WeightTable(scheme="qp_noskip", keys=np.arange(52, dtype=np.float64),
                weights=np.ones(52), anchor_key=15.0).save(table)
    with pytest.raises(SystemExit) as err:
        run("estimate", "--frames", sim["yuv"], "--trace", sim["trace"],
            "--scheme", "conventional", "--table", table,
            "--out", tmp_path / "x.bpf")
    assert err.value.code == 2
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


def test_degenerate_inputs_exit_4(tmp_path):
    flat = [Picture(luma=np.full((64, 64), 128, dtype=np.uint8))] * 4
    write_yuv420(flat, tmp_path / "flat.yuv")
    save_trace(uniform_trace(4, 4, 4), tmp_path / "flat.trace")
    rc = run("estimate", "--frames", tmp_path / "flat.yuv",
             "--trace", tmp_path / "flat.trace", "--scheme", "conventional",
             "--out", tmp_path / "flat.bpf", "--workers", 1)
    assert rc == 0  # all-zero pattern is representable
    rc = run("match", "--test", tmp_path / "flat.bpf",
             "--reference", tmp_path / "flat.bpf")
    assert rc == 4  # but matching it is meaningless


def test_frame_count_mismatch_is_input_error(sim, tmp_path):
    save_trace(uniform_trace(3, 4, 4), tmp_path / "short.trace")
    rc = run("estimate", "--frames", sim["yuv"],
             "--trace", tmp_path / "short.trace",
             "--scheme", "conventional", "--out", tmp_path / "x.bpf",
             "--workers", 1)
    assert rc == 3


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
    from blockprnu.cli import _resolve_workers
    monkeypatch.delenv("BLOCKPRNU_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                        raising=False)
    assert _resolve_workers(None) == 2
    assert _resolve_workers(5) == 5
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _resolve_workers(None) == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _resolve_workers(None) == 1


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


def test_calibrate_missing_reference_exit_4(calib, tmp_path):
    root, manifest, _ = calib
    (tmp_path / "emptyrefs").mkdir()
    rc = run("calibrate", "--mode", "qp", "--manifest", manifest,
             "--references", tmp_path / "emptyrefs", "--out",
             tmp_path / "t.wt", "--workers", 1)
    assert rc == 3  # unreadable reference file is an input problem


def test_evaluate_cli(calib):
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


def test_evaluate_scheme_validation(calib):
    root, _, refs = calib
    manifest = root / "eval.csv"
    with pytest.raises(SystemExit) as err:
        run("evaluate", "--manifest", manifest, "--references", refs,
            "--schemes", "conventional,warp", "--out-prefix", root / "bad")
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run("evaluate", "--manifest", manifest, "--references", refs,
            "--schemes", "lambda_r", "--out-prefix", root / "bad")
    assert err.value.code == 2


def test_main_requires_subcommand():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
