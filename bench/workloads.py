"""
The three benchmark workloads: how each one's inputs are generated from a
seed, which operations one pass runs, and how a pass's outputs are reduced
to the summaries that the golden check compares.

Inputs are written as the files a user would hand the program (`.yuv`,
`.trace`, `.bpf`, `.wt` and manifest CSVs); the program never sees the seed.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blockprnu import (CodecConfig, Fingerprint, SensorModel, WeightTable,
                       encode_sequence, matching, read_fingerprint,
                       save_trace, simulate_capture, synthetic_clean_frames,
                       write_fingerprint, write_yuv420)

WORKLOADS = ("estimate_720p", "calibrate_evaluate_128", "identify_720p")
WORKERS = 2

# Frame geometry, frame counts and cohort sizes per (workload, size). The
# tiny size exercises every code path in seconds; it is for the benchmark's
# own tests, not for measurement.
PARAMS = {
    ("estimate_720p", "full"): dict(width=1280, height=720, frames=8),
    ("estimate_720p", "tiny"): dict(width=64, height=48, frames=6),
    ("calibrate_evaluate_128", "full"): dict(size=128, cameras=3,
                                             calib_frames=12, eval_frames=24),
    ("calibrate_evaluate_128", "tiny"): dict(size=32, cameras=3,
                                             calib_frames=6, eval_frames=6),
    ("identify_720p", "full"): dict(width=1280, height=720, tests=10,
                                    references=10),
    ("identify_720p", "tiny"): dict(width=64, height=48, tests=4,
                                    references=4),
}

# Fixed-QP encodes for calibration; 15 is the QP tables' anchor.
CALIB_QPS = (15, 24, 33)
# (per-frame bits per pixel target, start QP, GOP) for the evaluation videos.
# The simulator's codec spends more bits than H.264, so the two rates land
# at about 0.23 and 1.1 bpp, on either side of the custom group edges below.
EVAL_RATES = {"lo": (0.05, 36, 12), "hi": (1.0, 20, 12)}
EVAL_EDGES = "0.4,0.8"
LAMBDA_BUCKETS = 4

# A lambda*rate table for estimate_720p, anchored at 60 like a calibrated one.
LAMBDA_TABLE = ((1.0, 10.0, 60.0, 300.0, 3000.0), (0.3, 0.6, 1.0, 1.3, 1.6))


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _seeds(seed: int, stream: int, n: int) -> list[int]:
    return [int(s) for s in _rng(seed, stream).integers(0, 2**31 - 1, size=n)]


def _unit(k: np.ndarray) -> np.ndarray:
    k = k - k.mean()
    return k / np.sqrt((k * k).sum())


def _true_pattern(model: SensorModel, path: Path) -> None:
    k = _unit(model.k_true)
    write_fingerprint(Fingerprint(k_values=k, support=np.ones(k.shape, bool),
                                  source_id="true"), path)


def _encode(model: SensorModel, frames: int, content_seed: int,
            config: CodecConfig, prefix: Path) -> None:
    clean = synthetic_clean_frames(model.height, model.width, frames,
                                   seed=content_seed, motion=3)
    captured = simulate_capture(model, clean, seed=content_seed + 1)
    result = encode_sequence(captured, config)
    write_yuv420(result.pictures, f"{prefix}.yuv")
    save_trace(result.trace, f"{prefix}.trace")


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def generate(workload: str, seed: int, size: str, out: Path) -> None:
    """Write one workload's inputs for this seed into `out`."""
    p = PARAMS[(workload, size)]
    out.mkdir(parents=True, exist_ok=True)
    if workload == "estimate_720p":
        cam_seed, other_seed, content = _seeds(seed, 0, 3)
        model = SensorModel.random(p["height"], p["width"], k_strength=0.02,
                                   seed=cam_seed)
        h, w = p["height"], p["width"]
        _encode(model, p["frames"], content,
                CodecConfig(target_bits_per_frame=0.08 * h * w, start_qp=30),
                out / "cam")
        _true_pattern(model, out / "cam.true.bpf")
        _true_pattern(SensorModel.random(h, w, seed=other_seed),
                      out / "other.true.bpf")
        keys, weights = LAMBDA_TABLE
        WeightTable("lambda_r", keys, weights, 60.0).save(out / "lambda_r.wt")
    elif workload == "calibrate_evaluate_128":
        s = p["size"]
        (out / "truth").mkdir(exist_ok=True)
        calib_rows, eval_rows = [], []
        for c, cam_seed in enumerate(_seeds(seed, 1, p["cameras"])):
            cam = f"cam{c}"
            model = SensorModel.random(s, s, k_strength=0.03, seed=cam_seed)
            _true_pattern(model, out / "truth" / f"{cam}.bpf")
            content = iter(_seeds(seed, 2 + c, len(CALIB_QPS) + len(EVAL_RATES)))
            for qp in CALIB_QPS:
                name = f"{cam}_q{qp}"
                _encode(model, p["calib_frames"], next(content),
                        CodecConfig(qp=qp), out / name)
                calib_rows.append(f"{cam},{name}.yuv,{name}.trace,{qp}")
            for label, (bpp, start_qp, gop) in EVAL_RATES.items():
                name = f"{cam}_{label}"
                _encode(model, p["eval_frames"], next(content),
                        CodecConfig(target_bits_per_frame=bpp * s * s,
                                    start_qp=start_qp, gop=gop), out / name)
                eval_rows.append(f"{name},{cam},{name}.yuv,{name}.trace")
        (out / "calib.csv").write_text("\n".join(calib_rows) + "\n")
        (out / "eval.csv").write_text("\n".join(eval_rows) + "\n")
    elif workload == "identify_720p":
        _generate_identify(seed, p, out)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _generate_identify(seed: int, p: dict, out: Path) -> None:
    """Reference fingerprints of known cameras plus noisy test fingerprints.

    Test i comes from reference camera i when i is below the match count,
    otherwise from a camera with no reference. A matching test correlates
    with its camera's pattern at 0.02-0.05, which puts its PCE in the
    hundreds to low thousands at 720p; non-matching pairs stay near the
    noise floor (about 30), far from the threshold of 60.
    """
    h, w = p["height"], p["width"]
    n_ref, n_test = p["references"], p["tests"]
    n_match = n_test - max(1, n_test * 3 // 10)
    cam_seeds = _seeds(seed, 10, n_ref + n_test)
    rng = _rng(seed, 11)
    labels = {"references": [], "tests": []}
    for r in range(n_ref):
        k = SensorModel.random(h, w, seed=cam_seeds[r]).k_true
        noisy = _unit(k) + rng.normal(0.0, 0.3 / np.sqrt(h * w), size=k.shape)
        write_fingerprint(Fingerprint(_unit(noisy), np.ones(k.shape, bool),
                                      f"ref{r}"), out / f"ref{r}.bpf")
        labels["references"].append(f"cam{r}")
    for t in range(n_test):
        cam = t if t < n_match else n_ref + t
        k = _unit(SensorModel.random(h, w, seed=cam_seeds[cam]).k_true)
        rho = rng.uniform(0.02, 0.05)
        noise = rng.normal(0.0, 1.0 / np.sqrt(h * w), size=k.shape)
        noisy = rho * k + np.sqrt(1.0 - rho * rho) * noise
        write_fingerprint(Fingerprint(_unit(noisy), np.ones(k.shape, bool),
                                      f"test{t}"), out / f"test{t}.bpf")
        labels["tests"].append(f"cam{cam}")
    (out / "labels.json").write_text(json.dumps(labels, indent=1) + "\n")


# ---------------------------------------------------------------------------
# one pass: the operations, in order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One operation of a pass: a CLI command, or the in-process identify
    step (`argv` is then empty)."""
    name: str
    argv: tuple[str, ...] = ()


def ops(workload: str, inputs: Path, out: Path) -> list[Op]:
    i, o = str(inputs), str(out)
    workers = ("--workers", str(WORKERS))
    if workload == "estimate_720p":
        return [
            Op("estimate", ("estimate", "--frames", f"{i}/cam.yuv",
                            "--trace", f"{i}/cam.trace", "--scheme",
                            "lambda_r", "--table", f"{i}/lambda_r.wt",
                            "--source-id", "cam", "--out", f"{o}/cam.bpf",
                            *workers)),
            Op("match_true", ("match", "--test", f"{o}/cam.bpf", "--reference",
                              f"{i}/cam.true.bpf", "--out",
                              f"{o}/match_true.csv")),
            Op("match_other", ("match", "--test", f"{o}/cam.bpf",
                               "--reference", f"{i}/other.true.bpf", "--out",
                               f"{o}/match_other.csv")),
        ]
    if workload == "calibrate_evaluate_128":
        calib = ("--manifest", f"{i}/calib.csv", "--references", f"{i}/truth")
        return [
            Op("calibrate_qp_noskip", ("calibrate", "--mode", "qp", *calib,
                                       "--out", f"{o}/qp_noskip.wt",
                                       "--report", f"{o}/qp_noskip.report",
                                       *workers)),
            Op("calibrate_qp_all", ("calibrate", "--mode", "qp",
                                    "--include-skip", *calib,
                                    "--out", f"{o}/qp_all.wt",
                                    "--report", f"{o}/qp_all.report",
                                    *workers)),
            Op("calibrate_lambda_r", ("calibrate", "--mode", "lambda_r", *calib,
                                      "--buckets", str(LAMBDA_BUCKETS),
                                      "--out", f"{o}/lambda_r.wt",
                                      "--report", f"{o}/lambda_r.report",
                                      *workers)),
            Op("evaluate", ("evaluate", "--manifest", f"{i}/eval.csv",
                            "--references", f"{i}/truth",
                            "--qp-all-table", f"{o}/qp_all.wt",
                            "--qp-noskip-table", f"{o}/qp_noskip.wt",
                            "--lambda-table", f"{o}/lambda_r.wt",
                            "--edges", EVAL_EDGES,
                            "--out-prefix", f"{o}/eval", *workers)),
        ]
    if workload == "identify_720p":
        return [Op("identify")]
    raise ValueError(f"unknown workload {workload!r}")


def identify(inputs: Path, out: Path) -> dict:
    """The in-process identify step: read every fingerprint, match all
    test-reference pairs. Returns the PCE matrix and timings; per-pair
    latency comes from a timer on `matching.pce`, which `batch_match`
    calls once per pair."""
    labels = json.loads((inputs / "labels.json").read_text())
    pair_s: list[float] = []
    plain_pce = matching.pce

    def timed_pce(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return plain_pce(*args, **kwargs)
        finally:
            pair_s.append(time.perf_counter() - t0)

    matching.pce = timed_pce
    try:
        t0 = time.perf_counter()
        tests = [read_fingerprint(inputs / f"test{t}.bpf")
                 for t in range(len(labels["tests"]))]
        refs = [read_fingerprint(inputs / f"ref{r}.bpf")
                for r in range(len(labels["references"]))]
        matrix = matching.batch_match(tests, refs)
        wall = time.perf_counter() - t0
    finally:
        matching.pce = plain_pce
    rows = [[_report_fields(cell) for cell in row] for row in matrix]
    result = {"wall_s": wall, "pair_s": pair_s, "cells": rows}
    (out / "identify.json").write_text(json.dumps(result) + "\n")
    return result


def _report_fields(cell) -> dict:
    if isinstance(cell, Exception):
        return {"error": type(cell).__name__}
    return {"pce": cell.pce, "peak": list(cell.peak_offset),
            "decision": int(cell.decision)}


# ---------------------------------------------------------------------------
# per-pass work counts, from the inputs
# ---------------------------------------------------------------------------

def _manifest(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def _trace_shape(path: Path) -> tuple[int, np.ndarray]:
    """(frame count, per-position count of coded blocks) of a trace file,
    read as text so the count does not depend on the program's parser."""
    lines = path.read_text().splitlines()
    header = dict(f.split("=") for f in lines[0][1:].split())
    gw, gh = int(header["w"]) // 16, int(header["h"]) // 16
    coded = np.zeros((gh, gw), dtype=np.int64)
    for line in lines[1:]:
        _, x, y, kind, _, _ = line.split(",")
        if kind != "SKIP":
            coded[int(y), int(x)] += 1
    return int(header["frames"]), coded


def work_counts(workload: str, inputs: Path) -> dict:
    """Frames ingested, PCE evaluations, and operations per pass.

    An operation is a CLI command, a grid cell or a match pair. The lambda*r
    calibration scores one spliced frame per rank that any block position
    fills with a coded block, so its PCE count is the largest number of
    coded blocks any position has, per video.
    """
    if workload == "estimate_720p":
        frames, _ = _trace_shape(inputs / "cam.trace")
        return {"frames": frames, "pce": 2, "ops": 3}
    if workload == "calibrate_evaluate_128":
        calib = _manifest(inputs / "calib.csv")
        evals = _manifest(inputs / "eval.csv")
        calib_frames, spliced = 0, 0
        for row in calib:
            n, coded = _trace_shape(inputs / row[2])
            calib_frames += n
            spliced += min(n, int(coded.max()))
        eval_frames = sum(_trace_shape(inputs / row[3])[0] for row in evals)
        cells = len(evals) * 6
        return {"frames": 3 * calib_frames + 6 * eval_frames,
                "pce": 2 * len(calib) + spliced + cells,
                "ops": 4 + cells}
    if workload == "identify_720p":
        labels = json.loads((inputs / "labels.json").read_text())
        pairs = len(labels["tests"]) * len(labels["references"])
        return {"frames": 0, "pce": pairs, "ops": pairs}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output summaries for the golden check
# ---------------------------------------------------------------------------

def _fingerprint_summary(path: Path) -> dict:
    """Small statistics of K that move if any value moves by more than
    about 1e-9: moments, extremes, a fixed random projection and 16 samples."""
    fp = read_fingerprint(path)
    k = fp.k_values
    signs = np.where(_rng(0, 99).random(k.size) < 0.5, -1.0, 1.0)
    flat = k.ravel()
    picks = np.linspace(0, flat.size - 1, 16).astype(np.int64)
    return {"shape": list(k.shape), "support": int(fp.support.sum()),
            "mean": float(flat.mean()), "std": float(flat.std()),
            "min": float(flat.min()), "max": float(flat.max()),
            "mean_abs": float(np.abs(flat).mean()),
            "projection": float(flat @ signs / flat.size),
            "samples": [float(v) for v in flat[picks]]}


def _match_record(path: Path) -> dict:
    _, _, value, dx, dy, decision = path.read_text().strip().split(",")
    return {"pce": float(value), "peak": [int(dx), int(dy)],
            "decision": int(decision)}


def _table(path: Path) -> dict:
    table = WeightTable.load(path)
    return {"keys": [float(v) for v in table.keys],
            "weights": [float(v) for v in table.weights]}


def summarize(workload: str, inputs: Path, out: Path) -> dict:
    """Per-operation summaries of one pass's outputs, keyed by op name.

    A missing or unreadable output becomes an {"error": ...} entry, which
    never matches a golden record.
    """
    summary: dict = {}

    def record(name, fn, *args):
        try:
            summary[name] = fn(*args)
        except Exception as exc:  # any unreadable output is a failed op
            summary[name] = {"error": f"{type(exc).__name__}: {exc}"}

    if workload == "estimate_720p":
        record("estimate", _fingerprint_summary, out / "cam.bpf")
        record("match_true", _match_record, out / "match_true.csv")
        record("match_other", _match_record, out / "match_other.csv")
    elif workload == "calibrate_evaluate_128":
        for name in ("qp_noskip", "qp_all", "lambda_r"):
            record(f"calibrate_{name}", _table, out / f"{name}.wt")
        record("evaluate", lambda: {
            "table": (out / "eval.table.txt").read_text(),
            "means": (out / "eval.means.txt").read_text().split()})
        try:
            lines = (out / "eval.cells.csv").read_text().split()
        except OSError as exc:
            lines = []
            summary["evaluate"] = {"error": str(exc)}
        for line in lines:
            vid, scheme, value, dx, dy, decision = line.split(",")
            summary[f"cell:{vid}:{scheme}"] = (
                {"pce": float(value), "peak": [int(dx), int(dy)],
                 "decision": int(decision)} if not decision.startswith("error")
                else {"error": decision})
    elif workload == "identify_720p":
        try:
            cells = json.loads((out / "identify.json").read_text())["cells"]
        except (OSError, ValueError, KeyError) as exc:
            cells = []
            summary["identify"] = {"error": str(exc)}
        for t, row in enumerate(cells):
            for r, cell in enumerate(row):
                summary[f"pair:test{t}:ref{r}"] = cell
    return summary


def decisions(workload: str, inputs: Path, summary: dict) -> tuple[int, int]:
    """(decisions agreeing with the camera labels, decisions made)."""
    if workload == "identify_720p":
        labels = json.loads((inputs / "labels.json").read_text())
    agree = made = 0
    for name, rec in summary.items():
        if "decision" not in rec:
            continue
        if workload == "estimate_720p":
            truth = name == "match_true"
        elif workload == "calibrate_evaluate_128":
            truth = True    # every video is matched to its own camera
        else:
            _, t, r = name.split(":")
            truth = (labels["tests"][int(t[len("test"):])]
                     == labels["references"][int(r[len("ref"):])])
        made += 1
        agree += int(bool(rec["decision"]) == truth)
    return agree, made
