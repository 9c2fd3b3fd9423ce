"""
Command-line front door: trace inspection, fingerprint estimation, matching,
calibration, simulation, and evaluation as subcommands of one binary.

Exit codes: 0 success, 2 usage, 3 input format, 4 degenerate computation.
Every subcommand is reproducible: identical inputs and seed give
byte-identical outputs at any worker count, and no subcommand mutates its
inputs. BLOCKPRNU_WORKERS sets the default worker count.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .bitstream import load_trace, save_trace
from .calibration import calibrate_lambda_rate, calibrate_qp, check_buckets
from .errors import (BlockPrnuError, ConfigError, DimensionMismatch,
                     EmptyInput, InputError, SchemaError, decode_text)
from .evaluation import (BPP_GROUP_EDGES, check_grid, format_ratio,
                         group_labels_for_edges, improvement_ratios,
                         run_grid, scheme_means, threshold_table)
from .matching import (DEFAULT_THRESHOLD, PceConfig, format_report_records,
                       pce)
from .noise import DenoiseConfig, read_yuv420, write_yuv420
from .prnu import (Fingerprint, Video, check_floor, estimate_fingerprint,
                   read_fingerprint, resolve_workers, write_fingerprint)
from .trace import BLOCK_TYPES, bits_per_pixel, skipped_block_rate
from .weighting import ALL_SCHEMES, SchemeConfig, WeightTable


def _outpath(path: str | Path) -> Path:
    p = Path(path)
    if p.parent != Path("."):
        p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _outpath(path).write_text(text)


def _denoise_config(args) -> DenoiseConfig:
    return DenoiseConfig(method=args.denoise, noise_var=args.noise_var)


def _pce_config(args) -> PceConfig:
    if args.exclusion < 1 or args.exclusion % 2 == 0:
        raise ConfigError("exclusion window width must be odd and positive")
    return PceConfig(exclusion_half_width=args.exclusion // 2,
                     search_window=args.search)


def _load_video(frames_path: str, trace_path: str, camera_id: str = "",
                video_id: str = "", qp: str = "") -> Video:
    """The video of a manifest row, or of `estimate`'s flags: the trace,
    the frames read at its size, and the row's ids and optional QP. A
    DimensionMismatch names the frames file."""
    trace = load_trace(trace_path)
    try:
        fixed_qp = int(qp) if qp else None
    except ValueError as exc:
        raise SchemaError(f"bad qp {qp!r} in manifest") from exc
    pictures = read_yuv420(frames_path, trace.width, trace.height)
    try:
        return Video(pictures, trace, camera_id, video_id, fixed_qp)
    except DimensionMismatch as exc:
        raise DimensionMismatch(f"{frames_path}: {exc}") from exc


def _read_manifest(path: str, fields: tuple[str, ...],
                   optional: tuple[str, ...] = ()) -> list[dict]:
    """CSV rows of the named fields, each of which must be non-empty;
    relative paths resolve against the manifest's directory. '#' lines and
    blank lines are skipped; a NUL anywhere is refused, as no file name or
    id can hold one. Errors name the line a row ends on."""
    base = Path(path).parent
    text = decode_text(Path(path).read_bytes(), path)
    nul = text.find("\0")
    if nul >= 0:    # named by its line as the csv reader counts lines
        line = len(io.StringIO(text[:nul + 1], newline="").readlines())
        raise SchemaError(f"{path}:{line}: NUL in manifest")
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = []
    try:    # a quoted field may span lines
        for row in reader:
            lineno = reader.line_num
            if not row or row[0].lstrip().startswith("#"):
                continue
            row = [c.strip() for c in row]
            if not any(row):
                continue
            want = len(fields)
            if len(row) < want or len(row) > want + len(optional):
                raise SchemaError(f"{path}:{lineno}: expected "
                                  f"{want}-{want + len(optional)} fields, "
                                  f"got {len(row)}")
            rec = dict(zip(fields + optional, row))
            empty = [key for key in fields if not rec[key]]
            if empty:
                raise SchemaError(f"{path}:{lineno}: empty {empty[0]} field")
            for key in rec:
                if key.endswith("_path"):
                    rec[key] = str(base / rec[key])
            rows.append(rec)
    except csv.Error as exc:    # such as a field over the csv module's limit
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise SchemaError(f"{path}: empty manifest")
    return rows


def _load_references(directory: str, camera_ids) -> dict[str, Fingerprint]:
    refs = {}
    for cam in sorted(set(camera_ids)):
        refs[cam] = read_fingerprint(Path(directory) / f"{cam}.bpf")
    return refs


def _scheme_config(scheme: str, path: str | None) -> SchemeConfig:
    """The scheme with the table at `path`; an unknown scheme, or a table
    missing or given where the scheme takes none, is a ConfigError."""
    table = None if path is None else WeightTable.load(path)
    config = SchemeConfig(scheme, table)
    if table is not None and table.scheme != scheme:
        raise SchemaError(f"{path} holds a {table.scheme} table, "
                          f"not {scheme}")
    return config


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_inspect(args) -> int:
    trace = load_trace(args.trace)
    counts = np.bincount(trace.type_code.ravel(), minlength=len(BLOCK_TYPES))
    lines = [
        f"width={trace.width}",
        f"height={trace.height}",
        f"frames={trace.frame_count}",
        f"blocks={trace.type_code.size}",
    ]
    lines += [f"count_{t}={n}" for t, n in zip(BLOCK_TYPES, counts)]
    lines += [
        f"skipped_block_rate={skipped_block_rate(trace)!r}",
        f"bits_per_pixel={bits_per_pixel(trace)!r}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_estimate(args) -> int:
    source_id = args.source_id if args.source_id else Path(args.out).stem
    try:
        source_id.encode("utf-8")
    except UnicodeEncodeError as exc:   # undecodable bytes in the argument
        raise ConfigError(f"source id {source_id!r} is not UTF-8 text") from exc
    check_floor(args.floor)
    denoise = _denoise_config(args)
    workers = resolve_workers(args.workers)
    scheme = _scheme_config(args.scheme, args.table)
    video = _load_video(args.frames, args.trace)
    fp = estimate_fingerprint(video.pictures, video.trace, scheme,
                              denoise_config=denoise,
                              denominator_floor=args.floor,
                              source_id=source_id, workers=workers)
    write_fingerprint(fp, _outpath(args.out))
    meta = {
        "denoise": args.denoise,
        "floor": args.floor,
        "frame_count": video.trace.frame_count,
        "height": video.trace.height,
        "noise_var": args.noise_var,
        "scheme": args.scheme,
        "source_id": source_id,
        "table": Path(args.table).name if args.table else None,
        "width": video.trace.width,
    }
    meta["config_hash"] = hashlib.sha256(
        json.dumps(meta, sort_keys=True).encode()).hexdigest()
    _outpath(str(args.out) + ".json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_match(args) -> int:
    test = read_fingerprint(args.test)
    reference = read_fingerprint(args.reference)
    report = pce(test, reference, _pce_config(args),
                 args.threshold)
    test_id = test.source_id or Path(args.test).stem
    ref_id = reference.source_id or Path(args.reference).stem
    lines = format_report_records([[report]], [test_id], [ref_id])
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    # imported here: the simulator is the only module that needs scipy
    from .simulator import (CodecConfig, SensorModel, encode_sequence,
                            simulate_capture, synthetic_clean_frames)
    if (args.qp is None) == (args.target_bits is None):
        raise ConfigError("set exactly one of --qp / --target-bits")
    model = SensorModel.random(args.height, args.width,
                               k_strength=args.k_strength,
                               read_noise_sigma=args.read_noise,
                               seed=args.seed)
    content_seed = (args.content_seed if args.content_seed is not None
                    else args.seed + 1)
    clean = synthetic_clean_frames(args.height, args.width, args.frames,
                                   seed=content_seed, motion=args.motion)
    captured = simulate_capture(model, clean, seed=content_seed + 1)
    config = CodecConfig(qp=args.qp, target_bits_per_frame=args.target_bits,
                         gop=args.gop, start_qp=args.start_qp)
    result = encode_sequence(captured, config)

    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_yuv420(result.pictures, f"{prefix}.yuv")
    save_trace(result.trace, f"{prefix}.trace")
    k = model.k_true - model.k_true.mean()
    k = k / np.sqrt((k * k).sum())
    write_fingerprint(Fingerprint(k_values=k,
                                  support=np.ones_like(k, dtype=bool),
                                  source_id="true"),
                      f"{prefix}.true.bpf")
    summary = [
        f"frames={args.frames}",
        f"qp_last={result.qp_per_frame[-1]}",
        f"skipped_block_rate={skipped_block_rate(result.trace)!r}",
        f"bits_per_pixel={bits_per_pixel(result.trace)!r}",
    ]
    _emit("\n".join(summary) + "\n", args.out)
    return 0


def cmd_calibrate(args) -> int:
    settings = dict(include_skip=args.include_skip,
                    denoise_config=_denoise_config(args),
                    pce_config=_pce_config(args),
                    workers=resolve_workers(args.workers))
    fields = ("camera_id", "frames_path", "trace_path")
    if args.mode == "qp":
        fields, optional = (*fields, "qp"), ()
        calibrate = partial(calibrate_qp, **settings)
    else:
        check_buckets(args.buckets)
        optional = ("qp",)
        calibrate = partial(calibrate_lambda_rate, n_buckets=args.buckets,
                            **settings)
    rows = _read_manifest(args.manifest, fields, optional)
    videos = [_load_video(**row) for row in rows]
    references = _load_references(args.references,
                                  (v.camera_id for v in videos))
    table, report = calibrate(videos, references)
    table.save(_outpath(args.out))
    if args.report:
        _outpath(args.report).write_text("\n".join(report) + "\n")
    return 0


def cmd_evaluate(args) -> int:
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise ConfigError("no schemes requested")
    check_grid(schemes, args.threshold)
    try:
        edges = tuple(float(e) for e in args.edges.split(","))
    except ValueError as exc:
        raise ConfigError(f"--edges {args.edges!r} is not a comma-separated "
                          f"list of numbers") from exc
    group_labels_for_edges(edges)   # checks the edges before the grid runs
    denoise = _denoise_config(args)
    pce_config = _pce_config(args)
    workers = resolve_workers(args.workers)
    # a table scheme reads its table from its --<scheme>-table option
    configs = [_scheme_config(s, getattr(args, f"{s}_table", None))
               for s in schemes]

    rows = _read_manifest(args.manifest,
                          ("video_id", "camera_id", "frames_path",
                           "trace_path"))
    videos = [_load_video(**row) for row in rows]
    references = _load_references(args.references,
                                  (v.camera_id for v in videos))
    grid = run_grid(videos, configs, references, denoise_config=denoise,
                    pce_config=pce_config, threshold=args.threshold,
                    workers=workers)

    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}.table.txt").write_text(
        threshold_table(grid, edges, args.threshold).to_text())

    cell_lines = []
    for vid in grid.video_ids:
        matrix = [[grid.cells[(vid, s)] for s in grid.schemes]]
        cell_lines += format_report_records(matrix, [vid], grid.schemes)
    Path(f"{prefix}.cells.csv").write_text("\n".join(cell_lines) + "\n")

    means = scheme_means(grid)
    mean_lines = [f"{s},{means[s]!r}" for s in grid.schemes]
    if "conventional" in means:
        try:
            ratios = improvement_ratios(means)
        except EmptyInput:      # the baseline mean is nan or not positive
            ratios = dict.fromkeys(means, np.nan)
        mean_lines += [f"ratio_{s},{format_ratio(ratios[s])}"
                       for s in grid.schemes]
    Path(f"{prefix}.means.txt").write_text("\n".join(mean_lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_denoise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--denoise", choices=("wavelet", "spatial"),
                   default="wavelet", help="residual extraction method")
    p.add_argument("--noise-var", type=float, default=3.0,
                   help="assumed noise variance for the Wiener step")


def _add_match_flags(p: argparse.ArgumentParser,
                     threshold: bool = True) -> None:
    if threshold:
        p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                       help="PCE decision threshold (default 60)")
    p.add_argument("--exclusion", type=int, default=11,
                   help="peak exclusion window width (default 11 for 11x11)")
    p.add_argument("--search", choices=("full", "zero"), default="full",
                   help="correlation peak search window")


def _add_workers_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=None,
                   help="parallel residual workers (default: "
                        "BLOCKPRNU_WORKERS, else the CPUs this process may "
                        "run on), capped at those CPUs; results are "
                        "byte-identical at any count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockprnu",
        description="Sensor-pattern fingerprints from compressed video, "
                    "weighted by codec block metadata.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="summarize a block trace")
    p.add_argument("trace", help="trace file path")
    p.add_argument("--out", default=None, help="write summary here instead "
                                               "of stdout")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("estimate", help="estimate a fingerprint from frames "
                                        "plus their block trace")
    p.add_argument("--frames", required=True, help="8-bit 4:2:0 planar video")
    p.add_argument("--trace", required=True, help="block trace file")
    p.add_argument("--scheme", required=True, choices=ALL_SCHEMES)
    p.add_argument("--table", default=None,
                   help="weight table (required for qp_all / qp_noskip / "
                        "lambda_r)")
    p.add_argument("--floor", type=float, default=None,
                   help="absolute denominator floor (default: 1e-3 of the "
                        "mean accumulated energy)")
    p.add_argument("--source-id", default="",
                   help="identifier embedded in the fingerprint file")
    p.add_argument("--out", required=True, help="fingerprint output path; a "
                                                ".json sidecar is written "
                                                "next to it")
    _add_denoise_flags(p)
    _add_workers_flag(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("match", help="PCE match one fingerprint against "
                                     "another")
    p.add_argument("--test", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", default=None, help="write the report record here "
                                               "instead of stdout")
    _add_match_flags(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("simulate", help="synthesize a sensor, capture a "
                                        "scene, encode it")
    p.add_argument("--width", type=int, default=128)
    p.add_argument("--height", type=int, default=128)
    p.add_argument("--frames", type=int, default=24)
    p.add_argument("--seed", type=int, default=0,
                   help="sensor pattern seed: one camera per seed")
    p.add_argument("--content-seed", type=int, default=None,
                   help="scene and shot-noise seed; vary it to film several "
                        "videos with one camera (default: seed + 1)")
    p.add_argument("--qp", type=int, default=None, help="fixed QP encode")
    p.add_argument("--target-bits", type=float, default=None,
                   help="per-frame bit budget (rate-controlled encode)")
    p.add_argument("--gop", type=int, default=12)
    p.add_argument("--start-qp", type=int, default=30)
    p.add_argument("--k-strength", type=float, default=0.02,
                   help="sensor pattern amplitude")
    p.add_argument("--read-noise", type=float, default=2.0)
    p.add_argument("--motion", type=int, default=2,
                   help="object drift in pixels per frame")
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>.yuv, <prefix>.trace, "
                        "<prefix>.true.bpf")
    p.add_argument("--out", default=None, help="write the summary here "
                                               "instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="fit a weight table from known-"
                                         "camera videos")
    p.add_argument("--mode", required=True, choices=("qp", "lambda_r"))
    p.add_argument("--manifest", required=True,
                   help="CSV: camera_id,frames,trace[,qp] per row; paths "
                        "relative to the manifest")
    p.add_argument("--references", required=True,
                   help="directory of <camera_id>.bpf reference fingerprints")
    p.add_argument("--out", required=True, help="weight table output path")
    p.add_argument("--report", default=None,
                   help="write per-camera observation lines here")
    p.add_argument("--buckets", type=int, default=20,
                   help="equal-population lambda*rate buckets (default 20)")
    p.add_argument("--include-skip", action="store_true",
                   help="let skip blocks contribute (qp_all-style tables)")
    _add_denoise_flags(p)
    _add_match_flags(p, threshold=False)
    _add_workers_flag(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="run a scheme-by-video matching grid "
                                        "and report detection tables")
    p.add_argument("--manifest", required=True,
                   help="CSV: video_id,camera_id,frames,trace per row")
    p.add_argument("--references", required=True,
                   help="directory of <camera_id>.bpf reference fingerprints")
    p.add_argument("--schemes", default=",".join(ALL_SCHEMES),
                   help="comma-separated scheme list (default: all)")
    p.add_argument("--qp-all-table", default=None)
    p.add_argument("--qp-noskip-table", default=None)
    p.add_argument("--lambda-table", dest="lambda_r_table", default=None)
    p.add_argument("--edges", default=",".join(str(e) for e in BPP_GROUP_EDGES),
                   help="bits-per-pixel group edges for the detection table")
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>.table.txt, <prefix>.cells.csv, "
                        "<prefix>.means.txt")
    _add_denoise_flags(p)
    _add_match_flags(p)
    _add_workers_flag(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BlockPrnuError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a file that cannot be read is an input error
        return getattr(exc, "exit_code", InputError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
