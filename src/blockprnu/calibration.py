"""
Weight-table calibration from matching experiments, which both drivers
run through `evaluation.match_videos`.

Both tables come from one fit: per-camera PCE curves, normalized at a
fixed anchor (QP 15, lambda*rate 60), averaged across cameras and turned
into weights by a square root (PCE scales like the square of pattern
energy, weights should scale linearly). QP tables bin fixed-QP encodes by
QP and are densified over 0..51. For lambda*rate tables, residual blocks
of one video are spliced by rank of their lambda*rate per block position,
giving frames of roughly uniform cost whose mean lambda*rate is one
observation; observations are pooled into equal-population buckets keyed
by their mean lambda*rate.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (BlockPrnuError, ConfigError, DimensionMismatch,
                     EmptyBucket, InsufficientData, InsufficientFrames,
                     MissingAnchor)
from .evaluation import match_videos
from .matching import PceConfig
from .noise import DenoiseConfig
from .prnu import Fingerprint, Video, require_inputs, stream_fingerprints
from .trace import QP_MAX, QP_MIN, TraceFile, block_canvas
from .weighting import ANCHOR_LAMBDA_RATE, ANCHOR_QP, SchemeConfig, WeightTable

PCE_FLOOR = 1e-3
QP_RANGE = np.arange(QP_MIN, QP_MAX + 1)


@dataclass
class CalibrationRun:
    """Observations from one camera: (condition key, PCE) samples.

    For QP calibration the key is the fixed QP of the encode; for
    lambda*rate calibration it is the spliced frame's mean lambda*rate.
    """
    camera_id: str
    samples: list[tuple[float, float]] = field(default_factory=list)


class SplicedVideo(NamedTuple):
    """Spliced frames as stacks, one entry per rank j."""
    values: np.ndarray            # (n, H, W), zeros where unfilled
    filled: np.ndarray            # (n, gh, gw) bool
    mean_lambda_rate: np.ndarray  # (n,) over filled positions; nan if none


def _splice_frames(trace: TraceFile) -> int:
    """The trace's frame count, which splicing needs to be at least 2."""
    if trace.frame_count < 2:
        raise InsufficientFrames(f"splicing needs at least 2 frames, "
                                 f"got {trace.frame_count}")
    return trace.frame_count


def splice_by_lambda_rate(residuals: Iterable[np.ndarray],
                          trace: TraceFile,
                          include_skip: bool = False) -> SplicedVideo:
    """Regroup residual blocks by per-position lambda*rate rank.

    For every block position independently the N contributions are sorted
    ascending by lambda*rate (stable, ties keep frame order) and spliced
    frame j receives the rank-j block. With include_skip=False, skip blocks
    never contribute; positions with fewer than j+1 coded contributions
    stay zero in spliced frame j and are marked unfilled.

    The ranks come from the trace alone, so the residuals are read once,
    in frame order, and each frame's blocks are copied into their spliced
    frames as it arrives. The output has the trace's frame size, and each
    residual must have it too (DimensionMismatch); exactly one residual
    per trace frame must arrive (InsufficientFrames). The output stays
    O(video), but no other array the size of the video is made.
    """
    n = _splice_frames(trace)
    shape = (trace.height, trace.width)
    lr = trace.lambda_rate                                        # (n, gh, gw)
    if not include_skip:
        lr = np.where(trace.skip, np.inf, lr)
    order = np.argsort(lr, axis=0, kind="stable")
    rank = np.argsort(order, axis=0)          # the rank of each frame's block
    sorted_lr = np.take_along_axis(lr, order, axis=0)
    filled = np.isfinite(sorted_lr)
    mean_lr = np.array([lr_j[fill_j].mean() if fill_j.any() else np.nan
                        for lr_j, fill_j in zip(sorted_lr, filled)])
    # spliced frames keep the frame's shape, and the residual is cut up on
    # a canvas of its own: a ceil-sized grid's partial blocks are padded
    # with zeros, and pixels beyond a floor-sized grid stay zero, as in masks
    grid = (trace.grid_h, trace.grid_w)
    values, spliced = block_canvas((n, *shape), grid)
    plane, frame_blocks = block_canvas(shape, grid)
    count = 0
    for residual in residuals:
        if residual.shape != shape:
            raise DimensionMismatch(f"residual shape {residual.shape} vs "
                                    f"{shape} of the trace")
        if count < n:
            plane[...] = residual
            ys, xs = np.nonzero(np.isfinite(lr[count]))
            spliced[rank[count, ys, xs], ys, xs] = frame_blocks[ys, xs]
        count += 1
        del residual        # not held while the next one is extracted
    if count != n:
        raise InsufficientFrames(f"{count} residuals vs {n} trace frames")
    return SplicedVideo(values=values, filled=filled, mean_lambda_rate=mean_lr)


# ---------------------------------------------------------------------------
# table construction from observations
# ---------------------------------------------------------------------------

def _fit(runs: Sequence[CalibrationRun], bin_of, anchor: float, missing,
         what: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Normalize-average-root: each camera's mean PCE (floored at
    PCE_FLOOR) per integer bin `bin_of` of its finite keys, over its mean
    in the anchor's bin (else `missing(camera_id)` is raised), averaged
    across cameras and rooted. A bin is keyed by its samples' mean key and
    the anchor by itself, at weight 1. Returns the keys, weights and
    report lines (camera,bin,raw_pce,normalized_pce)."""
    if not runs or all(not r.samples for r in runs):
        raise InsufficientData(f"no {what} observations")
    anchor_bin = int(bin_of(anchor))
    report, normalized, pooled_keys = [], {}, {}  # PCEs and keys per bin
    for run in sorted(runs, key=lambda r: r.camera_id):
        clean = [(key, max(p, PCE_FLOOR)) for key, p in run.samples
                 if np.isfinite(key)]
        if not clean:
            continue
        keys, pces = np.array(clean, dtype=np.float64).T
        bins = bin_of(keys)
        means: dict[int, float] = {}
        for b in np.unique(bins):
            sel = bins == b
            means[int(b)] = float(pces[sel].mean())
            pooled_keys.setdefault(int(b), []).extend(keys[sel].tolist())
        if anchor_bin not in means:
            raise missing(run.camera_id)
        for b in sorted(means):
            norm = means[b] / means[anchor_bin]
            normalized.setdefault(b, []).append(norm)
            report.append(f"{run.camera_id},{b},{means[b]!r},{norm!r}")
    if not normalized:
        raise InsufficientData(f"no usable {what} observations")
    keys = np.array([np.mean(pooled_keys[b]) for b in sorted(normalized)])
    weights = np.array([np.sqrt(np.mean(normalized[b]))
                        for b in sorted(normalized)])
    if anchor in keys:
        weights[keys == anchor] = 1.0
    else:
        pos = int(np.searchsorted(keys, anchor))
        keys = np.insert(keys, pos, anchor)
        weights = np.insert(weights, pos, 1.0)
    return keys, weights, report


def build_qp_table(runs: Sequence[CalibrationRun],
                   scheme: str = "qp_noskip") -> tuple[WeightTable, list[str]]:
    """`_fit` of (QP, PCE) samples binned by rounded QP, anchored at
    ANCHOR_QP, and densified over every QP (clamped outside the observed
    ones); report lines are camera,qp,raw_pce,normalized_pce."""
    keys, weights, report = _fit(
        runs, np.rint, ANCHOR_QP, lambda camera_id: MissingAnchor(
            f"camera {camera_id} has no qp={ANCHOR_QP} observation"), "QP")
    dense = np.interp(QP_RANGE.astype(np.float64), keys, weights)
    table = WeightTable(scheme=scheme, keys=QP_RANGE.astype(np.float64),
                        weights=dense, anchor_key=float(ANCHOR_QP))
    return table, report


def quantile_bucket_edges(values: Sequence[float], n_buckets: int = 20) -> np.ndarray:
    """Equal-population bucket edges (length n_buckets + 1)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise InsufficientData("no values to bucket")
    if n_buckets < 1:
        raise ConfigError(f"need at least one bucket, got {n_buckets}")
    return np.quantile(values, np.linspace(0.0, 1.0, n_buckets + 1))


def _bucket_index(edges: np.ndarray, values) -> np.ndarray:
    inner = edges[1:-1]
    return np.searchsorted(inner, np.asarray(values, dtype=np.float64),
                           side="right")


def build_lambda_rate_table(runs: Sequence[CalibrationRun],
                            bucket_edges: np.ndarray
                            ) -> tuple[WeightTable, list[str]]:
    """`_fit` of (mean lambda*rate, PCE) samples binned by the buckets
    between `bucket_edges` and anchored at ANCHOR_LAMBDA_RATE; report
    lines are camera,bucket,raw_pce,normalized_pce."""
    edges = np.asarray(bucket_edges, dtype=np.float64)
    if edges.size < 2 and any(r.samples for r in runs):
        raise InsufficientData("need at least one bucket")
    keys, weights, report = _fit(
        runs, lambda values: _bucket_index(edges, values), ANCHOR_LAMBDA_RATE,
        lambda camera_id: EmptyBucket(
            f"camera {camera_id} has no sample in the anchor bucket "
            f"(lambda*rate {ANCHOR_LAMBDA_RATE})"),
        "lambda*rate")
    table = WeightTable(scheme="lambda_r", keys=keys, weights=weights,
                        anchor_key=float(ANCHOR_LAMBDA_RATE))
    return table, report


# ---------------------------------------------------------------------------
# drivers over decoded videos
# ---------------------------------------------------------------------------

def _calibration_runs(videos, references, planes, denoise_config, pce_config,
                      workers) -> list[CalibrationRun]:
    """One CalibrationRun per camera of the (key, PCE) samples that
    `match_videos` gives; the first error is raised before the next video
    is extracted."""
    runs: dict[str, CalibrationRun] = {}
    for video, matches in match_videos(videos, references, planes,
                                       denoise_config, pce_config,
                                       workers=workers):
        run = runs.setdefault(video.camera_id,
                              CalibrationRun(camera_id=video.camera_id))
        for key, match in matches:
            if isinstance(match, BlockPrnuError):
                raise match
            run.samples.append((key, match.pce))
    return list(runs.values())


def calibrate_qp(videos: Sequence[Video],
                 references: dict[str, Fingerprint],
                 include_skip: bool,
                 denoise_config: DenoiseConfig = DenoiseConfig(),
                 pce_config: PceConfig = PceConfig(),
                 workers: int = 1) -> tuple[WeightTable, list[str]]:
    """Fit a QP weight table from fixed-QP encodes of known cameras: one
    fingerprint per video, matched against its camera's reference.

    include_skip chooses whether skip blocks contribute to the per-video
    fingerprints (True fits the table used by the all-blocks scheme, False
    the coded-only variant, whose videos need traces). Every video needs
    a QP, and every camera a video at ANCHOR_QP, checked before any
    extraction.
    """
    scheme = SchemeConfig("conventional" if include_skip else "skip_eliminate")
    require_inputs(videos, references, traced=not include_skip)
    qps: dict[str, list] = {}
    for video in videos:
        if video.qp is None:
            raise InsufficientData(f"video of camera {video.camera_id} "
                                   f"has no fixed-QP condition")
        qps.setdefault(video.camera_id, []).append((video.qp, 1.0))
    build_qp_table([CalibrationRun(c, s) for c, s in qps.items()])  # anchors

    def fingerprint(video, frames):
        [fp] = stream_fingerprints(video, [scheme], frames)
        return [(float(video.qp), fp)]

    runs = _calibration_runs(videos, references, fingerprint, denoise_config,
                             pce_config, workers)
    return build_qp_table(runs, "qp_all" if include_skip else "qp_noskip")


def calibrate_lambda_rate(videos: Sequence[Video],
                          references: dict[str, Fingerprint],
                          n_buckets: int = 20,
                          include_skip: bool = False,
                          denoise_config: DenoiseConfig = DenoiseConfig(),
                          pce_config: PceConfig = PceConfig(),
                          workers: int = 1) -> tuple[WeightTable, list[str]]:
    """Fit a lambda*rate weight table from encodes at assorted bitrates.

    Each video is spliced into cost-ranked frames; every spliced frame with
    any filled position yields one (mean lambda*rate, PCE) sample against
    its camera's reference. Bucket edges are equal-population quantiles of
    the pooled means. Every video needs a trace and a reference of its
    camera (InsufficientData) and at least 2 frames (InsufficientFrames),
    checked before any extraction.
    """
    if n_buckets < 1:
        raise ConfigError(f"need at least one bucket, got {n_buckets}")
    require_inputs(videos, references, traced=True)
    for video in videos:
        _splice_frames(video.trace)

    def spliced_frames(video, frames):
        # map keeps no residual between frames, as a generator would
        spliced = splice_by_lambda_rate(map(itemgetter(1), frames),
                                        video.trace, include_skip)
        return [(float(mean_lr), values) for values, mean_lr
                in zip(spliced.values, spliced.mean_lambda_rate)
                if np.isfinite(mean_lr) and values.any()]

    runs = _calibration_runs(videos, references, spliced_frames,
                             denoise_config, pce_config, workers)
    all_samples = [lr for run in runs for lr, _ in run.samples]
    if not all_samples:
        raise InsufficientData("no spliced frames produced observations")
    return build_lambda_rate_table(runs, quantile_bucket_edges(all_samples,
                                                               n_buckets))
