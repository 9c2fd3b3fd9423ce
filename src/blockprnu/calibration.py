"""
Weight-table calibration from matching experiments.

QP tables: videos coded at fixed QP levels yield per-camera PCE curves,
each normalized at the anchor QP (15), averaged across cameras, and turned
into weights by a square root (PCE scales like the square of pattern
energy, weights should scale linearly).

lambda*rate tables: residual blocks of one video are spliced by rank of
their lambda*rate per block position, giving frames of roughly uniform
cost whose mean lambda*rate maps to a PCE observation. Observations are
pooled into equal-population buckets, normalized at the bucket containing
lambda*rate = 60, averaged, rooted, and keyed by bucket centers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (BlockPrnuError, ConfigError, DimensionMismatch,
                     EmptyBucket, InsufficientData, InsufficientFrames,
                     MissingAnchor)
from .matching import PceConfig, ReferenceSpectrum, pce
from .noise import DenoiseConfig
from .prnu import (Fingerprint, Video, require_inputs, residual_extractor,
                   stream_fingerprints)
from .trace import MACROBLOCK, QP_MAX, QP_MIN, TraceFile
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
    gh, gw = trace.grid_h, trace.grid_w
    h, w = gh * MACROBLOCK, gw * MACROBLOCK
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
    # spliced frames keep the frame's shape: a ceil-sized grid's partial
    # blocks are padded with zeros and cropped again, and pixels beyond a
    # floor-sized grid stay zero, as in the masks
    values = np.zeros((n, max(h, shape[0]), max(w, shape[1])))
    plane = np.zeros(values.shape[1:])
    # (n, gh, gw, 16, 16) and (gh, gw, 16, 16) views of the blocks
    spliced = values[:, :h, :w].reshape(
        n, gh, MACROBLOCK, gw, MACROBLOCK).swapaxes(2, 3)
    blocks = plane[:h, :w].reshape(
        gh, MACROBLOCK, gw, MACROBLOCK).swapaxes(1, 2)
    count = 0
    for residual in residuals:
        if residual.shape != shape:
            raise DimensionMismatch(f"residual shape {residual.shape} vs "
                                    f"{shape} of the trace")
        if count < n:
            plane[:shape[0], :shape[1]] = residual
            ys, xs = np.nonzero(np.isfinite(lr[count]))
            spliced[rank[count, ys, xs], ys, xs] = blocks[ys, xs]
        count += 1
    if count != n:
        raise InsufficientFrames(f"{count} residuals vs {n} trace frames")
    return SplicedVideo(values=values[:, :shape[0], :shape[1]], filled=filled,
                        mean_lambda_rate=mean_lr)


# ---------------------------------------------------------------------------
# table construction from observations
# ---------------------------------------------------------------------------

def build_qp_table(runs: Sequence[CalibrationRun], anchor_qp: int = ANCHOR_QP,
                   scheme: str = "qp_noskip") -> tuple[WeightTable, list[str]]:
    """Normalize-average-root over per-camera QP curves, then densify.

    Returns the table plus audit report lines
    (camera,qp,raw_pce,normalized_pce).
    """
    if not runs or all(not r.samples for r in runs):
        raise InsufficientData("no QP observations")
    report: list[str] = []
    normalized: dict[int, list[float]] = {}
    for run in sorted(runs, key=lambda r: r.camera_id):
        by_qp: dict[int, list[float]] = {}
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
                            bucket_edges: np.ndarray,
                            anchor_lr: float = ANCHOR_LAMBDA_RATE
                            ) -> tuple[WeightTable, list[str]]:
    """Bucket (mean lambda*rate, PCE) samples, normalize at the anchor bucket,
    average across cameras, take the square root.

    The anchor key (lambda*rate = 60, weight exactly 1) is inserted into the
    final table so interpolation is exact at the anchor.
    """
    if not runs or all(not r.samples for r in runs):
        raise InsufficientData("no lambda*rate observations")
    edges = np.asarray(bucket_edges, dtype=np.float64)
    n_buckets = edges.size - 1
    if n_buckets < 1:
        raise InsufficientData("need at least one bucket")
    anchor_bucket = int(_bucket_index(edges, [anchor_lr])[0])

    report: list[str] = []
    normalized: dict[int, list[float]] = {}
    centers_pool: dict[int, list[float]] = {}
    for run in sorted(runs, key=lambda r: r.camera_id):
        clean = [(lr, max(p, PCE_FLOOR)) for lr, p in run.samples
                 if np.isfinite(lr)]
        if not clean:
            continue
        lrs = np.array([c[0] for c in clean])
        pces = np.array([c[1] for c in clean])
        buckets = _bucket_index(edges, lrs)
        means: dict[int, float] = {}
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

    # exact anchor entry so interpolation at 60 gives exactly 1
    if anchor_lr in keys:
        weights[keys == anchor_lr] = 1.0
    else:
        pos = int(np.searchsorted(keys, anchor_lr))
        keys = np.insert(keys, pos, anchor_lr)
        weights = np.insert(weights, pos, 1.0)
    table = WeightTable(scheme="lambda_r", keys=keys, weights=weights,
                        anchor_key=float(anchor_lr))
    return table, report


# ---------------------------------------------------------------------------
# drivers over decoded videos
# ---------------------------------------------------------------------------

def calibrate_qp(videos: Sequence[Video],
                 references: dict[str, Fingerprint],
                 include_skip: bool,
                 anchor_qp: int = ANCHOR_QP,
                 denoise_config: DenoiseConfig = DenoiseConfig(),
                 pce_config: PceConfig = PceConfig(),
                 workers: int = 1) -> tuple[WeightTable, list[str]]:
    """Fit a QP weight table from fixed-QP encodes of known cameras.

    include_skip chooses whether skip blocks contribute to the per-video
    fingerprints (True fits the table used by the all-blocks scheme, False
    the coded-only variant, whose videos need traces).
    """
    scheme = SchemeConfig("conventional" if include_skip else "skip_eliminate")
    runs: dict[str, CalibrationRun] = {}
    require_inputs(videos, references, traced=not include_skip)
    for video in videos:
        if video.qp is None:
            raise InsufficientData(f"video of camera {video.camera_id} "
                                   f"has no fixed-QP condition")
    # build_qp_table's anchor rule, checked before any extraction
    unanchored = sorted({v.camera_id for v in videos}
                        - {v.camera_id for v in videos if v.qp == anchor_qp})
    if unanchored:
        raise MissingAnchor(f"camera {unanchored[0]} has no qp={anchor_qp} "
                            f"observation")
    with residual_extractor(denoise_config, workers) as extract:
        for video in videos:
            [fp] = stream_fingerprints(video, [scheme], extract(video.pictures))
            if isinstance(fp, BlockPrnuError):
                raise fp
            match = pce(fp, references[video.camera_id], pce_config)
            run = runs.setdefault(video.camera_id,
                                  CalibrationRun(camera_id=video.camera_id))
            run.samples.append((float(video.qp), match.pce))
    return build_qp_table(list(runs.values()), anchor_qp=anchor_qp,
                          scheme="qp_all" if include_skip else "qp_noskip")


def calibrate_lambda_rate(videos: Sequence[Video],
                          references: dict[str, Fingerprint],
                          n_buckets: int = 20,
                          anchor_lr: float = ANCHOR_LAMBDA_RATE,
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
    runs: dict[str, CalibrationRun] = {}
    require_inputs(videos, references, traced=True)
    for video in videos:
        _splice_frames(video.trace)
    with residual_extractor(denoise_config, workers) as extract:
        for video in videos:
            spliced = splice_by_lambda_rate(extract(video.pictures),
                                            video.trace,
                                            include_skip=include_skip)
            run = runs.setdefault(video.camera_id,
                                  CalibrationRun(camera_id=video.camera_id))
            spectrum = ReferenceSpectrum(references[video.camera_id])
            for values, mean_lr in zip(spliced.values,
                                       spliced.mean_lambda_rate):
                if not np.isfinite(mean_lr) or not values.any():
                    continue
                match = pce(values, spectrum, pce_config)
                run.samples.append((float(mean_lr), match.pce))
    all_samples = [lr for run in runs.values() for lr, _ in run.samples]
    if not all_samples:
        raise InsufficientData("no spliced frames produced observations")
    return build_lambda_rate_table(list(runs.values()),
                                   quantile_bucket_edges(all_samples, n_buckets),
                                   anchor_lr=anchor_lr)
