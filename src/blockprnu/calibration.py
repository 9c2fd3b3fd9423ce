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
from typing import Sequence

import numpy as np

from .errors import (EmptyBucket, InsufficientData, InsufficientFrames,
                     MissingAnchor)
from .matching import PceConfig, ReferenceSpectrum, pce
from .noise import DenoiseConfig, NoiseResidual, Picture
from .prnu import (Fingerprint, fingerprint_from_residuals,
                   require_references, residual_extractor)
from .trace import MACROBLOCK, FrameBlockMap, TraceFile
from .weighting import ANCHOR_LAMBDA_RATE, ANCHOR_QP, SchemeConfig, WeightTable

PCE_FLOOR = 1e-3
QP_RANGE = np.arange(52)


@dataclass
class CalibrationRun:
    """Observations from one camera: (condition key, PCE) samples.

    For QP calibration the key is the fixed QP of the encode; for
    lambda*rate calibration it is the spliced frame's mean lambda*rate.
    """
    camera_id: str
    samples: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class SplicedFrame:
    values: np.ndarray            # residual-domain plane, zeros where unfilled
    filled: np.ndarray            # (gh, gw) bool
    mean_lambda_rate: float       # over filled positions; nan if none


@dataclass
class SplicedFrameSet:
    frames: list[SplicedFrame]
    grid_h: int
    grid_w: int


def splice_by_lambda_rate(residuals: Sequence[NoiseResidual],
                          frame_maps: Sequence[FrameBlockMap],
                          include_skip: bool = False) -> SplicedFrameSet:
    """Regroup residual blocks by per-position lambda*rate rank.

    For every block position independently the N contributions are sorted
    ascending by lambda*rate (stable, ties keep frame order) and spliced
    frame j receives the rank-j block. With include_skip=False, skip blocks
    never contribute; positions with fewer than j+1 coded contributions
    stay zero in spliced frame j and are marked unfilled.
    """
    n = len(residuals)
    if n < 2:
        raise InsufficientFrames(f"splicing needs at least 2 frames, got {n}")
    if len(frame_maps) != n:
        raise InsufficientFrames(f"{n} residuals vs {len(frame_maps)} maps")
    gh, gw = frame_maps[0].grid_h, frame_maps[0].grid_w
    h, w = gh * MACROBLOCK, gw * MACROBLOCK
    # spliced frames keep the frame's shape: a ceil-sized grid's partial
    # blocks are padded with zeros and cropped again, and pixels beyond a
    # floor-sized grid stay zero, as in the masks
    rh, rw = residuals[0].values.shape
    ch, cw = min(h, rh), min(w, rw)

    lr = np.stack([m.lambda_rate for m in frame_maps])            # (n, gh, gw)
    if not include_skip:
        skip = np.stack([m.skip for m in frame_maps])
        lr = np.where(skip, np.inf, lr)
    blocks = np.stack([
        np.pad(r.values[:ch, :cw], ((0, h - ch), (0, w - cw)))
        .reshape(gh, MACROBLOCK, gw, MACROBLOCK).swapaxes(1, 2)
        for r in residuals
    ])                                                            # (n, gh, gw, 16, 16)

    order = np.argsort(lr, axis=0, kind="stable")
    sorted_lr = np.take_along_axis(lr, order, axis=0)
    sorted_blocks = np.take_along_axis(
        blocks, order[..., None, None], axis=0)
    filled = np.isfinite(sorted_lr)
    sorted_blocks = sorted_blocks * filled[..., None, None]

    frames = []
    for j in range(n):
        values = np.pad(sorted_blocks[j].swapaxes(1, 2).reshape(h, w)[:ch, :cw],
                        ((0, rh - ch), (0, rw - cw)))
        fill_j = filled[j]
        mean_lr = float(sorted_lr[j][fill_j].mean()) if fill_j.any() else float("nan")
        frames.append(SplicedFrame(values=values, filled=fill_j,
                                   mean_lambda_rate=mean_lr))
    return SplicedFrameSet(frames=frames, grid_h=gh, grid_w=gw)


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

@dataclass
class CalibrationVideo:
    """One decoded calibration video plus its block trace."""
    camera_id: str
    pictures: list[Picture]
    trace: TraceFile
    qp: int | None = None     # the fixed-QP condition, when applicable


def calibrate_qp(videos: Sequence[CalibrationVideo],
                 references: dict[str, Fingerprint],
                 include_skip: bool,
                 anchor_qp: int = ANCHOR_QP,
                 denoise_config: DenoiseConfig = DenoiseConfig(),
                 pce_config: PceConfig = PceConfig(),
                 workers: int = 1) -> tuple[WeightTable, list[str]]:
    """Fit a QP weight table from fixed-QP encodes of known cameras.

    include_skip chooses whether skip blocks contribute to the per-video
    fingerprints (True fits the table used by the all-blocks scheme, False
    the coded-only variant).
    """
    scheme = SchemeConfig("conventional" if include_skip else "skip_eliminate")
    runs: dict[str, CalibrationRun] = {}
    require_references((v.camera_id for v in videos), references)
    with residual_extractor(denoise_config, workers) as extract:
        for video in videos:
            if video.qp is None:
                raise InsufficientData(f"video of camera {video.camera_id} "
                                       f"has no fixed-QP condition")
            residuals = extract(video.pictures)
            fp = fingerprint_from_residuals(video.pictures, video.trace.frames(),
                                            residuals, scheme)
            match = pce(fp, references[video.camera_id], pce_config)
            run = runs.setdefault(video.camera_id,
                                  CalibrationRun(camera_id=video.camera_id))
            run.samples.append((float(video.qp), match.pce))
    return build_qp_table(list(runs.values()), anchor_qp=anchor_qp,
                          scheme="qp_all" if include_skip else "qp_noskip")


def calibrate_lambda_rate(videos: Sequence[CalibrationVideo],
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
    the pooled means.
    """
    runs: dict[str, CalibrationRun] = {}
    require_references((v.camera_id for v in videos), references)
    with residual_extractor(denoise_config, workers) as extract:
        for video in videos:
            spliced = splice_by_lambda_rate(extract(video.pictures),
                                            video.trace.frames(),
                                            include_skip=include_skip)
            run = runs.setdefault(video.camera_id,
                                  CalibrationRun(camera_id=video.camera_id))
            spectrum = ReferenceSpectrum(references[video.camera_id])
            for frame in spliced.frames:
                if (not np.isfinite(frame.mean_lambda_rate)
                        or not np.any(frame.values)):
                    continue
                match = pce(frame.values, spectrum, pce_config)
                run.samples.append((frame.mean_lambda_rate, match.pce))
    all_samples = [lr for run in runs.values() for lr, _ in run.samples]
    if not all_samples:
        raise InsufficientData("no spliced frames produced observations")
    return build_lambda_rate_table(list(runs.values()),
                                   quantile_bucket_edges(all_samples, n_buckets),
                                   anchor_lr=anchor_lr)
