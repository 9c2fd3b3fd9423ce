"""
Experiment orchestration and reporting: the per-video match pass under
scheme-by-scheme matching grids and both calibrations, detection-count
tables grouped by bits per pixel, ROC curves, and skip-rate summaries.

Tables and curves are emitted as structured text plus plot-ready coordinate
lines; nothing here draws.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BlockPrnuError, ConfigError, EmptyInput, SchemaError
from .matching import (DEFAULT_THRESHOLD, MatchReport, PceConfig,
                       ReferenceSpectrum, check_threshold, pce)
from .noise import DenoiseConfig
from .prnu import (Fingerprint, Video, require_inputs, residual_extractor,
                   stream_fingerprints)
from .trace import TraceFile, bits_per_pixel, skipped_block_rate
from .weighting import SchemeConfig

BPP_GROUP_EDGES = (0.024, 0.052, 0.084, 0.172)


@dataclass
class ExperimentGrid:
    """Videos x schemes matrix of match outcomes."""
    video_ids: list[str]
    schemes: list[str]
    bpp: dict[str, float]
    cells: dict[tuple[str, str], object]   # MatchReport or BlockPrnuError
    notes: list[str] = field(default_factory=list)


def run_grid(videos: Sequence[Video],
             scheme_configs: Sequence[SchemeConfig],
             references: dict[str, Fingerprint],
             denoise_config: DenoiseConfig = DenoiseConfig(),
             pce_config: PceConfig = PceConfig(),
             threshold: float = DEFAULT_THRESHOLD,
             workers: int = 1) -> ExperimentGrid:
    """Estimate and match every video under every scheme.

    Before any extraction, a NaN threshold or repeated schemes raise
    ConfigError, a repeated video id SchemaError naming it, and a video
    without a trace or a camera reference InsufficientData. Then
    `match_videos` streams each video's (luma, residual) pairs once into
    `stream_fingerprints`, which feeds all of its schemes in lockstep, and
    matches them against one transform of the camera reference. A failing
    cell stores its error and the rest of the grid proceeds.
    """
    check_threshold(threshold)
    schemes = [c.scheme for c in scheme_configs]
    if len(set(schemes)) != len(schemes):
        raise ConfigError("duplicate schemes in grid")
    ids = [v.video_id for v in videos]
    for i, vid in enumerate(ids):
        if vid in ids[:i]:
            raise SchemaError(f"duplicate video id {vid!r}")
    require_inputs(videos, references, traced=True)
    grid = ExperimentGrid(video_ids=ids,
                          schemes=schemes,
                          bpp={v.video_id: bits_per_pixel(v.trace) for v in videos},
                          cells={})
    if "loop_filter_only" in schemes:
        grid.notes.append("loop_filter_only duplicates conventional masks: "
                          "the simulator codec has no in-loop filter")

    def fingerprints(video, frames):
        return zip(((video.video_id, s) for s in schemes),
                   stream_fingerprints(video, scheme_configs, frames))

    for _, matches in match_videos(videos, references, fingerprints,
                                   denoise_config, pce_config, threshold,
                                   workers):
        grid.cells.update(matches)
    return grid


def match_videos(videos: Sequence[Video], references: dict[str, Fingerprint],
                 planes, denoise_config: DenoiseConfig, pce_config: PceConfig,
                 threshold: float = DEFAULT_THRESHOLD, workers: int = 1):
    """The per-video match pass of `run_grid` and both calibrations.

    Each video's frames stream once, as (luma, residual) pairs in frame
    order and through one `residual_extractor` for the whole call, into
    ``planes(video, frames)``, which returns (key, plane or
    BlockPrnuError) pairs; every plane is matched against one transform
    of the camera's reference. Yields (video,
    [(key, MatchReport or the plane's or `pce`'s BlockPrnuError)]). The
    extractor's pools shut down when the iteration ends or the generator
    is closed.
    """
    with residual_extractor(denoise_config, workers) as extract:
        for video in videos:
            pairs = planes(video, extract(video.pictures))
            reference = ReferenceSpectrum(references[video.camera_id])
            yield video, [(key, _match(plane, reference, pce_config,
                                       threshold)) for key, plane in pairs]


def _match(plane, reference, pce_config, threshold):
    if isinstance(plane, BlockPrnuError):
        return plane
    try:
        return pce(plane, reference, pce_config, threshold)
    except BlockPrnuError as exc:
        return exc


def scheme_mean_pce(grid: ExperimentGrid,
                    video_ids: Sequence[str] | None = None) -> dict[str, float]:
    """Mean PCE per scheme over (optionally a subset of) grid videos."""
    ids = list(video_ids) if video_ids is not None else grid.video_ids
    out = {}
    for scheme in grid.schemes:
        values = [grid.cells[(vid, scheme)].pce for vid in ids
                  if isinstance(grid.cells.get((vid, scheme)), MatchReport)]
        if not values:
            raise EmptyInput(f"no successful cells for scheme {scheme}")
        out[scheme] = float(np.mean(values))
    return out


def improvement_ratios(mean_pces: dict[str, float]) -> dict[str, float]:
    """Each scheme's mean PCE over that of `conventional`."""
    if "conventional" not in mean_pces:
        raise ConfigError("baseline conventional not in grid")
    base = mean_pces["conventional"]
    if base <= 0:
        raise EmptyInput("baseline mean PCE is not positive")
    return {s: v / base for s, v in mean_pces.items()}


def format_ratio(x: float) -> str:
    """Ratios are reported at 3 significant digits."""
    return f"{x:.3g}"


# ---------------------------------------------------------------------------
# detection-count table
# ---------------------------------------------------------------------------

@dataclass
class ThresholdTable:
    group_labels: list[str]
    schemes: list[str]
    counts: np.ndarray          # (groups, schemes) int
    populations: np.ndarray     # (groups,) int
    notes: list[str] = field(default_factory=list)

    @property
    def totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @property
    def total_population(self) -> int:
        return int(self.populations.sum())

    def to_text(self) -> str:
        width = max(12, max(len(s) for s in self.schemes) + 2)
        head = "group".ljust(10) + "".join(s.rjust(width) for s in self.schemes) \
            + "population".rjust(12)
        lines = [head]
        for i, label in enumerate(self.group_labels):
            row = label.ljust(10)
            row += "".join(str(int(c)).rjust(width) for c in self.counts[i])
            row += str(int(self.populations[i])).rjust(12)
            lines.append(row)
        total_row = "total".ljust(10)
        total_row += "".join(str(int(c)).rjust(width) for c in self.totals)
        total_row += str(self.total_population).rjust(12)
        lines.append(total_row)
        lines.extend(f"# {n}" for n in self.notes)
        return "\n".join(lines) + "\n"


def group_labels_for_edges(edges: Sequence[float]) -> list[str]:
    """Labels of the bits-per-pixel groups; ConfigError unless the edges
    are finite and increasing."""
    edges = np.asarray(edges, dtype=np.float64)
    if not (edges.ndim == 1 and edges.size and np.isfinite(edges).all()
            and np.all(np.diff(edges) > 0)):
        raise ConfigError(f"bits-per-pixel group edges must be finite and "
                          f"increasing, got {edges.tolist()}")
    labels = [f"<{e:g}" for e in edges]
    labels.append(f">{edges[-1]:g}")
    return labels


def threshold_table(grid: ExperimentGrid,
                    group_edges: Sequence[float] = BPP_GROUP_EDGES,
                    threshold: float = DEFAULT_THRESHOLD) -> ThresholdTable:
    """Count videos with PCE above threshold, per bpp group and scheme.

    Error cells count as missed detections. Videos land in the first group
    whose upper edge exceeds their bits-per-pixel; the last group is open.
    """
    check_threshold(threshold)
    edges = np.asarray(group_edges, dtype=np.float64)
    n_groups = edges.size + 1
    counts = np.zeros((n_groups, len(grid.schemes)), dtype=np.int64)
    populations = np.zeros(n_groups, dtype=np.int64)
    for vid in grid.video_ids:
        g = int(np.searchsorted(edges, grid.bpp[vid], side="right"))
        populations[g] += 1
        for j, scheme in enumerate(grid.schemes):
            cell = grid.cells.get((vid, scheme))
            if isinstance(cell, MatchReport) and cell.pce > threshold:
                counts[g, j] += 1
    return ThresholdTable(group_labels=group_labels_for_edges(edges),
                          schemes=list(grid.schemes), counts=counts,
                          populations=populations, notes=list(grid.notes))


# ---------------------------------------------------------------------------
# ROC
# ---------------------------------------------------------------------------

@dataclass
class RocCurve:
    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc(matching: Sequence[float], non_matching: Sequence[float]) -> RocCurve:
    """Detection-vs-false-alarm curve over every observed PCE threshold.

    Endpoints (0,0) and (1,1) are always present. AUC is the trapezoid area;
    tied values across both sets trace the diagonal and score 0.5.
    """
    match = np.asarray(matching, dtype=np.float64)
    non = np.asarray(non_matching, dtype=np.float64)
    if match.size == 0 or non.size == 0:
        raise EmptyInput("roc needs both matching and non-matching scores")
    distinct = np.unique(np.concatenate([match, non]))[::-1]
    thresholds = np.concatenate([[np.inf], distinct, [-np.inf]])
    tpr = np.array([(match > t).mean() for t in thresholds])
    fpr = np.array([(non > t).mean() for t in thresholds])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=auc)


# ---------------------------------------------------------------------------
# skip-rate summaries
# ---------------------------------------------------------------------------

def sbr_summary(traces_by_group: dict[str, Sequence[TraceFile]]) -> list[str]:
    """Box-plot numbers (min, quartiles, max) of skip rate per bitrate group.

    Returns text rows: label,min,q1,median,q3,max.
    """
    rows = []
    for label in traces_by_group:
        values = [skipped_block_rate(tf) for tf in traces_by_group[label]]
        if not values:
            raise EmptyInput(f"group {label} has no traces")
        q = np.percentile(values, [0, 25, 50, 75, 100])
        rows.append(f"{label}," + ",".join(repr(float(v)) for v in q))
    return rows
