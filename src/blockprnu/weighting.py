"""
Per-pixel contribution masks driven by block-level codec metadata.

A mask is a plane of non-negative weights, constant within each 16x16
macroblock footprint. Four schemes are derived from trace data: binary
skip elimination, a QP-keyed table applied to every block, the same table
with skips zeroed, and a lambda*rate-keyed table (interpolated) with skips
zeroed. Tables come from calibration and are normalized to weight 1.0 at
their anchor key.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, MissingKey, SchemaError
from .trace import MACROBLOCK, FrameBlockMap

TABLE_SCHEMES = ("skip_eliminate", "qp_all", "qp_noskip", "lambda_r")
ALL_SCHEMES = ("conventional", "loop_filter_only") + TABLE_SCHEMES

ANCHOR_QP = 15
ANCHOR_LAMBDA_RATE = 60.0


@dataclass
class WeightTable:
    """Sorted key -> weight lookup with a unit-weight anchor."""
    scheme: str
    keys: np.ndarray
    weights: np.ndarray
    anchor_key: float

    def __post_init__(self):
        if self.scheme not in TABLE_SCHEMES:
            raise ConfigError(f"unknown table scheme {self.scheme!r}")
        self.keys = np.asarray(self.keys, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.keys.ndim != 1 or self.keys.shape != self.weights.shape:
            raise ConfigError("keys and weights must be equal-length vectors")
        if self.keys.size == 0:
            raise ConfigError("empty weight table")
        if np.any(np.diff(self.keys) <= 0):
            raise ConfigError("table keys must be strictly increasing")
        if np.any(self.weights < 0):
            raise ConfigError("table weights must be non-negative")
        hits = np.flatnonzero(self.keys == self.anchor_key)
        if hits.size != 1:
            raise ConfigError(f"anchor key {self.anchor_key} not in table")
        if abs(self.weights[hits[0]] - 1.0) > 1e-9:
            raise ConfigError("anchor weight must be 1.0")

    def weight_exact(self, key: float) -> float:
        hits = np.flatnonzero(self.keys == key)
        if hits.size == 0:
            raise MissingKey(f"no table entry for key {key}")
        return float(self.weights[hits[0]])

    def weight_interp(self, x) -> np.ndarray:
        """Piecewise-linear weight, clamped to the end weights outside the keys."""
        return np.interp(np.asarray(x, dtype=np.float64), self.keys, self.weights)

    # -- text file form: header line, then one "key,weight" line per entry --

    def to_text(self) -> str:
        lines = [f"#scheme={self.scheme} anchor_key={float(self.anchor_key)!r}"]
        for k, w in zip(self.keys, self.weights):
            lines.append(f"{float(k)!r},{float(w)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "WeightTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("#scheme="):
            raise SchemaError("weight table missing header")
        head = lines[0][1:].split(" ")
        fields = dict(part.split("=", 1) for part in head if "=" in part)
        if "scheme" not in fields or "anchor_key" not in fields:
            raise SchemaError("weight table header must carry scheme and anchor_key")
        keys, weights = [], []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 2:
                raise SchemaError(f"bad table line: {ln!r}")
            try:
                keys.append(float(parts[0]))
                weights.append(float(parts[1]))
            except ValueError as exc:
                raise SchemaError(f"bad table line: {ln!r}") from exc
        try:
            anchor = float(fields["anchor_key"])
        except ValueError as exc:
            raise SchemaError("bad anchor_key") from exc
        try:
            return cls(scheme=fields["scheme"], keys=np.array(keys),
                       weights=np.array(weights), anchor_key=anchor)
        except ConfigError as exc:
            raise SchemaError(str(exc)) from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text())

    @classmethod
    def load(cls, path: str | Path) -> "WeightTable":
        return cls.from_text(Path(path).read_text())


@dataclass(frozen=True)
class SchemeConfig:
    """Which weighting scheme to apply, plus its table when one is needed."""
    scheme: str
    table: WeightTable | None = None

    def __post_init__(self):
        if self.scheme not in ALL_SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.scheme in ("qp_all", "qp_noskip", "lambda_r") and self.table is None:
            raise ConfigError(f"scheme {self.scheme} needs a weight table")


def paint_blocks(block_weights: np.ndarray,
                 frame_shape: tuple[int, int] | None = None) -> np.ndarray:
    """Expand per-block weights to pixel resolution.

    Pixels beyond the macroblock grid (frames whose dimensions are not
    multiples of 16) get weight 0: they are cropped from analysis.
    """
    full = np.repeat(np.repeat(block_weights.astype(np.float64), MACROBLOCK, 0),
                     MACROBLOCK, 1)
    if frame_shape is None:
        return full
    h, w = frame_shape
    out = np.zeros((h, w), dtype=np.float64)
    ch, cw = min(h, full.shape[0]), min(w, full.shape[1])
    out[:ch, :cw] = full[:ch, :cw]
    return out


def mask_skip_eliminate(fmap: FrameBlockMap,
                        frame_shape: tuple[int, int] | None = None) -> np.ndarray:
    """0 on skip-block footprints, 1 elsewhere."""
    return paint_blocks((~fmap.skip).astype(np.float64), frame_shape)


def mask_qp(fmap: FrameBlockMap, table: WeightTable, exclude_skip: bool,
            frame_shape: tuple[int, int] | None = None) -> np.ndarray:
    """Table weight at each block's QP; optionally zero on skips.

    QP tables are dense by construction, so a missing entry is an error,
    not a cue to interpolate.
    """
    lut = np.empty(52, dtype=np.float64)
    present = np.zeros(52, dtype=bool)
    for k, w in zip(table.keys, table.weights):
        if k == int(k) and 0 <= int(k) <= 51:
            lut[int(k)] = w
            present[int(k)] = True
    used = np.unique(fmap.qp)
    missing = [int(q) for q in used if not present[q]]
    if missing:
        raise MissingKey(f"table has no weight for qp {missing[0]}")
    weights = lut[fmap.qp]
    if exclude_skip:
        weights = np.where(fmap.skip, 0.0, weights)
    return paint_blocks(weights, frame_shape)


def mask_lambda_rate(fmap: FrameBlockMap, table: WeightTable,
                     frame_shape: tuple[int, int] | None = None) -> np.ndarray:
    """Interpolated table weight at each block's lambda*rate; skips get 0."""
    weights = table.weight_interp(fmap.lambda_rate)
    weights = np.where(fmap.skip, 0.0, weights)
    return paint_blocks(weights, frame_shape)


def build_mask(fmap: FrameBlockMap, config: SchemeConfig,
               frame_shape: tuple[int, int] | None = None) -> np.ndarray:
    """Mask for one frame under the given scheme.

    loop_filter_only has no block-metadata effect of its own; in grids fed
    by the simulator (which has no in-loop filter) it behaves exactly like
    the conventional all-ones mask.
    """
    if config.scheme in ("conventional", "loop_filter_only"):
        return paint_blocks(np.ones((fmap.grid_h, fmap.grid_w)), frame_shape)
    if config.scheme == "skip_eliminate":
        return mask_skip_eliminate(fmap, frame_shape)
    if config.scheme == "qp_all":
        return mask_qp(fmap, config.table, exclude_skip=False,
                       frame_shape=frame_shape)
    if config.scheme == "qp_noskip":
        return mask_qp(fmap, config.table, exclude_skip=True,
                       frame_shape=frame_shape)
    if config.scheme != "lambda_r":
        raise ConfigError(f"unknown scheme {config.scheme!r}")
    return mask_lambda_rate(fmap, config.table, frame_shape)
