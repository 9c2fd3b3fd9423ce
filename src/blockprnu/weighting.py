"""
Per-pixel contribution masks driven by block-level codec metadata.

A mask is a plane of non-negative weights, constant within each 16x16
macroblock footprint. `build_mask` gives the block weights of a whole trace
as one (frames, grid_h, grid_w) stack and `paint_blocks` expands one frame
of it to pixels. `SCHEMES` declares every scheme once: the block key its
weight table is looked up by (none, QP or lambda*rate) and whether skip
blocks weigh 0. Tables come from calibration and are normalized to weight
1.0 at their anchor key.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, MissingKey, SchemaError, decode_text
from .trace import MACROBLOCK, TraceFile

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
        if not (np.isfinite(self.keys).all() and np.isfinite(self.weights).all()
                and np.isfinite(self.anchor_key)):
            raise ConfigError("table keys, weights and anchor key must be finite")
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
        return cls.from_text(decode_text(Path(path).read_bytes(), path))


@dataclass(frozen=True)
class SchemeConfig:
    """Which weighting scheme to apply, plus its table when one is needed."""
    scheme: str
    table: WeightTable | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if (SCHEMES[self.scheme].lookup is None) != (self.table is None):
            raise ConfigError(f"scheme {self.scheme} " + (
                "needs a weight table" if self.table is None
                else "does not take a weight table"))


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


def _qp_weights(trace: TraceFile, table: WeightTable) -> np.ndarray:
    """Table weight at each block's QP. QP tables are dense by construction,
    so a missing entry is an error, not a cue to interpolate."""
    lut = np.full(52, np.nan)       # table weights are finite
    for k, w in zip(table.keys, table.weights):
        if k == int(k) and 0 <= k <= 51:
            lut[int(k)] = w
    weights = lut[trace.qp]
    missing = np.isnan(weights)
    if missing.any():
        raise MissingKey(f"table has no weight for qp {trace.qp[missing].min()}")
    return weights


class Scheme(NamedTuple):
    """How a scheme weighs a block: `lookup` gives the block weights from
    the scheme's table, keyed by QP or lambda*rate (None: the scheme takes
    no table and every block weighs 1); with `zero_skip` skips weigh 0."""
    lookup: Callable[[TraceFile, WeightTable], np.ndarray] | None
    zero_skip: bool


# loop_filter_only has no block-metadata effect of its own; in grids fed by
# the simulator (which has no in-loop filter) it equals conventional
SCHEMES = {
    "conventional": Scheme(None, False),
    "loop_filter_only": Scheme(None, False),
    "skip_eliminate": Scheme(None, True),
    "qp_all": Scheme(_qp_weights, False),
    "qp_noskip": Scheme(_qp_weights, True),
    "lambda_r": Scheme(lambda trace, table: table.weight_interp(trace.lambda_rate),
                       True),
}
ALL_SCHEMES = tuple(SCHEMES)
TABLE_SCHEMES = tuple(s for s, rule in SCHEMES.items() if rule.lookup)


def build_mask(trace: TraceFile, config: SchemeConfig) -> np.ndarray:
    """Block weights of every frame of the trace under the given scheme, as
    `SCHEMES` declares it: a (frames, grid_h, grid_w) stack."""
    rule = SCHEMES.get(config.scheme)
    if rule is None:
        raise ConfigError(f"unknown scheme {config.scheme!r}")
    weights = (np.ones(trace.qp.shape) if rule.lookup is None
               else rule.lookup(trace, config.table))
    if rule.zero_skip:
        weights = np.where(trace.skip, 0.0, weights)
    return weights
