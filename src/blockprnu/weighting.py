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
from .trace import TraceFile, block_canvas

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

    def weight_exact(self, key):
        """The weight at a key, or the weights at an array of keys;
        MissingKey names the smallest one missing (no cue to interpolate)."""
        keys = np.asarray(key)
        pos = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        missing = self.keys[pos] != keys
        if missing.any():
            name = SCHEMES[self.scheme].key
            raise MissingKey(f"table has no weight for {name} "
                             f"{keys[missing].min()}")
        weights = self.weights[pos]
        return float(weights) if weights.ndim == 0 else weights

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
        rule = SCHEMES[self.scheme]
        if (rule.lookup is None) != (self.table is None):
            raise ConfigError(f"scheme {self.scheme} " + (
                "needs a weight table" if self.table is None
                else "does not take a weight table"))
        # the two QP schemes share their tables
        table = self.table
        if table is not None and SCHEMES[table.scheme].key != rule.key:
            raise SchemaError(f"scheme {self.scheme} looks weights up by "
                              f"{rule.key}, but a {table.scheme} table is "
                              f"keyed by {SCHEMES[table.scheme].key}")


def paint_blocks(block_weights: np.ndarray,
                 frame_shape: tuple[int, int]) -> np.ndarray:
    """Expand per-block weights to a new (H, W) plane of pixel weights: the
    frame's crop of a zero `block_canvas` whose blocks are filled with them.

    Pixels beyond the macroblock grid (frames whose dimensions are not
    multiples of 16) get weight 0: they are cropped from analysis.
    """
    plane, cells = block_canvas(frame_shape, block_weights.shape)
    cells[...] = block_weights[..., None, None]
    return plane


class Scheme(NamedTuple):
    """How a scheme weighs a block: `lookup` gives the block weights from
    the scheme's table, keyed by `key`, "qp" or "lambda*rate" (both None:
    the scheme takes no table and every block weighs 1); with `zero_skip`
    skips weigh 0."""
    lookup: Callable[[TraceFile, WeightTable], np.ndarray] | None
    zero_skip: bool
    key: str | None = None


# loop_filter_only has no block-metadata effect of its own; in grids fed by
# the simulator (which has no in-loop filter) it equals conventional
SCHEMES = {
    "conventional": Scheme(None, False),
    "loop_filter_only": Scheme(None, False),
    "skip_eliminate": Scheme(None, True),
    "qp_all": Scheme(lambda trace, table: table.weight_exact(trace.qp), False,
                     "qp"),
    "qp_noskip": Scheme(lambda trace, table: table.weight_exact(trace.qp), True,
                        "qp"),
    "lambda_r": Scheme(lambda trace, table: table.weight_interp(trace.lambda_rate),
                       True, "lambda*rate"),
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
