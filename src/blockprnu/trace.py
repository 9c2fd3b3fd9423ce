"""
Block-level coding metadata and the scalar quantities derived from it.

A trace is the per-macroblock view of one coded video: for every frame and
every 16x16 grid position there is exactly one record carrying the block
type (I, P, B or SKIP), the quantization parameter and the bits spent.
SKIP records carry the QP inherited from their reference block and only
the few signaling bits actually emitted.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CoverageGap, EmptyInput, RangeError, SchemaError

MACROBLOCK = 16
BLOCK_TYPES = ("I", "P", "B", "SKIP")
QP_MIN = 0
QP_MAX = 51
SKIP_BITS_CEILING = 64  # a skip block is signaling only; anything bigger is not a skip


@dataclass(frozen=True)
class BlockRecord:
    """One macroblock of one frame."""
    frame_idx: int
    mb_x: int
    mb_y: int
    block_type: str
    qp: int
    bits: int

    def validate(self) -> None:
        if self.block_type not in BLOCK_TYPES:
            raise SchemaError(f"unknown block type {self.block_type!r}")
        if not (QP_MIN <= self.qp <= QP_MAX):
            raise RangeError(f"qp {self.qp} outside [{QP_MIN}, {QP_MAX}] "
                             f"at frame {self.frame_idx} block ({self.mb_x},{self.mb_y})")
        if self.bits < 0:
            raise RangeError(f"negative bit count at frame {self.frame_idx} "
                             f"block ({self.mb_x},{self.mb_y})")
        if self.block_type == "SKIP" and self.bits >= SKIP_BITS_CEILING:
            raise RangeError(f"skip block with {self.bits} bits at frame "
                             f"{self.frame_idx} block ({self.mb_x},{self.mb_y})")


def lambda_of_qp(qp: int | float) -> float:
    """Lagrange multiplier for a quantization parameter.

    Strictly decreasing in qp; qp must lie in [0, 51].
    """
    if not (QP_MIN <= qp <= QP_MAX):
        raise RangeError(f"qp {qp} outside [{QP_MIN}, {QP_MAX}]")
    return 0.852 ** ((qp - 12) / 3.0)


def lambda_grid(qp: np.ndarray) -> np.ndarray:
    """Vectorized lambda_of_qp over an integer grid."""
    qp = np.asarray(qp)
    if qp.size and (qp.min() < QP_MIN or qp.max() > QP_MAX):
        raise RangeError("qp grid has values outside [0, 51]")
    return 0.852 ** ((qp.astype(np.float64) - 12.0) / 3.0)


def lambda_rate(record: BlockRecord) -> float:
    """lambda * rate for one block, the decoder-visible cost surrogate."""
    return lambda_of_qp(record.qp) * record.bits


class FrameBlockMap:
    """Dense macroblock grid for one frame.

    Grids are indexed [mb_y, mb_x]. Construction rejects duplicate and
    missing positions so downstream code can rely on full coverage.
    """

    def __init__(self, frame_idx: int, grid_w: int, grid_h: int,
                 records: Sequence[BlockRecord]):
        if grid_w <= 0 or grid_h <= 0:
            raise SchemaError(f"macroblock grid must be positive, "
                              f"got {grid_w}x{grid_h}")
        self.frame_idx = frame_idx
        self.grid_w = grid_w
        self.grid_h = grid_h
        self.qp = np.zeros((grid_h, grid_w), dtype=np.int64)
        self.bits = np.zeros((grid_h, grid_w), dtype=np.int64)
        self.type_code = np.full((grid_h, grid_w), -1, dtype=np.int8)
        for rec in records:
            rec.validate()
            if rec.frame_idx != frame_idx:
                raise SchemaError(f"record for frame {rec.frame_idx} "
                                  f"given to map of frame {frame_idx}")
            if not (0 <= rec.mb_x < grid_w and 0 <= rec.mb_y < grid_h):
                raise SchemaError(f"block ({rec.mb_x},{rec.mb_y}) outside "
                                  f"{grid_w}x{grid_h} grid in frame {frame_idx}")
            if self.type_code[rec.mb_y, rec.mb_x] != -1:
                raise SchemaError(f"duplicate block (frame {frame_idx}, "
                                  f"{rec.mb_x}, {rec.mb_y})")
            self.type_code[rec.mb_y, rec.mb_x] = BLOCK_TYPES.index(rec.block_type)
            self.qp[rec.mb_y, rec.mb_x] = rec.qp
            self.bits[rec.mb_y, rec.mb_x] = rec.bits
        gap = np.argwhere(self.type_code < 0)
        if gap.size:
            y, x = gap[0]
            raise CoverageGap(f"no record for (frame {frame_idx}, {x}, {y})")

    @property
    def skip(self) -> np.ndarray:
        """Boolean grid, True where the block is a SKIP."""
        return self.type_code == BLOCK_TYPES.index("SKIP")

    @property
    def lambda_rate(self) -> np.ndarray:
        """lambda * bits per block."""
        return lambda_grid(self.qp) * self.bits.astype(np.float64)

    def block_type(self, mb_x: int, mb_y: int) -> str:
        return BLOCK_TYPES[self.type_code[mb_y, mb_x]]

    def records(self) -> list[BlockRecord]:
        out = []
        for y in range(self.grid_h):
            for x in range(self.grid_w):
                out.append(BlockRecord(self.frame_idx, x, y,
                                       BLOCK_TYPES[self.type_code[y, x]],
                                       int(self.qp[y, x]), int(self.bits[y, x])))
        return out


@dataclass
class TraceFile:
    """Whole-video trace: pixel geometry plus every block record."""
    width: int
    height: int
    frame_count: int
    records: list[BlockRecord]

    @property
    def grid_w(self) -> int:
        return self.width // MACROBLOCK

    @property
    def grid_h(self) -> int:
        return self.height // MACROBLOCK

    def frames(self) -> list[FrameBlockMap]:
        """Split records into per-frame dense maps, validating coverage."""
        buckets: list[list[BlockRecord]] = [[] for _ in range(self.frame_count)]
        for rec in self.records:
            if not (0 <= rec.frame_idx < self.frame_count):
                raise SchemaError(f"record frame {rec.frame_idx} outside "
                                  f"0..{self.frame_count - 1}")
            buckets[rec.frame_idx].append(rec)
        return [FrameBlockMap(i, self.grid_w, self.grid_h, b)
                for i, b in enumerate(buckets)]


def skipped_block_rate(frames: Iterable[FrameBlockMap]) -> float:
    """Fraction of blocks that are SKIP across the given frames."""
    total = 0
    skipped = 0
    for fmap in frames:
        total += fmap.type_code.size
        skipped += int(fmap.skip.sum())
    if total == 0:
        raise EmptyInput("skip rate over zero blocks")
    return skipped / total


def bits_per_pixel(trace: TraceFile) -> float:
    """Total coded bits divided by total pixels of the video."""
    pixels = trace.width * trace.height * trace.frame_count
    if pixels == 0:
        raise EmptyInput("bits per pixel of an empty video")
    return sum(r.bits for r in trace.records) / pixels
