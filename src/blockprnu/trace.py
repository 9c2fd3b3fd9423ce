"""
Block-level coding metadata and the scalar quantities derived from it.

A trace is the per-macroblock view of one coded video: for every frame and
every 16x16 grid position there is exactly one block carrying its type
(I, P, B or SKIP), the quantization parameter and the bits spent. SKIP
blocks carry the QP inherited from their reference block and only the few
signaling bits actually emitted.

A `TraceFile` keeps the blocks as three (frames, grid_h, grid_w) arrays,
and every consumer reads them, or the `skip` and `lambda_rate` stacks
derived from them, a whole video at a time. `BlockRecord` lists convert to
and from them, for traces built by hand.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import CoverageGap, EmptyInput, RangeError, SchemaError

MACROBLOCK = 16
BLOCK_TYPES = ("I", "P", "B", "SKIP")
SKIP = BLOCK_TYPES.index("SKIP")
QP_MIN = 0
QP_MAX = 51
SKIP_BITS_CEILING = 64  # a skip block is signaling only; anything bigger is not a skip
BITS_LIMIT = 2 ** 63    # bit counts are stored as int64


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
        if self.bits >= BITS_LIMIT:
            raise RangeError(f"bit count {self.bits} does not fit 64 bits at "
                             f"frame {self.frame_idx} block ({self.mb_x},{self.mb_y})")


def lambda_grid(qp) -> np.ndarray:
    """Lagrange multiplier of each quantization parameter, strictly
    decreasing in qp; every qp must lie in [0, 51]."""
    qp = np.asarray(qp, dtype=np.float64)
    bad = ~((qp >= QP_MIN) & (qp <= QP_MAX))
    if bad.any():
        raise RangeError(f"qp {qp[bad].flat[0]:g} outside [{QP_MIN}, {QP_MAX}]")
    return 0.852 ** ((qp - 12.0) / 3.0)


def lambda_of_qp(qp: int | float) -> float:
    """lambda_grid of one quantization parameter."""
    return float(lambda_grid(qp))


class BlockColumns(NamedTuple):
    """Blocks in the order they were given, one int64 array per field.

    `code` indexes BLOCK_TYPES and is -1 for an unknown type. The checks
    below find the first defect with array passes; the message comes from
    a `record(i)` callable that gives block i as a BlockRecord, so it names
    the block as it was given.
    """
    frame: np.ndarray
    x: np.ndarray
    y: np.ndarray
    code: np.ndarray
    qp: np.ndarray
    bits: np.ndarray

    @classmethod
    def of_records(cls, records: Sequence[BlockRecord]) -> "BlockColumns":
        codes = {t: i for i, t in enumerate(BLOCK_TYPES)}
        rows = [(r.frame_idx, r.mb_x, r.mb_y, codes.get(r.block_type, -1),
                 r.qp, r.bits) for r in records]
        return cls(*np.array(rows, dtype=np.int64).reshape(-1, 6).T)

    @classmethod
    def of_arrays(cls, type_code, qp, bits) -> "BlockColumns":
        """Blocks of (frames, grid_h, grid_w) grids, in (frame, y, x) order."""
        f, y, x = np.indices(np.shape(qp)).reshape(3, -1)
        return cls(f, x, y, *(np.ravel(a).astype(np.int64)
                              for a in (type_code, qp, bits)))

    def check(self, record: Callable[[int], BlockRecord]) -> None:
        """Raise for the first block whose type, QP or bits is invalid."""
        bad = ((self.code < 0) | (self.code >= len(BLOCK_TYPES))
               | (self.qp < QP_MIN) | (self.qp > QP_MAX)
               | (self.bits < 0)
               | ((self.code == SKIP) & (self.bits >= SKIP_BITS_CEILING)))
        if bad.any():
            record(int(np.argmax(bad))).validate()

    def record(self, i: int) -> BlockRecord:
        """Block i as the columns hold it."""
        code = int(self.code[i])
        return BlockRecord(int(self.frame[i]), int(self.x[i]), int(self.y[i]),
                           BLOCK_TYPES[code] if 0 <= code < len(BLOCK_TYPES)
                           else f"code {code}", int(self.qp[i]), int(self.bits[i]))

    def lay_out(self, record: Callable[[int], BlockRecord], count: int,
                grid_w: int, grid_h: int) -> tuple[np.ndarray, ...]:
        """(type code, QP, bits) arrays of shape (count, grid_h, grid_w) for
        frames 0 .. count - 1, which every block lies in.

        Frames are checked in order. In the first faulty one, the first
        block outside the grid or on a position taken before it is raised;
        a frame without such a block but with an empty position raises
        CoverageGap for the first one in row-major order.
        """
        if grid_w <= 0 or grid_h <= 0:
            raise SchemaError(f"macroblock grid must be positive, "
                              f"got {grid_w}x{grid_h}")
        cells = grid_h * grid_w
        outside = ((self.x < 0) | (self.x >= grid_w)
                   | (self.y < 0) | (self.y >= grid_h))
        key = np.where(outside, -1, (self.frame * grid_h + self.y) * grid_w + self.x)
        order = np.argsort(key, kind="stable")
        ranked = key[order]
        repeat = np.zeros(key.size, dtype=bool)
        repeat[order[1:]] = (ranked[1:] == ranked[:-1]) & (ranked[1:] >= 0)
        wrong = outside | repeat
        # frames past the first one without blocks cannot hold the first
        # defect, so a header that claims many frames allocates nothing
        scanned = min(count, int(self.frame.max(initial=-1)) + 2)
        covered = np.zeros(scanned * cells, dtype=bool)
        covered[key[~outside]] = True
        gaps = np.flatnonzero(~covered)
        if wrong.any() or gaps.size:
            wrong_frame = self.frame[wrong].min() if wrong.any() else count
            if not gaps.size or wrong_frame <= gaps[0] // cells:
                i = int(np.argmax(wrong & (self.frame == wrong_frame)))
                rec = record(i)
                if outside[i]:
                    raise SchemaError(f"block ({rec.mb_x},{rec.mb_y}) outside "
                                      f"{grid_w}x{grid_h} grid in frame {rec.frame_idx}")
                raise SchemaError(f"duplicate block (frame {rec.frame_idx}, "
                                  f"{rec.mb_x}, {rec.mb_y})")
            f, y, x = np.unravel_index(gaps[0], (count, grid_h, grid_w))
            raise CoverageGap(f"no record for (frame {f}, {x}, {y})")
        arrays = []
        for values, dtype in ((self.code, np.int8), (self.qp, np.int64),
                              (self.bits, np.int64)):
            grid = np.empty(count * cells, dtype=dtype)
            grid[key] = values
            grid.flags.writeable = False
            arrays.append(grid.reshape(count, grid_h, grid_w))
        return tuple(arrays)


def _grid_extent(pixels: int, positions: np.ndarray) -> int:
    """Blocks along one axis: the whole blocks, plus the partial one at the
    edge when the blocks reach into it, as a decoder logs it (1080 rows
    give 68 macroblock rows)."""
    whole = pixels // MACROBLOCK
    if pixels % MACROBLOCK and positions.size and positions.max() >= whole:
        return whole + 1
    return whole


class TraceFile:
    """Whole-video trace: pixel geometry plus every block, as three
    read-only (frames, grid_h, grid_w) arrays: `type_code` (int8 index into
    BLOCK_TYPES), `qp` and `bits` (int64).

    The grid is floor-sized, or ceil-sized when the frame size is not a
    multiple of 16 and the blocks cover the partial ones; either way every
    frame must cover it completely. Blocks are checked, and copied into the
    arrays, when the trace is built, whether given as records or arrays.
    """

    def __init__(self, width: int, height: int, frame_count: int,
                 records: Iterable[BlockRecord] | None = None, *,
                 type_code: np.ndarray | None = None,
                 qp: np.ndarray | None = None, bits: np.ndarray | None = None):
        if records is None:
            cols = BlockColumns.of_arrays(type_code, qp, bits)
            self._lay_out(width, height, frame_count, cols, cols.record)
        else:
            records = list(records)
            self._lay_out(width, height, frame_count,
                          BlockColumns.of_records(records), records.__getitem__)

    @classmethod
    def from_columns(cls, width: int, height: int, frame_count: int,
                     cols: BlockColumns,
                     record: Callable[[int], BlockRecord]) -> "TraceFile":
        """Check blocks given in any order and lay them out."""
        trace = cls.__new__(cls)
        trace._lay_out(width, height, frame_count, cols, record)
        return trace

    def _lay_out(self, width: int, height: int, frame_count: int,
                 cols: BlockColumns, record: Callable[[int], BlockRecord]) -> None:
        self.width, self.height, self.frame_count = width, height, frame_count
        cols.check(record)
        stray = (cols.frame < 0) | (cols.frame >= frame_count)
        if stray.any():
            raise SchemaError(f"record frame {record(int(np.argmax(stray))).frame_idx} "
                              f"outside 0..{frame_count - 1}")
        self.type_code, self.qp, self.bits = cols.lay_out(
            record, frame_count, _grid_extent(width, cols.x),
            _grid_extent(height, cols.y))
        self.grid_h, self.grid_w = self.qp.shape[1:]

    @property
    def skip(self) -> np.ndarray:
        """True where the block is a SKIP."""
        return self.type_code == SKIP

    @property
    def lambda_rate(self) -> np.ndarray:
        """lambda * bits per block."""
        return lambda_grid(self.qp) * self.bits.astype(np.float64)

    @property
    def records(self) -> list[BlockRecord]:
        """The blocks as records, in (frame, mb_y, mb_x) order."""
        cols = BlockColumns.of_arrays(self.type_code, self.qp, self.bits)
        return [cols.record(i) for i in range(cols.qp.size)]


def skipped_block_rate(trace: TraceFile) -> float:
    """Fraction of the trace's blocks that are SKIP."""
    if trace.type_code.size == 0:
        raise EmptyInput("skip rate over zero blocks")
    return int(trace.skip.sum()) / trace.type_code.size


def bits_per_pixel(trace: TraceFile) -> float:
    """Total coded bits divided by total pixels of the video."""
    pixels = trace.width * trace.height * trace.frame_count
    if pixels == 0:
        raise EmptyInput("bits per pixel of an empty video")
    # a block may hold up to 2**63 - 1 bits, so an int64 sum can wrap; the
    # high and low 32-bit halves sum apart without wrapping
    bits = trace.bits
    total = (int((bits >> 32).sum()) << 32) + int((bits & 0xFFFFFFFF).sum())
    return total / pixels
