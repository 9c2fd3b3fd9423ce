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

The grid rule lives here: other modules reach a plane's blocks through
`blocks` or `block_canvas`. Building a trace costs memory by the blocks
given, however large a grid its header claims.

Trace text is read here a chunk of lines at a time: an odd row costs its chunk.
"""
from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import partial
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
_INT64 = np.iinfo(np.int64)


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
        """As the trace loader reads them, a value beyond int64 is clamped
        into it, which keeps it out of range for every check, and a bit
        count beyond it is stored as -1, so that its record's check fails."""
        codes = {t: i for i, t in enumerate(BLOCK_TYPES)}
        rows = [(r.frame_idx, r.mb_x, r.mb_y, codes.get(r.block_type, -1),
                 r.qp, -1 if r.bits >= BITS_LIMIT else r.bits) for r in records]
        table = np.array(rows, dtype=object).reshape(-1, 6)
        return cls(*np.clip(table, _INT64.min, _INT64.max).astype(np.int64).T)

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
        if count * cells > _INT64.max:     # a position's key would wrap
            raise SchemaError(f"trace header claims {count} frames of {grid_w}x"
                              f"{grid_h} macroblocks, more than int64 positions")
        outside = ((self.x < 0) | (self.x >= grid_w)
                   | (self.y < 0) | (self.y >= grid_h))
        key = np.where(outside, -1, (self.frame * grid_h + self.y) * grid_w + self.x)
        order = np.argsort(key, kind="stable")
        ranked = key[order]
        repeat = np.zeros(key.size, dtype=bool)
        repeat[order[1:]] = (ranked[1:] == ranked[:-1]) & (ranked[1:] >= 0)
        wrong = outside | repeat
        # the first empty position is the first value the distinct keys skip
        taken = ranked[(ranked >= 0) & ~repeat[order]]
        skips = np.flatnonzero(taken != np.arange(taken.size))
        gap = int(skips[0]) if skips.size else taken.size
        if wrong.any() or gap < count * cells:
            wrong_frame = self.frame[wrong].min() if wrong.any() else count
            if gap == count * cells or wrong_frame <= gap // cells:
                i = int(np.argmax(wrong & (self.frame == wrong_frame)))
                rec = record(i)
                if outside[i]:
                    raise SchemaError(f"block ({rec.mb_x},{rec.mb_y}) outside "
                                      f"{grid_w}x{grid_h} grid in frame {rec.frame_idx}")
                raise SchemaError(f"duplicate block (frame {rec.frame_idx}, "
                                  f"{rec.mb_x}, {rec.mb_y})")
            f, (y, x) = gap // cells, divmod(gap % cells, grid_w)
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


def blocks(a: np.ndarray, size: int = MACROBLOCK) -> np.ndarray:
    """The (..., H/size, W/size, size, size) view of the blocks of a's last
    two axes, whose lengths size must divide; writing to it writes to a."""
    *lead, h, w = a.shape
    return a.reshape(*lead, h // size, size, w // size, size).swapaxes(-3, -2)


def block_canvas(shape: tuple[int, ...],
                 grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Views of one zero float64 canvas that covers both a (..., H, W)
    `shape` and a (grid_h, grid_w) macroblock grid: the frames, and the
    grid's `blocks`. The frames do not show a ceil-sized grid's padding,
    and their pixels beyond a floor-sized grid lie in no block."""
    *lead, h, w = shape
    gh, gw = grid[0] * MACROBLOCK, grid[1] * MACROBLOCK
    canvas = np.zeros((*lead, max(h, gh), max(w, gw)))
    return canvas[..., :h, :w], blocks(canvas[..., :gh, :gw])


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


# ---------------------------------------------------------------------------
# trace text format
# ---------------------------------------------------------------------------

_TRACE_HEADER = re.compile(r"^#w=(\d+) h=(\d+) mb=(\d+) frames=(\d+)$")
# 5 characters hold every type name; a longer token, cut to 5, still matches none
_TRACE_ROW = np.dtype([("frame", np.int64), ("x", np.int64), ("y", np.int64),
                       ("type", "U5"), ("qp", np.int64), ("bits", np.int64)])
_CHUNK_ROWS = 1 << 13   # lines per chunk: a row numpy rejects costs its chunk


def _row_record(lineno: int, line: str) -> BlockRecord:
    """One trace row as a record, unchecked; raises SchemaError when it
    does not have six fields or an integer field is not an integer."""
    parts = line.split(",")
    if len(parts) != 6:
        raise SchemaError(f"line {lineno}: expected 6 fields, got {len(parts)}")
    try:
        return BlockRecord(frame_idx=int(parts[0]), mb_x=int(parts[1]),
                           mb_y=int(parts[2]), block_type=parts[3],
                           qp=int(parts[4]), bits=int(parts[5]))
    except ValueError as exc:
        raise SchemaError(f"line {lineno}: {exc}") from exc


def _nth_row(lines: list[str], i: int) -> BlockRecord:
    """Row i of the trace body, blank lines skipped, read again for a message."""
    n = [j for j in range(1, len(lines)) if lines[j].strip()][i]
    return _row_record(n + 1, lines[n])


def _numpy_reads(text: str) -> bool:
    r"""No NUL (numpy cuts it), \x1f (a space to numpy) or non-ASCII (a crash)."""
    return text.isascii() and "\0" not in text and "\x1f" not in text


def _chunk_columns(lines: list[str],
                   start: int) -> tuple[BlockColumns, SchemaError | None]:
    """Rows of the `_CHUNK_ROWS` lines from lines[start] on, blank lines
    skipped: by numpy when the chunk's text passes `_numpy_reads` and numpy
    neither rejects nor warns; else one by one up to the first unreadable
    row, whose error comes back with the rows before it."""
    chunk = lines[start:start + _CHUNK_ROWS]
    if _numpy_reads("\n".join(chunk)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(chunk, dtype=_TRACE_ROW, delimiter=",",
                                   comments=None, ndmin=1)
        except (ValueError, Warning):
            pass
        else:
            code = np.select([table["type"] == name for name in BLOCK_TYPES],
                             range(len(BLOCK_TYPES)), -1)
            return BlockColumns(table["frame"], table["x"], table["y"], code,
                                table["qp"], table["bits"]), None
    records = []
    for lineno, line in enumerate(chunk, start + 1):
        if line.strip():
            try:
                records.append(_row_record(lineno, line))
            except SchemaError as exc:
                return BlockColumns.of_records(records), exc
    return BlockColumns.of_records(records), None


def load_trace_text(text: str) -> TraceFile:
    """Parse and fully validate trace text.

    Blank lines are skipped and rows may come in any order. Errors name the
    first faulty row in file order, then the first faulty frame.
    """
    lines = text.splitlines()
    if not lines:
        raise SchemaError("empty trace")
    m = _TRACE_HEADER.match(lines[0])
    if not m:
        raise SchemaError(f"bad trace header: {lines[0]!r}")
    width, height, mb, frame_count = (int(g) for g in m.groups())
    if mb != 16:
        raise SchemaError(f"unsupported macroblock size {mb}")
    if width < 16 or height < 16:
        raise SchemaError("trace smaller than one macroblock")
    record = partial(_nth_row, lines)
    cols, rows = np.empty((6, len(lines) - 1), dtype=np.int64), 0
    for start in range(1, len(lines), _CHUNK_ROWS):
        part, error = _chunk_columns(lines, start)
        cols[:, rows:rows + part.qp.size] = part
        rows += part.qp.size
        if error:   # the rows before it are checked first
            BlockColumns(*cols[:, :rows]).check(record)
            raise error
    trace = TraceFile.__new__(TraceFile)
    trace._lay_out(width, height, frame_count, BlockColumns(*cols[:, :rows]), record)
    return trace


def serialize_trace(tf: TraceFile) -> str:
    """Canonical text form: header, then blocks in (frame, y, x) order."""
    frame, y, x = (a.ravel().tolist() for a in np.indices(tf.type_code.shape))
    rows = map("{},{},{},{},{},{}".format, frame, x, y,
               np.array(BLOCK_TYPES)[tf.type_code.ravel()].tolist(),
               tf.qp.ravel().tolist(), tf.bits.ravel().tolist())
    header = f"#w={tf.width} h={tf.height} mb=16 frames={tf.frame_count}"
    return "\n".join([header, *rows]) + "\n"
