"""
Sensor fingerprint estimation by maximum-likelihood aggregation.

Each frame contributes its luma-weighted noise residual to a streaming
numerator and an intensity-energy denominator:

    K = sum_i(I_i * W_i * M_i) / sum_i(I_i^2 * M_i)

where M_i is the per-pixel weighting mask (codec-metadata-driven) times the
saturation mask. Pixels whose denominator never clears a floor carry no
evidence and are dropped from the support.

A `Video` is the luma I of a decoded video as one checked (frames, H, W)
uint8 stack, plus its block trace; a `.yuv` stack from `read_yuv420` is
read a run of planes at a time as it is used. `residual_extractor` reads
each plane once and streams it in frame order with its residual W, a
float64 (H, W) array, as one (luma, residual) pair into
`stream_fingerprints`, which feeds one accumulator per weighting scheme
in lockstep. A video is extracted a run of frames at a time, by the
calling thread and `workers` - 1 helper threads (`_spreader`): each thread
takes a stacked part of frames smaller than TASK_PIXELS, and a larger
frame is a run of its own, whose strips of rows are shared among the
threads. No caller holds a video's residuals or luma at once, nor one
run's while the next is extracted. Nothing is forked, and no residual
is pickled.

Apart from those residuals and a copy of each frame's luma, made once for
every scheme, a frame is added one strip of rows at a time. `finalize`
then turns each scheme's sums into its fingerprint in place.
"""
from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (AllMaskedOut, BlockPrnuError, ConfigError,
                     DimensionMismatch, EmptyAccumulator, InsufficientData,
                     RangeError, SchemaError, decode_text)
from .noise import DenoiseConfig, YuvLuma, extract_residual, unsaturated
from .trace import MACROBLOCK, QP_MAX, QP_MIN, TraceFile
from .weighting import SCHEMES, SchemeConfig, build_mask, paint_blocks

_MAGIC = b"BPFP\x01"
DENOMINATOR_FLOOR_SCALE = 1e-3
# a part of a video, a stack of frames that one thread extracts, has about
# this many pixels (at 128x128 one part per frame lost 14% of a
# calibrate-and-evaluate pass to task overhead); a larger frame is a run
# of its own, its strips of rows spread over the threads, since whole
# 720p frames in flight on two threads raised a command's peak RSS by
# more than half
TASK_PIXELS = 1 << 18
# a frame is added in strips of whole macroblock rows of about this many
# pixels (a 128x128 frame is one strip, a 720p strip is 16 rows), so no
# frame-sized temporary is made per frame
STRIP_PIXELS = 1 << 14


def _strips(height: int, width: int) -> list[slice]:
    """Row slices of about STRIP_PIXELS pixels, each starting on a
    macroblock row, that cover a frame."""
    step = max(1, STRIP_PIXELS // (max(width, 1) * MACROBLOCK)) * MACROBLOCK
    return [slice(r, min(r + step, height)) for r in range(0, height, step)]


@dataclass
class Fingerprint:
    """Finalized sensor pattern estimate plus its valid-pixel support.

    `k_values` is float64 as `finalize` makes it, and float32, exactly as
    stored, when `read_fingerprint` reads it from a file; `support` is a
    bool plane of the same shape."""
    k_values: np.ndarray
    support: np.ndarray
    source_id: str = ""

    @property
    def shape(self) -> tuple[int, int]:
        return self.k_values.shape


class FingerprintAccumulator:
    """Streaming sums for the aggregation ratio, fed in frame order
    until `finalize` turns them into a fingerprint and spends them."""

    def __init__(self, height: int, width: int):
        if height <= 0 or width <= 0:
            raise ConfigError(f"accumulator needs a positive shape, "
                              f"got {height}x{width}")
        self.numerator = np.zeros((height, width), dtype=np.float64)
        self.denominator = np.zeros((height, width), dtype=np.float64)
        self.frames_ingested = 0
        self.spent = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.numerator.shape

    def accumulate(self, luma: np.ndarray, residual: np.ndarray,
                   mask: np.ndarray | Callable[[slice], np.ndarray],
                   peers: Sequence[tuple] = ()) -> None:
        """Add one frame: numerator += luma * residual * mask and
        denominator += luma * luma * mask, one strip of rows at a time.

        `mask` is the frame's (H, W) weights, or a function giving the
        weights of a slice of rows. `peers` are (accumulator, mask) pairs
        fed the same frame, such as the other schemes of a video: each
        strip's luma * residual and luma * luma are computed once for all.
        """
        luma, residual = np.asarray(luma), np.asarray(residual)
        feeds = [(self, mask), *peers]
        checked = ([("residual", residual)]
                   + [("mask", m) for _, m in feeds if not callable(m)]
                   + [("picture", luma)]
                   + [("accumulator", acc) for acc, _ in peers])
        for name, arr in checked:
            if arr.shape != self.shape:
                raise DimensionMismatch(f"{name} shape {arr.shape} vs "
                                        f"accumulator {self.shape}")
        for acc, _ in feeds:
            _check_unspent(acc)
        for rows in _strips(*self.shape):
            strip = luma[rows].astype(np.float64)
            luma_residual = strip * residual[rows]
            luma_squared = np.multiply(strip, strip, out=strip)
            for acc, m in feeds:
                weights = m(rows) if callable(m) else m[rows]
                acc.numerator[rows] += luma_residual * weights
                acc.denominator[rows] += luma_squared * weights
        for acc, _ in feeds:
            acc.frames_ingested += 1


def finalize(acc: FingerprintAccumulator,
             denominator_floor: float | None = None,
             normalize: bool = True,
             source_id: str = "") -> Fingerprint:
    """Turn accumulated sums into a fingerprint, in place: the numerator
    becomes its values and the denominator scratch, so the accumulator is
    spent, and a later `finalize` or `accumulate` on it raises. Every value
    is computed as by ``k[support] = numerator[support] /
    denominator[support]``, then ``k[support] -= k[support].mean()`` and
    ``k /= sqrt((k * k).sum())``.

    :param denominator_floor: pixels whose denominator is below this are
        excluded from the support; by default 1e-3 times the mean of the
        nonzero denominator entries
    :param normalize: zero-mean the estimate over its support and scale it
        to unit energy (relative weighting is all that matters downstream)
    """
    _check_unspent(acc)
    if acc.frames_ingested == 0:
        raise EmptyAccumulator("finalize before any frame was accumulated")
    k, den = acc.numerator, acc.denominator
    if denominator_floor is None:
        nonzero = den[den > 0]
        if nonzero.size == 0:
            raise AllMaskedOut("denominator is zero everywhere")
        denominator_floor = DENOMINATOR_FLOOR_SCALE * float(nonzero.mean())
        del nonzero
    check_floor(denominator_floor)
    support = den >= denominator_floor
    if not support.any():
        raise AllMaskedOut("no pixel cleared the denominator floor")
    acc.spent = True
    np.divide(k, den, out=k, where=support)
    np.copyto(k, 0.0, where=~support)
    if normalize:
        np.subtract(k, k[support].mean(), out=k, where=support)
        energy = float(np.sqrt(np.multiply(k, k, out=den).sum()))
        if energy > 0:
            k /= energy
    return Fingerprint(k_values=k, support=support, source_id=source_id)


def check_floor(denominator_floor: float | None) -> None:
    """ConfigError unless the floor is None, for the default, or positive."""
    if denominator_floor is not None and not denominator_floor > 0:
        raise ConfigError(f"denominator floor must be positive, "
                          f"got {denominator_floor}")


def _check_unspent(acc: FingerprintAccumulator) -> None:
    if acc.spent:
        raise BlockPrnuError("accumulator already finalized; its sums are "
                             "now a fingerprint's values")


# ---------------------------------------------------------------------------
# binary fingerprint files
# ---------------------------------------------------------------------------

def write_fingerprint(fp: Fingerprint, path: str | Path) -> None:
    """magic, width, height, source id, float32 K row-major, packed support.
    A print read by `read_fingerprint` is written without a copy of K."""
    sid = fp.source_id.encode("utf-8")
    h, w = fp.shape
    with open(path, "wb") as f:
        f.write(_MAGIC + struct.pack("<III", w, h, len(sid)) + sid)
        f.write(np.ascontiguousarray(fp.k_values, dtype="<f4"))
        f.write(np.packbits(fp.support))


def read_fingerprint(path: str | Path) -> Fingerprint:
    """The print in a file from `write_fingerprint`. K is read straight
    into the float32 array returned, with exactly the values stored, and
    the support is unpacked once; the file is never held whole."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(len(_MAGIC) + 12)
        if head[:len(_MAGIC)] != _MAGIC:
            raise SchemaError(f"{path}: not a fingerprint file")
        off = len(_MAGIC)
        if len(head) < off + 12:
            raise SchemaError(f"{path}: truncated header")
        w, h, sid_len = struct.unpack_from("<III", head, off)
        off += 12
        if size < off + sid_len:
            raise SchemaError(f"{path}: truncated source id")
        sid = decode_text(f.read(sid_len), f"{path}: source id")
        off += sid_len
        n = w * h
        if n == 0:
            raise SchemaError(f"{path}: empty fingerprint")
        if size < off + 4 * n:
            raise SchemaError(f"{path}: truncated sample data")
        off += 4 * n
        packed_len = (n + 7) // 8
        if size != off + packed_len:
            raise SchemaError(f"{path}: support bitmap size mismatch")
        k = np.empty((h, w), dtype="<f4")
        if f.readinto(k) != 4 * n:
            raise SchemaError(f"{path}: truncated sample data")
        packed = np.frombuffer(f.read(packed_len), dtype=np.uint8)
    if packed.size != packed_len:
        raise SchemaError(f"{path}: support bitmap size mismatch")
    support = np.unpackbits(packed, count=n).view(bool).reshape(h, w)
    return Fingerprint(k_values=k, support=support, source_id=sid)


# ---------------------------------------------------------------------------
# end-to-end estimation pipeline
# ---------------------------------------------------------------------------

def resolve_workers(value: int | None = None) -> int:
    """Worker count: an explicit value, else BLOCKPRNU_WORKERS, else the
    CPUs this process may run on, and never more than those CPUs. Those
    are the CPUs of its affinity mask under taskset or a cpuset, not the
    host's; sched_getaffinity is missing on macOS and Windows."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if value is None:
        env = os.environ.get("BLOCKPRNU_WORKERS")
        if not env:
            return cpus
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"BLOCKPRNU_WORKERS={env!r} is not an integer") from exc
        if value < 1:
            raise ConfigError("BLOCKPRNU_WORKERS must be at least 1")
    elif value < 1:
        raise ConfigError("workers must be at least 1")
    return min(value, cpus)


@dataclass(frozen=True, eq=False)
class Video:
    """A decoded video: its luma as a (frames, H, W) uint8 stack, not
    copied if it already is one and not read if it is a `YuvLuma`, the
    block trace of those frames, its camera and id, and the QP of a
    fixed-QP encode. Every rule on one video is checked when it is built,
    and nowhere else."""
    pictures: np.ndarray | YuvLuma
    trace: TraceFile | None = None
    camera_id: str = ""
    video_id: str = ""
    qp: int | None = None

    def __post_init__(self):
        pictures = _stack(self.pictures)
        if not pictures.size:
            raise EmptyAccumulator("no pictures to estimate from")
        if pictures.ndim != 3:
            raise DimensionMismatch(f"luma must be a (frames, H, W) stack, "
                                    f"got {pictures.ndim}-D")
        if pictures.dtype != np.uint8:
            raise ConfigError(f"luma must be uint8, got {pictures.dtype}")
        frames, h, w = pictures.shape
        trace = self.trace
        if trace is not None and trace.frame_count != frames:
            raise DimensionMismatch(f"{frames} pictures vs "
                                    f"{trace.frame_count} trace frames")
        if trace is not None and (trace.height, trace.width) != (h, w):
            raise DimensionMismatch(f"{w}x{h} pictures vs "
                                    f"{trace.width}x{trace.height} trace")
        if self.qp is not None and not QP_MIN <= self.qp <= QP_MAX:
            raise RangeError(f"fixed qp {self.qp} of camera {self.camera_id} "
                             f"outside [{QP_MIN}, {QP_MAX}]")
        object.__setattr__(self, "pictures", pictures)


def _stack(pictures) -> np.ndarray | YuvLuma:
    """A luma stack as an array, or as the `YuvLuma` it is, unread."""
    return pictures if isinstance(pictures, YuvLuma) else np.asarray(pictures)


def require_inputs(videos: Sequence[Video], references: dict[str, Fingerprint],
                   traced: bool) -> None:
    """InsufficientData for the first video without its camera's reference
    or, if `traced`, a trace; checked before any residual is extracted."""
    for video in videos:
        if video.camera_id not in references:
            raise InsufficientData(f"no reference fingerprint for camera "
                                   f"{video.camera_id}")
        if traced and video.trace is None:
            name = video.video_id or f"of camera {video.camera_id}"
            raise InsufficientData(f"video {name} has no trace")


def _spread(pool: ThreadPoolExecutor, helpers: int, fn, items: list) -> list:
    """[fn(item) for item in items], computed by the calling thread and by
    `helpers` tasks on `pool`, each taking the next item left until none
    is. The caller works rather than waits, and no task waits on another;
    a pool of max(1, helpers) threads then never starts more than
    `helpers`."""
    results = [None] * len(items)
    left = iter(range(len(items)))      # next() on it is atomic (GIL)

    def run():
        for i in left:
            results[i] = fn(items[i])
    tasks = [pool.submit(run) for _ in range(min(helpers, len(items) - 1))]
    try:
        run()
    finally:
        wait(tasks)
    for task in tasks:
        task.result()
    return results


@contextmanager
def _spreader(workers: int):
    """Yield ``spread(fn, items)``, which is ``[fn(item) for item in
    items]`` computed by the calling thread and `workers` - 1 helpers
    (`_spread`): the package's one way to share work among threads. One
    pool serves every call made inside the with block; it starts at most
    `workers` - 1 threads, none at one worker, and joins them on exit."""
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        yield partial(_spread, pool, workers - 1)


@contextmanager
def residual_extractor(denoise_config: DenoiseConfig = DenoiseConfig(),
                       workers: int = 1):
    """Yield ``extract(pictures)``: an iterator over one (luma, residual)
    pair per (H, W) plane of a luma stack, in frame order. Each plane is
    read once, and its residual computed as it is read.

    `workers` is capped at the usable CPUs by `resolve_workers`. One
    `_spreader` serves every call made inside the with block, and a video
    is extracted a run at a time, the calling thread working beside
    `workers` - 1 helper threads, none at one worker:

    - A part is a (k, H, W) stack of frames of about TASK_PIXELS pixels,
      at most ceil(frames / workers) frames and at least one.
    - A run is `workers` consecutive parts, each extracted on one thread;
      a frame of TASK_PIXELS or more is a run of its own, and the strips
      of rows of each of its wavelet stages are shared among the threads.
    - A run's pairs are yielded, and all its residuals let go, before the
      next run is read.

    Nothing is forked or pickled, and at most one run of residuals is
    alive. Residuals are the same for any worker count.
    """
    workers = resolve_workers(workers)
    with _spreader(workers) as spread:
        def pairs(planes, size: int):
            parts = [planes[i:i + size] for i in range(0, len(planes), size)]
            # a lone part shares its strips; parts of a run do not, so no
            # helper waits on the pool it runs on
            job = partial(extract_residual, config=denoise_config,
                          spread=spread if len(parts) == 1 else None)
            for part, residuals in zip(parts, spread(job, parts)):
                yield from zip(part, residuals)

        def extract(pictures):
            pictures = _stack(pictures)
            frames, h, w = pictures.shape
            size = max(1, min(TASK_PIXELS // max(h * w, 1),
                              -(-frames // workers)))
            run = size * workers if h * w < TASK_PIXELS else 1
            for start in range(0, frames, run):
                # a run is bound only in the frame of `pairs`, which ends
                # with its last pair, so none of it is held while the next
                # run is read
                yield from pairs(pictures[start:start + run], size)
        yield extract


def _painted(block_weights: np.ndarray, width: int, rows: slice) -> np.ndarray:
    """A frame's block weights painted over a strip of its rows."""
    blocks = block_weights[rows.start // MACROBLOCK:-(-rows.stop // MACROBLOCK)]
    return paint_blocks(blocks, (rows.stop - rows.start, width))


def stream_fingerprints(video: Video, schemes: Sequence[SchemeConfig],
                        frames: Iterable[tuple[np.ndarray, np.ndarray]],
                        denominator_floor: float | None = None,
                        source_id: str = ""
                        ) -> list[Fingerprint | BlockPrnuError]:
    """One Fingerprint or error per scheme from a video's (luma, residual)
    pairs, read once in frame order into one accumulator per scheme; a
    DimensionMismatch unless there is one pair per frame of the video,
    of which only the shape is read.

    A floor that is not positive (ConfigError) and every scheme's block
    weights are checked before the first pair is read, and none is read if
    no scheme can use them; without a trace every block weighs 1, which
    only the schemes that ignore block metadata can use. A frame's
    saturated luma is zeroed once, in a copy, which takes those pixels out
    of both sums as a weight of 0 would. Each frame enters every
    accumulator through one `accumulate` call, a strip of rows at a time.
    """
    check_floor(denominator_floor)
    trace, (length, h, w) = video.trace, video.pictures.shape
    ones = np.broadcast_to(1.0, (length, -(-h // MACROBLOCK),
                                 -(-w // MACROBLOCK)))
    feeds: list = []    # (accumulator, block weights) or error per scheme
    for scheme in schemes:
        rule = SCHEMES[scheme.scheme]
        try:
            if trace is None and (rule.lookup or rule.zero_skip):
                raise DimensionMismatch(f"scheme {scheme.scheme} needs a trace")
            weights = ones if trace is None else build_mask(trace, scheme)
            feeds.append((FingerprintAccumulator(h, w), weights))
        except BlockPrnuError as exc:
            feeds.append(exc)
    live = [feed for feed in feeds if not isinstance(feed, BlockPrnuError)]
    if not live:
        return feeds
    frames = iter(frames)
    count = 0
    for luma, residual in islice(frames, length):
        luma = np.where(unsaturated(luma), luma, 0)
        masks = [(acc, partial(_painted, weights[count], w))
                 for acc, weights in live]
        acc, mask = masks[0]
        acc.accumulate(luma, residual, mask, masks[1:])
        count += 1
        # none of this frame is held while the next one is extracted
        del luma, residual, masks, acc, mask
    if count < length or next(frames, None) is not None:
        raise DimensionMismatch(f"{length} pictures vs "
                                f"{count if count < length else 'more'} residuals")
    for i, feed in enumerate(feeds):
        try:
            if not isinstance(feed, BlockPrnuError):
                feeds[i] = finalize(feed[0], denominator_floor=denominator_floor,
                                    source_id=source_id)
        except BlockPrnuError as exc:
            feeds[i] = exc
    return feeds


def estimate_fingerprint(pictures: np.ndarray | YuvLuma,
                         trace: TraceFile | None,
                         scheme: SchemeConfig,
                         denoise_config: DenoiseConfig = DenoiseConfig(),
                         denominator_floor: float | None = None,
                         source_id: str = "",
                         workers: int = 1) -> Fingerprint:
    """Estimate one fingerprint from a (frames, H, W) uint8 luma stack
    and its trace: `stream_fingerprints` of their `Video` with one scheme,
    whose error is raised. Everything is checked before any residual is
    extracted, and the result is identical for any worker count.
    """
    video = Video(pictures, trace)
    with residual_extractor(denoise_config, workers) as extract:
        [fp] = stream_fingerprints(video, [scheme], extract(video.pictures),
                                   denominator_floor, source_id)
    if isinstance(fp, BlockPrnuError):
        raise fp
    return fp
