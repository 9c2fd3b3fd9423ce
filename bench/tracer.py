"""
Span tracer for the traced benchmark run.

`install` wraps public functions of the blockprnu modules from outside the
program: every module attribute bound to a listed function is rebound to a
wrapper that records a span (name, start, end, parent span) and, for a few
functions, a count of the work it was handed. Pool workers forked from a
traced process inherit the wrappers; each process writes its own span file,
`spans-<pid>.json`, and `aggregate` merges them after the pass.

Nothing is wrapped unless `install` is called, which only a traced run
does.
"""
from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import multiprocessing.util
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

TRACE_ENV = "BLOCKPRNU_BENCH_TRACE_DIR"

# (module, qualified name) of every traced function. A name missing from
# the module being measured is skipped, and its metrics read 0.
TARGETS = (
    ("cli", "main"),
    ("bitstream", "load_trace"),
    ("bitstream", "save_trace"),
    ("trace", "TraceFile.frames"),
    ("noise", "read_yuv420"),
    ("noise", "extract_residual"),
    ("noise", "wavedec2"),
    ("noise", "wiener_adaptive"),
    ("noise", "waverec2"),
    ("weighting", "build_mask"),
    ("prnu", "estimate_fingerprint"),
    ("prnu", "FingerprintAccumulator.accumulate"),
    ("prnu", "finalize"),
    ("prnu", "write_fingerprint"),
    ("prnu", "read_fingerprint"),
    ("matching", "pce"),
    ("matching", "batch_match"),
    ("calibration", "calibrate_qp"),
    ("calibration", "calibrate_lambda_rate"),
    ("calibration", "splice_by_lambda_rate"),
    ("evaluation", "run_grid"),
    ("simulator", "encode_sequence"),
    ("simulator", "simulate_capture"),
)

# Reported metric -> span name whose summed duration it is.
TIME_METRICS = {
    "bitstream.load_trace_s": "bitstream.load_trace",
    "trace.frames_s": "trace.TraceFile.frames",
    "noise.read_yuv_s": "noise.read_yuv420",
    "noise.extract_residual_s": "noise.extract_residual",
    "noise.wavedec2_s": "noise.wavedec2",
    "noise.wiener_s": "noise.wiener_adaptive",
    "noise.waverec2_s": "noise.waverec2",
    "weighting.build_mask_s": "weighting.build_mask",
    "prnu.estimate_s": "prnu.estimate_fingerprint",
    "prnu.accumulate_s": "prnu.FingerprintAccumulator.accumulate",
    "prnu.finalize_s": "prnu.finalize",
    "prnu.pool_wait_s": "prnu.pool_wait",
    "prnu.write_fingerprint_s": "prnu.write_fingerprint",
    "prnu.read_fingerprint_s": "prnu.read_fingerprint",
    "matching.pce_s": "matching.pce",
    "calibration.calibrate_qp_s": "calibration.calibrate_qp",
    "calibration.calibrate_lambda_rate_s": "calibration.calibrate_lambda_rate",
    "calibration.splice_s": "calibration.splice_by_lambda_rate",
    "evaluation.run_grid_s": "evaluation.run_grid",
}
# Metrics measured while the inputs are generated.
SETUP_TIME_METRICS = {
    "bitstream.save_trace_s": "bitstream.save_trace",
    "simulator.encode_sequence_s": "simulator.encode_sequence",
    "simulator.simulate_capture_s": "simulator.simulate_capture",
}
CALL_METRICS = {
    "cli.commands": "cli.main",
    "trace.frames_calls": "trace.TraceFile.frames",
    "noise.extract_residual_calls": "noise.extract_residual",
    "weighting.build_mask_calls": "weighting.build_mask",
    "matching.pce_calls": "matching.pce",
}
COUNT_METRICS = ("bitstream.trace_records", "prnu.pool_spawns",
                 "prnu.ipc_bytes", "matching.forward_ffts",
                 "evaluation.cells", "evaluation.cells_failed")
SETUP_COUNT_METRICS = ("simulator.encode_frames",)


class Tracer:
    """Spans and counters of one process, written out when it ends."""

    def __init__(self, out_dir: Path, role: str):
        self.out_dir = Path(out_dir)
        self._lock = threading.Lock()
        self._start(role)
        if role == "worker":        # a spawned pool worker
            multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    def _start(self, role: str) -> None:
        self.pid = os.getpid()
        self.role = role
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        # digest of (content, frame index) of every frame given to
        # extract_residual: the same frame of the same video, wherever it
        # is read again, counts once
        self.frames: list[str] = []

    def _check_fork(self) -> None:
        # A forked pool worker starts with a copy of its parent's buffers:
        # drop them and write this worker's own spans when it exits.
        if os.getpid() != self.pid:
            self._lock = threading.Lock()
            self._start("worker")
            multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    @contextmanager
    def span(self, name: str):
        self._check_fork()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self.stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self._check_fork()
        with self._lock:
            self.counts[name] += n

    def add_frame(self, digest: str) -> None:
        self._check_fork()
        self.frames.append(digest)

    def flush(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        record = {"pid": self.pid, "role": self.role, "spans": self.spans,
                  "counts": dict(self.counts), "frames": self.frames}
        (self.out_dir / f"spans-{self.pid}.json").write_text(json.dumps(record))


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _nbytes(obj, depth: int = 0) -> int:
    """Array bytes reachable from obj: what pickling it sends at least."""
    import numpy as np
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if depth > 4:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(x, depth + 1) for x in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(x, depth + 1) for x in obj.values())
    if hasattr(obj, "__dict__"):
        return sum(_nbytes(x, depth + 1) for x in vars(obj).values())
    return 0


def _frame_digest(tracer: Tracer, args, kwargs) -> None:
    picture = args[0] if args else kwargs.get("picture")
    luma = getattr(picture, "luma", None)
    if luma is not None:
        digest = hashlib.blake2b(luma.tobytes(), digest_size=16)
        digest.update(str(getattr(picture, "frame_idx", "")).encode())
        tracer.add_frame(digest.hexdigest())


def _trace_records(tracer: Tracer, args, kwargs, trace) -> None:
    tracer.count("bitstream.trace_records",
                 trace.frame_count * (trace.width // 16) * (trace.height // 16))


def _grid_cells(tracer: Tracer, args, kwargs, grid) -> None:
    tracer.count("evaluation.cells", len(grid.cells))
    tracer.count("evaluation.cells_failed",
                 sum(isinstance(c, Exception) for c in grid.cells.values()))


def _encode_frames(tracer: Tracer, args, kwargs) -> None:
    frames = args[0] if args else kwargs.get("frames")
    tracer.count("simulator.encode_frames", len(frames))


BEFORE = {"noise.extract_residual": _frame_digest,
          "simulator.encode_sequence": _encode_frames}
AFTER = {"bitstream.load_trace": _trace_records,
         "evaluation.run_grid": _grid_cells}


def _wrap(tracer: Tracer, name: str, fn):
    before, after = BEFORE.get(name), AFTER.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result
    return traced


def _traced_pool(tracer: Tracer, base: type) -> type:
    """The pool class with spawns counted, time spent in pool calls
    recorded as prnu.pool_wait, and array bytes crossing the process
    boundary added up (computed from array sizes, not measured)."""

    def _count_result(future) -> None:
        if future.exception() is None:
            tracer.count("prnu.ipc_bytes", _nbytes(future.result()))

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            tracer.count("prnu.pool_spawns")
            with tracer.span("prnu.pool_wait"):
                super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            tracer.count("prnu.ipc_bytes", _nbytes(args) + _nbytes(kwargs))
            future = super().submit(fn, *args, **kwargs)
            future.add_done_callback(_count_result)
            return future

        def map(self, fn, *iterables, **kwargs):
            with tracer.span("prnu.pool_wait"):
                results = super().map(fn, *iterables, **kwargs)

            def drain():
                while True:
                    with tracer.span("prnu.pool_wait"):
                        try:
                            value = next(results)
                        except StopIteration:
                            return
                    yield value
            return drain()

        def shutdown(self, *args, **kwargs):
            with tracer.span("prnu.pool_wait"):
                super().shutdown(*args, **kwargs)

    TracedPool.__name__ = TracedPool.__qualname__ = base.__name__
    return TracedPool


class _CountingFft:
    """Stands in for the FFT module `matching` calls; counts forward 2-D
    transforms, one per plane."""
    FORWARD = ("fft2", "rfft2", "fftn", "rfftn")

    def __init__(self, tracer: Tracer, module):
        self._tracer = tracer
        self._module = module

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if name not in self.FORWARD:
            return attr

        def counted(x, *args, **kwargs):
            shape = getattr(x, "shape", ())
            planes = 1
            for extent in shape[:-2]:
                planes *= extent
            self._tracer.count("matching.forward_ffts", planes)
            return attr(x, *args, **kwargs)
        return counted


def install(out_dir: Path) -> Tracer:
    """Wrap the traced functions in every loaded blockprnu module and in
    the benchmark's own modules, so callers reach the wrappers however
    they imported the names."""
    import blockprnu
    import blockprnu.cli  # noqa: F401  (not imported by the package)
    role = "worker" if multiprocessing.parent_process() is not None else "main"
    tracer = Tracer(out_dir, role)
    bench_dir = str(Path(__file__).resolve().parent)
    holders = [m for n, m in list(sys.modules.items())
               if n == "blockprnu" or n.startswith("blockprnu.")
               or str(getattr(m, "__file__", "")).startswith(bench_dir)]
    for module_name, qualname in TARGETS:
        owner = sys.modules.get(f"blockprnu.{module_name}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            continue
        traced = _wrap(tracer, f"{module_name}.{qualname}", original)
        setattr(owner, attr, traced)
        if not path:
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)
    prnu = sys.modules["blockprnu.prnu"]
    if hasattr(prnu, "ProcessPoolExecutor"):
        prnu.ProcessPoolExecutor = _traced_pool(tracer,
                                                prnu.ProcessPoolExecutor)
    matching = sys.modules["blockprnu.matching"]
    if hasattr(matching, "sfft"):
        matching.sfft = _CountingFft(tracer, matching.sfft)
    return tracer


# ---------------------------------------------------------------------------
# merging span files
# ---------------------------------------------------------------------------

def load(trace_dir: Path) -> list[dict]:
    return [json.loads(p.read_text())
            for p in sorted(Path(trace_dir).glob("spans-*.json"))]


def aggregate(records: list[dict], time_metrics: dict, call_metrics: dict,
              count_metrics) -> dict:
    """Summed span durations over every process (pool workers included),
    call counts, and counters."""
    durations: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for rec in records:
        for name, start, end, _ in rec["spans"]:
            durations[name] += end - start
            calls[name] += 1
        for name, value in rec["counts"].items():
            counts[name] += value
    out = {m: durations[s] for m, s in time_metrics.items()}
    out.update({m: calls[s] for m, s in call_metrics.items()})
    out.update({m: int(counts[m]) for m in count_metrics})
    return out


def frame_reuse(records: list[dict]) -> tuple[int, int]:
    """(distinct frames, residual extractions) across every process."""
    digests = [d for rec in records for d in rec["frames"]]
    return len(set(digests)), len(digests)


def self_times(records: list[dict]) -> tuple[dict, float]:
    """Self time per layer in the processes that block the pass (not pool
    workers, whose time shows up as their parent's prnu.pool_wait), and
    the summed duration of those processes' root spans."""
    layers: dict[str, float] = defaultdict(float)
    roots = 0.0
    for rec in records:
        if rec["role"] != "main":
            continue
        spans = rec["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                roots += end - start
        for (name, start, end, _), inner in zip(spans, child_time):
            layers[name.split(".", 1)[0]] += (end - start) - inner
    return dict(layers), roots
