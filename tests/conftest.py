import os
import threading

import numpy as np
import pytest

from blockprnu import prnu
from blockprnu import (BlockRecord, CodecConfig, SensorModel, TraceFile,
                       encode_sequence, simulate_capture,
                       synthetic_clean_frames)


def grid_records(frame_idx, types, qp=20, bits=100):
    """Records for one frame from a nested list of block types.

    :param types: rows of "I"/"P"/"B"/"SKIP", indexed [mb_y][mb_x]
    """
    recs = []
    for y, row in enumerate(types):
        for x, t in enumerate(row):
            recs.append(BlockRecord(frame_idx, x, y, t, qp,
                                    1 if t == "SKIP" else bits))
    return recs


def uniform_trace(frame_count, grid_w, grid_h, block_type="P", qp=20, bits=100):
    recs = []
    for f in range(frame_count):
        for y in range(grid_h):
            for x in range(grid_w):
                recs.append(BlockRecord(f, x, y, block_type, qp,
                                        1 if block_type == "SKIP" else bits))
    return TraceFile(width=grid_w * 16, height=grid_h * 16,
                     frame_count=frame_count, records=recs)


@pytest.fixture(scope="session")
def moving_capture():
    """One simulated camera filming the moving-object scene, 64x64 x 12."""
    model = SensorModel.random(64, 64, k_strength=0.03, seed=11)
    clean = synthetic_clean_frames(64, 64, 12, seed=12)
    return model, simulate_capture(model, clean, seed=13)


@pytest.fixture(scope="session")
def rate_encode(moving_capture):
    """Rate-controlled encode of the session capture; has skips and QP drift."""
    _, captured = moving_capture
    result = encode_sequence(captured, CodecConfig(target_bits_per_frame=1500,
                                                   start_qp=34))
    return result


@pytest.fixture
def pool_spawns(monkeypatch):
    """Count the worker pools blockprnu creates during one test, with two
    CPUs visible, so that a pool of 2 is built on any host."""
    spawns = []

    class CountingPool(prnu.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            spawns.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(prnu, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    return spawns


class CountingFft:
    """Wraps the FFT module `matching` uses and counts forward transforms.
    The count is locked: `+=` on an attribute can lose a count between
    threads."""

    def __init__(self, module):
        self.module = module
        self.forward = 0
        self.lock = threading.Lock()

    def __getattr__(self, name):
        attr = getattr(self.module, name)
        if name not in ("fft2", "rfft2", "fftn", "rfftn"):
            return attr

        def counted(x, *args, **kwargs):
            with self.lock:
                self.forward += 1
            return attr(x, *args, **kwargs)
        return counted
