"""Checks that run the package in a fresh interpreter: validation under
`python -O`, and the demos that exercise matching."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


# Each case prints the type name of what it raised; `python -O` strips
# `assert`, so only a real check still raises there.
OPTIMIZED_CASES = """
import numpy as np
from blockprnu import Picture, SchemeConfig
from blockprnu.bitstream import BitWriter
from blockprnu.trace import BlockRecord, FrameBlockMap
from blockprnu.weighting import build_mask

scheme = SchemeConfig("conventional")
object.__setattr__(scheme, "scheme", "bogus")
cases = [
    lambda: Picture(luma=np.zeros(16, dtype=np.uint8)),
    lambda: Picture(luma=np.zeros((16, 16), dtype=np.float64)),
    lambda: FrameBlockMap(0, 0, 3, []),
    lambda: BitWriter().write_ue(-1),
    lambda: build_mask(FrameBlockMap(0, 1, 1, [BlockRecord(0, 0, 0, "P", 20, 9)]),
                       scheme),
]
for case in cases:
    try:
        case()
        print("no error")
    except Exception as exc:
        print(type(exc).__name__)
"""


def test_validation_survives_python_O():
    out = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CASES],
                         env=_env(), capture_output=True, text=True,
                         timeout=120, check=True).stdout
    assert out.split() == ["DimensionMismatch", "ConfigError", "SchemaError",
                           "RangeError", "ConfigError"]


@pytest.mark.parametrize("demo", ["03_fingerprints_and_matching.py",
                                  "06_evaluation_grid.py",
                                  "07_cli_walkthrough.py"])
def test_matching_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
