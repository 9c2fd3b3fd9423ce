"""Checks that run the package in a fresh interpreter: validation under
`python -O`, every demo, the README's code, and an analysis path that
imports no scipy."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from blockprnu.cli import main

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
from blockprnu import SchemeConfig, estimate_fingerprint
from blockprnu.bitstream import BitWriter
from blockprnu.trace import BlockRecord, TraceFile
from blockprnu.weighting import build_mask

conventional = SchemeConfig("conventional")
scheme = SchemeConfig("conventional")
object.__setattr__(scheme, "scheme", "bogus")
cases = [
    lambda: estimate_fingerprint(np.zeros(16, dtype=np.uint8), None,
                                 conventional),
    lambda: estimate_fingerprint(np.zeros((1, 16, 16), dtype=np.float64),
                                 None, conventional),
    lambda: TraceFile(0, 48, 1, []),
    lambda: BitWriter().write_ue(-1),
    lambda: build_mask(TraceFile(16, 16, 1, [BlockRecord(0, 0, 0, "P", 20, 9)]),
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


@pytest.mark.parametrize("demo", ["01_bitstream_parsing.py",
                                  "02_noise_residuals.py",
                                  "03_fingerprints_and_matching.py",
                                  "04_weighting_schemes.py",
                                  "05_calibration_splicing.py",
                                  "06_evaluation_grid.py",
                                  "07_cli_walkthrough.py"])
def test_matching_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run(tmp_path):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path,
                              env=_env(), capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, block + proc.stderr


SIMULATOR_NAMES = ["CodecConfig", "EncodeResult", "SensorModel",
                   "encode_block", "encode_sequence", "simulate_capture",
                   "synthetic_clean_frames"]

SCIPY_MODULES = ("sorted(m for m in sys.modules "
                 "if m.partition('.')[0] == 'scipy')")


def _python(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args], env=_env(),
                          capture_output=True, text=True, timeout=300,
                          check=True).stdout


def test_cli_import_loads_no_scipy():
    out = _python(f"import sys, blockprnu.cli; print({SCIPY_MODULES})")
    assert out.strip() == "[]"


# Runs `python -m blockprnu.cli ARGS` once per argument list in argv[1],
# in one interpreter, then prints the scipy modules that got loaded.
ANALYSIS_RUNS = f"""
import json, runpy, sys
for argv in json.loads(sys.argv[1]):
    sys.argv = ["blockprnu"] + argv
    try:
        runpy.run_module("blockprnu.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code in (0, None), (argv, exc.code)
print({SCIPY_MODULES})
"""


def test_analysis_commands_run_without_scipy(tmp_path):
    # the simulator (which needs scipy) runs here; every analysis command
    # then runs in a fresh interpreter that must never import scipy
    for name, seed, qp in (("ref", 1, 18), ("v15", 2, 15), ("v28", 3, 28)):
        assert main(["simulate", "--width", "64", "--height", "64",
                     "--frames", "6", "--seed", "5", "--content-seed",
                     str(seed), "--qp", str(qp),
                     "--out-prefix", str(tmp_path / name)]) == 0
    (tmp_path / "calib.csv").write_text("cam,v15.yuv,v15.trace,15\n"
                                        "cam,v28.yuv,v28.trace,28\n")
    (tmp_path / "eval.csv").write_text("v15,cam,v15.yuv,v15.trace\n"
                                       "v28,cam,v28.yuv,v28.trace\n")
    t = str(tmp_path)
    runs = [
        ["inspect", f"{t}/ref.trace", "--out", f"{t}/inspect.txt"],
        ["estimate", "--frames", f"{t}/ref.yuv", "--trace", f"{t}/ref.trace",
         "--scheme", "conventional", "--source-id", "cam",
         "--out", f"{t}/refs/cam.bpf", "--workers", "1"],
        ["match", "--test", f"{t}/ref.true.bpf",
         "--reference", f"{t}/refs/cam.bpf", "--out", f"{t}/match.txt"],
        ["calibrate", "--mode", "qp", "--manifest", f"{t}/calib.csv",
         "--references", f"{t}/refs", "--out", f"{t}/qp.wt",
         "--workers", "1"],
        ["evaluate", "--manifest", f"{t}/eval.csv", "--references",
         f"{t}/refs", "--schemes", "conventional,qp_noskip",
         "--qp-noskip-table", f"{t}/qp.wt", "--out-prefix", f"{t}/grid",
         "--workers", "1"],
    ]
    out = _python(ANALYSIS_RUNS, json.dumps(runs))
    assert out.strip() == "[]"
    for name in ("inspect.txt", "match.txt", "qp.wt", "grid.table.txt"):
        assert (tmp_path / name).stat().st_size > 0


# Runs `python -m blockprnu.cli ARGS` with 2 CPUs visible, then prints its
# exit code, the threads it started, those of them still running, the forks
# it made, the process-pool modules it loaded and the peak RSS of any child
# it reaped.
NO_FORK_RUN = """
import os, resource, sys, threading
os.sched_getaffinity = lambda pid: {0, 1}
forks, started = [], []
os.register_at_fork(before=lambda: forks.append(1))
start = threading.Thread.start
threading.Thread.start = lambda thread: started.append(thread) or start(thread)
from blockprnu.cli import main

code = main(sys.argv[1:])
loaded = [m for m in sys.modules if m.partition(".")[0] == "multiprocessing"
          or m == "concurrent.futures.process"]
print(code, len(started), [t for t in started if t.is_alive()], forks,
      loaded, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_small_frame_evaluate_imports_no_multiprocessing(tmp_path):
    # with 2 CPUs visible, `evaluate --workers 2` extracts 32x32 frames in
    # stacked parts on its own thread and one helper thread, so nothing is
    # forked, multiprocessing stays unimported and no thread outlives it
    t = str(tmp_path)
    assert main(["simulate", "--width", "32", "--height", "32", "--frames",
                 "6", "--seed", "5", "--qp", "18",
                 "--out-prefix", f"{t}/v"]) == 0
    assert main(["estimate", "--frames", f"{t}/v.yuv", "--trace",
                 f"{t}/v.trace", "--scheme", "conventional", "--source-id",
                 "cam", "--out", f"{t}/refs/cam.bpf", "--workers", "1"]) == 0
    (tmp_path / "eval.csv").write_text("v,cam,v.yuv,v.trace\n")
    out = _python(NO_FORK_RUN, "evaluate", "--manifest", f"{t}/eval.csv",
                  "--references", f"{t}/refs", "--schemes",
                  "conventional,skip_eliminate", "--out-prefix", f"{t}/grid",
                  "--workers", "2")
    assert out.strip() == "0 1 [] [] [] 0"
    assert (tmp_path / "grid.cells.csv").stat().st_size > 0


def test_720p_estimate_forks_nothing_and_writes_the_one_worker_bytes(
        tmp_path):
    # with 2 CPUs visible, `estimate --workers 2` extracts each 720p frame
    # in the command's own thread, sharing its strips of rows with one
    # helper thread: nothing is forked, multiprocessing stays unimported,
    # and the print and its sidecar are the bytes `--workers 1` writes
    t = str(tmp_path)
    assert main(["simulate", "--width", "1280", "--height", "720",
                 "--frames", "2", "--seed", "7", "--qp", "24",
                 "--out-prefix", f"{t}/v"]) == 0
    estimate = ["estimate", "--frames", f"{t}/v.yuv", "--trace",
                f"{t}/v.trace", "--scheme", "conventional", "--source-id",
                "cam", "--out"]
    assert main(estimate + [f"{t}/w1/cam.bpf", "--workers", "1"]) == 0
    out = _python(NO_FORK_RUN, *estimate, f"{t}/w2/cam.bpf", "--workers", "2")
    assert out.strip() == "0 1 [] [] [] 0"
    for name in ("cam.bpf", "cam.bpf.json"):
        assert ((tmp_path / "w1" / name).read_bytes()
                == (tmp_path / "w2" / name).read_bytes())


def test_simulator_names_resolve_on_first_use():
    out = _python(f"""
import sys
import blockprnu
def scipy_loaded():
    return bool({SCIPY_MODULES})
names = {SIMULATOR_NAMES!r}
print(scipy_loaded(), all(n in dir(blockprnu) for n in names))
from blockprnu import SensorModel
from blockprnu import simulator
print(scipy_loaded(), SensorModel is simulator.SensorModel,
      all(getattr(blockprnu, n) is getattr(simulator, n) for n in names))
try:
    blockprnu.no_such_name
except AttributeError as exc:
    print(type(exc).__name__)
""")
    assert out.split() == ["False", "True", "True", "True", "True",
                           "AttributeError"]


# sha256 of what `simulate` wrote before the simulator import moved into
# cmd_simulate; the simulator itself did not change
SIMULATE_DIGESTS = {
    "q.yuv": "1675f69ab7e1884e08a92d6ece81c8d67e0b7a89518ed2760adf4df59fae0a74",
    "q.trace": "b4da9d11b6d7d5f0d0e898a03cc474ccbc91a8cc052c3e07c6000888ee9abf6f",
    "q.true.bpf": "975ed2a79c72f8ea6f023f6ba74130bac579191dda29dfc1630204b7b2f9c78b",
    "q.out": "acceb28c0d9a9623833a3129a3c52cb952359133afa9ec5abb2eb106db9cf505",
    "r.yuv": "f74240a5e040451613c5792a5de5f8386fa47ea7300237f5a992df8c092fc353",
    "r.trace": "d3cc65d3107374f98629de929b7ede4e0809fc0672e28ad156dbeabc077039a6",
    "r.true.bpf": "c77b59a37235687792130353665e9d40a229813883eafca067c87399a8503e36",
    "r.out": "1da668a389473be2e8c6a2943fc2f656504d0cf8df4e798bef7f4518f0dcb8ae",
}


def test_simulate_writes_the_pinned_bytes(tmp_path):
    common = ["simulate", "--width", "48", "--height", "32", "--frames", "6"]
    assert main(common + ["--seed", "3", "--qp", "30", "--out-prefix",
                          str(tmp_path / "q"), "--out",
                          str(tmp_path / "q.out")]) == 0
    assert main(common + ["--seed", "4", "--target-bits", "900", "--gop",
                          "3", "--out-prefix", str(tmp_path / "r"), "--out",
                          str(tmp_path / "r.out")]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in SIMULATE_DIGESTS}
    assert got == SIMULATE_DIGESTS
