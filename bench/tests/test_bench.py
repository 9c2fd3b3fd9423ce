"""
The benchmark's own tests, at the tiny size:

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""
import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(cwd: Path, workload: str, trace: int, seed: int = 0):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def checkout_copy(tmp_path: Path) -> Path:
    """A fresh checkout: the program, the benchmark and BENCHMARK.json."""
    root = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, root / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(tmp_path, workload, trace):
    proc, lines = bench_run(checkout_copy(tmp_path), workload, trace)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    report = "\n".join(lines[:-1])
    names = ["setup_s", "wall_s", "matches_per_s", "peak_rss_mb",
             "error_rate", "decision_accuracy"]
    names += (["match_ms_p50", "match_ms_p90"] if workload == "identify_720p"
              else ["frames_per_s"])
    if trace:
        names += ["trace.overhead", "noise.wavedec2_s", "noise.wiener_s",
                  "noise.waverec2_s", "bitstream.load_trace_s",
                  "self.unaccounted_s"]
    for name in names:
        assert f"\n{name} " in "\n" + report, name


def test_golden_tolerances():
    base = {"pce": 1000.0, "peak": [0, 0], "decision": 1}
    assert golden.matches(dict(base, pce=1000.0 * (1 + 5e-7)), base)
    assert not golden.matches(dict(base, pce=1000.0 * (1 + 2e-6)), base)
    assert not golden.matches(dict(base, decision=0), base)
    assert not golden.matches(dict(base, peak=[1, 0]), base)
    k = {"mean": 0.0, "samples": [1e-3, -2e-3], "support": 10}
    assert golden.matches({**k, "samples": [1e-3 + 5e-10, -2e-3]}, k)
    assert not golden.matches({**k, "samples": [1e-3 + 2e-9, -2e-3]}, k)
    assert not golden.matches({**k, "support": 9}, k)
    assert not golden.matches({"error": "missing"}, base)
    assert golden.mismatches({"a": base}, {"a": base, "b": base}) == ["b"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_perturbed_golden_fails_the_run(tmp_path, workload):
    root = checkout_copy(tmp_path)
    path = root / "bench" / "golden" / f"{workload}-tiny.json"
    records = json.loads(path.read_text())
    record = records["0"]
    original = copy.deepcopy(record)
    if workload == "estimate_720p":
        name = "estimate"
        record[name]["samples"][0] += 1e-8          # K off by 1e-8
    else:
        name = next(n for n in sorted(record) if "pce" in record[n])
        record[name]["pce"] *= 1 + 1e-5             # PCE off by 1e-5
    assert not golden.matches(record[name], original[name])
    path.write_text(json.dumps(records))
    proc, lines = bench_run(root, workload, trace=0)
    assert proc.returncode != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, workload):
    digests = []
    for seed, name in ((3, "a"), (3, "b"), (4, "c")):
        out = tmp_path / name
        subprocess.run([sys.executable, str(BENCH / "child.py"), "setup",
                        workload, str(seed), "tiny", str(out)],
                       cwd=ROOT, env=run.child_env(), check=True, timeout=120)
        digests.append(run.tree_digest(out))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_refuses_to_run_without_the_program(tmp_path):
    root = tmp_path / "bare"
    shutil.copytree(BENCH, root / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    proc, lines = bench_run(root, "estimate_720p", trace=0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
