#!/usr/bin/env python3
"""
blockprnu benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload estimate_720p --seed 1 --seconds 20 --trace 0

Run it from the repository root; the program is imported from ./src as is,
nothing is installed. The run generates the workload's inputs from the seed
(three times, to time set-up), then repeats the workload's pass, a closed
loop of commands each started when the previous one ended, until
--seconds have gone by. Every pass's outputs are checked against the golden
records in bench/golden/. The last line of standard output is a JSON object
with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
The exit code is 0 only when every operation succeeded and held its golden
record.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN_START = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

NPROC = len(os.sched_getaffinity(0))
SETUP_REPS = 3
IMPORT_REPS = 5
TIME_LIMIT_S = 170       # the whole run, set-up and checks included
LAST_PASS_START_S = 100  # no pass starts later than this into the run
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env(trace_dir: Path | None = None) -> dict:
    """Environment of every process the benchmark starts: one BLAS thread,
    the program from ./src, no worker-count default from outside."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("BLOCKPRNU_WORKERS", "PYTHONPATH")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    if trace_dir is not None:
        env["BLOCKPRNU_BENCH_TRACE_DIR"] = str(trace_dir)
    return env


class Proc:
    """Outcome of one finished subprocess. Peak RSS and CPU time come from
    wait4, so they cover the process and every pool worker it waited for."""

    def __init__(self, argv: list[str], env: dict, log: Path):
        log.parent.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        with open(log, "wb") as fh:
            # own process group, so that an interrupted run can stop the
            # command together with its pool workers
            proc = subprocess.Popen(argv, env=env, stdout=fh,
                                    stderr=subprocess.STDOUT, cwd=ROOT,
                                    start_new_session=True)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        self.wall_s = time.perf_counter() - t0
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.log = log


def python(*args) -> list[str]:
    return [sys.executable, *map(str, args)]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def set_up(workload: str, seed: int, size: str, work: Path, reps: int,
           trace_dir: Path | None = None) -> tuple[Path, list[float]]:
    """Generate the inputs `reps` times; every repetition must produce
    byte-identical files. Returns the inputs directory and the times."""
    times, digests = [], []
    for rep in range(reps):
        out = work / f"setup{rep}"
        proc = Proc(python(BENCH / "child.py", "setup", workload, seed, size,
                           out), child_env(trace_dir), work / f"setup{rep}.log")
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed; see {proc.log}:\n"
                               + proc.log.read_text()[-2000:])
        times.append(json.loads(Path(f"{out}.json").read_text())["setup_s"])
        digests.append(tree_digest(out))
        if rep:
            shutil.rmtree(out)
    if len(set(digests)) != 1:
        raise RuntimeError("the same seed generated different inputs")
    return work / "setup0", times


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(workload: str, inputs: Path, out: Path, traced: bool) -> dict:
    import workloads
    out.mkdir(parents=True)
    trace_dir = out / "spans" if traced else None
    env = child_env(trace_dir)
    procs = []
    t0 = time.perf_counter()
    for op in workloads.ops(workload, inputs, out):
        if not op.argv:
            argv = python(BENCH / "child.py", op.name, inputs, out)
        elif traced:
            argv = python(BENCH / "child.py", "cli", *op.argv)
        else:
            argv = python("-m", "blockprnu.cli", *op.argv)
        procs.append((op.name, Proc(argv, env, out / f"{op.name}.log")))
    wall = time.perf_counter() - t0
    result = {"traced": traced, "wall_s": wall, "process_wall_s": wall,
              "ops": {name: {"returncode": p.returncode, "wall_s": p.wall_s,
                             "rss_mb": p.rss_mb, "cpu_s": p.cpu_s}
                      for name, p in procs},
              "cpu_s": sum(p.cpu_s for _, p in procs),
              "rss_mb": max(p.rss_mb for _, p in procs)}
    if workload == "identify_720p" and procs[0][1].returncode == 0:
        # in-process step: time the library calls, not interpreter start-up
        ident = json.loads((out / "identify.json").read_text())
        result["wall_s"] = ident["wall_s"]
        result["pair_s"] = ident["pair_s"]
    return result


def check_pass(workload: str, inputs: Path, out: Path, result: dict,
               reference: dict | None) -> dict:
    """Summarize a pass's outputs and count the operations that failed:
    a non-zero exit, or an output outside its reference's tolerance."""
    import golden
    import workloads
    summary = workloads.summarize(workload, inputs, out)
    failed = {name for name, op in result["ops"].items()
              if op["returncode"] != 0}
    if reference is not None:
        failed |= set(golden.mismatches(summary, reference))
    agree, made = workloads.decisions(workload, inputs, summary)
    return {"summary": summary, "failed": sorted(failed), "agree": agree,
            "decisions": made}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import multiprocessing

    import numpy
    import scipy
    import workloads
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "git_commit": git_commit(),
            "pinned_env": dict(PINNED_ENV), "workers": workloads.WORKERS,
            "start_method": multiprocessing.get_start_method()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the benchmark's "
                             "own tests")
    parser.add_argument("--write-golden", action="store_true",
                        help="record this seed's outputs as golden")
    args = parser.parse_args(argv)

    if not (SRC / "blockprnu" / "__init__.py").is_file():
        print(f"error: {SRC / 'blockprnu'} not found; run from the root of "
              f"a blockprnu checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import golden
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.seed < 0:
        parser.error("seed must be non-negative")

    def out_of_time(signum, frame):
        raise TimeoutError(f"run exceeded {TIME_LIMIT_S} s")
    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(TIME_LIMIT_S)

    work = WORK / f"{args.workload}-{args.size}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        report = measure(args, work)
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    report["environment"] = environment()
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(report, indent=1) + "\n")

    for key, value in report["report"].items():
        print(f"{key:38s} {value}")
    print(f"result file: {RESULTS / name}")
    ok = report["failed"] == 0
    print(json.dumps({"correct": ok, "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))
    if args.write_golden and ok:
        golden.store(args.workload, args.size, args.seed,
                     report.pop("golden_candidate"))
    return 0 if ok else 1


def measure(args, work: Path) -> dict:
    import golden
    import workloads
    golden_records = golden.load(args.workload, args.size)
    reference = golden_records.get(str(args.seed))
    notes = []

    # set-up: timed untraced; a traced run sets up once, traced
    setup_trace = work / "setup-spans" if args.trace else None
    inputs, setup_times = set_up(args.workload, args.seed, args.size, work,
                                 1 if args.trace else SETUP_REPS, setup_trace)
    counts = workloads.work_counts(args.workload, inputs)

    # timed phase: whole passes until --seconds have gone by; a traced run
    # alternates untraced and traced passes
    passes = []
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        out = work / f"pass{len(passes)}"
        passes.append(run_pass(args.workload, inputs, out, traced))
        passes[-1]["dir"] = out
        now = time.perf_counter()
        if (now - t0 >= args.seconds or now - RUN_START > LAST_PASS_START_S) \
                and (not args.trace or len(passes) % 2 == 0):
            break

    # checks: against the golden record when this seed has one; otherwise
    # every pass against the first, and a canary, the tiny size at a
    # golden seed, against its record
    first = None
    attempted = failed = agree = made = 0
    failures = []
    for p in passes:
        check = check_pass(args.workload, inputs, p["dir"], p,
                           reference if reference is not None
                           else (first["summary"] if first else None))
        first = first or check
        attempted += counts["ops"]
        failed += min(counts["ops"], len(check["failed"]))
        failures += check["failed"]
        agree += check["agree"]
        made += check["decisions"]
    canary_records = golden.load(args.workload, "tiny")
    if reference is None and canary_records and not args.write_golden:
        canary = min(canary_records, key=int)
        notes.append(f"seed {args.seed} has no golden record; checked the "
                     f"tiny size at seed {canary} as a canary")
        c_inputs, _ = set_up(args.workload, int(canary), "tiny",
                             work / "canary", 1)
        c_out = work / "canary" / "pass"
        c_pass = run_pass(args.workload, c_inputs, c_out, traced=False)
        check = check_pass(args.workload, c_inputs, c_out, c_pass,
                           canary_records[canary])
        c_ops = workloads.work_counts(args.workload, c_inputs)["ops"]
        attempted += c_ops
        failed += min(c_ops, len(check["failed"]))
        failures += [f"canary:{n}" for n in check["failed"]]
    elif reference is None:
        notes.append("no golden record to check against; passes checked "
                     "against each other only")

    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    metrics = {
        "setup_s": median(setup_times),
        "wall_s": median(walls),
        "matches_per_s": counts["pce"] / median(walls),
        "peak_rss_mb": max(p["rss_mb"] for p in untraced),
    }
    report = {
        "setup_s": f"{metrics['setup_s']:.4f} s (median of "
                   f"{len(setup_times)} set-ups)",
        "wall_s": f"{metrics['wall_s']:.4f} s (median of {len(walls)} "
                  f"passes)",
    }
    if counts["frames"]:
        rate = counts["frames"] / median(walls)
        report["frames_per_s"] = (f"{rate:.4f} 1/s ({counts['frames']} "
                                  f"frame ingestions per pass)")
    report["matches_per_s"] = (f"{metrics['matches_per_s']:.4f} 1/s "
                               f"({counts['pce']} PCE evaluations per pass)")
    pair_ms = [1e3 * s for p in untraced for s in p.get("pair_s", ())]
    if len(pair_ms) >= 2:
        p90 = statistics.quantiles(pair_ms, n=10, method="inclusive")[8]
        report["match_ms_p50"] = (f"{statistics.median(pair_ms):.4f} ms "
                                  f"({len(pair_ms)} pairs)")
        report["match_ms_p90"] = f"{p90:.4f} ms ({len(pair_ms)} pairs)"
    report["peak_rss_mb"] = f"{metrics['peak_rss_mb']:.2f} MB"
    report["error_rate"] = (f"{failed / attempted:.4f} ratio ({failed} of "
                            f"{attempted} operations)")
    if made:
        report["decision_accuracy"] = (f"{agree / made:.4f} ratio ({agree} "
                                       f"of {made} decisions)")
    cpu = median([p["cpu_s"] for p in untraced])
    process_wall = median([p["process_wall_s"] for p in untraced])
    layer = {"run.cpu_s": cpu, "run.cpu_util": cpu / (process_wall * NPROC)}
    report["run.cpu_util"] = f"{layer['run.cpu_util']:.4f} ratio"
    if failures:
        report["failures"] = ", ".join(sorted(set(failures))[:20])
    if notes:
        report["notes"] = "; ".join(notes)

    if args.trace:
        layer.update(traced_metrics(args.workload, passes, setup_trace,
                                    walls, report))
        for key in sorted(layer):
            report.setdefault(key, f"{layer[key]:.6g}")
    # the last output line carries exactly the metrics BENCHMARK.json names
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    values = layer if args.trace else metrics
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    return {"workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "attempted": attempted, "failed": failed,
            "work_counts": counts, "setup_times_s": setup_times,
            "metrics": metrics, "report": report,
            "passes": [{k: v for k, v in p.items() if k != "dir"}
                       for p in passes],
            "golden_candidate": first["summary"]}


def traced_metrics(workload: str, passes: list, setup_trace: Path,
                   untraced_walls: list, report: dict) -> dict:
    import tracer
    imports = [Proc(python("-c", "import blockprnu.cli"), child_env(),
                    setup_trace.parent / f"import{i}.log").wall_s
               for i in range(IMPORT_REPS)]
    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        records = tracer.load(p["dir"] / "spans")
        m = tracer.aggregate(records, tracer.TIME_METRICS,
                             tracer.CALL_METRICS, tracer.COUNT_METRICS)
        distinct, extractions = tracer.frame_reuse(records)
        m["noise.distinct_frames"] = distinct
        m["noise.residual_reuse"] = distinct / extractions if extractions else 0.0
        layers, roots = tracer.self_times(records)
        # process start-up and interpreter teardown of each CLI command
        startup = sum(op["wall_s"] for op in p["ops"].values()) - roots
        if workload == "identify_720p":
            startup = 0.0      # the pass wall is the in-process step only
        layers["cli"] = layers.get("cli", 0.0) + startup
        for name, value in layers.items():
            m[f"self.{name}_s"] = value
        m["self.unaccounted_s"] = p["wall_s"] - sum(layers.values())
        per_pass.append(m)
    out = {k: median([m.get(k, 0.0) for m in per_pass])
           for k in sorted(set().union(*per_pass))}
    setup = tracer.load(setup_trace)
    out.update(tracer.aggregate(setup, tracer.SETUP_TIME_METRICS, {},
                                tracer.SETUP_COUNT_METRICS))
    out["cli.import_s"] = median(imports)
    out["trace.overhead"] = (median([p["wall_s"] for p in traced])
                             / median(untraced_walls))
    report["traced_passes"] = f"{len(traced)} (untraced: {len(untraced_walls)})"
    return out


if __name__ == "__main__":
    sys.exit(main())
