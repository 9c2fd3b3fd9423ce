"""
Golden outputs: per-operation summaries recorded at this benchmark's
commit, and the tolerances a later commit must hold them to.

- fingerprint statistics (K): absolute difference at most 1e-9
- PCE values, weight-table keys and weights, scheme means: relative
  difference at most 1e-6
- decisions, peak offsets, support counts, shapes and detection tables:
  exact
"""
from __future__ import annotations

import json
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
K_ABS = 1e-9
PCE_REL = 1e-6

_K_FIELDS = ("mean", "std", "min", "max", "mean_abs", "projection", "samples")
_REL_FIELDS = ("pce", "keys", "weights")


def path_for(workload: str, size: str) -> Path:
    return GOLDEN_DIR / f"{workload}-{size}.json"


def load(workload: str, size: str) -> dict:
    """{seed (str): {op name: summary}} for one workload and size."""
    path = path_for(workload, size)
    return json.loads(path.read_text()) if path.exists() else {}


def store(workload: str, size: str, seed: int, summary: dict) -> None:
    records = load(workload, size)
    records[str(seed)] = summary
    GOLDEN_DIR.mkdir(exist_ok=True)
    ordered = dict(sorted(records.items(), key=lambda kv: int(kv[0])))
    path_for(workload, size).write_text(json.dumps(ordered, indent=1,
                                                   sort_keys=True) + "\n")


def _close(a, b, tol: float, relative: bool) -> bool:
    if isinstance(a, list) or isinstance(b, list):
        return (isinstance(a, list) and isinstance(b, list)
                and len(a) == len(b)
                and all(_close(x, y, tol, relative) for x, y in zip(a, b)))
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return False
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    bound = tol * max(abs(b), 1e-300) if relative else tol
    return abs(a - b) <= bound


def _means_match(got: list, want: list) -> bool:
    """scheme,value lines: names and 3-digit ratios exact, means relative."""
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        gname, gval = g.split(",")
        wname, wval = w.split(",")
        if gname != wname:
            return False
        if gname.startswith("ratio_"):
            if gval != wval:
                return False
        elif not _close(float(gval), float(wval), PCE_REL, relative=True):
            return False
    return True


def matches(got: dict, want: dict) -> bool:
    """True when one operation's summary holds its golden record."""
    if "error" in got or "error" in want or set(got) != set(want):
        return False
    for key, w in want.items():
        g = got[key]
        if key in _K_FIELDS:
            ok = _close(g, w, K_ABS, relative=False)
        elif key in _REL_FIELDS:
            ok = _close(g, w, PCE_REL, relative=True)
        elif key == "means":
            ok = _means_match(g, w)
        else:
            ok = g == w
        if not ok:
            return False
    return True


def mismatches(got: dict, want: dict) -> list[str]:
    """Names of operations whose summary misses its golden record,
    including golden operations absent from `got` and extra ones in it."""
    names = sorted(set(got) | set(want))
    return [n for n in names
            if n not in got or n not in want or not matches(got[n], want[n])]
