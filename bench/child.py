"""
Subprocess entry points of the benchmark.

    python3 bench/child.py setup WORKLOAD SEED SIZE DIR   write inputs; time in DIR.json
    python3 bench/child.py identify INPUTS OUT            the identify step
    python3 bench/child.py cli ARGS...                    blockprnu ARGS...

When BLOCKPRNU_BENCH_TRACE_DIR is set, the traced functions are wrapped
before anything else runs. That happens at import, so a pool worker that
re-imports this file as its main module (spawn start method) is traced as
well; forked workers inherit the wrappers.
"""
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import tracer

TRACER = (tracer.install(Path(os.environ[tracer.TRACE_ENV]))
          if os.environ.get(tracer.TRACE_ENV) else None)


def main(argv: list[str]) -> int:
    import workloads
    command, args = argv[0], argv[1:]
    try:
        if command == "cli":
            import blockprnu.cli
            return blockprnu.cli.main(args)
        if command == "setup":
            workload, seed, size, out = args
            t0 = time.perf_counter()
            workloads.generate(workload, int(seed), size, Path(out))
            elapsed = time.perf_counter() - t0
            Path(f"{out}.json").write_text(json.dumps({"setup_s": elapsed}))
            return 0
        if command == "identify":
            with (TRACER.span("bench.identify") if TRACER is not None
                  else nullcontext()):
                workloads.identify(Path(args[0]), Path(args[1]))
            return 0
    finally:
        if TRACER is not None:
            TRACER.flush()
    print(f"unknown command {command!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
