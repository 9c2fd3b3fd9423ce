"""
Look inside calibration. QP tables come from matching per-QP encodes back
to a clean reference; rate-cost tables additionally reorganize residual
blocks by their lambda*bits cost ("splicing") so each synthetic frame holds
blocks of one cost rank.
"""
import numpy as np

from blockprnu import (BlockRecord, CalibrationRun, TraceFile,
                       build_qp_table, lambda_of_qp, splice_by_lambda_rate)

# --- the QP table recipe, on hand-checkable numbers ---------------------------
# Per camera, PCE at each QP is normalized by the anchor QP's PCE; camera
# curves are averaged; the weight is the square root of that mean.
runs = [CalibrationRun("alpha", samples=[(15, 800.0), (27, 392.0),
                                         (39, 98.0)]),
        CalibrationRun("beta", samples=[(15, 450.0), (27, 288.0),
                                        (39, 32.0)])]
table, report = build_qp_table(runs)
print("hand-checkable weights:")
for qp in (15, 27, 39):
    print(f"  QP {qp}: {table.weight_exact(qp):.4f}")
expect = np.sqrt((392 / 800 + 288 / 450) / 2)
assert abs(table.weight_exact(27) - expect) < 1e-12
print("report lines:")
for line in report:
    print("  " + line)

# --- splicing by rate cost -----------------------------------------------------
# Three 32x32 residual frames, each a 2x2 grid of blocks. Costs are
# lambda(qp) * bits; skips are normally left out.
rng = np.random.default_rng(3)
residuals = [rng.normal(size=(32, 32)) for t in range(3)]

def frame(t, types, bits):
    return [BlockRecord(t, x, y, types[y][x], 20, bits[y][x])
            for y in range(2) for x in range(2)]

# the trace holds every frame's blocks as (frames, grid_h, grid_w) arrays
trace = TraceFile(32, 32, 3,
                  frame(0, [["P", "P"], ["P", "P"]], [[100, 400], [250, 30]])
                  + frame(1, [["P", "SKIP"], ["P", "P"]], [[300, 1], [50, 90]])
                  + frame(2, [["P", "P"], ["SKIP", "P"]], [[20, 160], [1, 500]]))

lam = lambda_of_qp(20)
print(f"\nlambda(20) = {lam:.4f}; per-position costs (frame: cost):")
# the spliced ranks come back as stacks: values (3, 32, 32), filled
# (3, 2, 2) and mean_lambda_rate (3,)
spliced = splice_by_lambda_rate(residuals, trace)
for j in range(len(spliced.values)):
    filled = int(spliced.filled[j].sum())
    print(f"  rank {j}: {filled}/4 positions filled, "
          f"mean cost {spliced.mean_lambda_rate[j]:.1f}")

# Rank 0 collects the cheapest coded block at every position; positions
# whose cheap slots were skips stay unfilled in the last ranks.
assert spliced.filled[0].all()
with_skips = splice_by_lambda_rate(residuals, trace, include_skip=True)
assert with_skips.filled.all()
print("with include_skip=True every rank fills (skips rank cheapest)")
