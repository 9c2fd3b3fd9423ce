"""
End-to-end evaluation: a small camera cohort, two bitrates, two weighting
schemes, and the three standard reports (detection-count table, mean-PCE
improvement ratios, ROC).
"""
import numpy as np

from blockprnu import (CodecConfig, DenoiseConfig, GridVideo, PceConfig,
                       SchemeConfig, SensorModel, encode_sequence,
                       estimate_fingerprint, format_ratio,
                       improvement_ratios, pce, roc, run_grid, sbr_summary,
                       scheme_mean_pce, simulate_capture,
                       synthetic_clean_frames, threshold_table)

SIZE = 64
RATES = {"low": 1500, "high": 6000}

# Three cameras. Each gets a flat-field reference fingerprint and films one
# moving clip per rate point.
references = {}
videos = []
traces_by_rate = {label: [] for label in RATES}
for i in range(3):
    model = SensorModel.random(SIZE, SIZE, k_strength=0.06,
                               read_noise_sigma=2.0, seed=500 + i)
    flat = [np.full((SIZE, SIZE), 130.0)] * 24
    references[f"cam{i}"] = estimate_fingerprint(
        simulate_capture(model, flat, seed=510 + i), None,
        SchemeConfig("conventional"))
    clean = synthetic_clean_frames(SIZE, SIZE, 12, seed=520 + i)
    captured = simulate_capture(model, clean, seed=530 + i)
    for label, rate in RATES.items():
        res = encode_sequence(captured, CodecConfig(
            target_bits_per_frame=rate, gop=4, start_qp=28))
        videos.append(GridVideo(video_id=f"cam{i}_{label}",
                                camera_id=f"cam{i}",
                                pictures=res.pictures, trace=res.trace))
        traces_by_rate[label].append(res.trace)

grid = run_grid(videos, [SchemeConfig("conventional"),
                         SchemeConfig("skip_eliminate")], references)

print("per-video PCE:")
for vid in grid.video_ids:
    row = "  ".join(f"{s}={grid.cells[(vid, s)].pce:8.1f}"
                    for s in grid.schemes)
    print(f"  {vid:12s} bpp={grid.bpp[vid]:.3f}  {row}")

# Low-rate encodes land under 0.7 bpp here, high-rate ones above it.
table = threshold_table(grid, group_edges=(0.7,))
print("\ndetections above PCE 60, by bits-per-pixel group:")
print(table.to_text())

means = scheme_mean_pce(grid)
ratios = improvement_ratios(means)
print("mean PCE and ratio to conventional:")
for scheme in grid.schemes:
    print(f"  {scheme:15s} {means[scheme]:8.1f}  "
          f"x{format_ratio(ratios[scheme])}")

# ROC over this cohort: each video's estimate scored against its own
# camera (matching) and against the next camera over (non-matching).
cfg = DenoiseConfig()
matching, non_matching = [], []
for video in videos:
    est = estimate_fingerprint(video.pictures, video.trace,
                               SchemeConfig("conventional"),
                               denoise_config=cfg)
    own = int(video.camera_id[-1])
    matching.append(pce(est, references[f"cam{own}"]).pce)
    non_matching.append(pce(est, references[f"cam{(own + 1) % 3}"]).pce)
curve = roc(matching, non_matching)
print(f"ROC AUC over {len(matching)}+{len(non_matching)} scores: "
      f"{curve.auc:.3f}")
assert curve.auc >= 0.9

print("\nskip-rate five-number summaries (label,min,q1,median,q3,max):")
for row in sbr_summary(traces_by_rate):
    print("  " + row)
