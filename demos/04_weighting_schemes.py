"""
The point of the toolkit: at strong compression, weighting each block's
contribution by codec metadata rescues fingerprint quality. Calibrate QP
and rate-cost tables on a few helper cameras, then compare all schemes on
fresh cameras encoded at a harsh bitrate budget.
"""
import numpy as np

from blockprnu import (CalibrationVideo, CodecConfig, SchemeConfig,
                       SensorModel, calibrate_lambda_rate, calibrate_qp,
                       encode_sequence, estimate_fingerprint, pce,
                       simulate_capture, synthetic_clean_frames)

SIZE = 64

def camera(seed):
    return SensorModel.random(SIZE, SIZE, k_strength=0.06, seed=seed)

def reference_of(model, seed):
    flat = [np.full((SIZE, SIZE), 130.0)] * 24
    return estimate_fingerprint(simulate_capture(model, flat, seed=seed),
                                None, SchemeConfig("conventional"))

def captured(model, seed, count=24):
    clean = synthetic_clean_frames(SIZE, SIZE, count, seed=seed)
    return simulate_capture(model, clean, seed=seed + 1)

# --- calibrate on helper cameras ----------------------------------------------
refs, videos = {}, []
for i in range(3):
    model = camera(50 + i)
    refs[f"cal{i}"] = reference_of(model, 60 + i)
    for qp in (15, 27, 39):
        res = encode_sequence(captured(model, 70 + 10 * i + qp, 12),
                              CodecConfig(qp=qp, gop=4))
        videos.append(CalibrationVideo(camera_id=f"cal{i}",
                                       pictures=res.pictures,
                                       trace=res.trace, qp=qp))
qp_table, _ = calibrate_qp(videos, refs, include_skip=False)
qp_all_table, _ = calibrate_qp(videos, refs, include_skip=True)
lr_table, _ = calibrate_lambda_rate(videos, refs, n_buckets=8)
print("QP weights:", {q: round(qp_table.weight_exact(q), 3)
                      for q in (15, 27, 39)})

# --- compare schemes on fresh cameras at a low bit budget -----------------------
schemes = [SchemeConfig("conventional"),
           SchemeConfig("skip_eliminate"),
           SchemeConfig("qp_all", qp_all_table),
           SchemeConfig("qp_noskip", qp_table),
           SchemeConfig("lambda_r", lr_table)]
scores = {s.scheme: [] for s in schemes}
for i in range(4):
    model = camera(200 + i)
    truth_ref = reference_of(model, 210 + i)
    res = encode_sequence(captured(model, 220 + i),
                          CodecConfig(target_bits_per_frame=1500, gop=4,
                                      start_qp=28))
    for cfg in schemes:
        est = estimate_fingerprint(res.pictures, res.trace, cfg)
        scores[cfg.scheme].append(pce(est, truth_ref).pce)

print(f"\nmean PCE across {len(scores['conventional'])} cameras "
      f"at 1500 bits/frame:")
base = float(np.mean(scores["conventional"]))
for name, vals in scores.items():
    mean = float(np.mean(vals))
    print(f"  {name:15s} {mean:7.1f}   x{mean / base:.2f} vs conventional")
