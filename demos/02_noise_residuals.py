"""
Show what a noise residual is and why averaging residuals exposes the
sensor pattern: single-frame residuals are dominated by read noise, but the
multiplicative pattern survives the mean while the noise cancels.
"""
import numpy as np

from blockprnu import (DenoiseConfig, SensorModel, extract_residual,
                       saturation_mask, simulate_capture)

rng = np.random.default_rng(0)
model = SensorModel.random(64, 64, k_strength=0.05, read_noise_sigma=2.0,
                           seed=0)
truth = model.k_true - model.k_true.mean()
truth /= np.sqrt((truth * truth).sum())

# Flat, mid-gray scenes make the pattern easiest to see. The captured
# video is one (frames, 64, 64) uint8 stack.
clean = [np.full((64, 64), 140.0)] * 60
pictures = simulate_capture(model, clean, seed=1)

def corr(a, b):
    a = a - a.mean(); b = b - b.mean()
    return float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))

residuals = [extract_residual(luma) for luma in pictures]
single = residuals[0]
print(f"one residual:  std {single.std():.3f}, corr with truth "
      f"{corr(single, truth):.3f}")

for n in (5, 20, 60):
    avg = np.mean(residuals[:n], axis=0)
    print(f"mean of {n:2d}:    std {avg.std():.3f}, corr with truth "
          f"{corr(avg, truth):.3f}")

# The wavelet denoiser is the default; a spatial Wiener filter is the
# fallback for frames too small to decompose.
spatial = extract_residual(pictures[0],
                           DenoiseConfig(method="spatial", noise_var=3.0))
print(f"spatial fallback residual std {spatial.std():.3f}")

# Saturated pixels carry no usable pattern. The mask drops both clipped ends.
hot = pictures[0].copy()
hot[:8, :8] = 255
hot[-8:, -8:] = 0
mask = saturation_mask(hot)
print(f"saturation mask keeps {mask.mean():.1%} of pixels "
      f"(corners clipped on purpose)")
assert not mask[:8, :8].any() and not mask[-8:, -8:].any()
