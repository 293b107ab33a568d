"""Measuring end-to-end latency from the outside, two ways.

A reciprocating motion is observed twice with an unknown time offset
between the observations. First as clean 1-D traces, then as rendered
camera frames where the motion has to be pulled out of the pixels by
block matching before it can be aligned.

Run:  python3 demos/04_latency_estimation.py   (~5 s)
"""

import math

import numpy as np

from extremctl.latency import MotionSignal, RegionSpec, analyze_pair, estimate_lag

# ===== 1. signal vs signal =====
# Two tones with an irrational-ish ratio so the autocorrelation has a
# single sharp peak inside the search window.
rate = 500.0
t = np.arange(int(4.0 * rate)) / rate
wave = lambda tt: np.sin(2 * np.pi * 1.1 * tt) + 0.5 * np.sin(2 * np.pi * 2.7 * tt)
true_lag = 0.0834
a = MotionSignal(wave(t), rate)
b = MotionSignal(0.31 * wave(t - true_lag) + 2.0, rate)  # attenuated, biased copy

est = estimate_lag(a, b)
print(f"signal path: true lag {true_lag*1e3:.1f} ms, "
      f"estimated {est.lag_s*1e3:.2f} ms, confidence {est.confidence:.4f}")
print("(gain and offset do not matter: both sides are standardized first)\n")

# ===== 2. frames vs frames =====
# A bright disc sweeps left-right at 0.8 Hz over static clutter; the
# second camera sees the same scene 3 frames later.
FPS = 60.0


def render(n_frames, delay_s, seed):
    yy, xx = np.mgrid[0:64, 0:64]
    bg = np.random.default_rng(seed).uniform(30.0, 60.0, (64, 64))
    out = []
    for k in range(n_frames):
        tt = k / FPS - delay_s
        cx = 32.0 + 18.0 * math.sin(2 * math.pi * 0.8 * tt)
        d2 = (xx - cx) ** 2 + (yy - 32.0) ** 2
        out.append(bg + np.clip(200.0 - 2.0 * d2, 0.0, None))
    return out


cam_a = render(180, 0.0, seed=7)
cam_b = render(180, 3 / FPS, seed=7)
region = RegionSpec(0, 0, 64, 64, (1.0, 0.0))  # track horizontal motion, full frame

report = analyze_pair(cam_a, cam_b, region_a=region, region_b=region,
                      fps=FPS, block=8, radius=6)
print(f"frame path: true lag {3 / FPS * 1e3:.2f} ms, "
      f"estimated {report.estimate.lag_s*1e3:.2f} ms, "
      f"confidence {report.estimate.confidence:.3f}")
print(f"            source={report.source}, "
      f"aligned on {report.signal_a.samples.size} flow samples")

# ===== 3. when not to trust the number =====
rng = np.random.default_rng(11)
noise_a = MotionSignal(rng.normal(size=1000), rate)
noise_b = MotionSignal(rng.normal(size=1000), rate)
bogus = estimate_lag(noise_a, noise_b, max_lag_s=0.5)
print(f"\nunrelated noise: confidence {bogus.confidence:.3f}, "
      f"low_confidence={bogus.low_confidence}")
print("(downstream code should branch on low_confidence, not on the lag value)")
