"""Gain calibration by listening to the joint ring.

No torque sensors, no CAD inertia export: release each joint with a small
offset, count oscillation crossings to get the period, invert the
oscillator identity for the effective inertia, and synthesize PD gains
for the target closed-loop response. Done distal to proximal so each
joint is tuned before it has to serve as the base for the next.

Run:  python3 demos/03_impedance_calibration.py   (~3 s)
"""

import numpy as np

from extremctl.impedance import CalibrationConfig, calibrate_chain, joint_order
from extremctl.plant import PlanarChain

np.set_printoptions(precision=4, suppress=True)

# ===== 1. a 2-link arm we pretend not to know =====
chain = PlanarChain(
    masses=np.array([3.0, 0.3]),
    lengths=np.array([0.35, 0.16]),
    physics_dt=1e-3,
)
print("plant: 2-link chain, masses", chain.masses, "kg, lengths", chain.lengths, "m")
print("calibration order (distal first):", list(joint_order(chain)))

config = CalibrationConfig(omega_n=10.0, zeta=1.0, n_envs=16, sweeps=3)

# ===== 2. run it twice from unrelated random initial gains =====
results = {seed: calibrate_chain(chain, config, seed=seed) for seed in (1, 2)}
for seed, res in results.items():
    print(f"\nseed {seed}: converged={res.converged} after {res.sweeps_run} sweep(s)")
    for k, kp in enumerate(res.history):
        print(f"  after sweep {k + 1}: kp = {kp}")
    print("  final kp:", res.gains.kp)
    print("  final kd:", res.gains.kd)
    print("  effective inertias:", np.array([e.m_eff_mean for e in res.estimates]), "kg m^2")

# ===== 3. the answers must not depend on where we started =====
kp_a, kp_b = (results[s].gains.kp for s in (1, 2))
spread = np.abs(kp_a - kp_b) / np.maximum(kp_a, kp_b)
print("\nper-joint relative disagreement between the two runs:", spread)

# ===== 4. sanity anchor: the distal joint alone is a textbook pendulum =====
# With the proximal joint held, link 2 is a rod pivoting at its joint:
# I = m l^2 / 3, so kp should be near I * omega_n^2.
i_rod = chain.masses[1] * chain.lengths[1] ** 2 / 3.0
print("\nrod-about-pivot inertia of link 2:", i_rod, "kg m^2")
print("kp it predicts:", i_rod * config.omega_n**2,
      " vs calibrated:", kp_a[1])
print("(the small gap is the coupling the calibration measures and CAD would miss)")
