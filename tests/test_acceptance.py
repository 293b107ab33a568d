"""Release gate: nine checks with pinned tolerances, one printed
[PASS]/[FAIL] line each (use -s to see the lines for passing tests).

Every check runs in under a minute on a laptop.
"""

import cmath
import math
import struct

import numpy as np
import pytest

from conftest import IDENTITY, make_links, quat_angle, random_links
from extremctl.impedance import CalibrationConfig, calibrate_chain
from extremctl.latency import RegionSpec, analyze_pair
from extremctl.mapping import LINKS, LinkSet, RobotModel, calibrate, map_frame
from extremctl.pipeline import (
    PipelineConfig,
    fit_latency_line,
    latency_budget,
    run_pipeline,
    run_pipeline_sweep,
)
from extremctl.plant import (
    DecoupledLinear,
    PlanarChain,
    max_feedforward_ratio,
    simulate_delay_curve,
    zoh_interval_overshoot,
)
from extremctl.se3 import qconj, qmul
from extremctl.wire import (
    BadMagic,
    BadVersion,
    FRAME_SIZE,
    NonUnitQuaternion,
    PoseFrame,
    ShortRead,
    decode_frame,
    encode_frame,
)

ETAS = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9]


def _line(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def test_01_delay_curve_matches_prediction():
    # measured correlation delay vs 2(1-eta)/omega_n, within half a hold
    # period plus 5 ms; the slowest point must land in 180..230 ms
    tol_s = 0.02 / 2 + 0.005
    worst = 0.0
    slowest = None
    for omega_n in (10.0, 15.0):
        for p in simulate_delay_curve(omega_n=omega_n, etas=ETAS,
                                      control_dt=0.02, wave_omega=3.14):
            worst = max(worst, abs(p.measured_s - p.theory_s))
            if omega_n == 10.0 and p.eta == 0.0:
                slowest = p.measured_s
    ok = worst <= tol_s and 0.180 <= slowest <= 0.230
    _line(ok, "01 delay curve", f"max |measured-theory| {worst*1e3:.2f} ms "
          f"(tol {tol_s*1e3:.0f}); eta=0 point {slowest*1e3:.1f} ms in [180, 230]")
    assert worst <= tol_s
    assert 0.180 <= slowest <= 0.230


def _phase_delay(omega_n: float, eta: float, omega: float) -> float:
    """-arg H(j omega) / omega for the zeta = 1 loop in the plant docstring,
    H(s) = (wn^2 + 2 eta wn s) / (s^2 + 2 wn s + wn^2)."""
    s = 1j * omega
    h = (omega_n**2 + 2.0 * eta * omega_n * s) / (s**2 + 2.0 * omega_n * s + omega_n**2)
    return -cmath.phase(h) / omega


def test_02_delay_upturn_at_full_feedforward():
    # At full feedforward the per-interval overshoot turns positive, but the
    # delay does not turn up: eta enters H(s) only through the numerator,
    # whose phase rises strictly with eta, so the phase delay at the drive
    # frequency falls strictly to eta=1. The eta=1 delay is that phase, not
    # the hold (a 2 ms hold gives the same). Tolerance: a quarter of the hold
    # period; the 1 ms physics step reads ~1.2 ms under the reference.
    omega_n, dt, omega = 10.0, 0.02, 3.14
    pts = simulate_delay_curve(omega_n=omega_n, etas=[0.9, 1.0],
                               control_dt=dt, wave_omega=omega)
    d09, d10 = (p.measured_s for p in pts)
    ref09, ref10 = (_phase_delay(omega_n, eta, omega) for eta in (0.9, 1.0))
    tol_s = dt / 4
    ov09 = zoh_interval_overshoot(10.0, 0.9, 0.02)
    ov10 = zoh_interval_overshoot(10.0, 1.0, 0.02)
    ok = (abs(d09 - ref09) <= tol_s and abs(d10 - ref10) <= tol_s
          and d10 < d09 and ov09 < 0.0 < ov10)
    _line(ok, "02 full-feedforward delay and overshoot",
          f"delay {d09*1e3:.1f} -> {d10*1e3:.1f} ms vs phase delay "
          f"{ref09*1e3:.1f} -> {ref10*1e3:.1f} ms (tol {tol_s*1e3:.0f}); "
          f"interval overshoot {ov09:+.1e} -> {ov10:+.1e} (positive: {ov10 > 0})")
    assert ov09 < 0.0 < ov10
    assert abs(d09 - ref09) <= tol_s
    assert abs(d10 - ref10) <= tol_s
    assert d10 < d09


def test_03_feedforward_upper_bound_exact():
    got = max_feedforward_ratio(10.0, 0.02)
    _line(got == 0.95, "03 feedforward bound", f"max ratio at (10 rad/s, 20 ms) = {got!r}")
    assert got == 0.95


def test_04_calibration_insensitive_to_initial_gains():
    chain = PlanarChain(masses=np.array([3.0, 0.3, 0.03, 0.003]),
                        lengths=np.array([0.35, 0.16, 0.07, 0.032]),
                        physics_dt=1e-3)
    cfg = CalibrationConfig(omega_n=10.0)
    kps = np.array([calibrate_chain(chain, cfg, seed=s).gains.kp for s in (1, 2, 3, 4, 5)])
    spread = float(((kps.max(axis=0) - kps.min(axis=0)) / kps.mean(axis=0)).max())

    lin = DecoupledLinear(inertia=np.array([1.0, 2.0, 3.0]), physics_dt=1e-3)
    cal = calibrate_chain(lin, cfg, seed=4)
    m_rec = np.array([e.m_eff_mean for e in cal.estimates])
    mass_err = float((np.abs(m_rec - [1.0, 2.0, 3.0]) / [1.0, 2.0, 3.0]).max())

    ok = spread < 0.05 and mass_err < 0.02
    _line(ok, "04 calibration consistency",
          f"kp spread over 5 inits {spread*1e2:.2f}% (< 5%); "
          f"known-mass error {mass_err*1e2:.4f}% (< 2%)")
    assert spread < 0.05
    assert mass_err < 0.02


def test_05_gain_scaling_with_natural_frequency():
    lin = DecoupledLinear(inertia=np.array([1.3]), physics_dt=1e-3)
    kp10 = calibrate_chain(lin, CalibrationConfig(omega_n=10.0), seed=8).gains.kp[0]
    kp15 = calibrate_chain(lin, CalibrationConfig(omega_n=15.0), seed=8).gains.kp[0]
    err = abs(kp15 / kp10 - 2.25) / 2.25
    _line(err < 0.01, "05 gain scaling", f"kp(15)/kp(10) = {kp15/kp10:.6f} "
          f"vs 2.25, rel err {err:.2e} (< 1%)")
    assert err < 0.01


def test_06_mapping_reproduces_neutral_and_ignores_body_scale():
    robot = RobotModel(
        pelvis_height=0.75,
        pelvis_to_torso=(0.05, 0.0, 0.25),
        shoulder_offset={"left": (0.02, 0.18, 0.05), "right": (0.02, -0.18, 0.05)},
        arm_length={"left": 0.45, "right": 0.45},
        neutral_foot={"left": (0.0, 0.12, 0.03), "right": (0.0, -0.12, 0.03)},
    )
    rows = [[0.0, 0.0, 1.0, *IDENTITY],  # pelvis
            [0.0, 0.0, 1.0, *IDENTITY],  # torso
            [0.6, 0.2, 1.3, *IDENTITY],  # left_hand
            [0.6, -0.2, 1.3, *IDENTITY],  # right_hand
            [0.0, 0.1, 0.02, *IDENTITY],  # left_foot
            [0.0, -0.1, 0.02, *IDENTITY]]  # right_foot
    human = make_links(rows)
    prof = calibrate(human, robot)
    out = map_frame(prof, human)
    want = robot.neutral_links()
    terr = np.abs(out.array[:, :3] - want.array[:, :3]).max()
    # angle between unit quaternions a, b: the magnitude of a* b
    turns = [qmul(qconj(a), b) for a, b in zip(out.array[:, 3:].tolist(), want.array[:, 3:].tolist())]
    rerr = max(map(quat_angle, turns))

    hand = rows[LINKS.index("right_hand")]
    hand[:3] = np.add(hand[:3], [0.1, -0.05, 0.12]).tolist()
    moved = make_links(rows)
    ref = map_frame(prof, moved)

    def grow(links):
        a = links.array.copy()
        a[:, :3] *= 1.37
        return LinkSet.from_array(a)

    out_s = map_frame(calibrate(grow(human), robot), grow(moved))
    serr = np.abs(out_s.array[:, :3] - ref.array[:, :3]).max()

    ok = terr < 1e-9 and rerr < 1e-9 and serr < 1e-9
    _line(ok, "06 mapping consistency",
          f"neutral reproduction {terr:.1e} m / {rerr:.1e} rad; "
          f"body-scale invariance {serr:.1e} m (all < 1e-9)")
    assert terr < 1e-9 and rerr < 1e-9
    assert serr < 1e-9


def _render_view(n_frames, fps, delay_s, seed):
    """Bright disc reciprocating at 0.8 Hz over per-view static clutter."""
    yy, xx = np.mgrid[0:64, 0:64]
    bg = np.random.default_rng(seed).uniform(30.0, 60.0, (64, 64))
    frames = []
    for k in range(n_frames):
        t = k / fps - delay_s
        cx = 32.0 + 18.0 * math.sin(2 * math.pi * 0.8 * t)
        d2 = (xx - cx) ** 2 + (yy - 32.0) ** 2
        frames.append(bg + np.clip(200.0 - 2.0 * d2, 0.0, None))
    return frames


def test_07_latency_recovered_from_rendered_views():
    true_lag = 4 / 60.0  # four frames at 60 fps
    region = RegionSpec(0, 0, 64, 64, (1.0, 0.0))
    lags = []
    for seed in (10, 11):
        ref = _render_view(180, 60.0, 0.0, seed)
        delayed = _render_view(180, 60.0, true_lag, seed)
        rep = analyze_pair(ref, delayed, region_a=region, region_b=region,
                           fps=60.0, block=8, radius=6)
        lags.append(rep.estimate.lag_s)
    err = max(abs(l - true_lag) for l in lags)
    gap = abs(lags[0] - lags[1])
    half_frame = 0.5 / 60.0
    frame = 1.0 / 60.0
    ok = err <= half_frame and gap <= frame
    _line(ok, "07 latency fidelity",
          f"recovered {lags[0]*1e3:.2f} / {lags[1]*1e3:.2f} ms vs {true_lag*1e3:.2f}; "
          f"worst err {err*1e3:.2f} ms (<= 8.33); view gap {gap*1e3:.2f} ms (<= 16.67)")
    assert err <= half_frame
    assert gap <= frame


def test_08_pipeline_budget_accounting():
    base = latency_budget(run_pipeline(PipelineConfig(duration_s=6.0, seed=5)))
    slow = latency_budget(run_pipeline(PipelineConfig(duration_s=6.0, seed=5,
                                                      network_delay_s=0.03)))
    shift = slow.overall_ms - base.overall_ms

    controls = [latency_budget(rec).control_ms
                for rec in run_pipeline_sweep(PipelineConfig(duration_s=6.0, seed=5), ETAS)]
    decreasing = all(a > b for a, b in zip(controls, controls[1:]))

    x = np.array([20.0, 50.0, 80.0, 110.0, 140.0, 170.0, 200.0])
    fit = fit_latency_line(x, 0.58 * x + 32.0)
    fit_ok = (abs(fit.slope - 0.58) / 0.58 < 0.01
              and abs(fit.intercept_ms - 32.0) / 32.0 < 0.01
              and fit.r_squared > 0.999)

    ok = abs(shift - 30.0) <= 5.0 and decreasing and fit_ok
    _line(ok, "08 pipeline budget",
          f"30 ms injection shifts overall by {shift:.2f} ms (30 +- 5); "
          f"control sweep decreasing: {decreasing}; "
          f"line fit {fit.slope:.4f}x + {fit.intercept_ms:.2f}, r2 {fit.r_squared:.6f}")
    assert abs(shift - 30.0) <= 5.0
    assert decreasing
    assert fit_ok


def test_09_codec_round_trip_and_malformed_input():
    rng = np.random.default_rng(2024)
    n = 100_000
    for i in range(n):
        links = random_links(rng)
        frame = PoseFrame(
            seq=int(rng.integers(0, 2**32)),
            timestamp_ns=int(rng.integers(0, 2**64, dtype=np.uint64)),
            links=links,
        )
        wire = encode_frame(frame)
        back = decode_frame(wire)
        assert encode_frame(back) == wire
        assert back.seq == frame.seq and back.timestamp_ns == frame.timestamp_ns

    good = encode_frame(frame)
    bad_magic = bytearray(good)
    bad_magic[:4] = b"YCTL"
    with pytest.raises(BadMagic):
        decode_frame(bytes(bad_magic))
    bad_version = bytearray(good)
    bad_version[4] = 9
    with pytest.raises(BadVersion):
        decode_frame(bytes(bad_version))
    with pytest.raises(ShortRead):
        decode_frame(good[: FRAME_SIZE - 1])
    skewed = bytearray(good)
    struct.pack_into("<4d", skewed, 17 + 24, 0.5, 0.0, 0.0, 0.0)
    with pytest.raises(NonUnitQuaternion):
        decode_frame(bytes(skewed))
    with pytest.raises(ValueError):
        PoseFrame(seq=2**32, timestamp_ns=0, links=frame.links)
    with pytest.raises(ValueError):
        PoseFrame(seq=0, timestamp_ns=-1, links=frame.links)

    _line(True, "09 codec", f"{n} random frames round-trip bit exact; "
          "five malformed-input rejections verified")
