"""Torque law, integrators, coupled-chain dynamics against a textbook
closed form, episode machinery, and the closed-form tracking analysis."""

import json
import math
import re

import numpy as np
import pytest

from extremctl.latency import MotionSignal, estimate_lag
from extremctl.plant import (
    DecoupledLinear,
    GainSchedule,
    Infeasible,
    NumericalBlowup,
    PlanarChain,
    actuator_torque,
    equivalent_delay,
    frequency_response,
    held_joint_q,
    make_sinusoid,
    max_feedforward_ratio,
    plant_from_dict,
    run_episode,
    simulate_delay_curve,
    step,
    zoh_interval_overshoot,
)


def unit_gains(omega_n=10.0, eta=0.0, n=1):
    return GainSchedule.from_impedance(
        m_eff=np.ones(n), omega_n=omega_n, zeta=1.0, eta=eta
    )


# ---------------------------------------------------------------- torque law


def test_torque_zero_at_equilibrium():
    gains = GainSchedule(kp=np.array([100.0]), kd=np.array([20.0]), eta=np.array([0.0]))
    tau = actuator_torque(np.array([0.4]), np.zeros(1), np.array([0.4]), np.array([0.0]), gains)
    assert tau[0] == 0.0


def test_torque_worked_value():
    # kp dq + eta kd qdot_t = 100*0.1 + 0.9*20*1 = 10 + 18
    gains = GainSchedule(kp=np.array([100.0]), kd=np.array([20.0]), eta=np.array([0.9]))
    tau = actuator_torque(np.zeros(1), np.zeros(1), np.array([0.1]), np.array([1.0]), gains)
    assert abs(tau[0] - 28.0) < 1e-12


def test_torque_eta_zero_is_plain_pd():
    rng = np.random.default_rng(0)
    gains = GainSchedule(kp=np.array([55.0, 80.0]), kd=np.array([7.0, 12.0]), eta=np.zeros(2))
    for _ in range(25):
        q = rng.normal(size=2)
        qd = rng.normal(size=2)
        q_t = rng.normal(size=2)
        qd_t = rng.normal(size=2)
        tau = actuator_torque(q, qd, q_t, qd_t, gains)
        ref = gains.kp * (q_t - q) - gains.kd * qd
        assert np.array_equal(tau, ref)


def test_feedforward_mask_gates_per_joint():
    gains = GainSchedule.from_impedance(m_eff=np.ones(2), omega_n=10.0, eta=[0.9, 0.0])
    assert np.array_equal(gains.eta, [0.9, 0.0])
    tau = actuator_torque(np.zeros(2), np.zeros(2), np.zeros(2), np.ones(2), gains)
    assert tau[0] > 0.0 and tau[1] == 0.0


# ---------------------------------------------------------------- integrator


def test_step_rest_stays_at_rest():
    plant = DecoupledLinear(inertia=np.array([1.0]))
    gains = GainSchedule(kp=np.array([0.0]), kd=np.array([0.0]), eta=np.array([0.0]))
    q, qdot = step(plant, np.array([0.7]), np.zeros(1), np.array([0.7]), np.array([0.0]), gains)
    assert np.array_equal(q, [0.7])
    assert np.array_equal(qdot, [0.0])


def test_step_constant_torque_ramps_velocity():
    # Re-aim the target every step so kp(q_t - q) stays exactly 4 N*m;
    # 1 s at M = 2 must end at qdot = 2.
    plant = DecoupledLinear(inertia=np.array([2.0]), physics_dt=1e-3)
    gains = GainSchedule(kp=np.array([400.0]), kd=np.array([0.0]), eta=np.array([0.0]))
    q = qdot = np.zeros(1)
    for _ in range(1000):
        q, qdot = step(plant, q, qdot, q + 4.0 / 400.0, np.array([0.0]), gains)
    assert abs(qdot[0] - 2.0) < 1e-3


def test_blowup_raises():
    plant = DecoupledLinear(inertia=np.array([1.0]), physics_dt=0.1)
    gains = GainSchedule(kp=np.array([1e6]), kd=np.array([0.0]), eta=np.array([0.0]))
    with pytest.raises(NumericalBlowup):
        run_episode(plant, gains, lambda t: (1.0, 0.0), 2.0, 0.1)


def step_loop(plant, gains, q_ticks, qdot_ticks, substeps, n_steps):
    """The reference integrator: `step` on arrays, one call per physics step."""
    q = qdot = np.zeros(plant.n_joints)
    want = np.empty((n_steps, plant.n_joints))
    for k in range(n_steps):
        i = k // substeps
        q, qdot = step(plant, q, qdot, q_ticks[i], qdot_ticks[i], gains)
        want[k] = q
    return want


def test_held_joint_q_equals_step_loop():
    """The float recurrence against its reference, step on arrays:
    bit-identical positions, including a last hold cut short and a
    2-joint plant with feedforward on one joint only."""
    rng = np.random.default_rng(8)
    substeps, n_steps = 20, 977
    n_ticks = -(-n_steps // substeps)
    q_ticks = np.cumsum(rng.normal(scale=0.05, size=(n_ticks, 2)), axis=0)
    qdot_ticks = rng.normal(size=(n_ticks, 2))
    for inertia, omega_n, zeta, eta in [([1.0], 10.0, 1.0, 0.0), ([2.5], 17.0, 0.6, 0.9),
                                        ([0.3], 40.0, 1.4, 1.0),
                                        ([1.0, 2.5], [10.0, 17.0], [1.0, 0.6], [0.0, 0.9])]:
        n = len(inertia)
        plant = DecoupledLinear(inertia=np.array(inertia), physics_dt=1e-3)
        gains = GainSchedule.from_impedance(np.array(inertia), omega_n, zeta, eta)
        args = (plant, gains, q_ticks[:, :n], qdot_ticks[:, :n], substeps, n_steps)
        got = held_joint_q(*args)
        assert got.shape == (n_steps, n)
        assert np.array_equal(got, step_loop(*args))
    with pytest.raises(NumericalBlowup, match="exceeded"):
        held_joint_q(DecoupledLinear(inertia=np.array([1.0]), physics_dt=0.1),
                     GainSchedule(kp=np.array([1e6]), kd=np.array([0.0]), eta=np.array([0.0])),
                     np.ones((1, 1)), np.zeros((1, 1)), 20, 20)


@pytest.mark.parametrize("gravity", [0.0, 9.81])
def test_chain_episode_equals_step_loop(gravity):
    """run_episode on a 2-link chain: targets sampled once per tick at
    t = k * dt, then a `step` loop, bit for bit."""
    plant = PlanarChain(masses=np.array([1.0, 0.3]), lengths=np.array([0.3, 0.2]),
                        gravity=gravity)
    gains = GainSchedule(kp=np.array([60.0, 20.0]), kd=np.array([8.0, 3.0]),
                         eta=np.array([0.9, 0.0]))
    ref = lambda t: (np.array([0.3 * math.sin(2.0 * t), 0.1]), np.array([0.6 * math.cos(2.0 * t), 0.0]))
    rec = run_episode(plant, gains, ref, 1.0, 0.02)
    ticks = [ref(i * 20 * 1e-3) for i in range(50)]
    q_ticks = np.array([q for q, _ in ticks])
    want = step_loop(plant, gains, q_ticks, np.array([qd for _, qd in ticks]), 20, 1000)
    assert np.array_equal(rec.q, want)
    assert np.array_equal(rec.q_target_held, np.repeat(q_ticks, 20, axis=0))
    assert np.array_equal(rec.t, np.arange(1000) * 1e-3 + 1e-3)  # time after step k


def test_position_only_episode_equals_step_loop_on_backward_differences():
    """A position-only reference gets target velocities that are backward
    differences of the held positions (0 on the first tick), and the
    episode equals a `step` loop fed them, with eta 0 on one joint next to
    eta 0.9 and 1.0 on the others."""
    plant = DecoupledLinear(inertia=np.array([1.0, 1.5, 0.7]), physics_dt=1e-3)
    gains = GainSchedule.from_impedance(np.ones(3), 10.0, 1.0, np.array([0.0, 0.9, 1.0]))
    ref = lambda t: np.array([0.3, -0.2, 0.5]) * math.sin(3.14 * t)
    rec = run_episode(plant, gains, ref, 2.0, 0.02)
    q_ticks = np.array([ref(i * 20 * 1e-3) for i in range(100)])
    qdot_ticks = np.zeros_like(q_ticks)
    for i in range(1, 100):
        qdot_ticks[i] = (q_ticks[i] - q_ticks[i - 1]) / 0.02
    assert np.array_equal(rec.q_target_held, np.repeat(q_ticks, 20, axis=0))
    assert np.array_equal(rec.q, step_loop(plant, gains, q_ticks, qdot_ticks, 20, 2000))


# ------------------------------------------------------------- planar chain


def textbook_two_link(q, qd, params):
    """Closed-form M, C, G of a planar 2-link arm in relative angles,
    straight out of a robotics textbook. Independent of the production
    formulation, which works in absolute link angles."""
    m1, m2, l1, lc1, lc2, i1, i2, g = params
    c2, s2 = math.cos(q[1]), math.sin(q[1])
    m11 = m1 * lc1**2 + i1 + m2 * (l1**2 + lc2**2 + 2 * l1 * lc2 * c2) + i2
    m12 = m2 * (lc2**2 + l1 * lc2 * c2) + i2
    m22 = m2 * lc2**2 + i2
    mass = np.array([[m11, m12], [m12, m22]])
    h = -m2 * l1 * lc2 * s2
    cor = np.array([[h * qd[1], h * (qd[0] + qd[1])], [-h * qd[0], 0.0]])
    grav = np.array(
        [
            (m1 * lc1 + m2 * l1) * g * math.cos(q[0])
            + m2 * lc2 * g * math.cos(q[0] + q[1]),
            m2 * lc2 * g * math.cos(q[0] + q[1]),
        ]
    )
    return mass, cor, grav


def test_chain_matches_textbook_two_link():
    m1, m2, l1, l2 = 1.4, 0.9, 0.35, 0.28
    lc1, lc2, i1, i2, g = 0.20, 0.11, 0.02, 0.008, 9.81
    chain = PlanarChain(
        masses=np.array([m1, m2]),
        lengths=np.array([l1, l2]),
        com=np.array([lc1, lc2]),
        inertia_com=np.array([i1, i2]),
        gravity=g,
    )
    params = (m1, m2, l1, lc1, lc2, i1, i2, g)
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = rng.uniform(-np.pi, np.pi, 2)
        qd = rng.uniform(-3.0, 3.0, 2)
        tau = rng.uniform(-5.0, 5.0, 2)
        mass, cor, grav = textbook_two_link(q, qd, params)
        assert np.abs(chain.mass_matrix(q) - mass).max() < 1e-12
        qdd_ref = np.linalg.solve(mass, tau - cor @ qd - grav)
        assert np.abs(chain.accel(q, qd, tau) - qdd_ref).max() < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_joint_terms_give_the_free_drift_momentum(n):
    """M qdot - dt h equals M (qdot + dt accel(q, qdot, 0)) on batched
    states, with gravity and explicit com offsets and inertias."""
    rng = np.random.default_rng(11 + n)
    chain = PlanarChain(
        masses=rng.uniform(0.2, 3.0, n),
        lengths=rng.uniform(0.1, 0.5, n),
        com=rng.uniform(0.03, 0.1, n),
        inertia_com=rng.uniform(0.001, 0.05, n),
        gravity=9.81,
    )
    q = rng.uniform(-np.pi, np.pi, (8, n))
    qd = rng.uniform(-3.0, 3.0, (8, n))
    dt = 1e-3
    mass, bias = chain.joint_terms(q, qd)
    assert mass.shape == (8, n, n) and bias.shape == (8, n)
    assert np.array_equal(mass, chain.mass_matrix(q))
    got = (mass @ qd[..., None])[..., 0] - dt * bias
    drift = qd + dt * chain.accel(q, qd, np.zeros((8, n)))
    want = (chain.mass_matrix(q) @ drift[..., None])[..., 0]
    assert np.abs(got - want).max() / np.abs(want).max() <= 1e-12


def test_chain_mass_matrix_spd():
    chain = PlanarChain(
        masses=np.array([2.0, 1.0, 0.5]), lengths=np.array([0.4, 0.3, 0.2])
    )
    rng = np.random.default_rng(3)
    for _ in range(30):
        mass = chain.mass_matrix(rng.uniform(-np.pi, np.pi, 3))
        assert np.abs(mass - mass.T).max() < 1e-12
        assert np.linalg.eigvalsh(mass).min() > 0.0


def test_chain_conserves_energy_unforced():
    chain = PlanarChain(masses=np.array([1.0, 0.6]), lengths=np.array([0.4, 0.3]))
    zero = GainSchedule(kp=np.zeros(2), kd=np.zeros(2), eta=np.zeros(2))
    q, qdot = np.array([0.3, -0.2]), np.array([1.0, -0.5])
    e0 = chain.energy(q, qdot)
    worst = 0.0
    for _ in range(10000):
        q, qdot = step(chain, q, qdot, q, np.zeros(2), zero)
        worst = max(worst, abs(chain.energy(q, qdot) - e0))
    assert worst / e0 < 1e-3


def test_chain_rejects_bad_geometry():
    with pytest.raises(ValueError):
        PlanarChain(masses=np.array([1.0, 2.0]), lengths=np.array([0.4]))
    with pytest.raises(ValueError):
        PlanarChain(masses=np.array([1.0, -2.0]), lengths=np.array([0.4, 0.3]))
    # a com or inertia_com of another length used to escape as an IndexError
    for field in ("com", "inertia_com"):
        with pytest.raises(ValueError, match="must hold one value per link"):
            PlanarChain(masses=np.array([1.0, 1.0]), lengths=np.array([0.4, 0.3]),
                        **{field: np.array([0.1])})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_chain_refuses_non_finite_masses_and_lengths(bad):
    with pytest.raises(ValueError, match=r"masses \[\s*(nan|inf)"):
        PlanarChain(masses=np.array([bad, 1.0]), lengths=np.array([0.4, 0.3]))
    with pytest.raises(ValueError, match=r"lengths \[0.4\s+(nan|inf)"):
        PlanarChain(masses=np.array([1.0, 1.0]), lengths=np.array([0.4, bad]))
    # gravity, com and inertia_com used to end as NoOscillation or as a
    # "gains must be non-negative" refusal far from the field at fault
    for field, value, named in [("gravity", bad, rf"^gravity {bad}"),
                                ("com", np.array([bad, 0.1]), rf"^com \[\s*{bad}"),
                                ("inertia_com", np.array([0.01, bad]), rf"^inertia_com \[0.01\s+{bad}")]:
        with pytest.raises(ValueError, match=named):
            PlanarChain(masses=np.array([1.0, 1.0]), lengths=np.array([0.4, 0.3]), **{field: value})


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_decoupled_refuses_non_finite_or_non_positive_inertia(bad):
    with pytest.raises(ValueError, match="inertia"):
        DecoupledLinear(inertia=np.array([1.0, bad]))


# ------------------------------------------------------------------ episodes


def test_constant_reference_settles_exactly():
    plant = DecoupledLinear(inertia=np.array([1.0]))
    rec = run_episode(plant, unit_gains(), lambda t: (0.5, 0.0), 3.0, 0.02)
    assert abs(rec.q[-1, 0] - 0.5) < 1e-9
    # the last step moves q by dt * qdot: |qdot| < 1e-8
    assert abs(rec.q[-1, 0] - rec.q[-2, 0]) < 1e-8 * 1e-3


def test_episode_eta_zero_bit_identical_to_pure_pd():
    """With the feedforward off, trajectories must match a hand-rolled
    plain-PD stepper bit for bit, not merely to a tolerance."""
    kp, kd, m, dt = 90.0, 19.0, 1.5, 1e-3
    plant = DecoupledLinear(inertia=np.array([m]), physics_dt=dt)
    gains = GainSchedule(kp=np.array([kp]), kd=np.array([kd]), eta=np.array([0.0]))
    ref = make_sinusoid(0.4, 2.0)
    rec = run_episode(plant, gains, ref, 2.0, 0.02)

    q = np.zeros(1)
    qd = np.zeros(1)
    held_q = held_qd = None
    for k in range(2000):
        if k % 20 == 0:
            hq, hqd = ref(k * dt)
            held_q, held_qd = np.array([hq]), np.array([hqd])
        tau = kp * (held_q - q) - kd * qd
        qd = qd + dt * (tau / m)
        q = q + dt * qd
        assert q[0] == rec.q[k, 0]


def test_episode_linearity():
    # Doubling (or any scaling of) the reference scales the response:
    # the decoupled plant plus PD plus feedforward is LTI.
    plant = DecoupledLinear(inertia=np.array([1.0]))
    gains = unit_gains(eta=0.5)
    scale = 3.7
    rec_a = run_episode(plant, gains, make_sinusoid(0.3, 3.14), 6.0, 0.02)
    rec_b = run_episode(plant, gains, make_sinusoid(0.3 * scale, 3.14), 6.0, 0.02)
    assert np.abs(scale * rec_a.q - rec_b.q).max() < 1e-9


def test_control_dt_must_divide_into_physics_steps():
    plant = DecoupledLinear(inertia=np.array([1.0]))
    with pytest.raises(ValueError):
        run_episode(plant, unit_gains(), lambda t: (0.0, 0.0), 1.0, 0.0015)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_episode_refuses_non_finite_or_non_positive_timing(bad):
    plant = DecoupledLinear(inertia=np.array([1.0]))
    with pytest.raises(ValueError, match=f"duration {bad}"):
        run_episode(plant, unit_gains(), lambda t: (0.0, 0.0), bad, 0.02)
    with pytest.raises(ValueError, match=f"control_dt {bad}"):
        run_episode(plant, unit_gains(), lambda t: (0.0, 0.0), 1.0, bad)
    for name in ("omega_n", "wave_omega", "duration", "control_dt"):
        with pytest.raises(ValueError, match=f"{name} {bad}"):
            simulate_delay_curve(**{"omega_n": 10.0, "etas": [0.0], name: bad})


def test_episode_record_shapes():
    plant = DecoupledLinear(inertia=np.array([1.0, 2.0]))
    rec = run_episode(plant, unit_gains(n=2), lambda t: (0.1, 0.0), 0.5, 0.01)
    assert rec.q.shape == (500, 2)
    assert rec.n_joints == 2
    assert rec.t[0] == pytest.approx(1e-3)
    assert rec.t[-1] == pytest.approx(0.5)


def test_energy_never_increases_under_damped_regulation():
    # Spring-plus-kinetic energy about the held target must decay
    # monotonically when only the PD acts.
    plant = DecoupledLinear(inertia=np.array([1.0]))
    gains = unit_gains()
    q, qdot = np.array([0.3]), np.array([2.0])
    prev = 0.5 * qdot[0] ** 2 + 0.5 * gains.kp[0] * (q[0] - 0.5) ** 2
    for _ in range(3000):
        q, qdot = step(plant, q, qdot, np.array([0.5]), np.array([0.0]), gains)
        energy = 0.5 * qdot[0] ** 2 + 0.5 * gains.kp[0] * (q[0] - 0.5) ** 2
        assert energy <= prev + 1e-9
        prev = energy


# ------------------------------------------------------- closed-form analysis


def test_frequency_response_dc_gain():
    mag, phase = frequency_response(unit_gains(eta=1.0), 1e-6)
    assert abs(mag[0] - 1.0) < 1e-9
    assert abs(phase[0]) < 1e-9


def test_frequency_response_at_natural_frequency():
    mag, _ = frequency_response(unit_gains(eta=1.0), 10.0)
    assert abs(mag[0] - math.sqrt(5.0) / 2.0) < 1e-12


def test_frequency_response_low_frequency_phase():
    _, phase = frequency_response(unit_gains(), 0.1)
    assert abs(phase[0] + 0.0200) < 1e-4
    assert abs(-phase[0] / 0.1 - 0.200) < 1e-3


def test_phase_continuous_through_natural_frequency():
    omegas = np.linspace(9.0, 11.0, 201)
    _, phase = frequency_response(unit_gains(), omegas)
    assert np.abs(np.diff(phase, axis=-1)).max() < 0.01


def test_frequency_response_input_validation():
    plain = GainSchedule(kp=np.array([100.0]), kd=np.array([20.0]), eta=np.array([0.0]))
    with pytest.raises(ValueError):
        frequency_response(plain, 1.0)
    undamped = GainSchedule.from_impedance(1.0, 10.0, zeta=0.0)
    negative = GainSchedule(kp=100.0, kd=14.0, eta=0.0, omega_n=10.0, zeta=-0.7)
    for gains, shown in ((undamped, "[0.]"), (negative, "[-0.7]")):
        with pytest.raises(ValueError, match=re.escape(f"zeta {shown} must be finite and positive")):
            frequency_response(gains, 1.0)
    with pytest.raises(ValueError):
        frequency_response(unit_gains(), -1.0)


def test_equivalent_delay_values():
    assert float(equivalent_delay(unit_gains(eta=0.0))[0]) == 0.2
    assert float(equivalent_delay(unit_gains(eta=1.0))[0]) == 0.0
    assert float(equivalent_delay(unit_gains(eta=0.9))[0]) == pytest.approx(0.02, abs=1e-12)
    per_joint = GainSchedule.from_impedance(m_eff=np.ones(2), omega_n=10.0, eta=[0.9, 0.0])
    assert np.allclose(equivalent_delay(per_joint), [0.02, 0.2], atol=1e-12)


def test_equivalent_delay_honours_zeta():
    """2 zeta (1 - eta) / omega_n against the lag measured on a slow drive
    (1 rad/s, 2 ms hold, omega_n = 10): 100 / 40 / 140 / 56 ms."""
    zeta = np.array([0.5, 0.5, 0.7, 0.7])
    eta = np.array([0.0, 0.6, 0.0, 0.6])
    gains = GainSchedule.from_impedance(m_eff=np.ones(4), omega_n=10.0, zeta=zeta, eta=eta)
    theory = equivalent_delay(gains)
    assert np.allclose(theory, [0.1, 0.04, 0.14, 0.056], atol=1e-12)
    plant = DecoupledLinear(inertia=np.ones(4), physics_dt=1e-3)
    rec = run_episode(plant, gains, make_sinusoid(0.3, 1.0), 12.0, 0.002)
    keep = rec.t >= 2.0
    for j in range(4):
        est = estimate_lag(
            MotionSignal(rec.q_target_held[keep, j], 1000.0),
            MotionSignal(rec.q[keep, j], 1000.0),
            max_lag_s=1.0,
        )
        assert abs(est.lag_s - theory[j]) < 2e-3


def test_low_frequency_delay_approaches_equivalent_delay():
    # At omega = omega_n / 100 the phase-derived delay and the simple
    # 2 (1 - eta) / omega_n forms should agree to well under a percent.
    for eta in (0.0, 0.3, 0.5, 0.9):
        gains = unit_gains(eta=eta)
        _, phase = frequency_response(gains, 0.1)
        delay = float(-phase[0] / 0.1)
        ell = float(equivalent_delay(gains)[0])
        assert abs(delay - ell) / ell < 0.01


@pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
def test_low_frequency_phase_delay_tends_to_equivalent_delay(zeta):
    """-phase/w approaches 2 zeta (1 - eta) / omega_n as w -> 0, with an
    error that shrinks like w**2 (one step of w / 10 cuts it ~100-fold)."""
    gains = GainSchedule.from_impedance(m_eff=np.ones(3), omega_n=10.0, zeta=zeta,
                                        eta=np.array([0.0, 0.5, 0.9]))
    ell = equivalent_delay(gains)
    assert np.allclose(ell, 2.0 * zeta * (1.0 - gains.eta) / 10.0, rtol=1e-15)
    errors = []
    for omega in (1e-1, 1e-2, 1e-3):
        _, phase = frequency_response(gains, omega)
        errors.append(np.abs(-phase / omega - ell) / ell)
    assert np.all(errors[-1] < 1e-5)
    assert np.all(errors[1] < errors[0] / 50) and np.all(errors[2] < errors[1] / 50)


def test_frequency_response_matches_the_loop_at_any_zeta():
    """Magnitude and phase are those of the complex transfer function
    (wn^2 + j 2 zeta eta wn w) / (wn^2 - w^2 + j 2 zeta wn w), with the
    phase unwrapped through omega_n."""
    zeta = np.array([0.3, 0.7, 2.0])
    gains = GainSchedule.from_impedance(m_eff=np.ones(3), omega_n=10.0, zeta=zeta,
                                        eta=np.array([0.2, 0.9, 0.5]))
    omegas = np.linspace(0.5, 40.0, 80)[:, None]
    mag, phase = frequency_response(gains, omegas)
    h = (100.0 + 2j * zeta * gains.eta * 10.0 * omegas) / (
        100.0 - omegas**2 + 2j * zeta * 10.0 * omegas)
    assert np.allclose(mag, np.abs(h), rtol=1e-12)
    assert np.allclose(phase, np.unwrap(np.angle(h), axis=0), atol=1e-12)


def test_max_feedforward_ratio_values():
    assert max_feedforward_ratio(10.0, 0.02) == 0.95
    assert max_feedforward_ratio(15.0, 0.02) == 0.925
    assert abs(max_feedforward_ratio(10.0, 1e-9) - 1.0) < 1e-7
    with pytest.raises(Infeasible):
        max_feedforward_ratio(10.0, 0.4)
    with pytest.raises(Infeasible):
        max_feedforward_ratio(200.0, 0.03)
    with pytest.raises(ValueError):
        max_feedforward_ratio(-1.0, 0.02)


def test_max_feedforward_ratio_honours_zeta():
    """1 - omega_n dt / (4 zeta): Infeasible from omega_n dt >= 4 zeta on,
    which takes in zeta = 0; a negative or non-finite zeta is refused."""
    assert max_feedforward_ratio(10.0, 0.02, zeta=0.5) == pytest.approx(0.9, abs=1e-15)
    assert max_feedforward_ratio(10.0, 0.02, zeta=2.0) == 0.975
    assert max_feedforward_ratio(10.0, 0.02, zeta=1.0) == max_feedforward_ratio(10.0, 0.02)
    for omega_n, dt, zeta in ((10.0, 0.2, 0.5), (10.0, 0.1, 0.2), (10.0, 0.02, 0.0)):
        with pytest.raises(Infeasible, match="no feasible feedforward ratio"):
            max_feedforward_ratio(omega_n, dt, zeta=zeta)
    for zeta, named in ((-0.5, "zeta -0.5 must be non-negative"),
                        (math.nan, "zeta nan must be a finite number")):
        with pytest.raises(ValueError, match=re.escape(named)):
            max_feedforward_ratio(10.0, 0.02, zeta=zeta)
        with pytest.raises(ValueError, match=re.escape(named)):
            zoh_interval_overshoot(10.0, 0.5, 0.02, zeta=zeta)


@pytest.mark.parametrize("zeta", [0.5, 0.7, 2.0])
def test_overshoot_changes_sign_at_the_generalized_bound(zeta):
    """With kd = 2 zeta omega_n the velocity excess is negative 0.01 below
    1 - omega_n dt / (4 zeta) and positive 0.01 above it."""
    bound = max_feedforward_ratio(10.0, 0.02, zeta=zeta)
    assert bound == pytest.approx(1.0 - 0.2 / (4.0 * zeta), abs=1e-15)
    assert zoh_interval_overshoot(10.0, bound - 0.01, 0.02, zeta=zeta) < 0.0
    assert zoh_interval_overshoot(10.0, bound + 0.01, 0.02, zeta=zeta) > 0.0


def test_overshoot_at_unit_zeta_equals_the_default():
    for eta in (0.0, 0.5, 0.9, 0.96, 1.0):
        default = zoh_interval_overshoot(10.0, eta, 0.02)
        assert zoh_interval_overshoot(10.0, eta, 0.02, zeta=1.0) == default


def test_overshoot_metric_sign_structure():
    """Velocity excess inside one hold interval stays negative up to the
    feasibility bound and turns positive past it."""
    below = [zoh_interval_overshoot(10.0, eta, 0.02) for eta in (0.0, 0.5, 0.9)]
    above = [zoh_interval_overshoot(10.0, eta, 0.02) for eta in (0.96, 1.0)]
    assert all(v < 0.0 for v in below)
    assert all(v > 0.0 for v in above)
    everything = below + above
    assert everything == sorted(everything)
    assert below[0] == pytest.approx(-1.9e-4, rel=0.05)
    assert above[-1] == pytest.approx(4.4e-3, rel=0.05)


@pytest.mark.parametrize("omega_n, eta, control_dt, named", [
    (10.0, 0.5, math.inf, "control_dt inf must be finite and positive"),
    (10.0, 0.5, math.nan, "control_dt nan must be finite and positive"),
    (10.0, 0.5, -0.02, "control_dt -0.02 must be finite and positive"),
    (10.0, 0.5, 0.0, "control_dt 0.0 must be finite and positive"),
    (math.nan, 0.5, 0.02, "omega_n nan must be finite and positive"),
    (-10.0, 0.5, 0.02, "omega_n -10.0 must be finite and positive"),
    (10.0, 1.5, 0.02, "eta 1.5 outside [0, 1]"),
    (10.0, -0.1, 0.02, "eta -0.1 outside [0, 1]"),
    (10.0, math.nan, 0.02, "eta nan must be a finite number"),
    (10.0, math.inf, 0.02, "eta inf must be a finite number"),
])
def test_overshoot_metric_refuses_inputs_outside_its_formula(omega_n, eta, control_dt, named):
    with pytest.raises(ValueError) as info:
        zoh_interval_overshoot(omega_n, eta, control_dt)
    assert str(info.value) == named


# ----------------------------------------------------- measured tracking lag


def test_measured_delay_matches_prediction_at_low_frequency():
    """Fine control rate (2 ms), drive well below omega_n: the measured
    lag of q behind the held target should sit within two physics steps
    of the phase-derived prediction."""
    plant = DecoupledLinear(inertia=np.ones(2), physics_dt=1e-3)
    gains = GainSchedule.from_impedance(
        m_eff=np.ones(2), omega_n=10.0, zeta=1.0, eta=np.array([0.0, 0.6])
    )
    for omega in (1.0, 2.5):
        rec = run_episode(plant, gains, make_sinusoid(0.3, omega), 12.0, 0.002)
        keep = rec.t >= 2.0
        _, phase = frequency_response(gains, omega)
        for j in range(2):
            est = estimate_lag(
                MotionSignal(rec.q_target_held[keep, j], 1000.0),
                MotionSignal(rec.q[keep, j], 1000.0),
                max_lag_s=1.0,
            )
            predicted = float(-phase[j] / omega)
            assert abs(est.lag_s - predicted) < 2e-3
            assert est.confidence > 0.99


def test_delay_curve_endpoints():
    # No feedforward: ~200 ms as derived. Deployment ratio 0.9: the
    # 20 ms prediction plus the 10 ms half-interval hold bias.
    points = simulate_delay_curve(10.0, [0.0, 0.9])
    by_eta = {p.eta: p for p in points}
    assert by_eta[0.0].theory_s == 0.2
    assert abs(by_eta[0.0].measured_s - 0.200) < 0.025
    assert abs(by_eta[0.9].measured_s - 0.030) < 0.015
    assert all(p.confidence > 0.95 for p in points)


# ------------------------------------------------------------- serialization


def test_gain_schedule_validation_and_synthesis():
    with pytest.raises(ValueError):
        GainSchedule(kp=np.array([-1.0]), kd=np.array([0.0]), eta=np.array([0.0]))
    with pytest.raises(ValueError):
        GainSchedule(kp=np.array([1.0]), kd=np.array([0.0]), eta=np.array([1.2]))
    with pytest.raises(ValueError):
        GainSchedule.from_impedance(m_eff=0.0, omega_n=10.0)
    gains = GainSchedule.from_impedance(m_eff=2.0, omega_n=10.0, zeta=1.0)
    assert gains.kp[0] == 200.0
    assert gains.kd[0] == 40.0


def test_from_impedance_worked_values():
    gains = GainSchedule.from_impedance(m_eff=1.0, omega_n=10.0, zeta=1.0)
    assert gains.kp[0] == 100.0 and gains.kd[0] == 20.0
    zero = GainSchedule.from_impedance(m_eff=1.0, omega_n=0.0)
    assert zero.kp[0] == 0.0 and zero.kd[0] == 0.0
    # quadratic / linear scaling in the target frequency, exactly
    double = GainSchedule.from_impedance(m_eff=1.0, omega_n=20.0, zeta=1.0)
    assert double.kp[0] / gains.kp[0] == 4.0 and double.kd[0] / gains.kd[0] == 2.0
    with pytest.raises(ValueError):
        GainSchedule.from_impedance(m_eff=0.0, omega_n=10.0)


def test_from_impedance_frequency_ratio_is_exact():
    # Same inertia estimate, two target frequencies: the kp ratio is a
    # pure number and must not pick up float noise.
    for m_bar in (0.37, 1.0, 12.9):
        hi = GainSchedule.from_impedance(m_bar, 15.0).kp[0]
        lo = GainSchedule.from_impedance(m_bar, 10.0).kp[0]
        assert float(hi / lo) == 2.25


def test_gain_schedule_refuses_nan_naming_value():
    nan = np.array([math.nan])
    with pytest.raises(ValueError, match=r"kp \[nan\]"):
        GainSchedule(kp=nan, kd=np.array([1.0]), eta=nan)
    with pytest.raises(ValueError, match=r"kd \[nan\]"):
        GainSchedule(kp=np.array([1.0]), kd=nan, eta=np.array([0.0]))
    with pytest.raises(ValueError, match=r"eta \[nan\]"):
        GainSchedule(kp=np.array([1.0]), kd=np.array([1.0]), eta=nan)
    with pytest.raises(ValueError, match=r"effective inertia \[nan\]"):
        GainSchedule.from_impedance(m_eff=math.nan, omega_n=10.0)
    # inf used to pass and end as NumericalBlowup (1e309 in a gain file)
    inf, one = np.array([math.inf]), np.array([1.0])
    with pytest.raises(ValueError, match=r"^kp \[inf\]"):
        GainSchedule(kp=inf, kd=one, eta=one)
    with pytest.raises(ValueError, match=r"^kd \[inf\]"):
        GainSchedule(kp=one, kd=inf, eta=one)
    with pytest.raises(ValueError, match=r"^kp \[inf\]"):
        GainSchedule.from_dict(json.loads('{"kp_nm_per_rad": [1e309], "kd_nms_per_rad": [1], "eta": [0]}'))
    for name in ("omega_n", "zeta"):
        with pytest.raises(ValueError, match=rf"^{name} \[nan\]"):
            GainSchedule(kp=one, kd=one, eta=one, **{name: nan})


def test_gain_schedule_round_trip():
    gains = GainSchedule.from_impedance(
        m_eff=np.array([1.5, 0.25]), omega_n=10.0, eta=np.array([0.9, 0.0])
    )
    d = gains.to_dict()
    assert "feedforward_enabled" not in d
    back = GainSchedule.from_dict(d)
    assert np.array_equal(back.kp, gains.kp)
    assert np.array_equal(back.kd, gains.kd)
    assert np.array_equal(back.eta, gains.eta)
    assert np.array_equal(back.omega_n, gains.omega_n)


def test_gain_file_feedforward_mask_reads_as_zero_eta():
    """Older gain files carry a per-joint enable mask; a joint switched off
    there loads with eta = 0, and a joint switched on keeps its eta."""
    d = {
        "kp_nm_per_rad": [100.0, 100.0],
        "kd_nms_per_rad": [20.0, 20.0],
        "eta": [0.9, 0.9],
        "feedforward_enabled": [True, False],
    }
    assert np.array_equal(GainSchedule.from_dict(d).eta, [0.9, 0.0])
    d["feedforward_enabled"] = [True, True]
    assert np.array_equal(GainSchedule.from_dict(d).eta, [0.9, 0.9])


def test_plant_round_trips():
    lin = DecoupledLinear(inertia=np.array([1.0, 2.5]), physics_dt=2e-3)
    back = plant_from_dict(lin.to_dict())
    assert isinstance(back, DecoupledLinear)
    assert np.array_equal(back.inertia, lin.inertia)
    assert back.physics_dt == lin.physics_dt

    chain = PlanarChain(
        masses=np.array([1.4, 0.9]), lengths=np.array([0.35, 0.28]),
        com=np.array([0.2, 0.11]), inertia_com=np.array([0.02, 0.008]),
        gravity=9.81,
    )
    back = plant_from_dict(chain.to_dict())
    assert isinstance(back, PlanarChain)
    q = np.array([0.3, -0.7])
    qd = np.array([0.5, 0.2])
    tau = np.array([1.0, -0.5])
    assert np.array_equal(back.accel(q, qd, tau), chain.accel(q, qd, tau))

    with pytest.raises(ValueError):
        plant_from_dict({"kind": "hydraulic"})


@pytest.mark.parametrize("key", ["joint_limits_rad", "gravity", "physics_dt"])
def test_plant_file_refuses_keys_to_dict_does_not_write(key):
    for plant in (DecoupledLinear(inertia=np.array([1.0])),
                  PlanarChain(masses=np.array([1.0]), lengths=np.array([0.3]))):
        d = plant.to_dict()
        plant_from_dict(d)
        d[key] = 9.81
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            plant_from_dict(d)


def test_make_sinusoid_forms():
    ref = make_sinusoid(0.3, 2.0)
    q_t, qd_t = ref(0.3)
    assert q_t == pytest.approx(0.3 * math.sin(0.6))
    assert qd_t == pytest.approx(0.6 * math.cos(0.6))


def test_at_rest_state():
    # An episode starts at rest at q = 0: held there, nothing moves (q
    # constant at 0 means dt * qdot = 0 on every step).
    rec = run_episode(DecoupledLinear(inertia=np.array([1.0, 2.0])), unit_gains(n=2),
                      lambda t: (0.0, 0.0), 0.1, 0.02)
    assert not np.any(rec.q)
