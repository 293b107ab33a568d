"""Free-oscillation inertia estimation and gain synthesis: oscillator
identities, a locked-proximal analytic oracle, known-mass recovery,
init-independence on a coupled chain, and the variance payoff of
averaging across parallel environments."""

import math

import numpy as np
import pytest

from extremctl.impedance import (
    CalibrationConfig,
    NoOscillation,
    calibrate_chain,
    estimate_meff,
    joint_order,
    measure_period,
)
from extremctl.plant import DecoupledLinear, GainSchedule, PlanarChain


def single_joint(mass, kp, kd=0.0):
    plant = DecoupledLinear(inertia=np.array([mass]), physics_dt=1e-3)
    gains = GainSchedule(kp=np.array([kp]), kd=np.array([kd]), eta=np.array([0.0]))
    return plant, gains


# ------------------------------------------------------- oscillator algebra


def test_estimate_meff_worked_values():
    assert estimate_meff(8.0, math.pi) == pytest.approx(2.0, rel=1e-12)
    assert estimate_meff(4.0 * math.pi**2, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert estimate_meff(100.0, 0.2) == pytest.approx(0.101321, abs=1e-6)
    with pytest.raises(ValueError):
        estimate_meff(100.0, 0.0)


# -------------------------------------------------------- period measurement


def test_measure_period_harmonic_oscillator():
    plant, gains = single_joint(2.0, 8.0)
    assert measure_period(plant, gains, 0) == pytest.approx(math.pi, abs=1e-5)


def test_measure_period_slow_oscillator_needs_longer_window():
    plant, gains = single_joint(2.0, 2.0)
    period = measure_period(plant, gains, 0, window=40.0)
    assert period == pytest.approx(2.0 * math.pi, abs=1e-5)


def test_measure_period_zeroes_target_damping_itself():
    plant, base = single_joint(2.0, 8.0)
    _, damped = single_joint(2.0, 8.0, kd=13.0)
    assert measure_period(plant, damped, 0) == measure_period(plant, base, 0)


def test_measure_period_short_window_raises():
    plant, gains = single_joint(2.0, 8.0)
    with pytest.raises(NoOscillation):
        measure_period(plant, gains, 0, window=2.0)


def test_measure_period_locked_proximal_limit():
    """Stiff proximal joint: the distal joint swings as a lone rod about
    its own pivot, so m l^2 / 3 is an analytic inertia oracle."""
    chain = PlanarChain(masses=np.array([1.5, 0.4]), lengths=np.array([0.30, 0.20]))
    gains = GainSchedule(
        kp=np.array([5000.0, 25.0]), kd=np.array([500.0, 0.0]), eta=np.zeros(2)
    )
    i_pivot = 0.4 * 0.20**2 / 3.0
    expected = 2.0 * math.pi * math.sqrt(i_pivot / 25.0)
    period = measure_period(chain, gains, 1, window=5.0)
    assert abs(period - expected) / expected < 0.05


def test_measure_period_gravity_pendulum_swings_about_its_sag():
    """A held rod under gravity sags to kp q_eq = -g m c cos(q_eq) and
    swings about q_eq with the linearized period 2 pi sqrt(I / (kp + h')),
    h' = -g m c sin(q_eq) the gravity stiffness there."""
    m, length, g, kp = 1.0, 0.3, 9.81, 4.0
    chain = PlanarChain(masses=np.array([m]), lengths=np.array([length]), gravity=g)
    gains = GainSchedule(kp=np.array([kp]), kd=np.array([0.0]), eta=np.array([0.0]))
    mgc = g * m * length / 2.0
    q_eq = 0.0
    for _ in range(50):  # Newton on kp q + m g c cos(q) = 0
        q_eq -= (kp * q_eq + mgc * math.cos(q_eq)) / (kp - mgc * math.sin(q_eq))
    assert q_eq < -0.3
    stiffness = kp - mgc * math.sin(q_eq)
    expected = 2.0 * math.pi * math.sqrt(m * length**2 / 3.0 / stiffness)
    period = measure_period(chain, gains, 0)
    assert abs(period - expected) / expected < 1e-3
    # Gravity stiffness beyond kp: the fixed point diverges, named by joint.
    weak = GainSchedule(kp=np.array([0.5]), kd=np.array([0.0]), eta=np.array([0.0]))
    with pytest.raises(NoOscillation, match="joint 0: .*equilibrium"):
        measure_period(chain, weak, 0)
    # The two-link chain sags ~0.3 rad, far beyond the 0.05 rad release.
    two = PlanarChain(masses=np.array([1.0, 0.3]), lengths=np.array([0.3, 0.2]), gravity=g)
    cal = calibrate_chain(two, CalibrationConfig(omega_n=10.0, sweeps=1, n_envs=2), seed=0)
    assert np.all(cal.gains.kp > 0)


def test_estimator_consistent_across_two_decades_of_kp():
    for kp in (8.0, 80.0, 800.0):
        plant, gains = single_joint(1.3, kp)
        window = 20.0 if kp < 20.0 else 10.0
        period = measure_period(plant, gains, 0, window=window)
        m_eff = float(estimate_meff(kp, period))
        assert abs(m_eff - 1.3) / 1.3 < 0.02


# ------------------------------------------------------------- calibration


def test_joint_order_distal_first_on_chains():
    chain = PlanarChain(masses=np.ones(3), lengths=np.array([0.3, 0.2, 0.1]))
    assert joint_order(chain) == [2, 1, 0]
    flat = DecoupledLinear(inertia=np.ones(3))
    assert joint_order(flat) == [0, 1, 2]


def test_calibration_recovers_known_masses():
    plant = DecoupledLinear(inertia=np.array([1.0, 2.0, 3.0]), physics_dt=1e-3)
    cal = calibrate_chain(plant, CalibrationConfig(omega_n=10.0), seed=4)
    m_true = np.array([1.0, 2.0, 3.0])
    m_rec = np.array([e.m_eff_mean for e in cal.estimates])
    assert np.all(np.abs(m_rec - m_true) / m_true < 0.02)
    assert np.all(np.abs(cal.gains.kp - m_true * 100.0) / (m_true * 100.0) < 0.04)
    assert cal.converged


def test_gain_synthesis_is_bit_exact():
    plant = DecoupledLinear(inertia=np.array([1.0, 2.0, 3.0]), physics_dt=1e-3)
    cal = calibrate_chain(plant, CalibrationConfig(omega_n=10.0), seed=4)
    m_rec = np.array([e.m_eff_mean for e in cal.estimates])
    assert np.array_equal(cal.gains.kp, m_rec * 100.0)
    assert np.array_equal(cal.gains.kd, m_rec * 20.0)
    assert all(cal.estimates[j].kp == cal.gains.kp[j] for j in range(3))


def test_seed_and_rng_paths_agree():
    plant = DecoupledLinear(inertia=np.array([1.0, 2.0]), physics_dt=1e-3)
    cfg = CalibrationConfig(omega_n=10.0)
    a = calibrate_chain(plant, cfg, seed=4)
    b = calibrate_chain(plant, cfg, rng=np.random.default_rng(4))
    assert np.array_equal(a.gains.kp, b.gains.kp)
    assert np.array_equal(a.gains.kd, b.gains.kd)


def test_single_sweep_reports_not_converged():
    chain = PlanarChain(masses=np.array([3.0, 0.3]), lengths=np.array([0.35, 0.16]))
    cal = calibrate_chain(chain, CalibrationConfig(omega_n=10.0, sweeps=1), seed=2)
    assert not cal.converged
    assert cal.sweeps_run == 1


def test_frequency_scaling_through_the_full_pipeline():
    # Same plant, same seed, two target frequencies. The recovered
    # inertias agree only up to integrator warp, so the kp ratio is
    # 2.25 to first order rather than exactly.
    plant = DecoupledLinear(inertia=np.array([1.0, 2.0]), physics_dt=1e-3)
    hi = calibrate_chain(plant, CalibrationConfig(omega_n=15.0), seed=8)
    lo = calibrate_chain(plant, CalibrationConfig(omega_n=10.0), seed=8)
    ratio = hi.gains.kp / lo.gains.kp
    assert np.all(np.abs(ratio - 2.25) < 1e-4)


def test_chain_kp_pinned_to_recorded_values():
    """One sweep on the four-link acceptance chain, seed 1, against
    values recorded from a substep that solved for the free acceleration
    and then for the damped velocity. One solve reorders the sums, so
    only the last bits may move."""
    chain = PlanarChain(
        masses=np.array([3.0, 0.3, 0.03, 0.003]),
        lengths=np.array([0.35, 0.16, 0.07, 0.032]),
        physics_dt=1e-3,
    )
    cal = calibrate_chain(chain, CalibrationConfig(omega_n=10.0, sweeps=1), seed=1)
    recorded = [18.76904680145245, 0.3931348306185615, 0.008067764502648855, 9.866566645123763e-05]
    np.testing.assert_allclose(cal.gains.kp, recorded, rtol=1e-12, atol=0)


def test_chain_probe_evaluates_dynamics_once_per_substep(monkeypatch):
    chain = PlanarChain(masses=np.array([1.5, 0.4]), lengths=np.array([0.30, 0.20]))
    gains = GainSchedule(kp=np.array([60.0, 25.0]), kd=np.array([12.0, 0.0]), eta=np.zeros(2))
    calls = {"joint_terms": 0, "mass_matrix": 0, "accel": 0, "solve": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("joint_terms", "mass_matrix", "accel"):
        counting(PlanarChain, name)
    counting(np.linalg, "solve")
    measure_period(chain, gains, 1, window=2.0)
    assert calls["accel"] == 0
    assert calls["solve"] > 0
    # mass_matrix (the substep-size bound at q0) is the only other evaluation.
    assert calls["joint_terms"] == calls["solve"] + calls["mass_matrix"]


def test_chain_calibration_independent_of_init(chain_calibration):
    """Two unrelated random initializations on a four-link chain with
    well-separated link inertias land on the same gains."""
    masses, lengths = (3.0, 0.3, 0.03, 0.003), (0.35, 0.16, 0.07, 0.032)
    cfg = CalibrationConfig(omega_n=10.0)
    a = chain_calibration(masses, lengths, 1e-3, cfg, 1)
    b = chain_calibration(masses, lengths, 1e-3, cfg, 2)
    rel = np.abs(a.gains.kp - b.gains.kp) / np.maximum(a.gains.kp, b.gains.kp)
    assert rel.max() < 0.05


def test_env_averaging_shrinks_estimate_scatter():
    """Repeated single-sweep calibrations from a fixed init: the spread
    of the mean inertia estimate with 16 environments must be well below
    the spread with 2 (root-N says 0.354; allow noise headroom)."""
    chain = PlanarChain(
        masses=np.array([1.0, 0.3]), lengths=np.array([0.3, 0.2]), physics_dt=2e-3
    )
    init = GainSchedule(
        kp=np.array([130.0, 4.0]), kd=np.array([26.0, 0.8]), eta=np.zeros(2)
    )
    rng = np.random.default_rng(99)
    m_bars = {2: [], 16: []}
    for _ in range(40):
        for n_envs in (2, 16):
            cfg = CalibrationConfig(
                omega_n=10.0, n_envs=n_envs, sweeps=1, measure_window=5.0
            )
            cal = calibrate_chain(chain, cfg, initial_gains=init, rng=rng)
            m_bars[n_envs].append([e.m_eff_mean for e in cal.estimates])
    spread_2 = np.std(np.array(m_bars[2]), axis=0)
    spread_16 = np.std(np.array(m_bars[16]), axis=0)
    assert np.all(spread_16 / spread_2 < 0.45)


# ---------------------------------------------------------------- validation


def test_config_validation():
    with pytest.raises(ValueError):
        CalibrationConfig(omega_n=0.0)
    with pytest.raises(ValueError):
        CalibrationConfig(omega_n=10.0, n_envs=1)
    with pytest.raises(ValueError):
        CalibrationConfig(omega_n=10.0, perturbation=0.0)
    # n_envs and sweeps are integers, never bools, refused naming the field
    for name, bad, named in [("n_envs", 2.5, "n_envs 2.5 must be an integer"),
                             ("sweeps", 1.5, "sweeps 1.5 must be an integer"),
                             ("sweeps", True, "sweeps True must be an integer, not a bool"),
                             ("n_envs", True, "n_envs True must be an integer, not a bool")]:
        with pytest.raises(ValueError) as info:
            CalibrationConfig(omega_n=10.0, **{name: bad})
        assert str(info.value) == named
    config = CalibrationConfig(omega_n=10.0, n_envs=np.int64(4), sweeps=np.int32(2))
    assert (type(config.n_envs), type(config.sweeps)) == (int, int)
    assert config == CalibrationConfig(omega_n=10.0, n_envs=4, sweeps=2)


@pytest.mark.parametrize(
    "name", ["omega_n", "zeta", "perturbation", "measure_window", "convergence_tol"]
)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_refuses_non_finite_field_naming_it(name, bad):
    fields = {"omega_n": 10.0, name: bad}
    with pytest.raises(ValueError, match=f"{name} {bad}"):
        CalibrationConfig(**fields)


def test_rejects_nonpositive_initial_kp():
    plant = DecoupledLinear(inertia=np.array([1.0]))
    bad = GainSchedule(kp=np.array([0.0]), kd=np.array([0.0]), eta=np.array([0.0]))
    with pytest.raises(ValueError):
        calibrate_chain(plant, CalibrationConfig(omega_n=10.0), initial_gains=bad)


def test_calibration_report_serializes():
    import json

    plant = DecoupledLinear(inertia=np.array([1.0, 2.0]), physics_dt=1e-3)
    cal = calibrate_chain(plant, CalibrationConfig(omega_n=10.0), seed=0)
    text = json.dumps(cal.to_dict())
    assert "m_eff_mean" in text
