"""Oscillation-based impedance calibration for joint chains.

Zeroing one joint's damping and releasing it from a small offset turns the
closed loop around that joint into a local oscillator

    M_eff q_dd = -kp (q - q0)

whose period P gives the effective inertia M_eff = kp P^2 / (2 pi)^2. The
number folds physical inertia and whole-body coupling into one scalar, so
gains synthesized from it (kp = M wn^2, kd = 2 zeta M wn) realize the target
natural frequency on the real coupled plant, not just on a bare link.

Joints are processed distal to proximal. Each measurement runs a batch of
parallel environments with the probe stiffness resampled per environment,
and the per-environment inertia estimates are averaged before the gain
update. Sweeps repeat until the gains stop moving.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ExtremControlError, finite, finite_positive
from .plant import GainSchedule, PlantModel, PlanarChain, NumericalBlowup, QDOT_BLOWUP

TWO_PI = 2.0 * np.pi

# Probe stiffness per environment is drawn uniformly from this range times
# the joint's current kp.
KP_SAMPLE_RANGE = (0.5, 1.5)


class NoOscillation(ExtremControlError):
    """Fewer than 3 zero crossings in the measurement window.

    Signals overdamped coupling, a too-small perturbation, or a window
    shorter than the oscillation period. Also raised when a held chain's
    rest pose under gravity cannot be found to release from.
    """


@dataclass(frozen=True)
class CalibrationConfig:
    """Knobs for calibrate_chain; defaults suit desk-scale plants."""

    omega_n: float
    zeta: float = 1.0
    n_envs: int = 16
    perturbation: float = 0.05  # rad, release offset
    measure_window: float = 10.0  # s
    sweeps: int = 3
    convergence_tol: float = 0.02  # max fractional kp change per sweep

    def __post_init__(self) -> None:
        for name in ("omega_n", "perturbation", "measure_window", "convergence_tol"):
            finite_positive(getattr(self, name), name)
        if finite(self.zeta, "zeta") < 0:
            raise ValueError(f"zeta {self.zeta} must be non-negative")
        if self.n_envs < 2:
            raise ValueError(f"n_envs {self.n_envs} must be at least 2")
        if self.sweeps < 1:
            raise ValueError(f"sweeps {self.sweeps} must be at least 1")


@dataclass
class ImpedanceEstimate:
    """One joint's measurement batch and the gains synthesized from it."""

    joint: int
    kp_samples: np.ndarray  # probe stiffness per environment
    periods: np.ndarray  # s per environment
    m_eff_samples: np.ndarray  # kg*m^2 per environment
    m_eff_mean: float
    kp: float
    kd: float

    def to_dict(self) -> dict:
        return {
            "joint": self.joint,
            "kp_samples_nm_per_rad": self.kp_samples.tolist(),
            "periods_s": self.periods.tolist(),
            "m_eff_samples_kg_m2": self.m_eff_samples.tolist(),
            "m_eff_mean_kg_m2": self.m_eff_mean,
            "kp_nm_per_rad": self.kp,
            "kd_nms_per_rad": self.kd,
        }


@dataclass
class ChainCalibration:
    """Result of calibrate_chain: final gains plus per-joint evidence."""

    gains: GainSchedule
    estimates: list[ImpedanceEstimate]
    converged: bool
    sweeps_run: int
    history: list[np.ndarray] = field(default_factory=list)  # kp after each sweep

    def to_dict(self) -> dict:
        return {
            "gains": self.gains.to_dict(),
            "converged": self.converged,
            "sweeps_run": self.sweeps_run,
            "joints": [e.to_dict() for e in self.estimates],
            "history_kp_nm_per_rad": [h.tolist() for h in self.history],
        }


def estimate_meff(kp_sample, period):
    """Invert the oscillator identity: M_eff = kp P^2 / (2 pi)^2."""
    period = finite_positive(np.asarray(period, dtype=float), "period")
    return np.asarray(kp_sample, dtype=float) * period**2 / TWO_PI**2


def _crossing_periods(z: np.ndarray, dt: float) -> tuple[int, np.ndarray]:
    """Zero-crossing count and same-direction periods of one trace.

    Crossing times are linearly interpolated between samples. Periods come
    from successive upward crossings (downward if fewer than two upward
    exist, which can happen when the window ends mid-cycle).
    """
    a, b = z[:-1], z[1:]
    up = np.nonzero((a <= 0) & (b > 0))[0]
    dn = np.nonzero((a >= 0) & (b < 0))[0]

    def times(idx: np.ndarray) -> np.ndarray:
        frac = a[idx] / (a[idx] - b[idx])
        return (idx + frac) * dt

    n_crossings = up.size + dn.size
    source = up if up.size >= 2 else dn
    periods = np.diff(times(source)) if source.size >= 2 else np.empty(0)
    return n_crossings, periods


def _average_period(periods: np.ndarray) -> float:
    # Skip the first (transient) cycle when more than one is available,
    # then average up to the next five.
    if periods.size >= 2:
        periods = periods[1:6]
    return float(np.mean(periods))


def _measure_periods_batched(
    plant: PlantModel,
    gains: GainSchedule,
    joint: int,
    kp_samples: np.ndarray,
    dq: float,
    window: float,
    q0: np.ndarray,
) -> np.ndarray:
    """Release-from-rest periods for one joint across E environments.

    The target joint runs spring-only at the sampled stiffness; every other
    joint stays under its current full PD loop holding q0. Under gravity
    the held chain sags, so each environment is released from its own
    static equilibrium and oscillates about it. Returns one period per
    environment.
    """
    n = plant.n_joints
    n_envs = kp_samples.shape[0]
    dt = plant.physics_dt
    steps = int(round(window / dt))

    kp = np.tile(gains.kp, (n_envs, 1))
    kd = np.tile(gains.kd, (n_envs, 1))
    kp[:, joint] = kp_samples
    kd[:, joint] = 0.0

    # Joint damping integrates implicitly (solved at the new velocity), the
    # same way physics engines keep arbitrarily large kd stable; the spring
    # stays explicit so measured frequencies are undistorted. Substep only
    # for the stiffness eigenrate at q0 (whitened by the mass matrix, since
    # inertia coupling raises it beyond any per-joint kp/M ratio).
    is_chain = isinstance(plant, PlanarChain)
    mass0 = plant.mass_matrix(q0) if is_chain else np.diag(plant.inertia)
    white = np.linalg.inv(np.linalg.cholesky(mass0))
    omega_max = float(
        np.sqrt(np.linalg.eigvalsh(white @ np.diag(kp.max(axis=0)) @ white.T).max())
    )
    substeps = max(1, int(np.ceil(dt * omega_max / 0.2)))
    dt_sub = dt / substeps

    q = np.tile(q0, (n_envs, 1))
    if is_chain and plant.gravity != 0.0:
        q = _held_equilibrium(plant, kp, q, joint)
    q_eq = q[:, joint].copy()
    q[:, joint] += dq
    qdot = np.zeros((n_envs, n))
    # Loop invariants: the implicit damping term of each substep's solve.
    if is_chain:
        damping = dt_sub * (np.eye(n) * kd[:, :, None])
    else:
        damped_inertia = plant.inertia + dt_sub * kd

    trace = np.empty((steps + 1, n_envs))
    trace[0] = dq
    up_count = np.zeros(n_envs, dtype=int)
    counted = 0  # up_count holds the upward crossings into trace rows 1..counted
    done = 0
    for k in range(steps):
        for _ in range(substeps):
            tau_s = kp * (q0 - q)
            if is_chain:
                # M (qdot + dt qdd_free) = M qdot - dt h: one evaluation,
                # one solve at the new velocity.
                mass_q, bias = plant.joint_terms(q, qdot)
                rhs = (mass_q @ qdot[..., None])[..., 0] + dt_sub * (tau_s - bias)
                qdot = np.linalg.solve(mass_q + damping, rhs[..., None])[..., 0]
            else:
                qdot = (plant.inertia * qdot + dt_sub * tau_s) / damped_inertia
            q = q + dt_sub * qdot
        trace[k + 1] = q[:, joint] - q_eq
        done = k + 2
        if k % 200 == 199:
            if not np.all(np.isfinite(q)) or np.any(np.abs(qdot) > QDOT_BLOWUP):
                raise NumericalBlowup("calibration probe diverged")
            a, b = trace[counted : done - 1], trace[counted + 1 : done]
            up_count += np.count_nonzero((a <= 0) & (b > 0), axis=0)
            counted = done - 1
            # 7 upward crossings bound the 1-skip + 5-average period rule.
            if np.all(up_count >= 7):
                break

    periods = np.empty(n_envs)
    for e in range(n_envs):
        n_crossings, p = _crossing_periods(trace[:done, e], dt)
        if n_crossings < 3 or p.size == 0:
            raise NoOscillation(
                f"joint {joint}, env {e}: {n_crossings} zero crossings in {window} s window"
            )
        periods[e] = _average_period(p)
    return periods


def _held_equilibrium(
    plant: PlanarChain, kp: np.ndarray, q0: np.ndarray, joint: int
) -> np.ndarray:
    """Rest pose kp (q0 - q) = h(q, 0) of a chain held about q0 under gravity,
    by the fixed point q <- q0 - h(q, 0) / kp to 1e-12 rad in 1000 steps."""
    q, zero = q0, np.zeros_like(q0)
    for _ in range(1000):
        q_next = q0 - plant.joint_terms(q, zero)[1] / kp
        if np.all(np.abs(q_next - q) <= 1e-12):  # NaN fails it
            return q_next
        q = q_next
    raise NoOscillation(f"joint {joint}: held chain's equilibrium under gravity did not converge")


def measure_period(
    plant: PlantModel,
    gains: GainSchedule,
    joint: int,
    window: float = 10.0,
) -> float:
    """Free-oscillation period of one joint, damping removed.

    The joint is released 0.05 rad from the zero configuration, which the
    other joints hold (under gravity, from the held chain's sagged rest
    pose). Its kd is zeroed internally; gains already carrying
    kd = 0 on the target joint pass through unchanged. Raises NoOscillation
    when the window captures fewer than 3 zero crossings.
    """
    periods = _measure_periods_batched(
        plant, gains, joint, np.asarray([gains.kp[joint]]), 0.05, window, np.zeros(plant.n_joints)
    )
    return float(periods[0])


def joint_order(plant: PlantModel) -> list[int]:
    """Measurement order: strictly by kinematic distance from the base,
    farthest first; ties broken by joint index."""
    n = plant.n_joints
    if isinstance(plant, PlanarChain):
        return list(range(n - 1, -1, -1))
    return list(range(n))  # independent joints: all tied, index order


def calibrate_chain(
    plant: PlantModel,
    config: CalibrationConfig,
    initial_gains: GainSchedule | None = None,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> ChainCalibration:
    """Sequential distal-to-proximal impedance calibration.

    Each sweep measures every joint once: zero its kd, release it
    config.perturbation from the zero configuration (under gravity, from
    the held chain's sagged rest pose), observe oscillation
    periods across n_envs environments with probe stiffness drawn from
    KP_SAMPLE_RANGE times the joint's current kp, average the resulting
    inertias, and refresh (kp, kd) in place so later (more proximal)
    joints are measured against already-calibrated distal loops. Stops
    early once the largest fractional kp change over a sweep drops below
    convergence_tol; otherwise runs config.sweeps and returns
    converged=False.
    """
    n = plant.n_joints
    if rng is None:
        rng = np.random.default_rng(seed)
    q0 = np.zeros(n)

    if initial_gains is None:
        # Random init scaled to each joint's locked-others inertia: the
        # spread (x0.5..x1.5 around the nominal synthesis) is what the
        # sweeps must iron out, while the magnitude stays physical the way
        # a first guess derived from a mass model would.
        if isinstance(plant, PlanarChain):
            m_local = np.diagonal(plant.mass_matrix(q0)).copy()
        else:
            m_local = plant.inertia
        initial_gains = GainSchedule(
            kp=rng.uniform(0.5, 1.5, n) * m_local * config.omega_n**2,
            kd=rng.uniform(0.5, 1.5, n) * 2.0 * config.zeta * m_local * config.omega_n,
            eta=np.zeros(n),
        )
    finite_positive(initial_gains.kp, "initial kp")

    kp = initial_gains.kp.copy()
    kd = initial_gains.kd.copy()
    lo, hi = KP_SAMPLE_RANGE
    order = joint_order(plant)

    estimates: dict[int, ImpedanceEstimate] = {}
    history: list[np.ndarray] = []
    converged = False
    sweeps_run = 0
    for _ in range(config.sweeps):
        sweeps_run += 1
        kp_before = kp.copy()
        for j in order:
            gains = GainSchedule(kp=kp, kd=kd, eta=np.zeros(n))
            kp_samples = rng.uniform(lo * kp[j], hi * kp[j], config.n_envs)
            periods = _measure_periods_batched(
                plant, gains, j, kp_samples, config.perturbation, config.measure_window, q0
            )
            m_samples = estimate_meff(kp_samples, periods)
            m_bar = float(np.mean(m_samples))
            synth = GainSchedule.from_impedance(m_bar, config.omega_n, config.zeta)
            kp[j], kd[j] = float(synth.kp[0]), float(synth.kd[0])
            estimates[j] = ImpedanceEstimate(
                joint=j,
                kp_samples=kp_samples,
                periods=periods,
                m_eff_samples=m_samples,
                m_eff_mean=m_bar,
                kp=kp[j],
                kd=kd[j],
            )
        history.append(kp.copy())
        if np.max(np.abs(kp - kp_before) / kp_before) < config.convergence_tol:
            converged = True
            break

    m_bar_all = np.array([estimates[j].m_eff_mean for j in range(n)])
    final = GainSchedule.from_impedance(
        m_eff=m_bar_all, omega_n=config.omega_n, zeta=config.zeta, eta=np.zeros(n)
    )
    return ChainCalibration(
        gains=final,
        estimates=[estimates[j] for j in range(n)],
        converged=converged,
        sweeps_run=sweeps_run,
        history=history,
    )
