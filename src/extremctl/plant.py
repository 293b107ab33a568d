"""Joint-space plants under PD control with velocity feedforward.

The control law per joint is

    tau = kp * (q_t - q) - kd * qdot + eta * kd * qdot_t

with gains derived from a target impedance: kp = M * omega_n^2,
kd = 2 * zeta * M * omega_n. eta in [0, 1] trades tracking delay against
overshoot; the closed loop behaves like

    H(s) = (omega_n^2 + 2 zeta eta omega_n s) / (s^2 + 2 zeta omega_n s + omega_n^2)

whose low-frequency group delay is 2 zeta (1 - eta) / omega_n. eta = 0 on
a joint is plain PD there.

Two plants are provided: independent linear joints (q_dd = tau / M) and a
planar serial chain with full Lagrangian dynamics (configuration-dependent
mass matrix, Coriolis/centrifugal terms, optional gravity). Integration is
semi-implicit Euler at a fixed physics step; control targets are held
zero-order between control ticks.

held_joint_q is the one integrator of the law under held targets: a `step`
loop on a chain, `step`'s float operations per joint on decoupled joints.
run_episode (simulate, delay-curve) and the pipeline both call it. `step`
broadcasts over a leading batch dimension, so environments run in lockstep.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ExtremControlError, entry, finite, finite_positive, json_object, number, numbers

QDOT_BLOWUP = 1e6

# Seconds of settling transient trimmed before a tracking lag is measured
# (simulate_delay_curve here, pipeline.latency_budget).
SETTLE_S = 2.0


class NumericalBlowup(ExtremControlError):
    """Integration produced non-finite state or |qdot| beyond 1e6 rad/s, or
    a gain synthesized from finite inputs overflowed."""


class Infeasible(ExtremControlError):
    """No feedforward ratio in [0, 1] satisfies the requested bound."""


@dataclass(frozen=True, eq=False)
class GainSchedule:
    """Per-joint PD gains with a feedforward ratio (eta = 0: no feedforward).

    kp in N*m/rad, kd in N*m*s/rad. omega_n/zeta record the impedance the
    gains were derived from (needed by the frequency-domain helpers); they
    are None for raw hand-set gains.
    """

    kp: np.ndarray
    kd: np.ndarray
    eta: np.ndarray
    omega_n: np.ndarray | None = None
    zeta: np.ndarray | None = None

    def __post_init__(self) -> None:
        kp = np.atleast_1d(np.asarray(self.kp, dtype=float))
        kd = np.broadcast_to(np.asarray(self.kd, dtype=float), kp.shape).copy()
        eta = np.broadcast_to(np.asarray(self.eta, dtype=float), kp.shape).copy()
        finite(kp, "kp")
        finite(kd, "kd")
        if not (np.all(kp >= 0) and np.all(kd >= 0)):
            raise ValueError(f"gains must be non-negative, got kp {kp} kd {kd}")
        if not (np.all(eta >= 0) and np.all(eta <= 1)):  # NaN fails it too
            raise ValueError(f"eta {eta} outside [0, 1]")
        object.__setattr__(self, "kp", kp)
        object.__setattr__(self, "kd", kd)
        object.__setattr__(self, "eta", eta)
        for name in ("omega_n", "zeta"):
            v = getattr(self, name)
            if v is not None:
                v = finite(np.broadcast_to(np.asarray(v, dtype=float), kp.shape).copy(), name)
                object.__setattr__(self, name, v)

    @staticmethod
    def from_impedance(
        m_eff: Union[float, np.ndarray],
        omega_n: Union[float, np.ndarray],
        zeta: Union[float, np.ndarray] = 1.0,
        eta: Union[float, np.ndarray] = 0.0,
    ) -> "GainSchedule":
        """Gains realizing the target impedance: kp = M w^2, kd = 2 zeta M w;
        a gain that overflows raises NumericalBlowup."""
        m_eff = finite_positive(np.atleast_1d(np.asarray(m_eff, dtype=float)), "effective inertia")
        omega_n = np.broadcast_to(np.asarray(omega_n, dtype=float), m_eff.shape)
        zeta_b = np.broadcast_to(np.asarray(zeta, dtype=float), m_eff.shape)
        kp, kd = m_eff * omega_n**2, 2.0 * zeta_b * m_eff * omega_n
        if np.isinf(kp).any() or np.isinf(kd).any():
            raise NumericalBlowup(f"non-finite gains kp {kp} kd {kd} from omega_n {omega_n}")
        return GainSchedule(
            kp=kp,
            kd=kd,
            eta=np.broadcast_to(np.asarray(eta, dtype=float), m_eff.shape),
            omega_n=omega_n,
            zeta=zeta_b,
        )

    def to_dict(self) -> dict:
        d = {
            "kp_nm_per_rad": self.kp.tolist(),
            "kd_nms_per_rad": self.kd.tolist(),
            "eta": self.eta.tolist(),
        }
        if self.omega_n is not None:
            d["omega_n_rad_s"] = self.omega_n.tolist()
        if self.zeta is not None:
            d["zeta"] = self.zeta.tolist()
        return d

    @staticmethod
    def from_dict(d: dict) -> "GainSchedule":
        """Schedule from its to_dict form (or an older file's); others are refused."""
        where = "gain schedule"
        json_object(d, where, _GAIN_KEYS)
        v = {k: numbers(value, k) for k, value in d.items() if k != "feedforward_enabled"}
        eta = entry(v, "eta", where)
        if "feedforward_enabled" in d:
            # older gain files carry a per-joint enable mask: off means eta = 0
            mask = d["feedforward_enabled"]
            if type(mask) is not list or set(map(type, mask)) - {bool}:
                raise ValueError("feedforward_enabled must be a list of true and false")
            eta = np.where(mask, eta, 0.0)
        return GainSchedule(kp=entry(v, "kp_nm_per_rad", where), kd=entry(v, "kd_nms_per_rad", where),
                            eta=eta, omega_n=v.get("omega_n_rad_s"), zeta=v.get("zeta"))


@dataclass(frozen=True)
class DecoupledLinear:
    """Independent double-integrator joints: q_dd = tau / inertia."""

    inertia: np.ndarray  # kg*m^2 per joint
    physics_dt: float = 1e-3

    def __post_init__(self) -> None:
        inertia = np.atleast_1d(np.asarray(self.inertia, dtype=float))
        object.__setattr__(self, "inertia", finite_positive(inertia, "inertia"))
        _check_dt(self.physics_dt)

    @property
    def n_joints(self) -> int:
        return self.inertia.shape[0]

    def accel(self, q: np.ndarray, qdot: np.ndarray, tau: np.ndarray) -> np.ndarray:
        return tau / self.inertia

    def to_dict(self) -> dict:
        return {"kind": "decoupled_linear", "inertia_kg_m2": self.inertia.tolist(),
                "physics_dt_s": self.physics_dt}


@dataclass(frozen=True)
class PlanarChain:
    """Serial planar manipulator with full Lagrangian dynamics.

    Links are uniform rods by default (com at mid-length, rod inertia
    m l^2 / 12 about the com); com offsets and com inertias can be given
    explicitly. Each joint angle is measured from the previous link;
    gravity (m/s^2, pulling along -y of the plane) defaults to zero.
    """

    masses: np.ndarray  # kg per link
    lengths: np.ndarray  # m per link
    com: np.ndarray | None = None  # m from the parent joint, default lengths/2
    inertia_com: np.ndarray | None = None  # kg*m^2 about the com, default rod
    gravity: float = 0.0
    physics_dt: float = 1e-3

    # precomputed coefficient tables (set in __post_init__)
    _beta: np.ndarray = field(init=False, repr=False, compare=False)
    _inertia_mat: np.ndarray = field(init=False, repr=False, compare=False)
    _gamma: np.ndarray = field(init=False, repr=False, compare=False)
    _lower: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = np.atleast_1d(np.asarray(self.masses, dtype=float))
        l = np.atleast_1d(np.asarray(self.lengths, dtype=float))
        if m.shape != l.shape or m.ndim != 1:
            raise ValueError("masses and lengths must be 1-d arrays of equal length")
        com = l / 2.0 if self.com is None else np.asarray(self.com, dtype=float)
        icom = m * l**2 / 12.0 if self.inertia_com is None else np.asarray(self.inertia_com, dtype=float)
        if com.shape != m.shape or icom.shape != m.shape:
            raise ValueError(f"com {com} and inertia_com {icom} must hold one value per link")
        finite_positive(m, "masses")
        finite_positive(l, "lengths")
        finite(com, "com")
        finite(icom, "inertia_com")
        finite(self.gravity, "gravity")
        _check_dt(self.physics_dt)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "lengths", l)
        object.__setattr__(self, "com", com)
        object.__setattr__(self, "inertia_com", icom)

        # Kinetic energy in absolute link angles th_i = sum_{j<=i} q_j is
        #   T = 1/2 sum_jk (beta_jk cos(th_j - th_k) + I_j delta_jk) thd_j thd_k
        # with beta_jk = sum_{i >= max(j,k)} m_i a_j^i a_k^i, where a_j^i is
        # l_j for j < i and com_i for j = i (lever arms to link i's com).
        n = m.shape[0]
        arm = np.zeros((n, n))  # arm[i, j] = a_j^(i)
        for i in range(n):
            arm[i, :i] = l[:i]
            arm[i, i] = com[i]
        beta = np.einsum("i,ij,ik->jk", m, arm, arm)
        gamma = np.einsum("i,ij->j", m, arm)  # gravity lever sums
        object.__setattr__(self, "_beta", beta)
        object.__setattr__(self, "_inertia_mat", np.diag(icom))
        object.__setattr__(self, "_gamma", gamma)
        # th = L q with L lower ones; L^T is a reverse cumulative sum.
        object.__setattr__(self, "_lower", np.tril(np.ones((n, n))))

    @property
    def n_joints(self) -> int:
        return self.masses.shape[0]

    def _theta_terms(self, q: np.ndarray, qdot: np.ndarray):
        th = np.cumsum(q, axis=-1)
        thd = np.cumsum(qdot, axis=-1)
        diff = th[..., :, None] - th[..., None, :]
        mass = self._beta * np.cos(diff) + self._inertia_mat
        return th, thd, mass, diff

    def accel(self, q: np.ndarray, qdot: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Forward dynamics q_dd = M(q)^-1 (tau - C(q, qd) qd - g(q)).

        Solved in absolute-angle coordinates, where the Coriolis/
        centrifugal vector collapses to sum_k beta_jk sin(th_j - th_k)
        thd_k^2 and joint torques map through differences.
        """
        th, thd, mass, diff = self._theta_terms(q, qdot)
        coriolis = np.einsum("...jk,...k->...j", self._beta * np.sin(diff), thd**2)
        grav = self.gravity * self._gamma * np.cos(th)
        # tau_theta = L^-T tau: adjacent differences (last joint unchanged).
        rhs = tau.copy()
        rhs[..., :-1] -= tau[..., 1:]
        rhs = rhs - coriolis - grav
        thdd = np.linalg.solve(mass, rhs[..., None])[..., 0]
        qdd = thdd.copy()
        qdd[..., 1:] -= thdd[..., :-1]
        return qdd

    def joint_terms(self, q: np.ndarray, qdot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Joint-space mass matrix and bias torque from one evaluation.

        Returns (M, h) with M = L^T M_theta L and h = L^T (c + g), where c
        and g are the Coriolis/centrifugal and gravity terms in absolute
        angles and L is lower ones, so M q_dd = tau - h. Batched like accel.
        """
        th, thd, mass, diff = self._theta_terms(q, qdot)
        bias = np.einsum("...jk,...k->...j", self._beta * np.sin(diff), thd**2)
        bias = bias + self.gravity * self._gamma * np.cos(th)
        lower = self._lower
        return lower.T @ mass @ lower, bias[..., ::-1].cumsum(axis=-1)[..., ::-1]

    def mass_matrix(self, q: np.ndarray) -> np.ndarray:
        """Joint-space mass matrix M(q) = L^T M_theta L (L = lower ones)."""
        q = np.asarray(q, dtype=float)
        return self.joint_terms(q, np.zeros_like(q))[0]

    def energy(self, q: np.ndarray, qdot: np.ndarray) -> float:
        """Total mechanical energy (kinetic + gravity potential), joules."""
        th, thd, mass, _ = self._theta_terms(np.asarray(q, dtype=float), np.asarray(qdot, dtype=float))
        kinetic = 0.5 * float(thd @ mass @ thd)
        potential = self.gravity * float(self._gamma @ np.sin(th))
        return kinetic + potential

    def to_dict(self) -> dict:
        return {
            "kind": "planar_chain",
            "link_masses_kg": self.masses.tolist(),
            "link_lengths_m": self.lengths.tolist(),
            "com_m": self.com.tolist(),
            "inertia_com_kg_m2": self.inertia_com.tolist(),
            "gravity_m_s2": self.gravity,
            "physics_dt_s": self.physics_dt,
        }


PlantModel = Union[DecoupledLinear, PlanarChain]

# The keys GainSchedule.to_dict writes, plus the older per-joint mask.
_GAIN_KEYS = {"kp_nm_per_rad", "kd_nms_per_rad", "eta", "omega_n_rad_s", "zeta",
              "feedforward_enabled"}

# The keys each kind's to_dict writes; a plant file may hold no others.
_PLANT_KEYS = {
    "decoupled_linear": {"kind", "inertia_kg_m2", "physics_dt_s"},
    "planar_chain": {"kind", "link_masses_kg", "link_lengths_m", "com_m",
                     "inertia_com_kg_m2", "gravity_m_s2", "physics_dt_s"},
}
# The plant keys holding one number; every other key but "kind" holds a list.
_PLANT_SCALARS = {"gravity_m_s2", "physics_dt_s"}


def plant_from_dict(d: dict) -> PlantModel:
    """Plant from its to_dict form; a key to_dict does not write is refused."""
    kind = json_object(d, "plant").get("kind")
    if kind not in _PLANT_KEYS:
        raise ValueError(f"unknown plant kind {kind!r}")
    where = f"{kind} plant"
    json_object(d, where, _PLANT_KEYS[kind])
    v = {k: (number if k in _PLANT_SCALARS else numbers)(value, k)
         for k, value in d.items() if k != "kind"}
    physics_dt = v.get("physics_dt_s", 1e-3)
    if kind == "decoupled_linear":
        return DecoupledLinear(inertia=entry(v, "inertia_kg_m2", where), physics_dt=physics_dt)
    return PlanarChain(
        masses=entry(v, "link_masses_kg", where),
        lengths=entry(v, "link_lengths_m", where),
        com=v.get("com_m"),
        inertia_com=v.get("inertia_com_kg_m2"),
        gravity=v.get("gravity_m_s2", 0.0),
        physics_dt=physics_dt,
    )


def _check_dt(dt: float) -> None:
    if not (0.0 < dt <= 0.1):
        raise ValueError(f"physics_dt {dt} outside (0, 0.1] s")


def actuator_torque(
    q: np.ndarray, qdot: np.ndarray, q_t: np.ndarray, qdot_t: np.ndarray, gains: GainSchedule
) -> np.ndarray:
    """PD torque with per-joint velocity feedforward."""
    tau = gains.kp * (q_t - q) - gains.kd * qdot
    eta = gains.eta
    if np.any(eta != 0.0):
        tau = tau + eta * gains.kd * qdot_t
    return tau


def step(
    plant: PlantModel,
    q: np.ndarray,
    qdot: np.ndarray,
    q_t: np.ndarray,
    qdot_t: np.ndarray,
    gains: GainSchedule,
) -> tuple[np.ndarray, np.ndarray]:
    """One semi-implicit Euler step at the plant's physics rate: (q, qdot).

    Velocity updates from the acceleration first, position from the new
    velocity. Raises NumericalBlowup on non-finite state or runaway
    velocity.
    """
    tau = actuator_torque(q, qdot, q_t, qdot_t, gains)
    qdot = qdot + plant.physics_dt * plant.accel(q, qdot, tau)
    q = q + plant.physics_dt * qdot
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qdot))):
        raise NumericalBlowup("non-finite joint state")
    if np.any(np.abs(qdot) > QDOT_BLOWUP):
        raise NumericalBlowup(f"|qdot| exceeded {QDOT_BLOWUP:g} rad/s")
    return q, qdot


def held_joint_q(
    plant: PlantModel,
    gains: GainSchedule,
    q_ticks: np.ndarray,
    qdot_ticks: np.ndarray,
    substeps: int,
    n_steps: int,
) -> np.ndarray:
    """Positions (n_steps, n) of an n-joint plant, from rest, under held targets.

    Row i of the (n_ticks, n) ticks, (q_ticks[i], qdot_ticks[i]), is held
    for physics steps i * substeps up to (i + 1) * substeps; n_steps steps
    run in all. A PlanarChain runs a `step` loop. Decoupled joints do not
    interact, so each runs alone as `step` on Python floats instead of
    arrays: the same operations in the same order, so q equals a `step`
    loop bit for bit, with the same NumericalBlowup checks after every step.
    """
    n = plant.n_joints
    out = np.empty((n_steps, n))  # before any step: an unallocatable run fails at once
    if isinstance(plant, PlanarChain):
        q = qdot = np.zeros(n)
        for k in range(n_steps):
            i = k // substeps
            q, qdot = step(plant, q, qdot, q_ticks[i], qdot_ticks[i], gains)
            out[k] = q
        return out

    dt, bound, inf = plant.physics_dt, QDOT_BLOWUP, math.inf
    kps, kds, etas = (np.broadcast_to(g, (n,)).tolist() for g in (gains.kp, gains.kd, gains.eta))
    for j in range(n):
        inertia, kp, kd, eta = float(plant.inertia[j]), kps[j], kds[j], etas[j]
        q_col, qdot_col = q_ticks[:, j].tolist(), qdot_ticks[:, j].tolist()
        q = qdot = 0.0
        col = array("d")  # unboxed: no float object per step
        for i in range(-(-n_steps // substeps)):
            q_t = q_col[i]
            feedforward = eta * kd * qdot_col[i]
            for _ in range(min(substeps, n_steps - i * substeps)):
                tau = kp * (q_t - q) - kd * qdot
                if eta != 0.0:
                    tau = tau + feedforward
                qdot = qdot + dt * (tau / inertia)
                q = q + dt * qdot
                # Comparisons with NaN are False, so NaN fails both ranges.
                if not (-bound <= qdot <= bound and -inf < q < inf):
                    if not (math.isfinite(q) and math.isfinite(qdot)):
                        raise NumericalBlowup("non-finite joint state")
                    raise NumericalBlowup(f"|qdot| exceeded {QDOT_BLOWUP:g} rad/s")
                col.append(q)
        out[:, j] = np.frombuffer(col)
    return out


Reference = Callable[[float], Union[np.ndarray, float, tuple]]


def make_sinusoid(amplitude: float, omega: float) -> Reference:
    """Sinusoidal joint reference A sin(w t) with its analytic velocity."""
    return lambda t: (amplitude * math.sin(omega * t), amplitude * omega * math.cos(omega * t))


@dataclass
class EpisodeRecord:
    """Physics-rate run_episode output; row k is after step k, at t[k] = k * dt + dt."""

    t: np.ndarray
    q_target_held: np.ndarray  # ZOH target the controller saw
    q: np.ndarray

    @property
    def n_joints(self) -> int:
        return self.q.shape[1]


def run_episode(
    plant: PlantModel,
    gains: GainSchedule,
    reference: Reference,
    duration: float,
    control_dt: float,
) -> EpisodeRecord:
    """Closed-loop episode from rest at q = 0 with zero-order-held targets.

    The reference callable maps time to either (q_t, qdot_t) or positions
    only; in the latter case target velocities are backward finite
    differences of the held positions over the control period, which is
    all a deployed target stream can offer. control_dt must be an integer
    multiple of the plant's physics step. The reference is sampled once per
    control tick, at t = k * physics_dt for k = i * substeps; held_joint_q
    then integrates.
    """
    finite_positive(duration, "duration")
    finite_positive(control_dt, "control_dt")
    n = plant.n_joints
    dt = plant.physics_dt
    substeps = control_dt / dt
    if abs(substeps - round(substeps)) > 1e-9 or round(substeps) < 1:
        raise ValueError(f"control_dt {control_dt} not a multiple of physics_dt {dt}")
    substeps = int(round(substeps))
    n_steps = int(round(duration / dt))

    t = np.arange(n_steps) * dt + dt  # before any sampling: an unallocatable run fails at once
    q_ticks = np.empty((-(-n_steps // substeps), n))
    qdot_ticks = np.empty_like(q_ticks)
    for i in range(q_ticks.shape[0]):
        out = reference(i * substeps * dt)
        if isinstance(out, tuple):
            q_ticks[i], qdot_ticks[i] = out
        else:
            q_ticks[i] = out
            qdot_ticks[i] = 0.0 if i == 0 else (q_ticks[i] - q_ticks[i - 1]) / control_dt
    return EpisodeRecord(
        t=t,
        q_target_held=np.repeat(q_ticks, substeps, axis=0)[:n_steps],
        q=held_joint_q(plant, gains, q_ticks, qdot_ticks, substeps, n_steps),
    )


def frequency_response(gains: GainSchedule, omega: Union[float, np.ndarray]):
    """Closed-loop magnitude and phase (radians) at drive frequency omega.

    Valid for critically damped impedance-derived gains (zeta = 1); phase
    is continued through omega = omega_n via atan2. Returns per-joint
    arrays shaped like broadcast(omega, joints).
    """
    if gains.omega_n is None or gains.zeta is None:
        raise ValueError("frequency_response needs impedance-derived gains (omega_n, zeta)")
    if not np.allclose(gains.zeta, 1.0):
        raise ValueError(f"frequency_response assumes zeta = 1, got {gains.zeta}")
    omega = finite_positive(np.asarray(omega, dtype=float), "omega")
    wn = gains.omega_n
    eta = gains.eta
    num = wn**2 + 1j * 2.0 * eta * wn * omega
    den = wn**2 - omega**2 + 1j * 2.0 * wn * omega
    mag = np.abs(num) / np.abs(den)
    phase = np.arctan2(2.0 * eta * omega, wn) - np.arctan2(2.0 * wn * omega, wn**2 - omega**2)
    # First term written as atan2(2 eta (w/wn), 1) == atan(2 eta w / wn).
    return mag, phase


def equivalent_delay(gains: GainSchedule) -> np.ndarray:
    """Low-frequency tracking delay 2 zeta (1 - eta) / omega_n, seconds."""
    if gains.omega_n is None or gains.zeta is None:
        raise ValueError("equivalent_delay needs impedance-derived gains (omega_n, zeta)")
    return 2.0 * gains.zeta * (1.0 - gains.eta) / gains.omega_n


def max_feedforward_ratio(omega_n: float, control_dt: float) -> float:
    """Largest eta that avoids intra-interval overshoot under ZOH targets.

    The hold makes the proportional term fight a stale target for half a
    period on average; staying at or below 1 - omega_n * control_dt / 4
    keeps the net torque from accelerating the joint beyond the commanded
    velocity. Raises Infeasible when omega_n * control_dt >= 4 (no valid
    ratio). Derived for critical damping, zeta = 1 (kd = 2 omega_n per
    unit inertia); the bound does not hold for other damping ratios.
    """
    finite_positive(omega_n, "omega_n")
    finite_positive(control_dt, "control_dt")
    if omega_n * control_dt >= 4.0:
        raise Infeasible(
            f"omega_n * control_dt = {omega_n * control_dt:g} >= 4: no feasible feedforward ratio"
        )
    return 1.0 - omega_n * control_dt / 4.0


def zoh_interval_overshoot(omega_n: float, eta: float, control_dt: float) -> float:
    """Per-interval overshoot metric for zero-order-held targets.

    Simulates a single hold interval, in 1e-5 s steps, for a unit-inertia
    joint that starts at the commanded velocity qdot_t = 1, displaced
    behind the held target by the mean ZOH deviation qdot_t * dt / 2, and
    returns the peak velocity excess (qdot - qdot_t) / qdot_t. The loop is
    linear, so any other qdot_t gives the same ratio. Positive means the
    feedforward drives the joint beyond the commanded velocity inside one
    interval; the sign flips at eta = 1 - omega_n * control_dt / 4. The
    gains are those of zeta = 1 (kp = omega_n^2, kd = 2 omega_n); there is
    no zeta parameter.
    """
    kp = omega_n**2
    kd = 2.0 * omega_n
    q = -control_dt / 2.0  # held target is the origin
    qdot = 1.0
    worst = -np.inf
    steps = max(1, int(round(control_dt / 1e-5)))
    dt = control_dt / steps
    for _ in range(steps):
        tau = kp * (0.0 - q) - kd * qdot + eta * kd
        qdot += dt * tau
        q += dt * qdot
        worst = max(worst, qdot - 1.0)
    return worst


@dataclass
class DelayPoint:
    """One point of a measured-vs-theory tracking delay curve."""

    eta: float
    theory_s: float
    measured_s: float
    confidence: float


def simulate_delay_curve(
    omega_n: float,
    etas: Sequence[float],
    *,
    control_dt: float = 0.02,
    wave_omega: float = 3.14,
    duration: float = 12.0,
) -> list[DelayPoint]:
    """Measured tracking delay vs the 2 zeta (1 - eta) / omega_n prediction.

    Drives one critically damped unit-inertia joint per eta with a shared
    0.3 rad sinusoid reference held at the control rate, integrated at a
    1e-3 s physics step, then estimates the lag between the held target
    and the measured position by normalized cross-correlation after the
    first SETTLE_S seconds. All etas run as one batched decoupled plant.
    With zeta = 1 the prediction is 2 (1 - eta) / omega_n.

    The semi-implicit Euler step biases the measurement low: at the
    1e-3 s physics step it reads about 1.2 ms under the continuous loop's
    phase delay -arg H(jw)/w at every eta (omega_n = 10 rad/s, 0.02 s
    hold, 3.14 rad/s wave: 28.80 vs 29.96 ms at eta 0.9, 14.05 vs 15.21 ms
    at eta 1.0). At a 2e-4 s step the gap shrinks to 0.23 ms.
    """
    from .latency import MotionSignal, estimate_lag

    # run_episode checks duration and control_dt for finiteness.
    finite_positive(omega_n, "omega_n")
    finite_positive(wave_omega, "wave_omega")
    if duration < SETTLE_S + 1.0:  # estimate_lag's 1 s min_overlap_s after the trim
        raise ValueError(f"duration {duration} s leaves under 1 s after the {SETTLE_S} s settle trim")
    etas = list(etas)
    n = len(etas)
    plant = DecoupledLinear(inertia=np.ones(n), physics_dt=1e-3)
    gains = GainSchedule.from_impedance(
        m_eff=np.ones(n), omega_n=omega_n, zeta=1.0, eta=np.asarray(etas, dtype=float)
    )
    record = run_episode(
        plant, gains, make_sinusoid(0.3, wave_omega), duration, control_dt
    )
    keep = record.t >= SETTLE_S
    rate = 1.0 / plant.physics_dt
    points = []
    theory = equivalent_delay(gains)
    for j, eta in enumerate(etas):
        est = estimate_lag(
            MotionSignal(record.q_target_held[keep, j], rate),
            MotionSignal(record.q[keep, j], rate),
            max_lag_s=1.0,
        )
        points.append(
            DelayPoint(eta=eta, theory_s=float(theory[j]), measured_s=est.lag_s, confidence=est.confidence)
        )
    return points
