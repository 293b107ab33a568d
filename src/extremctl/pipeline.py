"""End-to-end teleoperation pipeline harness on a virtual clock.

One simulated run wires the whole stack together: a motion generator emits
human link frames at the capture rate, each frame travels through a
delay/jitter/drop channel into a latest-value mailbox, the control loop
reads the newest frame at the control rate, retargets it, derives a joint
target (held zero-order), and the plant integrates at the low-level rate.
Everything runs single-threaded on a virtual clock, so a fixed seed
reproduces the record bit for bit.

The harness drives one decoupled joint from an extremity signal instead of
a learned whole-body policy; that isolates transport, hold, and controller
response, the quantities the latency budget decomposes.

A run has two phases. Phase 1, the transport, runs on arrays. A scalar
loop emits every capture up to the last physics step, drawing its jitter
and drop from the seeded generator. The frames delivered by the last
physics step are built as one (N, 6, 7) array, in (arrival, seq) order,
and one mapping.map_frames retargets them; the channel moves these
arrays, not bytes (wire.encode_frame and decode_frame are the relay's
codec). The virtual clock then steps once per control tick: each delivery
is written to the latest-value mailbox at the first tick it is due, the
mailbox is read, and one held (q, qdot) target is recorded per tick. The
mailbox sees the writes a clock stepped per physics step would make, in
the same order. Nothing in phase 1 depends on eta, zeta, omega_n or the
plant inertia. Phase 2, the plant, integrates the joint under those
held targets with plant.held_joint_q, the integrator run_episode uses
too.
run_pipeline is phase 1 then phase 2; run_pipeline_sweep runs phase 1
once and phase 2 once per eta, and its records equal run_pipeline's.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Iterator

import numpy as np

from .errors import ExtremControlError, finite, finite_positive, json_object
from .latency import MotionSignal, estimate_lag
from .mapping import (
    LINKS,
    CalibrationProfile,
    LinkSet,
    RobotModel,
    calibrate,
    map_frame,
    map_frames,
)
from .mapping import _wrap
from .plant import SETTLE_S, DecoupledLinear, GainSchedule, equivalent_delay
from .plant import held_joint_q, step  # noqa: F401  (perfbench's tracer wraps pipeline.step)
from .wire import LatestValueMailbox, PoseFrame
from .wire import decode_frame, encode_frame  # noqa: F401  (perfbench's tracer wraps these)


class ConfigInvalid(ExtremControlError):
    """Pipeline configuration holds a non-finite value or violates a rate,
    probability or sign constraint."""


class InsufficientPoints(ExtremControlError):
    """Latency fit needs at least 3 sweep points."""


def default_robot_model() -> RobotModel:
    return RobotModel(
        pelvis_height=0.72,
        pelvis_to_torso=(0.0, 0.0, 0.25),
        shoulder_offset={"left": (0.0, 0.16, 0.04), "right": (0.0, -0.16, 0.04)},
        arm_length={"left": 0.45, "right": 0.45},
        neutral_foot={"left": (0.0, 0.09, 0.015), "right": (0.0, -0.09, 0.015)},
    )


def default_human_neutral() -> LinkSet:
    """A plausible performer standing in the calibration pose."""
    human = RobotModel(
        pelvis_height=0.95,
        pelvis_to_torso=(0.0, 0.0, 0.30),
        shoulder_offset={"left": (0.0, 0.20, 0.05), "right": (0.0, -0.20, 0.05)},
        arm_length={"left": 0.55, "right": 0.55},
        neutral_foot={"left": (0.0, 0.10, 0.02), "right": (0.0, -0.10, 0.02)},
    )
    return human.neutral_links()


@dataclass(frozen=True)
class MotionSpec:
    """Reciprocating extremity motion: one link oscillates along one axis."""

    amplitude_m: float = 0.15
    frequency_hz: float = 0.5
    link: str = "right_hand"
    axis: int = 2

    def __post_init__(self) -> None:
        for name in ("amplitude_m", "frequency_hz"):
            finite_positive(finite(getattr(self, name), name), name)
        if self.link not in LINKS:
            raise ValueError(f"link {self.link!r} not one of {LINKS}")
        if type(self.axis) is not int or self.axis not in (0, 1, 2):
            raise ValueError(f"axis {self.axis!r} must be the integer 0, 1 or 2")

    def displacement(self, t: float) -> float:
        return self.amplitude_m * math.sin(math.tau * self.frequency_hz * t)

    def displacements(self, times: np.ndarray) -> np.ndarray:
        """displacement at each of the times, bit for bit: the products are
        vectorized, math.sin runs sample by sample (a vectorized sin may
        differ in the last bit)."""
        phase = (math.tau * self.frequency_hz) * times
        return self.amplitude_m * np.fromiter(map(math.sin, phase.tolist()), float, len(phase))

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "MotionSpec":
        """Spec from its to_dict form, absent keys at their defaults; others are refused."""
        return MotionSpec(**json_object(d, "motion", MotionSpec.__dataclass_fields__))


@dataclass(frozen=True)
class PipelineConfig:
    capture_rate_hz: float = 120.0
    control_rate_hz: float = 50.0
    lowlevel_rate_hz: float = 1000.0
    network_delay_s: float = 0.0
    jitter_std_s: float = 0.0
    drop_prob: float = 0.0
    duration_s: float = 12.0
    seed: int = 0
    omega_n: float = 10.0
    zeta: float = 1.0
    eta: float = 0.9
    plant_inertia: float = 1.0
    target_scale: float = 5.0  # rad of joint motion per meter of extremity motion
    motion: MotionSpec = field(default_factory=MotionSpec)
    profile: CalibrationProfile | None = None  # default: built-in human + robot

    def __post_init__(self) -> None:
        # Every field with a float default: all but seed, motion and profile.
        for name in (f.name for f in fields(self) if isinstance(f.default, float)):
            finite(getattr(self, name), name, ConfigInvalid)
        for name in ("capture_rate_hz", "control_rate_hz", "lowlevel_rate_hz", "duration_s",
                     "omega_n", "plant_inertia"):
            finite_positive(getattr(self, name), name, ConfigInvalid)
        ratio = self.lowlevel_rate_hz / self.control_rate_hz
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigInvalid(
                f"lowlevel_rate {self.lowlevel_rate_hz} not a multiple of "
                f"control_rate {self.control_rate_hz}"
            )
        if not (0.0 <= self.drop_prob < 1.0):
            raise ConfigInvalid(f"drop_prob {self.drop_prob} outside [0, 1)")
        if self.network_delay_s < 0 or self.jitter_std_s < 0:
            raise ConfigInvalid("delay and jitter must be non-negative")
        if self.zeta < 0:
            raise ConfigInvalid(f"zeta {self.zeta} must be non-negative")
        if not (0.0 <= self.eta <= 1.0):
            raise ConfigInvalid(f"eta {self.eta} outside [0, 1]")

    def resolve_profile(self) -> CalibrationProfile:
        if self.profile is not None:
            return self.profile
        return calibrate(default_human_neutral(), default_robot_model())

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["motion"] = self.motion.to_dict()
        if d.pop("profile") is not None:
            d["profile"] = self.profile.to_dict()
        return d

    @staticmethod
    def from_dict(d: dict) -> "PipelineConfig":
        kwargs = {k: d[k] for k in d if k not in ("motion", "profile")}
        if d.get("motion") is not None:
            kwargs["motion"] = MotionSpec.from_dict(d["motion"])
        if d.get("profile") is not None:
            kwargs["profile"] = CalibrationProfile.from_dict(d["profile"])
        return PipelineConfig(**kwargs)


@dataclass(frozen=True)
class ConsumedFrame:
    """Transport bookkeeping for one frame actually used by the control loop."""

    seq: int
    emit_ns: int
    read_ns: int

    @property
    def transport_s(self) -> float:
        return (self.read_ns - self.emit_ns) * 1e-9


@dataclass
class PipelineRecord:
    """Low-level-rate trajectories plus transport bookkeeping.

    t, human_signal and q_target_held are read-only: the records of one
    sweep share them.
    """

    t: np.ndarray
    human_signal: np.ndarray  # true extremity displacement, meters
    q_target_held: np.ndarray  # rad
    q: np.ndarray  # rad
    consumed: list[ConsumedFrame]
    staleness_ns: list[int]
    frames_emitted: int
    config: PipelineConfig

    @property
    def control_dt(self) -> float:
        return 1.0 / self.config.control_rate_hz


def _run_transport(
    config: PipelineConfig, n_steps: int, substeps: int
) -> tuple[PipelineRecord, np.ndarray, np.ndarray]:
    """Emit, jitter, drop, deliver, read and retarget on the virtual clock.

    Returns the run's record without q (phase 2 fills it), whose t,
    human_signal and q_target_held are read-only, and the held target per
    control tick as (n_ticks, 1) arrays of q and its finite-difference
    qdot.

    Every capture up to the last physics step is emitted first, drawing
    jitter and then drop from the seeded generator in seq order. The
    poses of the deliveries due by the last physics step, sorted by
    (arrival, seq), are built as one array and retargeted by one
    map_frames; each frame keeps its capture's timestamp. The clock then
    advances one control tick at a time: a tick writes every delivery due
    by then to the mailbox and reads it. A clock stepped per physics step
    makes the same writes in the same order: a frame read at tick t
    arrived by t + 1e-12, and every frame emitted after it is captured,
    and so arrives, after that. The plant never feeds back into any of
    it.
    """
    rng = np.random.default_rng(config.seed)
    profile = config.resolve_profile()
    motion = config.motion
    row, axis = LINKS.index(motion.link), motion.axis

    # Motion always plays out around the built-in performer's neutral; a
    # custom profile is applied to those frames as-is. Each human frame is
    # the neutral's validated array with one translation entry moved.
    neutral = default_human_neutral()
    base = float(neutral.array[row, axis])
    neutral_target = map_frame(profile, neutral).array[row, axis]

    dt = 1.0 / config.lowlevel_rate_hz
    control_dt = substeps * dt
    capture_dt = 1.0 / config.capture_rate_hz
    horizon = (n_steps - 1) * dt + 1e-12
    captures: list[float] = []
    stamps: list[int] = []
    due: list[tuple[float, int]] = []  # (arrival, seq) of each delivery by the horizon
    next_capture = 0.0
    while next_capture <= horizon:
        seq = len(captures)
        captures.append(next_capture)
        stamps.append(int(round(next_capture * 1e9)))
        jitter = config.jitter_std_s * float(rng.standard_normal())
        delay = max(0.0, config.network_delay_s + jitter)
        dropped = float(rng.random()) < config.drop_prob
        if not dropped and next_capture + delay <= horizon:
            due.append((next_capture + delay, seq))
        next_capture += capture_dt
    due.sort()

    seqs = [seq for _, seq in due]
    poses = np.repeat(neutral.array[None], len(seqs), axis=0)
    poses[:, row, axis] = base + motion.displacements(np.array(captures)[seqs])
    pos = map_frames(profile, poses)[:, row, axis].copy()
    targets = dict(zip(seqs, (config.target_scale * (pos - neutral_target)).tolist()))
    frames = (PoseFrame(s, stamps[s], _wrap(p)) for s, p in zip(seqs, poses))

    mailbox = LatestValueMailbox()
    written = 0
    consumed: list[ConsumedFrame] = []
    staleness: list[int] = []
    q_ticks: list[float] = []
    qdot_ticks: list[float] = []
    prev_target = 0.0
    last_seq_used = -1
    for k in range(0, n_steps, substeps):
        # Control tick: deliver what is due, read newest, refresh held targets.
        t = k * dt
        while written < len(due) and due[written][0] <= t + 1e-12:
            mailbox.write(next(frames))
            written += 1
        now_ns = int(round(t * 1e9))
        result = mailbox.read(now_ns)
        target = prev_target
        if result.frame is not None:
            target = targets[result.frame.seq]
            if result.frame.seq != last_seq_used:
                consumed.append(ConsumedFrame(result.frame.seq, result.frame.timestamp_ns, now_ns))
                last_seq_used = result.frame.seq
            staleness.append(result.staleness_ns)
        q_ticks.append(target)
        qdot_ticks.append((target - prev_target) / control_dt)
        prev_target = target
    # The channel runs on to the last physics step, so the mailbox sees
    # every write a per-physics-step clock would make.
    for frame in frames:
        mailbox.write(frame)

    # The time after each physics step, k * dt + dt.
    t_axis = np.arange(n_steps) * dt + dt
    human_signal = motion.displacements(t_axis)
    q_target_held = np.repeat(q_ticks, substeps)[:n_steps]
    for shared in (t_axis, human_signal, q_target_held):
        shared.flags.writeable = False
    record = PipelineRecord(
        t=t_axis,
        human_signal=human_signal,
        q_target_held=q_target_held,
        q=None,
        consumed=consumed,
        staleness_ns=staleness,
        frames_emitted=len(captures),
        config=config,
    )
    return record, np.array(q_ticks)[:, None], np.array(qdot_ticks)[:, None]


def run_pipeline_sweep(config: PipelineConfig, etas) -> Iterator[PipelineRecord]:
    """Yield run_pipeline(replace(config, eta=e)) for each e in etas, equal
    field for field, with the transport simulated once.

    Nothing upstream of the plant depends on eta, so phase 1 (transport,
    see _run_transport) runs once and phase 2 (the plant, held_joint_q)
    once per eta. Every eta is validated before any work starts (on the
    first next()). The records share their t, human_signal and
    q_target_held arrays, read-only; each has its own q. They come one at
    a time, so a caller that reduces each record, to a latency budget
    say, holds one q trajectory at a time.
    """
    configs = [replace(config, eta=e) for e in etas]
    dt = 1.0 / config.lowlevel_rate_hz
    substeps = int(round(config.lowlevel_rate_hz / config.control_rate_hz))
    n_steps = int(round(config.duration_s * config.lowlevel_rate_hz))

    plant = DecoupledLinear(inertia=np.array([config.plant_inertia]), physics_dt=dt)
    gains = [
        GainSchedule.from_impedance(
            m_eff=plant.inertia, omega_n=c.omega_n, zeta=c.zeta, eta=c.eta
        )
        for c in configs
    ]
    shared, q_ticks, qdot_ticks = _run_transport(config, n_steps, substeps)
    for c, g in zip(configs, gains):
        yield replace(
            shared,
            q=held_joint_q(plant, g, q_ticks, qdot_ticks, substeps, n_steps)[:, 0],
            consumed=list(shared.consumed),
            staleness_ns=list(shared.staleness_ns),
            config=c,
        )


def run_pipeline(config: PipelineConfig) -> PipelineRecord:
    """Simulate the full capture -> transport -> control -> plant path.

    Returns trajectories sampled at the low-level rate. Deterministic for a
    fixed config (jitter and drops come from one seeded generator; all
    clocks are virtual).
    """
    return next(run_pipeline_sweep(config, [config.eta]))


@dataclass
class LatencyBudget:
    """Where the milliseconds went for one pipeline run."""

    eta: float
    transport_ms: float  # frame emit -> control-loop read, averaged
    hold_ms: float  # half the control period (zero-order hold)
    control_ms: float  # held target -> plant response, measured
    overall_ms: float  # true human motion -> plant response, measured
    control_confidence: float
    overall_confidence: float
    theory_control_ms: float  # 2 zeta (1 - eta) / omega_n

    @property
    def components_sum_ms(self) -> float:
        return self.transport_ms + self.hold_ms + self.control_ms

    def to_dict(self) -> dict:
        return {**asdict(self), "components_sum_ms": self.components_sum_ms}


def latency_budget(record: PipelineRecord) -> LatencyBudget:
    """Decompose one run into transport + hold + controller response.

    Lags are measured after the first SETTLE_S seconds. The overall figure
    is measured independently (true extremity motion vs realized joint) and
    should agree with the component sum to within the accounting slack of
    the hold-time model.
    """
    cfg = record.config
    rate = cfg.lowlevel_rate_hz
    keep = record.t >= SETTLE_S
    if np.count_nonzero(keep) < int(2.0 * rate):
        raise ValueError("record too short after settling trim; extend duration_s")
    if not record.consumed:
        raise ValueError("no frames consumed; transport never delivered")

    human = MotionSignal(record.human_signal[keep], rate)
    target = MotionSignal(record.q_target_held[keep], rate)
    q = MotionSignal(record.q[keep], rate)

    control = estimate_lag(target, q, max_lag_s=1.0)
    overall = estimate_lag(human, q, max_lag_s=1.0)
    transport_s = float(np.mean([c.transport_s for c in record.consumed]))

    gains = GainSchedule.from_impedance(
        m_eff=np.array([cfg.plant_inertia]), omega_n=cfg.omega_n, zeta=cfg.zeta, eta=cfg.eta
    )
    return LatencyBudget(
        eta=cfg.eta,
        transport_ms=transport_s * 1e3,
        hold_ms=0.5 * record.control_dt * 1e3,
        control_ms=control.lag_s * 1e3,
        overall_ms=overall.lag_s * 1e3,
        control_confidence=control.confidence,
        overall_confidence=overall.confidence,
        theory_control_ms=float(equivalent_delay(gains)[0]) * 1e3,
    )


@dataclass
class LatencyFit:
    """Least-squares line overall = slope * control + intercept."""

    slope: float
    intercept_ms: float
    r_squared: float

    def to_dict(self) -> dict:
        return asdict(self)


def fit_latency_line(control_ms, overall_ms) -> LatencyFit:
    """Fit overall-vs-control latency across a feedforward sweep."""
    x = np.asarray(control_ms, dtype=float)
    y = np.asarray(overall_ms, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("control_ms and overall_ms must be equal-length 1-d")
    if x.size < 3:
        raise InsufficientPoints(f"{x.size} points, need at least 3")
    coeffs, *_ = np.linalg.lstsq(np.column_stack([x, np.ones_like(x)]), y, rcond=None)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    resid = y - (slope * x + intercept)
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if sst <= 1e-30 else 1.0 - float(np.sum(resid**2)) / sst
    return LatencyFit(slope=slope, intercept_ms=intercept, r_squared=r2)
