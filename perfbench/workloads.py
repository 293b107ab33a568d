"""The four benchmark workloads: seeded input generators, one timed round
each, and the correctness checks that count into ``failed``.

Every workload drives the program the way an operator does: through
``extremctl.cli.main`` on files the generator wrote, plus the public
library calls a relay or a calibration script would make. Library
functions are always looked up on their module at call time, so the
tracer's wrappers see the calls.

A *round* is the unit a run repeats. Rounds are kept to a few seconds so
that a run holds several of them: the machine's own speed moves over
seconds, and the median over several rounds is what keeps runs steady.
One round is:

* ``teleop_sweep``: one ``extremctl pipeline --eta-sweep`` call;
* ``capture_stream``: one per-frame relay pass over the stream, then one
  ``extremctl map`` over the same stream as JSONL;
* ``gain_calibration``: one ``extremctl calibrate-gains --sweeps 1`` call
  on the 4-link chain, then one library ``calibrate_chain`` on a decoupled
  plant with known inertias;
* ``video_latency``: one ``extremctl latency --frames-a/--frames-b`` call.
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LINKS = ("pelvis", "torso", "left_hand", "right_hand", "left_foot", "right_foot")
# Wire layout, written out independently of extremctl.wire so the
# generator does not depend on the code under test.
FRAME = struct.Struct("<4sBIQ" + "d" * 42)
CAPTURE_HZ = 120.0
VIDEO_FPS = 60.0
PLANTED_LAG_FRAMES = 3
SWEEP_ETAS = "0,0.5,0.9"
CHAIN_MASSES = [3.0, 0.3, 0.03, 0.003]
CHAIN_LENGTHS = [0.35, 0.16, 0.07, 0.032]
KNOWN_INERTIAS = [1.0, 2.0, 3.0]
INERTIA_TOL = 0.02


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, tiny() is for its tests."""

    teleop_duration_s: float = 12.0
    capture_frames: int = 1500
    chain_masses: tuple = tuple(CHAIN_MASSES)
    chain_lengths: tuple = tuple(CHAIN_LENGTHS)
    # One sweep per call: a fixed amount of work per round, and a round
    # short enough for several per run. The decoupled plant keeps the
    # default sweeps and convergence test.
    calib_flags: tuple = ("--sweeps", "1")
    decoupled_envs: int = 16
    video_frames: int = 121
    video_shape: tuple = (120, 160)

    @staticmethod
    def tiny() -> "Sizes":
        return Sizes(
            teleop_duration_s=4.5,
            capture_frames=24,
            chain_masses=(3.0, 0.3),
            chain_lengths=(0.35, 0.16),
            calib_flags=("--envs", "4", "--sweeps", "1"),
            decoupled_envs=4,
            video_frames=81,
            video_shape=(48, 64),
        )


@dataclass
class Round:
    """What one round produced: its wall time, work done and check results."""

    wall_s: float
    items: float
    checks: int = 0
    failed: int = 0
    frame_s: list = field(default_factory=list)  # capture relay, per frame
    batch_s: float = 0.0  # capture batch map
    info: dict = field(default_factory=dict)
    outputs: object = None  # what check() inspects


def _cli(argv: list) -> None:
    from extremctl import cli

    rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"extremctl {argv[0]} exited {rc}")


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


# ------------------------------------------------------------ quaternions


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = np.moveaxis(a, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(b, -1, 0)
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def _axis_angle(axis: np.ndarray, angle) -> np.ndarray:
    axis = axis / np.linalg.norm(axis, axis=-1, keepdims=True)
    half = 0.5 * np.asarray(angle, dtype=float)[..., None]
    return np.concatenate([np.cos(half), np.sin(half) * axis], axis=-1)


def _canonical(q: np.ndarray) -> np.ndarray:
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    return np.where(q[..., :1] < 0.0, -q, q)


def _rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    w, u = q[..., :1], q[..., 1:]
    t = 2.0 * np.cross(u, v)
    return v + w * t + np.cross(u, t)


# ------------------------------------------------------------- generators


def performer_neutral(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A seeded performer in the calibration stance: (6, 3) xyz, (6, 4) wxyz."""
    yaw = rng.uniform(-math.pi, math.pi)
    heading = _canonical(_axis_angle(np.array([0.0, 0.0, 1.0]), yaw))
    origin = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0])
    pelvis_h = rng.uniform(0.85, 1.05)
    torso_up = rng.uniform(0.26, 0.34)
    arm = rng.uniform(0.5, 0.62)
    width = rng.uniform(0.17, 0.22)
    stance = rng.uniform(0.08, 0.12)
    body = np.array(
        [
            [0.0, 0.0, pelvis_h],
            [0.0, 0.0, pelvis_h + torso_up],
            [arm, width, pelvis_h + torso_up + 0.05],
            [arm, -width, pelvis_h + torso_up + 0.05],
            [0.0, stance, 0.02],
            [0.0, -stance, 0.02],
        ]
    )
    xyz = origin + _rotate(np.broadcast_to(heading, (6, 4)), body)
    return xyz, np.tile(heading, (6, 1))


def capture_stream(rng: np.random.Generator, n_frames: int, neutral) -> np.ndarray:
    """(N, 6, 7) link poses at 120 Hz: smooth per-link motion plus small
    noise around the neutral stance, quaternions unit and canonical."""
    xyz0, q0 = neutral
    t = np.arange(n_frames)[:, None, None] / CAPTURE_HZ
    freq = rng.uniform(0.2, 1.5, (1, 6, 3))
    phase = rng.uniform(0, 2 * math.pi, (1, 6, 3))
    amp = rng.uniform(0.02, 0.15, (1, 6, 3))
    xyz = xyz0 + amp * np.sin(2 * math.pi * freq * t + phase)
    xyz = xyz + rng.normal(0.0, 1e-3, xyz.shape)
    axis = rng.normal(size=(1, 6, 3)) + rng.normal(0.0, 0.05, (n_frames, 6, 3))
    rot_f = rng.uniform(0.2, 1.0, (1, 6))
    angle = 0.4 * np.sin(2 * math.pi * rot_f * t[..., 0] + phase[..., 0])
    q = _canonical(_quat_mul(q0, _axis_angle(axis, angle)))
    return np.concatenate([xyz, q], axis=-1)


def encode_payloads(poses: np.ndarray) -> list[bytes]:
    """Capture-side wire frames for the relay: seq k, timestamp k / 120 Hz."""
    return [
        FRAME.pack(b"XCTL", 1, k, round(k * 1e9 / CAPTURE_HZ), *poses[k].ravel().tolist())
        for k in range(poses.shape[0])
    ]


def _links_dict(pose7: np.ndarray) -> dict:
    return {
        name: {"p": pose7[i, :3].tolist(), "q": pose7[i, 3:].tolist()}
        for i, name in enumerate(LINKS)
    }


def write_capture_inputs(workdir: Path, seed: int, sizes: Sizes) -> list[bytes]:
    """neutral.json, robot.json and capture.jsonl; returns the same stream
    as wire frames for the relay."""
    rng = np.random.default_rng([seed, 1])
    neutral = performer_neutral(rng)
    poses = capture_stream(rng, sizes.capture_frames, neutral)
    _dump(workdir / "neutral.json", _links_dict(np.concatenate(neutral, axis=-1)))
    _dump(
        workdir / "robot.json",
        {
            "pelvis_height_m": 0.72,
            "pelvis_to_torso_m": [0.0, 0.0, 0.25],
            "shoulder_offset_m": {"left": [0.0, 0.16, 0.04], "right": [0.0, -0.16, 0.04]},
            "arm_length_m": {"left": 0.45, "right": 0.45},
            "neutral_foot_m": {"left": [0.0, 0.09, 0.015], "right": [0.0, -0.09, 0.015]},
        },
    )
    with open(workdir / "capture.jsonl", "w") as f:
        for k in range(poses.shape[0]):
            row = {"links": _links_dict(poses[k]), "timestamp_ns": round(k * 1e9 / CAPTURE_HZ)}
            f.write(json.dumps(row, sort_keys=True) + "\n")
    return encode_payloads(poses)


def write_teleop_inputs(workdir: Path, sizes: Sizes) -> None:
    """The network config; the seed reaches the pipeline through --seed."""
    _dump(
        workdir / "network.json",
        {
            "network_delay_s": 0.010,
            "jitter_std_s": 0.004,
            "drop_prob": 0.02,
            "duration_s": sizes.teleop_duration_s,
        },
    )


def write_calibration_inputs(workdir: Path, sizes: Sizes) -> None:
    """The 4-link chain and the decoupled plant; the seed reaches
    calibration through --seed (initial gains, probe stiffness)."""
    _dump(
        workdir / "plant.json",
        {
            "kind": "planar_chain",
            "link_masses_kg": list(sizes.chain_masses),
            "link_lengths_m": list(sizes.chain_lengths),
            "physics_dt_s": 1e-3,
        },
    )
    _dump(
        workdir / "decoupled.json",
        {"kind": "decoupled_linear", "inertia_kg_m2": KNOWN_INERTIAS, "physics_dt_s": 1e-3},
    )


def render_view(rng: np.random.Generator, n_frames: int, shape, motion, delay_frames: int):
    """A bright disc reciprocating horizontally over static clutter."""
    h, w = shape
    freq, amp, phase = motion
    yy, xx = np.mgrid[0:h, 0:w]
    background = rng.uniform(30.0, 60.0, (h, w))
    for k in range(n_frames):
        t = (k - delay_frames) / VIDEO_FPS
        cx = w / 2 + amp * math.sin(2 * math.pi * freq * t + phase)
        d2 = (xx - cx) ** 2 + (yy - h / 2) ** 2
        yield np.clip(np.rint(background + np.clip(200.0 - 1.5 * d2, 0.0, None)), 0, 255)


def write_pgm(path: Path, image: np.ndarray) -> None:
    h, w = image.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + image.astype(np.uint8).tobytes())


def write_video_inputs(workdir: Path, seed: int, sizes: Sizes) -> None:
    rng = np.random.default_rng([seed, 4])
    h, w = sizes.video_shape
    # Peak disc speed stays under the default 4 px search radius.
    motion = (rng.uniform(0.6, 0.8), rng.uniform(0.2, 0.25) * w, rng.uniform(0, 2 * math.pi))
    for view, delay in (("a", 0), ("b", PLANTED_LAG_FRAMES)):
        d = workdir / f"frames_{view}"
        d.mkdir()
        frames = render_view(rng, sizes.video_frames, sizes.video_shape, motion, delay)
        for k, image in enumerate(frames):
            write_pgm(d / f"f{k:04d}.pgm", image)


# ----------------------------------------------------------------- checks


def check_teleop(output: bytes, reference: bytes | None) -> bool:
    """Valid sweep output, byte-identical to the run's first round."""
    if reference is not None:
        return output == reference
    try:
        doc = json.loads(output)
        budgets = doc["budgets"]
    except (ValueError, KeyError):
        return False
    return len(budgets) == len(SWEEP_ETAS.split(",")) and all(
        math.isfinite(b["overall_ms"]) and b["overall_ms"] > 0 for b in budgets
    )


def check_capture_frame(relay_out: bytes, batch_row: dict, seq: int) -> bool:
    """Relay output re-encodes bit-exact and equals the batch-map output."""
    from extremctl import wire
    from extremctl.errors import ExtremControlError

    try:
        if wire.encode_frame(wire.decode_frame(relay_out)) != relay_out:
            return False
    except (ExtremControlError, ValueError):
        return False
    _, _, got_seq, got_ts, *values = FRAME.unpack(relay_out)
    want = []
    for name in LINKS:
        want += batch_row["links"][name]["p"] + batch_row["links"][name]["q"]
    return got_seq == seq and got_ts == batch_row["timestamp_ns"] and values == want


def check_video(report: dict) -> bool:
    """Estimated lag within one frame period of the planted lag."""
    planted = PLANTED_LAG_FRAMES / VIDEO_FPS
    return abs(report["lag_ms"] * 1e-3 - planted) <= 1.0 / VIDEO_FPS


def check_inertias(m_eff) -> bool:
    """Decoupled inertias recovered within the acceptance 2 %."""
    known = np.asarray(KNOWN_INERTIAS)
    m = np.asarray(m_eff, dtype=float)
    return m.shape == known.shape and bool(np.all(np.abs(m - known) / known < INERTIA_TOL))


def check_chain(output: bytes, reference: bytes | None, n_joints: int) -> bool:
    """Positive finite gains for every joint, identical across rounds."""
    if reference is not None:
        return output == reference
    try:
        kp = json.loads(output)["gains"]["kp_nm_per_rad"]
    except (ValueError, KeyError):
        return False
    return len(kp) == n_joints and all(math.isfinite(k) and k > 0 for k in kp)


# -------------------------------------------------------------- workloads


class Workload:
    """One operator path: inputs, one-shot set-up, one timed round."""

    name = ""

    def __init__(self, workdir: Path, seed: int, sizes: Sizes) -> None:
        self.workdir = workdir
        self.seed = seed
        self.sizes = sizes
        self.reference: bytes | None = None

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        """The program's one-shot set-up for this workload (also timed alone)."""

    def warm_up(self) -> None:
        """A short call through the same code, so lazy initialisation is
        not billed to the first timed round."""

    def round(self) -> Round:
        """Run and time one round; outputs are checked separately."""
        raise NotImplementedError

    def check(self, rd: Round) -> None:
        """Fill rd.checks and rd.failed from rd.outputs."""
        raise NotImplementedError


class TeleopSweep(Workload):
    name = "teleop_sweep"

    def generate(self) -> None:
        write_teleop_inputs(self.workdir, self.sizes)

    def setup(self) -> None:
        from extremctl import fileio, pipeline, plant

        cfg = pipeline.PipelineConfig(**fileio.load_json(str(self.workdir / "network.json")))
        cfg.resolve_profile()
        plant.DecoupledLinear(inertia=np.array([cfg.plant_inertia]), physics_dt=1e-3)
        plant.GainSchedule.from_impedance(
            m_eff=np.array([cfg.plant_inertia]), omega_n=cfg.omega_n, zeta=cfg.zeta, eta=cfg.eta
        )

    def warm_up(self) -> None:
        _cli(["pipeline", "--config", self.workdir / "network.json", "--seed", self.seed,
              "--duration", "4.5", "--out", self.workdir / "warm.json"])

    def round(self) -> Round:
        out = self.workdir / "sweep.json"
        t0 = time.perf_counter()
        _cli(["pipeline", "--config", self.workdir / "network.json", "--seed", self.seed,
              "--eta-sweep", SWEEP_ETAS, "--out", out])
        wall = time.perf_counter() - t0
        data = out.read_bytes()
        return Round(
            wall_s=wall,
            items=len(SWEEP_ETAS.split(",")) * self.sizes.teleop_duration_s,
            info={"teleop_overall_ms": json.loads(data)["budgets"][-1]["overall_ms"]},
            outputs=data,
        )

    def check(self, rd: Round) -> None:
        ok = check_teleop(rd.outputs, self.reference)
        if self.reference is None and ok:
            self.reference = rd.outputs
        rd.checks, rd.failed = 1, int(not ok)


class CaptureStream(Workload):
    name = "capture_stream"

    def generate(self) -> None:
        self.payloads = write_capture_inputs(self.workdir, self.seed, self.sizes)

    def setup(self) -> None:
        from extremctl import fileio, mapping

        _cli(["calibrate-map", "--neutral", self.workdir / "neutral.json",
              "--robot", self.workdir / "robot.json", "--out", self.workdir / "profile.json"])
        self.profile = mapping.CalibrationProfile.from_dict(
            fileio.load_json(str(self.workdir / "profile.json"))
        )

    def relay(self, payloads) -> tuple[list, list]:
        """Per-frame decode -> retarget -> encode, each frame timed."""
        from extremctl import mapping, wire

        profile = self.profile
        outs, times = [], []
        clock = time.perf_counter
        for buf in payloads:
            t0 = clock()
            frame = wire.decode_frame(buf)
            mapped = mapping.map_frame(profile, frame.links)
            out = wire.encode_frame(wire.PoseFrame(frame.seq, frame.timestamp_ns, mapped))
            times.append(clock() - t0)
            outs.append(out)
        return outs, times

    def warm_up(self) -> None:
        self.relay(self.payloads[:50])

    def round(self) -> Round:
        outs, times = self.relay(self.payloads)
        mapped = self.workdir / "mapped.jsonl"
        t0 = time.perf_counter()
        _cli(["map", "--profile", self.workdir / "profile.json",
              "--frames", self.workdir / "capture.jsonl", "--out", mapped])
        batch = time.perf_counter() - t0
        return Round(
            wall_s=sum(times) + batch,
            items=len(self.payloads),
            frame_s=times,
            batch_s=batch,
            outputs=(outs, mapped.read_text().splitlines()),
        )

    def check(self, rd: Round) -> None:
        outs, lines = rd.outputs
        rd.checks = len(outs)
        rd.failed = max(0, len(outs) - len(lines)) + sum(
            not check_capture_frame(out, json.loads(line), seq)
            for seq, (out, line) in enumerate(zip(outs, lines))
        )


class GainCalibration(Workload):
    name = "gain_calibration"

    def generate(self) -> None:
        write_calibration_inputs(self.workdir, self.sizes)

    def setup(self) -> None:
        from extremctl import fileio, plant

        self.chain = plant.plant_from_dict(fileio.load_json(str(self.workdir / "plant.json")))
        self.decoupled = plant.plant_from_dict(
            fileio.load_json(str(self.workdir / "decoupled.json"))
        )

    def decoupled_calibration(self, n_envs: int, seed: int):
        from extremctl import impedance

        config = impedance.CalibrationConfig(omega_n=10.0, n_envs=n_envs)
        return impedance.calibrate_chain(self.decoupled, config, seed=seed)

    def warm_up(self) -> None:
        self.decoupled_calibration(4, self.seed)

    def round(self) -> Round:
        out = self.workdir / "gains.json"
        t0 = time.perf_counter()
        _cli(["calibrate-gains", "--plant", self.workdir / "plant.json", "--omega-n", "10",
              "--seed", self.seed, *self.sizes.calib_flags, "--out", out])
        cal = self.decoupled_calibration(self.sizes.decoupled_envs, self.seed)
        wall = time.perf_counter() - t0
        data = out.read_bytes()
        doc = json.loads(data)
        releases = [
            doc["sweeps_run"] * len(j["kp_samples_nm_per_rad"]) for j in doc["joints"]
        ] + [cal.sweeps_run * e.kp_samples.size for e in cal.estimates]
        m_eff = np.array([e.m_eff_mean for e in cal.estimates])
        known = np.asarray(KNOWN_INERTIAS)
        return Round(
            wall_s=wall,
            items=sum(releases),
            info={"meff_rel_error": float(np.max(np.abs(m_eff - known) / known))},
            outputs=(data, m_eff),
        )

    def check(self, rd: Round) -> None:
        data, m_eff = rd.outputs
        chain_ok = check_chain(data, self.reference, len(self.sizes.chain_masses))
        if self.reference is None and chain_ok:
            self.reference = data
        rd.checks, rd.failed = 2, int(not chain_ok) + int(not check_inertias(m_eff))


class VideoLatency(Workload):
    name = "video_latency"

    def generate(self) -> None:
        write_video_inputs(self.workdir, self.seed, self.sizes)
        h, w = self.sizes.video_shape
        self.region = f"0,0,{w},{h},1,0"

    def warm_up(self) -> None:
        from extremctl import fileio, latency

        a = fileio.read_pgm(self.workdir / "frames_a" / "f0000.pgm")
        b = fileio.read_pgm(self.workdir / "frames_a" / "f0001.pgm")
        latency.block_match_flow(a, b)

    def round(self) -> Round:
        out = self.workdir / "latency.json"
        t0 = time.perf_counter()
        _cli(["latency", "--frames-a", self.workdir / "frames_a",
              "--frames-b", self.workdir / "frames_b", "--fps", VIDEO_FPS,
              "--region-a", self.region, "--region-b", self.region, "--out", out])
        wall = time.perf_counter() - t0
        report = json.loads(out.read_bytes())
        planted_ms = PLANTED_LAG_FRAMES / VIDEO_FPS * 1e3
        return Round(
            wall_s=wall,
            items=2 * (self.sizes.video_frames - 1),
            info={"lag_error_ms": abs(report["lag_ms"] - planted_ms)},
            outputs=report,
        )

    def check(self, rd: Round) -> None:
        rd.checks, rd.failed = 1, int(not check_video(rd.outputs))


WORKLOADS = {w.name: w for w in (TeleopSweep, CaptureStream, GainCalibration, VideoLatency)}
