"""Cartesian pose retargeting from a human performer to a humanoid robot.

A one-shot calibration against a prescribed standing pose (arms forward
along +x, feet on the ground) measures the performer's pelvis height,
arm lengths, shoulder anchors, and per-link rotation offsets. Per-frame
mapping then scales pelvis and feet by the height ratio, anchors the
torso on the mapped pelvis, and retargets hands relative to the torso
with arm-length scaling, so extremity targets stay reachable on a robot
with different proportions.

Frames:
    * world poses come from the capture system; calibration records an
      anchor (heading-aligned pelvis ground frame) and every incoming
      pose is re-expressed in it, so the capture origin is irrelevant;
    * arm length and shoulder anchor are measured in the torso frame,
      the frame the hand retarget operates in;
    * the robot's neutral stance is its model frame: standing at the
      origin facing +x, all link orientations identity.

A LinkSet holds its six poses as one read-only (6, 7) float64 array, the
wire layout: row i is link LINKS[i] (pelvis, torso, left_hand,
right_hand, left_foot, right_foot), columns are the translation x, y, z
in meters, then the unit quaternion w, x, y, z with w >= 0. A stream of
N frames is the same layout stacked, an (N, 6, 7) array.

The retarget algebra exists once, in _retarget_body, over the 42 values
of a frame in that order. map_frame, the per-frame relay path, runs it
on plain floats with the se3.qunit kernel; map_frames, the batch path,
runs it on 42 (N,) columns with se3.qunit_columns. Both give the same
bits. Pose and Rotation views are built only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ExtremControlError
from .se3 import (
    Pose,
    Rotation,
    ZeroVector,
    _locked,
    align_axis,
    qconj,
    qmul,
    qrotate,
    qunit,
    qunit_columns,
    relative,
)

LINKS = ("pelvis", "torso", "left_hand", "right_hand", "left_foot", "right_foot")
SIDES = ("left", "right")
_ROW = {name: i for i, name in enumerate(LINKS)}

MIN_PELVIS_HEIGHT_M = 0.3
MIN_ARM_LENGTH_M = 0.1


class DegenerateNeutral(ExtremControlError):
    """Neutral-pose anthropometrics under the plausibility floor."""


class DegenerateHeadset(ExtremControlError):
    """Headset direction too short to define a torso axis."""


class FrameRefused(ValueError):
    """A batch refused frame `index` (its position in the batch); the
    message says why."""

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(reason)
        self.index = index


@dataclass(frozen=True, eq=False, init=False)
class LinkSet:
    """One pose per tracked link, as a read-only (6, 7) array (see module doc).

    LinkSet(pelvis, torso, left_hand, right_hand, left_foot, right_foot)
    takes Poses, positionally or by name; from_array takes the array.
    """

    array: np.ndarray

    def __init__(self, pelvis: Pose, torso: Pose, left_hand: Pose, right_hand: Pose,
                 left_foot: Pose, right_foot: Pose) -> None:
        poses = (pelvis, torso, left_hand, right_hand, left_foot, right_foot)
        rows = [p.translation.tolist() + p.rotation.q.tolist() for p in poses]
        object.__setattr__(self, "array", _locked(np.array(rows)))

    @staticmethod
    def from_array(array) -> "LinkSet":
        """Validate a (6, 7) array as the Pose and Rotation constructors do:
        finite translations, each quaternion through se3.qunit."""
        a = np.asarray(array, dtype=float)
        if a.shape != (len(LINKS), 7):
            raise ValueError(f"LinkSet array shape {a.shape}, expected ({len(LINKS)}, 7)")
        return _validated(a.ravel().tolist())

    pelvis = property(lambda self: self.pose("pelvis"))
    torso = property(lambda self: self.pose("torso"))
    left_hand = property(lambda self: self.pose("left_hand"))
    right_hand = property(lambda self: self.pose("right_hand"))
    left_foot = property(lambda self: self.pose("left_foot"))
    right_foot = property(lambda self: self.pose("right_foot"))

    def pose(self, link: str) -> Pose:
        row = self.array[_row(link)]
        return Pose(Rotation(row[3:]), row[:3])

    def with_pose(self, link: str, pose: Pose) -> "LinkSet":
        a = self.array.copy()
        a[_row(link)] = pose.translation.tolist() + pose.rotation.q.tolist()
        return _wrap(a)

    def transform(self, fn) -> "LinkSet":
        """Apply a Pose -> Pose function to every link."""
        return LinkSet(*(fn(self.pose(name)) for name in LINKS))

    def to_dict(self) -> dict:
        rows = self.array.tolist()
        return {name: {"q": row[3:], "p": row[:3]} for name, row in zip(LINKS, rows)}

    @staticmethod
    def from_dict(d: dict) -> "LinkSet":
        p = np.array([d[name]["p"] for name in LINKS], dtype=float).reshape(len(LINKS), 3)
        q = np.array([d[name]["q"] for name in LINKS], dtype=float).reshape(len(LINKS), 4)
        return LinkSet.from_array(np.concatenate([p, q], axis=1))


def _row(link: str) -> int:
    try:
        return _ROW[link]
    except KeyError:
        raise ValueError(f"unknown link {link!r}") from None


def _wrap(a: np.ndarray) -> LinkSet:
    """A LinkSet around an array that already holds valid poses."""
    links = object.__new__(LinkSet)
    object.__setattr__(links, "array", _locked(a))
    return links


def _validated(values: list) -> LinkSet:
    """LinkSet from 42 floats in row order: each quaternion through qunit,
    then every translation finite (a quaternion that passed is finite)."""
    for k in range(3, len(values), 7):
        values[k : k + 4] = qunit(*values[k : k + 4])
    if not all(map(math.isfinite, values)):
        link = next(LINKS[i // 7] for i, v in enumerate(values) if not math.isfinite(v))
        raise ValueError(f"non-finite {link} translation")
    return _wrap(np.array(values, dtype=float).reshape(len(LINKS), 7))


def _stream_shaped(a: np.ndarray) -> np.ndarray:
    if a.ndim != 3 or a.shape[1:] != (len(LINKS), 7):
        raise ValueError(f"frames array shape {a.shape}, expected (N, {len(LINKS)}, 7)")
    return a


def validated_frames(array) -> np.ndarray:
    """An (N, 6, 7) stream validated as LinkSet.from_array validates each
    frame, in one qunit_columns pass and one finiteness check. Returns a
    new array with canonical quaternions; raises FrameRefused at the first
    frame from_array would refuse, with the error it would raise."""
    a = _stream_shaped(np.array(array, dtype=float))
    n = refused = len(a)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # refused as non-finite norms
            canonical = qunit_columns(*np.moveaxis(a[:, :, 3:], -1, 0))  # four (N, 6) views
    except ZeroVector as exc:
        refused, zero = exc.index // len(LINKS), exc
    # from_array checks the quaternions of a frame before its translations
    finite = np.isfinite(a[:refused, :, :3]).all(axis=2).ravel()
    if not finite.all():
        frame, link = divmod(int(np.argmin(finite)), len(LINKS))
        raise FrameRefused(frame, f"ValueError: non-finite {LINKS[link]} translation")
    if refused < n:
        raise FrameRefused(refused, f"ZeroVector: {zero}")
    for k, column in enumerate(canonical, start=3):
        a[:, :, k] = column
    return a


@dataclass(frozen=True)
class RobotModel:
    """Fixed robot geometry. Lengths in meters, model frame as above."""

    pelvis_height: float
    pelvis_to_torso: tuple[float, float, float]
    shoulder_offset: dict[str, tuple[float, float, float]]  # torso frame, per side
    arm_length: dict[str, float]
    neutral_foot: dict[str, tuple[float, float, float]]

    def __post_init__(self) -> None:
        if self.pelvis_height <= 0:
            raise ValueError(f"pelvis_height {self.pelvis_height} must be positive")
        for side in SIDES:
            if self.arm_length[side] <= 0:
                raise ValueError(f"{side} arm_length must be positive")

    def neutral_links(self) -> LinkSet:
        """The robot's neutral stance as a LinkSet (identity orientations)."""
        ident = Rotation.identity()
        pelvis = Pose(ident, np.array([0.0, 0.0, self.pelvis_height]))
        torso = Pose(ident, pelvis.translation + np.asarray(self.pelvis_to_torso, dtype=float))
        hands = {}
        for side in SIDES:
            local = np.asarray(self.shoulder_offset[side], dtype=float) + np.array(
                [self.arm_length[side], 0.0, 0.0]
            )
            hands[side] = Pose(ident, torso.apply(local))
        feet = {
            side: Pose(ident, np.asarray(self.neutral_foot[side], dtype=float)) for side in SIDES
        }
        return LinkSet(pelvis, torso, hands["left"], hands["right"], feet["left"], feet["right"])

    def to_dict(self) -> dict:
        return {
            "pelvis_height_m": self.pelvis_height,
            "pelvis_to_torso_m": list(self.pelvis_to_torso),
            "shoulder_offset_m": {s: list(self.shoulder_offset[s]) for s in SIDES},
            "arm_length_m": dict(self.arm_length),
            "neutral_foot_m": {s: list(self.neutral_foot[s]) for s in SIDES},
        }

    @staticmethod
    def from_dict(d: dict) -> "RobotModel":
        return RobotModel(
            pelvis_height=float(d["pelvis_height_m"]),
            pelvis_to_torso=tuple(d["pelvis_to_torso_m"]),
            shoulder_offset={s: tuple(d["shoulder_offset_m"][s]) for s in SIDES},
            arm_length={s: float(d["arm_length_m"][s]) for s in SIDES},
            neutral_foot={s: tuple(d["neutral_foot_m"][s]) for s in SIDES},
        )


@dataclass(frozen=True, eq=False)
class CalibrationProfile:
    """Everything map_frame needs, measured once from the neutral pose."""

    robot: RobotModel
    anchor: Pose  # heading-aligned pelvis ground frame at calibration
    pelvis_height: float  # performer pelvis height z^h, meters
    arm_length: dict[str, float]  # performer arm length l^h per side, torso frame
    shoulder: dict[str, np.ndarray]  # performer shoulder anchor per side, torso frame
    rot_offset: dict[str, Rotation]  # per link; hands are torso-relative offsets
    foot_offset: dict[str, np.ndarray]  # additive foot correction, meters

    @property
    def scale(self) -> float:
        """Robot-to-performer pelvis height ratio z^r / z^h."""
        return self.robot.pelvis_height / self.pelvis_height

    @cached_property
    def _retarget(self) -> tuple:
        """map_frame's per-profile constants as plain floats, derived on
        first use and kept for the life of this (frozen) profile."""
        # anchor.inverse() in kernel form: (q*, -(q* t))
        to_anchor_q = qconj(self.anchor.rotation.q.tolist())
        x, y, z = qrotate(to_anchor_q, self.anchor.translation.tolist())
        robot = self.robot

        def floats(v) -> tuple:
            return tuple(float(c) for c in v)

        hands = tuple(
            (
                floats(self.shoulder[side]),
                robot.arm_length[side] / self.arm_length[side],
                floats(robot.shoulder_offset[side]),
                floats(self.rot_offset[f"{side}_hand"].q),
            )
            for side in SIDES
        )
        feet = tuple(
            (floats(self.rot_offset[f"{side}_foot"].q), floats(self.foot_offset[side]))
            for side in SIDES
        )
        return (
            (to_anchor_q, (-x, -y, -z)),
            self.scale,
            floats(self.rot_offset["pelvis"].q),
            floats(self.rot_offset["torso"].q),
            floats(robot.pelvis_to_torso),
            hands,
            feet,
        )

    def to_dict(self) -> dict:
        return {
            "robot": self.robot.to_dict(),
            "anchor": self.anchor.to_dict(),
            "pelvis_height_m": self.pelvis_height,
            "arm_length_m": dict(self.arm_length),
            "shoulder_m": {s: [float(c) for c in self.shoulder[s]] for s in SIDES},
            "rot_offset": {k: r.to_list() for k, r in self.rot_offset.items()},
            "foot_offset_m": {s: [float(c) for c in self.foot_offset[s]] for s in SIDES},
        }

    @staticmethod
    def from_dict(d: dict) -> "CalibrationProfile":
        return CalibrationProfile(
            robot=RobotModel.from_dict(d["robot"]),
            anchor=Pose.from_dict(d["anchor"]),
            pelvis_height=float(d["pelvis_height_m"]),
            arm_length={s: float(d["arm_length_m"][s]) for s in SIDES},
            shoulder={s: np.asarray(d["shoulder_m"][s], dtype=float) for s in SIDES},
            rot_offset={k: Rotation(np.asarray(q, dtype=float)) for k, q in d["rot_offset"].items()},
            foot_offset={s: np.asarray(d["foot_offset_m"][s], dtype=float) for s in SIDES},
        )


def heading_anchor(pelvis: Pose) -> Pose:
    """Yaw-only pelvis ground frame: position under the pelvis, x along heading."""
    h = pelvis.rotation.apply(np.array([1.0, 0.0, 0.0]))
    yaw = math.atan2(h[1], h[0]) if math.hypot(h[0], h[1]) > 1e-9 else 0.0
    ground = np.array([pelvis.translation[0], pelvis.translation[1], 0.0])
    return Pose(Rotation.about_z(yaw), ground)


def calibrate(neutral: LinkSet, robot: RobotModel) -> CalibrationProfile:
    """One-shot calibration from the performer's prescribed standing pose.

    Measures pelvis height, per-side arm length (torso-frame x reach) and
    shoulder anchor (same vector with x zeroed), per-link rotation offsets
    against the robot's neutral, and additive foot corrections.

    Raises DegenerateNeutral when pelvis height <= 0.3 m or an arm
    length <= 0.1 m, the floor for a plausible standing human.
    """
    anchor = heading_anchor(neutral.pelvis)
    to_anchor = anchor.inverse()
    local = neutral.transform(to_anchor.compose)

    z_h = float(local.pelvis.translation[2])
    if z_h <= MIN_PELVIS_HEIGHT_M:
        raise DegenerateNeutral(f"pelvis height {z_h:.3f} m <= {MIN_PELVIS_HEIGHT_M} m")

    robot_neutral = robot.neutral_links()
    scale = robot.pelvis_height / z_h

    arm_length: dict[str, float] = {}
    shoulder: dict[str, np.ndarray] = {}
    rot_offset: dict[str, Rotation] = {}
    foot_offset: dict[str, np.ndarray] = {}

    for side in SIDES:
        hand_in_torso = relative(local.torso, local.pose(f"{side}_hand"))
        reach = float(hand_in_torso.translation[0])
        if reach <= MIN_ARM_LENGTH_M:
            raise DegenerateNeutral(f"{side} arm length {reach:.3f} m <= {MIN_ARM_LENGTH_M} m")
        arm_length[side] = reach
        shoulder[side] = np.array([0.0, hand_in_torso.translation[1], hand_in_torso.translation[2]])
        # Hand offsets live in the torso-relative frame the retarget uses.
        robot_rel = relative(robot_neutral.torso, robot_neutral.pose(f"{side}_hand"))
        rot_offset[f"{side}_hand"] = hand_in_torso.rotation.inverse().compose(robot_rel.rotation)

        foot = local.pose(f"{side}_foot").translation
        robot_foot = robot_neutral.pose(f"{side}_foot").translation
        foot_offset[side] = robot_foot - scale * foot

    for link in ("pelvis", "torso", "left_foot", "right_foot"):
        rot_offset[link] = (
            local.pose(link).rotation.inverse().compose(robot_neutral.pose(link).rotation)
        )

    return CalibrationProfile(
        robot=robot,
        anchor=anchor,
        pelvis_height=z_h,
        arm_length=arm_length,
        shoulder=shoulder,
        rot_offset=rot_offset,
        foot_offset=foot_offset,
    )


def _compose(qa, ta, qb, tb, unit) -> tuple:
    """Pose product (qa, ta) * (qb, tb), as Pose.compose."""
    rx, ry, rz = qrotate(qa, tb)
    x, y, z = ta
    return qmul(qa, qb, unit), (x + rx, y + ry, z + rz)


def _retarget_body(constants: tuple, v, unit) -> list:
    """The retarget of map_frame on the 42 values of a frame in row order,
    floats or (N,) columns, with `unit` the matching se3 unit kernel.
    Returns the 42 mapped values in the same order.

    Runs the Pose algebra of the formulas operation for operation, so the
    result is bit-identical to composing Poses."""
    (qa, ta), s, pelvis_off, torso_off, pelvis_to_torso, hands, feet = constants
    # Every link re-expressed in the calibration anchor frame.
    local = [_compose(qa, ta, v[k + 3 : k + 7], v[k : k + 3], unit) for k in range(0, len(v), 7)]
    (qp, tp), (qt, tt) = local[0], local[1]

    pelvis_q = qmul(qp, pelvis_off, unit)
    pelvis_t = (s * tp[0], s * tp[1], s * tp[2])
    torso_q = qmul(qt, torso_off, unit)
    r = qrotate(pelvis_q, pelvis_to_torso)
    torso_t = (pelvis_t[0] + r[0], pelvis_t[1] + r[1], pelvis_t[2] + r[2])
    out = [*pelvis_t, *pelvis_q, *torso_t, *torso_q]

    # Hands: relative to the performer's torso, re-anchored and scaled.
    inv_q = qconj(qt)
    r = qrotate(inv_q, tt)
    inv_t = (-r[0], -r[1], -r[2])
    for (qh, th), (shoulder, ratio, robot_shoulder, off) in zip(local[2:4], hands):
        rel_q, (x, y, z) = _compose(inv_q, inv_t, qh, th, unit)
        anchored = (
            (x - shoulder[0]) * ratio + robot_shoulder[0],
            (y - shoulder[1]) * ratio + robot_shoulder[1],
            (z - shoulder[2]) * ratio + robot_shoulder[2],
        )
        hand_q, hand_t = _compose(torso_q, torso_t, qmul(rel_q, off, unit), anchored, unit)
        out += (*hand_t, *hand_q)

    for (qf, (x, y, z)), (off, (dx, dy, dz)) in zip(local[4:], feet):
        out += (s * x + dx, s * y + dy, s * z + dz, *qmul(qf, off, unit))
    return out


def map_frame(profile: CalibrationProfile, human: LinkSet) -> LinkSet:
    """Retarget one captured frame to robot link targets.

    Pelvis and feet positions scale by the pelvis-height ratio (feet get
    their additive calibration correction); the torso rides on the mapped
    pelvis through the robot's fixed pelvis-to-torso offset; hands are
    retargeted torso-relative with shoulder re-anchoring and arm-length
    scaling. Orientations compose the performer's rotation with the
    calibrated offset. Stateless: same input frame, same output.
    """
    out = _retarget_body(profile._retarget, human.array.ravel().tolist(), qunit)
    if not all(map(math.isfinite, out)):
        raise ValueError("non-finite mapped translation")
    return _wrap(np.array(out, dtype=float).reshape(len(LINKS), 7))


def map_frames(profile: CalibrationProfile, poses: np.ndarray) -> np.ndarray:
    """map_frame over a whole validated (N, 6, 7) stream in one pass (see
    validated_frames); row k equals map_frame of frame k bit for bit.
    Raises FrameRefused at the first frame with a non-finite result."""
    a = _stream_shaped(np.asarray(poses, dtype=float))
    columns = list(a.reshape(len(a), len(LINKS) * 7).T)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        out = np.stack(_retarget_body(profile._retarget, columns, qunit_columns), axis=1)
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise FrameRefused(int(np.argmin(finite)), "non-finite mapped translation")
    return out.reshape(a.shape)


def torso_from_headset(pelvis: Pose, headset_position: np.ndarray) -> Rotation:
    """Torso orientation estimate from the headset position alone.

    Expresses the headset position in the pelvis frame and returns the
    minimal rotation aligning the vertical axis z with that direction
    (pelvis-frame result; compose with pelvis.rotation for world).
    Headset orientation is deliberately not an input: where the user
    looks should not steer the torso.

    Raises DegenerateHeadset when the pelvis-frame offset is <= 1e-6 m.
    """
    v = pelvis.rotation.inverse().apply(np.asarray(headset_position, dtype=float) - pelvis.translation)
    if float(np.linalg.norm(v)) <= 1e-6:
        raise DegenerateHeadset(f"headset offset norm {np.linalg.norm(v):.3e} m <= 1e-6 m")
    return align_axis(np.array([0.0, 0.0, 1.0]), v)
