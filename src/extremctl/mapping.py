"""Cartesian pose retargeting from a human performer to a humanoid robot.

A one-shot calibration against a prescribed standing pose (arms forward
along +x, feet on the ground) measures the performer's pelvis height,
arm lengths, shoulder anchors, and per-link rotation offsets. Per-frame
mapping then scales pelvis and feet by the height ratio, anchors the
torso on the mapped pelvis, and retargets hands in the torso frame
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
bits. Calibration runs the same se3 kernels on the rows of one frame; a
pose outside a LinkSet is a (q, t) pair of tuples, as in se3.

Every pose read from JSON, in a LinkSet, a profile or a JSONL stream,
is read as pose_row reads it: an object {"p": 3 numbers, "q": 4 numbers}.
links_row reads the six of a frame.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ExtremControlError
from .se3 import (
    ZeroVector,
    align_axis,
    pinv,
    pmul,
    qaxis_angle,
    qconj,
    qmul,
    qrotate,
    qunit,
    qunit_columns,
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


_JSON_NUMBER = frozenset((int, float))  # bool, str and None are refused
_FLOAT = frozenset((float,))


def _numbers(value, n: int, where: str) -> list:
    """A JSON list of n numbers as n floats; anything else raises
    ValueError naming `where`."""
    if type(value) is list and len(value) == n and set(map(type, value)) <= _JSON_NUMBER:
        try:
            return list(map(float, value))
        except OverflowError:
            pass
    raise ValueError(f"{where} must be a list of {n} numbers")


def _number(value, where: str) -> float:
    """A JSON number as a float; anything else raises ValueError naming `where`."""
    if type(value) in _JSON_NUMBER:
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{where} must be a number")


def _entry(d, key: str, where: str):
    """d[key], where `d` is the JSON object read as `where`."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(d).__name__}")
    if key not in d:
        raise ValueError(f"{where} has no {key!r}")
    return d[key]


def _sides(d, key: str, where: str) -> dict:
    """d[key]["left"] and d[key]["right"]."""
    per_side = _entry(d, key, where)
    return {side: _entry(per_side, side, key) for side in SIDES}


def pose_row(d, link: str) -> list:
    """The 7 floats, translation then quaternion, of one pose object
    {"p": 3 numbers, "q": 4 numbers}; anything else raises ValueError
    naming `link`. Values are checked by the caller (se3.qunit, finite
    translations)."""
    if not isinstance(d, dict):
        raise ValueError(f"{link} must be an object with p and q, not {type(d).__name__}")
    return _numbers(d.get("p"), 3, f"{link} p") + _numbers(d.get("q"), 4, f"{link} q")


def links_row(d) -> list:
    """The 42 floats, in LINKS order, of a {link: pose object} mapping,
    each pose read as pose_row reads it. A frame of plain floats takes one
    type check; anything else goes through pose_row link by link."""
    row = []
    try:
        for name in LINKS:
            pose = d[name]
            p, q = pose["p"], pose["q"]
            if len(p) != 3 or len(q) != 4:
                break
            row += p
            row += q
        else:
            if set(map(type, row)) == _FLOAT:
                return row
    except (TypeError, KeyError):
        pass
    return [v for name in LINKS for v in pose_row(_entry(d, name, "links"), name)]


@dataclass(frozen=True, eq=False, init=False)
class LinkSet:
    """One pose per tracked link, as a read-only (6, 7) array (see module
    doc). Built by from_array or from_dict, which validate it."""

    array: np.ndarray

    @staticmethod
    def from_array(array) -> "LinkSet":
        """Validate a (6, 7) array: finite translations, each quaternion
        through se3.qunit."""
        a = np.asarray(array, dtype=float)
        if a.shape != (len(LINKS), 7):
            raise ValueError(f"LinkSet array shape {a.shape}, expected ({len(LINKS)}, 7)")
        return _validated(a.ravel().tolist())

    def to_dict(self) -> dict:
        rows = self.array.tolist()
        return {name: {"q": row[3:], "p": row[:3]} for name, row in zip(LINKS, rows)}

    @staticmethod
    def from_dict(d: dict) -> "LinkSet":
        return _validated(links_row(d))


def _row(link: str) -> int:
    try:
        return _ROW[link]
    except KeyError:
        raise ValueError(f"unknown link {link!r}") from None


def _wrap(a: np.ndarray) -> LinkSet:
    """A LinkSet around an array that already holds valid poses."""
    a.setflags(write=False)
    links = object.__new__(LinkSet)
    object.__setattr__(links, "array", a)
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


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class RobotModel:
    """Fixed robot geometry. Lengths in meters, model frame as above."""

    pelvis_height: float
    pelvis_to_torso: tuple[float, float, float]
    shoulder_offset: dict[str, tuple[float, float, float]]  # torso frame, per side
    arm_length: dict[str, float]
    neutral_foot: dict[str, tuple[float, float, float]]

    def __post_init__(self) -> None:
        """Refuses a value that is not a finite number, naming its field;
        stores the vectors as tuples and the lengths as floats."""
        vectors = {"pelvis_to_torso": self.pelvis_to_torso}
        for side in SIDES:
            vectors[f"shoulder_offset {side}"] = self.shoulder_offset[side]
            vectors[f"neutral_foot {side}"] = self.neutral_foot[side]
        for name, v in vectors.items():
            if not (isinstance(v, (list, tuple, np.ndarray)) and len(v) == 3
                    and all(map(_real, v))):
                raise ValueError(f"{name} {v!r} must be 3 finite numbers")
        lengths = {"pelvis_height": self.pelvis_height}
        lengths.update({f"{side} arm_length": self.arm_length[side] for side in SIDES})
        for name, v in lengths.items():
            if not (_real(v) and v > 0):
                raise ValueError(f"{name} {v!r} must be a positive finite number")
        set_ = object.__setattr__
        set_(self, "pelvis_height", float(self.pelvis_height))
        set_(self, "pelvis_to_torso", tuple(self.pelvis_to_torso))
        set_(self, "shoulder_offset", {s: tuple(self.shoulder_offset[s]) for s in SIDES})
        set_(self, "arm_length", {s: float(self.arm_length[s]) for s in SIDES})
        set_(self, "neutral_foot", {s: tuple(self.neutral_foot[s]) for s in SIDES})

    def neutral_links(self) -> LinkSet:
        """The robot's neutral stance (identity orientations)."""
        pelvis = np.array([0.0, 0.0, self.pelvis_height])
        torso = pelvis + self.pelvis_to_torso
        hands = [torso + np.add(self.shoulder_offset[s], (self.arm_length[s], 0.0, 0.0))
                 for s in SIDES]
        feet = [self.neutral_foot[s] for s in SIDES]
        identity = np.tile((1.0, 0.0, 0.0, 0.0), (len(LINKS), 1))
        return LinkSet.from_array(np.hstack([[pelvis, torso, *hands, *feet], identity]))

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
            pelvis_height=_entry(d, "pelvis_height_m", "robot"),
            pelvis_to_torso=_entry(d, "pelvis_to_torso_m", "robot"),
            shoulder_offset=_sides(d, "shoulder_offset_m", "robot"),
            arm_length=_sides(d, "arm_length_m", "robot"),
            neutral_foot=_sides(d, "neutral_foot_m", "robot"),
        )


@dataclass(frozen=True, eq=False)
class CalibrationProfile:
    """Everything map_frame needs, measured once from the neutral pose."""

    robot: RobotModel
    anchor: tuple  # (q, t): heading-aligned pelvis ground frame at calibration
    pelvis_height: float  # performer pelvis height z^h, meters
    arm_length: dict[str, float]  # performer arm length l^h per side, torso frame
    shoulder: dict[str, np.ndarray]  # performer shoulder anchor per side, torso frame
    rot_offset: dict[str, tuple]  # unit quaternion per link; hands in the torso frame
    foot_offset: dict[str, np.ndarray]  # additive foot correction, meters

    @property
    def scale(self) -> float:
        """Robot-to-performer pelvis height ratio z^r / z^h."""
        return self.robot.pelvis_height / self.pelvis_height

    @cached_property
    def _retarget(self) -> tuple:
        """map_frame's per-profile constants as plain floats, derived on
        first use and kept for the life of this (frozen) profile."""
        robot = self.robot

        def floats(v) -> tuple:
            return tuple(float(c) for c in v)

        hands = tuple(
            (
                floats(self.shoulder[side]),
                robot.arm_length[side] / self.arm_length[side],
                floats(robot.shoulder_offset[side]),
                self.rot_offset[f"{side}_hand"],
            )
            for side in SIDES
        )
        feet = tuple(
            (self.rot_offset[f"{side}_foot"], floats(self.foot_offset[side])) for side in SIDES
        )
        return (
            pinv(*self.anchor),
            self.scale,
            self.rot_offset["pelvis"],
            self.rot_offset["torso"],
            floats(robot.pelvis_to_torso),
            hands,
            feet,
        )

    def to_dict(self) -> dict:
        q, t = self.anchor
        return {
            "robot": self.robot.to_dict(),
            "anchor": {"q": list(q), "p": list(t)},
            "pelvis_height_m": self.pelvis_height,
            "arm_length_m": dict(self.arm_length),
            "shoulder_m": {s: [float(c) for c in self.shoulder[s]] for s in SIDES},
            "rot_offset": {k: list(q) for k, q in self.rot_offset.items()},
            "foot_offset_m": {s: [float(c) for c in self.foot_offset[s]] for s in SIDES},
        }

    @staticmethod
    def from_dict(d: dict) -> "CalibrationProfile":
        def per_side(key: str, read) -> dict:
            return {s: read(v, f"{key} {s}") for s, v in _sides(d, key, "profile").items()}

        def vector(value, where: str) -> np.ndarray:
            return np.array(_numbers(value, 3, where))

        def quaternion(link: str) -> tuple:
            return qunit(*_numbers(_entry(rot_offset, link, "rot_offset"), 4, f"rot_offset {link}"))

        anchor = pose_row(_entry(d, "anchor", "profile"), "anchor")
        if not all(map(math.isfinite, anchor[:3])):
            raise ValueError("non-finite anchor translation")
        rot_offset = _entry(d, "rot_offset", "profile")
        return CalibrationProfile(
            robot=RobotModel.from_dict(_entry(d, "robot", "profile")),
            anchor=(qunit(*anchor[3:]), tuple(anchor[:3])),
            pelvis_height=_number(_entry(d, "pelvis_height_m", "profile"), "pelvis_height_m"),
            arm_length=per_side("arm_length_m", _number),
            shoulder=per_side("shoulder_m", vector),
            rot_offset={link: quaternion(link) for link in LINKS},
            foot_offset=per_side("foot_offset_m", vector),
        )


def heading_anchor(q, t) -> tuple:
    """Yaw-only ground frame of a pelvis pose (q, t), as a pose (q, t):
    position under the pelvis, x along its heading."""
    hx, hy, _ = qrotate(q, (1.0, 0.0, 0.0))
    yaw = math.atan2(hy, hx) if math.hypot(hx, hy) > 1e-9 else 0.0
    return qaxis_angle((0.0, 0.0, 1.0), yaw), (t[0], t[1], 0.0)


def calibrate(neutral: LinkSet, robot: RobotModel) -> CalibrationProfile:
    """One-shot calibration from the performer's prescribed standing pose.

    Measures pelvis height, per-side arm length (torso-frame x reach) and
    shoulder anchor (same vector with x zeroed), per-link rotation offsets
    against the robot's neutral, and additive foot corrections.

    Raises DegenerateNeutral when pelvis height <= 0.3 m or an arm
    length <= 0.1 m, the floor for a plausible standing human.
    """
    rows = neutral.array.tolist()
    anchor = heading_anchor(rows[0][3:], rows[0][:3])
    to_anchor = pinv(*anchor)
    # Every link as a pose (q, t) in the anchor frame; the robot's as given.
    local = {name: pmul(*to_anchor, row[3:], row[:3]) for name, row in zip(LINKS, rows)}
    robot_rows = robot.neutral_links().array.tolist()
    robot_neutral = {name: (row[3:], row[:3]) for name, row in zip(LINKS, robot_rows)}

    z_h = local["pelvis"][1][2]
    if z_h <= MIN_PELVIS_HEIGHT_M:
        raise DegenerateNeutral(f"pelvis height {z_h:.3f} m <= {MIN_PELVIS_HEIGHT_M} m")
    scale = robot.pelvis_height / z_h

    arm_length: dict[str, float] = {}
    shoulder: dict[str, np.ndarray] = {}
    rot_offset: dict[str, tuple] = {}
    foot_offset: dict[str, np.ndarray] = {}

    for side in SIDES:
        hand_q, hand_t = pmul(*pinv(*local["torso"]), *local[f"{side}_hand"])
        if hand_t[0] <= MIN_ARM_LENGTH_M:
            raise DegenerateNeutral(f"{side} arm length {hand_t[0]:.3f} m <= {MIN_ARM_LENGTH_M} m")
        arm_length[side] = hand_t[0]
        shoulder[side] = np.array([0.0, hand_t[1], hand_t[2]])
        # Hand offsets live in the torso frame the retarget uses.
        robot_q, _ = pmul(*pinv(*robot_neutral["torso"]), *robot_neutral[f"{side}_hand"])
        rot_offset[f"{side}_hand"] = qmul(qconj(hand_q), robot_q)
        robot_foot = np.array(robot_neutral[f"{side}_foot"][1])
        foot_offset[side] = robot_foot - scale * np.array(local[f"{side}_foot"][1])

    for link in ("pelvis", "torso", "left_foot", "right_foot"):
        rot_offset[link] = qmul(qconj(local[link][0]), robot_neutral[link][0])

    return CalibrationProfile(
        robot=robot,
        anchor=anchor,
        pelvis_height=z_h,
        arm_length=arm_length,
        shoulder=shoulder,
        rot_offset=rot_offset,
        foot_offset=foot_offset,
    )


def _retarget_body(constants: tuple, v, unit) -> list:
    """The retarget of map_frame on the 42 values of a frame in row order,
    floats or (N,) columns, with `unit` the matching se3 unit kernel.
    Returns the 42 mapped values in the same order.

    Runs the pose algebra of the formulas operation for operation (se3.pmul,
    se3.pinv), so floats and columns give the same bits."""
    (qa, ta), s, pelvis_off, torso_off, pelvis_to_torso, hands, feet = constants
    # Every link re-expressed in the calibration anchor frame.
    local = [pmul(qa, ta, v[k + 3 : k + 7], v[k : k + 3], unit) for k in range(0, len(v), 7)]
    (qp, tp), (qt, tt) = local[0], local[1]

    pelvis_q = qmul(qp, pelvis_off, unit)
    pelvis_t = (s * tp[0], s * tp[1], s * tp[2])
    torso_q = qmul(qt, torso_off, unit)
    r = qrotate(pelvis_q, pelvis_to_torso)
    torso_t = (pelvis_t[0] + r[0], pelvis_t[1] + r[1], pelvis_t[2] + r[2])
    out = [*pelvis_t, *pelvis_q, *torso_t, *torso_q]

    # Hands: in the performer's torso frame, re-anchored and scaled.
    inv_q, inv_t = pinv(qt, tt)
    for (qh, th), (shoulder, ratio, robot_shoulder, off) in zip(local[2:4], hands):
        rel_q, (x, y, z) = pmul(inv_q, inv_t, qh, th, unit)
        anchored = (
            (x - shoulder[0]) * ratio + robot_shoulder[0],
            (y - shoulder[1]) * ratio + robot_shoulder[1],
            (z - shoulder[2]) * ratio + robot_shoulder[2],
        )
        hand_q, hand_t = pmul(torso_q, torso_t, qmul(rel_q, off, unit), anchored, unit)
        out += (*hand_t, *hand_q)

    for (qf, (x, y, z)), (off, (dx, dy, dz)) in zip(local[4:], feet):
        out += (s * x + dx, s * y + dy, s * z + dz, *qmul(qf, off, unit))
    return out


def map_frame(profile: CalibrationProfile, human: LinkSet) -> LinkSet:
    """Retarget one captured frame to robot link targets.

    Pelvis and feet positions scale by the pelvis-height ratio (feet get
    their additive calibration correction); the torso rides on the mapped
    pelvis through the robot's fixed pelvis-to-torso offset; hands are
    retargeted in the torso frame with shoulder re-anchoring and arm-length
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


def torso_from_headset(pelvis_q, pelvis_t, headset_position) -> tuple:
    """Torso orientation estimate from the headset position alone.

    Expresses the headset position in the frame of the pelvis pose
    (pelvis_q, pelvis_t) and returns the minimal rotation, a unit
    quaternion, aligning the vertical axis z with that direction
    (pelvis-frame result; qmul(pelvis_q, result) gives world).
    Headset orientation is deliberately not an input: where the user
    looks should not steer the torso.

    Raises DegenerateHeadset when the pelvis-frame offset is <= 1e-6 m.
    """
    offset = [float(h) - float(p) for h, p in zip(headset_position, pelvis_t)]
    v = qrotate(qconj(pelvis_q), offset)
    norm = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if norm <= 1e-6:
        raise DegenerateHeadset(f"headset offset norm {norm:.3e} m <= 1e-6 m")
    return align_axis((0.0, 0.0, 1.0), v)
