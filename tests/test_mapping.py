"""Calibration and per-frame retargeting: worked examples plus the
consistency, scale-invariance, statelessness, and reach-bound properties,
and bit-for-bit agreement with a reference copy of the former Pose
algebra."""

import json
import math

import numpy as np
import pytest

from conftest import IDENTITY, make_links, quat_angle
from extremctl.mapping import (
    LINKS,
    SIDES,
    CalibrationProfile,
    DegenerateHeadset,
    DegenerateNeutral,
    FrameRefused,
    LinkSet,
    RobotModel,
    _wrap,
    calibrate,
    heading_anchor,
    map_frame,
    map_frames,
    torso_from_headset,
    validated_frames,
)
from extremctl.pipeline import default_human_neutral, default_robot_model
from extremctl.se3 import ZeroVector, pmul, qaxis_angle, qconj, qmul, qrotate, qunit
from extremctl.wire import PoseFrame, decode_frame, encode_frame

Z = (0.0, 0.0, 1.0)


def make_robot():
    return RobotModel(
        pelvis_height=0.75,
        pelvis_to_torso=(0.05, 0.0, 0.25),
        shoulder_offset={"left": (0.02, 0.18, 0.05), "right": (0.02, -0.18, 0.05)},
        arm_length={"left": 0.45, "right": 0.45},
        neutral_foot={"left": (0.0, 0.12, 0.03), "right": (0.0, -0.12, 0.03)},
    )


def make_human(pelvis_z=1.0, hand_local=(0.6, 0.2, 0.3), foot_local=(0.0, 0.1, 0.02)):
    """Neutral with identity orientations and torso == pelvis, so torso-frame
    and pelvis-frame measurements coincide and worked numbers hold literally."""
    hx, hy, hz = hand_local
    fx, fy, fz = foot_local
    return make_links([
        (IDENTITY, (0.0, 0.0, pelvis_z)),
        (IDENTITY, (0.0, 0.0, pelvis_z)),
        (IDENTITY, (hx, hy, pelvis_z + hz)),
        (IDENTITY, (hx, -hy, pelvis_z + hz)),
        (IDENTITY, (fx, fy, fz)),
        (IDENTITY, (fx, -fy, fz)),
    ])


def pose(links, name):
    """The (q, t) pose of one link."""
    row = links.array[LINKS.index(name)].tolist()
    return tuple(row[3:]), tuple(row[:3])


def with_pose(links, name, q, t):
    rows = links.array.copy()
    rows[LINKS.index(name)] = [*t, *q]
    return LinkSet.from_array(rows)


def transform(links, fn):
    """Apply a (q, t) -> (q, t) function to every link."""
    return make_links([fn(*pose(links, name)) for name in LINKS])


def translation(links, name):
    return links.array[LINKS.index(name), :3]


def links_close(a, b, tol=1e-9):
    if np.abs(a.array[:, :3] - b.array[:, :3]).max() > tol:
        return False
    return all(quat_angle(qmul(qconj(qa), qb)) <= tol
               for qa, qb in zip(a.array[:, 3:].tolist(), b.array[:, 3:].tolist()))


def yawed(q, t, yaw, offset):
    """The pose (q, t) turned by `yaw` about z, then moved by `offset`."""
    return pmul(qaxis_angle(Z, yaw), tuple(offset), q, t)


def random_rotation(rng, scale=1.0):
    return qaxis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi) * scale)


def random_neutral(rng, base):
    """`base` with every link turned a little, then the whole stance yawed
    and moved on the floor."""
    yaw = rng.uniform(-np.pi, np.pi)
    origin = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0])
    return transform(base, lambda q, t: yawed(qmul(q, random_rotation(rng, 0.1)), t, yaw, origin))


def test_self_calibration_is_identity():
    robot = make_robot()
    neutral = robot.neutral_links()
    prof = calibrate(neutral, robot)
    assert abs(prof.scale - 1.0) < 1e-15
    for link, off in prof.rot_offset.items():
        assert quat_angle(off) < 1e-12, link
    for side in ("left", "right"):
        assert np.abs(prof.foot_offset[side]).max() < 1e-12
    assert links_close(map_frame(prof, neutral), neutral, tol=1e-12)


def test_foot_offset_example():
    # s = 0.75/1.0; delta = robot_foot - s * human_foot
    prof = calibrate(make_human(), make_robot())
    assert abs(prof.scale - 0.75) < 1e-15
    np.testing.assert_allclose(prof.foot_offset["left"], [0.0, 0.045, 0.015], atol=1e-15)


def test_shoulder_and_arm_measurement():
    # hand at (0.6, -0.2, 0.3) in the pelvis(=torso) frame
    prof = calibrate(make_human(hand_local=(0.6, 0.2, 0.3)), make_robot())
    assert abs(prof.arm_length["right"] - 0.6) < 1e-15
    np.testing.assert_allclose(prof.shoulder["right"], [0.0, -0.2, 0.3], atol=1e-15)
    np.testing.assert_allclose(prof.shoulder["left"], [0.0, 0.2, 0.3], atol=1e-15)


def test_pelvis_height_scaling():
    human = make_human(pelvis_z=1.0)
    prof = calibrate(human, make_robot())
    frame = with_pose(human, "pelvis", IDENTITY, (0.0, 0.0, 0.9))
    out = map_frame(prof, frame)
    assert abs(translation(out, "pelvis")[2] - 0.675) < 1e-12


def test_neutral_reproduction_exact():
    robot = make_robot()
    human = make_human()
    prof = calibrate(human, robot)
    assert links_close(map_frame(prof, human), robot.neutral_links(), tol=1e-9)


def shoulder_in_world(out, robot, side):
    """The robot's shoulder on side `side`, carried by the mapped torso."""
    return pmul(*pose(out, "torso"), IDENTITY, robot.shoulder_offset[side])[1]


def test_full_extension_reaches_arm_length():
    robot = make_robot()
    human = make_human()
    prof = calibrate(human, robot)
    direction = np.array([1.0, 0.3, -0.2])
    direction /= np.linalg.norm(direction)
    rel = prof.shoulder["right"] + prof.arm_length["right"] * direction
    frame = with_pose(human, "right_hand", IDENTITY, translation(human, "torso") + rel)
    out = map_frame(prof, frame)
    reach = np.linalg.norm(translation(out, "right_hand") - shoulder_in_world(out, robot, "right"))
    assert abs(reach - robot.arm_length["right"]) < 1e-12


def test_hand_reach_bound_random_frames():
    robot = make_robot()
    human = make_human()
    prof = calibrate(human, robot)
    rng = np.random.default_rng(31)
    for _ in range(40):
        rel = prof.shoulder["left"] + rng.normal(scale=0.25, size=3)
        frame = with_pose(human, "left_hand", IDENTITY, translation(human, "torso") + rel)
        out = map_frame(prof, frame)
        got = np.linalg.norm(translation(out, "left_hand") - shoulder_in_world(out, robot, "left"))
        want = (
            robot.arm_length["left"]
            * np.linalg.norm(rel - prof.shoulder["left"])
            / prof.arm_length["left"]
        )
        assert abs(got - want) < 1e-9


def test_consistency_any_neutral_any_placement():
    """map_frame(calibrate(neutral), neutral) == robot neutral, wherever the
    performer stood and however they were heading."""
    robot = make_robot()
    rng = np.random.default_rng(32)
    base = make_human(pelvis_z=0.96, hand_local=(0.55, 0.22, 0.28), foot_local=(0.02, 0.11, 0.015))
    for _ in range(20):
        yaw = rng.uniform(-np.pi, np.pi)
        offset = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0])
        neutral = transform(base, lambda q, t: yawed(q, t, yaw, offset))
        prof = calibrate(neutral, robot)
        assert links_close(map_frame(prof, neutral), robot.neutral_links(), tol=1e-9)


def tilted(rng, base):
    """`base` with every link turned by up to 0.3 rad about a random axis."""
    def tilt(q, t):
        axis = rng.normal(size=3)
        return qmul(q, qaxis_angle(axis, rng.uniform(-0.3, 0.3))), t
    return transform(base, tilt)


def test_consistency_tilted_links():
    # per-link orientation clutter calibrates away through the offsets
    robot = make_robot()
    rng = np.random.default_rng(33)
    base = make_human()
    for _ in range(10):
        neutral = tilted(rng, base)
        prof = calibrate(neutral, robot)
        assert links_close(map_frame(prof, neutral), robot.neutral_links(), tol=1e-9)


def test_uniform_scale_invariance():
    robot = make_robot()
    human = make_human()
    prof = calibrate(human, robot)
    moved = with_pose(human, "right_hand", IDENTITY,
                      translation(human, "right_hand") + np.array([0.1, -0.05, 0.12]))
    ref = map_frame(prof, moved)
    for s in (0.8, 1.25, 2.0):
        scale = lambda q, t: (q, np.multiply(t, s))
        prof_s = calibrate(transform(human, scale), robot)
        out = map_frame(prof_s, transform(moved, scale))
        assert links_close(out, ref, tol=1e-9)


def test_map_frame_stateless_bit_identical():
    robot = make_robot()
    human = make_human()
    prof = calibrate(human, robot)
    rng = np.random.default_rng(34)
    frame = with_pose(human, "left_hand", IDENTITY,
                      translation(human, "left_hand") + rng.normal(size=3) * 0.1)
    a = map_frame(prof, frame)
    b = map_frame(prof, frame)
    assert np.array_equal(a.array, b.array)


def test_torso_rides_mapped_pelvis():
    robot = make_robot()
    human = make_human()
    prof = calibrate(human, robot)
    frame = with_pose(human, "pelvis", qaxis_angle(Z, 0.4), (0.3, -0.2, 0.95))
    out = map_frame(prof, frame)
    pelvis_q, pelvis_t = pose(out, "pelvis")
    want = np.add(pelvis_t, qrotate(pelvis_q, robot.pelvis_to_torso))
    np.testing.assert_allclose(translation(out, "torso"), want, atol=1e-12)


def test_degenerate_neutral_rejected():
    robot = make_robot()
    with pytest.raises(DegenerateNeutral):
        calibrate(make_human(pelvis_z=0.25), robot)  # crouching below 0.3 m
    with pytest.raises(DegenerateNeutral):
        calibrate(make_human(hand_local=(0.05, 0.2, 0.3)), robot)  # arm barely forward


def test_headset_directly_above_is_identity():
    pelvis_q, pelvis_t = qaxis_angle(Z, 0.7), (0.2, 0.1, 1.0)
    headset = np.add(pelvis_t, [0.0, 0.0, 0.6])
    assert quat_angle(torso_from_headset(pelvis_q, pelvis_t, headset)) < 1e-12


def test_headset_forward_up_is_pitch():
    pelvis_t = (0.0, 0.0, 1.0)
    headset = np.add(pelvis_t, [0.5, 0.0, 0.5])
    r = torso_from_headset(IDENTITY, pelvis_t, headset)
    assert abs(quat_angle(r) - np.pi / 4) < 1e-12
    axis = np.array(r[1:]) / np.linalg.norm(r[1:])
    np.testing.assert_allclose(axis, [0.0, 1.0, 0.0], atol=1e-12)


def test_headset_yawed_pelvis_reexpresses():
    # same world displacement, pelvis yawed 90 deg: pitch becomes roll
    pelvis_q, pelvis_t = qaxis_angle(Z, np.pi / 2), (0.0, 0.0, 1.0)
    headset = np.add(pelvis_t, [0.5, 0.0, 0.5])
    r = torso_from_headset(pelvis_q, pelvis_t, headset)
    assert abs(quat_angle(r) - np.pi / 4) < 1e-12
    axis = np.array(r[1:]) / np.linalg.norm(r[1:])
    np.testing.assert_allclose(axis, [1.0, 0.0, 0.0], atol=1e-12)


def test_headset_degenerate():
    pelvis_t = (0.0, 0.0, 1.0)
    with pytest.raises(DegenerateHeadset):
        torso_from_headset(IDENTITY, pelvis_t, np.add(pelvis_t, [0.0, 0.0, 1e-8]))


def test_heading_anchor_keeps_yaw_only():
    q = qmul(qaxis_angle(Z, 0.9), qaxis_angle((0, 1, 0), 0.3))
    anchor_q, anchor_t = heading_anchor(q, (1.5, -2.0, 0.97))
    np.testing.assert_allclose(anchor_t, [1.5, -2.0, 0.0], atol=1e-15)
    # anchor x axis matches the horizontal projection of the pelvis heading
    fwd = np.array(qrotate(q, (1.0, 0.0, 0.0)))
    fwd[2] = 0.0
    fwd /= np.linalg.norm(fwd)
    np.testing.assert_allclose(qrotate(anchor_q, (1.0, 0.0, 0.0)), fwd, atol=1e-12)


def test_profile_json_round_trip():
    prof = calibrate(make_human(), make_robot())
    back = CalibrationProfile.from_dict(json.loads(json.dumps(prof.to_dict())))
    assert back.to_dict() == prof.to_dict()
    human = make_human()
    frame = with_pose(human, "right_hand", IDENTITY,
                      translation(human, "right_hand") + np.array([0.05, 0.02, -0.04]))
    assert links_close(map_frame(back, frame), map_frame(prof, frame), tol=1e-15)


# -------------------------------------------- the former Pose algebra


class RefRotation:
    """The former se3.Rotation (unit quaternion as a numpy array, w >= 0),
    kept as the reference the kernel code must reproduce bit for bit."""

    def __init__(self, q):
        self.q = np.array(qunit(*np.asarray(q, dtype=float).reshape(4).tolist()))

    @staticmethod
    def identity():
        return RefRotation([1.0, 0.0, 0.0, 0.0])

    @staticmethod
    def from_axis_angle(axis, angle):
        axis = np.asarray(axis, dtype=float).reshape(3)
        half = 0.5 * float(angle)
        u = axis * (math.sin(half) / float(np.linalg.norm(axis)))
        return RefRotation(np.array([math.cos(half), u[0], u[1], u[2]]))

    def compose(self, other):
        return RefRotation(qmul(self.q.tolist(), other.q.tolist()))

    def inverse(self):
        return RefRotation(qconj(self.q.tolist()))

    def apply(self, v):
        v = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
        return np.stack(qrotate(self.q.tolist(), v), axis=-1)


class RefPose:
    """The former se3.Pose: a RefRotation plus a translation array."""

    def __init__(self, rotation, translation):
        self.rotation = rotation
        self.translation = np.asarray(translation, dtype=float).reshape(3).copy()

    def compose(self, other):
        return RefPose(
            self.rotation.compose(other.rotation),
            self.translation + self.rotation.apply(other.translation),
        )

    def inverse(self):
        rinv = self.rotation.inverse()
        return RefPose(rinv, -rinv.apply(self.translation))

    def to_dict(self):
        return {"q": self.rotation.q.tolist(), "p": self.translation.tolist()}


def ref_relative(base, target):
    """Target expressed in the base frame: base.inverse() * target."""
    return base.inverse().compose(target)


def ref_poses(links):
    return {name: RefPose(RefRotation(row[3:]), row[:3]) for name, row in zip(LINKS, links.array)}


def ref_links(poses):
    return make_links({name: (p.rotation.q, p.translation) for name, p in poses.items()})


def reference_neutral(robot):
    """RobotModel.neutral_links written in the reference algebra."""
    ident = RefRotation.identity()
    pelvis = RefPose(ident, [0.0, 0.0, robot.pelvis_height])
    torso = RefPose(ident, pelvis.translation + np.asarray(robot.pelvis_to_torso, dtype=float))
    out = {"pelvis": pelvis, "torso": torso}
    for side in SIDES:
        local = np.asarray(robot.shoulder_offset[side], dtype=float) + np.array(
            [robot.arm_length[side], 0.0, 0.0]
        )
        out[f"{side}_hand"] = RefPose(ident, torso.rotation.apply(local) + torso.translation)
    for side in SIDES:
        out[f"{side}_foot"] = RefPose(ident, robot.neutral_foot[side])
    return out


def reference_calibrate(neutral, robot):
    """calibrate written in the reference algebra, operation for operation;
    returns what CalibrationProfile.to_dict would."""
    pelvis = ref_poses(neutral)["pelvis"]
    h = pelvis.rotation.apply(np.array([1.0, 0.0, 0.0]))
    yaw = math.atan2(h[1], h[0]) if math.hypot(h[0], h[1]) > 1e-9 else 0.0
    anchor = RefPose(RefRotation.from_axis_angle([0.0, 0.0, 1.0], yaw),
                     [pelvis.translation[0], pelvis.translation[1], 0.0])
    to_anchor = anchor.inverse()
    local = {name: to_anchor.compose(p) for name, p in ref_poses(neutral).items()}
    robot_neutral = reference_neutral(robot)
    z_h = float(local["pelvis"].translation[2])
    scale = robot.pelvis_height / z_h
    out = {"robot": robot.to_dict(), "anchor": anchor.to_dict(), "pelvis_height_m": z_h,
           "arm_length_m": {}, "shoulder_m": {}, "rot_offset": {}, "foot_offset_m": {}}
    for side in SIDES:
        hand = ref_relative(local["torso"], local[f"{side}_hand"])
        out["arm_length_m"][side] = float(hand.translation[0])
        out["shoulder_m"][side] = [0.0, float(hand.translation[1]), float(hand.translation[2])]
        robot_rel = ref_relative(robot_neutral["torso"], robot_neutral[f"{side}_hand"])
        out["rot_offset"][f"{side}_hand"] = (
            hand.rotation.inverse().compose(robot_rel.rotation).q.tolist())
        out["foot_offset_m"][side] = (robot_neutral[f"{side}_foot"].translation
                                      - scale * local[f"{side}_foot"].translation).tolist()
    for link in ("pelvis", "torso", "left_foot", "right_foot"):
        out["rot_offset"][link] = (
            local[link].rotation.inverse().compose(robot_neutral[link].rotation).q.tolist())
    return out


def reference_map_frame(prof, human):
    """map_frame written in the reference algebra, in the order of
    operations the plain-float path must reproduce bit for bit: anchor
    inverse, per-link compose, `ref_relative` for the hands, torso compose."""
    robot, s = prof.robot, prof.scale
    rot_offset = {link: RefRotation(q) for link, q in prof.rot_offset.items()}
    to_anchor = RefPose(RefRotation(prof.anchor[0]), prof.anchor[1]).inverse()
    local = {name: to_anchor.compose(p) for name, p in ref_poses(human).items()}
    pelvis = RefPose(
        local["pelvis"].rotation.compose(rot_offset["pelvis"]),
        s * local["pelvis"].translation,
    )
    torso = RefPose(
        local["torso"].rotation.compose(rot_offset["torso"]),
        pelvis.translation + pelvis.rotation.apply(np.asarray(robot.pelvis_to_torso, dtype=float)),
    )
    out = {"pelvis": pelvis, "torso": torso}
    for side in SIDES:
        foot = local[f"{side}_foot"]
        out[f"{side}_foot"] = RefPose(
            foot.rotation.compose(rot_offset[f"{side}_foot"]),
            s * foot.translation + prof.foot_offset[side],
        )
        rel = ref_relative(local["torso"], local[f"{side}_hand"])
        ratio = robot.arm_length[side] / prof.arm_length[side]
        anchored = (rel.translation - prof.shoulder[side]) * ratio + np.asarray(
            robot.shoulder_offset[side], dtype=float
        )
        out[f"{side}_hand"] = torso.compose(
            RefPose(rel.rotation.compose(rot_offset[f"{side}_hand"]), anchored)
        )
    return ref_links(out)


def random_frames(rng, neutral, n):
    """Frames around the neutral: per-link rotation and translation noise.
    Every fourth frame stores quaternions off unit norm by up to 0.9e-12,
    which LinkSet keeps as is but whose products get renormalized."""
    for k in range(n):
        a = np.array(neutral.array)
        for i in range(len(LINKS)):
            a[i, :3] += rng.normal(scale=0.2, size=3)
            a[i, 3:] = qmul(random_rotation(rng), qunit(*a[i, 3:]))
            if k % 4 == 3:
                a[i, 3:] *= 1.0 + rng.uniform(-0.9e-12, 0.9e-12)
        yield LinkSet.from_array(a)


def test_map_frame_bit_identical_to_pose_algebra():
    robot = make_robot()
    rng = np.random.default_rng(35)
    base = make_human(pelvis_z=0.96, hand_local=(0.55, 0.22, 0.28), foot_local=(0.02, 0.11, 0.015))
    frames = 0
    for _ in range(4):
        neutral = random_neutral(rng, base)
        prof = calibrate(neutral, robot)
        for human in random_frames(rng, neutral, 60):
            got = map_frame(prof, human)
            assert np.array_equal(got.array, reference_map_frame(prof, human).array)
            q = got.array[:, 3:]
            assert np.all(q[:, 0] >= 0.0)
            assert np.abs(np.sqrt(np.sum(q * q, axis=1)) - 1.0).max() <= 1e-12
            back = decode_frame(encode_frame(PoseFrame(seq=frames, timestamp_ns=0, links=got)))
            assert np.array_equal(back.links.array, got.array)
            frames += 1
    assert frames == 240


def test_calibrate_bit_identical_to_pose_algebra():
    """The profile, written out, is the reference algebra's to the bit, and
    so is the robot's neutral stance it calibrates against."""
    rng = np.random.default_rng(42)
    base = make_human(pelvis_z=0.96, hand_local=(0.55, 0.22, 0.28), foot_local=(0.02, 0.11, 0.015))
    neutrals = [make_human(), base, make_human(pelvis_z=1.7, hand_local=(0.7, 0.25, 0.4)),
                default_human_neutral(), make_robot().neutral_links()]
    neutrals += [random_neutral(rng, base) for _ in range(10)]
    neutrals += [tilted(rng, random_neutral(rng, make_human())) for _ in range(10)]
    for robot in (make_robot(), default_robot_model()):
        want = np.array([np.r_[p.translation, p.rotation.q] for p in reference_neutral(robot).values()])
        assert np.array_equal(robot.neutral_links().array, want)
        for neutral in neutrals:
            got = calibrate(neutral, robot).to_dict()
            ref = reference_calibrate(neutral, robot)
            assert got == ref
            assert json.dumps(got, sort_keys=True) == json.dumps(ref, sort_keys=True)


def test_map_frames_equals_stacked_map_frame():
    robot = make_robot()
    rng = np.random.default_rng(38)
    base = make_human(pelvis_z=0.96, hand_local=(0.55, 0.22, 0.28), foot_local=(0.02, 0.11, 0.015))
    for _ in range(3):
        neutral = random_neutral(rng, base)
        prof = calibrate(neutral, robot)
        frames = list(random_frames(rng, neutral, 60))
        poses = np.stack([f.array for f in frames])
        want = np.stack([map_frame(prof, f).array for f in frames])
        assert np.array_equal(map_frames(prof, poses), want)
        assert map_frames(prof, poses[:0]).shape == (0, 6, 7)
        poses[41, LINKS.index("left_hand"), :3] = 1.7e308
        with pytest.raises(ValueError, match="non-finite mapped translation"):
            map_frame(prof, LinkSet.from_array(poses[41]))
        with pytest.raises(FrameRefused, match="non-finite mapped translation") as exc:
            map_frames(prof, poses)
        assert exc.value.index == 41


def test_validated_frames_equals_stacked_from_array():
    rng = np.random.default_rng(39)
    a = rng.normal(size=(50, 6, 7))
    a[::2, :, 3:] /= np.linalg.norm(a[::2, :, 3:], axis=2, keepdims=True)
    got = validated_frames(a)
    assert np.array_equal(got, np.stack([LinkSet.from_array(f).array for f in a]))
    assert validated_frames(a[:0]).shape == (0, 6, 7)
    # The first refused frame wins; within a frame, quaternions are checked first.
    for frame, where, bad, reason in [
        (7, np.s_[2, 3:], 0.0, "ZeroVector: quaternion norm 0.0"),
        (7, np.s_[3, 1], np.inf, "ValueError: non-finite right_hand translation"),
        (9, np.s_[0, 5], np.nan, "ZeroVector: quaternion norm nan"),
    ]:
        b = a.copy()
        b[frame][where] = bad
        b[frame + 3, 0, 0] = np.inf
        with pytest.raises(FrameRefused, match=reason) as exc:
            validated_frames(b)
        assert exc.value.index == frame
    b = a.copy()
    b[5, 0, 0], b[5, 4, 3:] = np.inf, 0.0
    with pytest.raises(FrameRefused, match="ZeroVector"):
        validated_frames(b)


def test_linkset_array_is_one_read_only_layout():
    rng = np.random.default_rng(36)
    poses = [(random_rotation(rng), rng.normal(size=3)) for _ in LINKS]
    from_pairs = make_links(poses)
    from_array = LinkSet.from_array(from_pairs.array)
    from_dict = LinkSet.from_dict(json.loads(json.dumps(from_pairs.to_dict())))
    decoded = decode_frame(encode_frame(PoseFrame(seq=1, timestamp_ns=2, links=from_dict))).links
    assert from_pairs.array.shape == (6, 7) and from_pairs.array.dtype == np.float64
    for links in (from_array, from_dict, decoded):
        assert np.array_equal(links.array, from_pairs.array)
    for i, (q, t) in enumerate(poses):
        assert np.array_equal(from_pairs.array[i, :3], t)
        assert np.array_equal(from_pairs.array[i, 3:], q)
    with pytest.raises(TypeError):
        LinkSet(*poses)  # no unvalidated constructor
    mapped = map_frame(calibrate(make_human(), make_robot()), make_human())
    for links in (from_pairs, from_array, from_dict, decoded, mapped):
        assert not links.array.flags.writeable
        with pytest.raises(ValueError):
            links.array[0, 0] = 1.0
        with pytest.raises(AttributeError):
            links.array = np.zeros((6, 7))


def test_relay_runs_on_values_and_matches_map_frames():
    """The per-frame relay, decode -> map_frame -> encode, builds no array,
    re-encodes bit-exact, and sends the map_frames row bit for bit."""
    robot = make_robot()
    rng = np.random.default_rng(43)
    base = make_human(pelvis_z=0.96, hand_local=(0.55, 0.22, 0.28), foot_local=(0.02, 0.11, 0.015))
    for _ in range(3):
        neutral = random_neutral(rng, base)
        prof = calibrate(neutral, robot)
        frames = list(random_frames(rng, neutral, 40))
        batch = map_frames(prof, validated_frames(np.stack([f.array for f in frames])))
        for seq, (human, want) in enumerate(zip(frames, batch)):
            buf = encode_frame(PoseFrame(seq=seq, timestamp_ns=seq * 8_333_333, links=human))
            decoded = decode_frame(buf)
            mapped = map_frame(prof, decoded.links)
            out = encode_frame(PoseFrame(decoded.seq, decoded.timestamp_ns, mapped))
            assert decoded.links._array is None and mapped._array is None
            assert encode_frame(decode_frame(out)) == out
            assert out[:17] == buf[:17]
            assert out[17:] == want.astype("<f8").tobytes()


def test_linkset_values_and_array_are_one_frame():
    rng = np.random.default_rng(44)
    links = make_links([(random_rotation(rng), rng.normal(size=3)) for _ in LINKS])
    prof = calibrate(make_human(), make_robot())
    wire = encode_frame(PoseFrame(seq=1, timestamp_ns=2, links=links))
    builders = {
        "from_array": lambda: LinkSet.from_array(links.array),
        "from_dict": lambda: LinkSet.from_dict(json.loads(json.dumps(links.to_dict()))),
        "decode_frame": lambda: decode_frame(wire).links,
        "map_frame": lambda: map_frame(prof, links),
        "_wrap": lambda: _wrap(np.array(links.array)),
    }
    for name, build in builders.items():
        for values_first in (True, False):
            got = build()
            if values_first:
                values, array = got.values, got.array
            else:
                array, values = got.array, got.values
            assert type(values) is tuple, name
            assert values == tuple(array.ravel().tolist()), name
            assert array.shape == (len(LINKS), 7) and not array.flags.writeable, name
            assert got.array is array and got.values is values, name
        if name != "map_frame":
            assert got.values == links.values, name


def test_linkset_from_array_validates_like_the_constructors():
    rng = np.random.default_rng(37)
    good = make_links([(random_rotation(rng), rng.normal(size=3)) for _ in LINKS]).array

    a = good.copy()
    a[2, 3:] = -2.0 * a[2, 3:]  # off norm and w < 0: renormalized, flipped
    got = LinkSet.from_array(a)
    assert np.array_equal(got.array[2, 3:], qunit(*a[2, 3:]))
    assert got.array[2, 3] >= 0.0

    a = good.copy()
    a[4, 3:] *= 1.0 + 0.5e-12  # within 1e-12 of unit: stored as given
    assert np.array_equal(LinkSet.from_array(a).array, a)

    a = good.copy()
    a[1, 3:] = 0.0
    with pytest.raises(ZeroVector):
        LinkSet.from_array(a)
    a = good.copy()
    a[1, 5] = np.nan
    with pytest.raises(ZeroVector):
        LinkSet.from_array(a)
    a = good.copy()
    a[5, 1] = np.inf
    with pytest.raises(ValueError):
        LinkSet.from_array(a)
    with pytest.raises(ValueError):
        LinkSet.from_array(good[:5])
    d = make_human().to_dict()
    del d["right_foot"]
    with pytest.raises(ValueError, match="right_foot"):
        LinkSet.from_dict(d)


# ------------------------------------------------ strict model input


def robot_dict():
    return json.loads(json.dumps(make_robot().to_dict()))


def test_robot_refuses_nan_pelvis_height_naming_it():
    d = robot_dict()
    d["pelvis_height_m"] = float("nan")
    with pytest.raises(ValueError, match="pelvis_height"):
        RobotModel.from_dict(d)


def test_robot_refuses_non_numeric_vector_naming_it():
    d = robot_dict()
    d["pelvis_to_torso_m"] = ["0", 0, 0.25]
    with pytest.raises(ValueError, match="pelvis_to_torso"):
        RobotModel.from_dict(d)
    d = robot_dict()
    d["neutral_foot_m"]["right"] = [0.0, True, 0.0]
    with pytest.raises(ValueError, match="neutral_foot right"):
        RobotModel.from_dict(d)


def test_robot_refuses_nan_arm_length_naming_side():
    for side in SIDES:
        d = robot_dict()
        d["arm_length_m"][side] = float("nan")
        with pytest.raises(ValueError, match=f"{side} arm_length"):
            RobotModel.from_dict(d)
