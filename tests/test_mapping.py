"""Calibration and per-frame retargeting: worked examples plus the
consistency, scale-invariance, statelessness, and reach-bound properties."""

import numpy as np
import pytest

from extremctl.mapping import (
    LINKS,
    DegenerateHeadset,
    DegenerateNeutral,
    FrameRefused,
    LinkSet,
    RobotModel,
    calibrate,
    heading_anchor,
    map_frame,
    map_frames,
    torso_from_headset,
    validated_frames,
)
from extremctl.se3 import Pose, Rotation, ZeroVector, relative
from extremctl.wire import PoseFrame, decode_frame, encode_frame


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
    ident = Rotation.identity()
    pelvis = Pose(ident, np.array([0.0, 0.0, pelvis_z]))
    hx, hy, hz = hand_local
    fx, fy, fz = foot_local
    return LinkSet(
        pelvis=pelvis,
        torso=pelvis,
        left_hand=Pose(ident, pelvis.translation + np.array([hx, hy, hz])),
        right_hand=Pose(ident, pelvis.translation + np.array([hx, -hy, hz])),
        left_foot=Pose(ident, np.array([fx, fy, fz])),
        right_foot=Pose(ident, np.array([fx, -fy, fz])),
    )


def links_close(a, b, tol=1e-9):
    for name in ("pelvis", "torso", "left_hand", "right_hand", "left_foot", "right_foot"):
        pa, pb = getattr(a, name), getattr(b, name)
        if np.abs(pa.translation - pb.translation).max() > tol:
            return False
        if pa.rotation.angle_to(pb.rotation) > tol:
            return False
    return True


def test_self_calibration_is_identity():
    robot = make_robot()
    neutral = robot.neutral_links()
    prof = calibrate(neutral, robot)
    assert abs(prof.scale - 1.0) < 1e-15
    for link, off in prof.rot_offset.items():
        assert off.angle() < 1e-12, link
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
    frame = human.with_pose(
        "pelvis", Pose(Rotation.identity(), np.array([0.0, 0.0, 0.9]))
    )
    out = map_frame(prof, frame)
    assert abs(out.pelvis.translation[2] - 0.675) < 1e-12


def test_neutral_reproduction_exact():
    robot = make_robot()
    human = make_human()
    prof = calibrate(human, robot)
    assert links_close(map_frame(prof, human), robot.neutral_links(), tol=1e-9)


def test_full_extension_reaches_arm_length():
    robot = make_robot()
    human = make_human()
    prof = calibrate(human, robot)
    direction = np.array([1.0, 0.3, -0.2])
    direction /= np.linalg.norm(direction)
    rel = prof.shoulder["right"] + prof.arm_length["right"] * direction
    frame = human.with_pose(
        "right_hand", Pose(Rotation.identity(), human.torso.translation + rel)
    )
    out = map_frame(prof, frame)
    shoulder_world = out.torso.apply(np.asarray(robot.shoulder_offset["right"], dtype=float))
    reach = np.linalg.norm(out.right_hand.translation - shoulder_world)
    assert abs(reach - robot.arm_length["right"]) < 1e-12


def test_hand_reach_bound_random_frames():
    robot = make_robot()
    human = make_human()
    prof = calibrate(human, robot)
    rng = np.random.default_rng(31)
    for _ in range(40):
        rel = prof.shoulder["left"] + rng.normal(scale=0.25, size=3)
        frame = human.with_pose(
            "left_hand", Pose(Rotation.identity(), human.torso.translation + rel)
        )
        out = map_frame(prof, frame)
        shoulder_world = out.torso.apply(np.asarray(robot.shoulder_offset["left"], dtype=float))
        got = np.linalg.norm(out.left_hand.translation - shoulder_world)
        want = (
            robot.arm_length["left"]
            * np.linalg.norm(rel - prof.shoulder["left"])
            / prof.arm_length["left"]
        )
        assert abs(got - want) < 1e-9


def yawed(pose, yaw, offset):
    world = Pose(Rotation.about_z(yaw), np.asarray(offset, dtype=float))
    return world.compose(pose)


def test_consistency_any_neutral_any_placement():
    """map_frame(calibrate(neutral), neutral) == robot neutral, wherever the
    performer stood and however they were heading."""
    robot = make_robot()
    rng = np.random.default_rng(32)
    base = make_human(pelvis_z=0.96, hand_local=(0.55, 0.22, 0.28), foot_local=(0.02, 0.11, 0.015))
    for _ in range(20):
        yaw = rng.uniform(-np.pi, np.pi)
        offset = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0])
        neutral = base.transform(lambda p: yawed(p, yaw, offset))
        prof = calibrate(neutral, robot)
        assert links_close(map_frame(prof, neutral), robot.neutral_links(), tol=1e-9)


def test_consistency_tilted_links():
    # per-link orientation clutter calibrates away through the offsets
    robot = make_robot()
    rng = np.random.default_rng(33)
    base = make_human()
    for _ in range(10):
        def tilt(pose):
            axis = rng.normal(size=3)
            return Pose(
                pose.rotation.compose(Rotation.from_axis_angle(axis, rng.uniform(-0.3, 0.3))),
                pose.translation,
            )
        neutral = base.transform(tilt)
        prof = calibrate(neutral, robot)
        assert links_close(map_frame(prof, neutral), robot.neutral_links(), tol=1e-9)


def test_uniform_scale_invariance():
    robot = make_robot()
    human = make_human()
    prof = calibrate(human, robot)
    moved = human.with_pose(
        "right_hand",
        Pose(Rotation.identity(), human.right_hand.translation + np.array([0.1, -0.05, 0.12])),
    )
    ref = map_frame(prof, moved)
    for s in (0.8, 1.25, 2.0):
        scale = lambda p: Pose(p.rotation, p.translation * s)
        prof_s = calibrate(human.transform(scale), robot)
        out = map_frame(prof_s, moved.transform(scale))
        assert links_close(out, ref, tol=1e-9)


def test_map_frame_stateless_bit_identical():
    robot = make_robot()
    human = make_human()
    prof = calibrate(human, robot)
    rng = np.random.default_rng(34)
    frame = human.with_pose(
        "left_hand", Pose(Rotation.identity(), human.left_hand.translation + rng.normal(size=3) * 0.1)
    )
    a = map_frame(prof, frame)
    b = map_frame(prof, frame)
    for name in ("pelvis", "torso", "left_hand", "right_hand", "left_foot", "right_foot"):
        assert np.array_equal(getattr(a, name).translation, getattr(b, name).translation)
        assert np.array_equal(getattr(a, name).rotation.q, getattr(b, name).rotation.q)


def test_torso_rides_mapped_pelvis():
    robot = make_robot()
    human = make_human()
    prof = calibrate(human, robot)
    frame = human.with_pose(
        "pelvis", Pose(Rotation.about_z(0.4), np.array([0.3, -0.2, 0.95]))
    )
    out = map_frame(prof, frame)
    want = out.pelvis.translation + out.pelvis.rotation.apply(
        np.asarray(robot.pelvis_to_torso, dtype=float)
    )
    np.testing.assert_allclose(out.torso.translation, want, atol=1e-12)


def test_degenerate_neutral_rejected():
    robot = make_robot()
    with pytest.raises(DegenerateNeutral):
        calibrate(make_human(pelvis_z=0.25), robot)  # crouching below 0.3 m
    with pytest.raises(DegenerateNeutral):
        calibrate(make_human(hand_local=(0.05, 0.2, 0.3)), robot)  # arm barely forward


def test_headset_directly_above_is_identity():
    pelvis = Pose(Rotation.about_z(0.7), np.array([0.2, 0.1, 1.0]))
    headset = pelvis.translation + np.array([0.0, 0.0, 0.6])
    assert torso_from_headset(pelvis, headset).angle() < 1e-12


def test_headset_forward_up_is_pitch():
    pelvis = Pose(Rotation.identity(), np.array([0.0, 0.0, 1.0]))
    headset = pelvis.translation + np.array([0.5, 0.0, 0.5])
    r = torso_from_headset(pelvis, headset)
    assert abs(r.angle() - np.pi / 4) < 1e-12
    axis = r.q[1:] / np.linalg.norm(r.q[1:])
    np.testing.assert_allclose(axis, [0.0, 1.0, 0.0], atol=1e-12)


def test_headset_yawed_pelvis_reexpresses():
    # same world displacement, pelvis yawed 90 deg: pitch becomes roll
    pelvis = Pose(Rotation.about_z(np.pi / 2), np.array([0.0, 0.0, 1.0]))
    headset = pelvis.translation + np.array([0.5, 0.0, 0.5])
    r = torso_from_headset(pelvis, headset)
    assert abs(r.angle() - np.pi / 4) < 1e-12
    axis = r.q[1:] / np.linalg.norm(r.q[1:])
    np.testing.assert_allclose(axis, [1.0, 0.0, 0.0], atol=1e-12)


def test_headset_degenerate():
    pelvis = Pose(Rotation.identity(), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DegenerateHeadset):
        torso_from_headset(pelvis, pelvis.translation + np.array([0.0, 0.0, 1e-8]))


def test_heading_anchor_keeps_yaw_only():
    rot = Rotation.about_z(0.9).compose(Rotation.from_axis_angle(np.array([0, 1, 0]), 0.3))
    pelvis = Pose(rot, np.array([1.5, -2.0, 0.97]))
    a = heading_anchor(pelvis)
    np.testing.assert_allclose(a.translation, [1.5, -2.0, 0.0], atol=1e-15)
    # anchor x axis matches the horizontal projection of the pelvis heading
    fwd = pelvis.rotation.apply(np.array([1.0, 0.0, 0.0]))
    fwd[2] = 0.0
    fwd /= np.linalg.norm(fwd)
    np.testing.assert_allclose(a.rotation.apply(np.array([1.0, 0.0, 0.0])), fwd, atol=1e-12)


def test_profile_json_round_trip():
    from extremctl.mapping import CalibrationProfile

    prof = calibrate(make_human(), make_robot())
    back = CalibrationProfile.from_dict(prof.to_dict())
    human = make_human()
    frame = human.with_pose(
        "right_hand",
        Pose(Rotation.identity(), human.right_hand.translation + np.array([0.05, 0.02, -0.04])),
    )
    assert links_close(map_frame(back, frame), map_frame(prof, frame), tol=1e-15)


def reference_map_frame(prof, human):
    """map_frame written in Pose/Rotation algebra, in the order of
    operations the plain-float path must reproduce bit for bit: anchor
    inverse, per-link compose, `relative` for the hands, torso compose."""
    robot, s = prof.robot, prof.scale
    to_anchor = prof.anchor.inverse()
    local = {name: to_anchor.compose(human.pose(name)) for name in LINKS}
    pelvis = Pose(
        local["pelvis"].rotation.compose(prof.rot_offset["pelvis"]),
        s * local["pelvis"].translation,
    )
    torso = Pose(
        local["torso"].rotation.compose(prof.rot_offset["torso"]),
        pelvis.translation + pelvis.rotation.apply(np.asarray(robot.pelvis_to_torso, dtype=float)),
    )
    out = {"pelvis": pelvis, "torso": torso}
    for side in ("left", "right"):
        foot = local[f"{side}_foot"]
        out[f"{side}_foot"] = Pose(
            foot.rotation.compose(prof.rot_offset[f"{side}_foot"]),
            s * foot.translation + prof.foot_offset[side],
        )
        rel = relative(local["torso"], local[f"{side}_hand"])
        ratio = robot.arm_length[side] / prof.arm_length[side]
        anchored = (rel.translation - prof.shoulder[side]) * ratio + np.asarray(
            robot.shoulder_offset[side], dtype=float
        )
        out[f"{side}_hand"] = torso.compose(
            Pose(rel.rotation.compose(prof.rot_offset[f"{side}_hand"]), anchored)
        )
    return LinkSet(**out)


def random_rotation(rng, scale=1.0):
    return Rotation.from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi) * scale)


def random_frames(rng, neutral, n):
    """Frames around the neutral: per-link rotation and translation noise.
    Every fourth frame stores quaternions off unit norm by up to 0.9e-12,
    which LinkSet keeps as is but whose products get renormalized."""
    for k in range(n):
        a = np.array(neutral.array)
        for i in range(len(LINKS)):
            a[i, :3] += rng.normal(scale=0.2, size=3)
            a[i, 3:] = random_rotation(rng).compose(Rotation(a[i, 3:])).q
            if k % 4 == 3:
                a[i, 3:] *= 1.0 + rng.uniform(-0.9e-12, 0.9e-12)
        yield LinkSet.from_array(a)


def test_map_frame_bit_identical_to_pose_algebra():
    robot = make_robot()
    rng = np.random.default_rng(35)
    base = make_human(pelvis_z=0.96, hand_local=(0.55, 0.22, 0.28), foot_local=(0.02, 0.11, 0.015))
    frames = 0
    for _ in range(4):
        yaw = rng.uniform(-np.pi, np.pi)
        origin = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0])
        neutral = base.transform(
            lambda p: yawed(Pose(p.rotation.compose(random_rotation(rng, 0.1)), p.translation),
                            yaw, origin)
        )
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


def test_map_frames_equals_stacked_map_frame():
    robot = make_robot()
    rng = np.random.default_rng(38)
    base = make_human(pelvis_z=0.96, hand_local=(0.55, 0.22, 0.28), foot_local=(0.02, 0.11, 0.015))
    for _ in range(3):
        yaw = rng.uniform(-np.pi, np.pi)
        origin = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0])
        neutral = base.transform(
            lambda p: yawed(Pose(p.rotation.compose(random_rotation(rng, 0.1)), p.translation),
                            yaw, origin)
        )
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
    poses = [Pose(random_rotation(rng), rng.normal(size=3)) for _ in LINKS]
    by_position = LinkSet(*poses)
    by_name = LinkSet(**dict(zip(LINKS, poses)))
    from_array = LinkSet.from_array(by_position.array)
    decoded = decode_frame(encode_frame(PoseFrame(seq=1, timestamp_ns=2, links=by_name))).links
    assert by_position.array.shape == (6, 7) and by_position.array.dtype == np.float64
    for links in (by_name, from_array, decoded):
        assert np.array_equal(links.array, by_position.array)
    for i, name in enumerate(LINKS):
        assert np.array_equal(by_position.array[i, :3], poses[i].translation)
        assert np.array_equal(by_position.array[i, 3:], poses[i].rotation.q)
        assert np.array_equal(getattr(decoded, name).rotation.q, poses[i].rotation.q)
    mapped = map_frame(calibrate(make_human(), make_robot()), make_human())
    for links in (by_position, by_name, from_array, decoded, mapped):
        assert not links.array.flags.writeable
        with pytest.raises(ValueError):
            links.array[0, 0] = 1.0
        with pytest.raises(AttributeError):
            links.array = np.zeros((6, 7))


def test_linkset_from_array_validates_like_the_constructors():
    rng = np.random.default_rng(37)
    good = LinkSet(*(Pose(random_rotation(rng), rng.normal(size=3)) for _ in LINKS)).array

    a = good.copy()
    a[2, 3:] = -2.0 * a[2, 3:]  # off norm and w < 0: renormalized, flipped
    got = LinkSet.from_array(a)
    assert np.array_equal(got.array[2, 3:], Rotation(a[2, 3:]).q)
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
    with pytest.raises(ValueError):
        make_human().pose("head")
