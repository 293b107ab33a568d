"""Pose algebra: identities, group laws, axis alignment, JSON round trip."""

import numpy as np
import pytest

from extremctl.se3 import (
    Pose,
    Rotation,
    ZeroVector,
    align_axis,
    qunit,
    qunit_columns,
    relative,
)


def translate(x, y, z):
    return Pose(Rotation.identity(), np.array([x, y, z], dtype=float))


def random_pose(rng):
    q = rng.normal(size=4)
    return Pose(Rotation(q / np.linalg.norm(q)), rng.normal(size=3))


def pose_close(a, b, tol=1e-12):
    # q and -q are the same rotation; constructor canonicalizes w >= 0,
    # but compare both signs anyway for direct-constructed values.
    dq = min(np.abs(a.rotation.q - b.rotation.q).max(), np.abs(a.rotation.q + b.rotation.q).max())
    return dq <= tol and np.abs(a.translation - b.translation).max() <= tol


def test_identity_compose():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = random_pose(rng)
        assert pose_close(Pose.identity().compose(p), p)
        assert pose_close(p.compose(Pose.identity()), p)


def test_compose_inverse_is_identity():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = random_pose(rng)
        r = p.compose(p.inverse())
        assert np.abs(r.translation).max() < 1e-12
        assert r.rotation.angle() < 1e-9


def test_pure_translations_commute():
    r = translate(1, 0, 0).compose(translate(0, 2, 0))
    assert pose_close(r, translate(1, 2, 0))


def test_inverse_examples():
    assert pose_close(Pose.identity().inverse(), Pose.identity())
    assert pose_close(translate(1, 2, 3).inverse(), translate(-1, -2, -3))
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = random_pose(rng)
        assert pose_close(p.inverse().inverse(), p, tol=1e-12)


def test_relative():
    rng = np.random.default_rng(14)
    for _ in range(30):
        base = random_pose(rng)
        target = random_pose(rng)
        rel = relative(base, target)
        assert pose_close(base.compose(rel), target, tol=1e-12)
    p = random_pose(rng)
    assert pose_close(relative(p, p), Pose.identity(), tol=1e-12)
    assert pose_close(relative(Pose.identity(), p), p)


def test_associativity():
    rng = np.random.default_rng(15)
    for _ in range(50):
        a, b, c = (random_pose(rng) for _ in range(3))
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert pose_close(left, right, tol=1e-9)


def test_rotation_preserves_norm():
    rng = np.random.default_rng(16)
    for _ in range(50):
        p = random_pose(rng)
        v = rng.normal(size=3) * rng.uniform(0.1, 100)
        assert abs(np.linalg.norm(p.rotation.apply(v)) - np.linalg.norm(v)) < 1e-9


def test_unit_norm_and_canonical_sign_after_ops():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a, b = random_pose(rng), random_pose(rng)
        for r in (a.rotation.compose(b.rotation), a.rotation.inverse()):
            assert abs(np.linalg.norm(r.q) - 1.0) < 1e-9
            assert r.q[0] >= 0.0


def test_align_axis_identity_and_quarter_turn():
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    assert align_axis(z, z).angle() < 1e-12

    r = align_axis(z, x)
    assert np.abs(r.apply(z) - x).max() < 1e-12
    # minimal rotation: quarter turn about z cross x = +y
    assert abs(r.angle() - np.pi / 2) < 1e-12
    axis = r.q[1:] / np.linalg.norm(r.q[1:])
    assert np.abs(axis - np.array([0.0, 1.0, 0.0])).max() < 1e-12


def test_align_axis_antiparallel_uses_canonical_axis():
    z = np.array([0.0, 0.0, 1.0])
    r = align_axis(z, -z)
    assert abs(r.angle() - np.pi) < 1e-12
    assert np.abs(r.apply(z) + z).max() < 1e-12
    # documented rule: pi turn about the smallest-index axis orthogonal to z
    axis = r.q[1:] / np.linalg.norm(r.q[1:])
    assert np.abs(np.abs(axis) - np.array([1.0, 0.0, 0.0])).max() < 1e-12


def test_align_axis_random_targets():
    z = np.array([0.0, 0.0, 1.0])
    rng = np.random.default_rng(18)
    for _ in range(100):
        v = rng.normal(size=3)
        if np.linalg.norm(v) < 1e-6:
            continue
        got = align_axis(z, v).apply(z)
        assert np.abs(got - v / np.linalg.norm(v)).max() < 1e-9


def test_align_axis_minimal_axis_is_orthogonal():
    rng = np.random.default_rng(19)
    z = np.array([0.0, 0.0, 1.0])
    for _ in range(50):
        v = rng.normal(size=3)
        if np.linalg.norm(v) < 1e-6 or abs(v[2] / np.linalg.norm(v)) > 0.999:
            continue
        r = align_axis(z, v)
        axis = r.q[1:] / np.linalg.norm(r.q[1:])
        assert abs(axis @ z) < 1e-9
        assert abs(axis @ (v / np.linalg.norm(v))) < 1e-9


def test_align_axis_zero_vector():
    z = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ZeroVector):
        align_axis(z, np.array([0.0, 0.0, 1e-10]))


def test_rotation_rejects_zero_quaternion():
    with pytest.raises(ZeroVector):
        Rotation(np.zeros(4))


def test_qunit_columns_is_qunit_element_by_element():
    rng = np.random.default_rng(21)
    q = rng.normal(size=(200, 4))
    q[::3] /= np.linalg.norm(q[::3], axis=1, keepdims=True)  # unit, either sign of w
    q[1::6] *= 1.0 + rng.uniform(-0.9e-12, 0.9e-12, size=(len(q[1::6]), 1))  # passes through
    q[5] = [-0.0, 1.0, 0.0, 0.0]
    q[7] = [-1.0, -0.0, 0.0, 0.0]
    got = np.stack(qunit_columns(*q.T), axis=1)
    want = np.array([qunit(*row) for row in q.tolist()])
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    for bad in (0.0, np.nan, np.inf):
        q[123] = [bad, 0.0, 0.0, 0.0]
        with pytest.raises(ZeroVector) as exc:
            qunit_columns(*q.T)
        assert exc.value.index == 123


def test_json_round_trip():
    rng = np.random.default_rng(20)
    for _ in range(20):
        p = random_pose(rng)
        d = p.to_dict()
        assert sorted(d) == ["p", "q"]
        back = Pose.from_dict(d)
        # stored canonical quaternions reload bit-identically
        assert np.array_equal(back.rotation.q, p.rotation.q)
        assert np.array_equal(back.translation, p.translation)


def test_axis_angle_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(50):
        axis = rng.normal(size=3)
        angle = rng.uniform(-np.pi, np.pi)
        r = Rotation.from_axis_angle(axis, angle)
        assert abs(r.angle() - abs(angle)) < 1e-9


def test_apply_matches_matrix():
    rng = np.random.default_rng(22)
    for _ in range(30):
        p = random_pose(rng)
        v = rng.normal(size=3)
        assert np.abs(p.rotation.apply(v) - p.rotation.as_matrix() @ v).max() < 1e-12
        assert np.abs(p.apply(v) - (p.rotation.as_matrix() @ v + p.translation)).max() < 1e-12


def test_apply_stack_matches_single_vectors():
    rng = np.random.default_rng(23)
    r = random_pose(rng).rotation
    v = rng.normal(size=(4, 5, 3))
    got = r.apply(v)
    assert got.shape == v.shape
    for idx in np.ndindex(4, 5):
        assert np.array_equal(got[idx], r.apply(v[idx]))
