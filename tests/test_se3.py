"""Pose algebra on the (q, t) kernels: identities, group laws, axis
alignment, JSON round trip."""

import json

import numpy as np
import pytest

from conftest import quat_angle
from extremctl.mapping import pose_row
from extremctl.se3 import (
    Rotation,
    ZeroVector,
    align_axis,
    pinv,
    pmul,
    qaxis_angle,
    qmul,
    qrotate,
    qunit,
    qunit_columns,
)

IDENTITY = ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def translate(x, y, z):
    return (1.0, 0.0, 0.0, 0.0), (float(x), float(y), float(z))


def random_pose(rng):
    q = rng.normal(size=4)
    return qunit(*(q / np.linalg.norm(q)).tolist()), tuple(rng.normal(size=3).tolist())


def pose_close(a, b, tol=1e-12):
    # q and -q are the same rotation; qunit canonicalizes w >= 0, but
    # compare both signs anyway.
    qa, qb = np.array(a[0]), np.array(b[0])
    dq = min(np.abs(qa - qb).max(), np.abs(qa + qb).max())
    return dq <= tol and np.abs(np.subtract(a[1], b[1])).max() <= tol


def test_identity_compose():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = random_pose(rng)
        assert pose_close(pmul(*IDENTITY, *p), p)
        assert pose_close(pmul(*p, *IDENTITY), p)


def test_compose_inverse_is_identity():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = random_pose(rng)
        q, t = pmul(*p, *pinv(*p))
        assert np.abs(t).max() < 1e-12
        assert quat_angle(q) < 1e-9


def test_pure_translations_commute():
    r = pmul(*translate(1, 0, 0), *translate(0, 2, 0))
    assert pose_close(r, translate(1, 2, 0))


def test_inverse_examples():
    assert pose_close(pinv(*IDENTITY), IDENTITY)
    assert pose_close(pinv(*translate(1, 2, 3)), translate(-1, -2, -3))
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = random_pose(rng)
        assert pose_close(pinv(*pinv(*p)), p, tol=1e-12)


def test_relative():
    # the target expressed in the base frame: pinv(base) * target
    rng = np.random.default_rng(14)
    for _ in range(30):
        base = random_pose(rng)
        target = random_pose(rng)
        rel = pmul(*pinv(*base), *target)
        assert pose_close(pmul(*base, *rel), target, tol=1e-12)
    p = random_pose(rng)
    assert pose_close(pmul(*pinv(*p), *p), IDENTITY, tol=1e-12)
    assert pose_close(pmul(*pinv(*IDENTITY), *p), p)


def test_associativity():
    rng = np.random.default_rng(15)
    for _ in range(50):
        a, b, c = (random_pose(rng) for _ in range(3))
        left = pmul(*pmul(*a, *b), *c)
        right = pmul(*a, *pmul(*b, *c))
        assert pose_close(left, right, tol=1e-9)


def test_rotation_preserves_norm():
    rng = np.random.default_rng(16)
    for _ in range(50):
        q, _ = random_pose(rng)
        v = rng.normal(size=3) * rng.uniform(0.1, 100)
        assert abs(np.linalg.norm(qrotate(q, v)) - np.linalg.norm(v)) < 1e-9


def test_unit_norm_and_canonical_sign_after_ops():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a, b = random_pose(rng), random_pose(rng)
        for q in (pmul(*a, *b)[0], pinv(*a)[0]):
            assert abs(np.linalg.norm(q) - 1.0) < 1e-9
            assert q[0] >= 0.0


def test_align_axis_identity_and_quarter_turn():
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    assert quat_angle(align_axis(z, z)) < 1e-12

    r = align_axis(z, x)
    assert np.abs(np.subtract(qrotate(r, z), x)).max() < 1e-12
    # minimal rotation: quarter turn about z cross x = +y
    assert abs(quat_angle(r) - np.pi / 2) < 1e-12
    axis = np.array(r[1:]) / np.linalg.norm(r[1:])
    assert np.abs(axis - np.array([0.0, 1.0, 0.0])).max() < 1e-12


def test_align_axis_antiparallel_uses_canonical_axis():
    z = np.array([0.0, 0.0, 1.0])
    r = align_axis(z, -z)
    assert abs(quat_angle(r) - np.pi) < 1e-12
    assert np.abs(np.add(qrotate(r, z), z)).max() < 1e-12
    # documented rule: pi turn about the smallest-index axis orthogonal to z
    axis = np.array(r[1:]) / np.linalg.norm(r[1:])
    assert np.abs(np.abs(axis) - np.array([1.0, 0.0, 0.0])).max() < 1e-12


def test_align_axis_random_targets():
    z = np.array([0.0, 0.0, 1.0])
    rng = np.random.default_rng(18)
    for _ in range(100):
        v = rng.normal(size=3)
        if np.linalg.norm(v) < 1e-6:
            continue
        got = qrotate(align_axis(z, v), z)
        assert np.abs(np.subtract(got, v / np.linalg.norm(v))).max() < 1e-9


def test_align_axis_minimal_axis_is_orthogonal():
    rng = np.random.default_rng(19)
    z = np.array([0.0, 0.0, 1.0])
    for _ in range(50):
        v = rng.normal(size=3)
        if np.linalg.norm(v) < 1e-6 or abs(v[2] / np.linalg.norm(v)) > 0.999:
            continue
        r = align_axis(z, v)
        axis = np.array(r[1:]) / np.linalg.norm(r[1:])
        assert abs(axis @ z) < 1e-9
        assert abs(axis @ (v / np.linalg.norm(v))) < 1e-9


def test_align_axis_zero_vector():
    z = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ZeroVector):
        align_axis(z, np.array([0.0, 0.0, 1e-10]))


def test_rotation_rejects_zero_quaternion():
    with pytest.raises(ZeroVector):
        qunit(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ZeroVector):
        qaxis_angle((0.0, 0.0, 1e-13), 1.0)
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
        q, t = random_pose(rng)
        d = json.loads(json.dumps({"q": list(q), "p": list(t)}))
        assert sorted(d) == ["p", "q"]
        back = pose_row(d, "pose")
        # stored canonical quaternions reload bit-identically
        assert back == [*t, *q]
        assert qunit(*back[3:]) == q


def test_axis_angle_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(50):
        axis = rng.normal(size=3)
        a = rng.uniform(-np.pi, np.pi)
        q = qaxis_angle(axis, a)
        assert abs(quat_angle(q) - abs(a)) < 1e-9
        assert q[0] >= 0.0 and abs(np.linalg.norm(q) - 1.0) < 1e-12
        # the vector part lies along the axis, signed by the turn
        u = np.array(q[1:]) / np.linalg.norm(q[1:])
        assert np.abs(u - np.sign(a) * axis / np.linalg.norm(axis)).max() < 1e-9


def test_apply_matches_matrix():
    rng = np.random.default_rng(22)
    for _ in range(30):
        (w, x, y, z), t = random_pose(rng)
        matrix = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
        v = rng.normal(size=3)
        assert np.abs(np.subtract(qrotate((w, x, y, z), v), matrix @ v)).max() < 1e-12
        # a pose applied to a point: its translation part of pmul
        _, moved = pmul((w, x, y, z), t, *translate(*v))
        assert np.abs(np.subtract(moved, matrix @ v + t)).max() < 1e-12
        # the product's matrix is the matrix product
        q2, _ = random_pose(rng)
        both = qrotate(qmul((w, x, y, z), q2), v)
        assert np.abs(np.subtract(both, matrix @ qrotate(q2, v))).max() < 1e-12


def test_apply_stack_matches_single_vectors():
    rng = np.random.default_rng(23)
    q, _ = random_pose(rng)
    v = rng.normal(size=(4, 5, 3))
    got = np.stack(qrotate(q, np.moveaxis(v, -1, 0)), axis=-1)
    assert got.shape == v.shape
    for idx in np.ndindex(4, 5):
        assert np.array_equal(got[idx], qrotate(q, v[idx].tolist()))
