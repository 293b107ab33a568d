"""Rigid-transform algebra on unit quaternions and 3-vectors.

Conventions:
    * quaternions are scalar-first (w, x, y, z), unit norm, and canonicalized
      to w >= 0 so each rotation has a single representation (double cover);
    * translations are meters, rotations are right-handed;
    * a pose is a pair (q, t) and ``pmul(qa, ta, qb, tb)`` applies
      (qb, tb) first, then (qa, ta) (matrix convention).

Quaternions are tuples ``(w, x, y, z)``, vectors ``(x, y, z)``; each
component is a float, or all are equal-shape float arrays ("columns").
The arithmetic lives in three kernels, ``qmul`` (Hamilton product),
``qrotate`` and ``qconj``, plus ``qunit``, the one rule that validates
and canonicalizes a quaternion. The pose product ``pmul`` and inverse
``pinv`` are built on them (Sola, Deray and Atchuthan, "A micro Lie
theory for state estimation in robotics", arXiv:1812.01537). All of
these are the same code on floats and on columns; only the
canonicalizing unit step needs an array form, ``qunit_columns``, which
``qmul`` and ``pmul`` take as their ``unit`` argument. ``mapping`` runs
calibration on floats, and one retarget body on floats per frame
(``map_frame``) and on columns per stream (``map_frames``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ExtremControlError

_UNIT_EPS = 1e-12


class ZeroVector(ExtremControlError):
    """A direction argument was too short to normalize. When qunit_columns
    raises it, `index` is the flat position of the first refused element."""

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


def qunit(w: float, x: float, y: float, z: float) -> tuple:
    """The canonical unit quaternion for (w, x, y, z).

    Divides by the norm only when it is more than 1e-12 from 1, so a stored
    canonical quaternion passes through bit-stable (wire round trips rely
    on it), then flips the sign to w >= 0. Raises ZeroVector when the norm
    is not finite or <= 1e-12.
    """
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    if not _UNIT_EPS < norm < math.inf:
        raise ZeroVector(f"quaternion norm {norm} is not normalizable")
    if abs(norm - 1.0) > _UNIT_EPS:
        w, x, y, z = w / norm, x / norm, y / norm, z / norm
    if w < 0.0:
        return (-w, -x, -y, -z)
    return (w, x, y, z)


def qunit_columns(w, x, y, z) -> tuple:
    """qunit element by element over equal-shape float arrays, bit for bit:
    the same norm, the same 1e-12 pass-through, the same sign flip. Raises
    ZeroVector, with the flat index of the first refused element."""
    norm = np.sqrt(w * w + x * x + y * y + z * z)
    ok = (norm > _UNIT_EPS) & (norm < math.inf)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ZeroVector(f"quaternion norm {norm.flat[i]} is not normalizable", index=i)
    off = np.abs(norm - 1.0) > _UNIT_EPS
    if off.any():
        w, x, y, z = (np.where(off, c / norm, c) for c in (w, x, y, z))
    flip = w < 0.0
    if flip.any():
        w, x, y, z = (np.where(flip, -c, c) for c in (w, x, y, z))
    return (w, x, y, z)


def qmul(a, b, unit=qunit) -> tuple:
    """Hamilton product a * b (b applied first), canonicalized by `unit`:
    qunit on floats, qunit_columns when either factor holds columns."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return unit(
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def qconj(q) -> tuple:
    """Conjugate, the inverse of a unit quaternion."""
    w, x, y, z = q
    return (w, -x, -y, -z)


def qrotate(q, v) -> tuple:
    """Rotate v by unit quaternion q: v + w t + u x t with t = 2 u x v.

    The components of v may be floats or equal-shape arrays.
    """
    w, ux, uy, uz = q
    vx, vy, vz = v
    tx = 2.0 * (uy * vz - uz * vy)
    ty = 2.0 * (uz * vx - ux * vz)
    tz = 2.0 * (ux * vy - uy * vx)
    return (
        vx + w * tx + (uy * tz - uz * ty),
        vy + w * ty + (uz * tx - ux * tz),
        vz + w * tz + (ux * ty - uy * tx),
    )


def pmul(qa, ta, qb, tb, unit=qunit) -> tuple:
    """The pose product (qa, ta) * (qb, tb) = (qa qb, ta + qa tb): (qb, tb)
    applied first. Floats or columns, as qmul."""
    rx, ry, rz = qrotate(qa, tb)
    x, y, z = ta
    return qmul(qa, qb, unit), (x + rx, y + ry, z + rz)


def pinv(q, t) -> tuple:
    """Inverse pose of (q, t): (q*, -(q* t))."""
    qi = qconj(q)
    x, y, z = qrotate(qi, t)
    return qi, (-x, -y, -z)


def qaxis_angle(axis, angle: float) -> tuple:
    """Unit quaternion of `angle` radians about `axis` (need not be unit
    length). Raises ZeroVector when |axis| <= 1e-12."""
    x, y, z = (float(c) for c in axis)
    norm = math.sqrt(x * x + y * y + z * z)
    if norm <= _UNIT_EPS:
        raise ZeroVector(f"rotation axis norm {norm} is not normalizable")
    half = 0.5 * float(angle)
    k = math.sin(half) / norm
    return qunit(math.cos(half), x * k, y * k, z * k)


class Rotation:
    """A unit quaternion with the kernels' product and rotation as methods.
    Nothing in extremctl builds one; it is kept because perfbench/tracing.py
    wraps Rotation.compose and Rotation.apply by name."""

    def __init__(self, q) -> None:
        self.q = qunit(*(float(c) for c in q))

    def compose(self, other: "Rotation") -> "Rotation":
        return Rotation(qmul(self.q, other.q))

    def apply(self, v) -> tuple:
        return qrotate(self.q, v)


_CANONICAL_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def align_axis(from_axis, to_vector) -> tuple:
    """Minimal rotation (a unit quaternion) mapping `from_axis` onto the
    direction of `to_vector`.

    Rotates about the axis orthogonal to the plane spanned by the two
    directions. Anti-parallel inputs need a convention: the rotation is pi
    about the smallest-index canonical axis not parallel to `from_axis`
    (projected orthogonal to it).

    Raises ZeroVector if |to_vector| <= 1e-9 (or from_axis is degenerate).
    """
    f = np.asarray(from_axis, dtype=float).reshape(3)
    t = np.asarray(to_vector, dtype=float).reshape(3)
    fn = float(np.linalg.norm(f))
    tn = float(np.linalg.norm(t))
    if fn <= 1e-9:
        raise ZeroVector(f"from_axis norm {fn:.3e} <= 1e-9")
    if tn <= 1e-9:
        raise ZeroVector(f"to_vector norm {tn:.3e} <= 1e-9")
    f = f / fn
    t = t / tn
    c = float(np.dot(f, t))
    if c >= 1.0 - 1e-12:
        return (1.0, 0.0, 0.0, 0.0)
    if c <= -1.0 + 1e-12:
        for e in _CANONICAL_AXES:
            a = np.array(e) - float(np.dot(e, f)) * f
            if float(np.linalg.norm(a)) > 1e-6:
                return qaxis_angle(a, math.pi)
        raise ZeroVector("no canonical axis orthogonal to from_axis")  # unreachable
    axis = np.cross(f, t)
    return qaxis_angle(axis, math.atan2(float(np.linalg.norm(axis)), c))
