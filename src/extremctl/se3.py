"""Rigid-transform algebra on unit quaternions and 3-vectors.

Conventions:
    * quaternions are scalar-first (w, x, y, z), unit norm, and canonicalized
      to w >= 0 so each rotation has a single representation (double cover);
    * translations are meters, rotations are right-handed;
    * ``a.compose(b)`` (also ``a * b``) applies ``b`` first, then ``a``
      (matrix convention).

All types are immutable; every operation returns a new value.

The arithmetic lives in three kernels, ``qmul`` (Hamilton product),
``qrotate`` and ``qconj``, plus ``qunit``, the one rule that validates
and canonicalizes a quaternion. Quaternions are tuples ``(w, x, y, z)``,
vectors ``(x, y, z)``; each component is a float, or all are equal-shape
float arrays ("columns"). The product, rotation and conjugate are the
same code on both. Only the canonicalizing unit step needs an array form,
``qunit_columns``, which ``qmul`` takes as its ``unit`` argument.
``Rotation`` and ``Pose`` call the float kernels; ``mapping`` runs one
retarget body on floats per frame (``map_frame``) and on columns per
stream (``map_frames``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExtremControlError

_UNIT_EPS = 1e-12


class ZeroVector(ExtremControlError):
    """A direction argument was too short to normalize. When qunit_columns
    raises it, `index` is the flat position of the first refused element."""

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


def _locked(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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


@dataclass(frozen=True, eq=False)
class Rotation:
    """Unit quaternion (w, x, y, z), w >= 0."""

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float).reshape(4)
        object.__setattr__(self, "q", _locked(np.array(qunit(*q.tolist()))))

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.array([1.0, 0.0, 0.0, 0.0]))

    @staticmethod
    def from_axis_angle(axis: np.ndarray, angle: float) -> "Rotation":
        """Rotation of `angle` radians about `axis` (need not be unit length)."""
        axis = np.asarray(axis, dtype=float).reshape(3)
        norm = float(np.linalg.norm(axis))
        if norm <= _UNIT_EPS:
            raise ZeroVector(f"rotation axis norm {norm} is not normalizable")
        half = 0.5 * float(angle)
        u = axis * (math.sin(half) / norm)
        return Rotation(np.array([math.cos(half), u[0], u[1], u[2]]))

    @staticmethod
    def about_z(angle: float) -> "Rotation":
        return Rotation.from_axis_angle(np.array([0.0, 0.0, 1.0]), angle)

    def compose(self, other: "Rotation") -> "Rotation":
        """Hamilton product self * other (other applied first)."""
        return Rotation(np.array(qmul(self.q.tolist(), other.q.tolist())))

    def __mul__(self, other: "Rotation") -> "Rotation":
        return self.compose(other)

    def inverse(self) -> "Rotation":
        return Rotation(np.array(qconj(self.q.tolist())))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Rotate one 3-vector (or an (..., 3) stack of them)."""
        v = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
        return np.stack(qrotate(self.q.tolist(), v), axis=-1)

    def angle(self) -> float:
        """Rotation magnitude in radians, in [0, pi]."""
        s = float(np.linalg.norm(self.q[1:]))
        c = float(self.q[0])
        return 2.0 * math.atan2(s, c)

    def angle_to(self, other: "Rotation") -> float:
        """Geodesic distance to another rotation, radians."""
        return self.inverse().compose(other).angle()

    def as_matrix(self) -> np.ndarray:
        w, x, y, z = self.q
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    def to_list(self) -> list[float]:
        return [float(c) for c in self.q]

    def __repr__(self) -> str:
        w, x, y, z = self.q
        return f"Rotation(w={w:.6g}, x={x:.6g}, y={y:.6g}, z={z:.6g})"


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform: rotation plus translation (meters)."""

    rotation: Rotation
    translation: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.translation, dtype=float).reshape(3).copy()
        if not all(map(math.isfinite, p.tolist())):
            raise ValueError(f"non-finite translation {p}")
        object.__setattr__(self, "translation", _locked(p))

    @staticmethod
    def identity() -> "Pose":
        return Pose(Rotation.identity(), np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        return Pose(
            self.rotation.compose(other.rotation),
            self.translation + self.rotation.apply(other.translation),
        )

    def __mul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def inverse(self) -> "Pose":
        rinv = self.rotation.inverse()
        return Pose(rinv, -rinv.apply(self.translation))

    def apply(self, point: np.ndarray) -> np.ndarray:
        return self.rotation.apply(point) + self.translation

    def to_dict(self) -> dict:
        return {"q": self.rotation.to_list(), "p": [float(c) for c in self.translation]}

    @staticmethod
    def from_dict(d: dict) -> "Pose":
        return Pose(Rotation(np.asarray(d["q"], dtype=float)), np.asarray(d["p"], dtype=float))

    def __repr__(self) -> str:
        p = self.translation
        return f"Pose(q={self.rotation.to_list()}, p=[{p[0]:.6g}, {p[1]:.6g}, {p[2]:.6g}])"


def relative(base: Pose, target: Pose) -> Pose:
    """Target expressed in the base frame: base.inverse() * target."""
    return base.inverse().compose(target)


_CANONICAL_AXES = (
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([0.0, 0.0, 1.0]),
)


def align_axis(from_axis: np.ndarray, to_vector: np.ndarray) -> Rotation:
    """Minimal rotation mapping `from_axis` onto the direction of `to_vector`.

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
        return Rotation.identity()
    if c <= -1.0 + 1e-12:
        for e in _CANONICAL_AXES:
            a = e - float(np.dot(e, f)) * f
            if float(np.linalg.norm(a)) > 1e-6:
                return Rotation.from_axis_angle(a, math.pi)
        raise ZeroVector("no canonical axis orthogonal to from_axis")  # unreachable
    axis = np.cross(f, t)
    angle = math.atan2(float(np.linalg.norm(axis)), c)
    return Rotation.from_axis_angle(axis, angle)
