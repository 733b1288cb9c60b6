"""SO(3)/SE(3) poses, exp/log maps and perturbation sampling.

Twist convention
----------------
Twists are 6-vectors ordered ``(phi, rho)``: the attitude block comes FIRST
(radians), the position block second (meters).  Many libraries use the
opposite ``(rho, phi)`` ordering; check before mixing.  The 4x4 algebra
element of a twist is::

    [ phi^   rho ]
    [ 0 0 0   0  ]

with ``phi^`` the cross-product matrix of ``phi`` (``phi^ v = phi x v``).

Logarithms are restricted to the principal branch: rotation angles at or
beyond ``pi - 1e-6`` raise.

The exp side (``so3_exp``, ``exp_map``) takes one twist and evaluates its
three series coefficients on Python floats (Sola et al., "A micro Lie theory
for state estimation in robotics", arXiv 1812.01537).  Below a rotation angle
of ``_SERIES_SWITCH`` each coefficient is its Taylor series through ``t^6``.
At every angle in ``[0, pi)`` each coefficient lies within 2e-12 (absolute)
of its exact value; the truncation error of the series peaks just below the
switch (3e-14, for ``sin(t)/t``).  The log side is batched: helpers prefixed
``_batch_`` take stacked arrays and serve the pose-averaging linearization;
``log_map`` runs them on one pose's ``matrix()`` and returns the same bits as
that pose's element of any batch.  Of a rotation the log reads only ``w``,
the axial vector of its antisymmetric part, and ``cos t`` from its trace.
``V^-1`` acts on the translation in closed form with one cross product per
element, since ``phi x (phi x t) = phi (phi . t) - |phi|^2 t``, and no 3x3
matrix per element; its coefficient is a series through ``t^6`` below
``_SERIES_SWITCH``.  The twists are written into one (n, 6) array.  Near the
branch end the log loses about ``eps / (pi - t)`` relative, as the
antisymmetric part of ``R`` shrinks.

``Pose`` validates on Python floats: ``|R R' - I| <= 1e-6`` entrywise, a
nonnegative determinant and a finite translation, with NaN and infinity
rejected by every comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Pose",
    "so3_exp",
    "exp_map",
    "log_map",
    "pose_error_norms",
    "sample_perturbation",
    "perturbation_sigma",
]

LOG_BRANCH_MARGIN = 1e-6  # principal-branch guard on the rotation angle

# Below this angle the closed-form coefficient ratios lose precision to
# cancellation, so truncated series are used instead.
_SERIES_SWITCH = 0.1

# Entrywise bound on R R' - I for a valid rotation.
_ORTHO_TOL = 1e-6

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def _det3(rows) -> float:
    """Determinant of a 3x3 matrix, given as rows, by cofactor expansion
    along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _is_rotation(rows) -> bool:
    """``|R R' - I| <= _ORTHO_TOL`` entrywise and ``det R >= 0``, on floats.

    ``R R'`` is symmetric, so its six distinct entries are the row dot
    products.  Each is compared on its own, so NaN fails the test.
    """
    (a, b, c), (d, e, f), (g, h, i) = rows
    tol = _ORTHO_TOL
    return (
        abs(a * a + b * b + c * c - 1.0) <= tol
        and abs(d * d + e * e + f * f - 1.0) <= tol
        and abs(g * g + h * h + i * i - 1.0) <= tol
        and abs(a * d + b * e + c * f) <= tol
        and abs(a * g + b * h + c * i) <= tol
        and abs(d * g + e * h + f * i) <= tol
        and _det3(rows) >= 0
    )


class BranchError(ValueError):
    """Rotation angle outside the principal logarithm branch."""


@dataclass
class Pose:
    """Rigid transform: rotation matrix plus translation vector."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        if self.rotation.shape != (3, 3):
            raise ValueError("rotation must be a 3x3 matrix")
        if not _is_rotation(self.rotation.tolist()):
            raise ValueError("rotation matrix is not finite and orthonormal with det +1")
        x, y, z = self.translation.tolist()
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError("translation must be finite")

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -rt @ self.translation)

    def __matmul__(self, other: "Pose") -> "Pose":
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def apply(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation


# --- exp side: one twist, coefficients on Python floats -------------------

def _exp_coefs(t2: float) -> tuple[float, float, float]:
    """Coefficients of the exp-side series at the rotation angle ``t``.

    The argument is ``t^2``.  Returns ``sin(t)/t``, ``(1 - cos t)/t^2`` and
    ``(t - sin t)/t^3``; below ``_SERIES_SWITCH`` each is its Taylor series.
    """
    if not math.isfinite(t2):
        raise ValueError(f"rotation angle is not finite: t^2 = {t2}")
    t = math.sqrt(t2)
    t4 = t2 * t2
    t6 = t4 * t2
    if t < _SERIES_SWITCH:
        return (
            1.0 - t2 / 6.0 + t4 / 120.0 - t6 / 5040.0,
            0.5 - t2 / 24.0 + t4 / 720.0 - t6 / 40320.0,
            1.0 / 6.0 - t2 / 120.0 + t4 / 5040.0 - t6 / 362880.0,
        )
    s, c = math.sin(t), math.cos(t)
    return s / t, (1.0 - c) / t2, (t - s) / (t2 * t)


def _exp_parts(phi) -> tuple[np.ndarray, np.ndarray, tuple[float, float, float]]:
    """``phi^``, its square and the :func:`_exp_coefs` of ``phi``."""
    x, y, z = np.asarray(phi, dtype=float).reshape(3).tolist()
    coefs = _exp_coefs(x * x + y * y + z * z)
    p = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return p, p @ p, coefs


def so3_exp(phi) -> np.ndarray:
    p, pp, (a, b, _) = _exp_parts(phi)
    return _EYE3 + a * p + b * pp


def exp_map(xi) -> Pose:
    """SE(3) exponential of a twist (phi, rho)."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    p, pp, (a, b, c) = _exp_parts(xi[:3])
    return Pose(_EYE3 + a * p + b * pp, (_EYE3 + b * p + c * pp) @ xi[3:])


# --- log side: batched over stacked transforms ----------------------------

# Cyclic index shifts of a 3-vector: v[..., _NEXT] is (v1, v2, v0).
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a x b`` over the last axis of two stacks of 3-vectors."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


# t @ _SKEW is t^ row-major: each entry is +-1 times one component of t.
_SKEW = np.zeros((3, 9))
_SKEW[2, 1] = _SKEW[0, 5] = _SKEW[1, 6] = -1.0
_SKEW[1, 2] = _SKEW[2, 3] = _SKEW[0, 7] = 1.0
_SKEW.flags.writeable = False


def _adjoint(rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Adjoints ``[[R, 0], [t^ R, R]]`` of transforms ``(R, t)`` in twist
    order (phi, rho), broadcast over leading axes."""
    out = np.zeros(np.shape(rot)[:-2] + (6, 6))
    out[..., :3, :3] = out[..., 3:, 3:] = rot
    out[..., 3:, :3] = (trans @ _SKEW).reshape(np.shape(trans)[:-1] + (3, 3)) @ rot
    return out


# Floor of the denominator of theta / |w|.  Below it the ratio multiplies a
# zero w, but the floor keeps the quotient finite without a warning.
_TINY = 1e-300


def _batch_se3_log_rt(rot: np.ndarray, trans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Twists (phi, rho) from rotations and translations, plus an in-branch mask.

    Of each rotation only ``w``, the axial vector of its antisymmetric part,
    and ``c = cos theta`` from its trace are read: ``theta = atan2(|w|, c)``
    and ``phi = theta w / |w|``.  With ``k = 1/theta^2 - (1 + cos theta) /
    (2 theta sin theta)``, ``rho = t - phi x t / 2 + k phi x (phi x t)``,
    computed with one cross product as ``(1 - k theta^2) t - phi x t / 2 + k
    (phi . t) phi``.  ``k`` takes the cosine and sine of ``theta``, not ``c``
    and ``|w|``: near pi those lose about ``eps / (pi - theta)`` relative in
    ``1 + c`` and ``|w|``, which would make ``rho`` four to six times less
    accurate there.  Rows out of branch get ``phi = 0`` and a finite
    ``rho`` that means nothing.
    """
    w = 0.5 * (rot[..., _PREV, _NEXT] - rot[..., _NEXT, _PREV])
    c = 0.5 * ((rot[..., 0, 0] + rot[..., 1, 1] + rot[..., 2, 2]) - 1.0)
    s = np.sqrt(np.einsum("...i,...i->...", w, w))
    theta = np.arctan2(s, c)
    t2 = theta * theta
    ok = theta < np.pi - LOG_BRANCH_MARGIN
    out = np.empty(np.shape(trans)[:-1] + (6,))
    phi = out[..., :3]
    np.multiply(w, (np.where(ok, theta, 0.0) / np.maximum(s, _TINY))[..., None], out=phi)
    small = theta < _SERIES_SWITCH
    ts = np.where(small, 1.0, theta)
    k = np.where(
        small,
        ((t2 * (1.0 / 1209600.0) + 1.0 / 30240.0) * t2 + 1.0 / 720.0) * t2 + 1.0 / 12.0,
        1.0 / (ts * ts) - (1.0 + np.cos(ts)) / (2.0 * ts * np.sin(ts)),
    )
    pt = np.einsum("...i,...i->...", phi, trans)
    out[..., 3:] = (1.0 - k * t2)[..., None] * trans - 0.5 * _cross(phi, trans) + (k * pt)[..., None] * phi
    return out, ok


def _batch_se3_log(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Twists (phi, rho) from 4x4 transforms, plus an in-branch mask."""
    mat = np.asarray(mat, dtype=float)
    return _batch_se3_log_rt(mat[..., :3, :3], mat[..., :3, 3])


def log_map(pose: Pose) -> np.ndarray:
    """Principal-branch SE(3) logarithm, returned as a twist (phi, rho)."""
    xi, ok = _batch_se3_log(pose.matrix())
    if not ok:
        raise BranchError("rotation angle at or beyond pi - 1e-6")
    return xi


def pose_error_norms(delta: Pose) -> tuple[float, float]:
    """Norms of the attitude and position blocks of ``log(delta)``."""
    xi = log_map(delta)
    return float(np.linalg.norm(xi[:3])), float(np.linalg.norm(xi[3:]))


def sample_perturbation(sigma_phi: float, sigma_r: float, rng: np.random.Generator) -> Pose:
    """Random pose from independent Gaussian rotation/translation vectors.

    The rotation vector is drawn first, then the translation (the draw order
    is part of the determinism contract).
    """
    if sigma_phi < 0 or sigma_r < 0:
        raise ValueError("perturbation scales must be nonnegative")
    dphi = sigma_phi * rng.standard_normal(3)
    dr = sigma_r * rng.standard_normal(3)
    return Pose(so3_exp(dphi), dr)


def perturbation_sigma(bound: float, p: float = 0.9973) -> float:
    """Per-axis sigma such that the 3-vector norm stays under ``bound``
    with probability ``p`` (the norm over sigma is Chi(3)-distributed)."""
    from .mbfit import chi_quantile

    return bound / chi_quantile(3, p)
