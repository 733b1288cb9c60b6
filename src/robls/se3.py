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
that pose's element of any batch.  When every rotation angle of a batch is in
branch and at least 1e-6, the rotation log skips its per-element branch
selection and evaluates the closed form alone, element for element the same
arithmetic.

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

    def orthonormalized(self) -> "Pose":
        u, _, vt = np.linalg.svd(self.rotation)
        r = u @ vt
        if _det3(r.tolist()) < 0:
            u[:, -1] = -u[:, -1]
            r = u @ vt
        return Pose(r, self.translation)


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

def _coef_vinv(t2):
    """Second coefficient of the inverse rotation Jacobian."""
    t = np.sqrt(t2)
    small = t < _SERIES_SWITCH
    ts = np.where(small, 1.0, t)
    closed = 1.0 / np.where(small, 1.0, t2) - (1.0 + np.cos(ts)) / (2.0 * ts * np.sin(ts))
    series = 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0 + t2 * t2 * t2 * (1.0 / 1209600.0)
    return np.where(small, series, closed)


def _batch_skew(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0, 1], out[..., 0, 2] = -z, y
    out[..., 1, 0], out[..., 1, 2] = z, -x
    out[..., 2, 0], out[..., 2, 1] = -y, x
    return out


def _batch_so3_log(rot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation vectors plus an in-branch mask."""
    rot = np.asarray(rot, dtype=float)
    w = 0.5 * np.stack(
        [
            rot[..., 2, 1] - rot[..., 1, 2],
            rot[..., 0, 2] - rot[..., 2, 0],
            rot[..., 1, 0] - rot[..., 0, 1],
        ],
        axis=-1,
    )
    s = np.linalg.norm(w, axis=-1)
    c = 0.5 * (np.trace(rot, axis1=-2, axis2=-1) - 1.0)
    theta = np.arctan2(s, c)
    ok = theta < np.pi - LOG_BRANCH_MARGIN
    small = theta < 1e-6
    if ok.all() and not small.any():
        # 1e-6 <= theta < pi - 1e-6 keeps s away from 0
        return w * (theta / s)[..., None], ok
    ratio = np.where(small, 1.0 + theta * theta / 6.0, theta / np.where(s == 0.0, 1.0, s))
    ratio = np.where(ok, ratio, 0.0)
    return w * ratio[..., None], ok


def _batch_v_inv(phi: np.ndarray) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    t2 = np.sum(phi * phi, axis=-1)
    p = _batch_skew(phi)
    pp = p @ p
    return _EYE3 - 0.5 * p + _coef_vinv(t2)[..., None, None] * pp


def _batch_se3_log(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Twists (phi, rho) from 4x4 transforms, plus an in-branch mask."""
    mat = np.asarray(mat, dtype=float)
    phi, ok = _batch_so3_log(mat[..., :3, :3])
    rho = np.einsum("...ij,...j->...i", _batch_v_inv(phi), mat[..., :3, 3])
    return np.concatenate([phi, rho], axis=-1), ok


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
