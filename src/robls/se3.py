"""SO(3)/SE(3) poses, exp/log maps, Jacobians, and perturbation sampling.

Twist convention
----------------
Twists are 6-vectors ordered ``(phi, rho)``: the attitude block comes FIRST
(radians), the position block second (meters).  Many libraries use the
opposite ``(rho, phi)`` ordering; check before mixing.  The 4x4 algebra
element is::

    wedge((phi, rho)) = [ skew(phi)  rho ]
                        [ 0  0  0    0  ]

Logarithms are restricted to the principal branch: rotation angles at or
beyond ``pi - 1e-6`` raise.

The exp side (``so3_exp``, ``exp_map``, ``left_jacobian``) takes one twist
and evaluates its five series coefficients on Python floats (Sola et al., "A
micro Lie theory for state estimation in robotics", arXiv 1812.01537).  Below
a rotation angle of ``_SERIES_SWITCH`` each coefficient is its Taylor series
through ``t^6``.  At every angle in ``[0, pi)`` each coefficient lies within
2e-12 (absolute) of its exact value: the truncation error of the series
peaks just below the switch (3e-14, for ``sin(t)/t``), and the closed forms
of the ``t^4`` and ``t^5`` ratios lose up to 1e-12 to cancellation just
above it.  The log side is batched: helpers prefixed ``_batch_`` take
stacked arrays and serve the pose-averaging linearization; ``so3_log`` and
``log_map`` run them on a single pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Pose",
    "skew",
    "unskew",
    "wedge",
    "vee",
    "so3_exp",
    "so3_log",
    "exp_map",
    "log_map",
    "left_jacobian",
    "pose_error_norms",
    "sample_perturbation",
    "perturbation_sigma",
]

LOG_BRANCH_MARGIN = 1e-6  # principal-branch guard on the rotation angle

# Below this angle the closed-form coefficient ratios lose precision to
# cancellation, so truncated series are used instead.
_SERIES_SWITCH = 0.1

# Shared identity for the orthonormality check, which runs on every Pose.
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def _det3(m: np.ndarray) -> float:
    """Determinant of a 3x3 matrix by cofactor expansion along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


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
        err = self.rotation @ self.rotation.T - _EYE3
        if not (np.abs(err).max() <= 1e-6 and _det3(self.rotation) >= 0):
            raise ValueError("rotation matrix is not finite and orthonormal with det +1")
        if not np.isfinite(self.translation).all():
            raise ValueError("translation must be finite")

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, m) -> "Pose":
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4) or np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0])).max() > 1e-9:
            raise ValueError("expected a homogeneous 4x4 transform")
        return cls(m[:3, :3], m[:3, 3])

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
        if _det3(r) < 0:
            u[:, -1] = -u[:, -1]
            r = u @ vt
        return Pose(r, self.translation)


def skew(v) -> np.ndarray:
    x, y, z = np.asarray(v, dtype=float).reshape(3)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def unskew(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def wedge(xi) -> np.ndarray:
    """6-vector (phi, rho) to the 4x4 algebra element."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    out = np.zeros((4, 4))
    out[:3, :3] = skew(xi[:3])
    out[:3, 3] = xi[3:]
    return out


def vee(m) -> np.ndarray:
    """Inverse of :func:`wedge`; validates the algebra sparsity pattern."""
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError("vee expects a 4x4 matrix")
    if np.abs(m[3]).max() > 1e-12:
        raise ValueError("bottom row must be zero")
    s = m[:3, :3]
    if np.abs(s + s.T).max() > 1e-9:
        raise ValueError("upper-left block must be skew-symmetric")
    return np.concatenate([unskew(s), m[:3, 3]])


# --- exp side: one twist, coefficients on Python floats -------------------

def _exp_coefs(t2: float) -> tuple[float, float, float, float, float]:
    """Coefficients of the exp-side series at the rotation angle ``t``.

    The argument is ``t^2``.  Returns ``sin(t)/t``, ``(1 - cos t)/t^2``,
    ``(t - sin t)/t^3``, ``(1 - t^2/2 - cos t)/t^4`` and
    ``(t - sin t - t^3/6)/t^5`` (the last two negative near zero); below
    ``_SERIES_SWITCH`` each is its Taylor series.
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
            -1.0 / 24.0 + t2 / 720.0 - t4 / 40320.0 + t6 / 3628800.0,
            -1.0 / 120.0 + t2 / 5040.0 - t4 / 362880.0 + t6 / 39916800.0,
        )
    s, c = math.sin(t), math.cos(t)
    t3 = t2 * t
    return (
        s / t,
        (1.0 - c) / t2,
        (t - s) / t3,
        (1.0 - 0.5 * t2 - c) / t4,
        (t - s - t3 / 6.0) / (t4 * t),
    )


def _exp_parts(phi) -> tuple[np.ndarray, np.ndarray, tuple[float, ...]]:
    """``skew(phi)``, its square and the :func:`_exp_coefs` of ``phi``."""
    x, y, z = np.asarray(phi, dtype=float).reshape(3).tolist()
    coefs = _exp_coefs(x * x + y * y + z * z)
    p = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return p, p @ p, coefs


def so3_exp(phi) -> np.ndarray:
    p, pp, (a, b, _, _, _) = _exp_parts(phi)
    return _EYE3 + a * p + b * pp


def exp_map(xi) -> Pose:
    """SE(3) exponential of a twist (phi, rho)."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    p, pp, (a, b, c, _, _) = _exp_parts(xi[:3])
    return Pose(_EYE3 + a * p + b * pp, (_EYE3 + b * p + c * pp) @ xi[3:])


def left_jacobian(xi) -> np.ndarray:
    """6x6 SE(3) left Jacobian; its lower-left block is the translation
    coupling ``Q(phi, rho)``."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    p, pp, (_, b, c, d, e) = _exp_parts(xi[:3])
    r = skew(xi[3:])
    pr, rp = p @ r, r @ p
    prp = pr @ p
    ppr, rpp = p @ pr, rp @ p
    prpp, pprp = prp @ p, p @ prp
    c3 = -0.5 * (d - 3.0 * e)
    q = 0.5 * r + c * (pr + rp + prp) - d * (ppr + rpp - 3.0 * prp) + c3 * (prpp + pprp)
    out = np.zeros((6, 6))
    out[:3, :3] = out[3:, 3:] = _EYE3 + b * p + c * pp
    out[3:, :3] = q
    return out


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
    ratio = np.where(small, 1.0 + theta * theta / 6.0, theta / np.where(s == 0.0, 1.0, s))
    ratio = np.where(ok, ratio, 0.0)
    return w * ratio[..., None], ok


def _batch_v_inv(phi: np.ndarray) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    t2 = np.sum(phi * phi, axis=-1)
    p = _batch_skew(phi)
    pp = p @ p
    return np.eye(3) - 0.5 * p + _coef_vinv(t2)[..., None, None] * pp


def _batch_se3_log(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Twists (phi, rho) from 4x4 transforms, plus an in-branch mask."""
    mat = np.asarray(mat, dtype=float)
    phi, ok = _batch_so3_log(mat[..., :3, :3])
    rho = np.einsum("...ij,...j->...i", _batch_v_inv(phi), mat[..., :3, 3])
    return np.concatenate([phi, rho], axis=-1), ok


def so3_log(rot) -> np.ndarray:
    phi, ok = _batch_so3_log(np.asarray(rot, dtype=float))
    if not ok:
        raise BranchError("rotation angle at or beyond pi - 1e-6")
    return phi


def log_map(pose: Pose) -> np.ndarray:
    """Principal-branch SE(3) logarithm, returned as a twist (phi, rho)."""
    phi = so3_log(pose.rotation)
    rho = _batch_v_inv(phi) @ pose.translation
    return np.concatenate([phi, rho])


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
