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

Batched helpers (prefixed ``_batch_``) operate on stacked arrays and back
the solvers; they share the same coefficient kernels as the public
single-pose API.
"""

from __future__ import annotations

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
# cancellation, so series expansions (accurate to ~1e-16 at the switch) are
# used instead.
_SERIES_SWITCH = 0.1


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
        err = self.rotation @ self.rotation.T - np.eye(3)
        if np.abs(err).max() > 1e-6 or np.linalg.det(self.rotation) < 0:
            raise ValueError("rotation matrix is not orthonormal with det +1")

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
        if np.linalg.det(r) < 0:
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


# --- coefficient kernels (vectorized over the rotation angle) -------------

def _coef_sinc(t2):
    """sin(t)/t with series fallback; argument is t^2."""
    t = np.sqrt(t2)
    small = t < _SERIES_SWITCH
    ts = np.where(small, 0.0, t)
    closed = np.where(small, 1.0, np.sin(ts) / np.where(ts == 0.0, 1.0, ts))
    series = 1.0 - t2 / 6.0 + t2 * t2 / 120.0 - t2 * t2 * t2 / 5040.0
    return np.where(small, series, closed)


def _coef_b(t2):
    """(1 - cos t)/t^2."""
    t = np.sqrt(t2)
    small = t < _SERIES_SWITCH
    safe = np.where(small, 1.0, t2)
    closed = (1.0 - np.cos(np.where(small, 0.0, t))) / safe
    series = 0.5 - t2 / 24.0 + t2 * t2 / 720.0 - t2 * t2 * t2 / 40320.0
    return np.where(small, series, closed)


def _coef_c(t2):
    """(t - sin t)/t^3."""
    t = np.sqrt(t2)
    small = t < _SERIES_SWITCH
    safe = np.where(small, 1.0, t2 * t)
    closed = (t - np.sin(np.where(small, 0.0, t))) / safe
    series = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0 - t2 * t2 * t2 / 362880.0
    return np.where(small, series, closed)


def _coef_d(t2):
    """(1 - t^2/2 - cos t)/t^4 (negative near zero)."""
    t = np.sqrt(t2)
    small = t < _SERIES_SWITCH
    safe = np.where(small, 1.0, t2 * t2)
    closed = (1.0 - 0.5 * t2 - np.cos(np.where(small, 0.0, t))) / safe
    series = -1.0 / 24.0 + t2 / 720.0 - t2 * t2 / 40320.0 + t2 * t2 * t2 / 3628800.0
    return np.where(small, series, closed)


def _coef_e(t2):
    """(t - sin t - t^3/6)/t^5 (negative near zero)."""
    t = np.sqrt(t2)
    small = t < _SERIES_SWITCH
    safe = np.where(small, 1.0, t2 * t2 * t)
    closed = (t - np.sin(np.where(small, 0.0, t)) - t2 * t / 6.0) / safe
    series = -1.0 / 120.0 + t2 / 5040.0 - t2 * t2 / 362880.0 + t2 * t2 * t2 / 39916800.0
    return np.where(small, series, closed)


def _coef_vinv(t2):
    """Second coefficient of the inverse rotation Jacobian."""
    t = np.sqrt(t2)
    small = t < _SERIES_SWITCH
    ts = np.where(small, 1.0, t)
    closed = 1.0 / np.where(small, 1.0, t2) - (1.0 + np.cos(ts)) / (2.0 * ts * np.sin(ts))
    series = 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0 + t2 * t2 * t2 * (1.0 / 1209600.0)
    return np.where(small, series, closed)


# --- batched kernels -------------------------------------------------------

def _batch_skew(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0, 1], out[..., 0, 2] = -z, y
    out[..., 1, 0], out[..., 1, 2] = z, -x
    out[..., 2, 0], out[..., 2, 1] = -y, x
    return out


def _batch_so3_exp(phi: np.ndarray) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    t2 = np.sum(phi * phi, axis=-1)
    p = _batch_skew(phi)
    pp = p @ p
    a = _coef_sinc(t2)[..., None, None]
    b = _coef_b(t2)[..., None, None]
    return np.eye(3) + a * p + b * pp


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


def _batch_v(phi: np.ndarray) -> np.ndarray:
    """Rotation left Jacobian (the translation coupling in the exp map)."""
    phi = np.asarray(phi, dtype=float)
    t2 = np.sum(phi * phi, axis=-1)
    p = _batch_skew(phi)
    pp = p @ p
    return np.eye(3) + _coef_b(t2)[..., None, None] * p + _coef_c(t2)[..., None, None] * pp


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


def _batch_q(phi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Translation-from-rotation block of the 6x6 left Jacobian."""
    t2 = np.sum(phi * phi, axis=-1)
    p = _batch_skew(phi)
    r = _batch_skew(rho)
    pr, rp = p @ r, r @ p
    prp = pr @ p
    ppr, rpp = p @ pr, rp @ p
    prpp, pprp = prp @ p, p @ prp
    c1 = _coef_c(t2)[..., None, None]
    c2 = -_coef_d(t2)[..., None, None]
    c3 = -0.5 * (_coef_d(t2) - 3.0 * _coef_e(t2))[..., None, None]
    return 0.5 * r + c1 * (pr + rp + prp) + c2 * (ppr + rpp - 3.0 * prp) + c3 * (prpp + pprp)


def _batch_left_jacobian(xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    phi, rho = xi[..., :3], xi[..., 3:]
    a = _batch_v(phi)
    q = _batch_q(phi, rho)
    out = np.zeros(xi.shape[:-1] + (6, 6))
    out[..., :3, :3] = a
    out[..., 3:, 3:] = a
    out[..., 3:, :3] = q
    return out


# --- public single-pose API ------------------------------------------------

def so3_exp(phi) -> np.ndarray:
    return _batch_so3_exp(np.asarray(phi, dtype=float).reshape(3))


def so3_log(rot) -> np.ndarray:
    phi, ok = _batch_so3_log(np.asarray(rot, dtype=float))
    if not ok:
        raise BranchError("rotation angle at or beyond pi - 1e-6")
    return phi


def exp_map(xi) -> Pose:
    """SE(3) exponential of a twist (phi, rho)."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    phi, rho = xi[:3], xi[3:]
    return Pose(_batch_so3_exp(phi), _batch_v(phi) @ rho)


def log_map(pose: Pose) -> np.ndarray:
    """Principal-branch SE(3) logarithm, returned as a twist (phi, rho)."""
    phi = so3_log(pose.rotation)
    rho = _batch_v_inv(phi) @ pose.translation
    return np.concatenate([phi, rho])


def left_jacobian(xi) -> np.ndarray:
    return _batch_left_jacobian(np.asarray(xi, dtype=float).reshape(6))


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
