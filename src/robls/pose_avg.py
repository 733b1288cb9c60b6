"""Robust SE(3) pose averaging by IRLS Gauss-Newton.

Errors are left-invariant, ``e_i = log(T^-1 T~_i)``.  The textbook system
(estimate-side Jacobian ``H = J_l(e)^-1`` for ``T <- T exp(-dxi)``, error
covariance ``Sigma = M R M'`` with ``M = -J_r(e)^-1``, residual
``sqrt(e' Sigma^-1 e)``, Chi(6)-like on inliers with mode sqrt(5)) is built
in closed form from three exact identities: ``Sigma^-1 = J_r' R^-1 J_r``,
``J_r(e) e = e`` and ``J_r(e) J_l(e)^-1 = Ad(exp(-e))``.  With
``W = chol(R)^-1``, computed once per measurement when it is built, the
residual is ``|W e|`` and the normal equations come from ``W Ad(T~^-1 T)``
alone: no Jacobian series, no ``Sigma`` and no per-measurement solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .irls import IrlsResult, irls
from .se3 import Pose, _batch_se3_log, _batch_skew, exp_map, so3_exp
from .weighting import RobustLoss

__all__ = [
    "PoseMeasurement",
    "PoseAvgConfig",
    "TrialSpec",
    "SingularSystemError",
    "linearize_errors",
    "solve_pose_average",
    "default_measurement_cov",
    "generate_trial",
]

ERROR_DIM = 6


class SingularSystemError(RuntimeError):
    """IRLS normal equations are numerically singular."""


@dataclass(frozen=True)
class PoseMeasurement:
    """A measured pose and its 6x6 covariance ``R``, twist ordering (phi, rho).

    Construction checks that ``R`` is finite and symmetric and proves it
    positive definite by factoring it, ``R = L L'``.  The whitening factor
    ``whiten = L^-1`` is kept, so a solve stacks the factors instead of
    factoring again.  ``cov`` is a copy of the caller's matrix, and it and
    ``whiten`` are read-only, so the factor cannot go stale.
    """

    pose: Pose
    cov: np.ndarray
    whiten: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float).reshape(6, 6)
        if not (np.abs(cov - cov.T).max() <= 1e-9):
            raise ValueError("measurement covariance must be finite and symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("measurement covariance must be positive definite") from None
        whiten = np.linalg.inv(chol)
        cov.flags.writeable = whiten.flags.writeable = False
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "whiten", whiten)

    def __reduce__(self):
        # Copies and pickles are rebuilt through the check, so they keep
        # read-only factors; a restored __dict__ would hold writable arrays.
        return type(self), (self.pose, self.cov)


@dataclass(frozen=True)
class PoseAvgConfig:
    max_iters: int = 50
    tol_phi: float = 1e-3
    tol_rho: float = 1e-3
    rlf: RobustLoss = field(default_factory=lambda: RobustLoss(tau=20.0))
    weight_exponent: int = 2

    def __post_init__(self):
        if min(self.tol_phi, self.tol_rho) <= 0 or self.max_iters < 1:
            raise ValueError("pose-averaging config values must be positive")


@dataclass(frozen=True)
class TrialSpec:
    """Monte Carlo trial: inliers around identity plus box-uniform outliers."""

    seed: int
    n_inliers: int = 20
    outlier_fraction: float = 0.0
    inlier_cov: np.ndarray | None = None   # defaults to default_measurement_cov()
    init_cov: np.ndarray | None = None     # defaults to the inlier covariance
    outlier_phi_max: float = np.deg2rad(60.0)   # per rotation-vector component
    outlier_r_max: float = 1.0                  # per translation component [m]

    def __post_init__(self):
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must lie in [0, 1)")
        if self.n_inliers < 1:
            raise ValueError("need at least one inlier")


def linearize_errors(
    pose: Pose, tm: np.ndarray, whiten: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whitened left-invariant errors of a pose against a stack of measurements.

    ``tm`` holds the (n, 4, 4) measurements ``T~_i`` and ``whiten`` the
    (n, 6, 6) factors ``W_i = chol(R_i)^-1`` of their covariances.  Returns
    ``(ok, r, j)``: the mask of errors ``e_i = log(T^-1 T~_i)`` in the
    principal logarithm branch and, for those only, ``r_i = W_i e_i`` and
    ``j_i = W_i Ad(T~_i^-1 T)``.  By ``Sigma^-1 = J_r' R^-1 J_r``,
    ``J_r(e) e = e`` and ``J_r(e) J_l(e)^-1 = Ad(exp(-e))``, ``|r_i|`` is the
    Mahalanobis norm ``sqrt(e' Sigma^-1 e)``, ``j'j = H' Sigma^-1 H`` and
    ``j'r = H' Sigma^-1 e``.  The adjoint is read off ``(C, t) = T^-1 T~_i``
    as ``[[C', 0], [-C' t^, C']]``, ``t^`` the cross-product matrix of ``t``.
    """
    rt = pose.rotation.T
    inv = np.eye(4)
    inv[:3, :3] = rt
    inv[:3, 3] = -rt @ pose.translation
    rel = np.einsum("ij,njk->nik", inv, tm)
    e, ok = _batch_se3_log(rel)
    rel, w = rel[ok], whiten[ok]
    ct = np.transpose(rel[:, :3, :3], (0, 2, 1))
    ad = np.zeros((len(rel), 6, 6))
    ad[:, :3, :3] = ct
    ad[:, 3:, 3:] = ct
    ad[:, 3:, :3] = -ct @ _batch_skew(rel[:, :3, 3])
    return ok, (w @ e[ok, :, None])[..., 0], w @ ad


def solve_pose_average(
    measurements: list[PoseMeasurement],
    init: Pose,
    config: PoseAvgConfig,
) -> IrlsResult:
    """IRLS Gauss-Newton average of noisy pose measurements.

    Each iteration recomputes the whitened errors ``r`` and Jacobians ``j``
    (:func:`linearize_errors`), asks the robust loss for weights of the
    Mahalanobis norms ``|r|`` (``n_e = 6``), and solves ``sum w j'j dxi =
    -sum w j'r`` for an update twist applied as ``T <- T exp(-dxi)``.
    Measurements whose error leaves the logarithm branch are skipped for
    that iteration with a diagnostic count.
    """
    if not measurements:
        raise ValueError("need at least one measurement")
    tm = np.zeros((len(measurements), 4, 4))
    tm[:, :3, :3] = [m.pose.rotation for m in measurements]
    tm[:, :3, 3] = [m.pose.translation for m in measurements]
    tm[:, 3, 3] = 1.0
    whiten = np.stack([m.whiten for m in measurements])
    skipped_total = 0

    def linearize(pose):
        nonlocal skipped_total
        ok, r, j = linearize_errors(pose, tm, whiten)
        skipped_total += int(np.count_nonzero(~ok))
        if not np.any(ok):
            raise SingularSystemError("all measurements left the logarithm branch")

        def update(wf):
            jw = (j * wf[:, None, None]).reshape(-1, ERROR_DIM)
            a = jw.T @ j.reshape(-1, ERROR_DIM)
            b = -jw.T @ r.reshape(-1)
            sv = np.linalg.svd(a, compute_uv=False)
            if sv[0] <= 0 or sv[-1] / sv[0] < 1e-14:
                raise SingularSystemError("pose-averaging normal equations are singular")
            step = np.linalg.solve(a, b)
            return (pose @ exp_map(-step)).orthonormalized(), step

        return np.sqrt(np.einsum("ni,ni->n", r, r)), update

    result = irls(linearize, init, config, n_e=ERROR_DIM)
    result.diagnostics = {"skipped_measurements": skipped_total, **result.diagnostics}
    return result


def default_measurement_cov() -> np.ndarray:
    """Non-isotropic inlier covariance used by the Monte Carlo study.

    Rotation stds (0.12, 0.15, 0.18) rad, translation stds
    (0.12, 0.15, 0.18) m, correlation 0.2 between matching axes.  The
    magnitudes are large enough that the normalized outlier residuals
    overlap the inlier mode (the regime the benchmark probes) while keeping
    the IRLS fixed points stable at the 1e-3 step tolerances.
    """
    sd_phi = np.array([0.12, 0.15, 0.18])
    sd_rho = np.array([0.12, 0.15, 0.18])
    cov = np.diag(np.concatenate([sd_phi, sd_rho]) ** 2)
    for i in range(3):
        c = 0.2 * sd_phi[i] * sd_rho[i]
        cov[i, 3 + i] = cov[3 + i, i] = c
    return cov


def n_outliers(spec: TrialSpec) -> int:
    """Outlier count giving the requested fraction of the total set."""
    f = spec.outlier_fraction
    return int(round(spec.n_inliers * f / (1.0 - f)))


def generate_trial(spec: TrialSpec) -> tuple[list[PoseMeasurement], Pose, Pose]:
    """Measurements, initialization, and ground truth (identity) for one trial.

    Inliers are ``exp(dxi)`` with Gaussian twists; outliers are built from
    per-component uniform rotation vectors and translations.  Draw order is
    fixed: inlier twists, outlier rotations, outlier translations, then the
    initialization twist.
    """
    rng = np.random.default_rng(spec.seed)
    r_cov = default_measurement_cov() if spec.inlier_cov is None else np.asarray(spec.inlier_cov)
    p_cov = r_cov if spec.init_cov is None else np.asarray(spec.init_cov)
    chol = np.linalg.cholesky(r_cov)

    measurements = []
    for _ in range(spec.n_inliers):
        xi = chol @ rng.standard_normal(ERROR_DIM)
        measurements.append(PoseMeasurement(exp_map(xi), r_cov))

    for _ in range(n_outliers(spec)):
        phi = rng.uniform(-spec.outlier_phi_max, spec.outlier_phi_max, 3)
        r = rng.uniform(-spec.outlier_r_max, spec.outlier_r_max, 3)
        measurements.append(PoseMeasurement(Pose(so3_exp(phi), r), r_cov))

    init = exp_map(np.linalg.cholesky(p_cov) @ rng.standard_normal(ERROR_DIM))
    return measurements, init, Pose.identity()
