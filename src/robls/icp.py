"""Robust point-to-plane ICP.

The residual fed to the robust loss is the covariance-normalized
point-to-point error norm ``sqrt(0.5 * e' Sigma^-1 e)`` with
``Sigma = 2 * d_grid^2 * I`` (both clouds downsampled to a ``d_grid``
voxel grid, quantization an order of magnitude above sensor noise), while
the minimization step reduces the weighted squared point-to-plane error.
Association is plain single nearest neighbour with no distance gate;
outlier handling is left entirely to the loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .irls import IrlsResult, irls
from .se3 import Pose, exp_map
from .weighting import RobustLoss

__all__ = [
    "PointCloud",
    "IcpConfig",
    "DegenerateGeometryError",
    "voxel_downsample",
    "estimate_normals",
    "associate",
    "residuals_pt2pt",
    "minimize_pt2plane",
    "icp_solve",
]

NORMAL_RANK_TOL = 1e-8  # mid/max eigenvalue ratio below which a patch is degenerate


class DegenerateGeometryError(RuntimeError):
    """Normal equations are rank deficient (e.g. all constraints coplanar)."""


@dataclass
class PointCloud:
    """Points in the sensor frame, with optional per-point unit normals."""

    points: np.ndarray
    normals: np.ndarray | None = None
    normals_valid: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
            if len(self.normals) != len(self.points):
                raise ValueError("normals and points must have equal length")
            if self.normals_valid is None:
                self.normals_valid = np.ones(len(self.points), dtype=bool)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class IcpConfig:
    grid: float = 0.10            # voxel edge length [m]
    normal_k: int = 15            # neighbours for normal estimation
    max_iters: int = 50
    tol_phi: float = 1e-3         # step rotation norm [rad]
    tol_rho: float = 1e-3         # step translation norm [m]
    rlf: RobustLoss = field(default_factory=RobustLoss)
    weight_exponent: int = 2      # weights enter the objective inside the norm

    def __post_init__(self):
        if min(self.grid, self.tol_phi, self.tol_rho) <= 0 or self.max_iters < 1:
            raise ValueError("ICP config values must be positive")


def voxel_downsample(cloud: PointCloud, d_grid: float) -> PointCloud:
    """One centroid per occupied cell of an origin-anchored voxel grid."""
    if d_grid <= 0:
        raise ValueError("d_grid must be positive")
    pts = cloud.points
    if len(pts) == 0:
        return PointCloud(np.empty((0, 3)))
    keys = np.floor(pts / d_grid).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    sums = np.zeros((len(counts), 3))
    np.add.at(sums, inverse, pts)
    return PointCloud(sums / counts[:, None])


def estimate_normals(cloud: PointCloud, k: int = 15) -> PointCloud:
    """Per-point normals from the k-NN scatter matrix, oriented to the origin.

    The normal is the eigenvector of the smallest eigenvalue; neighbourhoods
    whose scatter is rank deficient (collinear points) are flagged invalid.
    """
    pts = cloud.points
    if len(pts) <= k:
        raise ValueError(f"need more than k={k} points to estimate normals")
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    _, nbr = tree.query(pts, k=k + 1)
    nbrs = pts[nbr]                                  # (N, k+1, 3), row 0 is the point itself
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    scatter = np.einsum("nki,nkj->nij", centered, centered)
    evals, evecs = np.linalg.eigh(scatter)
    normals = evecs[:, :, 0]
    valid = evals[:, 1] > NORMAL_RANK_TOL * np.maximum(evals[:, 2], 1e-300)
    # orient toward the sensor origin
    flip = np.einsum("ni,ni->n", normals, pts) > 0.0
    normals[flip] = -normals[flip]
    return PointCloud(pts, normals=normals, normals_valid=valid)


def associate(source_points: np.ndarray, target_tree) -> np.ndarray:
    """Index of the nearest target point for every source point; no distance gating."""
    if target_tree.n == 0:
        raise ValueError("target cloud is empty")
    _, idx = target_tree.query(source_points)
    return np.asarray(idx)


def residuals_pt2pt(errors: np.ndarray, cov_scale: float) -> np.ndarray:
    """Unitless residual norms ``sqrt(0.5 * |e|^2 / cov_scale)``.

    ``cov_scale`` is the isotropic scale of the combined correspondence
    covariance (``2 * d_grid^2`` for equally downsampled clouds).
    """
    return np.sqrt(0.5 * np.sum(errors * errors, axis=-1) / cov_scale)


def minimize_pt2plane(
    transformed_source: np.ndarray,
    errors: np.ndarray,
    normals: np.ndarray,
    weights: np.ndarray,
    proj_var: float,
) -> np.ndarray:
    """One Gauss-Newton step twist (phi, rho) for the point-to-plane objective.

    Linearizes the plane-projected error around a left perturbation of the
    current pose and solves the weighted normal equations; the per-term
    scale is the plane-projected variance of the correspondence covariance.
    ``weights`` multiply the squared errors as given, so a solver that puts
    the robust weights inside the norm passes them already squared.
    """
    g0 = np.einsum("ni,ni->n", normals, errors)
    jac = np.empty((len(errors), 6))
    jac[:, :3] = -np.cross(transformed_source, normals)
    jac[:, 3:] = -normals
    wf = weights / proj_var
    a = jac.T @ (jac * wf[:, None])
    b = -jac.T @ (wf * g0)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] <= 0 or sv[-1] / sv[0] < 1e-12:
        raise DegenerateGeometryError(
            "point-to-plane normal equations are rank deficient "
            f"(singular value ratio {sv[-1] / max(sv[0], 1e-300):.2e})"
        )
    return np.linalg.solve(a, b)


def icp_solve(source: PointCloud, target: PointCloud, init: Pose, config: IcpConfig) -> IrlsResult:
    """EM-style ICP loop: associate, weight residuals, minimize, repeat.

    Expects preprocessed clouds (downsampled, target normals present).
    Terminates when both step norms fall below the configured tolerances.
    """
    if target.normals is None:
        raise ValueError("target cloud must carry normals (run estimate_normals)")
    from scipy.spatial import cKDTree

    tree = cKDTree(target.points)
    cov_scale = 2.0 * config.grid**2
    proj_var = cov_scale  # n' (cov_scale * I) n for unit normals

    def linearize(pose):
        p = source.points @ pose.rotation.T + pose.translation
        idx = associate(p, tree)
        e = target.points[idx] - p

        def update(wf):
            usable = target.normals_valid[idx]
            if not np.any(usable):
                raise DegenerateGeometryError("no correspondences with valid normals")
            step = minimize_pt2plane(
                p[usable], e[usable], target.normals[idx[usable]], wf[usable], proj_var
            )
            return (exp_map(step) @ pose).orthonormalized(), step

        return residuals_pt2pt(e, cov_scale), update

    return irls(linearize, init, config, n_e=3)
