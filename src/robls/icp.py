"""Robust point-to-plane ICP.

The residual fed to the robust loss is the covariance-normalized
point-to-point error norm ``sqrt(0.5 * e' Sigma^-1 e)`` with
``Sigma = 2 * d_grid^2 * I`` (both clouds downsampled to a ``d_grid``
voxel grid, quantization an order of magnitude above sensor noise), while
the minimization step reduces the weighted squared point-to-plane error.
Association is plain single nearest neighbour with no distance gate;
outlier handling is left entirely to the loss.  A target cloud has one KD-tree
(:attr:`PointCloud.tree`), built on first use and shared by every solve.

Target normals are the smallest eigenvectors of the k-neighbour scatter
matrices, computed in closed form with no per-matrix LAPACK call: the
trigonometric eigenvalues of a symmetric 3x3 matrix, and the eigenvector as a
cross product of two rows of ``S - lam0 I``.  A normal is within about
``eps * (lam2 / (lam1 - lam0))**2`` rad of the exact one, so a scatter whose
relative gap ``(lam1 - lam0) / lam2`` is at most ``NORMAL_GAP_TOL`` (1e-2,
where that bound reaches 2.2e-12) goes to ``np.linalg.eigh`` instead: duplicate
and collinear points, a zero scatter.  On the default icp-bench corpus that is
0.07% of the rows, and every normal is within 4e-13 rad of LAPACK's.

Association returns exactly what a KD-tree query would, but ICP's late
iterations move each source point far less than the gaps between the targets
around it, so most correspondences are proved instead of searched again
(cached k-d tree search, Nuechter et al., 3DIM 2007).  A memo records the
tree it was filled against and, for every point, where that tree was last
queried (``ref``), the nearest and second-nearest indices there, ``idx`` and
``j2``, and the third-nearest distance there, ``d3``.  By the triangle
inequality every target but that pair lies at least ``d3 - |p - ref|`` from
the point ``p``.  So the closer of ``idx`` and ``j2`` is the unique nearest
while its distance plus ``|p - ref|`` is below ``d3`` and strictly below the
other's distance; when that is ``j2``, the two swap.  One test covers both the
points whose nearest stays put and those outside the overlap, whose nearest
flips between two almost equally far targets as the pose moves.  It carries a
margin of ``CERT_MARGIN`` times the summed distances plus the coordinate
magnitude, which covers the rounding of the computed distances.  Only the
points that fail it are queried, for three neighbours, which refreshes their
memo.  A tie ``d1 == d2`` in that query leaves the first index to the tree's
traversal order, so a tied point takes its index from a one-neighbour query,
as a plain query would, and gets ``d3 = 0``, which keeps it uncertified.

The certificate needs only a memo filled against the same tree, so a memo
also carries across solves.  The target cloud keeps a copy of the memo of
the most recent solve's first association; each solve starts from a copy
of it and stores a copy of its own first one back.  A trial's solves start
from one pose, so all but the first certify their start association
instead of querying every point.  A memo from another start certifies fewer
points and one from another tree none, so every index, pose and trace is
what an empty memo gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .irls import IrlsResult, check_config, check_int, irls
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
# Relative gap (lam1 - lam0) / lam2 of a scatter matrix at or below which its
# normal comes from LAPACK: the closed form's angle error grows as
# eps / gap**2, and at this gap it is about 2.2e-12 rad.
NORMAL_GAP_TOL = 1e-2
# Safety margin of the association certificate, relative to the distances and
# to the coordinate magnitude: thousands of times the few ulps of rounding in
# a computed distance, and far below the gaps between neighbouring targets.
CERT_MARGIN = 1e-12


class DegenerateGeometryError(RuntimeError):
    """Normal equations are rank deficient (e.g. all constraints coplanar)."""


@dataclass
class PointCloud:
    """Points in the sensor frame, with optional per-point unit normals.

    The cloud's one KD-tree (:attr:`tree`) is built on first use and freezes
    the points.  As a target it also keeps the association memo (keys
    ``tree``, ``ref``, ``idx``, ``j2`` and ``d3``, see :func:`associate`) of
    the most recent :func:`icp_solve`'s first association, where the next
    solve's memo starts; a new tree drops it.  Invalid normals
    (``normals_valid``, a boolean array with one entry per point) weigh 0 but
    must be finite.  Construction and :func:`icp_solve` raise ``ValueError``
    otherwise, so normals assigned after construction are checked too.
    """

    points: np.ndarray
    normals: np.ndarray | None = None
    normals_valid: np.ndarray | None = None
    _tree: object = field(default=None, init=False, repr=False, compare=False)
    _start_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
            if self.normals_valid is None:
                self.normals_valid = np.ones(len(self.points), dtype=bool)
            self.normals_valid = np.asarray(self.normals_valid)
            self._check_normals()

    def _check_normals(self) -> None:
        """Raise ``ValueError`` unless ``normals`` holds one finite row of 3
        per point and ``normals_valid`` is a boolean array of one entry per point."""
        n = len(self.points)
        if np.shape(self.normals) != (n, 3):
            raise ValueError(f"normals must have shape ({n}, 3), got {np.shape(self.normals)}")
        if not np.all(np.isfinite(self.normals)):
            raise ValueError("normals must be finite")
        valid = self.normals_valid
        if not isinstance(valid, np.ndarray) or valid.dtype != bool or valid.shape != (n,):
            raise ValueError("normals_valid must be a boolean array with one entry per point")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def tree(self):
        """The scipy ``cKDTree`` of the points, built on first use and kept.

        Its read-only copy of the points becomes ``points``, so an in-place
        edit raises instead of leaving the tree stale; new points get a new tree.
        """
        if self._tree is None or self._tree.data is not self.points:
            from scipy.spatial import cKDTree

            self._tree = cKDTree(self.points, copy_data=True)
            self._tree.data.flags.writeable = False
            self.points = self._tree.data
            self._start_memo = {}
        return self._tree


@dataclass(frozen=True)
class IcpConfig:
    grid: float = 0.10            # voxel edge length [m]
    # icp_solve never reads normal_k: callers estimate the target's normals
    # themselves.  It stays only because perfbench's icp workload constructs
    # IcpConfig(normal_k=...).
    normal_k: int = 15
    max_iters: int = 50
    tol_phi: float = 1e-3         # step rotation norm [rad]
    tol_rho: float = 1e-3         # step translation norm [m]
    rlf: RobustLoss = field(default_factory=RobustLoss)
    weight_exponent: int = 2      # weights enter the objective inside the norm

    def __post_init__(self):
        check_config(self, "grid", "tol_phi", "tol_rho")


def voxel_downsample(cloud: PointCloud, d_grid: float) -> PointCloud:
    """One centroid per occupied cell of an origin-anchored voxel grid."""
    if not 0.0 < d_grid < np.inf:
        raise ValueError(f"d_grid must be positive and finite, got {d_grid!r}")
    pts = cloud.points
    if len(pts) == 0:
        return PointCloud(np.empty((0, 3)))
    keys = np.floor(pts / d_grid).astype(np.int64)
    # Cells in lexicographic key order; the stable sort keeps each cell's
    # points in input order, so every centroid sums in that order.
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    starts = np.ones(len(pts), dtype=bool)
    starts[1:] = np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)
    cell = np.cumsum(starts) - 1
    counts = np.bincount(cell)
    sums = np.column_stack([np.bincount(cell, weights=pts[order, a]) for a in range(3)])
    return PointCloud(sums / counts[:, None])


def estimate_normals(cloud: PointCloud, k: int = 15) -> PointCloud:
    """Per-point normals from the k-NN scatter matrix, oriented to the origin.

    The normal is the eigenvector of the smallest eigenvalue; neighbourhoods
    whose scatter is rank deficient (collinear points) are flagged invalid.
    The eigenpairs come in closed form (:func:`_scatter_eigen`), within about
    2.2e-12 rad of LAPACK's normals, and from ``np.linalg.eigh`` for the
    rows whose two smallest eigenvalues lie within ``NORMAL_GAP_TOL`` times
    the largest.  Every normal is finite and of unit length, invalid ones
    included.  The returned cloud keeps the KD-tree built here as its
    :attr:`~PointCloud.tree`.
    """
    check_int("k", k, 2)
    if len(cloud) <= k:
        raise ValueError(f"need more than k={k} points to estimate normals")
    out = PointCloud(cloud.points)
    pts = out.tree.data
    _, nbr = out.tree.query(pts, k=k + 1)
    # (3, N, k+1), one contiguous block per coordinate; column 0 is the point itself
    nbrs = np.take(np.ascontiguousarray(pts.T), nbr, axis=1)
    nbrs -= nbrs.mean(axis=2, keepdims=True)
    x, y, z = nbrs
    evals, normals, _ = _scatter_eigen(
        *(np.einsum("nk,nk->n", u, v) for u, v in ((x, x), (y, y), (z, z), (x, y), (x, z), (y, z)))
    )
    valid = evals[:, 1] > NORMAL_RANK_TOL * np.maximum(evals[:, 2], 1e-300)
    # orient toward the sensor origin
    flip = np.einsum("ni,ni->n", normals, pts) > 0.0
    normals[flip] = -normals[flip]
    out.normals, out.normals_valid = normals, valid
    return out


def _scatter_eigen(xx, yy, zz, xy, xz, yz):
    """Eigenvalues and smallest eigenvector of a stack of symmetric 3x3 matrices.

    The arguments are the six distinct entries, one array of N each.
    Returns ``(evals, normals, fallback)``: the ascending eigenvalues
    ``(N, 3)``, unit eigenvectors of the smallest ``(N, 3)`` and the indices
    of the rows that ``np.linalg.eigh`` solved.

    Each matrix is divided by its trace ``t`` and shifted by the mean
    eigenvalue 1/3; the trigonometric formula (Smith, CACM 1961) then gives
    the three eigenvalues, and the eigenvector of the smallest, ``lam0``, is
    the longest of the three cross products of two rows of ``S - lam0 I``
    (Kopp, arXiv:physics/0610206).  With ``g = lam1 - lam0``:

    * ``lam0`` carries an error of about ``eps * lam2**2 / g``, since
      ``arccos`` amplifies the rounding of its argument near a double root,
      and the cross product turns it into an angle of about
      ``eps * (lam2 / g)**2`` (LAPACK's own is about ``eps * lam2 / g``);
    * a close pair of eigenvalues shares an error of about
      ``eps * lam2**2 / (their gap)``, never more than about
      ``sqrt(eps) * lam2``; an eigenvalue apart from the others is within
      about ten ``eps * lam2``.

    Rows with ``g <= NORMAL_GAP_TOL * lam2`` go to ``eigh`` instead: a zero
    or isotropic scatter, duplicate and collinear points and every other
    near-double ``lam0``.  So every normal is within about
    ``eps / NORMAL_GAP_TOL**2`` (2.2e-12) rad of the exact one and of unit
    length, and the ``lam1``-to-``lam2`` ratio that decides validity comes
    from ``eigh`` wherever it is below ``NORMAL_GAP_TOL``.
    """
    t = xx + yy + zz
    with np.errstate(divide="ignore", invalid="ignore"):  # t = 0 or an isotropic scatter: NaN rows
        s = 1.0 / t
        xs, ys, zs, d, e, f = xx * s, yy * s, zz * s, xy * s, xz * s, yz * s
        a, b, c = xs - 1.0 / 3.0, ys - 1.0 / 3.0, zs - 1.0 / 3.0
        p2 = (a * a + b * b + c * c + 2.0 * (d * d + e * e + f * f)) / 6.0
        p = np.sqrt(p2)
        det = a * (b * c - f * f) - d * (d * c - f * e) + e * (d * f - b * e)
        phi = np.arccos(np.clip(det / (2.0 * p2 * p), -1.0, 1.0)) / 3.0
        lam2 = 1.0 / 3.0 + 2.0 * p * np.cos(phi)
        lam0 = 1.0 / 3.0 + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
        lam1 = 1.0 - lam0 - lam2
        # rows (a0, d, e), (d, b0, f), (e, f, c0) of S / t - lam0 I
        a0, b0, c0 = xs - lam0, ys - lam0, zs - lam0
        cross = np.array([
            (d * f - e * b0, e * d - a0 * f, a0 * b0 - d * d),
            (d * c0 - e * f, e * e - a0 * c0, a0 * f - d * e),
            (b0 * c0 - f * f, f * e - d * c0, d * f - b0 * e),
        ])  # (pair, component, N)
        norm2 = np.einsum("pcn,pcn->pn", cross, cross)
        pick = norm2.argmax(axis=0)[None]
        longest = np.take_along_axis(cross, pick[None], axis=0)[0]
        normals = np.column_stack(list(longest / np.sqrt(np.take_along_axis(norm2, pick, axis=0))))
    evals = np.column_stack([lam0, lam1, lam2]) * t[:, None]
    fallback = np.flatnonzero(~(lam1 - lam0 > NORMAL_GAP_TOL * lam2))
    if fallback.size:
        rows = [m[fallback] for m in (xx, xy, xz, xy, yy, yz, xz, yz, zz)]
        w, v = np.linalg.eigh(np.stack(rows, axis=1).reshape(-1, 3, 3))
        evals[fallback], normals[fallback] = w, v[:, :, 0]
    return evals, normals, fallback


def associate(source_points: np.ndarray, target_tree, memo: dict | None = None) -> np.ndarray:
    """Index of the nearest target point for every source point; no distance gating.

    The result always equals ``target_tree.query(source_points)[1]``.
    ``memo`` is a dict that carries, from one call to the next, the
    ``tree`` it was filled against and, for each point, its reference
    position ``ref`` (where the tree was last queried for it), the nearest
    and second-nearest indices there, ``idx`` and ``j2``, and the
    third-nearest distance there, ``d3`` (infinite where the target has
    fewer points).  The call updates ``ref``, ``j2`` and ``d3`` in place and
    returns a new ``idx``, so a returned array never changes.  With ``scale``
    the largest coordinate magnitude of the points and the target, a point
    takes the closer of ``idx`` and ``j2``, at distance ``best`` (the other
    at ``other``), without a tree search when

        best + |p - ref| + CERT_MARGIN * (that sum + scale) < d3  and
        best + CERT_MARGIN * (best + other + scale) < other;

    if that is ``j2``, the two swap.  The remaining points get one
    ``query(k=3)``, which refreshes their memo.  Where that query returns
    ``d1 == d2`` the index comes from ``query(k=1)`` instead, and the point
    gets ``d3 = 0``, so the test never certifies it.  On a one-point target
    ``j2 = idx``, so the strict gap never holds and every call queries every
    point.  An empty or absent memo, or one kept for another tree or a
    different number of points, certifies nothing.
    """
    if target_tree.n == 0:
        raise ValueError("target cloud is empty")
    p = np.asarray(source_points, dtype=float)
    memo = {} if memo is None else memo
    if memo.get("tree") is not target_tree or len(memo["ref"]) != len(p):
        n = len(p)
        memo.update(tree=target_tree, ref=np.zeros_like(p), idx=np.zeros(n, dtype=np.intp),
                    j2=np.zeros(n, dtype=np.intp), d3=np.zeros(n))
    ref, idx, j2, d3 = memo["ref"], memo["idx"].copy(), memo["j2"], memo["d3"]
    data = target_tree.data

    a = _norms(p - np.take(data, idx, axis=0))  # take: faster than [idx]
    b = _norms(p - np.take(data, j2, axis=0))
    best, other = np.minimum(a, b), np.maximum(a, b)
    scale = max(np.abs(p).max(initial=0.0), np.abs([target_tree.mins, target_tree.maxes]).max())
    bound = best + _norms(p - ref)
    certified = ((bound + CERT_MARGIN * (bound + scale) < d3)
                 & (best + CERT_MARGIN * (best + other + scale) < other))
    switch = certified & (b < a)
    idx[switch], j2[switch] = j2[switch], idx[switch]

    stale = np.flatnonzero(~certified)
    q = np.take(p, stale, axis=0)
    dist, nbr = target_tree.query(q, k=3)
    nearest, second, third = nbr[:, 0], nbr[:, 1], dist[:, 2]
    tie = dist[:, 0] == dist[:, 1]
    if tie.any():
        nearest[tie] = target_tree.query(q[tie])[1]
        third[tie] = 0.0
    lone = second == target_tree.n  # a one-point target has no second neighbour
    second[lone] = nearest[lone]
    idx[stale], j2[stale], d3[stale] = nearest, second, third
    ref[stale] = q
    memo["idx"] = idx
    return idx


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _copy_memo(memo: dict) -> dict:
    """A memo that :func:`associate` can update without touching ``memo``.

    Its keys are ``tree``, ``ref``, ``idx``, ``j2`` and ``d3``; ``idx`` is
    shared, since :func:`associate` replaces it rather than writing to it.
    """
    if not memo:
        return {}
    return {**memo, **{key: memo[key].copy() for key in ("ref", "j2", "d3")}}


def residuals_pt2pt(errors: np.ndarray, cov_scale: float) -> np.ndarray:
    """Unitless residual norms ``sqrt(0.5 * |e|^2 / cov_scale)``.

    ``cov_scale`` is the isotropic scale of the combined correspondence
    covariance (``2 * d_grid^2`` for equally downsampled clouds).
    """
    e0, e1, e2 = errors[..., 0], errors[..., 1], errors[..., 2]
    return np.sqrt(0.5 * ((e0 * e0 + e1 * e1) + e2 * e2) / cov_scale)


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
    s, n = transformed_source, normals
    g0 = np.einsum("ni,ni->n", n, errors)
    jac = np.empty((len(errors), 6))
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):  # s x n in np.cross's order
        np.subtract(s[:, i] * n[:, j], s[:, j] * n[:, i], out=jac[:, k])
    jac[:, 3:] = n
    np.negative(jac, out=jac)  # bit for bit [-np.cross(s, n) | -n]
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

    Expects preprocessed clouds (downsampled, target normals present), and
    checks the target's normals as construction does.
    Terminates when both step norms fall below the configured tolerances.
    The association memo starts as a copy of the one ``target`` kept from
    the last solve's first association, and a copy of this solve's first
    one replaces it.  Association returns the tree's indices from any memo,
    so the result is that of a fresh target.
    """
    if target.normals is None:
        raise ValueError("target cloud must carry normals (run estimate_normals)")
    target._check_normals()
    tree = target.tree
    cov_scale = 2.0 * config.grid**2
    proj_var = cov_scale  # n' (cov_scale * I) n for unit normals
    memo = _copy_memo(target._start_memo)
    kept = False

    def linearize(pose):
        nonlocal kept
        p = pose.apply(source.points)
        idx = associate(p, tree, memo=memo)
        if not kept:
            target._start_memo, kept = _copy_memo(memo), True
        e = np.take(target.points, idx, axis=0) - p

        def update(wf):
            valid = target.normals_valid[idx]
            if not valid.any():
                raise DegenerateGeometryError("no correspondences with valid normals")
            normals = np.take(target.normals, idx, axis=0)  # an invalid one weighs 0
            step = minimize_pt2plane(p, e, normals, wf * valid, proj_var)
            return (exp_map(step) @ pose).orthonormalized(), step

        return residuals_pt2pt(e, cov_scale), update

    return irls(linearize, init, config, n_e=3)
