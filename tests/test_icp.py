import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import robls
from robls import bench
from robls.icp import (
    MEMO_ASSOCIATIONS,
    NORMAL_GAP_TOL,
    NORMAL_RANK_TOL,
    DegenerateGeometryError,
    IcpConfig,
    PointCloud,
    _scatter_eigen,
    associate,
    estimate_normals,
    icp_solve,
    minimize_pt2plane,
    residuals_pt2pt,
    voxel_downsample,
)
from robls.se3 import Pose, exp_map, log_map, pose_error_norms, so3_exp
from robls.weighting import ADAPTIVE_KINDS, RLF_KINDS, RobustLoss

from oracles import PROPERTY, SOLVE_PROPERTY


def corner_cloud(rng, n=1500, noise=0.0):
    """Three mutually orthogonal planes (floor plus two walls)."""
    floor = np.column_stack(
        [rng.uniform(-2, 2, n), rng.uniform(-2, 2, n), np.zeros(n)]
    )
    wall_y = np.column_stack(
        [rng.uniform(-2, 2, n // 2), np.full(n // 2, 2.0), rng.uniform(0, 2, n // 2)]
    )
    wall_x = np.column_stack(
        [np.full(n // 2, 2.0), rng.uniform(-2, 2, n // 2), rng.uniform(0, 2, n // 2)]
    )
    pts = np.vstack([floor, wall_y, wall_x])
    if noise:
        pts = pts + noise * rng.standard_normal(pts.shape)
    return PointCloud(pts)


def rod_and_corner(rng):
    """The corner plus a rod 1 m above the floor, whose middle part has
    collinear neighbourhoods and so zero normals."""
    rod = np.column_stack([np.linspace(-1.5, 1.5, 300), np.zeros(300), np.ones(300)])
    return PointCloud(np.vstack([corner_cloud(rng, noise=0.005).points, rod]))


def minimize_pt2plane_reference(transformed_source, errors, normals, weights, proj_var):
    """The step with the Jacobian built by ``np.cross``; None when degenerate."""
    g0 = np.einsum("ni,ni->n", normals, errors)
    jac = np.empty((len(errors), 6))
    jac[:, :3] = -np.cross(transformed_source, normals)
    jac[:, 3:] = -normals
    wf = weights / proj_var
    a = jac.T @ (jac * wf[:, None])
    b = -jac.T @ (wf * g0)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] <= 0 or sv[-1] / sv[0] < 1e-12:
        return None
    return np.linalg.solve(a, b)


class TestVoxelDownsample:
    def test_same_cell_merges_to_centroid(self):
        cloud = PointCloud([[0.01, 0.01, 0.01], [0.03, 0.05, 0.02]])
        out = voxel_downsample(cloud, 0.1)
        assert len(out) == 1
        assert np.allclose(out.points[0], [0.02, 0.03, 0.015])

    def test_lattice_preserved(self):
        grid = np.stack(np.meshgrid(*[np.arange(5) * 0.2] * 3), axis=-1).reshape(-1, 3)
        out = voxel_downsample(PointCloud(grid + 0.05), 0.1)
        assert len(out) == len(grid)

    def test_occupancy_of_uniform_cube(self, rng):
        pts = rng.uniform(0, 1, (10_000, 3))
        out = voxel_downsample(PointCloud(pts), 0.1)
        # 1000 cells, occupancy 1 - exp(-10) each; Poisson tolerance
        assert 940 <= len(out) <= 1000

    def test_empty_cloud(self):
        assert len(voxel_downsample(PointCloud(np.empty((0, 3))), 0.1)) == 0

    @pytest.mark.parametrize("d_grid", [0.0, -0.1, np.nan, np.inf])
    def test_rejects_a_grid_that_is_not_positive_and_finite(self, d_grid, rng):
        # NaN and inf used to collapse any cloud to one point.
        with pytest.raises(ValueError, match="d_grid must be positive and finite"):
            voxel_downsample(PointCloud(rng.uniform(0, 1, (100, 3))), d_grid)

    def test_deterministic_order(self, rng):
        pts = rng.uniform(-1, 1, (500, 3))
        a = voxel_downsample(PointCloud(pts), 0.25).points
        b = voxel_downsample(PointCloud(pts), 0.25).points
        assert np.array_equal(a, b)

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        offset=st.floats(-1e5, 1e5),
        spread=st.floats(0.01, 10.0),
        d_grid=st.floats(0.01, 1.0),
    )
    def test_equals_unique_and_add_at(self, seed, n, offset, spread, d_grid):
        # Reference: group rows with np.unique(axis=0) and sum with np.add.at,
        # both in input order, so the centroids must agree bit for bit.
        rng = np.random.default_rng(seed)
        pts = offset + spread * rng.standard_normal((n, 3))
        keys = np.floor(pts / d_grid).astype(np.int64)
        _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
        sums = np.zeros((len(counts), 3))
        np.add.at(sums, inverse, pts)
        out = voxel_downsample(PointCloud(pts), d_grid).points
        assert np.array_equal(out, sums / counts[:, None])


class TestEstimateNormals:
    def test_plane_normals(self, rng):
        pts = np.column_stack([rng.uniform(-2, 2, 400), rng.uniform(-2, 2, 400), np.zeros(400)])
        # sensor above the plane so normals must point up
        cloud = PointCloud(pts - np.array([0.0, 0.0, 1.5]))
        out = estimate_normals(cloud, 15)
        assert np.all(np.any(out.normals != 0.0, axis=1))
        assert np.allclose(np.abs(out.normals[:, 2]), 1.0, atol=1e-6)
        assert np.all(out.normals[:, 2] > 0)  # the sensor sits above the plane

    def test_sphere_normals_point_inward(self, rng):
        direction = rng.standard_normal((2000, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        cloud = PointCloud(2.0 * direction)
        out = estimate_normals(cloud, 15)
        dots = np.einsum("ni,ni->n", out.normals, cloud.points)
        assert np.all(dots <= 1e-9)

    def test_collinear_flagged_invalid(self, rng):
        line = np.column_stack([np.linspace(0, 5, 200), np.zeros(200), np.ones(200)])
        out = estimate_normals(PointCloud(line), 15)
        assert np.all(out.normals == 0.0)

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            estimate_normals(PointCloud(np.zeros((5, 3))), 15)

    @pytest.mark.parametrize("k", [0, 1, -3, True, 2.5, np.float64(15.0)])
    def test_rejects_k_that_is_not_an_integer_of_at_least_2(self, k, rng):
        with pytest.raises(ValueError, match="^k must be (an integer|at least 2), got"):
            estimate_normals(PointCloud(rng.uniform(0, 1, (100, 3))), k)

    @pytest.mark.parametrize("k", [2, np.int64(15)])
    def test_accepts_integer_k_from_2(self, k, rng):
        assert len(estimate_normals(PointCloud(rng.uniform(0, 1, (100, 3))), k).normals) == 100

    @pytest.mark.parametrize("shape", ["duplicates", "line", "plane", "sphere"])
    def test_every_normal_is_a_unit_vector(self, shape, rng):
        # Or exactly zero where the scatter is rank deficient: PointCloud
        # requires finite normals, and the duplicates' zero scatter and the
        # line's rank-1 scatter leave the closed-form eigenvector undefined.
        if shape == "duplicates":
            pts = np.repeat(rng.uniform(-1, 1, (10, 3)), 20, axis=0)
        elif shape == "line":
            pts = np.column_stack([np.linspace(0, 5, 200), np.zeros(200), np.ones(200)])
        elif shape == "plane":
            pts = np.column_stack([rng.uniform(-2, 2, 400), rng.uniform(-2, 2, 400), np.full(400, -1.5)])
        else:
            pts = rng.standard_normal((2000, 3))
            pts *= 2.0 / np.linalg.norm(pts, axis=1, keepdims=True)
        out = estimate_normals(PointCloud(pts), 15)
        assert np.all(np.isfinite(out.normals))
        if shape in ("plane", "sphere"):
            assert np.abs(np.linalg.norm(out.normals, axis=1) - 1.0).max() <= 1e-12
        else:
            assert np.all(out.normals == 0.0)


EPS = np.finfo(float).eps
# lam1 / lam2 and lam0 / lam1 of the test spectra: repeated (1), near-repeated,
# rank deficient (0) and both sides of the rank and fallback thresholds.
RATIOS = st.one_of(
    st.sampled_from([0.0, 1e-14, 1e-6, 1.0 - 1e-9, 1.0 - 1e-4, 1.0,
                     NORMAL_RANK_TOL * (1.0 - 1e-6), NORMAL_RANK_TOL * (1.0 + 1e-6),
                     NORMAL_GAP_TOL * (1.0 - 1e-3), NORMAL_GAP_TOL * (1.0 + 1e-3)]),
    st.floats(0.0, 1.0),
)


class TestScatterEigen:
    """The closed-form eigenpairs against LAPACK on matrices ``Q diag(lam) Q'``
    with random orthogonal ``Q``."""

    @PROPERTY
    @example(seed=0, scale=None, r1=0.0, r0=0.0)  # rank 0
    @example(seed=1, scale=0.0, r1=0.0, r0=0.0)  # rank 1: collinear points
    @example(seed=2, scale=-6.0, r1=1.0, r0=0.0)  # a plane with a repeated pair
    @example(seed=3, scale=3.0, r1=1.0, r0=1.0)  # isotropic
    @example(seed=4, scale=1.0, r1=0.3, r0=1e-6)  # well separated
    @given(seed=st.integers(0, 2**32 - 1), scale=st.none() | st.floats(-6.0, 3.0), r1=RATIOS, r0=RATIOS)
    def test_matches_lapack(self, seed, scale, r1, r0):
        lam2 = 0.0 if scale is None else 10.0**scale
        lam = np.array([r0 * r1 * lam2, r1 * lam2, lam2])
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((32, 3, 3)))
        s = np.einsum("nij,j,nkj->nik", q, lam, q)
        moments = [s[:, i, j] for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))]
        xx, yy, zz, xy, xz, yz = moments
        w, v = np.linalg.eigh(np.stack([xx, xy, xz, xy, yy, yz, xz, yz, zz], axis=1).reshape(-1, 3, 3))

        evals, normals, fallback = _scatter_eigen(*moments)
        assert np.abs(np.linalg.norm(normals, axis=1) - 1.0).max() <= 1e-12
        top, gap = w[:, 2], w[:, 1] - w[:, 0]
        closed = np.ones(len(w), dtype=bool)
        closed[fallback] = False
        # LAPACK only where the gap is near or below the threshold
        assert not np.any(~closed & (gap > 1.01 * NORMAL_GAP_TOL * top))
        assert np.array_equal(evals[~closed], w[~closed])
        assert np.array_equal(normals[~closed], v[~closed, :, 0])

        # the documented bounds: about 10 eps * lam2 for an eigenvalue apart from
        # the others, eps * lam2^2 / sep (at most sqrt(eps) * lam2) in a close pair
        w, top, gap = w[closed], top[closed], gap[closed]
        sep = np.column_stack([gap, np.minimum(gap, w[:, 2] - w[:, 1]), w[:, 2] - w[:, 1]])
        with np.errstate(divide="ignore"):
            pair = np.minimum(EPS * top[:, None] ** 2 / sep, np.sqrt(EPS) * top[:, None])
        assert np.all(np.abs(evals[closed] - w) <= 16.0 * EPS * top[:, None] + pair)
        # the normal, up to sign, within eps * (lam2 / gap)^2 plus LAPACK's eps * lam2 / gap
        sin_angle = np.linalg.norm(np.cross(normals[closed], v[closed, :, 0]), axis=1)
        assert np.all(sin_angle <= 4.0 * EPS * ((top / gap) ** 2 + top / gap))
        # validity, outside a band of 16 eps * lam2 around the rank threshold
        def is_valid(e):
            return e[:, 1] > NORMAL_RANK_TOL * np.maximum(e[:, 2], 1e-300)
        clear = np.abs(w[:, 1] - NORMAL_RANK_TOL * top) > 16.0 * EPS * top
        assert np.array_equal(is_valid(evals[closed])[clear], is_valid(w)[clear])


class TestAssociate:
    def test_identity_self_match(self, rng):
        pts = rng.uniform(-1, 1, (300, 3))
        idx = associate(pts, cKDTree(pts))
        assert np.array_equal(idx, np.arange(300))

    def test_matches_brute_force(self, rng):
        source = rng.uniform(-1, 1, (500, 3))
        target = rng.uniform(-1, 1, (400, 3))
        idx = associate(source, cKDTree(target))
        brute = np.argmin(
            np.linalg.norm(source[:, None, :] - target[None, :, :], axis=2), axis=1
        )
        assert np.array_equal(idx, brute)

    def test_single_target(self, rng):
        idx = associate(rng.uniform(-1, 1, (50, 3)), cKDTree(np.zeros((1, 3))))
        assert np.all(idx == 0)

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        offset=st.floats(-1e5, 1e5),
        step_scale=st.floats(1e-9, 0.3),
        n_steps=st.integers(2, 8),
    )
    def test_memo_matches_plain_query_along_rigid_motions(self, seed, offset, step_scale, n_steps):
        rng = np.random.default_rng(seed)
        target = offset + rng.uniform(-1, 1, (300, 3))
        source = target[:200] + 0.05 * rng.standard_normal((200, 3))
        center = target.mean(axis=0)
        tree = cKDTree(target)
        memo: dict = {}
        pose = Pose.identity()
        for _ in range(n_steps):
            p = (source - center) @ pose.rotation.T + pose.translation + center
            assert np.array_equal(associate(p, tree, memo=memo), tree.query(p)[1])
            pose = exp_map(step_scale * rng.standard_normal(6)) @ pose

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        offset=st.floats(-1e5, 1e5),
        spread=st.floats(1e-3, 10.0),
        shift=st.floats(-3.0, 3.0),
    )
    def test_memo_filled_elsewhere_matches_plain_query(self, seed, offset, spread, shift):
        # A memo filled against the same tree at unrelated positions, as a
        # solve from another start leaves it, proves nothing false.
        rng = np.random.default_rng(seed)
        target = offset + rng.uniform(-1, 1, (300, 3))
        tree = cKDTree(target)
        p = target[:200] + 0.05 * rng.standard_normal((200, 3))
        other = offset + shift + spread * rng.standard_normal((200, 3))
        memo: dict = {}
        associate(other, tree, memo=memo)
        assert np.array_equal(associate(p, tree, memo=memo), tree.query(p)[1])

    def test_memo_from_another_tree_certifies_nothing(self):
        rng = np.random.default_rng(0)
        tree_a = cKDTree(rng.uniform(-1, 1, (400, 3)))
        tree_b = cKDTree(rng.uniform(-1, 1, (400, 3)))
        p = tree_a.data[:300] + 0.01 * rng.standard_normal((300, 3))
        memo: dict = {}
        associate(p, tree_a, memo=memo)
        assert np.array_equal(associate(p, tree_b, memo=memo), tree_b.query(p)[1])
        assert memo["tree"] is tree_b and np.array_equal(memo["ref"], p)

    def test_leaves_the_memo_arrays_it_was_given_unchanged(self, rng):
        # Solves on one target share its memos from threads, so a call may
        # only rebind the memo's keys, never write into their arrays.
        target = rng.uniform(-1, 1, (400, 3))
        tree = cKDTree(target)
        memo: dict = {}
        associate(target[:300] + 0.05 * rng.standard_normal((300, 3)), tree, memo=memo)
        given = dict(memo)
        kept = {key: given[key].copy() for key in ("ref", "idx", "j2", "d3")}
        associate(rng.uniform(-1, 1, (300, 3)), tree, memo=memo)
        assert not np.array_equal(memo["ref"], kept["ref"])
        for key, value in kept.items():
            assert np.array_equal(given[key], value), key

    def test_small_motion_skips_the_tree(self, rng):
        target = rng.uniform(-1, 1, (400, 3))
        p = target[:300] + 0.05 * rng.standard_normal((300, 3))
        tree = cKDTree(target)
        memo: dict = {}
        moved = p + 1e-6
        p.flags.writeable = moved.flags.writeable = False  # the memo never writes to them
        associate(p, tree, memo=memo)
        queried_at = memo["ref"]
        assert np.array_equal(associate(moved, tree, memo=memo), tree.query(moved)[1])
        # points still referenced to their old position were certified, not queried
        assert np.mean(np.all(memo["ref"] == queried_at, axis=1)) > 0.9

        # At zero motion on a target with repeated points, exactly the tied
        # points, whose nearest the tree's tie rule decides, are queried again.
        queried = []

        class CountingTree(cKDTree):
            def query(self, x, k=1, **kwargs):
                if k == 3:
                    queried.append(x.copy())
                return super().query(x, k, **kwargs)

        tree = CountingTree(np.vstack([target, target[:40]]))
        d, _ = tree.query(p, k=2)
        ties = np.flatnonzero(d[:, 0] == d[:, 1])
        assert ties.size > 0
        memo = {}
        associate(p, tree, memo=memo)
        assert np.array_equal(associate(p, tree, memo=memo), tree.query(p)[1])
        assert len(queried) == 2 and np.array_equal(queried[1], p[ties])

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        offset=st.floats(-1e4, 1e4),
        half_gap=st.floats(0.01, 0.2),
        turn=st.floats(0.0, 0.05),
        n_steps=st.integers(3, 8),
    )
    def test_switches_inside_a_pair_follow_the_plain_query(self, seed, offset, half_gap, turn,
                                                           n_steps):
        # Each source point sits near the bisector of one pair of targets, a
        # pair per cell of a unit grid.  Every step moves the cloud rigidly
        # to the other side of the bisectors, so every nearest index switches
        # within its pair, while the other targets stay far.
        rng = np.random.default_rng(seed)
        cells = offset + np.stack(np.meshgrid(*[np.arange(5.0)] * 3), axis=-1).reshape(-1, 3)
        axis = rng.standard_normal((len(cells), 3))
        axis *= half_gap / np.linalg.norm(axis, axis=1, keepdims=True)
        target = np.concatenate([cells + axis, cells - axis])
        unit = axis / half_gap
        source = cells + rng.uniform(-0.2, 0.2, (len(cells), 1)) * half_gap * unit
        sides = np.sign(rng.uniform(-1, 1, (len(cells), 1)))
        center = cells.mean(axis=0)
        queried = []

        class CountingTree(cKDTree):
            def query(self, x, k=1, **kwargs):
                queried.append(len(x))
                return super().query(x, k, **kwargs)

        tree, plain = CountingTree(target), cKDTree(target)
        memo: dict = {}
        certified_switches = 0
        prev = None
        for step in range(n_steps):
            rot = so3_exp(turn * half_gap * rng.standard_normal(3))
            shift = (-1) ** step * 0.5 * half_gap * sides * unit
            p = (source - center) @ rot.T + center + shift
            before = len(queried)
            idx = associate(p, tree, memo=memo)
            assert np.array_equal(idx, plain.query(p)[1])
            if prev is not None:  # a switch that no query found was certified by the pair
                certified_switches += max(0, np.count_nonzero(idx != prev) - sum(queried[before:]))
            prev = idx
        assert certified_switches > 0

    def test_exact_tie_inside_a_pair_follows_the_plain_query(self, rng):
        # Points queried on either side of the bisector of two targets move
        # onto it, where both are exactly equally far: the tree's tie rule
        # decides, so the pair certificate must not keep either index.
        tree = cKDTree(np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        yz = rng.uniform(-0.5, 0.5, (40, 2))
        memo: dict = {}
        for x in (np.repeat([-0.5, 0.5], 20), np.zeros(40)):
            p = np.column_stack([x, yz])
            assert np.array_equal(associate(p, tree, memo=memo), tree.query(p)[1])

    @pytest.mark.parametrize("n_targets", [2, 3])
    def test_two_and_three_point_targets_with_memo(self, n_targets, rng):
        target = rng.uniform(-1, 1, (n_targets, 3))
        tree = cKDTree(target)
        memo: dict = {}
        p = rng.uniform(-1.5, 1.5, (60, 3))
        for _ in range(12):
            assert np.array_equal(associate(p, tree, memo=memo), tree.query(p)[1])
            p = p + 0.2 * rng.standard_normal(3)
        assert np.all(memo["j2"] < n_targets)
        assert np.all(np.isinf(memo["d3"])) == (n_targets == 2)

    def test_single_target_with_memo(self, rng):
        tree = cKDTree(np.zeros((1, 3)))
        memo: dict = {}
        for shift in (0.0, 5.0, -300.0):
            p = rng.uniform(-1, 1, (50, 3)) + shift
            idx = associate(p, tree, memo=memo)
            # the pair is the one point twice, so no gap certifies it: every call queries
            assert np.all(idx == 0) and np.array_equal(memo["ref"], p)
        assert np.all(memo["j2"] == 0) and np.all(memo["d3"] == np.inf)

    def test_empty_source_with_memo(self, rng):
        tree = cKDTree(rng.uniform(-1, 1, (20, 3)))
        assert len(associate(np.empty((0, 3)), tree, memo={})) == 0

    def test_duplicate_targets_follow_single_query(self, rng):
        base = rng.uniform(-1, 1, (200, 3))
        tree = cKDTree(np.vstack([base, base, base[:50]]))
        memo: dict = {}
        p = base + 0.02 * rng.standard_normal(base.shape)
        for _ in range(3):
            assert np.array_equal(associate(p, tree, memo=memo), tree.query(p)[1])
            p = p + 1e-4


class TestResiduals:
    def test_perfect_alignment_zero(self):
        e = np.zeros((10, 3))
        assert np.all(residuals_pt2pt(e, 2.0 * 0.1**2) == 0.0)

    def test_hand_computed_value(self):
        d = 0.1
        e = np.array([[2 * d, 0.0, 0.0]])
        eps = residuals_pt2pt(e, 2.0 * d * d)
        assert eps[0] == pytest.approx(1.0)

    def test_rotation_invariance(self, rng):
        e = rng.standard_normal((100, 3))
        rot = so3_exp(rng.standard_normal(3))
        assert np.allclose(
            residuals_pt2pt(e, 0.02), residuals_pt2pt(e @ rot.T, 0.02)
        )

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 300),
        scale=st.sampled_from([1e-200, 1e-8, 1.0, 1e8, 1e160]),
        zero_share=st.floats(0.0, 1.0),
    )
    def test_equals_the_summed_form(self, seed, n, scale, zero_share):
        # (e0^2 + e1^2) + e2^2 is the order in which np.sum adds three
        # components, so the norms agree bit for bit, underflow and overflow too.
        rng = np.random.default_rng(seed)
        e = scale * rng.standard_normal((n, 3))
        e[rng.uniform(size=e.shape) < zero_share] = 0.0
        with np.errstate(over="ignore"):
            expected = np.sqrt(0.5 * np.sum(e * e, axis=-1) / 0.02)
            assert np.array_equal(residuals_pt2pt(e, 0.02), expected)


class TestMinimizePt2Plane:
    def test_recovers_normal_shift(self, rng):
        pts = np.column_stack([rng.uniform(-2, 2, 800), rng.uniform(-2, 2, 800), np.zeros(800)])
        wall_y = np.column_stack(
            [rng.uniform(-2, 2, 400), np.full(400, 2.0), rng.uniform(0, 2, 400)]
        )
        wall_x = np.column_stack(
            [np.full(400, 2.0), rng.uniform(-2, 2, 400), rng.uniform(0, 2, 400)]
        )
        target = np.vstack([pts, wall_y, wall_x])
        normals = np.vstack(
            [
                np.tile([0.0, 0.0, 1.0], (800, 1)),
                np.tile([0.0, 1.0, 0.0], (400, 1)),
                np.tile([1.0, 0.0, 0.0], (400, 1)),
            ]
        )
        shift = np.array([0.01, 0.01, 0.01])
        source = target - shift
        errors = target - source
        step = minimize_pt2plane(
            source, errors, normals, np.ones(len(target)), proj_var=0.02
        )
        moved = exp_map(step).apply(source)
        assert np.abs(moved - target).max() < 1e-6

    def test_rank_deficiency_raises(self, rng):
        pts = np.column_stack([rng.uniform(-2, 2, 50), rng.uniform(-2, 2, 50), np.zeros(50)])
        normals = np.tile([0.0, 0.0, 1.0], (50, 1))
        weights = np.zeros(50)
        weights[:3] = 1.0
        with pytest.raises(DegenerateGeometryError):
            minimize_pt2plane(pts, np.zeros_like(pts), normals, weights, 0.02)

    def test_uniform_weights_cancel(self, rng):
        pts = rng.uniform(-2, 2, (300, 3))
        normals = rng.standard_normal((300, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        errors = 0.05 * rng.standard_normal((300, 3))
        a = minimize_pt2plane(pts, errors, normals, np.ones(300), 0.02)
        b = minimize_pt2plane(pts, errors, normals, np.full(300, 0.37), 0.02)
        assert np.allclose(a, b, atol=1e-12)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 300), axis_share=st.floats(0.0, 1.0))
    def test_equals_the_cross_product_form(self, seed, n, axis_share):
        # Axis-aligned normals and zero coordinates make exact zeros and exact
        # cancellations in s x n; the step stays the np.cross form bit for bit.
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-2, 2, (n, 3))
        pts[rng.uniform(size=pts.shape) < 0.5 * axis_share] = 0.0
        normals = rng.standard_normal((n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        axis = rng.uniform(size=n) < axis_share
        signs = rng.choice([-1.0, 1.0], (axis.sum(), 1))
        normals[axis] = np.eye(3)[rng.integers(0, 3, axis.sum())] * signs
        errors = 0.05 * rng.standard_normal((n, 3))
        weights = rng.uniform(0.0, 1.0, n)
        expected = minimize_pt2plane_reference(pts, errors, normals, weights, 0.02)
        if expected is None:
            with pytest.raises(DegenerateGeometryError):
                minimize_pt2plane(pts, errors, normals, weights, 0.02)
        else:
            assert np.array_equal(minimize_pt2plane(pts, errors, normals, weights, 0.02), expected)


class TestIcpSolve:
    def make_pair(self, rng, outlier_fraction=0.0):
        target = corner_cloud(rng, noise=0.005)
        target = estimate_normals(voxel_downsample(target, 0.1), 15)
        source = corner_cloud(rng, noise=0.005)
        if outlier_fraction:
            n = len(source.points)
            k = int(outlier_fraction * n)
            idx = rng.choice(n, k, replace=False)
            pts = source.points.copy()
            pts[idx] += rng.uniform(0.5, 1.0, (k, 3)) * rng.choice([-1, 1], (k, 3))
            source = PointCloud(pts)
        return voxel_downsample(source, 0.1), target

    def test_identity_on_identical_clouds(self, rng):
        target = corner_cloud(rng)
        target = estimate_normals(voxel_downsample(target, 0.1), 15)
        source = PointCloud(target.points.copy())
        cfg = IcpConfig(rlf=RobustLoss("adaptive_mb"))
        res = icp_solve(source, target, Pose.identity(), cfg)
        assert res.converged and res.iterations == 1
        assert np.allclose(res.pose.matrix(), np.eye(4), atol=1e-12)

    def test_recovers_known_transform(self, rng):
        source, target = self.make_pair(rng)
        true = exp_map(np.array([0.02, -0.03, 0.05, 0.1, -0.08, 0.05]))
        moved = PointCloud(true.inverse().apply(source.points))
        cfg = IcpConfig(rlf=RobustLoss("adaptive_mb"))
        res = icp_solve(moved, target, Pose.identity(), cfg)
        phi, rho = pose_error_norms(true.inverse() @ res.pose)
        assert np.rad2deg(phi) < 0.5 and rho < 0.005

    def test_outliers_handled_where_unweighted_fails(self, rng):
        source, target = self.make_pair(rng, outlier_fraction=0.4)
        true = exp_map(np.array([0.01, 0.02, -0.03, 0.08, 0.05, -0.04]))
        moved = PointCloud(true.inverse().apply(source.points))
        robust = icp_solve(moved, target, Pose.identity(), IcpConfig(rlf=RobustLoss("adaptive_mb")))
        naive = icp_solve(moved, target, Pose.identity(), IcpConfig(rlf=RobustLoss("none")))
        _, rho_robust = pose_error_norms(true.inverse() @ robust.pose)
        _, rho_naive = pose_error_norms(true.inverse() @ naive.pose)
        assert rho_robust < 0.02
        assert rho_naive > rho_robust

    def test_weighted_objective_nonincreasing_over_step(self, rng):
        source, target = self.make_pair(rng)
        init = exp_map(np.array([0.01, 0.0, 0.02, 0.05, 0.02, 0.0]))
        cfg = IcpConfig(rlf=RobustLoss("welsch"), max_iters=1)
        tree = cKDTree(target.points)

        def objective(pose, weights, idx):
            p = pose.apply(source.points)
            g = np.einsum("ni,ni->n", target.normals[idx], target.points[idx] - p)
            return float(np.sum(weights**2 * g * g))

        p0 = init.apply(source.points)
        _, idx = tree.query(p0)
        eps = residuals_pt2pt(target.points[idx] - p0, 2.0 * cfg.grid**2)
        weights = cfg.rlf.weights(eps, n_e=3).weights
        res = icp_solve(source, target, init, cfg)
        assert objective(res.pose, weights, idx) <= objective(init, weights, idx) + 1e-12

    def test_deterministic_trace(self, rng):
        source, target = self.make_pair(rng, outlier_fraction=0.2)
        init = exp_map(np.array([0.02, 0.01, -0.01, 0.06, -0.04, 0.02]))
        cfg = IcpConfig(rlf=RobustLoss("adaptive_mb"))
        a = icp_solve(source, target, init, cfg)
        b = icp_solve(source, target, init, cfg)
        assert a.trace == b.trace
        assert np.array_equal(a.pose.matrix(), b.pose.matrix())

    def test_requires_target_normals(self, rng):
        cloud = corner_cloud(rng)
        with pytest.raises(ValueError):
            icp_solve(cloud, cloud, Pose.identity(), IcpConfig())


class TestFoldedValidity:
    """A correspondence whose target normal is zero (a rank-deficient
    neighbourhood) adds nothing to the step, as a weight of 0 would, instead
    of being masked out."""

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_normals_give_the_zero_weight_step(self, seed):
        rng = np.random.default_rng(seed)
        n = 200
        pts = rng.uniform(-2, 2, (n, 3))
        normals = rng.standard_normal((n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        errors = 0.05 * rng.standard_normal((n, 3))
        weights = rng.uniform(0.0, 1.0, n)
        invalid = rng.uniform(size=n) < 0.3
        zeroed = np.where(invalid[:, None], 0.0, normals)
        step = minimize_pt2plane(pts, errors, zeroed, weights, 0.02)
        assert np.array_equal(step, minimize_pt2plane(pts, errors, normals, weights * ~invalid, 0.02))

    def test_invalid_normals_give_the_masked_step(self, rng):
        target = estimate_normals(voxel_downsample(rod_and_corner(rng), 0.1), 15)
        source = voxel_downsample(rod_and_corner(rng), 0.1)
        init = exp_map(np.array([0.01, -0.02, 0.015, 0.03, -0.02, 0.01]))
        cfg = IcpConfig(rlf=RobustLoss("welsch"), max_iters=1)
        cov_scale = 2.0 * cfg.grid**2
        p = init.apply(source.points)
        _, idx = cKDTree(target.points).query(p)
        usable = np.any(target.normals[idx] != 0.0, axis=1)
        assert np.sum(~usable) >= 10 and np.any(usable)  # the rod's strip is hit
        e = target.points[idx] - p
        wf = cfg.rlf.weights(residuals_pt2pt(e, cov_scale), n_e=3).weights ** cfg.weight_exponent
        masked = minimize_pt2plane(
            p[usable], e[usable], target.normals[idx[usable]], wf[usable], cov_scale
        )
        res = icp_solve(source, target, init, cfg)
        assert np.abs(log_map(res.pose @ init.inverse()) - masked).max() <= 1e-12
        assert res.trace[0]["step_phi"] == pytest.approx(np.linalg.norm(masked[:3]), abs=1e-12)
        assert res.trace[0]["step_rho"] == pytest.approx(np.linalg.norm(masked[3:]), abs=1e-12)

    def test_no_valid_normal_raises(self):
        line = PointCloud(np.column_stack([np.linspace(0, 5, 200), np.zeros(200), np.ones(200)]))
        target = estimate_normals(line, 15)
        assert np.all(target.normals == 0.0)
        with pytest.raises(DegenerateGeometryError, match="singular"):
            icp_solve(PointCloud(line.points + 0.01), target, Pose.identity(), IcpConfig())

    @pytest.mark.parametrize(
        "normals",
        [
            np.array([[0.0, 0.0, 1.0]] * 4 + [[np.nan, 0.0, 1.0]]),
            np.tile([0.0, 0.0, 1.0], (4, 1)),
        ],
        ids=["nan-normal", "normals-of-wrong-length"],
    )
    def test_rejects_bad_normals_where_they_enter(self, normals):
        with pytest.raises(ValueError, match="normals"):
            PointCloud(np.zeros((5, 3)), normals)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda t: t.normals[:10],
            lambda t: np.where(np.arange(len(t))[:, None] == 0, np.nan, t.normals),
        ],
        ids=["normals-of-10", "nan-normal"],
    )
    def test_rejects_bad_normals_assigned_after_construction(self, bad, rng):
        target = estimate_normals(voxel_downsample(corner_cloud(rng), 0.1), 15)
        target.normals = bad(target)
        with pytest.raises(ValueError, match="normals"):
            icp_solve(PointCloud(target.points + 0.01), target, Pose.identity(), IcpConfig())


class TestSharedTree:
    @staticmethod
    def fresh(target):
        """A copy of ``target`` with no tree and no memos."""
        return PointCloud(target.points.copy(), target.normals.copy())

    def test_one_build_serves_normals_and_every_solve(self, rng, monkeypatch):
        builds = []

        class CountingTree(cKDTree):
            def __init__(self, *args, **kwargs):
                builds.append(len(args[0]))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
        target = estimate_normals(voxel_downsample(corner_cloud(rng, noise=0.005), 0.1), 15)
        source = voxel_downsample(corner_cloud(rng, noise=0.005), 0.1)
        init = exp_map(np.array([0.02, 0.01, -0.01, 0.06, -0.04, 0.02]))
        cfg = IcpConfig(rlf=RobustLoss("adaptive_mb"))
        first = icp_solve(source, target, init, cfg)
        second = icp_solve(source, target, init, cfg)
        assert builds == [len(target)]
        third = icp_solve(source, self.fresh(target), init, cfg)
        assert len(builds) == 2
        for res in (second, third):
            assert res.trace == first.trace
            assert np.array_equal(res.pose.matrix(), first.pose.matrix())

    @staticmethod
    def counting_queries(monkeypatch):
        """Patch the KD-tree class; returns the list of points per k=3 query,
        the neighbour query of :func:`associate`."""
        sizes = []

        class CountingTree(cKDTree):
            def query(self, x, k=1, **kwargs):
                if k == 3:
                    sizes.append(len(x))
                return super().query(x, k, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
        return sizes

    def test_a_second_solve_from_the_same_start_queries_only_ties(self, rng, monkeypatch):
        sizes = self.counting_queries(monkeypatch)
        # repeated points give the start association ties, which stay uncertified
        cloud = estimate_normals(voxel_downsample(corner_cloud(rng, noise=0.005), 0.1), 15)
        target = PointCloud(*(np.concatenate([a, a[:40]]) for a in (cloud.points, cloud.normals)))
        source = voxel_downsample(corner_cloud(rng, noise=0.005), 0.1)
        init = exp_map(np.array([0.02, 0.01, -0.01, 0.06, -0.04, 0.02]))
        cfg = IcpConfig(rlf=RobustLoss("cauchy"), max_iters=3)
        d, _ = cKDTree(target.points).query(init.apply(source.points), k=2)
        ties = int(np.sum(d[:, 0] == d[:, 1]))
        assert ties > 0
        first = icp_solve(source, target, init, cfg)
        solo = len(sizes)
        second = icp_solve(source, target, init, cfg)
        assert sizes[0] == len(source) and sizes[solo] == ties
        assert second.trace == first.trace
        assert np.array_equal(second.pose.matrix(), first.pose.matrix())

    def test_new_points_drop_the_kept_memo(self, rng, monkeypatch):
        sizes = self.counting_queries(monkeypatch)
        target = estimate_normals(voxel_downsample(corner_cloud(rng, noise=0.005), 0.1), 15)
        source = voxel_downsample(corner_cloud(rng, noise=0.005), 0.1)
        cfg = IcpConfig(rlf=RobustLoss("welsch"), max_iters=2)
        first = icp_solve(source, target, Pose.identity(), cfg)
        old_tree = target.tree
        assert target._memos[0]["tree"] is old_tree
        target.points = target.points.copy()
        assert target.tree is not old_tree and target._memos == {}
        solo = len(sizes)
        again = icp_solve(source, target, Pose.identity(), cfg)
        assert sizes[solo] == len(source)
        assert again.trace == first.trace

    def test_seven_solves_match_fresh_targets_and_later_ones_query_less(self, rng, monkeypatch):
        sizes = self.counting_queries(monkeypatch)
        target = estimate_normals(voxel_downsample(corner_cloud(rng, noise=0.005), 0.1), 15)
        source = voxel_downsample(corner_cloud(rng, noise=0.005), 0.1)
        init = exp_map(np.array([0.05, -0.03, 0.04, 0.15, -0.1, 0.08]))
        shared, early = [], []
        for kind in bench.DEFAULT_RLFS:
            start = len(sizes)
            shared.append(icp_solve(source, target, init, IcpConfig(rlf=RobustLoss(kind))))
            early.append(sum(sizes[start + 1:start + 1 + MEMO_ASSOCIATIONS]))
        assert all(later < early[0] for later in early[1:]), early
        for kind, res in zip(bench.DEFAULT_RLFS, shared):
            fresh = icp_solve(source, self.fresh(target), init, IcpConfig(rlf=RobustLoss(kind)))
            assert res.trace == fresh.trace
            assert np.array_equal(res.pose.matrix(), fresh.pose.matrix())

    def test_a_long_solve_keeps_one_memo_per_early_association_and_one_more(self, rng):
        target = estimate_normals(voxel_downsample(corner_cloud(rng, noise=0.005), 0.1), 15)
        source = voxel_downsample(corner_cloud(rng, noise=0.005), 0.1)
        cfg = IcpConfig(rlf=RobustLoss("cauchy"), max_iters=50, tol_phi=1e-300, tol_rho=1e-300)
        assert icp_solve(source, target, Pose.identity(), cfg).iterations == 50
        assert sorted(target._memos) == list(range(MEMO_ASSOCIATIONS + 1))

    def test_threads_solving_on_one_target_match_serial_fresh_targets(self, rng):
        target = estimate_normals(voxel_downsample(corner_cloud(rng, noise=0.005), 0.1), 15)
        source = voxel_downsample(corner_cloud(rng, noise=0.005), 0.1)
        init = exp_map(np.array([0.05, -0.03, 0.04, 0.15, -0.1, 0.08]))
        kinds = bench.DEFAULT_RLFS * 3

        def solve(kind, on):
            return icp_solve(source, on, init, IcpConfig(rlf=RobustLoss(kind)))

        serial = [solve(kind, self.fresh(target)) for kind in kinds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so the solves interleave
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(solve, kind, target) for kind in kinds]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(threaded, serial):
            assert a.trace == b.trace
            assert np.array_equal(a.pose.matrix(), b.pose.matrix())

    def test_solves_from_two_starts_match_fresh_targets(self, rng):
        target = estimate_normals(voxel_downsample(corner_cloud(rng, noise=0.005), 0.1), 15)
        source = voxel_downsample(corner_cloud(rng, noise=0.005), 0.1)
        starts = [exp_map(np.array([0.02, 0.01, -0.01, 0.06, -0.04, 0.02])),
                  exp_map(np.array([-0.03, 0.02, 0.04, -0.1, 0.08, 0.05]))]
        for kind in ("tukey", "adaptive_mb"):
            cfg = IcpConfig(rlf=RobustLoss(kind))
            for init in starts + starts[::-1]:
                shared = icp_solve(source, target, init, cfg)
                fresh = icp_solve(source, self.fresh(target), init, cfg)
                assert shared.trace == fresh.trace
                assert np.array_equal(shared.pose.matrix(), fresh.pose.matrix())

    def test_points_freeze_when_the_tree_is_built(self, rng):
        raw = rng.uniform(-1, 1, (50, 3))
        cloud = PointCloud(raw)
        tree = cloud.tree
        assert cloud.tree is tree and tree.data is cloud.points
        with pytest.raises(ValueError, match="read-only"):
            cloud.points[0, 0] = 5.0
        raw[0] = 5.0  # the array the cloud was made from no longer reaches it
        assert np.all(cloud.points[0] < 1.0)
        assert np.array_equal(associate(raw[1:], cloud.tree), np.arange(1, 50))

    def test_new_points_get_a_new_tree(self, rng):
        cloud = PointCloud(rng.uniform(-1, 1, (50, 3)))
        old = cloud.tree
        cloud.points = cloud.points[::-1]
        assert cloud.tree is not old and cloud.tree.data is cloud.points
        assert np.array_equal(associate(cloud.points, cloud.tree), np.arange(50))


# (scene kind, loss kind, iterations, converged, phi error [deg], rho error [mm])
# of the first trial of each scene kind, icp-bench master seed 3.
GOLDEN_OUTCOMES = [
    ("structured", "tukey", 12, True, 0.4083398772969663, 8.261856662608325),
    ("structured", "chebrolu", 12, True, 0.37877235838661955, 16.464523826811618),
    ("structured", "adaptive_mb", 10, True, 0.40714924723792445, 20.309400726505878),
    ("semi", "tukey", 29, True, 0.43217180109122927, 26.976428803628995),
    ("semi", "chebrolu", 25, True, 1.524905072070017, 66.7602725680857),
    ("semi", "adaptive_mb", 22, True, 1.5515074957974895, 71.21893379521968),
    ("unstructured", "tukey", 20, True, 2.100870655279287, 288.2299336679558),
    ("unstructured", "chebrolu", 13, True, 1.3733185799984158, 136.87325329489684),
    ("unstructured", "adaptive_mb", 12, True, 1.6315555090695277, 154.5069263949871),
]


class TestGoldenOutcomes:
    @pytest.mark.parametrize("kind_idx", range(3))
    def test_first_trial_outcomes_kept(self, kind_idx):
        cfg = bench.IcpBenchConfig(master_seed=3, trials_per_kind=1,
                                   rlfs=("tukey", "chebrolu", "adaptive_mb"))
        records = bench._trial((bench._icp_problem, cfg, kind_idx, 0))
        expected = [g for g in GOLDEN_OUTCOMES if g[0] == records[0].group]
        assert [(r.group, r.rlf) for r in records] == [g[:2] for g in expected]
        for r, (_, _, iterations, converged, phi, rho) in zip(records, expected):
            assert (r.iterations, r.converged) == (iterations, converged), r.rlf
            assert r.phi_err_deg == pytest.approx(phi, rel=1e-6), r.rlf
            assert r.rho_err_mm == pytest.approx(rho, rel=1e-6), r.rlf


@lru_cache(maxsize=1)
def invariance_clouds():
    rng = np.random.default_rng(11)
    target = estimate_normals(voxel_downsample(corner_cloud(rng, n=600, noise=0.005), 0.2), 15)
    return voxel_downsample(corner_cloud(rng, n=600, noise=0.005), 0.2), target


class TestSolverInvariance:
    """The errors see the source only through the pose applied to it, and the
    step perturbs the pose on the left, so moving the source by G and the
    start by T0 G^-1 moves the solution by G^-1."""

    # Skips shrinking (see oracles) under the decorator's own name, since
    # hypothesis derives the derandomized examples from the test's source.
    # The explicit examples run whatever that source is; a step multiplied on
    # the right fails each of them.
    PROPERTY = SOLVE_PROPERTY

    @staticmethod
    def _solve(source, target, init, config):
        try:
            return icp_solve(source, target, init, config)
        except DegenerateGeometryError as exc:
            return exc

    @PROPERTY
    @example(kind="tukey", g=(0.5, -0.3, 0.8, 2.0, -1.0, 3.0), start=(0.02, -0.01, 0.03, 0.05, -0.1, 0.08))
    @example(kind="adaptive_mb", g=(-1.2, 0.4, 0.1, -4.0, 2.5, 0.5), start=(-0.03, 0.04, 0.0, 0.1, 0.05, -0.12))
    @given(
        kind=st.sampled_from(RLF_KINDS),
        g=st.tuples(*[st.floats(-1.5, 1.5)] * 3, *[st.floats(-5.0, 5.0)] * 3),
        start=st.tuples(*[st.floats(-0.05, 0.05)] * 3, *[st.floats(-0.15, 0.15)] * 3),
    )
    def test_moving_the_source_moves_the_solution(self, kind, g, start):
        source, target = invariance_clouds()
        big_g, init = exp_map(np.array(g)), exp_map(np.array(start))
        config = IcpConfig(grid=0.2, max_iters=15, rlf=RobustLoss(kind))
        base = self._solve(source, target, init, config)
        moved = self._solve(
            PointCloud(big_g.apply(source.points)), target, init @ big_g.inverse(), config
        )
        if isinstance(base, Exception) or isinstance(moved, Exception):
            assert type(base) is type(moved)
            return
        if base.iterations != moved.iterations:
            # a stop-test tie: one run's last step sits on a tolerance
            k = min(base.iterations, moved.iterations) - 1
            tols = (("phi", config.tol_phi), ("rho", config.tol_rho))
            gaps = [abs(run.trace[k][f"step_{b}"] / tol - 1.0)
                    for run in (base, moved) for b, tol in tols]
            assert min(gaps) <= 1e-6
            return
        assert base.converged == moved.converged
        # The alpha and Chi-shape searches stop within their step tolerances,
        # which rounding can move; the other kinds agree to rounding.
        tol = 1e-8 if kind in ADAPTIVE_KINDS else 1e-12
        assert np.abs(log_map((base.pose @ big_g.inverse()).inverse() @ moved.pose)).max() <= tol


def _run_fresh(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter on this ``robls``."""
    src = str(Path(robls.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    return out.stdout.strip()


class TestImports:
    def test_kd_tree_loaded_only_when_used(self):
        # scipy.spatial costs memory in every process that imports robls; only
        # the functions that build a KD-tree (the ICP commands) import it, and
        # they are the only importers of scipy at all (the next test).
        code = (
            "import importlib, pkgutil, sys, robls\n"
            "for m in pkgutil.iter_modules(robls.__path__):\n"
            "    importlib.import_module('robls.' + m.name)\n"
            "print('scipy.spatial' in sys.modules)\n"
        )
        assert _run_fresh(code) == "False"

    def test_robls_and_its_cli_load_no_scipy(self):
        # scipy.special alone costs about 200 ms of import time in every robls
        # process, so the Chi normalizer and CDF of robls.mbfit are closed forms.
        code = (
            "import importlib, pkgutil, sys, robls, robls.cli\n"
            "for m in pkgutil.iter_modules(robls.__path__):\n"
            "    importlib.import_module('robls.' + m.name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert _run_fresh(code) == "[]"
