"""Contract of the shared IRLS loop, checked through both applications."""

import numpy as np
import pytest

from robls.icp import IcpConfig, PointCloud, estimate_normals, icp_solve, voxel_downsample
from robls.pose_avg import PoseAvgConfig, TrialSpec, generate_trial, solve_pose_average
from robls.se3 import exp_map
from robls.weighting import RobustLoss


def _icp(rng):
    n = 1500
    floor = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(-2, 2, n), np.zeros(n)])
    wall_y = np.column_stack([rng.uniform(-2, 2, n), np.full(n, 2.0), rng.uniform(0, 2, n)])
    wall_x = np.column_stack([np.full(n, 2.0), rng.uniform(-2, 2, n), rng.uniform(0, 2, n)])
    pts = np.vstack([floor, wall_y, wall_x]) + 0.005 * rng.standard_normal((3 * n, 3))
    target = estimate_normals(voxel_downsample(PointCloud(pts), 0.1), 15)
    source = voxel_downsample(PointCloud(pts + 0.005 * rng.standard_normal(pts.shape)), 0.1)
    init = exp_map(np.array([0.02, -0.01, 0.03, 0.08, -0.05, 0.04]))

    def solve(kind, **kw):
        return icp_solve(source, target, init, IcpConfig(rlf=RobustLoss(kind), **kw))

    return solve


def _pose_avg(_rng):
    meas, init, _ = generate_trial(TrialSpec(seed=11, outlier_fraction=0.4))

    def solve(kind, **kw):
        return solve_pose_average(meas, init, PoseAvgConfig(rlf=RobustLoss(kind, tau=20.0), **kw))

    return solve


ENTRY_POINTS = pytest.mark.parametrize("make_solver", [_icp, _pose_avg], ids=["icp", "pose_avg"])


@ENTRY_POINTS
@pytest.mark.parametrize("kind", ["welsch", "adaptive_mb"])
def test_trace_matches_iterations(make_solver, kind, rng):
    res = make_solver(rng)(kind)
    assert res.converged
    assert len(res.trace) == res.iterations
    assert [row["iter"] for row in res.trace] == list(range(1, res.iterations + 1))


@ENTRY_POINTS
def test_single_step_budget_not_converged(make_solver, rng):
    res = make_solver(rng)("adaptive_mb", max_iters=1, tol_phi=1e-12, tol_rho=1e-12)
    assert res.iterations == 1 and len(res.trace) == 1
    assert not res.converged


@pytest.mark.parametrize("config_cls", [IcpConfig, PoseAvgConfig])
@pytest.mark.parametrize(
    "bad",
    [
        {"max_iters": 0}, {"tol_phi": 0.0}, {"tol_rho": -1.0},
        {"tol_phi": np.nan}, {"tol_rho": np.nan}, {"tol_phi": np.inf},
        {"max_iters": True}, {"max_iters": 2.0},
        {"weight_exponent": 0}, {"weight_exponent": True}, {"weight_exponent": 1.5},
    ],
    ids=[
        "max_iters=0", "tol_phi=0", "tol_rho=-1",
        "tol_phi=nan", "tol_rho=nan", "tol_phi=inf",
        "max_iters=True", "max_iters=2.0",
        "weight_exponent=0", "weight_exponent=True", "weight_exponent=1.5",
    ],
)
def test_config_rejects_nonpositive(config_cls, bad):
    with pytest.raises(ValueError):
        config_cls(**bad)


@pytest.mark.parametrize("grid", [0.0, -0.1, np.nan, np.inf])
def test_icp_config_rejects_a_grid_that_is_not_positive_and_finite(grid):
    with pytest.raises(ValueError, match="grid must be positive and finite"):
        IcpConfig(grid=grid)
