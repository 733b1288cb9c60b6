"""Contract of the shared IRLS loop, checked through both applications."""

import numpy as np
import pytest

from robls.icp import (
    DegenerateGeometryError,
    IcpConfig,
    PointCloud,
    estimate_normals,
    icp_solve,
    voxel_downsample,
)
from robls.irls import solve_normal_equations
from robls.pose_avg import (
    PoseAvgConfig,
    SingularSystemError,
    TrialSpec,
    generate_trial,
    solve_pose_average,
)
from robls.se3 import exp_map
from robls.weighting import RobustLoss, WeightResult


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


def svd_rule_accepts(a, min_ratio):
    """The conditioning rule as the solvers first wrote it, on singular values."""
    sv = np.linalg.svd(a, compute_uv=False)
    return not (sv[0] <= 0 or sv[-1] / sv[0] < min_ratio), sv[-1] / sv[0]


# Both rules find the smallest eigenvalue to a few ulps of the largest, so
# their ratios may differ by about that much (4e-16 at worst over 20,000
# draws of the matrices below); closer than this to a threshold they may
# decide differently.
RATIO_BAND = 2e-15


@pytest.mark.parametrize("min_ratio, error", [(1e-14, SingularSystemError), (1e-12, DegenerateGeometryError)],
                         ids=["pose_avg", "icp"])
def test_conditioning_rule_decides_like_the_svd_rule(min_ratio, error):
    rng = np.random.default_rng(29)
    decided = []
    for _ in range(200):
        log_cond = rng.uniform(10.0, 16.0)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        lam = 10.0 ** np.concatenate([[0.0, -log_cond], rng.uniform(-log_cond, 0.0, 4)])
        a = (q * (lam * 10.0 ** rng.uniform(-3.0, 3.0))) @ q.T
        a = 0.5 * (a + a.T)
        b = rng.standard_normal(6)
        accepts, ratio = svd_rule_accepts(a, min_ratio)
        if abs(ratio - min_ratio) <= RATIO_BAND:
            continue
        decided.append(accepts)
        if accepts:
            assert np.array_equal(solve_normal_equations(a, b, min_ratio, error, "test"), np.linalg.solve(a, b))
        else:
            with pytest.raises(error, match="test normal equations are singular"):
                solve_normal_equations(a, b, min_ratio, error, "test")
    assert len(decided) >= 180 and 20 <= sum(decided) <= len(decided) - 20


@pytest.mark.parametrize("make_solver, error", [(_icp, DegenerateGeometryError), (_pose_avg, SingularSystemError)],
                         ids=["icp", "pose_avg"])
def test_all_zero_weights_raise(make_solver, error, rng, monkeypatch):
    def zero_weights(self, eps, n_e, warm_start=None):
        return WeightResult(np.zeros(len(eps)), {})

    monkeypatch.setattr(RobustLoss, "weights", zero_weights)
    with pytest.raises(error, match=r"normal equations are singular \(eigenvalue ratio 0.00e\+00\)"):
        make_solver(rng)("welsch")
