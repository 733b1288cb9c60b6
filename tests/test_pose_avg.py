import numpy as np
import pytest
from scipy.special import gamma

from robls import bench
from robls.mbfit import chi_quantile
from robls.pose_avg import (
    PoseAvgConfig,
    PoseMeasurement,
    TrialSpec,
    default_measurement_cov,
    generate_trial,
    linearize_errors,
    n_outliers,
    solve_pose_average,
)
from robls.se3 import Pose, exp_map, left_jacobian, log_map, pose_error_norms
from robls.weighting import RobustLoss


def cfg(kind="none", **kw):
    return PoseAvgConfig(rlf=RobustLoss(kind, tau=20.0), **kw)


def linearize_one(estimate, measurement, cov=None):
    """``linearize_errors`` for a single in-branch measurement: (e, H, Sigma)."""
    cov = np.eye(6) if cov is None else cov
    ok, e, h, sigma = linearize_errors(estimate, measurement.matrix()[None], cov[None])
    assert ok.tolist() == [True]
    return e[0], h[0], sigma[0]


def left_invariant_error(estimate, measurement):
    return linearize_one(estimate, measurement)[0]


class TestLeftInvariantError:
    def test_zero_for_equal_poses(self, rng):
        pose = exp_map(rng.uniform(-0.5, 0.5, 6))
        assert np.abs(left_invariant_error(pose, pose)).max() < 1e-12

    def test_definitional(self, rng):
        xi = rng.uniform(-0.5, 0.5, 6)
        assert np.allclose(left_invariant_error(Pose.identity(), exp_map(xi)), xi)

    def test_invariance_under_left_multiplication(self, rng):
        t = exp_map(rng.uniform(-0.5, 0.5, 6))
        m = exp_map(rng.uniform(-0.5, 0.5, 6))
        g = exp_map(rng.uniform(-0.5, 0.5, 6))
        base = left_invariant_error(t, m)
        moved = left_invariant_error(g @ t, g @ m)
        assert np.allclose(base, moved, atol=1e-12)


class TestErrorJacobians:
    def test_identity_at_zero(self):
        _, h, sigma = linearize_one(Pose.identity(), Pose.identity())
        assert np.allclose(h, np.eye(6))
        assert np.allclose(sigma, np.eye(6))

    def test_estimate_side_first_order(self, rng):
        t = exp_map(rng.uniform(-0.4, 0.4, 6))
        meas = exp_map(rng.uniform(-0.4, 0.4, 6))
        e_bar, h, _ = linearize_one(t, meas)
        direction = rng.standard_normal(6)
        direction /= np.linalg.norm(direction)
        defects = []
        for step in (1e-3, 5e-4):
            d = step * direction
            e_new = left_invariant_error(t @ exp_map(-d), meas)
            defects.append(np.linalg.norm(e_new - e_bar - h @ d))
        assert defects[1] <= defects[0] / 3.0

    def test_measurement_side_first_order(self, rng):
        # Sigma = M R M' with M the derivative of the error in a measurement
        # perturbation meas <- meas exp(-d), taken here by central differences
        t = exp_map(rng.uniform(-0.4, 0.4, 6))
        meas = exp_map(rng.uniform(-0.4, 0.4, 6))
        r = default_measurement_cov()
        _, _, sigma = linearize_one(t, meas, r)
        step = 1e-6
        m_fd = np.column_stack(
            [
                (left_invariant_error(t, meas @ exp_map(-step * d))
                 - left_invariant_error(t, meas @ exp_map(step * d))) / (2.0 * step)
                for d in np.eye(6)
            ]
        )
        assert np.allclose(sigma, m_fd @ r @ m_fd.T, rtol=1e-6, atol=1e-9)


class TestPropagateCov:
    def test_negated_identity_returns_cov(self):
        # at zero error M = -I, so the error covariance is the measurement's
        r = default_measurement_cov()
        pose = exp_map(np.array([0.1, -0.2, 0.3, 0.5, -0.1, 0.2]))
        _, _, sigma = linearize_one(pose, pose, r)
        assert np.allclose(sigma, r)

    def test_identity_cov(self, rng):
        # M = -J_right(e)^-1 = -J_left(-e)^-1, inverted numerically here
        xi = rng.uniform(-0.5, 0.5, 6)
        _, _, sigma = linearize_one(Pose.identity(), exp_map(xi))
        m = -np.linalg.inv(left_jacobian(-xi))
        assert np.allclose(sigma, m @ m.T, atol=1e-12)

    def test_positive_definite_output(self, rng):
        for _ in range(10):
            xi = rng.uniform(-0.5, 0.5, 6)
            _, _, sigma = linearize_one(Pose.identity(), exp_map(xi), default_measurement_cov())
            assert np.all(np.linalg.eigvalsh(sigma) > 0)
            assert np.abs(sigma - sigma.T).max() == 0.0


class TestSolver:
    def test_single_measurement_recovered(self):
        meas = [PoseMeasurement(exp_map(np.array([0.1, -0.2, 0.3, 0.5, -0.1, 0.2])), np.eye(6))]
        res = solve_pose_average(meas, Pose.identity(), cfg())
        assert res.converged and res.iterations <= 2
        assert np.abs(log_map(meas[0].pose.inverse() @ res.pose)).max() < 1e-9

    def test_identical_measurements_fixed_point(self):
        pose = exp_map(np.array([0.2, 0.1, -0.1, 0.3, 0.2, -0.5]))
        meas = [PoseMeasurement(pose, 0.01 * np.eye(6)) for _ in range(9)]
        res = solve_pose_average(meas, Pose.identity(), cfg())
        assert np.abs(log_map(pose.inverse() @ res.pose)).max() < 1e-9

    def test_gradient_vanishes_at_unweighted_optimum(self, rng):
        spec = TrialSpec(seed=5, n_inliers=20, outlier_fraction=0.0)
        meas, init, _ = generate_trial(spec)
        res = solve_pose_average(meas, init, cfg("none", tol_phi=1e-10, tol_rho=1e-10, max_iters=200))
        # gradient of the unweighted objective via the same linearization
        tm = np.stack([m.pose.matrix() for m in meas])
        covs = np.stack([m.cov for m in meas])
        ok, e, h, sigma = linearize_errors(res.pose, tm, covs)
        assert np.all(ok)
        grad = np.einsum("nji,nj->i", h, np.linalg.solve(sigma, e[..., None])[..., 0])
        assert np.linalg.norm(grad) < 1e-6

    def test_error_shrinks_with_averaging(self):
        # posterior error of a 20-inlier average shrinks like 1/sqrt(20)
        singles, averages = [], []
        for seed in range(100):
            spec = TrialSpec(seed=seed, n_inliers=20, outlier_fraction=0.0)
            meas, init, truth = generate_trial(spec)
            res = solve_pose_average(meas, init, cfg())
            phi, _ = pose_error_norms(truth.inverse() @ res.pose)
            averages.append(phi)
            phi1, _ = pose_error_norms(truth.inverse() @ meas[0].pose)
            singles.append(phi1)
        ratio = np.median(averages) / np.median(singles)
        assert ratio == pytest.approx(1.0 / np.sqrt(20.0), rel=0.35)

    def test_below_mode_weight_rule_holds_every_iteration(self):
        spec = TrialSpec(seed=11, outlier_fraction=0.6)
        meas, init, _ = generate_trial(spec)
        res = solve_pose_average(meas, init, cfg("adaptive_mb"))
        assert res.diagnostics["mb_invocations"] == res.iterations
        assert res.diagnostics["mb_below_mode"] > 0
        assert res.diagnostics["mb_below_mode_violations"] == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            solve_pose_average([], Pose.identity(), cfg())


class TestFixedKernelScaleRegression:
    # Trials of the default pose-avg-bench corpus (master seed 20220516)
    # whose clean Chi(6) norms all fell beyond Tukey's support when the
    # fixed kernels were scaled by the MAD of the norms: every weight was 0
    # and the normal system was singular.
    @pytest.mark.parametrize(
        "level_idx, level, trial",
        [(0, 0.0, 5), (0, 0.0, 6), (0, 0.0, 49), (0, 0.0, 55), (0, 0.0, 73),
         (0, 0.0, 79), (1, 0.2, 7)],
    )
    def test_tukey_solves(self, level_idx, level, trial):
        seed = bench._trial_seed(20220516, level_idx, trial)
        meas, init, _ = generate_trial(TrialSpec(seed=seed, outlier_fraction=level))
        res = solve_pose_average(meas, init, cfg("tukey"))
        assert np.all(np.isfinite(res.pose.matrix()))


class TestGenerateTrial:
    def test_outlier_counts(self):
        for frac, expected in [(0.2, 5), (0.4, 13), (0.6, 30), (0.8, 80)]:
            assert n_outliers(TrialSpec(seed=0, outlier_fraction=frac)) == expected

    def test_inlier_mahalanobis_envelope(self):
        # all inlier norms within the Chi(6) 99.9% envelope, checked in bulk
        r = default_measurement_cov()
        r_inv = np.linalg.inv(r)
        norms = []
        for seed in range(50):
            meas, _, _ = generate_trial(TrialSpec(seed=seed, outlier_fraction=0.0))
            for m in meas:
                xi = log_map(m.pose)
                norms.append(np.sqrt(xi @ r_inv @ xi))
        bound = chi_quantile(6, 0.999)
        assert np.mean(np.asarray(norms) < bound) >= 0.995

    def test_inlier_residual_chi6_mean(self):
        # empirical mean of the normalized norms matches the Chi(6) mean
        r = default_measurement_cov()
        r_inv = np.linalg.inv(r)
        norms = []
        seed = 0
        while len(norms) < 10_000:
            meas, _, _ = generate_trial(TrialSpec(seed=seed, outlier_fraction=0.0))
            norms.extend(np.sqrt(log_map(m.pose) @ r_inv @ log_map(m.pose)) for m in meas)
            seed += 1
        chi6_mean = np.sqrt(2.0) * gamma(3.5) / gamma(3.0)
        assert np.mean(norms) == pytest.approx(chi6_mean, rel=0.02)

    def test_deterministic(self):
        a, init_a, _ = generate_trial(TrialSpec(seed=42, outlier_fraction=0.4))
        b, init_b, _ = generate_trial(TrialSpec(seed=42, outlier_fraction=0.4))
        assert np.array_equal(init_a.matrix(), init_b.matrix())
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.pose.matrix(), mb.pose.matrix())

    def test_outlier_translation_bounds(self):
        spec = TrialSpec(seed=3, outlier_fraction=0.8)
        meas, _, _ = generate_trial(spec)
        for m in meas[spec.n_inliers:]:
            assert np.all(np.abs(m.pose.translation) <= 1.0)

    def test_monotone_robustness_trend(self):
        # median error of the norm-aware loss stays near-flat in the outlier rate
        def med_err(frac):
            errs = []
            for seed in range(30):
                meas, init, truth = generate_trial(TrialSpec(seed=seed, outlier_fraction=frac))
                res = solve_pose_average(meas, init, cfg("adaptive_mb"))
                phi, _ = pose_error_norms(truth.inverse() @ res.pose)
                errs.append(phi)
            return np.median(errs)

        assert med_err(0.8) <= 2.0 * med_err(0.2)
