import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.special import gamma

from robls import bench
from robls.mbfit import chi_quantile
from robls.pose_avg import (
    MeasurementSet,
    PoseAvgConfig,
    SingularSystemError,
    TrialSpec,
    default_measurement_cov,
    generate_trial,
    linearize_errors,
    n_outliers,
    normal_equations,
    solve_pose_average,
)
from robls.se3 import Pose, exp_map, log_map, pose_error_norms
from robls.weighting import ADAPTIVE_KINDS, RLF_KINDS, RobustLoss

from oracles import PROPERTY, SOLVE_PROPERTY, left_jacobian, linearize_errors_reference


def cfg(kind="none", **kw):
    return PoseAvgConfig(rlf=RobustLoss(kind, tau=20.0), **kw)


def linearize_one(estimate, measurement, cov=None):
    """``linearize_errors`` for a single in-branch measurement at weight 1:
    ``(r, j'j, j'r)``."""
    cov = np.eye(6) if cov is None else cov
    meas = MeasurementSet([measurement], cov)
    ok, r, g = linearize_errors(estimate, meas)
    assert ok.tolist() == [True]
    a, b = normal_equations(estimate, meas, ok, g, np.ones(1))
    return r[0], a, -b


def left_invariant_error(estimate, measurement):
    # with R = I the whitening is the identity and r = e
    return linearize_one(estimate, measurement)[0]


def reference_system(e, cov):
    """Unwhitened linearization from the public Jacobian and a numerical inverse.

    ``H = J_l(e)^-1``, ``M = -J_r(e)^-1 = -J_l(-e)^-1``, ``Sigma = M R M'``;
    returns ``(H' Sigma^-1 H, H' Sigma^-1 e, sqrt(e' Sigma^-1 e), Sigma)``.
    """
    h = np.linalg.inv(left_jacobian(e))
    m = -np.linalg.inv(left_jacobian(-e))
    sigma = m @ cov @ m.T
    sig_inv_e = np.linalg.solve(sigma, e)
    return h.T @ np.linalg.solve(sigma, h), h.T @ sig_inv_e, np.sqrt(e @ sig_inv_e), sigma


def random_spd(rng, scale=1.0):
    a = rng.standard_normal((6, 6))
    return scale * (a @ a.T / 6.0 + 0.05 * np.eye(6))


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
        r, a, _ = linearize_one(Pose.identity(), Pose.identity())
        assert np.abs(r).max() == 0.0
        assert np.allclose(a, np.linalg.inv(left_jacobian(np.zeros(6))))  # = I

    def test_estimate_side_first_order(self, rng):
        # J is the whitened estimate-side Jacobian S H with S = W J_r(e):
        # S (e(T exp(-d)) - e) - J d shrinks quadratically in |d|.  The
        # solver keeps no J; TestNormalEquations ties its j'j and j'r to
        # this J.
        t = exp_map(rng.uniform(-0.4, 0.4, 6))
        meas = exp_map(rng.uniform(-0.4, 0.4, 6))
        r_cov = default_measurement_cov()
        _, _, (j,) = linearize_errors_reference(t, [meas], [r_cov])
        w = np.linalg.inv(np.linalg.cholesky(r_cov))
        e_bar = left_invariant_error(t, meas)
        s = w @ left_jacobian(-e_bar)
        direction = rng.standard_normal(6)
        direction /= np.linalg.norm(direction)
        defects = []
        for step in (1e-3, 5e-4):
            d = step * direction
            e_new = left_invariant_error(t @ exp_map(-d), meas)
            defects.append(np.linalg.norm(s @ (e_new - e_bar) - j @ d))
        assert defects[1] <= defects[0] / 3.0

    def test_measurement_side_first_order(self, rng):
        # Sigma = M R M' with M the derivative of the error in a measurement
        # perturbation meas <- meas exp(-d), taken here by central differences;
        # the whitened system must be the one Sigma^-1 defines
        t = exp_map(rng.uniform(-0.4, 0.4, 6))
        meas = exp_map(rng.uniform(-0.4, 0.4, 6))
        r_cov = default_measurement_cov()
        r, a, grad = linearize_one(t, meas, r_cov)
        e = left_invariant_error(t, meas)
        step = 1e-6
        m_fd = np.column_stack(
            [
                (left_invariant_error(t, meas @ exp_map(-step * d))
                 - left_invariant_error(t, meas @ exp_map(step * d))) / (2.0 * step)
                for d in np.eye(6)
            ]
        )
        sig_inv = np.linalg.inv(m_fd @ r_cov @ m_fd.T)
        h = np.linalg.inv(left_jacobian(e))
        assert r @ r == pytest.approx(e @ sig_inv @ e, rel=1e-6)
        assert np.allclose(grad, h.T @ sig_inv @ e, rtol=1e-6, atol=1e-9)
        assert np.allclose(a, h.T @ sig_inv @ h, rtol=1e-6, atol=1e-9)


class TestPropagateCov:
    def test_negated_identity_returns_cov(self):
        # at zero error M = -I, so the error covariance is the measurement's
        r_cov = default_measurement_cov()
        pose = exp_map(np.array([0.1, -0.2, 0.3, 0.5, -0.1, 0.2]))
        r, a, _ = linearize_one(pose, pose, r_cov)
        _, _, _, sigma = reference_system(np.zeros(6), r_cov)
        assert np.allclose(sigma, r_cov)
        assert np.allclose(a, np.linalg.inv(r_cov))
        assert np.abs(r).max() < 1e-12

    def test_identity_cov(self, rng):
        # M = -J_right(e)^-1 = -J_left(-e)^-1, inverted numerically here
        xi = rng.uniform(-0.5, 0.5, 6)
        r, a, grad = linearize_one(Pose.identity(), exp_map(xi))
        normal, grad_ref, norm, _ = reference_system(xi, np.eye(6))
        assert np.allclose(a, normal, atol=1e-12)
        assert np.allclose(grad, grad_ref, atol=1e-12)
        assert np.linalg.norm(r) == pytest.approx(norm, rel=1e-12)

    def test_positive_definite_output(self, rng):
        for _ in range(10):
            xi = rng.uniform(-0.5, 0.5, 6)
            r_cov = default_measurement_cov()
            _, a, _ = linearize_one(Pose.identity(), exp_map(xi), r_cov)
            normal, _, _, sigma = reference_system(xi, r_cov)
            assert np.all(np.linalg.eigvalsh(sigma) > 0)
            assert np.all(np.linalg.eigvalsh(a) > 0)
            assert np.allclose(a, normal, rtol=1e-10, atol=1e-10)


class TestWhitenedSystem:
    # The closed form against the unwhitened system it replaces, for random
    # in-branch errors and covariances.  Worst relative gap measured over
    # 20,000 random draws: see CHANGES.md.
    @PROPERTY
    @given(
        axis=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
            lambda v: np.linalg.norm(v) > 0.1
        ),
        angle=st.floats(0.0, np.pi - 0.05),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_unwhitened_system(self, axis, angle, seed):
        rng = np.random.default_rng(seed)
        estimate = exp_map(np.concatenate([rng.uniform(-3.0, 3.0, 3), rng.uniform(-5.0, 5.0, 3)]))
        e = np.concatenate([angle * np.array(axis) / np.linalg.norm(axis), rng.uniform(-2.0, 2.0, 3)])
        meas = estimate @ exp_map(e)
        r_cov = random_spd(rng, scale=10.0 ** rng.uniform(-3.0, 0.0))
        r, a, grad = linearize_one(estimate, meas, r_cov)
        normal, grad_ref, norm, _ = reference_system(log_map(estimate.inverse() @ meas), r_cov)

        def rel(x, y):
            return np.linalg.norm(x - y) / np.linalg.norm(y)

        assert rel(a, normal) <= 1e-8
        assert rel(grad, grad_ref) <= 1e-8
        assert abs(np.linalg.norm(r) - norm) <= 1e-8 * norm


    def test_out_of_branch_row_leaves_the_others_unchanged(self, rng):
        # Errors at angles below 1e-6, below 0.1 and in the closed-form range,
        # then one beyond the branch.  With that row the kept rows are
        # gathered; without it, or alone, they are returned as computed.  The
        # per-row outputs r_i = W_i e_i and g_i = lift_i' W_i e_i must agree
        # bit for bit.
        estimate = exp_map(np.concatenate([rng.uniform(-3.0, 3.0, 3), rng.uniform(-5.0, 5.0, 3)]))
        poses, covs = [], []
        for angle in (0.0, 1e-7, 0.05, 1.0, 2.5, np.pi - 1e-9):
            axis = rng.standard_normal(3)
            e = np.concatenate([angle * axis / np.linalg.norm(axis), rng.uniform(-2.0, 2.0, 3)])
            poses.append(estimate @ exp_map(e))
            covs.append(random_spd(rng))
        covs = np.stack(covs)
        ok, *rows = linearize_errors(estimate, MeasurementSet(poses, covs))
        assert ok.tolist() == [True] * 5 + [False]
        ok_in, *rows_in = linearize_errors(estimate, MeasurementSet(poses[:5], covs[:5]))
        assert ok_in.all() and all(np.array_equal(x, y) for x, y in zip(rows_in, rows))
        for i in range(5):
            _, *row_i = linearize_errors(estimate, MeasurementSet(poses[i : i + 1], covs[i : i + 1]))
            assert all(np.array_equal(x[0], y[i]) for x, y in zip(row_i, rows))


class TestNormalEquations:
    # Ad(T)' (sum w G_i) Ad(T) and -Ad(T)' sum w g_i against sum w j'j and
    # -sum w j'r, with j_i = W_i Ad(T~_i^-1 T) assembled one measurement at a
    # time.  Worst gaps over 3,000 seeded draws: see CHANGES.md.
    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        out_at=st.integers(0, 8),
        zeros=st.integers(1, 7),
    )
    def test_matches_the_per_measurement_assembly(self, seed, n, out_at, zeros):
        rng = np.random.default_rng(seed)
        estimate = exp_map(np.concatenate([rng.uniform(-3.0, 3.0, 3), rng.uniform(-5.0, 5.0, 3)]))
        angles = list(rng.uniform(0.0, np.pi - 0.05, n))
        angles.insert(out_at % (n + 1), np.pi - 1e-9)
        poses, covs = [], []
        for angle in angles:
            axis = rng.standard_normal(3)
            e = np.concatenate([angle * axis / np.linalg.norm(axis), rng.uniform(-2.0, 2.0, 3)])
            poses.append(estimate @ exp_map(e))
            covs.append(random_spd(rng, scale=10.0 ** rng.uniform(-3.0, 0.0)))
        meas = MeasurementSet(poses, np.stack(covs))
        ok, r, g = linearize_errors(estimate, meas)
        ok_ref, r_ref, j_ref = linearize_errors_reference(estimate, poses, covs)
        assert ok.tolist() == ok_ref.tolist() and np.count_nonzero(~ok) == 1

        def row_rel(x, y, axis):
            return np.linalg.norm(x - y, axis=axis) / np.linalg.norm(y, axis=axis)

        assert np.all(row_rel(r, r_ref, -1) <= 1e-12)

        # one weight or more is not zero; with n >= 2, one or more is exactly
        # zero as well
        wf = rng.uniform(0.0, 2.0, n)
        wf[rng.permutation(n)[: min(zeros, n - 1)]] = 0.0
        a, b = normal_equations(estimate, meas, ok, g, wf)
        a_ref = np.einsum("n,nki,nkj->ij", wf, j_ref, j_ref)
        b_ref = -np.einsum("n,nki,nk->i", wf, j_ref, r_ref)
        assert row_rel(a, a_ref, None) <= 1e-12
        assert row_rel(b, b_ref, None) <= 1e-12


LEVELS = bench.PoseAvgBenchConfig().outlier_levels

STACKS = ("rotations", "translations", "whiten", "gram", "lift_whiten")


def poses_of(meas):
    return [Pose(rot, trans) for rot, trans in zip(meas.rotations, meas.translations)]


def layouts(cov):
    """``cov`` shared by three poses, then as the middle of three per-pose
    covariances."""
    yield cov
    yield np.stack([np.eye(6), cov, np.eye(6)])


def per_matrix_factors(cov, n):
    return np.stack([np.linalg.inv(np.linalg.cholesky(c)) for c in np.broadcast_to(cov, (n, 6, 6))])


class TestPoseMeasurement:
    """Checks and whitening factors of a :class:`MeasurementSet`."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_covariance(self, bad):
        cov = np.eye(6)
        cov[2, 2] = bad
        for c in layouts(cov):
            with pytest.raises(ValueError, match="covariance must be finite"):
                MeasurementSet([Pose.identity()] * 3, c)

    def test_rejects_all_nan_covariance(self):
        for c in layouts(np.full((6, 6), np.nan)):
            with pytest.raises(ValueError, match="covariance must be finite"):
                MeasurementSet([Pose.identity()] * 3, c)

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-4, 1e3),
        # log10 of |lambda_min| / lambda_max, clear of the 1e-9 rounding band
        log_ratio=st.floats(-8.9, 0.0),
        negative=st.booleans(),
    )
    def test_positive_definite_accepted_indefinite_rejected(self, seed, scale, log_ratio, negative):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        lam = scale * rng.uniform(10.0**log_ratio, 1.0, 6)
        lam[0] = (-1.0 if negative else 1.0) * scale * 10.0**log_ratio
        lam[-1] = scale
        cov = (q * lam) @ q.T
        cov = 0.5 * (cov + cov.T)
        eig = np.linalg.eigvalsh(cov)
        assert (eig[0] < -1e-9 * eig[-1]) if negative else (eig[0] > 1e-9 * eig[-1])
        for c in layouts(cov):
            if negative:
                with pytest.raises(ValueError, match=r"^measurement covariance must be positive definite$"):
                    MeasurementSet([Pose.identity()] * 3, c)
            else:
                m = MeasurementSet([Pose.identity()] * 3, c)
                assert np.array_equal(m.whiten, per_matrix_factors(c, 3))

    @PROPERTY
    @given(
        i=st.integers(0, 5),
        j=st.integers(0, 5),
        bad=st.sampled_from([np.nan, np.inf, -np.inf, "asymmetric"]),
        delta=st.floats(2e-9, 1.0),
    )
    def test_non_finite_or_asymmetric_rejected(self, i, j, bad, delta):
        cov = default_measurement_cov()
        if bad == "asymmetric":
            assume(i != j)
            cov[i, j] += delta
        else:
            cov[i, j] = bad
        for c in layouts(cov):
            with pytest.raises(ValueError, match=r"^measurement covariance must be finite and symmetric$"):
                MeasurementSet([Pose.identity()] * 3, c)

    def test_later_edits_of_the_callers_arrays_leave_the_stacks_unchanged(self):
        for cov in layouts(default_measurement_cov()):
            poses = [exp_map(np.full(6, 0.1)) for _ in range(3)]
            m = MeasurementSet(poses, cov)
            kept = {name: getattr(m, name).copy() for name in STACKS}
            cov[..., 0, 0] = 2.0
            poses[0].translation[0] = 5.0
            assert all(np.array_equal(getattr(m, name), kept[name]) for name in STACKS)

    @pytest.mark.parametrize("name", STACKS)
    def test_kept_stacks_reject_writes(self, name):
        # gram and lift_whiten are derived from the other stacks, so none may
        # change after them
        m = MeasurementSet([exp_map(np.full(6, 0.1))] * 3, default_measurement_cov())
        stack = getattr(m, name)
        with pytest.raises(ValueError, match="read-only"):
            stack[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            stack += 1.0

    def test_rejects_a_covariance_of_the_wrong_shape(self):
        with pytest.raises(ValueError):
            MeasurementSet([Pose.identity()] * 3, np.eye(5))
        with pytest.raises(ValueError):
            MeasurementSet([Pose.identity()] * 3, np.stack([np.eye(6)] * 2))

    @pytest.mark.parametrize("level", LEVELS)
    def test_kept_factors_stack_to_the_batched_factor(self, level, rng):
        # The batched factors of a set equal the factors of its covariances
        # taken one at a time, for a shared and for per-pose covariances.
        for seed in range(4):
            meas, _, _ = generate_trial(TrialSpec(seed=seed, outlier_fraction=level))
            n = len(meas.whiten)
            assert np.array_equal(meas.whiten, per_matrix_factors(default_measurement_cov(), n))
            covs = np.stack([random_spd(rng, 10.0**rng.uniform(-3, 0)) for _ in range(n)])
            mixed = MeasurementSet(poses_of(meas), covs)
            assert np.array_equal(mixed.whiten, per_matrix_factors(covs, n))
            assert np.array_equal(mixed.rotations, meas.rotations)
            assert np.array_equal(mixed.translations, meas.translations)


class TestSolver:
    def test_single_measurement_recovered(self):
        pose = exp_map(np.array([0.1, -0.2, 0.3, 0.5, -0.1, 0.2]))
        res = solve_pose_average(MeasurementSet([pose], np.eye(6)), Pose.identity(), cfg())
        assert res.converged and res.iterations <= 2
        assert np.abs(log_map(pose.inverse() @ res.pose)).max() < 1e-9

    def test_identical_measurements_fixed_point(self):
        pose = exp_map(np.array([0.2, 0.1, -0.1, 0.3, 0.2, -0.5]))
        meas = MeasurementSet([pose] * 9, 0.01 * np.eye(6))
        res = solve_pose_average(meas, Pose.identity(), cfg())
        assert np.abs(log_map(pose.inverse() @ res.pose)).max() < 1e-9

    def test_gradient_vanishes_at_unweighted_optimum(self, rng):
        spec = TrialSpec(seed=5, n_inliers=20, outlier_fraction=0.0)
        meas, init, _ = generate_trial(spec)
        res = solve_pose_average(meas, init, cfg("none", tol_phi=1e-10, tol_rho=1e-10, max_iters=200))
        # gradient of the unweighted objective via the same linearization
        grad = sum(
            reference_system(log_map(res.pose.inverse() @ m), default_measurement_cov())[1]
            for m in poses_of(meas)
        )
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
            phi1, _ = pose_error_norms(truth.inverse() @ poses_of(meas)[0])
            singles.append(phi1)
        ratio = np.median(averages) / np.median(singles)
        assert ratio == pytest.approx(1.0 / np.sqrt(20.0), rel=0.35)

    def test_below_mode_weight_rule_holds_every_iteration(self, monkeypatch):
        # Record every weights call the solve makes and check the rule on
        # the residual norms and weights themselves.
        calls = []
        weights = RobustLoss.weights

        def recording(loss, residuals, *args, **kwargs):
            result = weights(loss, residuals, *args, **kwargs)
            calls.append((np.array(residuals), result))
            return result

        monkeypatch.setattr(RobustLoss, "weights", recording)
        meas, init, _ = generate_trial(TrialSpec(seed=11, outlier_fraction=0.6))
        res = solve_pose_average(meas, init, cfg("adaptive_mb"))
        assert len(calls) == res.iterations
        for r, result in calls:
            below = r < result.diagnostics["mode"]
            assert np.any(below)
            assert np.all(result.weights[below] == 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^need at least one measurement$"):
            MeasurementSet([], np.eye(6))


class TestSolverInvariance:
    """Errors are left-invariant, so moving every measurement and the start
    by one pose G moves the solution by G."""

    # Skips shrinking (see oracles) under the decorator's own name, since
    # hypothesis derives the derandomized examples from the test's source.
    # The explicit examples run whatever that source is; a right-invariant
    # error fails each of them.
    PROPERTY = SOLVE_PROPERTY

    @staticmethod
    def _solve(meas, init, config):
        try:
            return solve_pose_average(meas, init, config)
        except SingularSystemError as exc:
            return exc

    @pytest.mark.parametrize("kind", RLF_KINDS)
    @PROPERTY
    @example(g=(0.5, -0.3, 0.8, 2.0, -1.0, 3.0), seed=7, level=0.2)
    @example(g=(-1.2, 0.4, 0.1, -4.0, 2.5, 0.5), seed=1234, level=0.6)
    @given(
        g=st.tuples(*[st.floats(-1.5, 1.5)] * 3, *[st.floats(-5.0, 5.0)] * 3),
        seed=st.integers(0, 2**16),
        level=st.sampled_from(LEVELS),
    )
    def test_left_translation_moves_the_solution(self, kind, g, seed, level):
        meas, init, _ = generate_trial(TrialSpec(seed=seed, n_inliers=10, outlier_fraction=level))
        big_g = exp_map(np.array(g))
        config = cfg(kind)
        base = self._solve(meas, init, config)
        moved_meas = MeasurementSet([big_g @ m for m in poses_of(meas)], default_measurement_cov())
        moved = self._solve(moved_meas, big_g @ init, config)
        if isinstance(base, Exception) or isinstance(moved, Exception):
            assert type(base) is type(moved)
            return
        if base.iterations != moved.iterations:
            # a stop-test tie: one run's last step sits on a tolerance
            k = min(base.iterations, moved.iterations) - 1
            gaps = [abs(run.trace[k][f"step_{b}"] / tol - 1.0)
                    for run in (base, moved) for b, tol in (("phi", config.tol_phi), ("rho", config.tol_rho))]
            assert min(gaps) <= 1e-6
            return
        assert base.converged == moved.converged
        # The alpha and Chi-shape searches stop within their step tolerances,
        # which rounding can move; the other kinds agree to rounding.
        tol = 1e-8 if kind in ADAPTIVE_KINDS else 1e-12
        assert np.abs(log_map((big_g @ base.pose).inverse() @ moved.pose)).max() <= tol


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


# Outcomes of the first trial at each outlier level of a pose-avg-bench run
# with master seed 3, recorded before the whitened linearization replaced
# the Jacobian inverses, the barron rows again when its Z became the
# whole-line rule: (group, rlf, iterations, converged, phi_err_deg,
# rho_err_mm).  A change meant to keep outcomes must keep these.
GOLDEN_OUTCOMES = [
    ("outliers_00", "cauchy", 7, True, 3.6847027295409376, 43.8973756081992),
    ("outliers_00", "tukey", 7, True, 3.007193261180008, 47.174256135882736),
    ("outliers_00", "welsch", 7, True, 3.2437323820263058, 46.27343262072266),
    ("outliers_00", "var_trimmed", 3, True, 4.756919288225915, 39.364566604617735),
    ("outliers_00", "barron", 10, True, 3.7607896422263885, 39.074281950239396),
    ("outliers_00", "chebrolu", 11, True, 3.760725330860887, 38.90375121232672),
    ("outliers_00", "adaptive_mb", 4, True, 4.757479738590925, 39.36355370420856),
    ("outliers_20", "cauchy", 6, True, 3.9993775674549195, 67.39020665582972),
    ("outliers_20", "tukey", 7, True, 4.824800010465326, 67.7024011832801),
    ("outliers_20", "welsch", 7, True, 4.524864116926386, 67.16908466406603),
    ("outliers_20", "var_trimmed", 4, True, 3.8933068972020557, 76.15908720766892),
    ("outliers_20", "barron", 12, True, 4.143112541002539, 71.64027133834918),
    ("outliers_20", "chebrolu", 16, True, 4.335567754516268, 72.52739210024738),
    ("outliers_20", "adaptive_mb", 6, True, 4.606795467535301, 71.25653184041109),
    ("outliers_40", "cauchy", 5, True, 4.4093392355816, 35.09566804773905),
    ("outliers_40", "tukey", 5, True, 4.662794277650836, 38.3156189546374),
    ("outliers_40", "welsch", 5, True, 4.648203397836076, 37.660034378229106),
    ("outliers_40", "var_trimmed", 4, True, 3.7820523945659907, 61.662654686268176),
    ("outliers_40", "barron", 8, True, 4.706261543147632, 42.52957617598995),
    ("outliers_40", "chebrolu", 12, True, 4.973163491397362, 52.90611851071268),
    ("outliers_40", "adaptive_mb", 7, True, 5.192329107236863, 29.340059234680563),
    ("outliers_60", "cauchy", 6, True, 3.047769255101929, 67.54461894309573),
    ("outliers_60", "tukey", 6, True, 2.966485069076664, 63.50631137551037),
    ("outliers_60", "welsch", 6, True, 2.9279242726406345, 65.01989028323759),
    ("outliers_60", "var_trimmed", 4, True, 5.15280793245962, 68.94195313668119),
    ("outliers_60", "barron", 10, True, 2.5689037860869806, 96.34844775279888),
    ("outliers_60", "chebrolu", 4, True, 8.848095414353176, 305.54342266055903),
    ("outliers_60", "adaptive_mb", 7, True, 3.9307019139999655, 70.74554679287552),
    ("outliers_80", "cauchy", 6, True, 5.3618107435150515, 77.11993346328742),
    ("outliers_80", "tukey", 7, True, 5.348693669588739, 95.85233834669405),
    ("outliers_80", "welsch", 7, True, 5.379963794725648, 88.78898504962552),
    ("outliers_80", "var_trimmed", 5, True, 6.554574494964688, 53.36506380840212),
    ("outliers_80", "barron", 14, True, 8.64271459514517, 57.186632106818735),
    ("outliers_80", "chebrolu", 14, True, 15.59251929993889, 113.7523277537225),
    ("outliers_80", "adaptive_mb", 6, True, 3.050210368049297, 74.37402364592637),
]


class TestGoldenOutcomes:
    @pytest.mark.parametrize("level_idx", range(5))
    def test_first_trial_outcomes_kept(self, level_idx):
        cfg = bench.PoseAvgBenchConfig(master_seed=3, trials_per_level=1)
        records = bench._trial((bench._pose_avg_problem, cfg, level_idx, 0))
        expected = [g for g in GOLDEN_OUTCOMES if g[0] == records[0].group]
        assert [(r.group, r.rlf) for r in records] == [g[:2] for g in expected]
        for r, (_, _, iterations, converged, phi, rho) in zip(records, expected):
            assert (r.iterations, r.converged) == (iterations, converged), r.rlf
            assert r.phi_err_deg == pytest.approx(phi, abs=1e-6), r.rlf
            assert r.rho_err_mm == pytest.approx(rho, abs=1e-5), r.rlf


class TestAdaptiveMbConvergence:
    # With hard histogram bins these trials of the default benchmark (master
    # seed 20220516) cycled between two fitted Chi shapes until max_iters.
    @pytest.mark.parametrize("level_idx,trial", [(1, 61), (2, 28)])
    def test_default_benchmark_trial_converges(self, level_idx, trial):
        cfg = bench.PoseAvgBenchConfig(rlfs=("adaptive_mb",))
        (record,) = bench._trial((bench._pose_avg_problem, cfg, level_idx, trial))
        assert record.converged and record.iterations < cfg.max_iters


class TestGenerateTrial:
    def test_outlier_counts(self):
        for frac, expected in [(0.2, 5), (0.4, 13), (0.6, 30), (0.8, 80)]:
            assert n_outliers(TrialSpec(seed=0, outlier_fraction=frac)) == expected

    @pytest.mark.parametrize("n_inliers", [0, True, 2.0])
    def test_rejects_an_inlier_count_that_is_no_integer_of_at_least_one(self, n_inliers):
        with pytest.raises(ValueError, match="n_inliers must be"):
            TrialSpec(seed=0, n_inliers=n_inliers)

    def test_inlier_mahalanobis_envelope(self):
        # all inlier norms within the Chi(6) 99.9% envelope, checked in bulk
        r = default_measurement_cov()
        r_inv = np.linalg.inv(r)
        norms = []
        for seed in range(50):
            meas, _, _ = generate_trial(TrialSpec(seed=seed, outlier_fraction=0.0))
            for m in poses_of(meas):
                xi = log_map(m)
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
            norms.extend(np.sqrt(log_map(m) @ r_inv @ log_map(m)) for m in poses_of(meas))
            seed += 1
        chi6_mean = np.sqrt(2.0) * gamma(3.5) / gamma(3.0)
        assert np.mean(norms) == pytest.approx(chi6_mean, rel=0.02)

    def test_deterministic(self):
        a, init_a, _ = generate_trial(TrialSpec(seed=42, outlier_fraction=0.4))
        b, init_b, _ = generate_trial(TrialSpec(seed=42, outlier_fraction=0.4))
        assert np.array_equal(init_a.matrix(), init_b.matrix())
        assert all(np.array_equal(getattr(a, name), getattr(b, name)) for name in STACKS)

    def test_outlier_translation_bounds(self):
        spec = TrialSpec(seed=3, outlier_fraction=0.8)
        meas, _, _ = generate_trial(spec)
        assert np.all(np.abs(meas.translations[spec.n_inliers:]) <= 1.0)

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
