import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.linalg import expm

from robls.mbfit import chi_quantile
from robls.se3 import (
    LOG_BRANCH_MARGIN,
    BranchError,
    Pose,
    exp_map,
    log_map,
    perturbation_sigma,
    pose_error_norms,
    sample_perturbation,
    so3_exp,
)
from robls.se3 import _SERIES_SWITCH, _adjoint, _batch_se3_log, _det3, _exp_coefs

from oracles import (
    PROPERTY,
    adjoint,
    exp_coefs_reference,
    left_jacobian,
    pose_check_reference,
    skew,
    vee,
    wedge,
)

# Absolute accuracy of every exp-side coefficient on [0, pi), as the se3
# module docstring states it.
EXP_COEF_TOL = 2e-12


def random_twist(rng, max_angle=3.0, max_trans=2.0):
    phi = rng.standard_normal(3)
    phi *= rng.uniform(0, max_angle) / np.linalg.norm(phi)
    rho = rng.uniform(-max_trans, max_trans, 3)
    return np.concatenate([phi, rho])


class TestWedgeVee:
    def test_roundtrip(self, rng):
        for _ in range(50):
            xi = rng.standard_normal(6)
            assert np.array_equal(vee(wedge(xi)), xi)

    def test_zero(self):
        assert np.all(wedge(np.zeros(6)) == 0.0)

    def test_sign_layout(self):
        m = wedge([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        assert m[1, 0] == 1.0 and m[0, 1] == -1.0

    def test_vee_validates_pattern(self):
        bad = np.ones((4, 4))
        with pytest.raises(ValueError):
            vee(bad)


class TestExpLog:
    def test_exp_zero_is_identity(self):
        pose = exp_map(np.zeros(6))
        assert np.allclose(pose.matrix(), np.eye(4))

    def test_roundtrip_thousand_twists(self, rng):
        worst = 0.0
        for _ in range(1000):
            xi = random_twist(rng, max_angle=3.0)
            back = log_map(exp_map(xi))
            worst = max(worst, np.abs(back - xi).max())
        assert worst < 1e-9

    def test_pure_translation(self):
        r = np.array([0.3, -0.7, 2.0])
        pose = exp_map(np.concatenate([np.zeros(3), r]))
        assert np.allclose(pose.rotation, np.eye(3))
        assert np.allclose(pose.translation, r)

    def test_matches_matrix_exponential(self, rng):
        for _ in range(100):
            xi = random_twist(rng)
            assert np.allclose(exp_map(xi).matrix(), expm(wedge(xi)), atol=1e-12)

    # Exp then log moves the angle by up to about 1e-15, so a twist within
    # that of the branch guard may land on either side of it.
    @PROPERTY
    @given(
        axis=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
            lambda v: np.linalg.norm(v) > 0.1
        ),
        angle=st.floats(0.0, np.pi - LOG_BRANCH_MARGIN - 1e-13),
        rho=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    )
    def test_roundtrip_up_to_branch_guard(self, axis, angle, rho):
        xi = np.concatenate([angle * np.array(axis) / np.linalg.norm(axis), rho])
        back = log_map(exp_map(xi))
        assert np.abs(back[:3] - xi[:3]).max() <= 1e-9
        assert np.abs(back[3:] - xi[3:]).max() <= 1e-8

    def test_log_rejects_angle_near_pi(self):
        rot = so3_exp(np.array([np.pi - 1e-8, 0.0, 0.0]))
        with pytest.raises(BranchError):
            log_map(Pose(rot, np.zeros(3)))

    def test_rotation_invariants_hold(self, rng):
        for _ in range(50):
            pose = exp_map(random_twist(rng))
            c = pose.rotation
            assert np.abs(c @ c.T - np.eye(3)).max() < 1e-9
            assert np.linalg.det(c) == pytest.approx(1.0, abs=1e-9)

    def test_group_action_consistency(self, rng):
        pose = exp_map(random_twist(rng))
        assert np.abs(log_map(pose.inverse() @ pose)).max() < 1e-12


class TestExpCoefficients:
    @PROPERTY
    @given(t=st.one_of(
        st.floats(0.0, np.pi, exclude_max=True),
        st.floats(0.5 * _SERIES_SWITCH, 2.0 * _SERIES_SWITCH),
    ))
    @example(t=0.0)
    @example(t=float(np.nextafter(_SERIES_SWITCH, 0.0)))
    @example(t=_SERIES_SWITCH)
    def test_match_extended_precision_series(self, t):
        t2 = t * t
        for got, ref in zip(_exp_coefs(t2), exp_coefs_reference(t2)):
            assert abs(np.longdouble(got) - ref) <= EXP_COEF_TOL

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
    def test_non_finite_angle_rejected(self, bad):
        for call, arg in ((exp_map, [bad, 0.0, 0.0, 1.0, 2.0, 3.0]), (so3_exp, [0.0, bad, 0.0])):
            with pytest.raises(ValueError, match="rotation angle is not finite"):
                call(arg)

    @PROPERTY
    @given(
        axis=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
            lambda v: np.linalg.norm(v) > 0.1
        ),
        rho=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    )
    def test_exp_map_continuous_across_series_switch(self, axis, rho):
        unit = np.array(axis) / np.linalg.norm(axis)
        below, above = (
            np.concatenate([_SERIES_SWITCH * (1.0 + s) * unit, rho]) for s in (-1e-12, 1e-12)
        )
        angles = [math.sqrt(x * x + y * y + z * z) for x, y, z in (below[:3], above[:3])]
        assert angles[0] < _SERIES_SWITCH <= angles[1]
        lo, hi = exp_map(below), exp_map(above)
        # each coefficient may jump by twice its error bound; |skew(phi)| <= 0.1
        tol = 2.0 * EXP_COEF_TOL * (1.0 + np.abs(rho).sum())
        assert np.abs(lo.rotation - hi.rotation).max() <= tol
        assert np.abs(lo.translation - hi.translation).max() <= tol


class TestJacobians:
    def test_identity_at_zero(self):
        assert np.allclose(left_jacobian(np.zeros(6)), np.eye(6))

    def test_left_right_identity(self, rng):
        # J_l(xi) = Ad(exp(xi)) J_r(xi) with J_r(xi) = J_l(-xi), Ad = [[R, 0], [t^ R, R]]
        worst = 0.0
        for _ in range(200):
            xi = random_twist(rng, max_angle=2.9)
            ad = adjoint(exp_map(xi))
            worst = max(worst, np.abs(left_jacobian(xi) - ad @ left_jacobian(-xi)).max())
        assert worst < 1e-10

    def test_against_adjoint_series(self, rng):
        def ad(xi):
            out = np.zeros((6, 6))
            out[:3, :3] = out[3:, 3:] = skew(xi[:3])
            out[3:, :3] = skew(xi[3:])
            return out

        for scale in (1e-7, 1e-4, 0.05, 0.5, 1.5):
            xi = random_twist(rng, max_angle=scale, max_trans=2.0)
            term, total = np.eye(6), np.eye(6)
            fact = 1.0
            for n in range(1, 40):
                term = term @ ad(xi)
                fact *= n + 1
                total = total + term / fact
            assert np.abs(left_jacobian(xi) - total).max() < 1e-12

    def test_closed_form_inverse(self, rng):
        # J_r(xi) J_l(xi)^-1 = Ad(exp(-xi)), with J_r(xi) = J_l(-xi) and
        # Ad(C, t) = [[C, 0], [skew(t) C, C]] in (phi, rho) order
        for _ in range(50):
            xi = random_twist(rng, max_angle=2.5)
            ad = adjoint(exp_map(-xi))
            prod = left_jacobian(-xi) @ np.linalg.inv(left_jacobian(xi))
            assert np.abs(prod - ad).max() < 1e-10

    def test_first_order_model(self, rng):
        # exp(xi + d) ~ exp(xi) exp(Jr(xi) d), Jr(xi) = Jl(-xi): defect shrinks quadratically
        xi = random_twist(rng, max_angle=1.5)
        direction = rng.standard_normal(6)
        direction /= np.linalg.norm(direction)
        defects = []
        for h in (1e-3, 5e-4, 2.5e-4):
            d = h * direction
            lhs = exp_map(xi + d)
            rhs = exp_map(xi) @ exp_map(left_jacobian(-xi) @ d)
            defects.append(np.linalg.norm(log_map(lhs.inverse() @ rhs)))
        assert defects[1] <= defects[0] / 3.0
        assert defects[2] <= defects[1] / 3.0


TWIST = st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6).map(np.array)


class TestAdjoint:
    def ad(self, pose):
        return _adjoint(pose.rotation, pose.translation)

    @PROPERTY
    @given(x=TWIST, y=TWIST)
    def test_homomorphism(self, x, y):
        a, b = exp_map(x), exp_map(y)
        assert np.allclose(self.ad(a) @ self.ad(b), self.ad(a @ b), rtol=0, atol=1e-12)

    @PROPERTY
    @given(x=TWIST)
    def test_inverse(self, x):
        a = exp_map(x)
        assert np.allclose(self.ad(a.inverse()), np.linalg.inv(self.ad(a)), rtol=0, atol=1e-12)

    def test_matches_one_pose_at_a_time(self, rng):
        # the batch broadcast gives each pose's own adjoint, bit for bit
        poses = [exp_map(random_twist(rng)) for _ in range(5)]
        batch = _adjoint(np.stack([p.rotation for p in poses]), np.stack([p.translation for p in poses]))
        for pose, ad in zip(poses, batch):
            assert np.array_equal(ad, self.ad(pose))
            assert np.allclose(ad, adjoint(pose), rtol=0, atol=1e-15)

    def test_is_exact(self, rng):
        # t^ is built from t by a product with a 0/+-1 matrix; each of its
        # entries must be exactly 0 or +-t_k, so the adjoint equals the one
        # assembled from the elementwise skew(t), bit for bit.
        rots = [so3_exp(rng.uniform(-3.0, 3.0, 3)) for _ in range(8)]
        trans = rng.uniform(-5.0, 5.0, (8, 3))
        trans[0] = 0.0
        trans[1] = [0.0, -2.5, 0.0]
        trans[2] = [-1.0, -1e-300, -7.0]
        trans[3, 1:] = 0.0
        expected = [np.block([[r, np.zeros((3, 3))], [skew(t) @ r, r]]) for r, t in zip(rots, trans)]
        for r, t, want in zip(rots, trans, expected):
            assert np.array_equal(_adjoint(r, t), want)
        assert np.array_equal(_adjoint(np.stack(rots), trans), np.stack(expected))


class TestPoseErrorNorms:
    def test_identity(self):
        assert pose_error_norms(Pose.identity()) == (0.0, 0.0)

    def test_pure_rotation(self):
        angle = np.deg2rad(20.0)
        delta = Pose(so3_exp(np.array([0.0, 0.0, angle])), np.zeros(3))
        phi, rho = pose_error_norms(delta)
        assert phi == pytest.approx(angle)
        assert rho == 0.0

    def test_rotation_norm_invariant_under_conjugation(self, rng):
        xi = random_twist(rng, max_angle=2.0)
        rot = so3_exp(rng.standard_normal(3))
        conj = np.concatenate([rot @ xi[:3], rot @ xi[3:]])
        phi_a, _ = pose_error_norms(exp_map(xi))
        phi_b, _ = pose_error_norms(exp_map(conj))
        assert phi_a == pytest.approx(phi_b, rel=1e-12)


class TestBatchedKernels:
    def test_batch_log_matches_scalar(self, rng):
        mats = []
        twists = []
        for _ in range(64):
            xi = random_twist(rng, max_angle=2.8)
            twists.append(xi)
            mats.append(exp_map(xi).matrix())
        xi_hat, ok = _batch_se3_log(np.stack(mats))
        assert np.all(ok)
        assert np.abs(xi_hat - np.stack(twists)).max() < 1e-9

    # Near pi the antisymmetric part of R is about |sin theta| = pi - theta,
    # and its entries carry the rounding of entries of size 1, so the axis
    # and with it phi and rho lose about eps / (pi - theta) relative.
    @PROPERTY
    @given(
        axis=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
            lambda v: np.linalg.norm(v) > 0.1
        ),
        angle=st.one_of(
            st.floats(0.0, np.pi - 2e-6),
            st.floats(0.5e-6, 2e-6),
            st.floats(0.5 * _SERIES_SWITCH, 2.0 * _SERIES_SWITCH),
        ),
        rho=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    )
    @example(axis=[1.0, 0.0, 0.0], angle=0.0, rho=[1.0, -2.0, 3.0])
    @example(axis=[0.0, 1.0, 0.0], angle=float(np.nextafter(1e-6, 0.0)), rho=[1.0, -2.0, 3.0])
    @example(axis=[0.0, 0.0, 1.0], angle=1e-6, rho=[1.0, -2.0, 3.0])
    @example(axis=[1.0, 1.0, 0.0], angle=float(np.nextafter(_SERIES_SWITCH, 0.0)), rho=[1.0, -2.0, 3.0])
    @example(axis=[0.0, 1.0, 1.0], angle=_SERIES_SWITCH, rho=[1.0, -2.0, 3.0])
    @example(axis=[1.0, 1.0, 1.0], angle=np.pi - 2e-6, rho=[10.0, -10.0, 10.0])
    def test_log_inverts_exp(self, axis, angle, rho):
        xi = np.concatenate([angle * np.array(axis) / np.linalg.norm(axis), rho])
        back, ok = _batch_se3_log(exp_map(xi).matrix()[None])
        assert ok.tolist() == [True]
        eps = np.finfo(float).eps
        tol = (1e-12 + 2.0 * eps / (np.pi - angle)) * max(1.0, np.linalg.norm(xi))
        assert np.abs(back[0] - xi).max() <= tol

    def test_log_keeps_its_precision_near_pi(self, rng):
        # rho within eps / (pi - theta) of exact, relative to max(1, |xi|),
        # half the bound above: measured worst 0.60 of it over 2,000 draws
        # per angle.  V^-1's coefficient taken from |w| and cos theta of the
        # matrix, in place of sin and cos of theta, read 1.5 to 2.5.
        eps = np.finfo(float).eps
        for gap in (2e-6, 1e-5, 1e-4, 1e-3, 1e-2):
            axes = rng.standard_normal((200, 3))
            xis = np.hstack([(np.pi - gap) * axes / np.linalg.norm(axes, axis=1, keepdims=True),
                             rng.uniform(-10.0, 10.0, (200, 3))])
            back, ok = _batch_se3_log(np.stack([exp_map(xi).matrix() for xi in xis]))
            assert ok.all()
            scale = eps / gap * np.maximum(1.0, np.linalg.norm(xis, axis=1))
            assert np.all(np.abs(back - xis).max(axis=1) <= scale)

    # One angle each below 1e-6, below _SERIES_SWITCH and in the closed-form
    # range, then one beyond the branch: the mixed batch takes the general
    # paths, while each element alone takes whichever its angle allows.
    MIXED_ANGLES = (0.0, 1e-7, 0.05, 1.0, 2.5, np.pi - 1e-9)

    def test_mixed_batch_log_matches_each_element_alone(self, rng):
        mats = []
        for angle in self.MIXED_ANGLES:
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            mats.append(Pose(so3_exp(angle * axis), rng.standard_normal(3)).matrix())
        mats = np.stack(mats)
        xi, ok = _batch_se3_log(mats)
        assert ok.tolist() == [True] * 5 + [False]
        for i in range(5):
            alone, ok_alone = _batch_se3_log(mats[i : i + 1])
            assert ok_alone.tolist() == [True]
            assert np.array_equal(xi[i], alone[0])
            assert np.array_equal(xi[i], log_map(Pose(mats[i, :3, :3], mats[i, :3, 3])))
        in_branch, _ = _batch_se3_log(mats[:5])
        assert np.array_equal(in_branch, xi[:5])

    def test_batch_log_flags_out_of_branch(self):
        near_pi = Pose(so3_exp(np.array([0.0, np.pi - 1e-9, 0.0])), np.zeros(3))
        xi, ok = _batch_se3_log(np.stack([np.eye(4), near_pi.matrix()]))
        assert ok.tolist() == [True, False]


class TestSamplePerturbation:
    def test_zero_sigma_is_identity(self, rng):
        pose = sample_perturbation(0.0, 0.0, rng)
        assert np.allclose(pose.matrix(), np.eye(4))

    def test_norm_bound_quantile(self):
        rng = np.random.default_rng(7)
        bound = np.deg2rad(20.0)
        sigma = perturbation_sigma(bound)
        norms = np.linalg.norm(sigma * rng.standard_normal((100_000, 3)), axis=1)
        frac = np.mean(norms < bound)
        assert frac == pytest.approx(0.9973, abs=1e-3)

    def test_empirical_covariance(self):
        rng = np.random.default_rng(11)
        sigma_phi = 0.05
        xi, ok = _batch_se3_log(
            np.stack([sample_perturbation(sigma_phi, 0.0, rng).matrix() for _ in range(20_000)])
        )
        assert ok.all()
        phis = xi[:, :3]
        cov = phis.T @ phis / len(phis)
        assert np.abs(cov - sigma_phi**2 * np.eye(3)).max() < 0.02 * sigma_phi**2 * 3

    def test_negative_sigma_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_perturbation(-1.0, 0.0, rng)


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.5, np.zeros(3))

    def test_rejects_reflection(self):
        # orthonormal, so only the determinant sign rejects it
        with pytest.raises(ValueError, match=r"det \+1"):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_det3_matches_lapack(self, rng):
        for m in rng.standard_normal((200, 3, 3)):
            assert _det3(m) == pytest.approx(np.linalg.det(m), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("rotation,translation,match", [
        (np.full((3, 3), np.nan), np.zeros(3), "rotation"),
        (np.eye(3), np.array([0.0, np.inf, 0.0]), "translation"),
        (np.eye(3), np.array([np.nan, 0.0, 0.0]), "translation"),
        (np.eye(3), np.array([0.0, 0.0, -np.inf]), "translation"),
    ], ids=["nan-rotation", "inf-translation", "nan-translation", "minus-inf-translation"])
    def test_rejects_non_finite(self, rotation, translation, match):
        with pytest.raises(ValueError, match=match):
            Pose(rotation, translation)

    def test_apply_matches_matrix(self, rng):
        pose = exp_map(random_twist(rng))
        pts = rng.standard_normal((10, 3))
        direct = pose.apply(pts)
        homo = (pose.matrix() @ np.column_stack([pts, np.ones(10)]).T).T[:, :3]
        assert np.allclose(direct, homo)

    def test_composed_steps_stay_orthonormal(self, rng):
        # Solvers compose each step onto the pose without re-orthonormalizing;
        # rounding drifts R R' - I slowly enough to stay far inside Pose's 1e-6.
        pose = exp_map(random_twist(rng))
        worst = 0.0
        for xi in 0.05 * rng.standard_normal((10_000, 6)):
            pose = pose @ exp_map(-xi)
            worst = max(worst, np.abs(pose.rotation @ pose.rotation.T - np.eye(3)).max())
        assert worst <= 1e-11


class TestPoseValidation:
    """The float check of ``Pose`` accepts exactly what the numpy form does."""

    @PROPERTY
    @given(
        phi=st.lists(st.floats(-1.8, 1.8), min_size=3, max_size=3),
        rho=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
        # size of the perturbation's first-order effect on R R' - I
        size=st.one_of(st.just(0.0), st.floats(0.5e-6, 1.5e-6), st.floats(1e-9, 1e-2)),
        seed=st.integers(0, 2**32 - 1),
        defect=st.sampled_from([None, "reflection", "rotation", "translation"]),
        bad_value=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    @example(phi=[0.0] * 3, rho=[0.0] * 3, size=0.0, seed=0, defect=None, bad_value=np.nan)
    def test_float_check_matches_numpy_oracle(self, phi, rho, size, seed, defect, bad_value):
        pose = exp_map(np.concatenate([phi, rho]))
        rot, trans = pose.rotation.copy(), pose.translation.copy()
        rng = np.random.default_rng(seed)
        d = rng.standard_normal((3, 3))
        rot += size / np.abs(rot @ d.T + d @ rot.T).max() * d
        if defect == "reflection":
            rot = rot @ np.diag([1.0, 1.0, -1.0])
        elif defect == "rotation":
            rot[rng.integers(3), rng.integers(3)] = bad_value
        elif defect == "translation":
            trans[rng.integers(3)] = bad_value
        with np.errstate(invalid="ignore"):
            err = np.abs(rot @ rot.T - np.eye(3)).max()
        # the two forms may round differently within 1e-12 of the tolerance
        assume(not abs(err - 1e-6) <= 1e-12)
        with np.errstate(invalid="ignore"):
            expected = pose_check_reference(rot, trans)
        try:
            Pose(rot, trans)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == expected

    @pytest.mark.parametrize("entry", [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)])
    @pytest.mark.parametrize("eps", [0.4e-6, 0.6e-6, -0.4e-6, -0.6e-6])
    def test_tolerance_holds_on_every_entry(self, entry, eps):
        # R = I + eps (e_i e_j' + e_j e_i') / (1 + [i == j]) moves entry (i, j)
        # of R R' - I by 2 eps and any other entry by at most eps^2
        i, j = entry
        rot = np.eye(3)
        rot[i, j] += eps
        if i != j:
            rot[j, i] += eps
        accepted = abs(2.0 * eps) <= 1e-6
        assert pose_check_reference(rot, np.zeros(3)) == accepted
        if accepted:
            Pose(rot, np.zeros(3))
        else:
            with pytest.raises(ValueError, match="orthonormal"):
                Pose(rot, np.zeros(3))
