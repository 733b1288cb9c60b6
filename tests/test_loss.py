import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robls.adaptive import BARRON_DOMAIN, CHEBROLU_DOMAIN, optimize_alpha
from robls.loss import (
    ALPHA_MIN,
    BRANCH_TOL,
    DEFAULT_TUNING,
    fixed_weight,
    rho,
    rho_alpha_derivs,
    var_trimmed_weights,
    weight,
)
from robls.mbfit import adaptive_mb_weights, fit_mb
from robls.weighting import RLF_KINDS, RobustLoss, _median

from oracles import PROPERTY, fd_d2rho_dalpha2, fd_drho_deps, fd_drho_dalpha, rho_reference


class TestRho:
    def test_quadratic_branch(self):
        assert rho(2.0, 2.0) == pytest.approx(2.0)

    def test_welsch_zero(self):
        assert rho(0.0, -np.inf) == 0.0

    def test_cauchy_branch(self):
        assert rho(2.0, 0.0) == pytest.approx(np.log(3.0))

    def test_zero_for_all_alphas(self):
        for a in [2.0, 1.0, 0.0, -1.0, -10.0, ALPHA_MIN, -np.inf]:
            assert rho(0.0, a) == 0.0

    def test_nondecreasing_in_eps(self, rng):
        eps = np.linspace(0.0, 15.0, 400)
        for a in [2.0, 1.3, 0.0, -0.7, -5.0, -np.inf]:
            vals = rho(eps, a)
            assert np.all(np.diff(vals) >= -1e-12)

    def test_below_alpha_min_maps_to_welsch(self):
        eps = np.linspace(0.0, 20.0, 50)
        assert np.allclose(rho(eps, -80.0), rho(eps, -np.inf))

    def test_rejects_alpha_above_two(self):
        with pytest.raises(ValueError):
            rho(1.0, 2.5)


class TestWeight:
    def test_gaussian_is_one(self, rng):
        assert np.all(weight(rng.uniform(0, 10, 50), 2.0) == 1.0)

    def test_cauchy_value(self):
        assert weight(2.0, 0.0) == pytest.approx(1.0 / 3.0)

    def test_welsch_value(self):
        assert weight(1.0, -np.inf) == pytest.approx(np.exp(-0.5))

    def test_unit_at_zero_for_every_alpha(self):
        for a in [2.0, 1.0, 0.5, 0.0, -3.0, -20.0, -np.inf]:
            assert weight(0.0, a) == pytest.approx(1.0)

    def test_bounds(self, rng):
        eps = rng.uniform(0, 20, 200)
        for a in [2.0, 1.0, 0.0, -1.0, -7.0, -np.inf]:
            w = weight(eps, a)
            assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_nondecreasing_in_alpha(self):
        # heavier tails (lower alpha) downweight more at every fixed eps
        alphas = np.linspace(-20.0, 2.0, 45)
        for eps in np.linspace(0.1, 10.0, 25):
            w = np.array([weight(eps, a) for a in alphas])
            assert np.all(np.diff(w) >= -1e-12)

    def test_influence_consistency(self, rng):
        # weight * eps equals d(rho)/d(eps), checked per branch
        for a in [2.0, 0.0, -np.inf, 1.2, -0.8, -6.0, -30.0]:
            eps = rng.uniform(0.05, 10.0, 200)
            fd = np.asarray(fd_drho_deps(eps, a), dtype=float)
            lhs = weight(eps, a) * eps
            assert np.allclose(lhs, fd, rtol=1e-5, atol=1e-14)


class TestBranchContinuity:
    @pytest.mark.parametrize("eps", [0.1, 1.0, 5.0])
    def test_cauchy_boundary(self, eps):
        for a in (BRANCH_TOL, -BRANCH_TOL):
            # force the general branch by evaluating just outside the switch
            general_rho = rho_reference(eps, a * 1.0000001)
            general_w = (1.0 + eps * eps / abs(a - 2.0)) ** (a / 2.0 - 1.0)
            assert abs(float(general_rho) - rho(eps, 0.0)) < 1e-6
            assert abs(general_w - weight(eps, 0.0)) < 1e-6


ALPHAS = st.one_of(st.floats(2.0 * ALPHA_MIN, 2.0), st.just(-np.inf))
EPS = st.floats(0.0, 1e6)
EPS_20 = st.floats(0.0, 20.0)
SWITCH_OFFSET = st.floats(-4.0 * BRANCH_TOL, 4.0 * BRANCH_TOL)

# Largest gap between the general branch at ALPHA_MIN and the alpha = -inf
# limit over eps in [0, 20] (see the ALPHA_MIN comment in robls.loss).
WELSCH_GAP_WEIGHT = 0.0104
WELSCH_GAP_RHO = 0.0401


class TestKernelProperties:
    @PROPERTY
    @given(eps=st.lists(EPS, min_size=1, max_size=16), alpha=ALPHAS)
    def test_weights_finite_in_unit_interval(self, eps, alpha):
        w = weight(np.array(eps), alpha)
        assert np.all(np.isfinite(w)) and np.all((w >= 0.0) & (w <= 1.0))

    @PROPERTY
    @given(alpha=ALPHAS)
    def test_unit_weight_at_zero(self, alpha):
        assert weight(0.0, alpha) == 1.0

    @PROPERTY
    @given(a=EPS, b=EPS, alpha=ALPHAS)
    def test_rho_nondecreasing(self, a, b, alpha):
        lo, hi = min(a, b), max(a, b)
        assert rho(hi, alpha) >= rho(lo, alpha) - 1e-12 * max(1.0, abs(rho(lo, alpha)))

    @PROPERTY
    @given(switch=st.sampled_from([0.0, 2.0]), offset=SWITCH_OFFSET, eps=EPS_20)
    def test_continuous_across_branch_switches(self, switch, offset, eps):
        alpha = min(switch + offset, 2.0)
        assert abs(weight(eps, alpha) - weight(eps, switch)) <= 1e-4
        limit = rho(eps, switch)
        assert abs(rho(eps, alpha) - limit) <= 1e-4 * max(1.0, limit)

    @PROPERTY
    @given(offset=SWITCH_OFFSET, eps=EPS_20)
    def test_alpha_min_gap_to_welsch_limit(self, offset, eps):
        alpha = ALPHA_MIN + offset
        assert abs(weight(eps, alpha) - weight(eps, -np.inf)) <= WELSCH_GAP_WEIGHT
        assert abs(rho(eps, alpha) - rho(eps, -np.inf)) <= WELSCH_GAP_RHO


class TestDrhoDalpha:
    def test_zero_at_eps_zero(self):
        assert rho_alpha_derivs(0.0, 1.3)[1] == 0.0

    @pytest.mark.parametrize("eps,alpha", [(1.0, 1.0), (3.0, -2.0)])
    def test_matches_finite_difference(self, eps, alpha):
        fd = float(fd_drho_dalpha(eps, alpha))
        assert rho_alpha_derivs(eps, alpha)[1] == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize(
        "eps,alpha", [(1.0, 1.0), (3.0, -2.0), (0.5, 1.875), (0.3, 1.5), (2.0, 0.25), (7.0, -12.0)]
    )
    def test_second_derivative_matches_finite_difference(self, eps, alpha):
        fd = float(fd_d2rho_dalpha2(eps, alpha))
        assert rho_alpha_derivs(eps, alpha)[2] == pytest.approx(fd, rel=1e-6)

    def test_value_matches_rho(self):
        eps = np.linspace(0.0, 30.0, 61)
        for alpha in (1.9, 0.4, -0.4, -7.0, ALPHA_MIN):
            assert np.array_equal(rho_alpha_derivs(eps, alpha)[0], rho(eps, alpha))

    def test_rejects_branch_points(self):
        for a in [0.0, 2.0, BRANCH_TOL / 2, 2.0 - BRANCH_TOL / 2, -np.inf]:
            with pytest.raises(ValueError):
                rho_alpha_derivs(1.0, a)


class TestFixedKernelScale:
    """RobustLoss divides residual norms by the Chi(n_e)-consistent sigma."""

    @staticmethod
    def scale(r, n_e, kind="cauchy"):
        return RobustLoss(kind).weights(r, n_e=n_e).diagnostics["chi_sigma"]

    @pytest.mark.parametrize("n_e", [1, 3, 6])
    def test_sigma_consistent_on_gaussian_norms(self, rng, n_e):
        r = np.linalg.norm(rng.standard_normal((20_000, n_e)), axis=1)
        for kind in ("cauchy", "tukey", "welsch"):
            assert self.scale(r, n_e, kind) == pytest.approx(1.0, rel=0.05)

    @pytest.mark.parametrize("n_e", [1, 3, 6])
    def test_linear_in_residuals(self, rng, n_e):
        r = np.linalg.norm(rng.standard_normal((200, n_e)), axis=1)
        for k in (0.01, 3.7, 250.0):
            assert self.scale(k * r, n_e) == pytest.approx(k * self.scale(r, n_e), rel=1e-12)
            w = RobustLoss("tukey").weights(k * r, n_e=n_e).weights
            assert np.allclose(w, RobustLoss("tukey").weights(r, n_e=n_e).weights)

    @PROPERTY
    @given(r=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=60),
           ties=st.integers(0, 3))
    def test_median_is_numpy_median(self, r, ties):
        r = np.round(np.asarray(r), ties)  # rounding makes ties
        assert _median(r) == np.median(r)

    def test_one_dimensional_equals_signed_mad(self, rng):
        r = np.abs(rng.standard_normal(301))
        signed = np.concatenate([r, -r])
        mad = 1.4826 * np.median(np.abs(signed - np.median(signed)))
        assert self.scale(r, 1) == pytest.approx(mad, rel=1e-5)


@pytest.mark.parametrize("tau", [0.0, -2.0, np.nan, np.inf, -np.inf, 1000.5, 1e6, 5e-324, 1e-310])
class TestTauRejected:
    def test_robust_loss(self, tau):
        for kind in ("barron", "chebrolu", "adaptive_mb"):
            with pytest.raises(ValueError, match="tau must be positive and finite"):
                RobustLoss(kind, tau=tau)

    def test_adaptive_mb_weights(self, rng, tau):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            adaptive_mb_weights(np.abs(rng.standard_normal(50)), n_e=3, tau=tau)


# Every public function that takes a residual set, by kind for RobustLoss.weights.
RESIDUAL_ENTRIES = {
    **{kind: RobustLoss(kind).weights for kind in RLF_KINDS},
    "adaptive_mb_weights": lambda r: adaptive_mb_weights(r, 3),
    "fit_mb": lambda r: fit_mb(r, 3),
    "optimize_alpha-barron": lambda r: optimize_alpha(r, BARRON_DOMAIN, (-10.0, 10.0)),
    "optimize_alpha-chebrolu": lambda r: optimize_alpha(r, CHEBROLU_DOMAIN, (0.0, 10.0)),
    "var_trimmed_weights": var_trimmed_weights,
}


@pytest.mark.parametrize("bad, what", [(np.nan, "1 NaN"), (np.inf, "1 infinite"),
                                       (-1.0, "1 negative"), (None, "empty")])
@pytest.mark.parametrize("entry", RESIDUAL_ENTRIES.values(), ids=RESIDUAL_ENTRIES.keys())
def test_weights_reject_non_finite_or_negative_norms(entry, bad, what):
    r = np.abs(np.random.default_rng(3).standard_normal(40))
    if bad is None:
        r, pattern = r[:0], "^residual list must be nonempty$"
    else:
        r[7], pattern = bad, f"finite and nonnegative.*{what}"
    with pytest.raises(ValueError, match=pattern):
        entry(r)


def test_tau_cap_named_and_accepted():
    with pytest.raises(ValueError, match="at most 1000"):
        RobustLoss("barron", tau=np.nextafter(1000.0, np.inf))
    assert RobustLoss("barron", tau=1000.0).tau == 1000.0


class TestFixedWeight:
    def test_cauchy_at_zero(self):
        assert fixed_weight("cauchy", 0.0) == pytest.approx(1.0)

    def test_tukey_support_boundary(self):
        c = DEFAULT_TUNING["tukey"]
        assert fixed_weight("tukey", c) == pytest.approx(0.0)
        assert fixed_weight("tukey", c * 1.5) == 0.0

    def test_welsch_at_c(self):
        assert fixed_weight("welsch", DEFAULT_TUNING["welsch"]) == pytest.approx(np.exp(-1.0))

    def test_default_tuning_constants(self):
        assert DEFAULT_TUNING == pytest.approx({"cauchy": 2.3849, "tukey": 4.6851, "welsch": 2.9846})

    def test_unknown_kind_rejected(self):
        for kind in ("huber", "var_trimmed"):
            with pytest.raises(ValueError, match="does not handle"):
                fixed_weight(kind, np.ones(3))


def stable_order_weights(residuals):
    """The var_trimmed rule by brute force: score every k over a stable
    argsort and keep its first best k."""
    n = len(residuals)
    order = np.argsort(residuals, kind="stable")
    prefix = np.cumsum(residuals[order] ** 2)
    best_k = min(range(max(1, int(np.ceil(0.4 * n))), n + 1),
                 key=lambda k: (prefix[k - 1] / k) / (k / n) ** 2)
    expected = np.zeros(n)
    expected[order[:best_k]] = 1.0
    return expected


class TestVarTrimmed:
    def test_all_equal_keeps_everything(self):
        w = var_trimmed_weights(np.full(37, 2.5))
        assert np.all(w == 1.0)

    def test_single_residual(self):
        assert var_trimmed_weights([0.7]).tolist() == [1.0]

    def test_outliers_rejected(self, rng):
        residuals = np.concatenate([np.abs(rng.standard_normal(90)), np.full(10, 100.0)])
        order = rng.permutation(100)
        w = var_trimmed_weights(residuals[order])
        assert np.all(w[residuals[order] == 100.0] == 0.0)

    def test_matches_brute_force_criterion(self, rng):
        # the selected fraction must score no worse than any brute-force fraction
        residuals = np.concatenate([np.abs(rng.standard_normal(60)), rng.uniform(5, 30, 25)])
        w = var_trimmed_weights(residuals)
        k_sel = int(w.sum())
        srt = np.sort(residuals) ** 2
        prefix = np.cumsum(srt)
        n = len(residuals)

        def crit(k):
            return (prefix[k - 1] / k) / (k / n) ** 2

        best_k = min(range(int(np.ceil(0.4 * n)), n + 1), key=crit)
        assert crit(k_sel) <= crit(best_k) * (1.0 + 1e-9)

    def test_binary_weights(self, rng):
        w = var_trimmed_weights(rng.uniform(0, 5, 101))
        assert set(np.unique(w)) <= {0.0, 1.0}

    @PROPERTY
    @given(n=st.integers(1, 200), outlier_share=st.floats(0.0, 0.8),
           seed=st.integers(0, 2**32 - 1))
    def test_kept_set_is_brute_force_argmin(self, n, outlier_share, seed):
        rng = np.random.default_rng(seed)
        n_out = int(round(outlier_share * n))
        residuals = np.concatenate(
            [np.abs(rng.standard_normal(n - n_out)), rng.uniform(0.0, 30.0, n_out)]
        )
        assert np.array_equal(var_trimmed_weights(residuals), stable_order_weights(residuals))

    @PROPERTY
    @given(n=st.integers(1, 6000), levels=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_ties_at_the_cut_keep_the_stable_order(self, n, levels, seed):
        # Few distinct values, so the k-th smallest is tied on both sides of
        # the cut: the kept set is the first k of the stable argsort.
        rng = np.random.default_rng(seed)
        values = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 30.0, levels - 1))])
        residuals = rng.choice(values, n, p=rng.dirichlet(np.ones(levels)))
        assert np.array_equal(var_trimmed_weights(residuals), stable_order_weights(residuals))
