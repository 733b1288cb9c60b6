import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma, gammainc
from scipy.stats import chi

from robls.adaptive import CHEBROLU_DOMAIN, optimize_alpha
from robls import mbfit
from robls.loss import weight
from robls.mbfit import (
    A_HI,
    A_LO,
    A_SCAN,
    CHI_THRESHOLD_P,
    MAX_BINS,
    MAX_DOF,
    DegenerateHistogramError,
    MbFit,
    _chi_cdf,
    _chi_norm,
    _fit_criterion,
    _half_gamma,
    adaptive_mb_weights,
    build_histogram,
    chi_quantile,
    fit_mb,
)

from oracles import (
    PROPERTY,
    chi_quantile_reference,
    dmb_da,
    fit_criterion_reference,
    grid_search_a,
    mb_pdf,
)


class TestMbPdf:
    def test_reduces_to_chi_at_unit_shape(self):
        x = np.linspace(0.01, 6, 200)
        for n_e in (1, 3, 6):
            assert np.allclose(mb_pdf(x, 1.0, n_e), chi(n_e).pdf(x), atol=1e-12)

    @pytest.mark.parametrize("a,n_e", [(1.0, 3), (0.5, 6), (2.0, 2)])
    def test_normalized(self, a, n_e):
        total, _ = quad(lambda x: mb_pdf(x, a, n_e), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("a,n_e", [(1.0, 2), (0.7, 3), (1.8, 6)])
    def test_argmax_at_mode_formula(self, a, n_e):
        x = np.linspace(1e-4, 8 * a, 200_001)
        peak = x[np.argmax(mb_pdf(x, a, n_e))]
        assert peak == pytest.approx(a * np.sqrt(n_e - 1), abs=1e-3)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            mb_pdf(1.0, -1.0, 3)


class TestDmbDa:
    def test_matches_finite_difference(self):
        h = 1e-7
        fd = (mb_pdf(1.5, 1.0 + h, 3) - mb_pdf(1.5, 1.0 - h, 3)) / (2 * h)
        assert dmb_da(1.5, 1.0, 3) == pytest.approx(fd, rel=1e-6)

    def test_stationary_at_matched_scale(self):
        for a, n_e in [(1.0, 3), (0.5, 6)]:
            assert dmb_da(a * np.sqrt(n_e), a, n_e) == pytest.approx(0.0, abs=1e-12)

    def test_small_residuals_prefer_smaller_scale(self):
        assert dmb_da(0.1, 1.0, 6) < 0.0


class TestChiQuantile:
    def test_three_sigma_point_matches_gaussian_tail(self):
        assert chi_quantile(1, 0.9973) == pytest.approx(3.0, abs=5e-3)

    def test_monotone_in_p(self):
        q = [chi_quantile(3, p) for p in (0.5, 0.9, 0.99, 0.999, 0.999999)]
        assert np.all(np.diff(q) > 0)

    def test_median_against_monte_carlo(self, rng):
        samples = np.linalg.norm(rng.standard_normal((1_000_000, 6)), axis=1)
        assert chi_quantile(6, 0.5) == pytest.approx(np.median(samples), abs=0.01)

    def test_against_scipy(self):
        for n_e, p in [(1, 0.9), (3, 0.9973), (6, 0.5), (4, 0.1)]:
            assert chi_quantile(n_e, p) == pytest.approx(chi(n_e).ppf(p), abs=1e-7)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            chi_quantile(3, 1.0)

    def test_bracket_holds_every_quantile(self):
        # chi_quantile bisects on [0, n + 10] without widening it, which holds
        # every p < 1 only while the CDF there rounds to exactly 1.
        assert all(_chi_cdf(n, n + 10.0) == 1.0 for n in range(1, MAX_DOF + 1))

    @pytest.mark.parametrize("n_e", [3, 6])
    @pytest.mark.parametrize("p", [0.5, 0.9973])
    def test_bit_identical_to_incomplete_gamma_bisection(self, n_e, p):
        assert chi_quantile(n_e, p) == chi_quantile_reference(n_e, p)

    @pytest.mark.parametrize("n_e", [2.5, 3.0, True, np.float64(3.0), "3", 0, -2, MAX_DOF + 1])
    def test_non_integer_or_out_of_range_dof_rejected(self, n_e):
        # The closed forms hold only for integer degrees of freedom up to
        # MAX_DOF; 3.0 must not hit the cache entry of 3.
        chi_quantile(3, 0.5)
        with pytest.raises(ValueError):
            chi_quantile(n_e, 0.5)
        with pytest.raises(ValueError):
            _chi_norm(1.0, n_e)

    def test_numpy_integer_dof_accepted(self):
        assert chi_quantile(np.int64(3), 0.5) == chi_quantile(3, 0.5)
        assert _chi_norm(1.0, np.int32(6)) == _chi_norm(1.0, 6)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9973])
    def test_largest_dof_against_scipy(self, p):
        assert chi_quantile(MAX_DOF, p) == pytest.approx(chi(MAX_DOF).ppf(p), abs=1e-7)

    def test_max_dof_is_the_last_with_a_finite_criterion_power(self):
        # The shape fit's criterion raises eps = c / a to the power n_e - 1,
        # with the bin centres c below the threshold quantile and a >= A_LO.
        n = MAX_DOF
        assert math.isfinite((chi_quantile(n, CHI_THRESHOLD_P) / A_LO) ** (n - 1))
        with pytest.raises(OverflowError):
            (chi_quantile_reference(n + 1, CHI_THRESHOLD_P) / A_LO) ** n


def chi_norm_reference(a, n_e):
    return a**n_e * 2.0 ** (0.5 * n_e - 1.0) * gamma(0.5 * n_e)


class TestChiClosedForms:
    """The Chi normalizer and CDF against scipy.special."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_half_gamma_bit_identical(self, n):
        # math.gamma(n / 2) is one ulp off at n = 3 and 5
        assert _half_gamma(n) == gamma(0.5 * n)

    @pytest.mark.parametrize("n_e", [3, 6])
    def test_norm_bit_identical_where_the_commands_reach(self, n_e):
        assert _chi_norm(1.0, n_e) == chi_norm_reference(1.0, n_e)

    @pytest.mark.parametrize("n_e", range(1, 13))
    def test_norm_within_two_ulp(self, n_e):
        want = chi_norm_reference(1.0, n_e)
        assert abs(_chi_norm(1.0, n_e) - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("n_e", range(1, 13))
    def test_cdf_matches_incomplete_gamma_on_a_grid(self, n_e):
        x = np.concatenate([np.linspace(0.0, 3.0 * (n_e + 4), 601), np.geomspace(1e-8, 1e3, 200)])
        got = np.array([_chi_cdf(n_e, float(v)) for v in x])
        assert np.abs(got - gammainc(0.5 * n_e, 0.5 * x * x)).max() <= 1e-14

    @PROPERTY
    @given(n_e=st.integers(1, MAX_DOF), x=st.floats(0.0, 100.0))
    def test_cdf_matches_incomplete_gamma(self, n_e, x):
        assert abs(_chi_cdf(n_e, x) - gammainc(0.5 * n_e, 0.5 * x * x)) <= 1e-14


class TestBuildHistogram:
    def test_degenerate_identical_residuals(self):
        with pytest.raises(DegenerateHistogramError):
            build_histogram(np.full(50, 0.5), 1.0)

    def test_uniform_density_near_one(self, rng):
        # 10^6 residuals in MAX_BINS = 100 bins: 10^4 per bin
        r = rng.uniform(0, 1, 1_000_000)
        hist = build_histogram(r, 1.0)
        assert len(hist.density) == MAX_BINS
        assert np.allclose(hist.density, 1.0, atol=0.05)

    def test_density_integrates_to_one(self, rng):
        r = rng.uniform(0, 3, 5000)
        hist = build_histogram(r, r.max())
        widths = np.diff(hist.edges)
        assert np.sum(hist.density * widths) == pytest.approx(1.0, abs=1e-9)

    def test_edges_strictly_increasing(self, rng):
        r = np.abs(rng.standard_normal(500))
        hist = build_histogram(r, r.max())
        assert np.all(np.diff(hist.edges) > 0)

    @pytest.mark.parametrize("upper", [None, 4.0])
    def test_linear_binning_integrates_to_one(self, rng, upper):
        r = rng.uniform(0, 3, 37)  # 7 bins
        hist = build_histogram(r, r.max() if upper is None else upper)
        assert len(hist.density) == 7
        assert np.sum(hist.density * np.diff(hist.edges)) == pytest.approx(1.0, abs=1e-12)

    def test_residuals_on_bin_centres_give_hard_histogram(self, rng):
        k, top = 8, 4.0
        centres = (np.arange(k) + 0.5) * top / k
        r = np.concatenate([rng.choice(centres, 60), [top]])  # 61 residuals: 8 bins
        hist = build_histogram(r, top)
        hard, _ = np.histogram(r, bins=k, range=(0.0, top), density=True)
        assert len(hist.density) == k
        assert np.allclose(hist.density, hard, rtol=0, atol=1e-12)

    def test_mass_splits_between_neighbouring_centres(self):
        # MIN_BINS = 5 bins, centres at 0.5, 1.5, 2.5, 3.5, 4.5: 1.25 gives
        # 0.25 to 0.5 and 0.75 to 1.5, the top edge 5.0 gives all its mass
        # to the last bin
        hist = build_histogram([0.5, 1.25, 5.0], 5.0)
        assert np.allclose(hist.density * 3, [1.25, 0.75, 0.0, 0.0, 1.0])


class TestFitMb:
    def test_chi3_recovery(self, rng):
        r = np.linalg.norm(rng.standard_normal((10_000, 3)), axis=1)
        fit = fit_mb(r, 3)
        assert fit.a_star == pytest.approx(1.0, abs=0.05)
        assert fit.mode == pytest.approx(np.sqrt(2.0), abs=0.07)

    def test_scale_equivariance(self, rng):
        r = np.linalg.norm(rng.standard_normal((10_000, 3)), axis=1)
        fit = fit_mb(0.5 * r, 3)
        assert fit.a_star == pytest.approx(0.5, abs=0.03)

    def test_grid_equivalence(self, rng):
        for _ in range(4):
            scale = rng.uniform(0.4, 2.0)
            n_out = int(rng.integers(0, 2000))
            r = np.concatenate(
                [scale * np.linalg.norm(rng.standard_normal((6000, 3)), axis=1),
                 rng.uniform(4 * scale, 8 * scale, n_out)]
            )
            fit = fit_mb(r, 3)
            assert abs(fit.a_star - grid_search_a(r, 3)) <= 0.02

    def test_objective_beats_unit_shape_and_endpoints(self, rng):
        r = np.concatenate(
            [0.8 * np.linalg.norm(rng.standard_normal((4000, 3)), axis=1),
             rng.uniform(3, 7, 500)]
        )
        fit = fit_mb(r, 3)
        value = fit_value(r, 3, fit.a_star)
        for probe in (1.0, 0.1, 5.0):
            assert value <= grid_probe(r, 3, probe) + 1e-12

    @pytest.mark.parametrize("a", [0.3, 0.8, 1.0, 2.5])
    def test_criterion_derivatives_match_finite_differences(self, rng, a):
        r = np.concatenate(
            [0.8 * np.linalg.norm(rng.standard_normal((400, 3)), axis=1), rng.uniform(3, 7, 60)]
        )
        thresh = chi_quantile(3, 0.9973)
        hist = build_histogram(r[r < thresh], upper=thresh)
        criterion = _fit_criterion(hist, 3)
        value, grad, hess = criterion(a)
        p, q = mb_pdf(hist.centers, a, 3), hist.density
        assert grad == pytest.approx(2.0 * np.sum(q * q * (p - q) * dmb_da(hist.centers, a, 3)))
        h = 1e-6 * a
        up, down = criterion(a + h), criterion(a - h)
        assert grad == pytest.approx((up[0] - down[0]) / (2 * h), rel=1e-5, abs=1e-12)
        assert hess == pytest.approx((up[1] - down[1]) / (2 * h), rel=1e-5, abs=1e-12)

    @PROPERTY
    @given(n_e=st.integers(1, 8), n=st.integers(2, 3000), a=st.floats(A_LO, A_HI),
           seed=st.integers(0, 2**16))
    def test_criterion_equals_the_reference(self, n_e, n, a, seed):
        # Hoisting what does not depend on a keeps every bit, for the
        # Newton evaluations (a scalar a) and the start scan (a column).
        rng = np.random.default_rng(seed)
        r = np.linalg.norm(rng.standard_normal((n, n_e)), axis=1) * rng.uniform(0.3, 3.0)
        hist = build_histogram(r, r.max())
        criterion = _fit_criterion(hist, n_e)
        assert criterion(a) == fit_criterion_reference(hist, a, n_e)
        column = np.concatenate([[a], A_SCAN])[:, None]
        for got, want in zip(criterion(column), fit_criterion_reference(hist, column, n_e)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 0.1, 1.0])
    def test_finite_at_max_dof(self, rng, scale):
        # Norms far below the Chi scale push the fit towards A_LO, where the
        # criterion's power eps ** (n_e - 1) is largest.
        r = scale * np.linalg.norm(rng.standard_normal((200, MAX_DOF)), axis=1)
        with np.errstate(over="raise", invalid="raise"):
            fit = fit_mb(r, MAX_DOF)
            value = fit_value(r, MAX_DOF, fit.a_star)
        assert A_LO <= fit.a_star <= A_HI and math.isfinite(value)

    def test_empty_after_threshold_falls_back(self):
        fit = fit_mb(np.full(30, 50.0), 3)
        assert fit.fallback and fit.a_star == 1.0

    def test_degenerate_falls_back(self):
        fit = fit_mb(np.full(30, 0.5), 3)  # 0.5 is below the threshold
        assert fit.fallback and fit.a_star == 1.0


def fit_value(residuals, n_e, a):
    """The criterion that :func:`fit_mb` minimizes for ``residuals``, at ``a``."""
    r = np.asarray(residuals, float)
    thresh = chi_quantile(n_e, 0.9973)
    return _fit_criterion(build_histogram(r[r < thresh], thresh), n_e)(a)[0]


def grid_probe(residuals, n_e, a):
    r = np.asarray(residuals, float)
    thresh = chi_quantile(n_e, 0.9973)
    return fit_criterion_reference(build_histogram(r[r < thresh], upper=thresh), a, n_e)[0]


class TestShiftResiduals:
    """The partition and shift inside ``adaptive_mb_weights``, at a mode
    pinned by replacing the Chi fit."""

    @staticmethod
    def weights_at_mode(monkeypatch, r, mode, tau=10.0):
        monkeypatch.setattr(mbfit, "fit_mb", lambda r, n_e, x0=None: MbFit(1.0, mode))
        return adaptive_mb_weights(r, 3, tau)

    @staticmethod
    def expected_above(xi, nu):
        alpha = optimize_alpha(xi, CHEBROLU_DOMAIN, bounds=(0.0, nu)).alpha_star
        return alpha, weight(xi, alpha)

    def test_direct_application(self, monkeypatch):
        mode = np.sqrt(2.0)
        w, diag = self.weights_at_mode(monkeypatch, [3.0, 0.5, mode], mode)
        assert diag.inlier_fraction == pytest.approx(1.0 / 3.0) and diag.below_mode == 1
        alpha, w_above = self.expected_above(np.array([3.0 - mode, 0.0]), 10.0 - mode)
        assert diag.alpha_star == alpha
        assert w[1] == 1.0 and np.array_equal(w[[0, 2]], w_above)

    def test_all_below_mode(self, monkeypatch):
        w, diag = self.weights_at_mode(monkeypatch, [0.1, 0.2], 1.0)
        assert np.all(w == 1.0) and diag.inlier_fraction == 1.0 and diag.alpha_star == 2.0

    def test_zero_mode_passthrough(self, monkeypatch):
        r = np.array([0.3, 1.0, 2.5])
        w, diag = self.weights_at_mode(monkeypatch, r, 0.0)
        alpha, w_above = self.expected_above(r, 10.0)
        assert diag.inlier_fraction == 0.0 and diag.alpha_star == alpha
        assert np.array_equal(w, w_above)


NORMS = st.one_of(st.just(0.0), st.floats(0.0, 40.0))


@st.composite
def below_mode_cases(draw):
    """``(n_e, norms)``: free sets with exact zeros, all-equal sets, or
    Chi(n_e) inliers at a drawn scale plus uniform outliers."""
    n_e = draw(st.sampled_from([1, 2, 3, 6]))
    shape = draw(st.sampled_from(["free", "equal", "chi"]))
    if shape == "free":
        return n_e, np.array(draw(st.lists(NORMS, min_size=1, max_size=200)))
    if shape == "equal":
        return n_e, np.full(draw(st.integers(1, 200)), draw(NORMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_in, scale = draw(st.integers(1, 500)), draw(st.floats(0.1, 3.0))
    n_out, spread = draw(st.integers(0, 300)), draw(st.floats(1.0, 40.0))
    inliers = scale * np.linalg.norm(rng.standard_normal((n_in, n_e)), axis=1)
    return n_e, np.concatenate([inliers, rng.uniform(0.0, spread, n_out)])


class TestAdaptiveMbWeights:
    def test_below_mode_exactly_one(self, rng):
        r = np.linalg.norm(rng.standard_normal((3000, 3)), axis=1)
        w, diag = adaptive_mb_weights(r, 3, 10.0)
        assert diag.below_mode_violations == 0
        assert np.all(w[r < diag.mode] == 1.0)

    @PROPERTY
    @given(case=below_mode_cases(), tau=st.sampled_from([10.0, 20.0]))
    def test_below_mode_rule_holds_on_any_set(self, case, tau):
        n_e, r = case
        w, diag = adaptive_mb_weights(r, n_e, tau)
        assert np.all(np.isfinite(w)) and w.min() >= 0.0 and w.max() <= 1.0
        below = r < diag.mode
        assert np.all(w[below] == 1.0)
        assert diag.below_mode == np.count_nonzero(below)
        assert diag.below_mode_violations == 0
        assert diag.inlier_fraction == diag.below_mode / r.size

    def test_clean_chi3(self, rng):
        r = np.linalg.norm(rng.standard_normal((10_000, 3)), axis=1)
        w, diag = adaptive_mb_weights(r, 3, 10.0)
        assert np.mean(w == 1.0) >= 0.30
        assert diag.alpha_star >= 0.5  # near the Gaussian end on clean data

    def test_outlier_group_strongly_downweighted(self, rng):
        inliers = np.linalg.norm(rng.standard_normal((7000, 3)), axis=1)
        outliers = rng.uniform(6, 9, 3000)
        w, _ = adaptive_mb_weights(np.concatenate([inliers, outliers]), 3, 10.0)
        assert np.mean(w[7000:]) < 0.2 * np.mean(w[:7000])

    def test_weights_nonincreasing_above_mode(self, rng):
        r = np.concatenate(
            [np.linalg.norm(rng.standard_normal((5000, 3)), axis=1), rng.uniform(5, 9, 800)]
        )
        w, diag = adaptive_mb_weights(r, 3, 10.0)
        above = r >= diag.mode
        order = np.argsort(r[above])
        assert np.all(np.diff(w[above][order]) <= 1e-12)

    def test_mode_scale_consistency(self, rng):
        r = np.linalg.norm(rng.standard_normal((20_000, 3)), axis=1)
        _, d1 = adaptive_mb_weights(r, 3, 10.0)
        _, d2 = adaptive_mb_weights(0.7 * r, 3, 10.0)
        assert d2.mode == pytest.approx(0.7 * d1.mode, rel=0.05)

    def test_unit_dimension_reduces_to_truncated_adaptive(self, rng):
        # with mode 0 the shifted problem IS the truncated-adaptive problem
        # over [0, tau]; weights must match it exactly
        r = np.abs(rng.standard_normal(2000))
        w, diag = adaptive_mb_weights(r, 1, 10.0)
        assert diag.mode == 0.0
        direct = optimize_alpha(r, CHEBROLU_DOMAIN, (0.0, 10.0))
        expected = weight(r, direct.alpha_star)
        assert np.array_equal(w, expected)
        # and the symmetric-bounds variant agrees on the shape parameter
        sym = optimize_alpha(r, CHEBROLU_DOMAIN, (-10.0, 10.0))
        assert diag.alpha_star == pytest.approx(sym.alpha_star, abs=1e-3)

    def test_all_below_mode_gives_unit_weights(self):
        w, diag = adaptive_mb_weights(np.full(10, 0.0), 3, 10.0)
        assert np.all(w == 1.0) and diag.alpha_star == 2.0
