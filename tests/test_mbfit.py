import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi

from robls.adaptive import CHEBROLU_DOMAIN, optimize_alpha
from robls.loss import weight
from robls.mbfit import (
    DegenerateHistogramError,
    adaptive_mb_weights,
    build_histogram,
    chi_quantile,
    dmb_da,
    fit_mb,
    mb_pdf,
    shift_residuals,
)

from conftest import grid_search_a


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


class TestBuildHistogram:
    def test_degenerate_identical_residuals(self):
        with pytest.raises(DegenerateHistogramError):
            build_histogram(np.full(50, 0.5))

    def test_uniform_density_near_one(self, rng):
        hist = build_histogram(rng.uniform(0, 1, 100_000), n_bins=10)
        assert np.allclose(hist.density, 1.0, atol=0.05)

    def test_density_integrates_to_one(self, rng):
        hist = build_histogram(rng.uniform(0, 3, 5000))
        widths = np.diff(hist.edges)
        assert np.sum(hist.density * widths) == pytest.approx(1.0, abs=1e-9)

    def test_edges_strictly_increasing(self, rng):
        hist = build_histogram(np.abs(rng.standard_normal(500)))
        assert np.all(np.diff(hist.edges) > 0)

    @pytest.mark.parametrize("upper", [None, 4.0])
    def test_linear_binning_integrates_to_one(self, rng, upper):
        hist = build_histogram(rng.uniform(0, 3, 37), n_bins=7, upper=upper)
        assert np.sum(hist.density * np.diff(hist.edges)) == pytest.approx(1.0, abs=1e-12)

    def test_residuals_on_bin_centres_give_hard_histogram(self, rng):
        k, top = 8, 4.0
        centres = (np.arange(k) + 0.5) * top / k
        r = np.concatenate([rng.choice(centres, 60), [top]])
        hist = build_histogram(r, n_bins=k, upper=top)
        hard, _ = np.histogram(r, bins=k, range=(0.0, top), density=True)
        assert np.allclose(hist.density, hard, rtol=0, atol=1e-12)

    def test_mass_splits_between_neighbouring_centres(self):
        # centres at 0.5, 1.5, 2.5, 3.5: 1.25 gives 0.25 to 0.5 and 0.75 to
        # 1.5, the top edge 4.0 gives all its mass to the last bin
        hist = build_histogram([0.5, 1.25, 4.0], n_bins=4, upper=4.0)
        assert np.allclose(hist.density * 3, [1.25, 0.75, 0.0, 1.0])


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
        for probe in (1.0, 0.1, 5.0):
            assert fit.objective <= grid_probe(r, 3, probe) + 1e-12

    @pytest.mark.parametrize("a", [0.3, 0.8, 1.0, 2.5])
    def test_criterion_derivatives_match_finite_differences(self, rng, a):
        from robls.mbfit import _fit_criterion

        r = np.concatenate(
            [0.8 * np.linalg.norm(rng.standard_normal((400, 3)), axis=1), rng.uniform(3, 7, 60)]
        )
        thresh = chi_quantile(3, 0.9973)
        hist = build_histogram(r[r < thresh], upper=thresh)
        value, grad, hess = _fit_criterion(hist, a, 3)
        p, q = mb_pdf(hist.centers, a, 3), hist.density
        assert grad == pytest.approx(2.0 * np.sum(q * q * (p - q) * dmb_da(hist.centers, a, 3)))
        h = 1e-6 * a
        up, down = _fit_criterion(hist, a + h, 3), _fit_criterion(hist, a - h, 3)
        assert grad == pytest.approx((up[0] - down[0]) / (2 * h), rel=1e-5, abs=1e-12)
        assert hess == pytest.approx((up[1] - down[1]) / (2 * h), rel=1e-5, abs=1e-12)

    def test_empty_after_threshold_falls_back(self):
        fit = fit_mb(np.full(30, 50.0), 3, apply_threshold=True)
        assert fit.fallback and fit.a_star == 1.0

    def test_degenerate_falls_back(self):
        fit = fit_mb(np.full(30, 0.5), 3, apply_threshold=False)
        assert fit.fallback and fit.a_star == 1.0


def grid_probe(residuals, n_e, a):
    from robls.mbfit import _fit_criterion

    r = np.asarray(residuals, float)
    thresh = chi_quantile(n_e, 0.9973)
    return _fit_criterion(build_histogram(r[r < thresh], upper=thresh), a, n_e)[0]


class TestShiftResiduals:
    def test_direct_application(self):
        out = shift_residuals([0.5, np.sqrt(2.0), 3.0], np.sqrt(2.0), 10.0)
        assert out.inlier_count == 1
        assert np.allclose(sorted(out.xi), [0.0, 3.0 - np.sqrt(2.0)])
        assert out.nu == pytest.approx(10.0 - np.sqrt(2.0))

    def test_all_below_mode(self):
        out = shift_residuals([0.1, 0.2], 1.0, 10.0)
        assert out.xi.size == 0 and out.inlier_count == 2

    def test_zero_mode_passthrough(self):
        r = [0.3, 1.0, 2.5]
        out = shift_residuals(r, 0.0, 10.0)
        assert np.allclose(out.xi, r) and out.nu == 10.0 and out.inlier_count == 0

    def test_inconsistent_bound_rejected(self):
        with pytest.raises(ValueError):
            shift_residuals([1.0], 5.0, 4.0)


class TestAdaptiveMbWeights:
    def test_below_mode_exactly_one(self, rng):
        r = np.linalg.norm(rng.standard_normal((3000, 3)), axis=1)
        w, diag = adaptive_mb_weights(r, 3, 10.0)
        assert diag.below_mode_violations == 0
        assert np.all(w[r < diag.mode] == 1.0)

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
