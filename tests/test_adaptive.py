import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad

from robls import adaptive
from robls.adaptive import (
    _SCAN_BARRON,
    _SCAN_CHEBROLU,
    BARRON_DOMAIN,
    CHEBROLU_DOMAIN,
    TAU_MAX,
    TAU_MIN,
    Z_MEMO_SIZE,
    _INTERIOR_MARGIN,
    _Z_MEMO,
    _gl_rule,
    _Objective,
    _off_zero,
    _z_pass,
    minimize_bounded,
    optimize_alpha,
    partition_z,
)
from robls.loss import ALPHA_MIN, BRANCH_TOL, rho, rho_alpha_sums, rho_alpha_terms
from robls.mbfit import MODE_TAU_CAP

from oracles import PROPERTY, grid_search_alpha, rho_derivs, z_moments


ALPHAS = st.one_of(st.sampled_from([2.0, 0.0, -np.inf, ALPHA_MIN]), st.floats(-200.0, 2.0))
BOUNDS = st.one_of(st.floats(0.05, 90.0).map(lambda t: (-t, t)),
                   st.floats(0.02, 90.0).map(lambda t: (0.0, t)))
WHOLE_LINE = (-np.inf, np.inf)
# Span of a rule's part on one side of 0: log-uniform in [0.02, TAU_MAX].
SPANS = st.floats(math.log(0.02), math.log(TAU_MAX)).map(
    lambda s: min(max(math.exp(s), 0.02), TAU_MAX))


def neg_log_likelihood(residuals, alpha, bounds):
    """Truncated-likelihood objective as the optimizer evaluates it."""
    return _Objective(residuals, CHEBROLU_DOMAIN, bounds).value(alpha)


def grad_lambda(residuals, alpha, bounds):
    return _Objective(residuals, CHEBROLU_DOMAIN, bounds).value_derivs(alpha)[1]


class TestPartitionZ:
    def test_gaussian_closed_form(self):
        assert partition_z(2.0, (-10, 10)) == pytest.approx(np.sqrt(2 * np.pi), abs=1e-6)

    def test_cauchy_closed_form(self):
        expected = 2.0 * np.sqrt(2.0) * np.arctan(10.0 / np.sqrt(2.0))
        assert partition_z(0.0, (-10, 10)) == pytest.approx(expected, abs=1e-6)

    def test_welsch_integrand_bounds(self):
        z = partition_z(-np.inf, (0, 10))
        assert 10.0 / np.e <= z <= 10.0

    @pytest.mark.parametrize("alpha", [1.5, 0.7, -1.0, -8.0])
    def test_against_scipy_quad(self, alpha):
        ours = partition_z(alpha, (-7.0, 7.0))
        ref, _ = quad(lambda x: np.exp(-rho(x, alpha)), -7.0, 7.0, epsabs=1e-12)
        assert ours == pytest.approx(ref, abs=1e-8)

    def test_monotone_nonincreasing_in_alpha(self):
        # heavier tails live at lower alpha, so the normalization shrinks as
        # alpha grows toward the Gaussian end
        alphas = np.linspace(-50.0, 2.0, 40)
        z = [partition_z(a, (-10, 10)) for a in alphas]
        assert np.all(np.diff(z) <= 1e-9)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            partition_z(1.0, (3.0, -3.0))

    @pytest.mark.parametrize(
        "alpha", [2.0 - 4 * BRANCH_TOL, 4 * BRANCH_TOL, -4 * BRANCH_TOL, 1.5, -8.0, ALPHA_MIN]
    )
    @pytest.mark.parametrize("bounds", [(0.0, 0.02), (0.0, 0.37), (0.0, 2.9), (0.0, 13.1),
                                        (0.0, 80.0), (-9.5, 9.5), (0.0, 200.0), (0.0, 999.0),
                                        (-100.0, 100.5), (-1000.0, 1.0), (-50.0, -0.5)])
    def test_fixed_rule_matches_adaptive_quad(self, alpha, bounds):
        # quad is told where the integrand peaks: on (-1000, 1) it misses
        # the peak at 0 by 6e-10 in log Z otherwise.
        z, dz, _ = z_moments(alpha, bounds)
        peak = (0.0,) if bounds[0] < 0.0 < bounds[1] else None
        ref_z, _ = quad(lambda x: np.exp(-rho(x, alpha)), *bounds, epsabs=1e-12, limit=200,
                        points=peak)
        ref_dz, _ = quad(lambda x: -np.exp(-rho(x, alpha)) * rho_derivs(x, alpha)[1],
                         *bounds, epsabs=1e-12, limit=200, points=peak)
        assert abs(np.log(z) - np.log(ref_z)) <= 1e-10
        assert abs(dz - ref_dz) / ref_z <= 1e-8

    @PROPERTY
    @given(b=SPANS, c=SPANS, lower=st.sampled_from(["zero", "minus_b", "minus_c"]))
    def test_graded_rule_matches_closed_forms(self, b, c, lower):
        # On [-a, b], 0 <= a, Z is the sum of its parts on [0, a] and [0, b]:
        # sqrt(pi/2) erf(x/sqrt2) at alpha = 2 and sqrt2 atan(x/sqrt2) at
        # alpha = 0 on [0, x].  a = b folds; a = c crosses 0 asymmetrically.
        a = {"zero": 0.0, "minus_b": b, "minus_c": c}[lower]
        bounds, r2 = (-a if a else 0.0, b), math.sqrt(2.0)
        gauss = math.sqrt(math.pi / 2.0) * (math.erf(a / r2) + math.erf(b / r2))
        cauchy = r2 * (math.atan(a / r2) + math.atan(b / r2))
        assert abs(math.log(partition_z(2.0, bounds)) - math.log(gauss)) <= 1e-13
        assert abs(math.log(partition_z(0.0, bounds)) - math.log(cauchy)) <= 1e-13

    def test_whole_line_rule_matches_closed_forms(self):
        for alpha, z in ((2.0, math.sqrt(2.0 * math.pi)), (0.0, math.sqrt(2.0) * math.pi)):
            assert abs(math.log(partition_z(alpha, WHOLE_LINE)) - math.log(z)) <= 1e-13

    def test_second_derivative_matches_fd_of_first(self):
        h = 1e-5
        for alpha in (1.3, 0.2, -2.5, -30.0):
            d2z = z_moments(alpha, (0.0, 6.0))[2]
            fd = (z_moments(alpha + h, (0.0, 6.0))[1] - z_moments(alpha - h, (0.0, 6.0))[1]) / (2 * h)
            assert d2z == pytest.approx(fd, rel=1e-6)

    @PROPERTY
    @given(alpha=ALPHAS, bounds=st.one_of(BOUNDS, st.just(WHOLE_LINE)))
    def test_z_only_pass_is_bit_identical(self, alpha, bounds):
        # Z as the scan sees it equals Z as the Newton evaluations sum it.
        assert partition_z(alpha, bounds) == z_moments(alpha, bounds)[0]

    @pytest.mark.parametrize(
        "alpha", [2.0 - 4 * BRANCH_TOL, 4 * BRANCH_TOL, 1.5, 0.7, -8.0, ALPHA_MIN]
    )
    def test_fixed_rule_matches_adaptive_quad_beyond_forty(self, alpha):
        # Truncated rules past the bounds of test_fixed_rule_matches_adaptive_quad.
        for span in (45.3, 90.6):
            z, dz, _ = z_moments(alpha, (-span, span))
            ref_z, _ = quad(lambda x: np.exp(-rho(x, alpha)), -span, span,
                            epsabs=1e-12, limit=400)
            ref_dz, _ = quad(lambda x: -np.exp(-rho(x, alpha)) * rho_derivs(x, alpha)[1],
                             -span, span, epsabs=1e-12, limit=400)
            assert abs(np.log(z) - np.log(ref_z)) <= 1e-10
            assert abs(dz - ref_dz) / ref_z <= 1e-8

    # Near alpha = 0 the derivative integrands carry the cancellation noise of
    # the kernel, which quad reports as roundoff; the tolerances absorb it.
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("alpha", [4 * BRANCH_TOL, 1e-3, 0.01, 0.1, 0.5, 1.5])
    def test_barron_whole_line_moments_match_adaptive_quad(self, alpha):
        # With one residual at 0, Barron's objective is Lam = log Z, Lam' = Z'/Z
        # and Lam'' = Z''/Z - (Z'/Z)^2 for the Z of the whole real line.  The
        # reference is quad on [0, inf) in s = log eps, where even the
        # Cauchy-like integrand decays like e^-s: what lies outside
        # s in [-40, 200] is below 1e-17 of Z.
        lam, g, h = _Objective([0.0], BARRON_DOMAIN, (-10.0, 10.0)).value_derivs(alpha)
        z = np.exp(lam)

        def moment(k):
            def f(s):
                e = np.exp(s)
                r, dr, d2r = rho_derivs(e, alpha)
                return e * np.exp(-r) * (1.0, -dr, dr * dr - d2r)[k]
            cuts = (-40.0, 0.0, np.log(40.0), 20.0, 60.0, 200.0)
            return 2.0 * sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                             for lo, hi in zip(cuts, cuts[1:]))

        ref_z, ref_dz, ref_d2z = (moment(k) for k in range(3))
        assert z == pytest.approx(ref_z, rel=1e-12)
        assert g * z == pytest.approx(ref_dz, rel=1e-10)
        assert (h + g * g) * z == pytest.approx(ref_d2z, rel=1e-6)

    def test_whole_line_rule_is_the_same_for_every_tau(self):
        # Barron's Z is over the whole line for every tau; only its residual clip follows tau.
        for tau in (0.5, 40.0, 90.0, 999.0):
            obj = _Objective([0.3, 1.7, 95.0], BARRON_DOMAIN, (-tau, tau))
            assert obj.bounds == WHOLE_LINE
            assert obj.residuals.max() == min(95.0, max(tau, 40.0))
        assert _gl_rule(*WHOLE_LINE)[0].size == 288

    def test_panels_double_in_width(self):
        # 24 nodes per panel; [0, b] holds [0, 1], [1, 2], [2, 4], ...,
        # [2^m, b], and a symmetric interval folds onto its half; an
        # interval across 0 is graded from 0 both ways, one below 0 from b.
        sizes = {(0.0, 0.02): 24, (0.0, 1.0): 24, (0.0, 2.0): 48, (-10.0, 10.0): 120,
                 (0.0, 16.0): 120, (0.0, 17.4): 144, (-20.0, 20.0): 144, (-TAU_MAX, TAU_MAX): 264,
                 (-100.0, 100.5): 384, (-50.0, -0.5): 168}
        for bounds, size in sizes.items():
            x2, w = _gl_rule(*bounds)
            assert x2.size == w.size == size, bounds
            assert w.sum() == pytest.approx(bounds[1] - bounds[0], rel=1e-14)

    def test_limit_branches_have_no_derivatives(self):
        # Z exists on the limit branches; its alpha derivatives do not, and
        # the Newton evaluation refuses them.
        obj = _Objective([0.5, 1.0], CHEBROLU_DOMAIN, (0.0, 5.0))
        for alpha in (2.0, 0.0, -np.inf):
            assert np.isfinite(partition_z(alpha, (0.0, 5.0)))
            with pytest.raises(ValueError, match="general branch"):
                obj.value_derivs(alpha)


GENERAL_ALPHAS = st.floats(ALPHA_MIN, 2.0 - 4 * BRANCH_TOL).filter(
    lambda a: abs(a) >= 4 * BRANCH_TOL)


def _same(x, y) -> bool:
    """Equal results: ``==`` for floats (NaN matching NaN), exact for arrays."""
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and np.array_equal(x, y, equal_nan=True)
    return not isinstance(y, (tuple, np.ndarray)) and (x == y or (np.isnan(x) and np.isnan(y)))


class TestPartitionZMemo:
    @PROPERTY
    @given(alpha=st.one_of(ALPHAS, st.lists(GENERAL_ALPHAS, min_size=1, max_size=4)),
           bounds=st.one_of(BOUNDS, st.just(WHOLE_LINE)))
    def test_memo_returns_the_uncached_pass(self, alpha, bounds):
        _Z_MEMO.clear()
        uncached = partition_z(alpha, bounds)
        _Z_MEMO.clear()
        for _ in range(2):  # the first call, then a repeated one
            assert _same(partition_z(alpha, bounds), uncached)

    @PROPERTY
    @given(alpha=GENERAL_ALPHAS, tau=st.floats(0.05, 90.0),
           domain=st.sampled_from([BARRON_DOMAIN, CHEBROLU_DOMAIN]))
    def test_moments_and_z_keep_apart(self, alpha, tau, domain):
        # The Newton evaluations store moments under the alpha and bounds of
        # the Z that partition_z stores; each gets its own entry back.
        obj = _Objective([0.3, 1.7, 0.9], domain, (-tau, tau))
        _Z_MEMO.clear()
        lam = obj.value(alpha)
        _Z_MEMO.clear()
        lam_derivs = obj.value_derivs(alpha)
        for _ in range(2):
            assert obj.value(alpha) == lam
            assert obj.value_derivs(alpha) == lam_derivs

    def test_vector_results_are_read_only(self):
        _Z_MEMO.clear()
        for _ in range(2):
            with pytest.raises(ValueError, match="read-only"):
                partition_z([1.5, -0.5, -8.0], (-3.0, 3.0))[0] = 1.0

    def test_size_stays_within_the_bound(self):
        _Z_MEMO.clear()
        for alpha in np.linspace(-3.0, 1.5, Z_MEMO_SIZE + 50):
            partition_z(alpha, (0.0, 0.5))
        assert len(_Z_MEMO) == Z_MEMO_SIZE

    def test_threads_share_the_memo_safely(self, monkeypatch):
        # More threads than cores, switching often, on more keys than a
        # shrunken memo holds, so hits and evictions interleave: every result
        # stays the uncached pass and the size bound holds.  Without the lock
        # a key evicted between a hit and its reordering raises KeyError.
        monkeypatch.setattr(adaptive, "Z_MEMO_SIZE", 4)
        alphas = np.linspace(-3.0, 1.5, 6)
        expected = {float(a): _z_pass(float(a), *_gl_rule(0.0, 0.5)) for a in alphas}
        _Z_MEMO.clear()
        wrong = []

        def work(offset):
            try:
                for _ in range(400):
                    for a in np.roll(alphas, offset * 3):
                        if partition_z(a, (0.0, 0.5)) != expected[float(a)]:
                            wrong.append(float(a))
            except Exception as exc:  # a lost race surfaces here, not in the thread's stderr
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(_Z_MEMO) <= 4


def value_derivs_reference(residuals, domain, bounds, alpha):
    """Lam and its alpha derivatives as two passes: the ``Z`` moments on the
    rule of :func:`partition_z` (over the whole line for Barron) and the
    sums of the kernel terms over the clipped residuals."""
    if domain.whole_line:
        t = max(abs(bounds[0]), abs(bounds[1]), 40.0)
        clip, (z, dz, d2z) = (-t, t), z_moments(alpha, WHOLE_LINE)
    else:
        clip, (z, dz, d2z) = bounds, z_moments(alpha, bounds)
    eps = np.clip(residuals, *clip)
    em1, dem1, d2em1 = rho_alpha_terms(eps * eps, alpha)
    r, dr, d2r = rho_alpha_sums(alpha, em1.sum(), dem1.sum(), d2em1.sum())
    n, g = len(residuals), dz / z
    return (
        float(n * np.log(z) + r),
        float(n * g + dr),
        float(n * (d2z / z - g * g) + d2r),
    )


class TestFusedEvaluation:
    """One pass over nodes and residuals gives what two passes give, bit for bit."""

    @PROPERTY
    @given(
        dom=st.sampled_from(["barron", "chebrolu", "chebrolu_half_open"]),
        tau=st.one_of(st.floats(0.05, 40.0), st.floats(40.0, 90.0, exclude_min=True)),
        where=st.floats(0.0, 1.0),
        n=st.integers(1, 5000),
        seed=st.integers(0, 2**16),
    )
    def test_value_derivs_equals_the_two_pass_composition(self, dom, tau, where, n, seed):
        domain = BARRON_DOMAIN if dom == "barron" else CHEBROLU_DOMAIN
        bounds = (0.0, tau) if dom == "chebrolu_half_open" else (-tau, tau)
        lo = max(domain.lo, ALPHA_MIN) + 4 * BRANCH_TOL
        alpha = lo + where * (2.0 - 4 * BRANCH_TOL - lo)
        if abs(alpha) < 4 * BRANCH_TOL:
            alpha = 4 * BRANCH_TOL
        rng = np.random.default_rng(seed)
        res = np.abs(rng.standard_normal(n)) * rng.uniform(0.2, 3.0)
        res[: n // 4] = rng.uniform(0.0, 1.2 * tau, n // 4)  # some beyond the bound
        obj = _Objective(res, domain, bounds)

        _Z_MEMO.clear()
        expected = value_derivs_reference(res, domain, bounds, alpha)
        assert obj.value_derivs(alpha) == expected  # miss: the fused pass
        assert obj.value_derivs(alpha) == expected  # hit on the entry the fused pass stored
        assert value_derivs_reference(res, domain, bounds, alpha) == expected


class TestNegLogLikelihood:
    def test_zero_residuals_gaussian(self):
        lam = neg_log_likelihood([0.0, 0.0, 0.0], 2.0, (-10, 10))
        assert lam == pytest.approx(3.0 * np.log(np.sqrt(2 * np.pi)), abs=1e-6)

    def test_single_zero_residual_reduces_to_log_z(self):
        for alpha in [1.0, 0.0, -2.0]:
            lam = neg_log_likelihood([0.0], alpha, (-10, 10))
            assert lam == pytest.approx(np.log(partition_z(alpha, (-10, 10))))

    def test_doubling_residuals_doubles_objective(self, rng):
        res = np.abs(rng.standard_normal(40))
        one = neg_log_likelihood(res, 0.8, (-10, 10))
        two = neg_log_likelihood(np.concatenate([res, res]), 0.8, (-10, 10))
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_clamps_out_of_bound_residuals(self):
        inside = neg_log_likelihood([10.0], 1.0, (-10, 10))
        outside = neg_log_likelihood([25.0], 1.0, (-10, 10))
        assert outside == pytest.approx(inside)


def _fd_grad(residuals, alpha, bounds, h=1e-4):
    up = neg_log_likelihood(residuals, alpha + h, bounds)
    down = neg_log_likelihood(residuals, alpha - h, bounds)
    return (up - down) / (2.0 * h)


class TestGradLambda:
    def test_matches_fd_gaussian_residuals(self, rng):
        res = np.abs(rng.standard_normal(100))
        g = grad_lambda(res, 1.0, (-10, 10))
        assert g == pytest.approx(_fd_grad(res, 1.0, (-10, 10)), rel=1e-4)

    def test_matches_fd_heavy_tails(self, rng):
        res = np.concatenate([np.abs(rng.standard_normal(60)), rng.uniform(3, 9, 40)])
        g = grad_lambda(res, -3.0, (-10, 10))
        assert g == pytest.approx(_fd_grad(res, -3.0, (-10, 10)), rel=1e-4)

    @pytest.mark.parametrize(
        "domain,bounds,alpha",
        [(CHEBROLU_DOMAIN, (-10, 10), 1.2), (CHEBROLU_DOMAIN, (-10, 10), -4.0),
         (CHEBROLU_DOMAIN, (0.0, 7.3), -0.6), (CHEBROLU_DOMAIN, (0.0, 7.3), 1.97),
         (BARRON_DOMAIN, (-10, 10), 0.4), (BARRON_DOMAIN, (-10, 10), 1.6)],
    )
    def test_hessian_matches_fd_of_gradient(self, rng, domain, bounds, alpha):
        res = np.concatenate([np.abs(rng.standard_normal(80)), rng.uniform(2, 7, 30)])
        obj = _Objective(res, domain, bounds)
        h = 1e-5
        fd = (obj.value_derivs(alpha + h)[1] - obj.value_derivs(alpha - h)[1]) / (2.0 * h)
        assert obj.value_derivs(alpha)[2] == pytest.approx(fd, rel=1e-5)

    def test_zero_residuals_pure_partition_term(self):
        res = np.zeros(17)
        g = grad_lambda(res, 0.7, (-10, 10))
        h = 1e-5
        z_term = (
            np.log(partition_z(0.7 + h, (-10, 10)))
            - np.log(partition_z(0.7 - h, (-10, 10)))
        ) / (2 * h)
        assert g == pytest.approx(17.0 * z_term, rel=1e-4)


def _tight(x):
    return 1e-10


class TestMinimizeBounded:
    def test_quadratic_in_one_newton_step(self):
        def f(x):
            return (x - 1.3) ** 2, 2.0 * (x - 1.3), 2.0

        x, iterations, converged = minimize_bounded(f, -5.0, 5.0, -4.0, _tight)
        assert x == pytest.approx(1.3, abs=1e-12) and f(x)[0] == pytest.approx(0.0, abs=1e-20)
        assert converged and iterations <= 2

    def test_minimum_at_the_domain_end(self):
        x, _, converged = minimize_bounded(
            lambda x: ((x - 3.0) ** 2, 2.0 * (x - 3.0), 2.0), -1.0, 2.0, -0.5, _tight)
        assert x == 2.0 and converged

    def test_concave_start_in_a_flat_tail(self):
        # f = -exp(-x^2 / 2) from x0 = 4: f'' < 0 and f' ~ 1e-3, so neither a
        # Newton step nor a gradient-sized step makes progress there
        def f(x):
            e = np.exp(-0.5 * x * x)
            return -e, x * e, (1.0 - x * x) * e

        x, iterations, converged = minimize_bounded(f, -100.0, 100.0, 4.0, _tight)
        assert x == pytest.approx(0.0, abs=1e-8)
        assert converged and iterations <= 10

    def test_no_evaluation_after_a_sub_tolerance_newton_step(self):
        # Strictly convex, not quadratic: Newton moves at most 1 per step
        # from x0 = -4, then converges cubically.  The step that ends the
        # search is shorter than the tolerance, and the point it reaches is
        # returned without evaluating f there.
        seen = []

        def f(x):
            seen.append(x)
            return math.cosh(x - 1.3), math.sinh(x - 1.3), math.cosh(x - 1.3)

        x, iterations, converged = minimize_bounded(f, -5.0, 5.0, -4.0, _tight)
        assert converged and x == pytest.approx(1.3, abs=1e-12)
        assert x not in seen
        assert len(seen) == iterations == 9

    @PROPERTY
    @given(m=st.floats(-20.0, 20.0), c=st.floats(0.0, 100.0), lo=st.floats(-10.0, 9.0),
           width=st.floats(0.01, 10.0), where=st.floats(0.0, 1.0))
    def test_newton_finds_the_clipped_minimum(self, m, c, lo, width, where):
        # f = e^2 + c e^4 with e = x - m: f'' > 0 everywhere, one minimum at m,
        # which may lie outside [lo, hi].
        def f(x):
            e = x - m
            return e * e + c * e**4, 2.0 * e + 4.0 * c * e**3, 2.0 + 12.0 * c * e * e

        hi = lo + width
        tol = 1e-9
        x, _, converged = minimize_bounded(f, lo, hi, lo + where * width, lambda x: tol)
        assert converged
        assert abs(x - min(max(m, lo), hi)) <= tol

    def test_non_finite_objective_raises(self):
        with pytest.raises(FloatingPointError):
            minimize_bounded(lambda x: (np.nan, 0.0, 1.0), 0.0, 1.0, 0.5, _tight)


def _lam_at(res, domain, bounds, alpha):
    """Lam at ``alpha``, as the fit's own objective evaluates it."""
    return _Objective(res, domain, bounds).value(alpha)


class TestOptimizeAlpha:
    def test_clean_gaussian_near_two(self, rng, monkeypatch):
        # The alpha = 2 rule compares Lam(2) with Lam at the point the search
        # returns, which the search need not have evaluated.  On all 500 norms
        # the search ends inside the interval; on the first 40 it ends at the
        # interior margin, where alpha = 2 wins.
        returned = []
        search = adaptive.minimize_bounded

        def recording(*args):
            out = search(*args)
            returned.append(out[0])
            return out

        monkeypatch.setattr(adaptive, "minimize_bounded", recording)
        res = np.abs(rng.standard_normal(500))
        for sample, at_two in ((res, False), (res[:40], True)):
            out = optimize_alpha(sample, CHEBROLU_DOMAIN, (-10, 10))
            assert 1.5 <= out.alpha_star <= 2.0
            assert np.isfinite(_lam_at(sample, CHEBROLU_DOMAIN, (-10, 10), out.alpha_star))
            lam_two, lam_end = (_lam_at(sample, CHEBROLU_DOMAIN, (-10, 10), a)
                                for a in (2.0, returned[-1]))
            assert (out.alpha_star == 2.0) == (lam_two <= lam_end) == at_two

    def test_contaminated_goes_negative(self, rng):
        res = np.concatenate([np.abs(rng.standard_normal(400)), rng.uniform(5, 10, 100)])
        out = optimize_alpha(res, CHEBROLU_DOMAIN, (-10, 10))
        assert out.alpha_star < 0.0

    def test_grid_equivalence(self, rng):
        for _ in range(4):
            n_out = int(rng.integers(0, 150))
            res = np.concatenate(
                [np.abs(rng.standard_normal(250)) * rng.uniform(0.4, 1.8),
                 rng.uniform(2, 9, n_out)]
            )
            out = optimize_alpha(res, CHEBROLU_DOMAIN, (-10, 10))
            ref = grid_search_alpha(res, (-10, 10))
            if np.isinf(out.alpha_star):
                assert ref <= -49.9
            else:
                assert abs(out.alpha_star - ref) <= 0.05

    def test_barron_domain_nonnegative(self, rng):
        res = np.concatenate([np.abs(rng.standard_normal(300)), rng.uniform(4, 9, 120)])
        out = optimize_alpha(res, BARRON_DOMAIN, (-10, 10))
        assert 0.0 <= out.alpha_star <= 2.0

    def test_objective_beats_reference_points(self, rng):
        res = np.concatenate([np.abs(rng.standard_normal(200)), rng.uniform(3, 8, 60)])
        bounds = (-10, 10)
        out = optimize_alpha(res, CHEBROLU_DOMAIN, bounds)
        lam = _lam_at(res, CHEBROLU_DOMAIN, bounds, out.alpha_star)
        for probe in (-50.0, 2.0, 0.0, 1.0):
            assert lam <= neg_log_likelihood(res, probe, bounds) + 1e-6

    def test_outliers_push_alpha_down(self, rng):
        clean = np.abs(rng.standard_normal(400))
        dirty = np.concatenate([clean, rng.uniform(4, 9, 200)])
        a_clean = optimize_alpha(clean, CHEBROLU_DOMAIN, (-10, 10)).alpha_star
        a_dirty = optimize_alpha(dirty, CHEBROLU_DOMAIN, (-10, 10)).alpha_star
        assert a_dirty <= a_clean

    def test_warm_start_agrees(self, rng):
        res = np.concatenate([np.abs(rng.standard_normal(300)), rng.uniform(4, 8, 80)])
        cold = optimize_alpha(res, CHEBROLU_DOMAIN, (-10, 10))
        warm = optimize_alpha(res, CHEBROLU_DOMAIN, (-10, 10), x0=cold.alpha_star)
        if np.isinf(cold.alpha_star):
            assert np.isinf(warm.alpha_star)
        else:
            assert warm.alpha_star == pytest.approx(cold.alpha_star, abs=2e-4)

    @pytest.mark.parametrize("domain", [BARRON_DOMAIN, CHEBROLU_DOMAIN])
    def test_warm_start_at_two_leaves_the_boundary(self, rng, domain):
        # Lam'' grows like 1 / (2 - alpha), so the first Newton steps from a
        # warm start at alpha = 2 are tiny without being converged.
        res = np.concatenate([np.abs(rng.standard_normal(300)), rng.uniform(3, 8, 30)])
        cold = optimize_alpha(res, domain, (-10, 10))
        warm = optimize_alpha(res, domain, (-10, 10), x0=2.0)
        assert cold.alpha_star < 1.0
        assert warm.alpha_star == pytest.approx(cold.alpha_star, abs=2e-4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            optimize_alpha([], CHEBROLU_DOMAIN, (-10, 10))

    def test_floor_pinned_fit_reports_the_sentinel(self):
        # The fit ends at the floor and is reported as -inf, whose Lam lies
        # above Lam(ALPHA_MIN), here by about 0.007.
        res = _residual_set(300, 0.8, 1.0, 0)
        bounds = (-10.0, 10.0)
        out = optimize_alpha(res, CHEBROLU_DOMAIN, bounds)
        obj = _Objective(res, CHEBROLU_DOMAIN, bounds)
        assert out.alpha_star == -np.inf
        assert 0.0 < obj.value(out.alpha_star) - obj.value(ALPHA_MIN) <= 0.01


def _residual_set(n, outlier_share, inlier_scale, seed):
    rng = np.random.default_rng(seed)
    n_out = int(round(outlier_share * n))
    inliers = np.abs(rng.standard_normal(n - n_out)) * inlier_scale
    return np.concatenate([inliers, rng.uniform(0.0, 10.0, n_out)])


RESIDUALS = st.builds(
    _residual_set,
    st.integers(2, 300),
    st.floats(0.0, 0.9),
    st.floats(0.2, 3.0),
    st.integers(0, 2**32 - 1),
)
DOMAINS = st.sampled_from([(BARRON_DOMAIN, _SCAN_BARRON), (CHEBROLU_DOMAIN, _SCAN_CHEBROLU)])


class TestOptimizeAlphaProperties:
    """The optimizer never ends worse than the best point of its own scan grid."""

    @staticmethod
    def _scan_best(res, domain, scan, bounds):
        obj = _Objective(res, domain, bounds)
        values = [obj.value(a) for a in scan]
        i = int(np.argmin(values))
        return values[i], i

    @PROPERTY
    @given(res=RESIDUALS, dom=DOMAINS, tau=st.floats(0.5, 60.0), half_open=st.booleans())
    def test_scan_pass_is_bit_identical(self, res, dom, tau, half_open):
        domain, scan = dom
        bounds = (0.0, tau) if half_open and domain is CHEBROLU_DOMAIN else (-tau, tau)
        obj = _Objective(res, domain, bounds)
        general = scan[1:]  # scan[0] = 2 is a limit branch, evaluated alone
        lam = obj.values(general)
        assert lam == [obj.value(a) for a in general]
        assert lam == [obj.value_derivs(a)[0] for a in general]

    @PROPERTY
    @given(res=RESIDUALS, dom=DOMAINS, half_open=st.booleans())
    def test_cold_start_beats_scan(self, res, dom, half_open):
        domain, scan = dom
        bounds = (0.0, 10.0) if half_open and domain is CHEBROLU_DOMAIN else (-10.0, 10.0)
        best, _ = self._scan_best(res, domain, scan, bounds)
        out = optimize_alpha(res, domain, bounds)
        assert _lam_at(res, domain, bounds, out.alpha_star) <= best + 1e-9 * max(1.0, abs(best))

    @PROPERTY
    @given(res=RESIDUALS, dom=DOMAINS, where=st.floats(0.0, 1.0))
    def test_warm_start_anywhere_beats_scan(self, res, dom, where):
        domain, scan = dom
        bounds = (-10.0, 10.0)
        best, _ = self._scan_best(res, domain, scan, bounds)
        out = optimize_alpha(res, domain, bounds, x0=domain.lo + where * (2.0 - domain.lo))
        # Compare the point the search ended at, before the -inf sentinel:
        # Lam(-inf) can exceed Lam(ALPHA_MIN) by about 0.01.
        alpha = ALPHA_MIN if np.isinf(out.alpha_star) else out.alpha_star
        assert _lam_at(res, domain, bounds, alpha) <= best + 1e-9 * max(1.0, abs(best))

    @PROPERTY
    @given(res=RESIDUALS, dom=DOMAINS, where=st.floats(0.0, 1.0))
    def test_warm_start_near_scan_best_beats_scan(self, res, dom, where):
        # A warm start anywhere between the scan neighbours of the best grid
        # point, as IRLS supplies one close to the last solution.
        domain, scan = dom
        bounds = (-10.0, 10.0)
        best, i = self._scan_best(res, domain, scan, bounds)
        lo, hi = scan[min(i + 1, len(scan) - 1)], scan[max(i - 1, 0)]
        out = optimize_alpha(res, domain, bounds, x0=lo + where * (hi - lo))
        assert _lam_at(res, domain, bounds, out.alpha_star) <= best + 1e-9 * max(1.0, abs(best))


# tau at both ends of the accepted range and log-uniform between them.
TAUS = st.one_of(
    st.sampled_from([TAU_MIN, TAU_MAX]),
    st.floats(math.log(TAU_MIN), math.log(TAU_MAX)).map(
        lambda s: min(max(math.exp(s), TAU_MIN), TAU_MAX)),
)


class TestObjectiveFinite:
    """Lam and Lam' stay finite on every input the fits accept.

    ``minimize_bounded`` raises ``FloatingPointError`` otherwise, and
    nothing catches it.  The residuals are any finite
    floats, which the objective clips to its bounds.  ``chebrolu`` takes
    ``(-tau, tau)`` from ``RobustLoss`` and ``(0, nu)`` from ``adaptive_mb``,
    where ``nu = tau - mode`` and the mode is capped at ``MODE_TAU_CAP * tau``.
    """

    @PROPERTY
    @example(res=[0.0], tau=TAU_MIN, nu_share=1.0 - MODE_TAU_CAP, where=0.5)
    @example(res=[-1e308, 0.0, 1e308], tau=TAU_MAX, nu_share=1.0, where=0.5)
    @given(res=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                        max_size=40),
           tau=TAUS, nu_share=st.floats(1.0 - MODE_TAU_CAP, 1.0), where=st.floats(0.0, 1.0))
    def test_finite_on_the_newton_interval(self, res, tau, nu_share, where):
        for domain, bounds in ((BARRON_DOMAIN, (-tau, tau)), (CHEBROLU_DOMAIN, (-tau, tau)),
                               (CHEBROLU_DOMAIN, (0.0, nu_share * tau))):
            obj = _Objective(res, domain, bounds)
            # The interval optimize_alpha hands to minimize_bounded.
            lo = domain.lo if domain.lo < 0.0 else domain.lo + _INTERIOR_MARGIN
            hi = domain.hi - _INTERIOR_MARGIN
            for alpha in (lo, hi, lo + where * (hi - lo)):
                assert all(math.isfinite(v) for v in obj.value_derivs(_off_zero(alpha)))
            assert math.isfinite(obj.value(2.0))
            if domain is CHEBROLU_DOMAIN:
                assert math.isfinite(obj.value(-np.inf))
