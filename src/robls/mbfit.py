"""Chi-family residual modelling and norm-aware adaptive weighting.

Norms of zero-mean Gaussian errors cluster around a strictly positive mode,
so kernels that peak at zero end up downweighting perfectly ordinary
residuals.  This module fits a scaled Chi ("Maxwell-Boltzmann") density to
the residual norms, estimates the mode ``a * sqrt(n_e - 1)``, and then runs
the truncated adaptive loss only on the residual mass above the mode:

1. fit the shape ``a`` against a normalized residual histogram,
2. convert it to a mode estimate,
3. shift residuals and truncation bound down by the mode,
4. optimize the adaptive shape parameter on the shifted residuals,
5. emit weights: exactly 1 below the mode, adaptive-kernel weights above.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .adaptive import CHEBROLU_DOMAIN, AlphaOptResult, check_tau, minimize_bounded, optimize_alpha
from .loss import weight

__all__ = [
    "MbFit",
    "MbDiagnostics",
    "chi_quantile",
    "fit_mb",
    "adaptive_mb_weights",
]

CHI_THRESHOLD_P = 0.9973  # 3-sigma mass retained before fitting

# sqrt(N) binning, clamped; the floor gives the small post-threshold samples of
# the pose-averaging study (N ~ 25..60) at least five bins.
MIN_BINS = 5
MAX_BINS = 100

A_LO, A_HI, A_STEP_TOL = 1e-2, 1e2, 1e-5  # domain of the shape fit and its step tolerance
A_SCAN = np.geomspace(0.1, 5.0, 25)  # coarse start scan of a cold shape fit
A_SCAN.flags.writeable = False

# Keep the mode strictly inside the truncation bound; a fit this extreme
# means the scale model no longer describes the data.
MODE_TAU_CAP = 0.9

# Largest degrees of freedom n_e, the one n_e check of every loss kind.  The
# shape fit's criterion computes eps ** (n_e - 1) at eps = c / a, with the bin
# centres c below chi_quantile(n_e, CHI_THRESHOLD_P) and a >= A_LO.  At
# n_e = 101 that bound is 12.04 / 0.01, and its 100th power is 1.2e308, still
# finite; at n_e = 102 it is 12.09 / 0.01, whose 101st power, 2e311,
# overflows, so the fit's objective would not be finite.
MAX_DOF = 101


class DegenerateHistogramError(ValueError):
    """All residuals identical: no usable histogram support."""


@dataclass
class MbFit:
    a_star: float
    n_e: int
    mode: float
    objective: float = np.nan
    fallback: bool = False


@dataclass(frozen=True)
class HistogramBins:
    edges: np.ndarray        # ascending, length K+1
    density: np.ndarray      # q_k per bin, integrates to 1

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


@dataclass
class MbDiagnostics:
    """Per-invocation record of the norm-aware weighting pipeline."""

    a_star: float
    mode: float
    alpha_star: float
    inlier_fraction: float
    fit_fallback: bool = False
    mode_capped: bool = False
    alpha_converged: bool = True
    # Audit of the weight rule: residuals below the mode must get weight 1.
    below_mode: int = 0
    below_mode_violations: int = 0

    def as_dict(self) -> dict:
        # Every field is a scalar, so a shallow copy; dataclasses.asdict deep
        # copies each one, about 20 us of every adaptive_mb weights call.
        return dict(vars(self))


def _dof(n_e) -> int:
    """``n_e`` as an ``int`` in ``[1, MAX_DOF]``; numpy integers pass, ``bool``
    does not.

    The closed forms of :func:`_half_gamma` and :func:`_chi_cdf` hold only
    for integer degrees of freedom.
    """
    if isinstance(n_e, bool):
        raise ValueError(f"n_e must be an integer, got {n_e!r}")
    try:
        n = operator.index(n_e)
    except TypeError:
        raise ValueError(f"n_e must be an integer, got {n_e!r}") from None
    if not 1 <= n <= MAX_DOF:
        raise ValueError(f"n_e must lie in [1, {MAX_DOF}], got {n}")
    return n


def _half_gamma(n: int) -> float:
    """``Gamma(n / 2)`` for a positive integer ``n``.

    ``(n/2 - 1)!`` for even ``n``; ``sqrt(pi) * prod_{k=1}^{(n-1)/2} (k - 1/2)``,
    multiplied up from ``sqrt(pi)``, for odd ``n``.  Through ``n = 6`` this
    equals ``scipy.special.gamma`` bit for bit; ``math.gamma`` is one ulp off
    both at ``n = 3`` and 5.
    """
    g, k = (1.0, 1.0) if n % 2 == 0 else (math.sqrt(math.pi), 0.5)
    while k < 0.5 * n - 0.5:
        g *= k
        k += 1.0
    return g


def _chi_cdf(n: int, x: float) -> float:
    """CDF of the Chi distribution with ``n`` degrees of freedom at ``x``.

    The regularized lower incomplete gamma ``P(n/2, t)`` at ``t = x^2 / 2``
    by the recurrence ``P(s + 1, t) = P(s, t) - t^s e^(-t) / Gamma(s + 1)``
    from ``P(0, t) = 1`` (even ``n``: ``1 - e^(-t) sum_{j < n/2} t^j / j!``)
    or from ``P(1/2, t) = erf(sqrt(t))`` (odd ``n``).  ``e^(-t)`` underflows
    past ``x = 38.6``, where for every ``n <= MAX_DOF`` the CDF is 1 to double
    precision; everywhere it stays within about 6e-15 of
    ``scipy.special.gammainc``.
    """
    t = 0.5 * x * x
    if n % 2 == 0:
        p, s, term = 1.0, 0.0, math.exp(-t)
    else:
        p, s, term = math.erf(math.sqrt(t)), 0.5, math.exp(-t) * math.sqrt(t) / _half_gamma(3)
    while s < 0.5 * n:
        p -= term
        s += 1.0
        term *= t / s
    return p


def _chi_norm(a: float, n_e: int) -> float:
    """Normalizer ``a^n_e 2^(n_e/2 - 1) Gamma(n_e/2)`` of the scaled-Chi density
    ``eps^(n_e - 1) exp(-eps^2 / (2 a^2))``, whose mode is ``a * sqrt(n_e - 1)``.

    ``Gamma`` in the closed form of :func:`_half_gamma`; an ``n_e`` that is
    not an integer in ``[1, MAX_DOF]`` raises ``ValueError``.
    """
    n = _dof(n_e)
    return a**n * 2.0 ** (0.5 * n - 1.0) * _half_gamma(n)


@lru_cache(maxsize=256, typed=True)  # typed: 3.0 and True must not hit the entry of 3
def chi_quantile(n_e: int, p: float) -> float:
    """Inverse CDF of the Chi distribution with ``n_e`` degrees of freedom.

    Bisection on the closed-form CDF of :func:`_chi_cdf` to absolute
    tolerance 1e-8.  ``n_e`` must be an integer in ``[1, MAX_DOF]`` (numpy
    integers pass, ``bool`` and floats raise ``ValueError``).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    n = _dof(n_e)
    hi = float(n + 10.0)
    while _chi_cdf(n, hi) < p:
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if _chi_cdf(n, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def build_histogram(residuals, n_bins: int | None = None, upper: float | None = None) -> HistogramBins:
    """Equal-width density histogram over ``[0, max residual]``.

    Linear (cloud-in-cell) binning: each residual splits its unit mass
    between the two nearest bin centres, so the fitted shape moves
    continuously with the residuals instead of jumping when one crosses a
    bin edge.  Within half a bin of either end all of it goes to the end bin.

    ``upper`` overrides the top edge (used by the fit after thresholding so
    that bin edges stay put while the residual set evolves between IRLS
    iterations).
    """
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("residual list must be nonempty")
    if np.any(r < 0):
        raise ValueError("residuals must be nonnegative")
    if r.max() <= 0 or r.min() == r.max():
        raise DegenerateHistogramError(
            "all residuals identical; histogram has no usable support"
        )
    top = float(r.max()) if upper is None else float(upper)
    if top < r.max():
        raise ValueError("histogram upper edge must cover the residuals")
    k = int(np.clip(np.ceil(np.sqrt(r.size)), MIN_BINS, MAX_BINS) if n_bins is None else n_bins)
    edges = np.linspace(0.0, top, k + 1)
    width = top / k
    u = np.clip(r / width - 0.5, 0.0, k - 1.0)  # position in bin-centre units
    j = u.astype(np.intp)
    frac = u - j
    mass = np.bincount(j, 1.0 - frac, minlength=k + 1) + np.bincount(j + 1, frac, minlength=k + 1)
    return HistogramBins(edges=edges, density=mass[:k] / (r.size * width))


def _fit_criterion(hist: HistogramBins, n_e: int):
    """The histogram criterion of one fit, as a function of the shape ``a``.

    Returns ``a -> (f, f', f'')`` for ``f(a) = sum_k (q_k * (pdf(c_k) - q_k))^2``,
    vectorized over a column of ``a`` values.  ``pdf(c; a) = pdf(c / a; 1) / a``,
    ``dpdf/da = pdf * u`` with ``u = c^2 / a^3 - n_e / a``, and
    ``d2pdf/da2 = pdf * (u^2 + du/da)``: one unit-shape density serves all
    three.  The bin centres ``c``, ``q^2``, ``c^2`` and the Chi normalizer do
    not depend on ``a`` and are computed once.
    """
    c, q = hist.centers, hist.density
    w, e2 = q**2, c * c
    norm = _chi_norm(1.0, n_e)

    def criterion(a):
        eps = c / a
        p = eps ** (n_e - 1) * np.exp(-eps * eps / 2.0) / norm / a
        u = e2 / a**3 - n_e / a
        dp = p * u
        d2p = p * (u * u - 3.0 * e2 / a**4 + n_e / a**2)
        diff = p - q
        return (diff * diff) @ w, 2.0 * ((diff * dp) @ w), 2.0 * ((dp * dp + diff * d2p) @ w)

    return criterion


def fit_mb(residuals, n_e: int, x0: float | None = None) -> MbFit:
    """Fit the scaled-Chi shape to residual norms via the histogram criterion.

    Residuals at or above the ``CHI_THRESHOLD_P`` quantile of Chi(``n_e``)
    are dropped first; the histogram spans ``[0, quantile]``.
    Minimizes ``sum_k (q_k * (pdf(center_k) - q_k))^2`` over ``a`` in
    ``[A_LO, A_HI]`` by :func:`~robls.adaptive.minimize_bounded` on its
    analytic derivatives (the criterion of :func:`_fit_criterion`, built
    once per call), started from the best of a method-of-moments
    estimate and a coarse scan (or from ``x0`` alone on warm-started calls,
    which keeps consecutive IRLS refits in the same local basin).  Returns
    the Chi default ``a = 1`` (with ``fallback=True``) when the residual set
    is unusable (empty after thresholding, or degenerate).
    """
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("residual list must be nonempty")
    thresh = chi_quantile(n_e, CHI_THRESHOLD_P)
    r = r[r < thresh]
    if r.size == 0:
        return MbFit(1.0, n_e, float(np.sqrt(n_e - 1)), fallback=True)
    try:
        hist = build_histogram(r, upper=thresh)
    except DegenerateHistogramError:
        return MbFit(1.0, n_e, float(np.sqrt(n_e - 1)), fallback=True)

    criterion = _fit_criterion(hist, n_e)
    if x0 is None:
        a0 = float(np.sqrt(np.mean(r * r) / n_e))
        candidates = np.concatenate([[a0], A_SCAN])
        candidates = candidates[(candidates >= A_LO) & (candidates <= A_HI)]
        x0 = candidates[int(np.argmin(criterion(candidates[:, None])[0]))]
    a, obj, _, _ = minimize_bounded(criterion, A_LO, A_HI, x0, lambda a: A_STEP_TOL)
    return MbFit(a, n_e, float(a * np.sqrt(n_e - 1)), objective=obj)


def adaptive_mb_weights(
    residuals,
    n_e: int,
    tau: float = 10.0,
    alpha_x0: float | None = None,
    a_x0: float | None = None,
) -> tuple[np.ndarray, MbDiagnostics]:
    """Norm-aware adaptive weights for a set of residual norms.

    Runs the five-step pipeline (fit shape, mode, shift, optimize adaptive
    shape on the shifted residuals over ``[0, nu]``, weight).  Residuals
    below the fitted mode always receive weight exactly 1.
    """
    check_tau(tau)
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("residual list must be nonempty")

    fit = fit_mb(r, n_e, x0=a_x0)
    mode = fit.mode
    capped = mode >= MODE_TAU_CAP * tau
    if capped:
        mode = MODE_TAU_CAP * tau

    # The mode is below tau (capped at MODE_TAU_CAP * tau, tau >= TAU_MIN),
    # so the shifted bound nu = tau - mode is positive.
    above = r >= mode
    xi = r[above] - mode
    if xi.size == 0:
        alpha_res = AlphaOptResult(2.0, 0.0, 0, True)
    else:
        alpha_res = optimize_alpha(xi, CHEBROLU_DOMAIN, bounds=(0.0, float(tau - mode)), x0=alpha_x0)

    weights = np.ones_like(r)
    weights[above] = weight(xi, alpha_res.alpha_star)

    below = int(np.count_nonzero(~above))
    diag = MbDiagnostics(
        a_star=fit.a_star,
        mode=mode,
        alpha_star=alpha_res.alpha_star,
        inlier_fraction=below / r.size,
        fit_fallback=fit.fallback,
        mode_capped=capped,
        alpha_converged=alpha_res.converged,
        below_mode=below,
        below_mode_violations=int(np.count_nonzero(weights[~above] != 1.0)),
    )
    return weights, diag
