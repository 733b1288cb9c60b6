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

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.special import gamma, gammainc

from .adaptive import CHEBROLU_DOMAIN, AlphaOptResult, minimize_bounded, optimize_alpha
from .loss import weight

__all__ = [
    "MbFit",
    "HistogramBins",
    "ShiftedResiduals",
    "MbDiagnostics",
    "mb_pdf",
    "dmb_da",
    "chi_quantile",
    "build_histogram",
    "fit_mb",
    "shift_residuals",
    "adaptive_mb_weights",
]

CHI_THRESHOLD_P = 0.9973  # 3-sigma mass retained before fitting

# sqrt(N) binning, clamped; the floor gives the small post-threshold samples of
# the pose-averaging study (N ~ 25..60) at least five bins.
MIN_BINS = 5
MAX_BINS = 100

A_LO, A_HI, A_STEP_TOL = 1e-2, 1e2, 1e-5  # domain of the shape fit and its step tolerance

# Keep the mode strictly inside the truncation bound; a fit this extreme
# means the scale model no longer describes the data.
MODE_TAU_CAP = 0.9


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


@dataclass(frozen=True)
class ShiftedResiduals:
    xi: np.ndarray           # residuals at/above the mode, shifted down by it
    nu: float                # shifted truncation bound
    inlier_count: int        # residuals strictly below the mode


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
        return {
            "a_star": self.a_star,
            "mode": self.mode,
            "alpha_star": self.alpha_star,
            "inlier_fraction": self.inlier_fraction,
            "fit_fallback": self.fit_fallback,
            "mode_capped": self.mode_capped,
            "alpha_converged": self.alpha_converged,
            "below_mode": self.below_mode,
            "below_mode_violations": self.below_mode_violations,
        }


def mb_pdf(eps, a: float, n_e: int):
    """Scaled-Chi density with shape ``a`` and ``n_e`` degrees of freedom.

    At ``a = 1`` this is exactly the Chi density; the mode sits at
    ``a * sqrt(n_e - 1)``.
    """
    if a <= 0:
        raise ValueError("shape parameter a must be positive")
    if n_e < 1:
        raise ValueError("error dimension n_e must be >= 1")
    eps = np.asarray(eps, dtype=float)
    norm = a**n_e * 2.0 ** (0.5 * n_e - 1.0) * gamma(0.5 * n_e)
    return eps ** (n_e - 1) * np.exp(-eps * eps / (2.0 * a * a)) / norm


def dmb_da(eps, a: float, n_e: int):
    """Partial derivative of :func:`mb_pdf` in the shape parameter."""
    eps = np.asarray(eps, dtype=float)
    return mb_pdf(eps, a, n_e) * (eps * eps / a**3 - n_e / a)


@lru_cache(maxsize=256)
def chi_quantile(n_e: int, p: float) -> float:
    """Inverse CDF of the Chi distribution with ``n_e`` degrees of freedom.

    Bisection on the regularized incomplete gamma CDF
    ``P(n_e/2, x^2/2)`` to absolute tolerance 1e-8.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    if n_e < 1:
        raise ValueError("n_e must be >= 1")

    def cdf(x: float) -> float:
        return float(gammainc(0.5 * n_e, 0.5 * x * x))

    hi = float(n_e + 10.0)
    while cdf(hi) < p:
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
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


def _fit_criterion(hist: HistogramBins, a, n_e: int):
    """``sum_k (q_k * (pdf(c_k) - q_k))^2`` and its first two derivatives in ``a``.

    Vectorized over a column of ``a`` values.  ``pdf(c; a) = pdf(c / a; 1) / a``,
    ``dpdf/da = pdf * u`` (:func:`dmb_da`) with ``u = c^2 / a^3 - n_e / a``, and
    ``d2pdf/da2 = pdf * (u^2 + du/da)``: one :func:`mb_pdf` call serves all three.
    """
    c, w = hist.centers, hist.density**2
    p = mb_pdf(c / a, 1.0, n_e) / a
    e2 = c * c
    u = e2 / a**3 - n_e / a
    dp = p * u
    d2p = p * (u * u - 3.0 * e2 / a**4 + n_e / a**2)
    diff = p - hist.density
    return (diff * diff) @ w, 2.0 * ((diff * dp) @ w), 2.0 * ((dp * dp + diff * d2p) @ w)


def fit_mb(residuals, n_e: int, apply_threshold: bool = True, x0: float | None = None) -> MbFit:
    """Fit the scaled-Chi shape to residual norms via the histogram criterion.

    Minimizes ``sum_k (q_k * (pdf(center_k) - q_k))^2`` over ``a`` in
    ``[A_LO, A_HI]`` by :func:`~robls.adaptive.minimize_bounded` on its
    analytic derivatives, started from the best of a method-of-moments
    estimate and a coarse scan (or from ``x0`` alone on warm-started calls,
    which keeps consecutive IRLS refits in the same local basin).  Returns
    the Chi default ``a = 1`` (with ``fallback=True``) when the residual set
    is unusable (empty after thresholding, or degenerate).
    """
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("residual list must be nonempty")
    upper = None
    if apply_threshold:
        thresh = chi_quantile(n_e, CHI_THRESHOLD_P)
        r = r[r < thresh]
        upper = thresh
    if r.size == 0:
        return MbFit(1.0, n_e, float(np.sqrt(n_e - 1)), fallback=True)
    try:
        hist = build_histogram(r, upper=upper)
    except DegenerateHistogramError:
        return MbFit(1.0, n_e, float(np.sqrt(n_e - 1)), fallback=True)

    criterion = partial(_fit_criterion, hist, n_e=n_e)
    if x0 is None:
        a0 = float(np.sqrt(np.mean(r * r) / n_e))
        candidates = np.concatenate([[a0], np.geomspace(0.1, 5.0, 25)])
        candidates = candidates[(candidates >= A_LO) & (candidates <= A_HI)]
        x0 = candidates[int(np.argmin(criterion(candidates[:, None])[0]))]
    a, obj, _, _ = minimize_bounded(criterion, A_LO, A_HI, x0, lambda a: A_STEP_TOL)
    return MbFit(a, n_e, float(a * np.sqrt(n_e - 1)), objective=obj)


def shift_residuals(residuals, mode: float, tau: float) -> ShiftedResiduals:
    """Partition residuals at the mode and shift the upper part down by it."""
    if tau <= mode:
        raise ValueError(f"truncation bound {tau} must exceed the fitted mode {mode}")
    r = np.asarray(residuals, dtype=float)
    above = r >= mode
    return ShiftedResiduals(
        xi=r[above] - mode,
        nu=float(tau - mode),
        inlier_count=int(np.count_nonzero(~above)),
    )


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
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("residual list must be nonempty")

    fit = fit_mb(r, n_e, apply_threshold=True, x0=a_x0)
    mode = fit.mode
    capped = mode >= MODE_TAU_CAP * tau
    if capped:
        mode = MODE_TAU_CAP * tau

    shifted = shift_residuals(r, mode, tau)
    if shifted.xi.size == 0:
        alpha_res = AlphaOptResult(2.0, 0.0, 0, True)
    else:
        alpha_res = optimize_alpha(
            shifted.xi, CHEBROLU_DOMAIN, bounds=(0.0, shifted.nu), x0=alpha_x0
        )

    above = r >= mode
    weights = np.ones_like(r)
    weights[above] = weight(r[above] - mode, alpha_res.alpha_star)

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
