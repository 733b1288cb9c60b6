"""Robust loss kernels and influence-derived weights.

The adaptive kernel is a single family ``rho(eps, alpha)`` over a shape
parameter ``alpha in (-inf, 2]`` interpolating between squared loss
(``alpha = 2``), a Cauchy-like loss (``alpha = 0``) and a Welsch-like loss
(``alpha = -inf``).  Weights for IRLS are the influence function divided by
the residual, ``w = rho'(eps) / eps``, evaluated in closed form per branch.
The alpha search reads the general branch from squared residuals: there
``rho = k * expm1(u)`` with ``k = (2 - alpha) / alpha`` (:func:`rho_general`
of :func:`rho_scale` and :func:`rho_em1`), and :func:`rho_alpha_terms`
returns ``expm1(u)`` with its two alpha derivatives, whose sums give the
sums of the loss and of its derivatives by the product rule
(:func:`rho_alpha_sums`).

Residuals are unitless nonnegative scalars (covariance-normalized error
norms); no extra scale parameter is applied to them here.  The fixed
M-estimators (Cauchy / Tukey / Welsch) instead expect residuals divided by
a Gaussian-consistent sigma estimate, see :func:`fixed_weight`.  Error
norms have their median near the Chi mode rather than at zero, so
:meth:`~robls.weighting.RobustLoss.weights` divides them by
``median(r) / median(Chi(n_e))``.

:func:`check_norms` is the one rule for a residual set: every public
function that takes one (``RobustLoss.weights``, ``adaptive_mb_weights``,
``fit_mb``, ``optimize_alpha`` and :func:`var_trimmed_weights`) calls it on
entry, and the internal steps behind them trust its result.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ALPHA_MIN",
    "BRANCH_TOL",
    "check_norms",
    "rho",
    "weight",
    "var_trimmed_weights",
]

# Shape values below ALPHA_MIN are mapped to the alpha = -inf limit.  At
# ALPHA_MIN the general branch still differs from that limit by up to 0.0103
# in weight (near eps = 2) and 0.04 in rho (the tail plateau, 2 / |alpha|)
# over eps in [0, 20]; a weight gap under 1e-3 needs alpha below about -540.
ALPHA_MIN = -50.0

# Half-width of the alpha neighbourhoods routed to the exact limit branches.
# The general branch is evaluated with expm1/log1p, so it stays accurate much
# closer to the removable singularities at 0 and 2 than naive powers would.
BRANCH_TOL = 1e-6

MAD_FLOOR = 1e-9

# 95%-efficiency tuning constants, standard M-estimation conventions.
DEFAULT_TUNING = {
    "cauchy": 2.3849,
    "tukey": 4.6851,
    "welsch": 2.9846,
}

VAR_TRIMMED_EXPONENT = 2.0
VAR_TRIMMED_MIN_FRACTION = 0.4


def check_norms(residuals) -> np.ndarray:
    """``residuals`` as a float array, or ``ValueError`` unless it is a
    nonempty set of finite, nonnegative norms.
    """
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("residual list must be nonempty")
    # NaN fails the first test, +inf the second.
    if not (r.min() >= 0.0 and r.max() < np.inf):
        raise ValueError(
            "residual norms must be finite and nonnegative, got "
            f"{np.isnan(r).sum()} NaN, {np.isinf(r).sum()} infinite and "
            f"{(r < 0.0).sum()} negative"
        )
    return r


def _branch(alpha: float) -> str:
    """Classify alpha into one of the four kernel branches."""
    if not math.isfinite(alpha):
        if alpha == -math.inf:
            return "welsch"
        raise ValueError(f"invalid shape parameter: {alpha}")
    if alpha > 2.0 + BRANCH_TOL:
        raise ValueError(f"shape parameter must be <= 2, got {alpha}")
    if alpha < ALPHA_MIN:
        return "welsch"
    if abs(alpha - 2.0) < BRANCH_TOL:
        return "quadratic"
    if abs(alpha) < BRANCH_TOL:
        return "cauchy"
    return "general"


def rho(eps, alpha: float):
    """Adaptive robust loss value.

    Vectorized over ``eps`` (nonnegative residuals); ``alpha`` is scalar.
    ``rho(0, alpha) = 0`` for every alpha and the function is nondecreasing
    in ``eps``.
    """
    eps = np.asarray(eps, dtype=float)
    return rho_sq(eps * eps, alpha)


def rho_sq(e2, alpha: float):
    """:func:`rho` of the residuals whose squares are ``e2``."""
    branch = _branch(alpha)
    if branch == "quadratic":
        return 0.5 * e2
    if branch == "cauchy":
        return np.log1p(0.5 * e2)
    if branch == "welsch":
        return -np.expm1(-0.5 * e2)
    return rho_general(e2, alpha)


def rho_general(e2, alpha):
    """General-branch loss ``k * expm1(u)`` of the squared residuals ``e2``
    (:func:`rho_scale`, :func:`rho_em1`); broadcasts like :func:`rho_em1`."""
    return rho_scale(alpha) * rho_em1(e2, alpha)


def rho_scale(alpha):
    """``k = b / alpha``, ``b = 2 - alpha``: on the general branch
    ``rho = k * expm1(u)`` (:func:`rho_em1`).  Broadcasts over an array of
    alpha."""
    return (2.0 - alpha) / alpha


def _log_t(e2, alpha):
    """``ln t`` with ``t = 1 + e2 / b``; broadcasts ``e2`` against ``alpha``."""
    return np.log1p(e2 / (2.0 - alpha))


def rho_em1(e2, alpha):
    """``expm1(u)``, the general-branch loss over ``k`` of :func:`rho_scale`.

    ``rho = (b/alpha) * ((eps^2/b + 1)^(alpha/2) - 1)`` with ``b = 2 - alpha``
    is ``k * expm1(u)``, ``u = (alpha/2) log1p(eps^2/b)``, cancellation-safe
    near the removable singularities at 0 and 2.  ``e2`` holds the squared
    residuals.  A column of ``alpha`` gives one row per value, each
    bit-identical to the scalar call; no branch check is made.
    """
    return np.expm1((0.5 * alpha) * _log_t(e2, alpha))


def weight(eps, alpha: float):
    """IRLS weight ``rho'(eps)/eps`` for the adaptive kernel.

    Equals 1 at ``eps = 0`` (analytic limit) for every alpha and never
    exceeds 1.
    """
    eps = np.asarray(eps, dtype=float)
    branch = _branch(alpha)
    if branch == "quadratic":
        return np.ones_like(eps)
    if branch == "cauchy":
        return 1.0 / (0.5 * eps * eps + 1.0)
    if branch == "welsch":
        return np.exp(-0.5 * eps * eps)
    b = abs(alpha - 2.0)
    return np.exp((0.5 * alpha - 1.0) * np.log1p(eps * eps / b))


def rho_alpha_terms(e2, alpha: float):
    """``expm1(u)`` and its first two partial derivatives in alpha.

    Per squared residual in ``e2``, with ``u`` of :func:`rho_em1`: since
    ``d expm1(u)/dalpha = t s`` with ``t = e^u`` and ``s = du/dalpha``, the
    terms are ``(expm1(u), t s, t (s^2 + ds))``, ``ds = d2u/dalpha2``, from
    one ``log1p`` and one ``expm1`` per residual.  The loss is
    ``k * expm1(u)`` (:func:`rho_scale`), so it and its alpha derivatives
    are linear in the terms (:func:`rho_alpha_sums`).  Only valid strictly
    inside the general branch; callers must stay at least ``BRANCH_TOL``
    away from the removable singularities at 0 and 2.
    """
    if _branch(alpha) != "general":
        raise ValueError(
            f"rho_alpha_terms requires alpha strictly inside the general branch, got {alpha}"
        )
    log_t = _log_t(e2, alpha)
    em1 = np.expm1((0.5 * alpha) * log_t)  # as in rho_em1
    t = em1 + 1.0
    # With b = 2 - alpha (db/dalpha = -1), y = e2 / (b + e2) and c = alpha / (2b):
    # d(ln t)/dalpha = y / b, so s = du/dalpha = ln(t) / 2 + c y and
    # ds = d2u/dalpha2 = (y / b) (1 + c (2 - y)).
    b = 2.0 - alpha
    c = alpha / (2.0 * b)
    y = e2 / (b + e2)
    s = 0.5 * log_t + c * y
    ds = y * (1.0 / b + (c / b) * (2.0 - y))
    return em1, t * s, t * (s * s + ds)


def rho_alpha_sums(alpha: float, em1, dem1, d2em1):
    """``(rho, drho/dalpha, d2rho/dalpha2)`` from the terms of
    :func:`rho_alpha_terms`, by the product rule on ``rho = k * expm1(u)``.

    Linear in the terms, so the sums of the terms over a residual set (or
    their weighted sums) give the sums of the loss and its derivatives.
    """
    k, k1, k2 = rho_scale(alpha), -2.0 / alpha**2, 4.0 / alpha**3
    return k * em1, k1 * em1 + k * dem1, k2 * em1 + 2.0 * k1 * dem1 + k * d2em1


def fixed_weight(kind: str, eps_scaled):
    """Weight of a fixed RLF on sigma-scaled residuals.

    Cauchy ``1/(1+(eps/c)^2)``; Tukey ``(1-(eps/c)^2)^2`` inside ``|eps|<c``,
    0 outside; Welsch ``exp(-(eps/c)^2)``; ``c`` is the kind's constant in
    ``DEFAULT_TUNING``.
    """
    c = DEFAULT_TUNING.get(kind)
    if c is None:
        raise ValueError(f"fixed_weight does not handle kind {kind!r}")
    x = np.abs(np.asarray(eps_scaled, dtype=float)) / c
    if kind == "cauchy":
        return 1.0 / (1.0 + x * x)
    if kind == "tukey":
        w = (1.0 - x * x) ** 2
        return np.where(x < 1.0, w, 0.0)
    return np.exp(-x * x)


def var_trimmed_weights(residuals) -> np.ndarray:
    """Binary weights from the varying trim-fraction criterion.

    Weights 1 the ``k`` smallest residuals, and 0 the rest, for the first
    ``k in [ceil(0.4 n), n]`` minimizing ``mse(kept) / (k / n)^2``: a step
    function of the trim fraction, so every ``k`` is scored, not searched.
    The scores come from prefix sums over the sorted residuals ``s``.  The
    kept set is the residuals at most ``s[k-1]``, less the highest-indexed
    residuals equal to ``s[k-1]`` beyond ``k`` in all: ties at the cut keep
    their index order, so this is the first ``k`` of a stable argsort,
    without the argsort.
    The residuals must pass :func:`check_norms`.
    """
    r = check_norms(residuals)
    n = r.size
    s = np.sort(r)
    prefix = np.cumsum(s**2)
    ks = np.arange(max(1, int(np.ceil(VAR_TRIMMED_MIN_FRACTION * n))), n + 1)
    criterion = (prefix[ks - 1] / ks) / (ks / n) ** VAR_TRIMMED_EXPONENT
    k = ks[int(np.argmin(criterion))]
    weights = (r <= s[k - 1]).astype(float)
    surplus = np.count_nonzero(weights) - k
    if surplus:
        weights[np.flatnonzero(r == s[k - 1])[-surplus:]] = 0.0
    return weights
