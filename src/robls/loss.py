"""Robust loss kernels and influence-derived weights.

The adaptive kernel is a single family ``rho(eps, alpha)`` over a shape
parameter ``alpha in (-inf, 2]`` interpolating between squared loss
(``alpha = 2``), a Cauchy-like loss (``alpha = 0``) and a Welsch-like loss
(``alpha = -inf``).  Weights for IRLS are the influence function divided by
the residual, ``w = rho'(eps) / eps``, evaluated in closed form per branch.

Residuals are unitless nonnegative scalars (covariance-normalized error
norms); no extra scale parameter is applied to them here.  The fixed
M-estimators (Cauchy / Tukey / Welsch) instead expect residuals divided by
a Gaussian-consistent sigma estimate, see :func:`fixed_weight`.  For signed
residuals that is :func:`mad_scale`; for error norms, whose median sits
near the Chi mode rather than at zero, :meth:`RobustLoss.weights` divides
by ``median(r) / median(Chi(n_e))`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ALPHA_MIN",
    "BRANCH_TOL",
    "FixedRlf",
    "rho",
    "weight",
    "rho_alpha_derivs",
    "mad_scale",
    "fixed_weight",
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

MAD_CONSISTENCY = 1.4826  # makes MAD consistent with sigma for Gaussian data
MAD_FLOOR = 1e-9

# 95%-efficiency tuning constants, standard M-estimation conventions.
DEFAULT_TUNING = {
    "cauchy": 2.3849,
    "tukey": 4.6851,
    "welsch": 2.9846,
}

VAR_TRIMMED_EXPONENT = 2.0
VAR_TRIMMED_MIN_FRACTION = 0.4


@dataclass(frozen=True)
class FixedRlf:
    """A fixed robust loss: kind plus tuning constant on sigma-scaled residuals."""

    kind: str  # "cauchy" | "tukey" | "welsch" | "var_trimmed"
    tuning_constant: float | None = None

    def __post_init__(self):
        if self.kind not in ("cauchy", "tukey", "welsch", "var_trimmed"):
            raise ValueError(f"unknown fixed RLF kind: {self.kind!r}")
        if self.tuning_constant is not None and self.tuning_constant <= 0:
            raise ValueError("tuning_constant must be positive")

    @property
    def c(self) -> float:
        if self.tuning_constant is not None:
            return self.tuning_constant
        return DEFAULT_TUNING[self.kind]


def _branch(alpha: float) -> str:
    """Classify alpha into one of the four kernel branches."""
    if not np.isfinite(alpha):
        if alpha == -np.inf:
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
    sq = 0.5 * eps * eps
    branch = _branch(alpha)
    if branch == "quadratic":
        return sq
    if branch == "cauchy":
        return np.log1p(sq)
    if branch == "welsch":
        return -np.expm1(-sq)
    b = abs(alpha - 2.0)
    # (b/alpha) * ((eps^2/b + 1)^(alpha/2) - 1), cancellation-safe near the
    # removable singularities via expm1(log1p(.)).
    return (b / alpha) * np.expm1(0.5 * alpha * np.log1p(eps * eps / b))


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


def rho_alpha_derivs(eps, alpha: float):
    """General-branch loss and its first two partial derivatives in alpha.

    Returns ``(rho, drho/dalpha, d2rho/dalpha2)``, sharing one ``log1p``
    and one ``expm1`` per residual.  Only valid strictly inside the general
    branch; callers must stay at least ``BRANCH_TOL`` away from the
    removable singularities at 0 and 2.
    """
    if _branch(alpha) != "general":
        raise ValueError(
            f"rho_alpha_derivs requires alpha strictly inside the general branch, got {alpha}"
        )
    eps = np.asarray(eps, dtype=float)
    e2 = eps * eps
    b = abs(alpha - 2.0)  # = 2 - alpha, so db/dalpha = -1
    be = b + e2
    u = (0.5 * alpha) * np.log1p(e2 / b)  # (alpha/2) ln t, t = 1 + eps^2/b
    em1 = np.expm1(u)
    t_pow = em1 + 1.0
    # q = d(ln t)/dalpha; s = du/dalpha; ds = d2u/dalpha2.
    q = e2 / be * (1.0 / b)
    s = u * (1.0 / alpha) + (0.5 * alpha) * q
    ds = q + (alpha / (2.0 * b)) * q * (b + be) / be
    ps = t_pow * s
    value = (b / alpha) * em1
    first = (-2.0 / alpha**2) * em1 + (b / alpha) * ps
    second = (4.0 / alpha**3) * em1 - (4.0 / alpha**2) * ps + (b / alpha) * t_pow * (s * s + ds)
    return value, first, second


def mad_scale(residuals) -> float:
    """Median absolute deviation, rescaled for Gaussian consistency.

    Returns ``1.4826 * median(|r - median(r)|)`` with a small positive floor
    so that degenerate constant inputs do not divide by zero downstream.
    """
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("mad_scale requires a nonempty residual list")
    mad = MAD_CONSISTENCY * np.median(np.abs(r - np.median(r)))
    return float(max(mad, MAD_FLOOR))


def fixed_weight(rlf: FixedRlf, eps_scaled):
    """Weight of a fixed RLF on sigma-scaled residuals.

    Cauchy ``1/(1+(eps/c)^2)``; Tukey ``(1-(eps/c)^2)^2`` inside ``|eps|<c``,
    0 outside; Welsch ``exp(-(eps/c)^2)``.
    """
    x = np.abs(np.asarray(eps_scaled, dtype=float)) / rlf.c
    if rlf.kind == "cauchy":
        return 1.0 / (1.0 + x * x)
    if rlf.kind == "tukey":
        w = (1.0 - x * x) ** 2
        return np.where(x < 1.0, w, 0.0)
    if rlf.kind == "welsch":
        return np.exp(-x * x)
    raise ValueError(f"fixed_weight does not handle kind {rlf.kind!r}")


def var_trimmed_weights(residuals) -> np.ndarray:
    """Binary weights from the varying trim-fraction criterion.

    Weights 1 the ``k`` smallest residuals, and 0 the rest, for the first
    ``k in [ceil(0.4 n), n]`` minimizing ``mse(kept) / (k / n)^2``: a step
    function of the trim fraction, so every ``k`` is scored, not searched.
    """
    r = np.asarray(residuals, dtype=float)
    n = r.size
    if n == 0:
        raise ValueError("var_trimmed_weights requires a nonempty residual list")
    order = np.argsort(r, kind="stable")
    prefix = np.cumsum(r[order] ** 2)
    ks = np.arange(max(1, int(np.ceil(VAR_TRIMMED_MIN_FRACTION * n))), n + 1)
    criterion = (prefix[ks - 1] / ks) / (ks / n) ** VAR_TRIMMED_EXPONENT
    k = ks[int(np.argmin(criterion))]
    weights = np.zeros(n)
    weights[order[:k]] = 1.0
    return weights
