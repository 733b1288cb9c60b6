"""Truncated-likelihood optimization of the adaptive loss shape parameter.

The shape parameter is chosen by minimizing the negative log-likelihood

    Lam(alpha) = N * log(Z(alpha)) + sum_i rho(eps_i, alpha)

where ``Z`` normalizes ``exp(-rho(., alpha))`` over the residual domain.
Two domains are supported: the original variant, restricted to
``alpha in [0, 2]`` with the normalization taken over the whole real line
(the integral diverges for negative alpha), and the truncated variant, which
normalizes over a bounded interval and admits ``alpha`` down to the
Welsch-like limit.

The minimizer is Newton's method on alpha with an Armijo backtracking line
search and projection onto the domain.  Its gradient and second derivative
are analytic: one quadrature pass yields ``Z`` and both of its alpha
derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .loss import ALPHA_MIN, BRANCH_TOL, _branch, rho, rho_alpha_derivs

__all__ = [
    "AlphaDomain",
    "AlphaOptResult",
    "BARRON_DOMAIN",
    "CHEBROLU_DOMAIN",
    "partition_z",
    "optimize_alpha",
]

UNTRUNCATED_SPAN = 40.0  # half-width used to approximate the improper integral

# Panel width of the composite 24-point Gauss-Legendre rule.  At 1.0, for
# bounds from 0.02 to 80, log Z agrees with adaptive quadrature to about 1e-14
# and dZ/dalpha to about 3e-10 of Z.
PANEL_WIDTH = 1.0

# Newton constants.
ARMIJO_C1 = 1e-4
BACKTRACK_SHRINK = 0.5
MAX_BACKTRACKS = 20
MAX_NEWTON_ITERS = 50
STEP_TOL = 1e-4

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)

# Keep optimizer iterates comfortably clear of the limit-branch switch zones
# so the analytic derivatives stay evaluable after rounding.
_INTERIOR_MARGIN = 4.0 * BRANCH_TOL


@dataclass(frozen=True)
class AlphaDomain:
    """Admissible shape-parameter interval plus normalization variant."""

    variant: str  # "barron" | "chebrolu"
    lo: float
    hi: float = 2.0

    def __post_init__(self):
        if self.variant not in ("barron", "chebrolu"):
            raise ValueError(f"unknown alpha domain variant: {self.variant!r}")


BARRON_DOMAIN = AlphaDomain("barron", 0.0)
CHEBROLU_DOMAIN = AlphaDomain("chebrolu", ALPHA_MIN)


@dataclass
class AlphaOptResult:
    alpha_star: float
    objective: float
    iterations: int
    converged: bool


@lru_cache(maxsize=8)
def _gl_rule(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule on [a, b].

    The integrand is even in eps, so a symmetric interval folds onto [0, b]
    with weight 2.
    """
    scale = 1.0
    if a == -b:
        a, scale = 0.0, 2.0
    panels = max(1, int(np.ceil((b - a) / PANEL_WIDTH)))
    half = 0.5 * (b - a) / panels
    centers = a + half * (2.0 * np.arange(panels) + 1.0)
    nodes = (centers[:, None] + half * _GL_NODES).ravel()
    weights = np.tile(scale * half * _GL_WEIGHTS, panels)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def partition_z(alpha: float, bounds: tuple[float, float]) -> tuple[float, float, float]:
    """Normalization ``Z = integral of exp(-rho(eps, alpha))`` over bounds.

    One pass of a fixed composite 24-point Gauss-Legendre rule with panels
    at most ``PANEL_WIDTH`` wide.  Returns ``(Z, dZ/dalpha, d2Z/dalpha2)``;
    the derivatives come from the same nodes in the general branch and are
    NaN on the limit branches (alpha = 2, 0 and -inf).
    """
    a, b = float(bounds[0]), float(bounds[1])
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"invalid integration bounds [{a}, {b}]")
    x, w = _gl_rule(a, b)
    if _branch(alpha) != "general":
        return float(w @ np.exp(-rho(x, alpha))), np.nan, np.nan
    r, dr, d2r = rho_alpha_derivs(x, alpha)
    wf = w * np.exp(-r)
    return float(wf.sum()), float(-(wf @ dr)), float(wf @ (dr * dr - d2r))


def _untruncated_z(alpha: float, tau_span: float) -> np.ndarray:
    """Approximate normalization, and its alpha derivatives, over the whole real line.

    Integrates over [-T, T] and [-2T, 2T] and removes the leading 1/T tail
    error by extrapolation; exact in the limit for the slowest-decaying case
    (the Cauchy-like alpha = 0 member).
    """
    t = max(tau_span, UNTRUNCATED_SPAN)
    z1 = np.array(partition_z(alpha, (-t, t)))
    z2 = np.array(partition_z(alpha, (-2.0 * t, 2.0 * t)))
    return 2.0 * z2 - z1


class _Objective:
    """Lambda(alpha) and its alpha derivatives for one residual set and domain."""

    def __init__(self, residuals, domain: AlphaDomain, bounds: tuple[float, float]):
        r = np.asarray(residuals, dtype=float)
        if r.size == 0:
            raise ValueError("residual list must be nonempty")
        self.domain = domain
        self.bounds = bounds
        self.span = max(abs(bounds[0]), abs(bounds[1]))
        if domain.variant == "barron":
            hi = max(self.span, UNTRUNCATED_SPAN)
            bounds = (-hi, hi)
        self.residuals = np.clip(r, bounds[0], bounds[1])
        self.n = r.size

    def _z(self, alpha: float):
        """``(Z, dZ/dalpha, d2Z/dalpha2)`` for this domain."""
        if self.domain.variant == "barron":
            return _untruncated_z(alpha, self.span)
        return partition_z(alpha, self.bounds)

    def value(self, alpha: float) -> float:
        return float(self.n * np.log(self._z(alpha)[0]) + np.sum(rho(self.residuals, alpha)))

    def value_derivs(self, alpha: float) -> tuple[float, float, float]:
        """``(Lam, dLam/dalpha, d2Lam/dalpha2)`` at a general-branch alpha."""
        z, dz, d2z = self._z(alpha)
        r, dr, d2r = rho_alpha_derivs(self.residuals, alpha)
        g = dz / z
        return (
            float(self.n * np.log(z) + np.sum(r)),
            float(self.n * g + np.sum(dr)),
            float(self.n * (d2z / z - g * g) + np.sum(d2r)),
        )

    def _interior(self, alpha: float) -> float:
        """Nudge alpha off the removable singularities of the general branch."""
        lo = self.domain.lo
        alpha = min(max(alpha, lo), 2.0 - _INTERIOR_MARGIN)
        if abs(alpha) < _INTERIOR_MARGIN:
            alpha = _INTERIOR_MARGIN if alpha >= 0.0 else -_INTERIOR_MARGIN
            if alpha < lo:
                alpha = lo + _INTERIOR_MARGIN
        return alpha


_SCAN_CHEBROLU = (2.0, 1.5, 1.0, 0.5, 0.05, -0.05, -0.5, -1.0, -2.0, -3.5,
                  -5.0, -8.0, -12.0, -20.0, -35.0, ALPHA_MIN)
_SCAN_BARRON = (2.0, 1.75, 1.5, 1.25, 1.0, 0.75, 0.5, 0.25, 0.1, 0.005)


def _grid_refine(obj: _Objective) -> float:
    """Fallback minimizer: coarse grid with two refinement passes."""
    lo, hi = obj.domain.lo, 2.0
    grid = np.linspace(lo, hi, 105)
    for _ in range(3):
        vals = [obj.value(a) for a in grid]
        best = grid[int(np.nanargmin(vals))]
        width = (grid[1] - grid[0]) * 2.0
        grid = np.linspace(max(lo, best - width), min(hi, best + width), 21)
    return float(best)


def optimize_alpha(
    residuals,
    domain: AlphaDomain,
    bounds: tuple[float, float],
    x0: float | None = None,
) -> AlphaOptResult:
    """Minimize the negative log-likelihood over the shape parameter.

    Newton iterations with Armijo backtracking, started either from ``x0``
    (warm start) or from the best point of a coarse scan over the domain.
    For the truncated variant, a minimizer pinned at the domain floor is
    reported as the ``-inf`` sentinel (the Welsch-like limit).  If the
    objective turns non-finite the optimizer falls back to a bounded grid
    refinement and flags ``converged=False``.
    """
    obj = _Objective(residuals, domain, bounds)
    lo, hi = domain.lo, domain.hi

    try:
        if x0 is not None:
            alpha = obj._interior(float(x0))
        else:
            scan = _SCAN_BARRON if domain.variant == "barron" else _SCAN_CHEBROLU
            scan_vals = [(obj.value(a), a) for a in scan]
            alpha = obj._interior(min(scan_vals)[1])

        lam, g, h = obj.value_derivs(alpha)
        if not np.isfinite(lam):
            raise FloatingPointError("non-finite objective")

        iterations = 0
        converged = False
        for iterations in range(1, MAX_NEWTON_ITERS + 1):
            step = -g / h if (np.isfinite(h) and h > 1e-12) else -np.sign(g) * min(1.0, abs(g))
            t = 1.0
            moved = False
            for _ in range(MAX_BACKTRACKS):
                cand = obj._interior(min(max(alpha + t * step, lo), hi))
                delta = cand - alpha
                if delta == 0.0:
                    break
                lam_cand, g_cand, h_cand = obj.value_derivs(cand)
                if not np.isfinite(lam_cand):
                    raise FloatingPointError("non-finite objective")
                if lam_cand <= lam + ARMIJO_C1 * g * delta:
                    alpha, lam, g, h, moved = cand, lam_cand, g_cand, h_cand, True
                    break
                t *= BACKTRACK_SHRINK
            # Lam' grows like log(1 / (2 - alpha)) near alpha = 2, so Newton
            # steps there shrink with 2 - alpha and are not a sign of convergence.
            if not moved or abs(delta) < STEP_TOL * min(1.0, 2.0 - alpha):
                converged = True
                break

        # A true boundary minimum at alpha = 2 beats the interior nudge.
        if alpha >= 2.0 - 2.0 * _INTERIOR_MARGIN:
            lam2 = obj.value(2.0)
            if lam2 <= lam:
                alpha, lam = 2.0, lam2
    except FloatingPointError:
        alpha = _grid_refine(obj)
        lam = obj.value(alpha)
        return AlphaOptResult(alpha, lam, MAX_NEWTON_ITERS, False)

    if domain.variant == "chebrolu" and alpha <= lo + 1e-9:
        alpha = -np.inf
        lam = obj.value(alpha)
    return AlphaOptResult(float(alpha), float(lam), iterations, converged)
