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
search, a numeric second derivative, and projection onto the domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loss import ALPHA_MIN, BRANCH_TOL, drho_dalpha, rho

__all__ = [
    "AlphaDomain",
    "AlphaOptResult",
    "BARRON_DOMAIN",
    "CHEBROLU_DOMAIN",
    "partition_z",
    "optimize_alpha",
]

QUAD_TOL = 1e-9
UNTRUNCATED_SPAN = 40.0  # half-width used to approximate the improper integral

# Newton constants.
ARMIJO_C1 = 1e-4
BACKTRACK_SHRINK = 0.5
MAX_BACKTRACKS = 20
MAX_NEWTON_ITERS = 50
STEP_TOL = 1e-4
HESS_STEP = 1e-3

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)

# Keep optimizer iterates comfortably clear of the limit-branch switch zones
# so the analytic gradient stays evaluable after rounding.
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


def _composite_gl(f, a: float, b: float, panels: int) -> float:
    """Fixed-order Gauss-Legendre on ``panels`` equal subintervals."""
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    x = (centers[:, None] + half * _GL_NODES[None, :]).ravel()
    fx = f(x)
    return float(half * np.dot(fx.reshape(panels, -1).sum(axis=0), _GL_WEIGHTS))


def _adaptive_gl(f, a: float, b: float, tol: float = QUAD_TOL) -> float:
    """Panel-doubling Gauss-Legendre quadrature to absolute tolerance."""
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"invalid integration bounds [{a}, {b}]")
    panels = 1
    prev = _composite_gl(f, a, b, panels)
    for _ in range(10):
        panels *= 2
        cur = _composite_gl(f, a, b, panels)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    return prev


def partition_z(alpha: float, bounds: tuple[float, float], tol: float = QUAD_TOL) -> float:
    """Normalization constant ``integral of exp(-rho(eps, alpha))`` over bounds."""
    a, b = bounds
    return _adaptive_gl(lambda x: np.exp(-rho(x, alpha)), a, b, tol)


def _moment_integral(alpha: float, bounds: tuple[float, float]) -> float:
    """``integral of exp(-rho) * drho/dalpha`` over bounds (general branch only)."""
    a, b = bounds
    return _adaptive_gl(lambda x: np.exp(-rho(x, alpha)) * drho_dalpha(x, alpha), a, b)


def _clamp_residuals(residuals, bounds) -> np.ndarray:
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("residual list must be nonempty")
    return np.clip(r, bounds[0], bounds[1])


def _untruncated_z(alpha: float, tau_span: float) -> float:
    """Approximate normalization over the whole real line.

    Integrates over [-T, T] and [-2T, 2T] and removes the leading 1/T tail
    error by extrapolation; exact in the limit for the slowest-decaying case
    (the Cauchy-like alpha = 0 member).
    """
    t = max(tau_span, UNTRUNCATED_SPAN)
    z1 = partition_z(alpha, (-t, t))
    z2 = partition_z(alpha, (-2.0 * t, 2.0 * t))
    return 2.0 * z2 - z1


def _untruncated_moment(alpha: float, tau_span: float) -> float:
    t = max(tau_span, UNTRUNCATED_SPAN)
    m1 = _moment_integral(alpha, (-t, t))
    m2 = _moment_integral(alpha, (-2.0 * t, 2.0 * t))
    return 2.0 * m2 - m1


class _Objective:
    """Lambda(alpha) and its gradient for one residual set and domain."""

    def __init__(self, residuals, domain: AlphaDomain, bounds: tuple[float, float]):
        self.domain = domain
        self.bounds = bounds
        span = max(abs(bounds[0]), abs(bounds[1]))
        self.span = span
        if domain.variant == "barron":
            clamp_hi = max(span, UNTRUNCATED_SPAN)
            self.residuals = np.clip(np.asarray(residuals, dtype=float), -clamp_hi, clamp_hi)
        else:
            self.residuals = _clamp_residuals(residuals, bounds)
        self.n = self.residuals.size

    def _z(self, alpha: float) -> float:
        if self.domain.variant == "barron":
            return _untruncated_z(alpha, self.span)
        return partition_z(alpha, self.bounds)

    def value(self, alpha: float) -> float:
        return float(self.n * np.log(self._z(alpha)) + np.sum(rho(self.residuals, alpha)))

    def grad(self, alpha: float) -> float:
        alpha = self._interior(alpha)
        z = self._z(alpha)
        if self.domain.variant == "barron":
            moment = _untruncated_moment(alpha, self.span)
        else:
            moment = _moment_integral(alpha, self.bounds)
        return float(-self.n / z * moment + np.sum(drho_dalpha(self.residuals, alpha)))

    def _interior(self, alpha: float) -> float:
        """Nudge alpha off the removable singularities of the general branch."""
        lo = self.domain.lo
        alpha = min(max(alpha, lo), 2.0 - _INTERIOR_MARGIN)
        if abs(alpha) < _INTERIOR_MARGIN:
            alpha = _INTERIOR_MARGIN if alpha >= 0.0 else -_INTERIOR_MARGIN
            if alpha < lo:
                alpha = lo + _INTERIOR_MARGIN
        return alpha

    def hess(self, alpha: float) -> float:
        lo, hi = self.domain.lo, 2.0 - _INTERIOR_MARGIN
        h = HESS_STEP
        up, down = alpha + h, alpha - h
        if up > hi:
            up, down = hi, hi - 2.0 * h
        if down < lo:
            up, down = lo + 2.0 * h, lo
        return (self.grad(up) - self.grad(down)) / (up - down)


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

        lam = obj.value(alpha)
        if not np.isfinite(lam):
            raise FloatingPointError("non-finite objective")

        iterations = 0
        converged = False
        for iterations in range(1, MAX_NEWTON_ITERS + 1):
            g = obj.grad(alpha)
            h = obj.hess(alpha)
            step = -g / h if (np.isfinite(h) and h > 1e-12) else -np.sign(g) * min(1.0, abs(g))
            t = 1.0
            moved = False
            for _ in range(MAX_BACKTRACKS):
                cand = obj._interior(min(max(alpha + t * step, lo), hi))
                delta = cand - alpha
                if delta == 0.0:
                    break
                lam_cand = obj.value(cand)
                if not np.isfinite(lam_cand):
                    raise FloatingPointError("non-finite objective")
                if lam_cand <= lam + ARMIJO_C1 * g * delta:
                    alpha, lam, moved = cand, lam_cand, True
                    break
                t *= BACKTRACK_SHRINK
            if not moved or abs(delta) < STEP_TOL:
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
