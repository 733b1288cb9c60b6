"""Truncated-likelihood optimization of the adaptive loss shape parameter.

The shape parameter is chosen by minimizing the negative log-likelihood

    Lam(alpha) = N * log(Z(alpha)) + sum_i rho(eps_i, alpha)

where ``Z`` normalizes ``exp(-rho(., alpha))`` over the residual domain.
Two domains are supported: the original variant, restricted to
``alpha in [0, 2]`` with the normalization taken over the whole real line
(the integral diverges for negative alpha), and the truncated variant, which
normalizes over a bounded interval and admits ``alpha`` down to the
Welsch-like limit.

This fit and the scaled-Chi shape fit of :mod:`robls.mbfit` both run on
:func:`minimize_bounded`, a safeguarded Newton method on an interval.  Here
the gradient and second derivative are analytic: one quadrature pass yields
``Z`` and both of its alpha derivatives.
"""

from __future__ import annotations

from collections.abc import Callable
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
    "minimize_bounded",
    "optimize_alpha",
]

UNTRUNCATED_SPAN = 40.0  # half-width used to approximate the improper integral

# Panel width of the composite 24-point Gauss-Legendre rule.  At 1.0, for
# bounds from 0.02 to 80, log Z agrees with adaptive quadrature to about 1e-14
# and dZ/dalpha to about 3e-10 of Z.
PANEL_WIDTH = 1.0

# Constants of minimize_bounded.
ARMIJO_C1 = 1e-4
BACKTRACK_SHRINK = 0.5
MAX_BACKTRACKS = 20
MAX_NEWTON_ITERS = 50

# Alpha step tolerance, scaled by min(1, 2 - alpha): Lam' grows like
# log(1 / (2 - alpha)) near 2, so small steps there do not mean convergence.
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


def _off_zero(alpha: float) -> float:
    """Nudge alpha off the removable singularity of the general branch at 0."""
    return alpha if abs(alpha) >= _INTERIOR_MARGIN else float(np.copysign(_INTERIOR_MARGIN, alpha))


def minimize_bounded(f: Callable[[float], tuple[float, float, float]], lo: float, hi: float,
                     x0: float, tol: Callable[[float], float]) -> tuple[float, float, int, bool]:
    """Minimize a smooth ``f`` of one variable on ``[lo, hi]`` from ``x0``.

    ``f(x)`` returns ``(f, f', f'')``.  A Newton step where ``f'' > 0``, else
    a downhill step of doubling length (1, 2, 4, ...), is projected onto
    ``[lo, hi]`` and halved until the Armijo condition holds.  Once an
    accepted move ends where ``f'`` points back, a minimum lies between the
    last two iterates, and a step leaving that bracket, or any where
    ``f'' <= 0``, becomes its midpoint.  Only accepted iterates bound the
    bracket, never the domain ends, so it cannot bisect onto a flat tail.

    Returns ``(x, f(x), iterations, converged)``, converged once a move or the
    bracket is shorter than ``tol(x)`` or no step lowers ``f``.  Raises
    ``FloatingPointError`` if ``f`` or ``f'`` is not finite.
    """

    def evaluate(x):
        fx, g, h = f(x)
        if not (np.isfinite(fx) and np.isfinite(g)):
            raise FloatingPointError(f"non-finite objective at {x}")
        return fx, g, h

    x = min(max(float(x0), lo), hi)
    fx, g, h = evaluate(x)
    far = None  # the accepted iterate on the other side of a minimum
    stride = 1.0
    for iteration in range(1, MAX_NEWTON_ITERS + 1):
        newton = x - g / h if h > 0.0 else None
        if far is not None:
            inside = newton is not None and min(x, far) < newton < max(x, far)
            target = newton if inside else 0.5 * (x + far)
        elif newton is not None:
            target = min(max(newton, lo), hi)
        else:
            target = min(max(x - np.copysign(stride, g), lo), hi)
            stride *= 2.0
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            delta = t * (target - x)
            if delta == 0.0:
                return x, fx, iteration, True
            fc, gc, hc = evaluate(x + delta)
            if fc <= fx + ARMIJO_C1 * g * delta:
                break
            t *= BACKTRACK_SHRINK
        else:
            return x, fx, iteration, True
        if gc * delta > 0.0:
            far = x
        x, fx, g, h = x + delta, fc, gc, hc
        if abs(delta) < tol(x) or (far is not None and abs(far - x) < tol(x)):
            return x, fx, iteration, True
    return x, fx, MAX_NEWTON_ITERS, False


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

    :func:`minimize_bounded` on the analytic ``Lam'`` and ``Lam''``, started
    from ``x0`` (warm start) or the best point of a coarse scan, with the
    iterates kept clear of the limit branches at 0 and 2; the boundary value
    at 2 is checked last.  For the truncated variant, a minimizer pinned at
    the domain floor is reported as the ``-inf`` sentinel (the Welsch-like
    limit).  If the objective turns non-finite the optimizer falls back to a
    bounded grid refinement and flags ``converged=False``.
    """
    obj = _Objective(residuals, domain, bounds)
    lo = domain.lo if domain.lo < 0.0 else domain.lo + _INTERIOR_MARGIN

    try:
        if x0 is None:
            scan = _SCAN_BARRON if domain.variant == "barron" else _SCAN_CHEBROLU
            x0 = min((obj.value(a), a) for a in scan)[1]
        alpha, lam, iterations, converged = minimize_bounded(
            lambda a: obj.value_derivs(_off_zero(a)), lo, domain.hi - _INTERIOR_MARGIN, x0,
            lambda a: STEP_TOL * min(1.0, 2.0 - a))
        alpha = _off_zero(alpha)

        # A true boundary minimum at alpha = 2 beats the interior margin.
        if alpha >= 2.0 - 2.0 * _INTERIOR_MARGIN:
            lam2 = obj.value(2.0)
            if lam2 <= lam:
                alpha, lam = 2.0, lam2
    except FloatingPointError:
        alpha = _grid_refine(obj)
        lam = obj.value(alpha)
        return AlphaOptResult(alpha, lam, MAX_NEWTON_ITERS, False)

    if domain.variant == "chebrolu" and alpha <= domain.lo + 1e-9:
        alpha = -np.inf
        lam = obj.value(alpha)
    return AlphaOptResult(float(alpha), float(lam), iterations, converged)
