"""Truncated-likelihood optimization of the adaptive loss shape parameter.

The shape parameter is chosen by minimizing the negative log-likelihood

    Lam(alpha) = N * log(Z(alpha)) + sum_i rho(eps_i, alpha)

where ``Z`` normalizes ``exp(-rho(., alpha))`` over the residual domain.
Two domains are supported: the original variant, restricted to
``alpha in [0, 2]`` with the normalization taken over the whole real line
(the integral diverges for negative alpha), and the truncated variant, which
normalizes over a bounded interval and admits ``alpha`` down to the
Welsch-like limit.

Every ``Z`` is one pass of a fixed composite Gauss-Legendre rule.  The
coarse start scan, the alpha = 2 check, the ``-inf`` sentinel and the grid
fallback need ``Z`` alone and take it from :func:`partition_z`; the scan
evaluates all of its general-branch points in one broadcast pass, with alpha
as a column, bit-identical to evaluating them one at a time.  Only the Newton
steps of :func:`minimize_bounded` need the alpha derivatives of ``Z``, which
give ``Lam'`` and ``Lam''`` analytically.  :class:`_Objective` lays its rule
once per fit, next to the clipped residuals, so that one
:func:`~robls.loss.rho_alpha_derivs` pass over ``[nodes | residuals]`` yields
the ``Z`` moments and the residual sums together.  The whole-line ``Z`` of the
original variant is the bounds ``(-inf, inf)``: the rule on ``[0, T]`` plus
the tail ``eps = T e^s`` laid in ``s``, the same for every tau.  Only the
truncated passes grow with tau.

``Z`` depends on alpha and the bounds alone, never on the residuals, so one
least-recently-used memo of ``Z_MEMO_SIZE`` passes, keyed by
``(alpha, a, b, derivs)``, serves both :func:`partition_z` (``Z`` alone) and
the Newton evaluations (the moments).  A pass is a pure function of its key,
so a hit returns the objects of the first pass and every output stays
bit-identical.  ``chebrolu`` fixes its bounds by tau and ``barron`` always
takes the whole line, so every cold fit repeats the same scan, alpha = 2
check and ``-inf`` sentinel, and its first Newton evaluation sits at a scan
point (or, warm, at the previous alpha*); those passes are computed once per
process, and a Newton evaluation that hits passes over the residuals alone.
The bounds of ``adaptive_mb``, ``(0, tau - mode)``, move with the fitted
mode, so its evaluations almost never hit and store the moments of their
fused pass.

This fit and the scaled-Chi shape fit of :mod:`robls.mbfit` both run on
:func:`minimize_bounded`, a safeguarded Newton method on an interval.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .loss import ALPHA_MIN, BRANCH_TOL, _branch, _rho_general, rho, rho_alpha_derivs

__all__ = [
    "AlphaDomain",
    "AlphaOptResult",
    "BARRON_DOMAIN",
    "CHEBROLU_DOMAIN",
    "TAU_MAX",
    "check_tau",
    "minimize_bounded",
    "optimize_alpha",
]

# Where the whole-line rule switches from panels in eps to panels in log eps,
# and the half-width to which the original variant clips its residuals.
UNTRUNCATED_SPAN = 40.0

# Largest truncation bound tau.  A truncated pass lays a fixed number of nodes
# per unit of span, so its cost and memory grow linearly in tau: at this cap
# one pass over [-tau, tau] holds 24k nodes.  The whole-line pass of the
# original variant holds 1440 for every tau.
TAU_MAX = 1000.0


def check_tau(tau: float) -> None:
    """Raise ``ValueError`` unless ``0 < tau <= TAU_MAX``."""
    if not 0.0 < tau <= TAU_MAX:
        raise ValueError(
            f"truncation bound tau must be positive and finite, at most {TAU_MAX:g}, got {tau}"
        )

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

# Entries of the Z memo.  One cold fit repeats a handful of keys per domain
# and tau, so a few hundred keep them while Newton iterates, which rarely
# repeat, cycle through.
Z_MEMO_SIZE = 256

# The Z memo, shared by partition_z and _Objective.value_derivs: key
# (alpha, a, b, derivs) -> Z alone (derivs False, from partition_z)
# or the Z moments (derivs True, from value_derivs), oldest first.
# The lock keeps each lookup-and-reorder or insert-and-evict whole.
_Z_MEMO: OrderedDict = OrderedDict()
_Z_MEMO_LOCK = threading.Lock()

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


def _panels(a: float, b: float, width: float, scale: float = 1.0):
    """Nodes and weights of the 24-point rule on [a, b], panels at most ``width`` wide."""
    panels = max(1, int(np.ceil((b - a) / width)))
    half = 0.5 * (b - a) / panels
    centers = a + half * (2.0 * np.arange(panels) + 1.0)
    nodes = (centers[:, None] + half * _GL_NODES).ravel()
    return nodes, np.tile(scale * half * _GL_WEIGHTS, panels)


@lru_cache(maxsize=8)
def _gl_rule(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule on [a, b].

    The integrand is even in eps, so a symmetric interval folds onto [0, b]
    with weight 2.  The whole line ``(-inf, inf)`` folds onto the rule on
    ``[0, T]``, ``T = UNTRUNCATED_SPAN``, followed by the tail
    ``eps = T e^s`` for ``s`` in [0, 40], in panels 2 wide in ``s`` with
    weights ``2 T e^s w_k``.  Past ``T e^40`` the slowest-decaying
    integrand, ``2 / eps^2`` at alpha = 0, leaves under 1e-19 of ``Z``.
    """
    scale = 1.0
    if a == -b:
        a, scale = 0.0, 2.0
    whole_line = math.isinf(b)
    nodes, weights = _panels(a, UNTRUNCATED_SPAN if whole_line else b, PANEL_WIDTH, scale)
    if whole_line:
        s, ws = _panels(0.0, 40.0, 2.0, scale)
        tail = UNTRUNCATED_SPAN * np.exp(s)
        nodes, weights = np.concatenate([nodes, tail]), np.concatenate([weights, tail * ws])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _checked_bounds(bounds) -> tuple[float, float]:
    """Finite ``a < b``, or the whole line ``(-inf, inf)``."""
    a, b = float(bounds[0]), float(bounds[1])
    if (a, b) != (-math.inf, math.inf) and not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"invalid integration bounds [{a}, {b}]")
    return a, b


def _memo_get(key):
    """The memoized pass of ``key``, marked most recently used, or None."""
    with _Z_MEMO_LOCK:
        z = _Z_MEMO.get(key)
        if z is not None:
            _Z_MEMO.move_to_end(key)
    return z


def _memo_put(key, z):
    """Keep ``z`` as the pass of ``key``, dropping the oldest beyond the size."""
    with _Z_MEMO_LOCK:
        _Z_MEMO[key] = z
        if len(_Z_MEMO) > Z_MEMO_SIZE:
            _Z_MEMO.popitem(last=False)
    return z


def partition_z(alpha, bounds: tuple[float, float]):
    """Normalization ``Z = integral of exp(-rho(eps, alpha))`` over bounds.

    One pass of a fixed composite 24-point Gauss-Legendre rule with panels
    at most ``PANEL_WIDTH`` wide; the bounds ``(-inf, inf)`` give the whole
    line (see :func:`_gl_rule`), where ``Z`` is finite for alpha >= 0 only.
    ``alpha`` may also be a 1-D array of general-branch values, which
    returns their ``Z`` as an array from one broadcast pass.  The alpha
    derivatives of ``Z``, which only the Newton steps need, come from
    :meth:`_Objective.value_derivs`.

    Passes are memoized in the least-recently-used memo of ``Z_MEMO_SIZE``
    entries keyed by ``(alpha, a, b, False)``, with alpha as a float or, for
    the broadcast pass, a tuple of floats.  A repeated call returns the
    objects of the first, bit-identical because the pass is a pure function
    of its key; array results are read-only.
    """
    a, b = _checked_bounds(bounds)
    alpha = float(alpha) if np.ndim(alpha) == 0 else tuple(np.asarray(alpha, dtype=float).tolist())
    key = (alpha, a, b, False)
    z = _memo_get(key)
    return _memo_put(key, _z_pass(alpha, a, b)) if z is None else z


def _z_pass(alpha, a: float, b: float):
    """The unmemoized pass of :func:`partition_z`; a tuple ``alpha`` is a vector."""
    x, w = _gl_rule(a, b)
    if np.ndim(alpha) == 0 and _branch(alpha) != "general":
        return float(w @ np.exp(-rho(x, alpha)))
    z = (w * np.exp(-_rho_general(x, np.asarray(alpha, dtype=float)[..., None]))).sum(axis=-1)
    if isinstance(alpha, tuple):
        z.flags.writeable = False
    return z


class _Objective:
    """Lambda(alpha) and its alpha derivatives for one residual set and domain.

    The quadrature rule of the domain is laid once, at construction, next to
    the clipped residuals: over the bounds for the truncated variant, over
    the whole line for the original one, whose residuals are clipped to
    ``+-max(span, UNTRUNCATED_SPAN)``.
    """

    def __init__(self, residuals, domain: AlphaDomain, bounds: tuple[float, float]):
        r = np.asarray(residuals, dtype=float)
        if r.size == 0:
            raise ValueError("residual list must be nonempty")
        self.domain = domain
        if domain.variant == "barron":
            t = max(abs(bounds[0]), abs(bounds[1]), UNTRUNCATED_SPAN)
            bounds, z_bounds = (-t, t), (-math.inf, math.inf)
        else:
            z_bounds = bounds
        self.bounds = _checked_bounds(z_bounds)  # of the Z integral
        self.residuals = np.clip(r, bounds[0], bounds[1])
        self.n = r.size
        nodes, self._weights = _gl_rule(*self.bounds)
        self._points = np.concatenate([nodes, self.residuals])

    def value(self, alpha: float) -> float:
        z = partition_z(alpha, self.bounds)
        return float(self.n * np.log(z) + np.sum(rho(self.residuals, alpha)))

    def values(self, alphas) -> list[float]:
        """``Lam`` at each general-branch alpha, from one broadcast pass.

        Bit-identical to calling :meth:`value` on each.
        """
        col = np.asarray(alphas, dtype=float)
        z = partition_z(col, self.bounds)
        sums = _rho_general(self.residuals, col[:, None]).sum(axis=1)
        return [float(self.n * np.log(zi) + si) for zi, si in zip(z, sums)]

    def value_derivs(self, alpha: float) -> tuple[float, float, float]:
        """``(Lam, dLam/dalpha, d2Lam/dalpha2)`` at a general-branch alpha.

        The ``Z`` moments (Z, dZ/dalpha, d2Z/dalpha2) come from the memo it
        shares with :func:`partition_z`, keyed with ``derivs`` True; on a
        miss one pass over the nodes and the residuals together computes
        them, and the memo keeps them.
        """
        key = (float(alpha), *self.bounds, True)
        moments = _memo_get(key)
        if moments is None:
            r, dr, d2r = rho_alpha_derivs(self._points, alpha)
            k = self._weights.size
            wf, h = self._weights * np.exp(-r[:k]), dr[:k] * dr[:k] - d2r[:k]
            moments = _memo_put(key, (float(wf.sum()), float(-(wf @ dr[:k])), float(wf @ h)))
            r, dr, d2r = r[k:], dr[k:], d2r[k:]
        else:
            r, dr, d2r = rho_alpha_derivs(self.residuals, alpha)
        z, dz, d2z = moments
        g = dz / z
        return (
            float(self.n * np.log(z) + r.sum()),
            float(self.n * g + dr.sum()),
            float(self.n * (d2z / z - g * g) + d2r.sum()),
        )


def _off_zero(alpha: float) -> float:
    """Nudge alpha off the removable singularity of the general branch at 0."""
    return alpha if abs(alpha) >= _INTERIOR_MARGIN else math.copysign(_INTERIOR_MARGIN, alpha)


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
        if not (math.isfinite(fx) and math.isfinite(g)):
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


# Both scans start at alpha = 2, a limit branch; the rest are general-branch.
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

    ``objective`` is always ``Lam`` at the reported ``alpha_star``.  For the
    sentinel that is ``Lam(-inf)``, which can exceed ``Lam(ALPHA_MIN)`` by up
    to about 0.01, so it can be worse than the best point of the scan.
    """
    obj = _Objective(residuals, domain, bounds)
    lo = domain.lo if domain.lo < 0.0 else domain.lo + _INTERIOR_MARGIN

    try:
        if x0 is None:
            scan = _SCAN_BARRON if domain.variant == "barron" else _SCAN_CHEBROLU
            lam = [obj.value(scan[0]), *obj.values(scan[1:])]
            x0 = min(zip(lam, scan))[1]
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
