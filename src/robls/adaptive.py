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
original variant is extrapolated from one pass over ``[-2T, 2T]`` whose first
half of nodes is the rule on ``[-T, T]``.

``Z`` depends on alpha and the bounds alone, never on the residuals, so one
least-recently-used memo of ``Z_MEMO_SIZE`` passes, keyed by
``(alpha, a, b, derivs, halves)``, serves both :func:`partition_z` (``Z``
alone) and the Newton evaluations (the moments).  A pass is a pure function
of its key, so a hit returns the objects of the first pass and every output
stays bit-identical.  ``barron`` and ``chebrolu`` fix their bounds by tau, so
every cold fit repeats the same scan, alpha = 2 check and ``-inf`` sentinel,
and its first Newton evaluation sits at a scan point (or, warm, at the
previous alpha*); those passes are computed once per process, and a Newton
evaluation that hits passes over the residuals alone.  The bounds of
``adaptive_mb``, ``(0, tau - mode)``, move with the fitted mode, so its
evaluations almost never hit and store the moments of their fused pass.

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

UNTRUNCATED_SPAN = 40.0  # half-width used to approximate the improper integral

# Largest truncation bound tau.  The quadrature lays a fixed number of nodes
# per unit of span, so its cost and memory grow linearly in tau: at this cap
# one Barron pass over [-2 tau, 2 tau] holds 48k nodes.
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
# (alpha, a, b, derivs, halves) -> Z alone (derivs False, from partition_z)
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


@lru_cache(maxsize=8)
def _gl_rule(a: float, b: float, halves: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule on [a, b].

    The integrand is even in eps, so a symmetric interval folds onto [0, b]
    with weight 2.  With ``halves`` the panels of the first half of the
    (folded) interval are laid twice, so the first half of the nodes and
    weights is exactly the rule of that half.
    """
    scale = 1.0
    if a == -b:
        a, scale = 0.0, 2.0
    width = 0.5 * (a + b) - a if halves else b - a
    panels = max(1, int(np.ceil(width / PANEL_WIDTH)))
    half = 0.5 * width / panels
    if halves:
        panels *= 2
    centers = a + half * (2.0 * np.arange(panels) + 1.0)
    nodes = (centers[:, None] + half * _GL_NODES).ravel()
    weights = np.tile(scale * half * _GL_WEIGHTS, panels)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _checked_bounds(bounds) -> tuple[float, float]:
    a, b = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
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


def partition_z(alpha, bounds: tuple[float, float], halves: bool = False):
    """Normalization ``Z = integral of exp(-rho(eps, alpha))`` over bounds.

    One pass of a fixed composite 24-point Gauss-Legendre rule with panels
    at most ``PANEL_WIDTH`` wide.  ``alpha`` may also be a 1-D array of
    general-branch values, which returns their ``Z`` as an array from one
    broadcast pass.  With ``halves`` the rule is built from the panels of
    the first half of the (folded) interval laid twice, and the result is
    the pair (over the first half, over the whole); for a symmetric
    ``[-2T, 2T]`` the first half is ``[-T, T]``.  The alpha derivatives of
    ``Z``, which only the Newton steps need, come from
    :meth:`_Objective.value_derivs`.

    Passes are memoized in the least-recently-used memo of ``Z_MEMO_SIZE``
    entries keyed by ``(alpha, a, b, False, halves)``, with alpha as a
    float or, for the broadcast pass, a tuple of floats.  A repeated call
    returns the objects of the first, bit-identical because the pass is a
    pure function of its key; array results are read-only.
    """
    a, b = _checked_bounds(bounds)
    alpha = float(alpha) if np.ndim(alpha) == 0 else tuple(np.asarray(alpha, dtype=float).tolist())
    key = (alpha, a, b, False, bool(halves))
    z = _memo_get(key)
    return _memo_put(key, _z_pass(alpha, a, b, bool(halves))) if z is None else z


def _z_pass(alpha, a: float, b: float, halves: bool):
    """The unmemoized pass of :func:`partition_z`; a tuple ``alpha`` is a vector."""
    x, w = _gl_rule(a, b, halves)
    ends = (x.size // 2, x.size) if halves else (x.size,)
    if np.ndim(alpha) == 0 and _branch(alpha) != "general":
        e = np.exp(-rho(x, alpha))
        out = [float(w[:m] @ e[:m]) for m in ends]
    else:
        wf = w * np.exp(-_rho_general(x, np.asarray(alpha, dtype=float)[..., None]))
        out = [wf[..., :m].sum(axis=-1) for m in ends]
        if isinstance(alpha, tuple):
            for z in out:
                z.flags.writeable = False
    return tuple(out) if halves else out[0]


def _whole_line(halves):
    """Extrapolated whole-line moments from the pair (over [-T, T], over [-2T, 2T])."""
    z1, z2 = np.array(halves)
    return 2.0 * z2 - z1


def _untruncated_z(alpha, tau_span: float):
    """Approximate normalization over the whole real line.

    Takes the integrals over [-T, T] and [-2T, 2T] from one
    :func:`partition_z` pass with ``halves`` and removes the leading 1/T
    tail error by extrapolation; exact in the limit for the
    slowest-decaying case (the Cauchy-like alpha = 0 member).  Returns what
    :func:`partition_z` returns for ``alpha``.  For T = 40, which covers
    every span up to 40, the [-T, T] half is the same rule as a separate
    pass over [-T, T].
    """
    t = max(tau_span, UNTRUNCATED_SPAN)
    return _whole_line(partition_z(alpha, (-2.0 * t, 2.0 * t), halves=True))


class _Objective:
    """Lambda(alpha) and its alpha derivatives for one residual set and domain.

    The quadrature rule of the domain is laid once, at construction, next to
    the clipped residuals: over the bounds for the truncated variant, over
    ``[-2T, 2T]`` with halves for the original one (see
    :func:`_untruncated_z`).
    """

    def __init__(self, residuals, domain: AlphaDomain, bounds: tuple[float, float]):
        r = np.asarray(residuals, dtype=float)
        if r.size == 0:
            raise ValueError("residual list must be nonempty")
        self.domain = domain
        self.span = max(abs(bounds[0]), abs(bounds[1]))
        self.halves = domain.variant == "barron"
        if self.halves:
            t = max(self.span, UNTRUNCATED_SPAN)
            bounds, z_bounds = (-t, t), (-2.0 * t, 2.0 * t)
        else:
            z_bounds = bounds
        self.bounds = _checked_bounds(z_bounds)  # of the Z integral
        self.residuals = np.clip(r, bounds[0], bounds[1])
        self.n = r.size
        nodes, self._weights = _gl_rule(*self.bounds, self.halves)
        self._points = np.concatenate([nodes, self.residuals])

    def _z(self, alpha):
        """``Z`` for this domain, without alpha derivatives."""
        if self.halves:
            return _untruncated_z(alpha, self.span)
        return partition_z(alpha, self.bounds)

    def value(self, alpha: float) -> float:
        return float(self.n * np.log(self._z(alpha)) + np.sum(rho(self.residuals, alpha)))

    def values(self, alphas) -> list[float]:
        """``Lam`` at each general-branch alpha, from one broadcast pass.

        Bit-identical to calling :meth:`value` on each.
        """
        col = np.asarray(alphas, dtype=float)
        z = self._z(col)
        sums = _rho_general(self.residuals, col[:, None]).sum(axis=1)
        return [float(self.n * np.log(zi) + si) for zi, si in zip(z, sums)]

    def value_derivs(self, alpha: float) -> tuple[float, float, float]:
        """``(Lam, dLam/dalpha, d2Lam/dalpha2)`` at a general-branch alpha.

        The ``Z`` moments (Z, dZ/dalpha, d2Z/dalpha2, for both halves with
        halves) come from the memo it shares with :func:`partition_z`, keyed
        with ``derivs`` True; on a miss one pass over the nodes and the
        residuals together computes them, and the memo keeps them.
        """
        key = (float(alpha), *self.bounds, True, self.halves)
        z = _memo_get(key)
        if z is None:
            r, dr, d2r = rho_alpha_derivs(self._points, alpha)
            k = self._weights.size
            wf, h = self._weights * np.exp(-r[:k]), dr[:k] * dr[:k] - d2r[:k]
            z = [(float(wf[:m].sum()), float(-(wf[:m] @ dr[:m])), float(wf[:m] @ h[:m]))
                 for m in ((k // 2, k) if self.halves else (k,))]
            z = _memo_put(key, tuple(z) if self.halves else z[0])
            r, dr, d2r = r[k:], dr[k:], d2r[k:]
        else:
            r, dr, d2r = rho_alpha_derivs(self.residuals, alpha)
        z, dz, d2z = _whole_line(z) if self.halves else z
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
