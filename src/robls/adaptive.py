"""Truncated-likelihood optimization of the adaptive loss shape parameter.

The shape parameter is chosen by minimizing the negative log-likelihood

    Lam(alpha) = N * log(Z(alpha)) + sum_i rho(eps_i, alpha)

where ``Z`` normalizes ``exp(-rho(., alpha))`` over the residual domain.
Two domains are supported: the original variant, restricted to
``alpha in [0, 2]`` with the normalization taken over the whole real line
(the integral diverges for negative alpha), and the truncated variant, which
normalizes over a bounded interval and admits ``alpha`` down to the
Welsch-like limit.

Every ``Z`` is one pass of a fixed composite Gauss-Legendre rule, on
panels that double in width from the origin.  The
coarse start scan and the alpha = 2 check need ``Z`` alone and take it
from :func:`partition_z`; the scan evaluates all of its general-branch
points in one broadcast pass, with alpha as a column, bit-identical to
evaluating them one at a time.  Only the Newton steps of
:func:`minimize_bounded` need the alpha derivatives of ``Z``, which give
``Lam'`` and ``Lam''`` analytically.  :class:`_Objective` lays its rule
once per fit and keeps its squared nodes next to the squared clipped
residuals, so that one :func:`~robls.loss.rho_alpha_terms` pass over
``[nodes | residuals]`` yields the ``Z`` moments, as dot products over the
nodes, and the three residual sums together; no pass builds per-residual
loss or derivative arrays.  The whole-line ``Z`` of the original variant is
the bounds ``(-inf, inf)``: the rule on ``[0, T]`` plus the tail
``eps = T e^s`` laid in ``s``, 288 nodes for every tau.  A truncated pass
grows with log tau: 24 nodes per doubling of the span, 144 on [0, 20].

``Z`` depends on alpha and the bounds alone, never on the residuals, so one
least-recently-used memo of ``Z_MEMO_SIZE`` passes, keyed by
``(alpha, a, b, derivs)``, serves both :func:`partition_z` (``Z`` alone) and
the Newton evaluations (the moments).  A pass is a pure function of its key,
so a hit returns the objects of the first pass and every output stays
bit-identical.  ``chebrolu`` fixes its bounds by tau and ``barron`` always
takes the whole line, so every cold fit repeats the same scan and alpha = 2
check, and its first Newton evaluation sits at a scan point; those passes
are computed once per process, and a Newton evaluation that hits passes over
the residuals alone.  A warm fit starts at the previous alpha*, which is
rarely a hit: a search usually ends on a Newton step shorter than its
tolerance, and :func:`minimize_bounded` takes that step without evaluating
its end.  The bounds of ``adaptive_mb``, ``(0, tau - mode)``, move with the
fitted mode, so its evaluations almost never hit and store the moments of
their fused pass.

This fit and the scaled-Chi shape fit of :mod:`robls.mbfit` both run on
:func:`minimize_bounded`, a safeguarded Newton method on an interval, and
the inputs each accepts keep its objective finite: here the truncation bound
``tau`` lies in ``[TAU_MIN, TAU_MAX]`` (:func:`check_tau`), and the residuals
are finite norms (:func:`~robls.loss.check_norms`) clipped to the bounds.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .loss import (
    ALPHA_MIN,
    BRANCH_TOL,
    _branch,
    check_norms,
    rho,
    rho_alpha_sums,
    rho_alpha_terms,
    rho_em1,
    rho_general,
    rho_scale,
    rho_sq,
)

__all__ = [
    "AlphaDomain",
    "AlphaOptResult",
    "BARRON_DOMAIN",
    "CHEBROLU_DOMAIN",
    "TAU_MAX",
    "TAU_MIN",
    "check_tau",
    "minimize_bounded",
    "optimize_alpha",
]

# Where the whole-line rule switches from panels in eps to panels in log eps,
# and the half-width to which the original variant clips its residuals.
UNTRUNCATED_SPAN = 40.0

# Largest truncation bound tau, the largest at which the rule's accuracy is
# tested.  A truncated pass lays one 24-node panel per doubling of its span,
# so at this cap one pass over [-tau, tau] holds 264 nodes.  The whole-line
# pass of the original variant holds 288 for every tau.
TAU_MAX = 1000.0

# Smallest truncation bound tau: the smallest normal float.  Below it the
# weights of the rule on [-tau, tau] lose their precision; at tau = 1e-323 all
# of them round to zero, so Z = 0 and Lam' divides by it, and the mode of
# adaptive_mb, capped at MODE_TAU_CAP * tau, rounds up to tau itself.
TAU_MIN = sys.float_info.min


def check_tau(tau: float) -> None:
    """Raise ``ValueError`` unless ``TAU_MIN <= tau <= TAU_MAX``."""
    if not TAU_MIN <= tau <= TAU_MAX:
        raise ValueError(
            f"truncation bound tau must be positive and finite, at least {TAU_MIN!r} "
            f"and at most {TAU_MAX:g}, got {tau}"
        )

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
    """Admissible shape-parameter interval ``[lo, hi]``, with ``Z`` normalized
    over the whole line (the original variant) or over the bounds."""

    hi = 2.0  # a class constant, not a field

    lo: float
    whole_line: bool = False


BARRON_DOMAIN = AlphaDomain(0.0, whole_line=True)
CHEBROLU_DOMAIN = AlphaDomain(ALPHA_MIN)


@dataclass
class AlphaOptResult:
    alpha_star: float
    converged: bool


def _panels(edges, scale: float = 1.0):
    """Nodes and weights of the 24-point rule on each ``[edges[i], edges[i + 1]]``."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (edges[:-1, None] + half) + half * _GL_NODES
    return nodes.ravel(), (scale * half * _GL_WEIGHTS).ravel()


def _graded(a: float, b: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Squared nodes and weights of the 24-point rule on [a, b] in panels
    that double in width from a: ``[a, a + 1], [a + 1, a + 2], [a + 2, a + 4],
    ..., [a + 2^(m - 1), b]``, one panel where ``b <= a + 1``."""
    m = (math.ceil(b - a) - 1).bit_length()  # panels before the last
    x, w = _panels([a, *(a + 2.0**j for j in range(m)), b], scale)
    return x * x, w


@lru_cache(maxsize=8)
def _gl_rule(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Squared nodes and weights of the composite rule on [a, b].

    The nodes come squared, the one form the kernels read.  The integrand
    is even in eps and peaks at 0, so with squared nodes [a, 0] has the rule
    of [0, -a]: the bounds fold onto [0, inf), a symmetric interval onto
    [0, b] with weight 2, and the panels double in width from the end
    nearest the origin (:func:`_graded`).  A pass over [0, b] holds
    ``24 * (ceil(log2 b) + 1)`` nodes for ``b > 1``.  The whole line
    ``(-inf, inf)`` folds onto the rule on ``[0, T]``,
    ``T = UNTRUNCATED_SPAN``, followed by the tail ``eps = T e^s`` for
    ``s`` in [0, 40], in panels 8 wide in ``s`` with weights ``2 T e^s w_k``:
    288 nodes.  Past ``T e^40`` the slowest-decaying integrand,
    ``2 / eps^2`` at alpha = 0, leaves under 1e-19 of ``Z``.
    """
    if math.isinf(b):
        x2, w = _graded(0.0, UNTRUNCATED_SPAN, 2.0)
        s, ws = _panels(np.arange(0.0, 41.0, 8.0), 2.0)
        tail = UNTRUNCATED_SPAN * np.exp(s)
        x2, w = np.concatenate([x2, tail * tail]), np.concatenate([w, tail * ws])
    elif a == -b:
        x2, w = _graded(0.0, b, 2.0)
    elif a < 0.0 < b:
        (x2, w), (x2r, wr) = _graded(0.0, -a, 1.0), _graded(0.0, b, 1.0)
        x2, w = np.concatenate([x2, x2r]), np.concatenate([w, wr])
    else:
        x2, w = _graded(a, b, 1.0) if a >= 0.0 else _graded(-b, -a, 1.0)
    x2.flags.writeable = w.flags.writeable = False
    return x2, w


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

    One pass of a fixed composite 24-point Gauss-Legendre rule on panels
    that double in width (see :func:`_gl_rule`); the bounds ``(-inf, inf)``
    give the whole line, where ``Z`` is finite for alpha >= 0 only.
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
    return _memo_put(key, _z_pass(alpha, *_gl_rule(a, b))) if z is None else z


def _z_pass(alpha, x2, w):
    """The unmemoized pass of :func:`partition_z` on the squared nodes
    ``x2`` and weights ``w``; a tuple ``alpha`` is a vector.

    On the general branch the integrand is ``exp(-k * expm1(u))`` with the
    expressions of :meth:`_Objective.value_derivs`, so both give the same
    ``Z`` bit for bit.
    """
    if np.ndim(alpha) == 0 and _branch(alpha) != "general":
        return float(w @ np.exp(-rho_sq(x2, alpha)))
    col = np.asarray(alpha, dtype=float)[..., None]
    z = (w * np.exp(-rho_general(x2, col))).sum(axis=-1)
    if isinstance(alpha, tuple):
        z.flags.writeable = False
    return z


class _Objective:
    """Lambda(alpha) and its alpha derivatives for one residual set and domain.

    The quadrature rule of the domain is laid once, at construction, and
    its squared nodes are kept next to the squared clipped residuals: over
    the bounds for the truncated variant, over the whole line for the
    original one, whose residuals are clipped to
    ``+-max(span, UNTRUNCATED_SPAN)``.  All alpha passes read the squares.
    """

    def __init__(self, residuals, domain: AlphaDomain, bounds: tuple[float, float]):
        r = np.asarray(residuals, dtype=float)
        if domain.whole_line:
            t = max(abs(bounds[0]), abs(bounds[1]), UNTRUNCATED_SPAN)
            bounds, z_bounds = (-t, t), (-math.inf, math.inf)
        else:
            z_bounds = bounds
        self.bounds = _checked_bounds(z_bounds)  # of the Z integral
        self.residuals = np.clip(r, bounds[0], bounds[1])
        self.n = r.size
        nodes, self._weights = _gl_rule(*self.bounds)
        self._k = nodes.size
        self._squares = np.concatenate([nodes, self.residuals * self.residuals])

    def value(self, alpha: float) -> float:
        z = partition_z(alpha, self.bounds)
        general = _branch(alpha) == "general"
        total = self._rho_sum(alpha) if general else np.sum(rho(self.residuals, alpha))
        return float(self.n * np.log(z) + total)

    def values(self, alphas) -> list[float]:
        """``Lam`` at each general-branch alpha, from one broadcast pass.

        Bit-identical to calling :meth:`value` on each.
        """
        col = np.asarray(alphas, dtype=float)
        z = partition_z(col, self.bounds)
        return [float(self.n * np.log(zi) + si) for zi, si in zip(z, self._rho_sum(col))]

    def _rho_sum(self, alpha):
        """The general-branch loss summed over the residuals as
        :meth:`value_derivs` sums it, ``k * sum expm1(u)``; an array of
        alpha gives one sum per value."""
        alpha = np.asarray(alpha, dtype=float)
        return rho_scale(alpha) * rho_em1(self._squares[self._k:], alpha[..., None]).sum(axis=-1)

    def value_derivs(self, alpha: float) -> tuple[float, float, float]:
        """``(Lam, dLam/dalpha, d2Lam/dalpha2)`` at a general-branch alpha.

        The ``Z`` moments (Z, dZ/dalpha, d2Z/dalpha2) come from the memo it
        shares with :func:`partition_z`, keyed with ``derivs`` True; on a
        miss one :func:`~robls.loss.rho_alpha_terms` pass over the nodes and
        the residuals together computes them by dot products over the nodes,
        and the memo keeps them.  The residuals enter through the sums of
        their terms alone.
        """
        key = (float(alpha), *self.bounds, True)
        moments = _memo_get(key)
        k = self._k
        if moments is None:
            em1, dem1, d2em1 = rho_alpha_terms(self._squares, alpha)
            moments = _memo_put(key, _z_moments(alpha, self._weights, em1[:k], dem1[:k], d2em1[:k]))
            em1, dem1, d2em1 = em1[k:], dem1[k:], d2em1[k:]
        else:
            em1, dem1, d2em1 = rho_alpha_terms(self._squares[k:], alpha)
        total, d1, d2 = rho_alpha_sums(alpha, em1.sum(), dem1.sum(), d2em1.sum())
        z, dz, d2z = moments
        g = dz / z
        return (
            float(self.n * np.log(z) + total),
            float(self.n * g + d1),
            float(self.n * (d2z / z - g * g) + d2),
        )


def _z_moments(alpha: float, w, em1, dem1, d2em1) -> tuple[float, float, float]:
    """``(Z, dZ/dalpha, d2Z/dalpha2)`` from the weights and the node terms of
    :func:`~robls.loss.rho_alpha_terms`: ``Z = sum w e^-rho``,
    ``Z' = -sum w e^-rho rho'`` and ``Z'' = sum w e^-rho (rho'^2 - rho'')``.
    """
    k = rho_scale(alpha)
    wf = w * np.exp(-k * em1)
    drho = (-2.0 / alpha**2) * em1 + k * dem1
    _, m1, m2 = rho_alpha_sums(alpha, wf @ em1, wf @ dem1, wf @ d2em1)
    return float(wf.sum()), float(-m1), float(wf @ (drho * drho) - m2)


def _off_zero(alpha: float) -> float:
    """Nudge alpha off the removable singularity of the general branch at 0."""
    return alpha if abs(alpha) >= _INTERIOR_MARGIN else math.copysign(_INTERIOR_MARGIN, alpha)


def minimize_bounded(f: Callable[[float], tuple[float, float, float]], lo: float, hi: float,
                     x0: float, tol: Callable[[float], float]) -> tuple[float, int, bool]:
    """Minimize a smooth ``f`` of one variable on ``[lo, hi]`` from ``x0``.

    ``f(x)`` returns ``(f, f', f'')``.  A Newton step where ``f'' > 0``, else
    a downhill step of doubling length (1, 2, 4, ...), is projected onto
    ``[lo, hi]`` and halved until the Armijo condition holds.  Once an
    accepted move ends where ``f'`` points back, a minimum lies between the
    last two iterates, and a step leaving that bracket, or any where
    ``f'' <= 0``, becomes its midpoint.  Only accepted iterates bound the
    bracket, never the domain ends, so it cannot bisect onto a flat tail.

    Returns ``(x, iterations, converged)``, converged once a move or the
    bracket is shorter than ``tol(x)`` or no step lowers ``f``.  A full
    Newton step shorter than ``tol`` at its end is the last move, taken
    without evaluating ``f`` there: the returned ``x`` may be a point ``f``
    never saw, so it returns no ``f(x)``.  Every other step (backtracked,
    bisection or downhill) is evaluated and must pass the Armijo test.  Raises
    ``FloatingPointError`` if ``f`` or ``f'`` is not finite at a point it
    evaluates, which the input checks of both fits rule out.
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
            is_newton = newton is not None and min(x, far) < newton < max(x, far)
            target = newton if is_newton else 0.5 * (x + far)
        elif newton is not None:
            is_newton, target = True, min(max(newton, lo), hi)
        else:
            is_newton, target = False, min(max(x - np.copysign(stride, g), lo), hi)
            stride *= 2.0
        delta = target - x
        if is_newton and abs(delta) < tol(x + delta):
            return x + delta, iteration, True  # the last move: no evaluation to accept it
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            delta = t * (target - x)
            if delta == 0.0:
                return x, iteration, True
            fc, gc, hc = evaluate(x + delta)
            if fc <= fx + ARMIJO_C1 * g * delta:
                break
            t *= BACKTRACK_SHRINK
        else:
            return x, iteration, True
        if gc * delta > 0.0:
            far = x
        x, fx, g, h = x + delta, fc, gc, hc
        if abs(delta) < tol(x) or (far is not None and abs(far - x) < tol(x)):
            return x, iteration, True
    return x, MAX_NEWTON_ITERS, False


# Both scans start at alpha = 2, a limit branch; the rest are general-branch.
_SCAN_CHEBROLU = (2.0, 1.5, 1.0, 0.5, 0.05, -0.05, -0.5, -1.0, -2.0, -3.5,
                  -5.0, -8.0, -12.0, -20.0, -35.0, ALPHA_MIN)
_SCAN_BARRON = (2.0, 1.75, 1.5, 1.25, 1.0, 0.75, 0.5, 0.25, 0.1, 0.005)


def optimize_alpha(
    residuals,
    domain: AlphaDomain,
    bounds: tuple[float, float],
    x0: float | None = None,
) -> AlphaOptResult:
    """Minimize the negative log-likelihood over the shape parameter.

    :func:`minimize_bounded` on the analytic ``Lam'`` and ``Lam''``, started
    from ``x0`` (warm start) or the best point of a coarse scan, with the
    iterates kept clear of the limit branches at 0 and 2.  A search that
    ends within ``2 * _INTERIOR_MARGIN`` of 2 is checked last against the
    boundary: alpha = 2 is reported when ``Lam(2)`` is at most ``Lam`` at
    the returned point, both evaluated for that test, since the search need
    not have evaluated the point it returns.  For the truncated variant, a
    minimizer pinned at the domain floor is reported as the ``-inf``
    sentinel (the Welsch-like limit).  ``converged`` is False only when the
    Newton search used up its ``MAX_NEWTON_ITERS`` iterations.

    The residuals must pass :func:`~robls.loss.check_norms`.
    """
    obj = _Objective(check_norms(residuals), domain, bounds)
    lo = domain.lo if domain.lo < 0.0 else domain.lo + _INTERIOR_MARGIN

    if x0 is None:
        scan = _SCAN_BARRON if domain.whole_line else _SCAN_CHEBROLU
        lam = [obj.value(scan[0]), *obj.values(scan[1:])]
        x0 = min(zip(lam, scan))[1]
    alpha, _, converged = minimize_bounded(
        lambda a: obj.value_derivs(_off_zero(a)), lo, domain.hi - _INTERIOR_MARGIN, x0,
        lambda a: STEP_TOL * min(1.0, 2.0 - a))
    alpha = _off_zero(alpha)

    # A true boundary minimum at alpha = 2 beats the interior margin.  The
    # search may end at a point it never evaluated, so Lam is taken there.
    if alpha >= 2.0 - 2.0 * _INTERIOR_MARGIN and obj.value(2.0) <= obj.value(alpha):
        alpha = 2.0

    if not domain.whole_line and alpha <= domain.lo + 1e-9:
        alpha = -np.inf
    return AlphaOptResult(float(alpha), converged)
