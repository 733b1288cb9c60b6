"""Shared test oracles, independent of the implementation paths they check,
and the hypothesis settings of the property tests."""

import math

import numpy as np
from hypothesis import Phase, settings
from scipy.special import gammainc

from robls.adaptive import CHEBROLU_DOMAIN, _gl_rule, _Objective, _z_moments
from robls.loss import _branch, rho_alpha_sums, rho_alpha_terms, rho_sq
from robls.mbfit import (
    MAX_BINS,
    MIN_BINS,
    HistogramBins,
    _chi_norm,
    build_histogram,
    chi_quantile,
)
from robls.se3 import _batch_se3_log


def rho_reference(eps, alpha):
    """Four-branch loss evaluated naively in extended precision.

    Independent of the production code paths (no expm1/log1p tricks), so it
    can serve as the target of finite-difference consistency checks even in
    the saturated corner where double precision runs out of signal.
    """
    eps = np.asarray(eps, dtype=np.longdouble)
    if alpha == -np.inf or alpha < -50.0:
        return 1.0 - np.exp(-0.5 * eps * eps)
    if alpha == 2.0:
        return 0.5 * eps * eps
    if alpha == 0.0:
        return np.log(0.5 * eps * eps + 1.0)
    b = np.longdouble(abs(alpha - 2.0))
    a = np.longdouble(alpha)
    return (b / a) * ((eps * eps / b + 1.0) ** (a / 2.0) - 1.0)


def fd_drho_deps(eps, alpha, h=1e-5):
    """Central difference of the reference loss in eps (extended precision)."""
    eps = np.asarray(eps, dtype=np.longdouble)
    return (rho_reference(eps + h, alpha) - rho_reference(eps - h, alpha)) / (2.0 * h)


def fd_drho_dalpha(eps, alpha, h=1e-6):
    return (rho_reference(eps, alpha + h) - rho_reference(eps, alpha - h)) / (2.0 * h)


def fd_d2rho_dalpha2(eps, alpha, h=2.0**-14):
    """Second central difference of the reference loss in alpha."""
    up, mid, down = (rho_reference(eps, alpha + d) for d in (h, 0.0, -h))
    return (up - 2.0 * mid + down) / (h * h)


def exp_coefs_reference(t2):
    """The five SE(3) exp-side coefficients at angle ``t``, from ``t^2``.

    ``sin(t)/t``, ``(1 - cos t)/t^2``, ``(t - sin t)/t^3``,
    ``(1 - t^2/2 - cos t)/t^4`` and ``(t - sin t - t^3/6)/t^5`` are
    ``s * sum_k (-t^2)^k / (2k + m)!`` for ``m = 1..5`` (``s = -1`` for the
    last two).  Forty terms summed in extended precision converge for every
    ``t < pi``, free of the cancellation in the closed forms.
    """
    t2 = np.longdouble(t2)
    out = []
    for m, sign in ((1, 1), (2, 1), (3, 1), (4, -1), (5, -1)):
        term = np.longdouble(sign) / math.factorial(m)
        total = term
        for k in range(1, 40):
            term *= -t2 / ((2 * k + m - 1) * (2 * k + m))
            total += term
        out.append(total)
    return out


def skew(v):
    """Cross-product matrix of a 3-vector: ``skew(v) @ u == np.cross(v, u)``."""
    x, y, z = np.asarray(v, dtype=float).reshape(3)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def unskew(m):
    m = np.asarray(m, dtype=float)
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def wedge(xi):
    """6-vector (phi, rho) to the 4x4 algebra element."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    out = np.zeros((4, 4))
    out[:3, :3] = skew(xi[:3])
    out[:3, 3] = xi[3:]
    return out


def vee(m):
    """Inverse of :func:`wedge`; validates the algebra sparsity pattern."""
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError("vee expects a 4x4 matrix")
    if np.abs(m[3]).max() > 1e-12:
        raise ValueError("bottom row must be zero")
    s = m[:3, :3]
    if np.abs(s + s.T).max() > 1e-9:
        raise ValueError("upper-left block must be skew-symmetric")
    return np.concatenate([unskew(s), m[:3, 3]])


def left_jacobian(xi):
    """6x6 SE(3) left Jacobian in (phi, rho) order (Sola et al., arXiv
    1812.01537); its lower-left block is the translation coupling
    ``Q(phi, rho)``.  The coefficients come from :func:`exp_coefs_reference`,
    so none of them suffers the cancellation of the closed forms.
    """
    xi = np.asarray(xi, dtype=float).reshape(6)
    p = skew(xi[:3])
    _, b, c, d, e = (float(k) for k in exp_coefs_reference(float(xi[:3] @ xi[:3])))
    r = skew(xi[3:])
    pr, rp = p @ r, r @ p
    pp, prp = p @ p, pr @ p
    ppr, rpp = p @ pr, rp @ p
    prpp, pprp = prp @ p, p @ prp
    c3 = -0.5 * (d - 3.0 * e)
    q = 0.5 * r + c * (pr + rp + prp) - d * (ppr + rpp - 3.0 * prp) + c3 * (prpp + pprp)
    out = np.zeros((6, 6))
    out[:3, :3] = out[3:, 3:] = np.eye(3) + b * p + c * pp
    out[3:, :3] = q
    return out


def adjoint(pose):
    """6x6 adjoint ``[[R, 0], [t^ R, R]]`` of one pose in (phi, rho) order."""
    out = np.zeros((6, 6))
    out[:3, :3] = out[3:, 3:] = pose.rotation
    out[3:, :3] = skew(pose.translation) @ pose.rotation
    return out


def linearize_errors_reference(pose, measurements, covs):
    """``(ok, r, j)`` of :func:`robls.pose_avg.linearize_errors` assembled one
    measurement at a time: ``e_i = log(T^-1 T~_i)`` of the 4x4 product,
    ``r_i = W_i e_i`` and ``j_i = W_i Ad(T~_i^-1 T)`` with ``W_i =
    chol(R_i)^-1`` and the adjoint read off ``(C, t) = T^-1 T~_i`` as
    ``[[C', 0], [-C' t^, C']]``, with no factor shared between iterates."""
    inv = np.linalg.inv(pose.matrix())
    ok, r, j = [], [], []
    for meas, cov in zip(measurements, covs):
        rel = inv @ meas.matrix()
        e, in_branch = _batch_se3_log(rel)
        ok.append(bool(in_branch))
        if in_branch:
            w = np.linalg.inv(np.linalg.cholesky(cov))
            ct = rel[:3, :3].T
            ad = np.zeros((6, 6))
            ad[:3, :3] = ad[3:, 3:] = ct
            ad[3:, :3] = -ct @ skew(rel[:3, 3])
            r.append(w @ e)
            j.append(w @ ad)
    return np.array(ok), np.reshape(r, (-1, 6)), np.reshape(j, (-1, 6, 6))


def pose_check_reference(rotation, translation):
    """The numpy form of the ``Pose`` check: True when the pose is valid.

    ``|R R' - I| <= 1e-6`` entrywise by a matrix product, a nonnegative
    determinant from LAPACK and a finite translation.
    """
    rotation = np.asarray(rotation, dtype=float)
    err = np.abs(rotation @ rotation.T - np.eye(3)).max()
    return bool(
        err <= 1e-6 and np.linalg.det(rotation) >= 0 and np.isfinite(translation).all()
    )


# Fixed example sequence and no example database, so tier-1 runs repeat.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# For properties of whole solves: a falsifying example is reported as found,
# unshrunk, since shrinking re-runs solves for minutes.
SOLVE_PROPERTY = settings(PROPERTY, phases=(Phase.explicit, Phase.reuse, Phase.generate))


def grid_search_alpha(residuals, bounds, lo=-50.0, hi=2.0, step=0.01):
    """Dense-grid minimizer of the truncated likelihood (the prior-work path)."""
    obj = _Objective(residuals, CHEBROLU_DOMAIN, bounds)
    grid = np.arange(lo, hi + step / 2, step)
    values = np.array([obj.value(a) for a in grid])
    return float(grid[int(np.argmin(values))])


def z_moments(alpha, bounds):
    """``(Z, dZ/dalpha, d2Z/dalpha2)`` over ``bounds`` on the quadrature rule
    of :func:`robls.adaptive.partition_z`, from a kernel pass over its nodes
    alone, summed as the alpha fit's Newton evaluations sum them
    (:func:`robls.adaptive._z_moments`).  The derivatives are NaN on the
    limit branches (alpha = 2, 0 and -inf)."""
    x2, w = _gl_rule(float(bounds[0]), float(bounds[1]))
    if _branch(alpha) == "general":
        return _z_moments(alpha, w, *rho_alpha_terms(x2, alpha))
    return float(w @ np.exp(-rho_sq(x2, alpha))), np.nan, np.nan


def rho_derivs(eps, alpha):
    """``(rho, drho/dalpha, d2rho/dalpha2)`` per residual from the kernel terms."""
    eps = np.asarray(eps, dtype=float)
    return rho_alpha_sums(alpha, *rho_alpha_terms(eps * eps, alpha))


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
    return eps ** (n_e - 1) * np.exp(-eps * eps / (2.0 * a * a)) / _chi_norm(a, n_e)


def dmb_da(eps, a: float, n_e: int):
    """Partial derivative of :func:`mb_pdf` in the shape parameter."""
    eps = np.asarray(eps, dtype=float)
    return mb_pdf(eps, a, n_e) * (eps * eps / a**3 - n_e / a)


def fit_criterion_reference(hist: HistogramBins, a, n_e: int):
    """``sum_k (q_k * (pdf(c_k) - q_k))^2`` and its first two derivatives in ``a``.

    The histogram criterion of the Chi-shape fit evaluated from scratch at
    each ``a``, bin centres and normalizer included; vectorized over a
    column of ``a`` values.  ``pdf(c; a) = pdf(c / a; 1) / a``,
    ``dpdf/da = pdf * u`` (:func:`dmb_da`) with ``u = c^2 / a^3 - n_e / a``,
    and ``d2pdf/da2 = pdf * (u^2 + du/da)``.
    """
    c, w = hist.centers, hist.density**2
    p = mb_pdf(c / a, 1.0, n_e) / a
    e2 = c * c
    u = e2 / a**3 - n_e / a
    dp = p * u
    d2p = p * (u * u - 3.0 * e2 / a**4 + n_e / a**2)
    diff = p - hist.density
    return (diff * diff) @ w, 2.0 * ((diff * dp) @ w), 2.0 * ((dp * dp + diff * d2p) @ w)


def build_histogram_reference(residuals, upper: float) -> HistogramBins:
    """:func:`robls.mbfit.build_histogram` with its geometry laid per call:
    ``np.linspace`` edges, ``np.clip`` on the scalar bin count and on the
    positions.  The residuals must not be empty or all identical."""
    r = np.asarray(residuals, dtype=float)
    k = int(np.clip(np.ceil(np.sqrt(r.size)), MIN_BINS, MAX_BINS))
    edges = np.linspace(0.0, upper, k + 1)
    width = upper / k
    u = np.clip(r / width - 0.5, 0.0, k - 1.0)
    j = u.astype(np.intp)
    frac = u - j
    mass = np.bincount(j, 1.0 - frac, minlength=k + 1) + np.bincount(j + 1, frac, minlength=k + 1)
    return HistogramBins(edges=edges, density=mass[:k] / (r.size * width))


def chi_quantile_reference(n_e: int, p: float) -> float:
    """The Chi quantile by the bisection of :func:`robls.mbfit.chi_quantile`
    on scipy's regularized incomplete gamma ``P(n_e/2, x^2/2)``."""
    def cdf(x):
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


def grid_search_a(residuals, n_e, lo=0.1, hi=5.0, step=0.005):
    """Dense-grid minimizer of the histogram fit criterion."""
    r = np.asarray(residuals, dtype=float)
    thresh = chi_quantile(n_e, 0.9973)
    hist = build_histogram(r[r < thresh], upper=thresh)
    grid = np.arange(lo, hi + step / 2, step)
    values = [fit_criterion_reference(hist, a, n_e)[0] for a in grid]
    return float(grid[int(np.argmin(values))])

