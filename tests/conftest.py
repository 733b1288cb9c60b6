"""Shared test oracles, independent of the implementation paths they check."""

import numpy as np
import pytest
from hypothesis import settings

from robls.adaptive import CHEBROLU_DOMAIN, _Objective
from robls.mbfit import _fit_criterion, build_histogram, chi_quantile


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


# Fixed example sequence and no example database, so tier-1 runs repeat.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def grid_search_alpha(residuals, bounds, lo=-50.0, hi=2.0, step=0.01,
                      domain=CHEBROLU_DOMAIN):
    """Dense-grid minimizer of the truncated likelihood (the prior-work path)."""
    obj = _Objective(residuals, domain, bounds)
    grid = np.arange(lo, hi + step / 2, step)
    values = np.array([obj.value(a) for a in grid])
    return float(grid[int(np.argmin(values))])


def grid_search_a(residuals, n_e, lo=0.1, hi=5.0, step=0.005):
    """Dense-grid minimizer of the histogram fit criterion."""
    r = np.asarray(residuals, dtype=float)
    thresh = chi_quantile(n_e, 0.9973)
    hist = build_histogram(r[r < thresh], upper=thresh)
    grid = np.arange(lo, hi + step / 2, step)
    values = [_fit_criterion(hist, a, n_e)[0] for a in grid]
    return float(grid[int(np.argmin(values))])


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
