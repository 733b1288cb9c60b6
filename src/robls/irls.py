"""The iteratively reweighted least-squares loop shared by both applications.

Point-to-plane ICP and pose averaging differ only in how they linearize
the problem at the current pose; the loop around that (robust weights with
a warm start, the per-iteration trace and the step-norm stop test) lives
here once, and so does the conditioning rule of their normal equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .se3 import Pose

__all__ = ["IrlsConfig", "IrlsResult", "TRACE_COLUMNS", "check_int", "irls", "solve_normal_equations"]

# Keys of each per-iteration trace row; the last three are read from the
# robust loss's diagnostics, NaN for kinds that do not report them.
TRACE_COLUMNS = ("iter", "step_phi", "step_rho", "alpha_star", "a_star", "mode")


@dataclass
class IrlsResult:
    pose: Pose
    iterations: int
    converged: bool
    trace: list  # per-iteration dicts keyed by TRACE_COLUMNS
    diagnostics: dict = field(default_factory=dict)


def check_int(name: str, value, lo: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer of at least ``lo``.

    Numpy integers pass; ``bool`` and integral floats do not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo:
        raise ValueError(f"{name} must be at least {lo}, got {value}")


@dataclass(frozen=True)
class IrlsConfig:
    """The settings of :func:`irls`.  Each application adds its robust loss
    ``rlf``, which this module cannot name: :mod:`robls.weighting` imports it
    through :mod:`robls.mbfit`.

    ``max_iters`` and ``weight_exponent`` must be integers of at least 1
    (:func:`check_int`), and every field named in ``POSITIVE`` must be
    positive and finite: a NaN tolerance would never stop the loop.
    """

    POSITIVE = ("tol_phi", "tol_rho")

    max_iters: int = 50
    tol_phi: float = 1e-3         # step rotation norm [rad]
    tol_rho: float = 1e-3         # step translation norm [m]
    weight_exponent: int = 2      # weights enter the objective inside the norm

    def __post_init__(self):
        for name in ("max_iters", "weight_exponent"):
            check_int(name, getattr(self, name), 1)
        for name in self.POSITIVE:
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


def solve_normal_equations(a: np.ndarray, b: np.ndarray, min_ratio: float, error: type, name: str):
    """Solve ``a x = b`` for a symmetric positive semidefinite ``a``, raising
    ``error`` unless ``|lambda|_min / |lambda|_max >= min_ratio`` over the
    eigenvalues of ``a`` (its singular values).  A zero ``a`` raises.
    Eigenvalues and singular values from LAPACK differ in their last bits,
    so a matrix whose ratio lies within a few ulps of ``|lambda|_max`` of
    ``min_ratio`` may be decided otherwise than by an SVD check."""
    lam = np.abs(np.linalg.eigvalsh(a)).tolist()
    hi = max(lam)
    ratio = min(lam) / hi if hi > 0 else 0.0
    if not ratio >= min_ratio:
        raise error(f"{name} normal equations are singular (eigenvalue ratio {ratio:.2e})")
    return np.linalg.solve(a, b)


def irls(linearize, init: Pose, config, n_e: int) -> IrlsResult:
    """Reweight and step from ``init`` until the step is small.

    ``linearize(pose)`` returns the residual norms at ``pose`` and a
    function ``update(wf)`` that takes the per-residual factors
    ``weights ** config.weight_exponent`` and returns the new pose and the
    step twist ``(phi, rho)``.  ``config`` is an :class:`IrlsConfig` with a
    robust loss ``rlf``; ``n_e`` is the error dimension handed to the loss.
    Stops when both step norms fall below their tolerances.
    """
    pose = init
    trace: list[dict] = []
    converged = False
    wres = None
    iterations = 0

    for iterations in range(1, config.max_iters + 1):
        eps, update = linearize(pose)
        wres = config.rlf.weights(eps, n_e=n_e, warm_start=wres)
        pose, step = update(wres.weights**config.weight_exponent)
        x, y, z, u, v, w = step.tolist()
        step_phi = math.sqrt(x * x + y * y + z * z)
        step_rho = math.sqrt(u * u + v * v + w * w)
        diag = [wres.diagnostics.get(key, np.nan) for key in TRACE_COLUMNS[3:]]
        trace.append(dict(zip(TRACE_COLUMNS, (iterations, step_phi, step_rho, *diag))))
        if step_phi < config.tol_phi and step_rho < config.tol_rho:
            converged = True
            break

    return IrlsResult(pose=pose, iterations=iterations, converged=converged, trace=trace)
