"""The iteratively reweighted least-squares loop shared by both applications.

Point-to-plane ICP and pose averaging differ only in how they linearize
the problem at the current pose; the loop around that (robust weights with
a warm start, the per-iteration trace and the step-norm stop test) lives
here once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .se3 import Pose

__all__ = ["IrlsResult", "TRACE_COLUMNS", "check_config", "irls"]

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


def check_config(config, *positive: str) -> None:
    """Raise ``ValueError`` unless the solver config is usable by :func:`irls`.

    ``max_iters`` and ``weight_exponent`` must be integers of at least 1
    (``bool`` is not one), and every field named in ``positive`` must be
    positive and finite: a NaN tolerance would never stop the loop.
    """
    for name in ("max_iters", "weight_exponent"):
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    for name in positive:
        value = getattr(config, name)
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def irls(linearize, init: Pose, config, n_e: int) -> IrlsResult:
    """Reweight and step from ``init`` until the step is small.

    ``linearize(pose)`` returns the residual norms at ``pose`` and a
    function ``update(wf)`` that takes the per-residual factors
    ``weights ** config.weight_exponent`` and returns the new pose and the
    step twist ``(phi, rho)``.  ``config`` supplies ``max_iters``,
    ``tol_phi``, ``tol_rho``, ``rlf`` and ``weight_exponent``; ``n_e`` is
    the error dimension handed to the robust loss.  Stops when both step
    norms fall below their tolerances.
    """
    pose = init
    trace: list[dict] = []
    converged = False
    warm = None
    iterations = 0

    for iterations in range(1, config.max_iters + 1):
        eps, update = linearize(pose)
        wres = config.rlf.weights(eps, n_e=n_e, warm_start=warm)
        warm = wres.warm_start
        pose, step = update(wres.weights**config.weight_exponent)
        step_phi = float(np.linalg.norm(step[:3]))
        step_rho = float(np.linalg.norm(step[3:]))
        diag = [wres.diagnostics.get(key, np.nan) for key in TRACE_COLUMNS[3:]]
        trace.append(dict(zip(TRACE_COLUMNS, (iterations, step_phi, step_rho, *diag))))
        if step_phi < config.tol_phi and step_rho < config.tol_rho:
            converged = True
            break

    return IrlsResult(pose=pose, iterations=iterations, converged=converged, trace=trace)
