"""The iteratively reweighted least-squares loop shared by both applications.

Point-to-plane ICP and pose averaging differ only in how they linearize
the problem at the current pose; the loop around that (robust weights with
a warm start, the norm-aware audit counters, the per-iteration trace and
the step-norm stop test) lives here once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .se3 import Pose

__all__ = ["IrlsResult", "irls"]


@dataclass
class IrlsResult:
    pose: Pose
    iterations: int
    converged: bool
    trace: list  # per-iteration dicts: iter, step_phi, step_rho, alpha_star, a_star, mode
    diagnostics: dict


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
    mb_invocations = mb_below = mb_violations = 0
    iterations = 0

    for iterations in range(1, config.max_iters + 1):
        eps, update = linearize(pose)
        wres = config.rlf.weights(eps, n_e=n_e, warm_start=warm)
        warm = wres.warm_start
        diag = wres.diagnostics
        if config.rlf.kind == "adaptive_mb":
            mb_invocations += 1
            mb_below += diag.get("below_mode", 0)
            mb_violations += diag.get("below_mode_violations", 0)

        pose, step = update(wres.weights**config.weight_exponent)
        step_phi = float(np.linalg.norm(step[:3]))
        step_rho = float(np.linalg.norm(step[3:]))
        trace.append(
            {
                "iter": iterations,
                "step_phi": step_phi,
                "step_rho": step_rho,
                "alpha_star": diag.get("alpha_star", np.nan),
                "a_star": diag.get("a_star", np.nan),
                "mode": diag.get("mode", np.nan),
            }
        )
        if step_phi < config.tol_phi and step_rho < config.tol_rho:
            converged = True
            break

    return IrlsResult(
        pose=pose,
        iterations=iterations,
        converged=converged,
        trace=trace,
        diagnostics={
            "mb_invocations": mb_invocations,
            "mb_below_mode": mb_below,
            "mb_below_mode_violations": mb_violations,
        },
    )
