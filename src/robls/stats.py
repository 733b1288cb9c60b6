"""Trial statistics and summary tables for the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["percentile", "success", "TrialRecord", "summarize"]


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (the type-7 convention)."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("percentile of an empty list")
    if not 0.0 <= p <= 100.0:
        raise ValueError("p must lie in [0, 100]")
    return float(np.percentile(v, p, method="linear"))


def success(prior_phi: float, prior_rho: float, post_phi: float, post_rho: float) -> bool:
    """True iff both errors strictly improved over the initial perturbation."""
    return bool(post_phi < prior_phi and post_rho < prior_rho)


@dataclass
class TrialRecord:
    """One solver run within a benchmark group: a trials.csv row, and its wall time."""

    group: str              # outlier level or scene kind
    trial: int
    rlf: str
    seed: int
    config_hash: str
    prior_phi_deg: float
    prior_rho_mm: float
    phi_err_deg: float
    rho_err_mm: float
    iterations: int
    converged: bool
    success: bool
    seconds: float          # wall time; excluded from deterministic outputs


def summarize(records: list[TrialRecord]) -> list[dict]:
    """Per (group, rlf) percentile rows, sorted for deterministic emission."""
    keys = sorted({(r.group, r.rlf) for r in records})
    rows = []
    for group, rlf in keys:
        sel = [r for r in records if r.group == group and r.rlf == rlf]
        phi = [r.phi_err_deg for r in sel]
        rho = [r.rho_err_mm for r in sel]
        row = {
            "group": group,
            "rlf": rlf,
            "trials": len(sel),
            "phi_p50": percentile(phi, 50),
            "phi_p75": percentile(phi, 75),
            "phi_p90": percentile(phi, 90),
            "rho_p50": percentile(rho, 50),
            "rho_p75": percentile(rho, 75),
            "rho_p90": percentile(rho, 90),
            "median_iterations": percentile([r.iterations for r in sel], 50),
            "success_rate": float(np.mean([r.success for r in sel])),
            "convergence_rate": float(np.mean([r.converged for r in sel])),
            "median_seconds": percentile([r.seconds for r in sel], 50),
        }
        rows.append(row)
    return rows
