"""Uniform dispatch from a robust-loss descriptor to residual weights.

Solvers talk to one entry point, :meth:`RobustLoss.weights`, and stay
agnostic of whether the loss is a fixed M-estimator on sigma-scaled
residual norms, a trimming rule, or one of the adaptive kernels.

The fixed kernels divide the norms by ``median(r) / median(Chi(n_e))``
(reported as ``chi_sigma``), which recovers the per-axis sigma of
``n_e``-dimensional Gaussian errors, so their 95%-efficiency tuning
constants keep their unit-sigma meaning.  At ``n_e = 1`` it is the MAD
scale of the signed residuals ``+-r``.  The kernels still peak at zero:
they stand for the zero-mode assumption that the norm-aware kind drops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mbfit
from .adaptive import BARRON_DOMAIN, CHEBROLU_DOMAIN, check_tau, optimize_alpha
from .loss import DEFAULT_TUNING, MAD_FLOOR, check_norms, fixed_weight, var_trimmed_weights, weight

__all__ = [
    "RobustLoss",
    "WeightResult",
    "RLF_KINDS",
    "FIXED_KINDS",
    "ADAPTIVE_KINDS",
]

FIXED_KINDS = ("cauchy", "tukey", "welsch", "var_trimmed")
ADAPTIVE_KINDS = ("barron", "chebrolu", "adaptive_mb")
RLF_KINDS = ("none",) + FIXED_KINDS + ADAPTIVE_KINDS


def _median(r: np.ndarray) -> float:
    """``np.median`` of NaN-free ``r``, bit for bit, from one partition.

    The middle order statistic, or the mean ``(lo + hi) / 2`` of the two
    middle ones, as ``np.median`` computes it; without its NaN scan, which
    :func:`~robls.loss.check_norms` makes redundant, it costs about a fifth
    of ``np.median`` on small sets.
    """
    k = r.size // 2
    if r.size % 2:
        return float(np.partition(r, k, axis=None)[k])
    part = np.partition(r, (k - 1, k), axis=None)
    return float((part[k - 1] + part[k]) / 2.0)


@dataclass
class WeightResult:
    weights: np.ndarray
    diagnostics: dict


@dataclass(frozen=True)
class RobustLoss:
    """Selector for a robust loss: which kind, and for the adaptive kernels
    their truncation bound ``tau``.

    The fixed kernels take their 95%-efficiency constants from
    ``loss.DEFAULT_TUNING``.
    """

    kind: str = "adaptive_mb"
    tau: float = 10.0

    def __post_init__(self):
        if self.kind not in RLF_KINDS:
            raise ValueError(f"unknown RLF kind {self.kind!r}; expected one of {RLF_KINDS}")
        check_tau(self.tau)

    def weights(
        self, residuals, n_e: int = 3, warm_start: WeightResult | None = None
    ) -> WeightResult:
        """Weights in [0, 1] for a set of nonnegative residual norms.

        Raises ``ValueError`` if the set fails
        :func:`~robls.loss.check_norms`, or if ``n_e`` is not an integer in
        ``[1, mbfit.MAX_DOF]``, whatever the kind.

        ``n_e`` is the dimension of the underlying error: it sets the
        fixed kernels' scale and the norm-aware kind's Chi model.

        ``warm_start`` is the previous call's result.  Its diagnostics'
        ``alpha_star`` seeds the alpha search and ``a_star`` seeds the Chi
        fit.  Reusing them keeps consecutive IRLS refits in the same local
        basin, which suppresses weight flapping near convergence.  The -inf
        sentinel seeds ``adaptive_mb``'s search at the domain floor
        ``CHEBROLU_DOMAIN.lo``, the point it stands for; for ``chebrolu``, as
        for any alpha that is not finite, the search restarts cold.
        """
        r = check_norms(residuals)
        n_e = mbfit._dof(n_e)
        seeds = warm_start.diagnostics if warm_start is not None else {}
        seed_alpha = seeds.get("alpha_star")
        if seed_alpha == -np.inf and self.kind == "adaptive_mb":
            seed_alpha = CHEBROLU_DOMAIN.lo
        elif seed_alpha is not None and not np.isfinite(seed_alpha):
            seed_alpha = None
        seed_a = seeds.get("a_star")

        if self.kind == "none":
            return WeightResult(np.ones_like(r), {})

        if self.kind in DEFAULT_TUNING:
            scale = max(_median(r) / mbfit.chi_quantile(n_e, 0.5), MAD_FLOOR)
            w = fixed_weight(self.kind, r / scale)
            return WeightResult(w, {"chi_sigma": scale})

        if self.kind == "var_trimmed":
            w = var_trimmed_weights(r)
            return WeightResult(w, {"trim_kept": float(np.mean(w))})

        if self.kind in ("barron", "chebrolu"):
            domain = BARRON_DOMAIN if self.kind == "barron" else CHEBROLU_DOMAIN
            res = optimize_alpha(r, domain, (-self.tau, self.tau), x0=seed_alpha)
            w = weight(r, res.alpha_star)
            diag = {"alpha_star": res.alpha_star, "alpha_converged": res.converged}
            return WeightResult(w, diag)

        # norm-aware adaptive kind
        w, diag = mbfit.adaptive_mb_weights(
            r, n_e=n_e, tau=self.tau, alpha_x0=seed_alpha, a_x0=seed_a
        )
        return WeightResult(w, diag.as_dict())
