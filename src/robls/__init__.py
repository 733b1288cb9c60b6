"""Robust least-squares toolkit.

Norm-aware adaptive robust loss for multivariate problems, baseline fixed
and adaptive robust loss functions, two complete IRLS applications
(point-to-plane ICP and SE(3) pose averaging), and a reproducible Monte
Carlo benchmark harness.
"""

from .adaptive import (
    BARRON_DOMAIN,
    CHEBROLU_DOMAIN,
    AlphaDomain,
    AlphaOptResult,
    optimize_alpha,
    partition_z,
)
from .loss import (
    ALPHA_MIN,
    FixedRlf,
    fixed_weight,
    rho,
    rho_alpha_derivs,
    var_trimmed_weights,
    weight,
)
from .mbfit import (
    MbFit,
    adaptive_mb_weights,
    build_histogram,
    chi_quantile,
    fit_mb,
    mb_pdf,
    shift_residuals,
)
from .se3 import (
    Pose,
    exp_map,
    log_map,
    pose_error_norms,
    sample_perturbation,
    so3_exp,
    so3_log,
)
from .weighting import RLF_KINDS, RobustLoss, WeightResult

__version__ = "0.1.0"
