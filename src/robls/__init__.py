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
)
from .loss import (
    ALPHA_MIN,
    rho,
    var_trimmed_weights,
    weight,
)
from .mbfit import (
    MbFit,
    adaptive_mb_weights,
    chi_quantile,
    fit_mb,
)
from .se3 import (
    Pose,
    exp_map,
    log_map,
    pose_error_norms,
    sample_perturbation,
    so3_exp,
)
from .weighting import RLF_KINDS, RobustLoss, WeightResult

__version__ = "0.1.0"
