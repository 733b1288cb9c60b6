"""Per-layer metrics from the spans of a traced run.

Times are totals over the traced ops divided by the op (or trial) count,
so they compare across runs that fit a different number of ops into the
same time.  A layer that does not run on a workload reads 0.
"""

from __future__ import annotations

from robls.weighting import ADAPTIVE_KINDS, FIXED_KINDS

UNITS = {
    "icp.associate.ms": "ms/op",
    "icp.associate.calls": "calls/op",
    "icp.associate.points": "points/call",
    "icp.minimize_pt2plane.ms": "ms/op",
    "icp.icp_solve.self_ms": "ms/op",
    "scenes.generate_scene.ms": "ms/trial",
    "icp.voxel_downsample.ms": "ms/trial",
    "icp.estimate_normals.ms": "ms/trial",
    "weighting.weights.fixed.ms": "ms/op",
    "weighting.weights.adaptive.ms": "ms/op",
    "adaptive.optimize_alpha.ms": "ms/op",
    "adaptive.optimize_alpha.calls": "calls/op",
    "adaptive.partition_z.ms": "ms/op",
    "adaptive.partition_z.calls": "calls/op",
    "adaptive.alpha_fallback_frac": "frac",
    "mbfit.fit_mb.ms": "ms/op",
    "mbfit.fit_mb.calls": "calls/op",
    "mbfit.fit_fallback_frac": "frac",
    "mbfit.mode_capped_frac": "frac",
    "pose_avg.solve_pose_average.self_ms": "ms/op",
    "solver.iterations": "iters/op",
    "solver.converged_frac": "frac",
    "pose_avg.skipped_measurements": "count/op",
    "trace.overhead_frac": "frac",
}

_EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "infos": []}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(runs, summary: dict, overhead_frac: float) -> tuple[dict, dict]:
    """Every per-layer metric of :data:`UNITS` from a span summary.

    ``weighting.weights.fixed`` and ``.adaptive`` are per op of that kind
    class; the alpha search, quadrature and Chi-fit figures are per
    adaptive-kind op; the rest are per op of the workload, or per trial for
    input preparation.
    """
    def get(name):
        return summary.get(name, _EMPTY)

    def ms(name):
        return get(name)["total_s"] * 1e3

    ops = [op for run in runs for op in run.ops]
    n_ops, n_trials = len(ops), len(runs)
    n_fixed = sum(op.kind in FIXED_KINDS for op in ops)
    n_adapt = sum(op.kind in ADAPTIVE_KINDS for op in ops)
    solved = [op for op in ops if not op.failure and op.iterations > 0]
    alpha_spans = ("weighting.optimize_alpha", "mbfit.optimize_alpha")
    alpha_calls = sum(get(n)["calls"] for n in alpha_spans)
    alpha_fallbacks = sum(sum(get(n)["infos"]) for n in alpha_spans)
    mb_flags = get("mbfit.adaptive_mb_weights")["infos"]
    metrics = {
        "icp.associate.ms": _ratio(ms("icp.associate"), n_ops),
        "icp.associate.calls": _ratio(get("icp.associate")["calls"], n_ops),
        "icp.associate.points": _ratio(sum(get("icp.associate")["infos"]), get("icp.associate")["calls"]),
        "icp.minimize_pt2plane.ms": _ratio(ms("icp.minimize_pt2plane"), n_ops),
        "icp.icp_solve.self_ms": _ratio(get("icp.icp_solve")["self_s"] * 1e3, n_ops),
        "scenes.generate_scene.ms": _ratio(ms("scenes.generate_scene"), n_trials),
        "icp.voxel_downsample.ms": _ratio(ms("icp.voxel_downsample"), n_trials),
        "icp.estimate_normals.ms": _ratio(ms("icp.estimate_normals"), n_trials),
        "weighting.weights.fixed.ms": _ratio(ms("weighting.weights.fixed"), n_fixed),
        "weighting.weights.adaptive.ms": _ratio(ms("weighting.weights.adaptive"), n_adapt),
        "adaptive.optimize_alpha.ms": _ratio(sum(ms(n) for n in alpha_spans), n_adapt),
        "adaptive.optimize_alpha.calls": _ratio(alpha_calls, n_adapt),
        "adaptive.partition_z.ms": _ratio(ms("adaptive.partition_z"), n_adapt),
        "adaptive.partition_z.calls": _ratio(get("adaptive.partition_z")["calls"], n_adapt),
        "adaptive.alpha_fallback_frac": _ratio(alpha_fallbacks, alpha_calls),
        "mbfit.fit_mb.ms": _ratio(ms("mbfit.fit_mb"), n_adapt),
        "mbfit.fit_mb.calls": _ratio(get("mbfit.fit_mb")["calls"], n_adapt),
        "mbfit.fit_fallback_frac": _ratio(sum(f for f, _ in mb_flags), len(mb_flags)),
        "mbfit.mode_capped_frac": _ratio(sum(c for _, c in mb_flags), len(mb_flags)),
        "pose_avg.solve_pose_average.self_ms": _ratio(
            get("pose_avg.solve_pose_average")["self_s"] * 1e3, n_ops
        ),
        "solver.iterations": _ratio(sum(op.iterations for op in solved), len(solved)),
        "solver.converged_frac": _ratio(sum(op.converged for op in solved), len(solved)),
        "pose_avg.skipped_measurements": _ratio(sum(op.skipped for op in ops), n_ops),
        "trace.overhead_frac": overhead_frac,
    }
    return metrics, UNITS
