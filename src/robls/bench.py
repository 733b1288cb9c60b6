"""Monte Carlo benchmark drivers for the two applications.

Every trial derives its RNG from (master seed, group, trial index) through
``numpy.random.SeedSequence``, independent of worker scheduling, so a rerun
with the same configuration and master seed reproduces trials.csv
byte-for-byte at any worker count.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import cloud_io, icp, pose_avg, scenes, stats
from .adaptive import check_tau
from .irls import check_int
from .scenes import OVERLAP_MAX, OVERLAP_MIN
from .se3 import perturbation_sigma, pose_error_norms, sample_perturbation
from .weighting import ADAPTIVE_KINDS, FIXED_KINDS, RLF_KINDS, RobustLoss

__all__ = [
    "DEFAULT_RLFS",
    "PoseAvgBenchConfig",
    "IcpBenchConfig",
    "run_pose_avg_benchmark",
    "run_icp_benchmark",
]

DEFAULT_RLFS = FIXED_KINDS + ADAPTIVE_KINDS

MEDIUM_PHI_MAX_DEG = 20.0
MEDIUM_R_MAX = 0.5


@dataclass(frozen=True)
class PoseAvgBenchConfig:
    master_seed: int = 20220516
    trials_per_level: int = 100
    outlier_levels: tuple = (0.0, 0.2, 0.4, 0.6, 0.8)
    rlfs: tuple = DEFAULT_RLFS
    n_inliers: int = 20
    tau: float = 20.0
    max_iters: int = 50
    weight_exponent: int = 2
    threads: int = 1

    def __post_init__(self):
        _check_common(self, "trials_per_level")
        check_int("n_inliers", self.n_inliers, 1)
        _check_sequence("outlier_levels", self.outlier_levels)
        for level in self.outlier_levels:
            if not 0.0 <= _number("outlier level", level) < 1.0:
                raise ValueError(f"outlier levels must lie in [0, 1), got {level}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class IcpBenchConfig:
    master_seed: int = 20220516
    trials_per_kind: int = 60
    scene_kinds: tuple = scenes.SCENE_KINDS
    overlap_range: tuple = (0.4, 0.7)
    rlfs: tuple = DEFAULT_RLFS
    phi_max_deg: float = MEDIUM_PHI_MAX_DEG
    r_max: float = MEDIUM_R_MAX
    grid: float = 0.10
    normal_k: int = 15
    tau: float = 10.0
    max_iters: int = 50
    weight_exponent: int = 2
    threads: int = 1
    trace_dir: str | None = None

    def __post_init__(self):
        _check_common(self, "trials_per_kind")
        check_int("normal_k", self.normal_k, 2)
        _check_names("scene_kinds", self.scene_kinds, scenes.SCENE_KINDS)
        _check_sequence("overlap_range", self.overlap_range)
        if len(self.overlap_range) != 2:
            raise ValueError(f"overlap_range must be a pair [lo, hi], got {self.overlap_range!r}")
        lo, hi = (_number("overlap_range bound", v) for v in self.overlap_range)
        if not OVERLAP_MIN <= lo <= hi <= OVERLAP_MAX:
            raise ValueError(f"overlap_range must satisfy {OVERLAP_MIN} <= lo <= hi <= "
                             f"{OVERLAP_MAX}, got {self.overlap_range!r}")
        if not 0.0 < _number("phi_max_deg", self.phi_max_deg) <= 180.0:
            raise ValueError(f"phi_max_deg must lie in (0, 180], got {self.phi_max_deg}")
        for name in ("r_max", "grid"):
            if not 0.0 < _number(name, getattr(self, name)) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.trace_dir is not None and not isinstance(self.trace_dir, str):
            raise TypeError(f"trace_dir must be a path string, got {self.trace_dir!r}")

    def as_dict(self) -> dict:
        return asdict(self)


def _check_common(cfg, trials_field: str) -> None:
    """Check the fields both bench configs share: TypeError or ValueError."""
    check_int("master_seed", cfg.master_seed, 0)
    check_int(trials_field, getattr(cfg, trials_field), 1)
    for name in ("threads", "max_iters", "weight_exponent"):
        check_int(name, getattr(cfg, name), 1)
    _check_names("rlfs", cfg.rlfs, RLF_KINDS)
    check_tau(_number("tau", cfg.tau))


def _number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _check_sequence(name: str, values) -> None:
    if not isinstance(values, (tuple, list)):
        raise TypeError(f"{name} must be a list, got {values!r}")
    if not values:
        raise ValueError(f"{name} must not be empty")


def _check_names(name: str, values, allowed: tuple) -> None:
    _check_sequence(name, values)
    for value in values:
        if value not in allowed:
            raise ValueError(f"unknown {name} entry {value!r}; expected one of {allowed}")


def config_hash(cfg) -> str:
    """Hash of the scientific configuration (execution details excluded)."""
    payload = cfg.as_dict()
    payload.pop("threads", None)
    payload.pop("trace_dir", None)
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _trial_seed(master: int, group_index: int, trial: int) -> int:
    seq = np.random.SeedSequence(entropy=master, spawn_key=(group_index, trial))
    return int(seq.generate_state(1, dtype=np.uint64)[0] % (2**63))


def _solve_kinds(cfg, group, trial, seed, init, truth, solve):
    """Run ``solve(rlf)`` for every configured loss kind from one start.

    Returns the trial records and the solver results in ``cfg.rlfs`` order.
    In an ICP trial the solves share the target's start association
    (:func:`robls.icp.icp_solve`), so the first kind in ``cfg.rlfs`` order
    also pays for it; a comparison of per-kind times must set that apart.
    """
    prior_phi, prior_rho = pose_error_norms(truth.inverse() @ init)
    records, results = [], []
    for rlf_name in cfg.rlfs:
        t0 = time.perf_counter()
        result = solve(RobustLoss(rlf_name, tau=cfg.tau))
        seconds = time.perf_counter() - t0
        phi, rho = pose_error_norms(truth.inverse() @ result.pose)
        records.append(
            stats.TrialRecord(
                group=group,
                trial=trial,
                rlf=rlf_name,
                seed=seed,
                phi_err_deg=float(np.rad2deg(phi)),
                rho_err_mm=rho * 1e3,
                prior_phi_deg=float(np.rad2deg(prior_phi)),
                prior_rho_mm=prior_rho * 1e3,
                iterations=result.iterations,
                converged=result.converged,
                succeeded=stats.success(prior_phi, prior_rho, phi, rho),
                seconds=seconds,
            )
        )
        results.append(result)
    return records, results


# --- pose averaging --------------------------------------------------------

def _pose_avg_trial(args) -> list[stats.TrialRecord]:
    cfg, level_idx, trial = args
    level = cfg.outlier_levels[level_idx]
    seed = _trial_seed(cfg.master_seed, level_idx, trial)
    spec = pose_avg.TrialSpec(seed=seed, n_inliers=cfg.n_inliers, outlier_fraction=level)
    measurements, init, truth = pose_avg.generate_trial(spec)

    solver_cfg = pose_avg.PoseAvgConfig(
        max_iters=cfg.max_iters, weight_exponent=cfg.weight_exponent
    )
    records, _ = _solve_kinds(
        cfg, f"outliers_{int(round(level * 100)):02d}", trial, seed, init, truth,
        lambda rlf: pose_avg.solve_pose_average(measurements, init, replace(solver_cfg, rlf=rlf)),
    )
    return records


# --- ICP -------------------------------------------------------------------

def _icp_trial(args) -> list[stats.TrialRecord]:
    cfg, kind_idx, trial = args
    kind = cfg.scene_kinds[kind_idx]
    seed = _trial_seed(cfg.master_seed, kind_idx, trial)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))

    overlap = rng.uniform(*cfg.overlap_range)
    source, target, t_gt = scenes.generate_scene(kind, overlap, seed=seed)
    source_ds = icp.voxel_downsample(source, cfg.grid)
    target_ds = icp.estimate_normals(icp.voxel_downsample(target, cfg.grid), cfg.normal_k)

    sigma_phi = perturbation_sigma(np.deg2rad(cfg.phi_max_deg))
    sigma_r = perturbation_sigma(cfg.r_max)
    init = t_gt @ sample_perturbation(sigma_phi, sigma_r, rng)

    solver_cfg = icp.IcpConfig(
        grid=cfg.grid, max_iters=cfg.max_iters, weight_exponent=cfg.weight_exponent
    )
    records, results = _solve_kinds(
        cfg, kind, trial, seed, init, t_gt,
        lambda rlf: icp.icp_solve(source_ds, target_ds, init, replace(solver_cfg, rlf=rlf)),
    )
    if cfg.trace_dir is not None:
        trace_dir = Path(cfg.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        for rlf_name, result in zip(cfg.rlfs, results):
            cloud_io.write_icp_trace_csv(
                result.trace, trace_dir / f"trace_{kind}_{trial:03d}_{rlf_name}.csv"
            )
    return records


# --- shared runner ---------------------------------------------------------

def _run(jobs, worker, threads: int):
    if threads <= 1:
        outs = [worker(job) for job in jobs]
    else:
        with get_context("fork").Pool(threads) as pool:
            outs = pool.map(worker, jobs, chunksize=1)
    return [record for records in outs for record in records]


def _emit(records, cfg, out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(cfg)
    rows = stats.summarize(records)
    cloud_io.write_trials_csv(records, chash, out / "trials.csv")
    cloud_io.write_timings_csv(records, out / "timings.csv")
    cloud_io.write_summary_csv(rows, out / "summary.csv")
    meta = {"config": cfg.as_dict(), "config_hash": chash}
    cloud_io.write_summary_json(rows, meta, out / "summary.json")
    return {"rows": rows, "records": records, "config_hash": chash}


def run_pose_avg_benchmark(cfg: PoseAvgBenchConfig, out_dir) -> dict:
    """Outlier levels x RLFs x trials; writes trials/timings/summary files."""
    jobs = [
        (cfg, level_idx, trial)
        for level_idx in range(len(cfg.outlier_levels))
        for trial in range(cfg.trials_per_level)
    ]
    return _emit(_run(jobs, _pose_avg_trial, cfg.threads), cfg, out_dir)


def run_icp_benchmark(cfg: IcpBenchConfig, out_dir) -> dict:
    """Scene kinds x RLFs x trials from identical initializations per trial."""
    jobs = [
        (cfg, kind_idx, trial)
        for kind_idx in range(len(cfg.scene_kinds))
        for trial in range(cfg.trials_per_kind)
    ]
    return _emit(_run(jobs, _icp_trial, cfg.threads), cfg, out_dir)
