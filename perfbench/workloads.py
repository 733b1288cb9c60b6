"""The three benchmark workloads and the loop that runs them.

Every workload is a stream of trials.  A trial prepares one input from the
master seed and the trial index, then runs one op per loss kind on that
same input.  The op is the call a user of ``robls`` makes:
``solve_pose_average`` for ``pose_avg``, ``icp_solve`` for ``icp`` and
``RobustLoss.weights`` for ``weights_cold``.  An op that raises is recorded
with its exception class and the run goes on.

Trial seeds follow ``robls.bench``: ``SeedSequence(master, spawn_key=(group,
trial))``, so a trial's input depends only on the master seed and its
position in the stream.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from robls import icp, pose_avg, scenes
from robls.mbfit import chi_quantile
from robls.se3 import pose_error_norms, sample_perturbation
from robls.stats import success
from robls.weighting import ADAPTIVE_KINDS, FIXED_KINDS, RobustLoss

KINDS = FIXED_KINDS + ADAPTIVE_KINDS

_clock = time.perf_counter


def trial_seed(master: int, group: int, trial: int) -> int:
    """Per-trial seed, the same derivation as ``robls.bench``."""
    seq = np.random.SeedSequence(entropy=master, spawn_key=(group, trial))
    return int(seq.generate_state(1, dtype=np.uint64)[0] % (2**63))


def _plain(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


@dataclass
class OpRecord:
    """Outcome of one op; ``failure`` is the exception class name or ''."""

    workload: str
    group: str
    trial: int
    kind: str
    seconds: float
    failure: str = ""
    iterations: int = 0
    converged: bool = False
    errors: tuple = ()
    err_ratio: float = float("nan")
    succeeded: bool = False
    skipped: int = 0

    def digest_line(self) -> str:
        errs = ";".join("%.12g" % e for e in self.errors)
        return (
            f"{self.workload},{self.group},{self.trial},{self.kind},"
            f"{self.iterations},{int(self.converged)},{errs},{self.failure}"
        )


@dataclass
class TrialRun:
    group: str
    trial: int
    prep_s: float
    ops: list = field(default_factory=list)
    probe_s: float = float("nan")  # host-speed probe time in effect, see run.speed_probe


def outcome_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.digest_line().encode())
        h.update(b"\n")
    return h.hexdigest()


class PoseAvg:
    """Pose averaging at every default outlier level, 20 inliers, tau = 20.

    The adaptive alpha search dominates here and ``icp.associate`` never
    runs.
    """

    name = "pose_avg"
    reference_trials = 40  # 8 trials at each of the 5 levels, 280 ops
    levels = (0.0, 0.2, 0.4, 0.6, 0.8)
    n_inliers = 20
    tau = 20.0
    max_iters = 50
    expected_spans = (
        "pose_avg.generate_trial",
        "pose_avg.solve_pose_average",
        "weighting.weights.fixed",
        "weighting.weights.adaptive",
        "weighting.optimize_alpha",
        "mbfit.adaptive_mb_weights",
        "mbfit.fit_mb",
        "mbfit.optimize_alpha",
        "adaptive.partition_z",
    )

    def __init__(self):
        self.configs = {
            k: pose_avg.PoseAvgConfig(max_iters=self.max_iters, rlf=RobustLoss(k, tau=self.tau), weight_exponent=2)
            for k in KINDS
        }

    def prepare(self, master: int, t: int, call):
        level_idx, trial = t % len(self.levels), t // len(self.levels)
        level = self.levels[level_idx]
        spec = pose_avg.TrialSpec(
            seed=trial_seed(master, level_idx, trial), n_inliers=self.n_inliers, outlier_fraction=level
        )
        inputs = call("pose_avg.generate_trial", pose_avg.generate_trial, spec)
        return f"outliers_{int(round(level * 100)):02d}", trial, inputs

    def op(self, inputs, kind: str, call):
        measurements, init, _truth = inputs
        return call("pose_avg.solve_pose_average", pose_avg.solve_pose_average, measurements, init, self.configs[kind])

    def fill(self, rec: OpRecord, inputs, result, checker) -> None:
        _measurements, init, truth = inputs
        _fill_pose(rec, init, truth, result, checker)
        rec.skipped = result.diagnostics.get("skipped_measurements", 0)


class Icp:
    """Point-to-plane ICP on all three scene kinds with the default
    ``IcpBenchConfig`` physics; one shared initialisation per trial.

    The KD-tree association dominates here; the adaptive quadrature is a
    small share.
    """

    name = "icp"
    reference_trials = 3  # 1 trial of each scene kind, 21 ops
    grid = 0.10
    normal_k = 15
    tau = 10.0
    max_iters = 50
    overlap_range = (0.4, 0.7)
    phi_max_deg = 20.0
    r_max = 0.5
    expected_spans = (
        "scenes.generate_scene",
        "icp.voxel_downsample",
        "icp.estimate_normals",
        "icp.icp_solve",
        "icp.associate",
        "icp.minimize_pt2plane",
        "weighting.weights.fixed",
        "weighting.weights.adaptive",
        "weighting.optimize_alpha",
        "mbfit.adaptive_mb_weights",
        "mbfit.fit_mb",
        "mbfit.optimize_alpha",
        "adaptive.partition_z",
    )

    def __init__(self):
        self.configs = {
            k: icp.IcpConfig(
                grid=self.grid, normal_k=self.normal_k, max_iters=self.max_iters,
                rlf=RobustLoss(k, tau=self.tau), weight_exponent=2,
            )
            for k in KINDS
        }
        chi = chi_quantile(3, 0.9973)
        self.sigma_phi = np.deg2rad(self.phi_max_deg) / chi
        self.sigma_r = self.r_max / chi

    def prepare(self, master: int, t: int, call):
        kind_idx, trial = t % len(scenes.SCENE_KINDS), t // len(scenes.SCENE_KINDS)
        scene = scenes.SCENE_KINDS[kind_idx]
        seed = trial_seed(master, kind_idx, trial)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
        overlap = rng.uniform(*self.overlap_range)
        source, target, t_gt = call("scenes.generate_scene", scenes.generate_scene, scene, overlap, seed=seed)
        source_ds = call("icp.voxel_downsample", icp.voxel_downsample, source, self.grid)
        target_ds = call("icp.voxel_downsample", icp.voxel_downsample, target, self.grid)
        target_ds = call("icp.estimate_normals", icp.estimate_normals, target_ds, self.normal_k)
        init = t_gt @ sample_perturbation(self.sigma_phi, self.sigma_r, rng)
        return scene, trial, (source_ds, target_ds, init, t_gt)

    def op(self, inputs, kind: str, call):
        source, target, init, _t_gt = inputs
        return call("icp.icp_solve", icp.icp_solve, source, target, init, self.configs[kind])

    def fill(self, rec: OpRecord, inputs, result, checker) -> None:
        _fill_pose(rec, inputs[2], inputs[3], result, checker)


class WeightsCold:
    """Standalone ``RobustLoss.weights`` calls with no warm start.

    Residual sets are Chi(n_e) inlier norms plus at least one outlier drawn
    uniformly on [0, tau], with n_e in {3, 6} (tau 10 and 20, the ICP and
    pose-averaging settings), N log-uniform on [20, 5000] and outlier share
    uniform on [0, 0.6].  This is the cold path that warm-started IRLS
    skips: the full alpha scan and the 26-candidate Chi-fit scan, plus
    kernel sums that grow with N.
    """

    name = "weights_cold"
    reference_trials = 150  # 1050 ops
    n_range = (20, 5000)
    max_outlier_share = 0.6
    taus = {3: 10.0, 6: 20.0}
    expected_spans = (
        "weighting.weights.fixed",
        "weighting.weights.adaptive",
        "weighting.optimize_alpha",
        "mbfit.adaptive_mb_weights",
        "mbfit.fit_mb",
        "mbfit.optimize_alpha",
        "adaptive.partition_z",
    )

    def __init__(self):
        self.losses = {(k, n_e): RobustLoss(k, tau=tau) for k in KINDS for n_e, tau in self.taus.items()}

    def prepare(self, master: int, t: int, call):
        rng = np.random.default_rng(trial_seed(master, 0, t))
        n_e = (3, 6)[t % 2]
        n = int(round(np.exp(rng.uniform(*np.log(self.n_range)))))
        share = rng.uniform(0.0, self.max_outlier_share)
        n_out = max(1, int(round(share * n)))
        inliers = np.linalg.norm(rng.standard_normal((n - n_out, n_e)), axis=1)
        outliers = rng.uniform(0.0, self.taus[n_e], n_out)
        return f"ne{n_e}", t, (n_e, np.concatenate([inliers, outliers]), n - n_out)

    def op(self, inputs, kind: str, call):
        n_e, residuals, _n_in = inputs
        return self.losses[(kind, n_e)].weights(residuals, n_e=n_e)

    def fill(self, rec: OpRecord, inputs, result, checker) -> None:
        _n_e, _residuals, n_in = inputs
        w = result.weights
        w_in, w_out = float(np.mean(w[:n_in])), float(np.mean(w[n_in:]))
        diag = result.diagnostics
        rec.iterations = 1  # one weights call is one IRLS step
        rec.converged = bool(diag.get("alpha_converged", True))
        rec.errors = (w_in, w_out, diag.get("alpha_star", np.nan), diag.get("a_star", np.nan))
        rec.err_ratio = w_out / w_in if w_in > 0 else float("inf")
        rec.succeeded = rec.err_ratio < 1.0


def _fill_pose(rec: OpRecord, init, truth, result, checker) -> None:
    checker.check_pose(rec.kind, result.pose, result.diagnostics)
    prior_phi, prior_rho = pose_error_norms(truth.inverse() @ init)
    phi, rho = pose_error_norms(truth.inverse() @ result.pose)
    rec.iterations = result.iterations
    rec.converged = result.converged
    rec.errors = (float(np.rad2deg(phi)), rho * 1e3)
    rec.err_ratio = max(phi / prior_phi, rho / prior_rho)
    rec.succeeded = success(prior_phi, prior_rho, phi, rho)


WORKLOADS = {w.name: w for w in (PoseAvg, Icp, WeightsCold)}


def run_trial(wl, master: int, t: int, checker, tracer=None) -> TrialRun:
    """Prepare trial ``t`` and run one op per kind on it, timing each."""
    call = _plain if tracer is None else tracer.call
    t0 = _clock()
    group, trial, inputs = wl.prepare(master, t, call)
    run = TrialRun(group, trial, _clock() - t0)
    for kind in KINDS:
        rec = OpRecord(wl.name, group, trial, kind, 0.0)
        if tracer is not None:
            tracer.op_id += 1
        t0 = _clock()
        try:
            result = wl.op(inputs, kind, call)
        except Exception as exc:  # a failed op is an outcome, never an abort
            rec.seconds = _clock() - t0
            rec.failure = type(exc).__name__
        else:
            rec.seconds = _clock() - t0
            wl.fill(rec, inputs, result, checker)
        run.ops.append(rec)
    return run
