"""File writers: point clouds (CSV), poses, trials, reports.

Poses serialize as 12 numbers: the rotation matrix row-major followed by the
translation.  Deterministic CSV floats are written with 12 significant
digits (``%.12g``), so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .icp import PointCloud
from .irls import TRACE_COLUMNS
from .se3 import Pose
from .stats import TrialRecord

__all__ = [
    "save_point_cloud_csv",
    "pose_to_flat",
    "write_trials_csv",
    "write_timings_csv",
    "write_summary_csv",
    "write_summary_json",
    "write_icp_trace_csv",
]

_FLOAT_FMT = "%.12g"


def _fmt(x) -> str:
    return _FLOAT_FMT % float(x)


def save_point_cloud_csv(cloud: PointCloud, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if cloud.normals is None:
            writer.writerow(["x", "y", "z"])
            for p in cloud.points:
                writer.writerow([_fmt(v) for v in p])
        else:
            writer.writerow(["x", "y", "z", "nx", "ny", "nz"])
            for p, n in zip(cloud.points, cloud.normals):
                writer.writerow([_fmt(v) for v in (*p, *n)])


def pose_to_flat(pose: Pose) -> list[float]:
    return [float(v) for v in np.concatenate([pose.rotation.ravel(), pose.translation])]


TRIAL_COLUMNS = [
    "group",
    "trial",
    "rlf",
    "seed",
    "config_hash",
    "prior_phi_deg",
    "prior_rho_mm",
    "phi_err_deg",
    "rho_err_mm",
    "iterations",
    "converged",
    "success",
]


def write_trials_csv(records: list[TrialRecord], config_hash: str, path) -> None:
    """Deterministic per-trial rows (wall time goes to timings.csv instead)."""
    ordered = sorted(records, key=lambda r: (r.group, r.trial, r.rlf))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_COLUMNS)
        for r in ordered:
            writer.writerow(
                [
                    r.group,
                    r.trial,
                    r.rlf,
                    r.seed,
                    config_hash,
                    _fmt(r.prior_phi_deg),
                    _fmt(r.prior_rho_mm),
                    _fmt(r.phi_err_deg),
                    _fmt(r.rho_err_mm),
                    r.iterations,
                    int(r.converged),
                    int(r.succeeded),
                ]
            )


def write_timings_csv(records: list[TrialRecord], path) -> None:
    """Wall-clock seconds per solve; inherently not deterministic."""
    ordered = sorted(records, key=lambda r: (r.group, r.trial, r.rlf))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "trial", "rlf", "seconds"])
        for r in ordered:
            writer.writerow([r.group, r.trial, r.rlf, "%.6f" % r.seconds])


SUMMARY_COLUMNS = [
    "group",
    "rlf",
    "trials",
    "phi_p50",
    "phi_p75",
    "phi_p90",
    "rho_p50",
    "rho_p75",
    "rho_p90",
    "median_iterations",
    "success_rate",
    "convergence_rate",
]


def write_summary_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow(
                [row["group"], row["rlf"], row["trials"]] + [_fmt(row[c]) for c in SUMMARY_COLUMNS[3:]]
            )


def write_summary_json(rows: list[dict], meta: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump({"meta": meta, "rows": rows}, fh, indent=1, default=float)


def write_icp_trace_csv(trace: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in trace:
            writer.writerow([row["iter"]] + [_fmt(row[c]) for c in TRACE_COLUMNS[1:]])
