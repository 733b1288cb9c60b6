"""File writers: point clouds (CSV), poses, trials, reports.

Poses serialize as 12 numbers: the rotation matrix row-major followed by the
translation.  Deterministic CSV floats are written with 12 significant
digits (``%.12g``), so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .icp import PointCloud
from .irls import TRACE_COLUMNS
from .se3 import Pose
from .stats import TrialRecord

__all__ = [
    "make_dir",
    "save_point_cloud_csv",
    "pose_to_flat",
    "write_trials_csv",
    "write_timings_csv",
    "write_summary_csv",
    "write_summary_json",
    "write_icp_trace_csv",
]


def _cell(value):
    """A bool as 0/1, an int or a str as it is, any other number as ``%.12g``."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, str)):
        return value
    return "%.12g" % float(value)


def _write_table(path, columns, rows) -> None:
    """A header of ``columns``, then the cells each row (a mapping) has under them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])


def make_dir(path, flag: str) -> Path:
    """``path`` as a directory, made with its parents if it is missing.  A
    path that cannot be one exits as the usage error ``bad <flag>: ...``."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SystemExit(f"bad {flag}: {exc}")
    return Path(path)


def save_point_cloud_csv(cloud: PointCloud, path) -> None:
    """The points as ``x, y, z`` rows; normals are not written."""
    columns = ["x", "y", "z"]
    _write_table(path, columns, (dict(zip(columns, v)) for v in cloud.points))


def pose_to_flat(pose: Pose) -> list[float]:
    return [float(v) for v in np.concatenate([pose.rotation.ravel(), pose.translation])]


TRIAL_COLUMNS = [f.name for f in fields(TrialRecord) if f.name != "seconds"]


def write_trials_csv(records: list[TrialRecord], path) -> None:
    """Deterministic per-trial rows (wall time goes to timings.csv instead)."""
    ordered = sorted(records, key=lambda r: (r.group, r.trial, r.rlf))
    _write_table(path, TRIAL_COLUMNS, (vars(r) for r in ordered))


def write_timings_csv(records: list[TrialRecord], path) -> None:
    """Wall-clock seconds per solve; inherently not deterministic.

    A kind's seconds depend on the kinds solved before it in its trial; see
    :func:`robls.bench._trial`.
    """
    ordered = sorted(records, key=lambda r: (r.group, r.trial, r.rlf))
    rows = ({**vars(r), "seconds": "%.6f" % r.seconds} for r in ordered)
    _write_table(path, ["group", "trial", "rlf", "seconds"], rows)


def write_summary_csv(rows: list[dict], path) -> None:
    """The keys of ``rows`` (:func:`robls.stats.summarize`) but wall time."""
    _write_table(path, [key for key in rows[0] if key != "median_seconds"], rows)


def write_summary_json(rows: list[dict], meta: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump({"meta": meta, "rows": rows}, fh, indent=1, default=float)


def write_icp_trace_csv(trace: list[dict], path) -> None:
    _write_table(path, TRACE_COLUMNS, trace)
