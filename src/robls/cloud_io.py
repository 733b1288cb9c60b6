"""File formats: point clouds (CSV / ASCII PLY), poses, trials, reports.

Poses serialize as 12 numbers: the rotation matrix row-major followed by the
translation.  All CSV floats use repr-precision formatting so reruns with the
same seed are byte-identical.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .icp import PointCloud
from .pose_avg import PoseMeasurement
from .se3 import Pose
from .stats import TrialRecord

__all__ = [
    "load_point_cloud",
    "save_point_cloud_csv",
    "pose_to_flat",
    "pose_from_flat",
    "save_measurements_json",
    "load_measurements_json",
    "write_trials_csv",
    "write_timings_csv",
    "write_summary_csv",
    "write_summary_json",
    "write_icp_trace_csv",
]

_FLOAT_FMT = "%.12g"


def _fmt(x) -> str:
    return _FLOAT_FMT % float(x)


def load_point_cloud(path) -> PointCloud:
    """Read a cloud from CSV (x,y,z[,nx,ny,nz]) or ASCII PLY.

    The PLY subset accepts float vertex properties named x/y/z and optional
    nx/ny/nz.  Binary encodings, unknown or repeated properties, empty
    bodies and non-finite values raise ``ValueError`` naming the path.
    """
    path = Path(path)
    if path.suffix.lower() == ".ply":
        return _load_ply(path)
    return _load_csv(path)


def _parse_floats(parts, path, lineno):
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: malformed number ({exc})") from None
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{path}:{lineno}: non-finite value")
    return vals


def _load_csv(path: Path) -> PointCloud:
    points, normals = [], []
    with open(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    for lineno, row in enumerate(rows, start=1):
        row = [c.strip() for c in row if c.strip()]
        if not row:
            continue
        if lineno == 1 and any(not _is_number(c) for c in row):
            continue  # header
        vals = _parse_floats(row, path, lineno)
        if len(vals) == 3:
            points.append(vals)
        elif len(vals) == 6:
            points.append(vals[:3])
            normals.append(vals[3:])
        else:
            raise ValueError(f"{path}:{lineno}: expected 3 or 6 columns, got {len(vals)}")
    if normals and len(normals) != len(points):
        raise ValueError(f"{path}: mixed 3- and 6-column rows")
    if not points:
        raise ValueError(f"{path}: no points")
    return PointCloud(
        np.asarray(points), normals=np.asarray(normals) if normals else None
    )


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _load_ply(path: Path) -> PointCloud:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: binary PLY encodings are not supported") from None
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ValueError(f"{path}: missing 'ply' magic line")

    n_vertices = None
    properties: list[str] = []
    body_at = None
    for i, line in enumerate(lines[1:], start=2):
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "format":
            if tok[1:2] != ["ascii"]:
                raise ValueError(f"{path}:{i}: unsupported PLY encoding in {line!r}")
        elif tok[0] == "comment":
            continue
        elif tok[0] == "element":
            if tok[1:2] != ["vertex"]:
                raise ValueError(f"{path}:{i}: unsupported element in {line!r}")
            if len(tok) != 3 or not tok[2].isdigit():
                raise ValueError(f"{path}:{i}: expected 'element vertex <count>'")
            n_vertices = int(tok[2])
        elif tok[0] == "property":
            name = tok[-1]
            if name not in ("x", "y", "z", "nx", "ny", "nz"):
                raise ValueError(f"{path}:{i}: unknown PLY property {name!r}")
            if name in properties:
                raise ValueError(f"{path}:{i}: repeated PLY property {name!r}")
            properties.append(name)
        elif tok[0] == "end_header":
            body_at = i
            break
        else:
            raise ValueError(f"{path}:{i}: unexpected header line {line!r}")
    if body_at is None or n_vertices is None:
        raise ValueError(f"{path}: incomplete PLY header")
    for axis in ("x", "y", "z"):
        if axis not in properties:
            raise ValueError(f"{path}: missing vertex property {axis!r}")
    if n_vertices == 0:
        raise ValueError(f"{path}: no points")

    rows = []
    for lineno, line in enumerate(lines[body_at : body_at + n_vertices], start=body_at + 1):
        parts = line.split()
        if len(parts) != len(properties):
            raise ValueError(
                f"{path}:{lineno}: expected {len(properties)} values, got {len(parts)}"
            )
        rows.append(_parse_floats(parts, path, lineno))
    if len(rows) != n_vertices:
        raise ValueError(f"{path}: vertex count mismatch")
    data = np.asarray(rows)
    cols = {name: data[:, i] for i, name in enumerate(properties)}
    points = np.column_stack([cols["x"], cols["y"], cols["z"]])
    normals = None
    if all(k in cols for k in ("nx", "ny", "nz")):
        normals = np.column_stack([cols["nx"], cols["ny"], cols["nz"]])
    return PointCloud(points, normals=normals)


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


def pose_from_flat(values) -> Pose:
    v = np.asarray(values, dtype=float).reshape(12)
    return Pose(v[:9].reshape(3, 3), v[9:])


def save_measurements_json(measurements: list[PoseMeasurement], init: Pose, path) -> None:
    payload = {
        "init": pose_to_flat(init),
        "measurements": [
            {"pose": pose_to_flat(m.pose), "cov": [float(x) for x in m.cov.ravel()]}
            for m in measurements
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def load_measurements_json(path) -> tuple[list[PoseMeasurement], Pose]:
    """Read :func:`save_measurements_json` output; malformed files raise ``ValueError``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        payload = json.loads(raw)
        measurements = [
            PoseMeasurement(pose_from_flat(_finite(m["pose"], 12)), _finite(m["cov"], 36))
            for m in payload["measurements"]
        ]
        init = pose_from_flat(_finite(payload["init"], 12))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{path}: malformed measurement file ({exc!r})") from None
    if not measurements:
        raise ValueError(f"{path}: no measurements")
    return measurements, init


def _finite(value, size: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float).reshape(size)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"expected {size} finite numbers")
    return arr


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
                [row["group"], row["rlf"], row["trials"]]
                + [_fmt(row[c]) for c in SUMMARY_COLUMNS[3:-2]]
                + [_fmt(row["success_rate"]), _fmt(row["convergence_rate"])]
            )


def write_summary_json(rows: list[dict], meta: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump({"meta": meta, "rows": rows}, fh, indent=1, default=float)


def write_icp_trace_csv(trace: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "step_phi", "step_rho", "alpha_star", "a_star", "mode"])
        for row in trace:
            writer.writerow(
                [row["iter"]]
                + [_fmt(row[c]) for c in ("step_phi", "step_rho", "alpha_star", "a_star", "mode")]
            )
