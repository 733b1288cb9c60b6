"""Command-line interface for the benchmark harness and loss utilities."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import bench, cloud_io, mbfit, scenes
from .adaptive import check_tau
from .scenes import OVERLAP_MAX, OVERLAP_MIN
from .weighting import RLF_KINDS, RobustLoss


def _load_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _apply_overrides(cfg_cls, file_cfg: dict, args, key_map: dict):
    values = dict(file_cfg)
    for attr, arg_name in key_map.items():
        val = getattr(args, arg_name, None)
        if val is not None:
            values[attr] = val
    field_names = {f.name for f in dataclasses.fields(cfg_cls)}
    unknown = set(values) - field_names
    if unknown:
        raise SystemExit(f"unknown config keys: {sorted(unknown)}")
    for key in ("rlfs", "outlier_levels", "scene_kinds", "overlap_range"):
        if key in values and isinstance(values[key], list):
            values[key] = tuple(values[key])
    try:
        return cfg_cls(**values)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad config: {exc}")


def _read_residuals(path) -> np.ndarray:
    values = []
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        for token in line.replace(",", " ").split():
            try:
                value = float(token)
            except ValueError:
                raise SystemExit(f"residual file line {lineno}: bad number {token!r}")
            if not 0.0 <= value < np.inf:
                raise SystemExit(f"residual file line {lineno}: {token!r} is not in [0, inf)")
            values.append(value)
    if not values:
        raise SystemExit("no residuals found")
    return np.asarray(values)


def _tau(text: str) -> float:
    value = float(text)
    try:
        check_tau(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _n_e(text: str) -> int:
    value = int(text)
    try:
        return mbfit._dof(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _overlap(text: str) -> float:
    value = float(text)
    if not OVERLAP_MIN <= value <= OVERLAP_MAX:
        raise argparse.ArgumentTypeError(f"must lie in [{OVERLAP_MIN}, {OVERLAP_MAX}], got {text!r}")
    return value


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _seed(text: str) -> int:
    """A seed ``numpy.random.default_rng`` accepts: a non-negative int."""
    return _int_at_least(text, 0)


def cmd_pose_avg_bench(args):
    file_cfg = _load_config(args.config) if args.config else {}
    cfg = _apply_overrides(
        bench.PoseAvgBenchConfig,
        file_cfg,
        args,
        {"master_seed": "seed", "trials_per_level": "trials", "threads": "threads", "rlfs": "rlf"},
    )
    result = bench.run_pose_avg_benchmark(cfg, args.out_dir)
    print(f"wrote {args.out_dir}/trials.csv ({len(result['records'])} rows)")


def cmd_icp_bench(args):
    file_cfg = _load_config(args.config) if args.config else {}
    overrides = {
        "master_seed": "seed",
        "trials_per_kind": "trials",
        "threads": "threads",
        "rlfs": "rlf",
        "trace_dir": "trace_dir",
    }
    cfg = _apply_overrides(bench.IcpBenchConfig, file_cfg, args, overrides)
    result = bench.run_icp_benchmark(cfg, args.out_dir)
    print(f"wrote {args.out_dir}/trials.csv ({len(result['records'])} rows)")


def cmd_fit_mb(args):
    residuals = _read_residuals(args.input)
    weights, diag = mbfit.adaptive_mb_weights(residuals, n_e=args.n_e, tau=args.tau)
    payload = diag.as_dict()
    payload["weights"] = [float(w) for w in weights]
    out = json.dumps(payload, indent=1)
    if args.out:
        Path(args.out).write_text(out)
    else:
        print(out)


def cmd_weights(args):
    residuals = _read_residuals(args.input)
    rlf = RobustLoss(args.rlf, tau=args.tau)
    result = rlf.weights(residuals, n_e=args.n_e)
    payload = {"rlf": args.rlf, "diagnostics": result.diagnostics,
               "weights": [float(w) for w in result.weights]}
    out = json.dumps(payload, indent=1, default=float)
    if args.out:
        Path(args.out).write_text(out)
    else:
        print(out)


def cmd_gen_scene(args):
    source, target, t_gt = scenes.generate_scene(args.kind, args.overlap, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cloud_io.save_point_cloud_csv(source, out / "source.csv")
    cloud_io.save_point_cloud_csv(target, out / "target.csv")
    with open(out / "ground_truth.json", "w") as fh:
        json.dump({"pose": cloud_io.pose_to_flat(t_gt)}, fh, indent=1)
    print(f"wrote {out}/source.csv, target.csv, ground_truth.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robls", description="robust least-squares benchmark toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--out-dir", default="out", help="output directory")
    common.add_argument("--trials", type=_positive_int, help="trials per group override")
    common.add_argument("--threads", type=_positive_int, help="worker processes")
    common.add_argument(
        "--rlf", action="append", choices=RLF_KINDS, help="restrict to these RLFs (repeatable)"
    )

    p = sub.add_parser("pose-avg-bench", parents=[common], help="pose averaging Monte Carlo")
    p.set_defaults(func=cmd_pose_avg_bench)

    p = sub.add_parser("icp-bench", parents=[common], help="alignment Monte Carlo")
    p.add_argument("--trace-dir", help="dump per-iteration solver traces here")
    p.set_defaults(func=cmd_icp_bench)

    p = sub.add_parser("fit-mb", help="fit the residual-norm model and report weights")
    p.add_argument("--input", required=True, help="residual file (or - for stdin)")
    p.add_argument("--n-e", type=_n_e, default=3, help="error dimension")
    p.add_argument("--tau", type=_tau, default=10.0, help="truncation bound")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_fit_mb)

    p = sub.add_parser("weights", help="evaluate any RLF on a residual list")
    p.add_argument("--rlf", required=True, choices=RLF_KINDS)
    p.add_argument("--input", required=True, help="residual file (or - for stdin)")
    p.add_argument(
        "--n-e", type=_n_e, default=3,
        help="error dimension: the Chi model of adaptive_mb and the scale of cauchy/tukey/welsch",
    )
    p.add_argument("--tau", type=_tau, default=10.0)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("gen-scene", help="generate a synthetic scan pair")
    p.add_argument("--kind", required=True, choices=scenes.SCENE_KINDS)
    p.add_argument("--overlap", type=_overlap, default=0.6,
                   help=f"shared fraction of the two views, in [{OVERLAP_MIN}, {OVERLAP_MAX}]")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-dir", default="scene")
    p.set_defaults(func=cmd_gen_scene)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
