"""Command-line interface for the benchmark harness and loss utilities."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bench, cloud_io, mbfit, scenes
from .adaptive import check_tau
from .irls import check_int
from .scenes import OVERLAP_MAX, OVERLAP_MIN
from .weighting import RLF_KINDS, RobustLoss


def _read_residuals(path) -> np.ndarray:
    values = []
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        raise SystemExit(f"residual file: {exc}")
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


def _checked(parse, check):
    """An argparse type: ``parse(text)``, rejected as a usage error with the
    message of ``check``, one of the program's own input checks."""

    def convert(text: str):
        value = parse(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value

    convert.__name__ = parse.__name__  # argparse names it in "invalid int value: ..."
    return convert


def cmd_bench(args):
    """Build ``args.cfg_cls`` from ``--config`` and the flags; run ``args.runner``."""
    try:
        values = json.loads(Path(args.config).read_text()) if args.config else {}
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bad config: {exc}")
    if not isinstance(values, dict):
        raise SystemExit(f"bad config: expected a JSON object, got {type(values).__name__}")
    overrides = {
        "master_seed": args.seed,
        args.trials_field: args.trials,
        "threads": args.threads,
        "rlfs": args.rlf,
        "trace_dir": getattr(args, "trace_dir", None),
    }
    values.update((key, val) for key, val in overrides.items() if val is not None)
    unknown = set(values) - {f.name for f in dataclasses.fields(args.cfg_cls)}
    if unknown:
        raise SystemExit(f"unknown config keys: {sorted(unknown)}")
    for key in ("rlfs", "outlier_levels", "scene_kinds", "overlap_range"):
        if isinstance(values.get(key), list):
            values[key] = tuple(values[key])
    try:
        cfg = args.cfg_cls(**values)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad config: {exc}")
    result = args.runner(cfg, args.out_dir)
    print(f"wrote {args.out_dir}/trials.csv ({len(result['records'])} rows)")


def cmd_weights(args):
    residuals = _read_residuals(args.input)
    rlf = RobustLoss(args.rlf, tau=args.tau)
    result = rlf.weights(residuals, n_e=args.n_e)
    # A non-finite number goes out as its repr, "inf", "-inf" or "nan": strict JSON.
    diagnostics = {key: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
                   for key, v in result.diagnostics.items()}
    payload = {"rlf": args.rlf, "diagnostics": diagnostics,
               "weights": [float(w) for w in result.weights]}
    out = json.dumps(payload, indent=1, default=float, allow_nan=False)
    if args.out:
        cloud_io.make_dir(Path(args.out).parent, "out")
        try:
            Path(args.out).write_text(out)
        except OSError as exc:
            raise SystemExit(f"bad out: {exc}")
    else:
        print(out)


def cmd_gen_scene(args):
    out = cloud_io.make_dir(args.out_dir, "out-dir")
    source, target, t_gt = scenes.generate_scene(args.kind, args.overlap, args.seed)
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
    common.add_argument("--trials", type=_checked(int, lambda v: check_int("trials", v, 1)),
                        help="trials per group override")
    common.add_argument("--threads", type=_checked(int, lambda v: check_int("threads", v, 1)),
                        help="worker processes")
    common.add_argument(
        "--rlf", action="append", choices=RLF_KINDS, help="restrict to these RLFs (repeatable)"
    )

    p = sub.add_parser("pose-avg-bench", parents=[common], help="pose averaging Monte Carlo")
    p.set_defaults(func=cmd_bench, cfg_cls=bench.PoseAvgBenchConfig,
                   trials_field="trials_per_level", runner=bench.run_pose_avg_benchmark)

    p = sub.add_parser("icp-bench", parents=[common], help="alignment Monte Carlo")
    p.add_argument("--trace-dir", help="dump per-iteration solver traces here")
    p.set_defaults(func=cmd_bench, cfg_cls=bench.IcpBenchConfig,
                   trials_field="trials_per_kind", runner=bench.run_icp_benchmark)

    p = sub.add_parser(
        "weights", help="evaluate any RLF on a residual list",
        description="Print {rlf, diagnostics, weights} as JSON.  For adaptive_mb the "
        "diagnostics carry the fitted Chi shape a_star and its mode, next to alpha_star "
        "and the fallback flags.  "
        "A number that is not finite, such as the alpha_star = -inf sentinel, is written "
        "as the string \"-inf\", \"inf\" or \"nan\", which float() reads back, so the "
        "output is strict JSON.",
    )
    p.add_argument("--rlf", required=True, choices=RLF_KINDS)
    p.add_argument("--input", required=True, help="residual file (or - for stdin)")
    p.add_argument(
        "--n-e", type=_checked(int, mbfit._dof), default=3,
        help="error dimension: the Chi model of adaptive_mb and the scale of cauchy/tukey/welsch",
    )
    p.add_argument("--tau", type=_checked(float, check_tau), default=10.0,
                   help="truncation bound of the adaptive kinds")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("gen-scene", help="generate a synthetic scan pair")
    p.add_argument("--kind", required=True, choices=scenes.SCENE_KINDS)
    p.add_argument("--overlap", type=_checked(float, scenes.check_overlap), default=0.6,
                   help=f"shared fraction of the two views, in [{OVERLAP_MIN}, {OVERLAP_MAX}]")
    p.add_argument("--seed", type=_checked(int, lambda v: check_int("seed", v, 0)), default=0)
    p.add_argument("--out-dir", default="scene")
    p.set_defaults(func=cmd_gen_scene)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
