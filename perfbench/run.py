"""Benchmark of the robls solve path: one workload per run.

    python3 perfbench/run.py --workload pose_avg --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports ``robls`` from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that gives the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, the provenance and the outcome digest.  The exit code
is 1 on a correctness violation and 2 when the source tree is missing.
See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402

# One process with one worker: BLAS is pinned before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_SAMPLES = 3        # this process plus two set-up-only child processes
HARD_LIMIT_S = 120.0     # the timed loop never outlasts this, whatever --seconds says
REFERENCE_SEED = 20220516  # master seed of the reference corpus and the warm-up (robls.bench default)
WARMUP_TRIAL = 10**6     # trial index of the warm-up input, far past the reference corpus
PROBE_EVERY_S = 0.2      # host speed changes over seconds; a probe costs about 1.5 ms
PROBE_REFERENCE_S = 1.5e-3  # probe time on the 2-CPU machine the benchmark was built on

END_TO_END_UNITS = {
    "setup_s": "s",
    "step_cost_gmean": "probe",
    "step_cost_p90": "probe",
    "fixed_step_cost_gmean": "probe",
    "adaptive_step_cost_gmean": "probe",
    "prep_cost_gmean": "probe",
    "ok_frac": "frac",
    "success_rate": "frac",
    "err_ratio_p50": "ratio",
    "iters_per_op": "iters/op",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("pose_avg", "icp", "weights_cold"))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED, help="master seed of the timed inputs")
    p.add_argument("--seconds", type=float, default=25.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def percentile(values, q: float) -> float:
    """Type-1 percentile (a sample value, no interpolation); inf marks a failure."""
    return float(np.percentile(np.asarray(values, dtype=float), q, method="inverted_cdf"))


def git_commit() -> str:
    """Commit of the checkout read from ``.git`` directly, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, digest: str) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "digest": digest,
    }


def probe_setup(args) -> list[float]:
    """Set-up samples of fresh processes, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


_PROBE_DATA = np.random.default_rng(0).standard_normal(4096)
_PROBE_GRAM = np.random.default_rng(1).standard_normal((64, 3))


def speed_probe() -> float:
    """Seconds taken by a fixed kernel of small numpy calls and a Python loop.

    It does not touch ``robls``, so a change to the program cannot move it;
    only the speed of the host can.
    """
    t0 = time.perf_counter()
    for _ in range(30):
        np.sort(_PROBE_DATA)
        np.exp(-0.5 * _PROBE_DATA * _PROBE_DATA).sum()
        np.linalg.solve(_PROBE_GRAM.T @ _PROBE_GRAM, _PROBE_GRAM[0])
    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    return time.perf_counter() - t0


def timed_loop(workloads, wl, seed, seconds, checker, tracer=None):
    """Trials 0, 1, ... of the seed's stream until ``seconds`` have passed.

    The speed probe runs at least every ``PROBE_EVERY_S``; each trial gets
    the mean of the probes just before and just after it.
    """
    runs, pending = [], []
    start = last_probe = time.perf_counter()
    probes = [speed_probe()]
    while not runs or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > HARD_LIMIT_S:
            break
        run = workloads.run_trial(wl, seed, len(runs), checker, tracer)
        runs.append(run)
        pending.append(run)
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(speed_probe())
            last_probe = time.perf_counter()
            for run in pending:
                run.probe_s = 0.5 * (probes[-2] + probes[-1])
            pending = []
    wall = time.perf_counter() - start
    probes.append(speed_probe())
    for run in pending:
        run.probe_s = 0.5 * (probes[-2] + probes[-1])
    return runs, wall, probes


def _ms(op) -> float:
    """Op latency; a failed op misses every latency limit."""
    return op.seconds * 1e3 if not op.failure else float("inf")


def end_to_end(workloads, runs, wall, probes, reference, setup_samples) -> tuple[dict, dict]:
    """End-to-end metrics, plus the raw figures printed for the reader.

    Timings come from the seed's timed stream.  They are per IRLS step (op
    time over its iterations; a ``weights_cold`` op is one step) and are
    costs in probe units: each trial's times are divided by the speed probe
    taken around it, which cancels the host's own changes of speed.  Centres
    are geometric means, which neither the heavy tail of slow ops nor the
    mix of scene kinds dominates.  ``setup_s`` is scaled by the median probe
    of the run to a host on which the probe takes ``PROBE_REFERENCE_S``.
    Quality and work
    counts come from the fixed reference corpus, so they repeat exactly from
    run to run.
    """
    ok = [(op, run.probe_s) for run in runs for op in run.ops if not op.failure]
    ops = [op for run in runs for op in run.ops]
    fixed = [(op, p) for op, p in ok if op.kind in workloads.FIXED_KINDS]
    adapt = [(op, p) for op, p in ok if op.kind in workloads.ADAPTIVE_KINDS]
    ref = [op for run in reference for op in run.ops]
    ref_ok = [op for op in ref if not op.failure]

    def step_costs(pairs):
        return [op.seconds / p / op.iterations for op, p in pairs]

    def ms_per_step(pairs):
        return 1e3 * sum(op.seconds for op, _ in pairs) / sum(op.iterations for op, _ in pairs)

    metrics = {
        "setup_s": statistics.median(setup_samples) * PROBE_REFERENCE_S / statistics.median(probes),
        "step_cost_gmean": statistics.geometric_mean(step_costs(ok)),
        "step_cost_p90": percentile(step_costs(ok), 90),
        "fixed_step_cost_gmean": statistics.geometric_mean(step_costs(fixed)),
        "adaptive_step_cost_gmean": statistics.geometric_mean(step_costs(adapt)),
        "prep_cost_gmean": statistics.geometric_mean(run.prep_s / run.probe_s for run in runs),
        "ok_frac": len(ok) / len(ops),
        "success_rate": sum(op.succeeded for op in ref) / len(ref),
        "err_ratio_p50": percentile([op.err_ratio if not op.failure else float("inf") for op in ref], 50),
        "iters_per_op": statistics.fmean(op.iterations for op in ref_ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lat = [_ms(op) for op in ops]
    p90 = percentile(lat, 90)
    extra = {
        "timed_ops": len(ops),
        "timed_trials": len(runs),
        "probe_ms_p50": f"{1e3 * statistics.median(probes):.6g} ms ({len(probes)} probes)",
        "steps_per_s": f"{sum(op.iterations for op, _ in ok) / wall:.6g} 1/s",
        "step_ms_mean": f"{ms_per_step(ok):.6g} ms",
        "fixed_step_ms_mean": f"{ms_per_step(fixed):.6g} ms",
        "adaptive_step_ms_mean": f"{ms_per_step(adapt):.6g} ms",
        "ops_per_s": f"{len(ok) / wall:.6g} 1/s",
        "op_ms_p50": f"{percentile(lat, 50):.6g} ms",
        "op_ms_p90": f"{p90:.6g} ms ({sum(x > p90 for x in lat)} of {len(lat)} ops beyond it)",
        "fixed_op_ms_p50": f"{percentile([_ms(op) for op in ops if op.kind in workloads.FIXED_KINDS], 50):.6g} ms",
        "adaptive_op_ms_p50": f"{percentile([_ms(op) for op in ops if op.kind in workloads.ADAPTIVE_KINDS], 50):.6g} ms",
        "prep_ms_p50": f"{percentile([run.prep_s * 1e3 for run in runs], 50):.6g} ms",
        "failed_frac": f"{(len(ops) - len(ok)) / len(ops):.6g} frac",
        "failures": _failures(ops),
        "reference_ops": len(ref),
        "reference_failed_frac": f"{(len(ref) - len(ref_ok)) / len(ref):.6g} frac",
        "reference_failures": _failures(ref),
        "setup_wall_s": setup_samples,
    }
    if ref_ok and len(ref_ok[0].errors) == 2:
        extra["phi_err_deg_p50"] = f"{percentile([op.errors[0] for op in ref_ok], 50):.6g} deg"
        extra["rho_err_mm_p50"] = f"{percentile([op.errors[1] for op in ref_ok], 50):.6g} mm"
    return metrics, extra


def _failures(ops) -> dict:
    out: dict[str, int] = {}
    for op in ops:
        if op.failure:
            out[op.failure] = out.get(op.failure, 0) + 1
    return out


def _busy_s(runs) -> float:
    """Seconds spent preparing inputs and running ops, probes left out."""
    return sum(run.prep_s + sum(op.seconds for op in run.ops) for run in runs)


def _compare(checker, first_runs, again_runs, what: str) -> None:
    for first, again in zip(first_runs, again_runs):
        if [op.digest_line() for op in first.ops] != [op.digest_line() for op in again.ops]:
            checker.flag(f"{what}: trial {first.trial} of {first.group} gave different outcomes")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "robls" / "__init__.py").is_file():
        print(f"perfbench: no robls sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import layers, tracing, workloads

    wl = workloads.WORKLOADS[args.workload]()
    checker = tracing.Checker()
    with checker.install():
        workloads.run_trial(wl, REFERENCE_SEED, WARMUP_TRIAL, checker)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # The result line counts the reference corpus: the same ops in every
        # run, whatever the seed and the host's speed, so `attempted` and
        # `failed` repeat exactly.  Failures in the timed stream show in
        # `ok_frac` and in the `info failures` line.
        reference = [workloads.run_trial(wl, REFERENCE_SEED, t, checker) for t in range(wl.reference_trials)]
        _compare(checker, reference[:1], [workloads.run_trial(wl, REFERENCE_SEED, 0, checker)], "repeat")
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.install():
                runs, _, _ = timed_loop(workloads, wl, args.seed, args.seconds / 2, checker, tracer)
            replay = [workloads.run_trial(wl, args.seed, t, checker) for t in range(len(runs))]
            _compare(checker, runs, replay, "traced and untraced runs")
            summary = tracer.summary()
            for name in wl.expected_spans:
                if name not in summary:
                    checker.flag(f"expected span {name} never fired")
            metrics, units = layers.per_layer(runs, summary, _busy_s(runs) / _busy_s(replay) - 1.0)
            extra = {"traced_ops": sum(len(r.ops) for r in runs), "traced_trials": len(runs),
                     "failures": _failures(op for r in runs for op in r.ops)}
        else:
            setup_samples = [setup_s] + probe_setup(args)
            runs, wall, probes = timed_loop(workloads, wl, args.seed, args.seconds, checker)
            metrics, extra = end_to_end(workloads, runs, wall, probes, reference, setup_samples)
            units = END_TO_END_UNITS

    digest = workloads.outcome_digest(op for run in reference for op in run.ops)
    prov = provenance(args, digest)

    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"info {name} = {value}")
    for message in checker.messages:
        print(f"VIOLATION {message}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"digest {digest}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": prov, "metrics": metrics, "units": units, "info": extra,
              "violations": checker.violations, "violation_messages": checker.messages}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        tracer.write_csv(OUT / f"{stem}-spans.csv")

    ops = [op for run in reference for op in run.ops]
    print(json.dumps({
        "correct": checker.violations == 0,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.failure),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if checker.violations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
