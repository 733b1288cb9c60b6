"""Self-tests of the benchmark on tiny versions of each workload.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import robls.adaptive
import robls.icp
import robls.pose_avg
import robls.weighting
from perfbench import layers, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """One reference trial, short ICP solves, no set-up child processes."""
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(workloads.Icp, "max_iters", 3)
    for cls in workloads.WORKLOADS.values():
        monkeypatch.setattr(cls, "reference_trials", 1)


def bench(capsys, workload, trace=0, seed=7):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return code, json.loads(lines[-1]), digest, lines


def test_workloads_match_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_present_with_units(capsys, workload):
    code, result, _, lines = bench(capsys, workload)
    assert code == 0 and result["correct"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in expected.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("provenance ") for line in lines)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_emits_every_layer_metric(capsys, workload):
    code, result, _, _ = bench(capsys, workload, trace=1)
    assert code == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert expected == layers.UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", NAMES)
def test_digest_repeats(capsys, workload):
    first = bench(capsys, workload)[2]
    assert bench(capsys, workload)[2] == first
    assert bench(capsys, workload, seed=8)[2] == first  # the reference corpus ignores the seed
    traced = bench(capsys, workload, trace=1)[2]
    assert bench(capsys, workload, trace=1)[2] == traced


def test_raising_solver_is_counted_and_run_completes(capsys, monkeypatch):
    real = robls.pose_avg.solve_pose_average

    def fake(measurements, init, config):
        if config.rlf.kind == "tukey":
            raise robls.pose_avg.SingularSystemError("fake")
        return real(measurements, init, config)

    monkeypatch.setattr(robls.pose_avg, "solve_pose_average", fake)
    code, result, _, lines = bench(capsys, "pose_avg")
    assert code == 0 and result["correct"]
    assert result["failed"] == result["attempted"] // len(workloads.KINDS)
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 - 1 / len(workloads.KINDS))
    assert "info reference_failures = {'SingularSystemError': 1}" in lines


def test_bad_weights_fail_the_gate(capsys, monkeypatch):
    real = robls.weighting.RobustLoss.weights

    def too_heavy(self, residuals, n_e=3, warm_start=None):
        result = real(self, residuals, n_e=n_e, warm_start=warm_start)
        result.weights = result.weights * 1.5
        return result

    monkeypatch.setattr(robls.weighting.RobustLoss, "weights", too_heavy)
    code, result, _, lines = bench(capsys, "weights_cold")
    assert code == 1 and not result["correct"]
    assert any(line.startswith("VIOLATION ") for line in lines)


def test_tracer_refuses_a_missing_target(monkeypatch):
    associate = robls.icp.associate
    monkeypatch.delattr(robls.adaptive, "partition_z")  # the last target
    with pytest.raises(AttributeError):
        with tracing.Tracer().install():
            pass
    assert robls.icp.associate is associate  # the targets patched before it were restored


def test_unfired_span_fails_the_traced_run(capsys, monkeypatch):
    monkeypatch.setattr(workloads.WeightsCold, "expected_spans", ("icp.associate",))
    code, result, _, lines = bench(capsys, "weights_cold", trace=1)
    assert code == 1 and not result["correct"]
    assert "VIOLATION expected span icp.associate never fired" in lines


def test_span_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1, 0, None], ["inner", 2.0, 5.0, 0, 0, None]]
    summary = tracer.summary()
    assert summary["outer"]["self_s"] == 7.0 and summary["inner"]["self_s"] == 3.0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
