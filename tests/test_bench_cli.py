import csv
import hashlib
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from robls import bench
from robls.adaptive import TAU_MAX, TAU_MIN
from robls.cli import main
from robls.mbfit import MAX_DOF
from robls.se3 import Pose
from robls.weighting import RLF_KINDS


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestPoseAvgBench:
    def test_small_run_outputs(self, tmp_path):
        cfg = bench.PoseAvgBenchConfig(
            master_seed=5, trials_per_level=3, outlier_levels=(0.0, 0.6),
            rlfs=("adaptive_mb", "var_trimmed"),
        )
        out = bench.run_pose_avg_benchmark(cfg, tmp_path)
        rows = read_csv(tmp_path / "trials.csv")
        assert len(rows) == 3 * 2 * 2
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "timings.csv").exists()
        meta = json.loads((tmp_path / "summary.json").read_text())["meta"]
        assert meta["config_hash"] == out["config_hash"]
        assert set(meta) == {"config", "config_hash"}
        # provenance on every row
        assert all(r["seed"] and r["config_hash"] for r in rows)

    def test_no_outlier_control_levels_agree(self, tmp_path):
        # On clean Gaussian data least squares ("none") is the
        # maximum-likelihood estimate. The norm-aware kernel keeps weight 1
        # below the Chi mode and fits alpha* = 2 above it, so it must agree
        # with that control. The zero-mode kernels (fixed ones, chebrolu)
        # may lose accuracy to the mode gap, but every solve must finish.
        kinds = ("none", "cauchy", "tukey", "welsch", "chebrolu", "adaptive_mb")
        cfg = bench.PoseAvgBenchConfig(
            master_seed=9, trials_per_level=12, outlier_levels=(0.0,), rlfs=kinds,
        )
        out = bench.run_pose_avg_benchmark(cfg, tmp_path)
        assert {row["rlf"]: row["trials"] for row in out["rows"]} == dict.fromkeys(kinds, 12)
        medians = {row["rlf"]: row["phi_p50"] for row in out["rows"]}
        lo, hi = sorted((medians["none"], medians["adaptive_mb"]))
        assert hi <= 1.2 * lo  # within 20% of least squares on clean data


def recording_builder(calls):
    """A trial builder whose solve records the kinds in the order they run."""
    def builder(cfg, group_index, seed):
        def solve(rlf):
            calls.append(rlf.kind)
            return SimpleNamespace(pose=Pose.identity(), iterations=1, converged=True)
        return "group", Pose.identity(), Pose.identity(), solve
    return builder


class TestTrialWorker:
    def test_kinds_run_rotated_and_records_come_in_config_order(self):
        rlfs = ("cauchy", "tukey", "welsch", "barron")
        cfg = bench.PoseAvgBenchConfig(rlfs=rlfs)
        orders = []
        for trial in range(len(rlfs)):
            calls = []
            records = bench._trial((recording_builder(calls), cfg, 0, trial))
            assert [r.rlf for r in records] == list(rlfs)
            assert {r.trial for r in records} == {trial}
            orders.append(calls)
        assert orders[0] == list(rlfs)
        for position in range(len(rlfs)):
            assert sorted(order[position] for order in orders) == sorted(rlfs)

    def test_icp_kind_order_leaves_trials_csv_unchanged(self, tmp_path):
        # The solves of a trial share the target's association memos; the
        # order they run in must not reach any result.
        rows = {}
        for name, rlfs in (("forward", bench.DEFAULT_RLFS), ("reversed", bench.DEFAULT_RLFS[::-1])):
            cfg = bench.IcpBenchConfig(master_seed=3, trials_per_kind=2, scene_kinds=("semi",),
                                       rlfs=rlfs)
            bench.run_icp_benchmark(cfg, tmp_path / name)
            rows[name] = [{k: v for k, v in row.items() if k != "config_hash"}
                          for row in read_csv(tmp_path / name / "trials.csv")]
        assert len(rows["forward"]) == 2 * len(bench.DEFAULT_RLFS)
        assert rows["forward"] == rows["reversed"]


class TestDeterminism:
    def test_pose_avg_thread_invariance(self, tmp_path):
        cfg1 = bench.PoseAvgBenchConfig(
            master_seed=31, trials_per_level=4, outlier_levels=(0.2,),
            rlfs=("adaptive_mb",), threads=1,
        )
        cfg2 = bench.PoseAvgBenchConfig(
            master_seed=31, trials_per_level=4, outlier_levels=(0.2,),
            rlfs=("adaptive_mb",), threads=2,
        )
        bench.run_pose_avg_benchmark(cfg1, tmp_path / "a")
        bench.run_pose_avg_benchmark(cfg2, tmp_path / "b")
        assert (tmp_path / "a/trials.csv").read_bytes() == (tmp_path / "b/trials.csv").read_bytes()

    def test_icp_thread_invariance(self, tmp_path):
        # The pool's workers write the same trials, summary and traces as one process.
        mk = lambda threads, out: bench.IcpBenchConfig(
            master_seed=13, trials_per_kind=2, scene_kinds=("structured",),
            rlfs=("chebrolu",), threads=threads, trace_dir=str(tmp_path / out / "traces"),
        )
        bench.run_icp_benchmark(mk(1, "a"), tmp_path / "a")
        bench.run_icp_benchmark(mk(2, "b"), tmp_path / "b")
        read = lambda out: {path.name: path.read_bytes() for path in [
            tmp_path / out / "trials.csv", tmp_path / out / "summary.csv",
            *sorted((tmp_path / out / "traces").iterdir())]}
        a = read("a")
        assert len(a) == 4
        assert a == read("b")


class TestPinnedOutputs:
    # sha256 of trials.csv and summary.csv for the default configs at a few
    # trials each, and of the ICP trace CSVs concatenated in name order.  A
    # change meant to keep every output keeps these; one that moves an
    # output on purpose states the new hash.
    @pytest.mark.parametrize("command, digests", [
        (["pose-avg-bench", "--trials", "3"], {
            "trials.csv": "8a0a2285e63ee2f753cf9881935ba52aa1b782810d992c61d649cb4d7739de1e",
            "summary.csv": "ec0f2f4d86bf88e019c44492228cd6ca610f66354eab2e3b2110cfd9570f59f1",
        }),
        (["icp-bench", "--trials", "1"], {
            "trials.csv": "14e31667c2367180eb1f58692d857af9586fe6dbbf5f7a1334d7aadca70aebdb",
            "summary.csv": "7491c035bd9d6c920fce7cdcf0efea0d74c787f363dbb4ab069d4fb3916d0742",
            "traces": "358f0523c40e82234bb412c384d7c3ba95bba09cd167b655a22e728a11c66dbe",
        }),
    ], ids=["pose-avg-bench", "icp-bench"])
    def test_trials_csv_hash(self, tmp_path, command, digests):
        traces = ["--trace-dir", str(tmp_path / "traces")] if "traces" in digests else []
        main([*command, "--threads", "1", "--out-dir", str(tmp_path), *traces])
        got = {name: (tmp_path / name).read_bytes() for name in ("trials.csv", "summary.csv")}
        if traces:
            files = sorted((tmp_path / "traces").iterdir())
            assert len(files) == 3 * len(bench.DEFAULT_RLFS)
            got["traces"] = b"".join(path.read_bytes() for path in files)
        assert {name: hashlib.sha256(blob).hexdigest() for name, blob in got.items()} == digests

    def test_gen_scene_hashes(self, tmp_path):
        want = {
            "semi": {
                "source.csv": "3ac72a801978d567009bccb73ba63b76178665bfe297ab632bd2150b591c1d1e",
                "target.csv": "4e5d2646c37f5d4919b74c8e8959d35fd3fb27432539bb4c03c59a425521a4ec",
                "ground_truth.json": "420dc35147e767ab8845690296b1d1dd52e522e56fd7cbd9bc07987e8282fa2f",
            },
            "structured": {
                "source.csv": "59585651792ffd2839307c4dcdb073ce3feb55b3abe05407d91a86abc5440958",
                "target.csv": "ef6b2d3160d74c100dc27a87b2e1dc77c6abac2feb15a15d8db63cd9bbb392a7",
                "ground_truth.json": "38586095240590f2a7d9108ff1622acfb09b4c8f1a3c03a9cd16fc0be8d5c721",
            },
            "unstructured": {
                "source.csv": "f6da40b4c77c117f91775614ee6cdbc7f12f708dadaca8259875ecbdb8d04a45",
                "target.csv": "f7288ca3306397b489d4a47037254663e920ce9df451035fb6feb6ed4cb56c58",
                "ground_truth.json": "4c18ce1b724f0523d6500f2cef4558cde5bedb0e37c4fe4fec71659f340d4f98",
            },
        }
        got = {}
        for kind in want:
            main(["gen-scene", "--kind", kind, "--overlap", "0.6", "--seed", "4",
                  "--out-dir", str(tmp_path / kind)])
            got[kind] = {name: hashlib.sha256((tmp_path / kind / name).read_bytes()).hexdigest()
                         for name in ("source.csv", "target.csv", "ground_truth.json")}
        assert got == want

    @pytest.mark.parametrize("n_e, tau, digests", [
        (3, 10, {
            "none": "5c305a0c141226d777dec68e75276ae68a48c57947d70a0f0917527e2dce6e19",
            "cauchy": "c6c59691ee57089e1e02e7e778708293ab09f118c6ce3b9497e4a974752addec",
            "tukey": "f9dac92b8f47833da3ce4834cf0694499ca03065d0c44b2a94e8d0823fa1070b",
            "welsch": "b5ad0e8209e91ce1f2aea7665668ee234f19aee93aa590b93e634c6dd43b4c64",
            "var_trimmed": "e06c4d57fcd93cfb362c6a799f82cddb6532dea8e01be427f5cc233fcbda83a3",
            "barron": "1db8d318e819652450bb9ddf8c4bcea2e2ba599964f780f5676c439b302a9302",
            "chebrolu": "bd25c485c466015c29561a71cdddd6209c254a98260567b602ecc1b6d4269c67",
            "adaptive_mb": "ffa73d4b8fe787b3bf137ac7936fbb71c84c735cc3bc3a414f881c82e2ce9592",
        }),
        (6, 20, {
            "none": "5c305a0c141226d777dec68e75276ae68a48c57947d70a0f0917527e2dce6e19",
            "cauchy": "5f8cb05126a63f9455d9b28f7b723228f03af54a043ebfc060980826fbff9c66",
            "tukey": "aba51f8d077e501a2f579f720cc47e475813b426b05a15fa97c3df92244e1e9f",
            "welsch": "1e808871237944e86c0dd898240636b4d87595aa0e298d9d4f9c686a1f6d7d04",
            "var_trimmed": "8dfe6381a5d4e8f75bac90ceae78fb8ccd043b626c9716027fcc2ca6f79b5357",
            "barron": "8e2a18ce01bdf9634afc111c32e605eec301dc259ac043dfe565f56055dbb343",
            "chebrolu": "4bb16d708737058f14a6fb8af9c0f5b812d3a3c6828b91ff028df5bc40d469e0",
            "adaptive_mb": "8219f0d69fcfa90abdfeebded9f2722505cb9aa3e78662acff8db243d02b5fa1",
        }),
    ], ids=["n_e3-tau10", "n_e6-tau20"])
    def test_weights_hashes(self, tmp_path, n_e, tau, digests):
        # Chi(n_e) inlier norms plus uniform outliers on [0, tau], at the
        # settings of the two benches.  No kind ends at the -inf sentinel.
        rng = np.random.default_rng(n_e)
        res_file = tmp_path / "resid.txt"
        np.savetxt(res_file, np.concatenate([
            np.linalg.norm(rng.standard_normal((40, n_e)), axis=1), rng.uniform(0.0, tau, 12)]))
        got = {}
        for kind in RLF_KINDS:
            out_file = tmp_path / f"{kind}.json"
            main(["weights", "--rlf", kind, "--input", str(res_file), "--n-e", str(n_e),
                  "--tau", str(tau), "--out", str(out_file)])
            got[kind] = hashlib.sha256(out_file.read_bytes()).hexdigest()
        assert got == digests

    def test_perfbench_outcome_digests(self, monkeypatch):
        # perfbench's reference corpora (its REFERENCE_SEED), as its run.py
        # digests them.  Inside a session other tests have already filled the
        # Z memo and the lru caches, so this also checks that no output
        # depends on cache state.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from perfbench import tracing, workloads

        checker = tracing.Checker()
        got = {}
        with checker.install():
            for name, make in workloads.WORKLOADS.items():
                wl = make()
                got[name] = workloads.outcome_digest(
                    op for t in range(wl.reference_trials)
                    for op in workloads.run_trial(wl, 20220516, t, checker).ops)
        assert got == {
            "pose_avg": "9de7440f4f4ba163fe98b3e825093981bc75d43bf477e2d76993852785287eeb",
            "icp": "125df57ec1145539b64e4fab704b39d5ef6a93cce8ded97b0021b87af3358f36",
            "weights_cold": "a6f9e4bdf95ff19742068a03da494159668090af150d48cfaf62bb3c4bc9c943",
        }
        assert checker.violations == 0, checker.messages

    @pytest.mark.parametrize("command", ["pose-avg-bench", "icp-bench"])
    def test_timings_csv_layout(self, tmp_path, command):
        # Wall times are not deterministic, so pin the layout, not the bytes.
        main([command, "--trials", "1", "--rlf", "cauchy", "--rlf", "adaptive_mb",
              "--out-dir", str(tmp_path)])
        with open(tmp_path / "timings.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["group", "trial", "rlf", "seconds"]
        keys = [[row["group"], row["trial"], row["rlf"]] for row in read_csv(tmp_path / "trials.csv")]
        assert [row[:3] for row in rows] == keys
        assert all(re.fullmatch(r"\d+\.\d{6}", row[3]) for row in rows)


class TestCli:
    def test_gen_scene_and_weights(self, tmp_path):
        main(["gen-scene", "--kind", "semi", "--overlap", "0.6", "--seed", "4",
              "--out-dir", str(tmp_path / "scene")])
        assert (tmp_path / "scene/source.csv").exists()
        gt = json.loads((tmp_path / "scene/ground_truth.json").read_text())
        assert len(gt["pose"]) == 12

        res_file = tmp_path / "resid.txt"
        rng = np.random.default_rng(0)
        np.savetxt(res_file, np.abs(rng.standard_normal(200)))
        out_file = tmp_path / "weights.json"
        main(["weights", "--rlf", "welsch", "--input", str(res_file), "--out", str(out_file)])
        payload = json.loads(out_file.read_text())
        assert len(payload["weights"]) == 200
        assert all(0.0 <= w <= 1.0 for w in payload["weights"])

    def test_weights_adaptive_mb_reports_the_chi_fit(self, tmp_path):
        rng = np.random.default_rng(1)
        res_file = tmp_path / "resid.txt"
        np.savetxt(res_file, np.linalg.norm(rng.standard_normal((4000, 3)), axis=1))
        out_file = tmp_path / "fit.json"
        main(["weights", "--rlf", "adaptive_mb", "--input", str(res_file), "--n-e", "3",
              "--out", str(out_file)])
        payload = json.loads(out_file.read_text())
        assert payload["diagnostics"]["a_star"] == pytest.approx(1.0, abs=0.07)
        assert payload["diagnostics"]["mode"] == pytest.approx(np.sqrt(2.0), abs=0.1)
        assert len(payload["weights"]) == 4000

    def test_weights_output_is_strict_json_at_the_sentinel(self, tmp_path):
        # Mostly outliers drive chebrolu's alpha to the -inf sentinel, which
        # must be written as a string: -Infinity is not JSON.
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        rng = np.random.default_rng(0)
        res_file = tmp_path / "resid.txt"
        np.savetxt(res_file, np.concatenate([np.abs(rng.standard_normal(60)),
                                             rng.uniform(0.0, 10.0, 240)]))
        out_file = tmp_path / "weights.json"
        main(["weights", "--rlf", "chebrolu", "--input", str(res_file), "--out", str(out_file)])
        payload = json.loads(out_file.read_text(), parse_constant=reject)
        assert payload["diagnostics"]["alpha_star"] == "-inf"
        assert float(payload["diagnostics"]["alpha_star"]) == -np.inf
        assert len(payload["weights"]) == 300

    @pytest.mark.parametrize("command", [["weights", "--rlf", "chebrolu"]], ids=["weights"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-0.5"])
    def test_rejects_non_finite_or_negative_residuals(self, tmp_path, command, token):
        res_file = tmp_path / "resid.txt"
        res_file.write_text(f"0.5, 1.0\n0.7 {token}\n2.0\n")
        with pytest.raises(SystemExit, match=f"line 2: '{token}'"):
            main([*command, "--input", str(res_file)])

    @pytest.mark.parametrize("command", [["weights", "--rlf", "adaptive_mb"]], ids=["weights"])
    @pytest.mark.parametrize("option", [["--tau", "0"], ["--tau", "-2"], ["--tau", "nan"],
                                        ["--tau", "inf"], ["--tau", "1000.5"], ["--tau", "1e6"],
                                        ["--n-e", "0"], ["--n-e", "-3"], ["--n-e", "102"],
                                        ["--tau", "5e-324"]])
    def test_rejects_bad_tau_and_n_e_as_usage_errors(self, tmp_path, capsys, command, option):
        res_file = tmp_path / "resid.txt"
        res_file.write_text("0.5 1.0 2.0\n")
        with pytest.raises(SystemExit) as exc:
            main([*command, "--input", str(res_file), *option])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {option[0]}:" in err

    @pytest.mark.parametrize("tau", [TAU_MIN, TAU_MAX])
    @pytest.mark.parametrize("command", [["weights", "--rlf", k] for k in RLF_KINDS], ids=RLF_KINDS)
    def test_runs_at_the_bounds_of_tau_and_n_e(self, tmp_path, command, tau):
        # Norms of MAX_DOF-dimensional errors far below the Chi scale, plus
        # outliers: the shape fit then runs at its smallest a.
        rng = np.random.default_rng(3)
        res_file = tmp_path / "resid.txt"
        np.savetxt(res_file, np.concatenate([
            0.01 * np.linalg.norm(rng.standard_normal((60, MAX_DOF)), axis=1),
            rng.uniform(0.0, 50.0, 20)]))
        out_file = tmp_path / "out.json"
        main([*command, "--input", str(res_file), "--tau", repr(tau), "--n-e", str(MAX_DOF),
              "--out", str(out_file)])
        weights = json.loads(out_file.read_text())["weights"]
        assert len(weights) == 80 and all(0.0 <= w <= 1.0 for w in weights)

    def test_accepts_n_e_up_to_max_dof(self, tmp_path):
        res_file = tmp_path / "resid.txt"
        res_file.write_text("0.5 1.0 2.0\n")
        out_file = tmp_path / "weights.json"
        main(["weights", "--rlf", "welsch", "--input", str(res_file), "--n-e", str(MAX_DOF),
              "--out", str(out_file)])
        assert len(json.loads(out_file.read_text())["weights"]) == 3

    @pytest.mark.parametrize("command", ["pose-avg-bench", "icp-bench"])
    @pytest.mark.parametrize("option", [["--trials", "0"], ["--trials", "-2"],
                                        ["--threads", "0"], ["--threads", "-3"]])
    def test_rejects_bad_trials_and_threads_as_usage_errors(self, tmp_path, capsys, command, option):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out-dir", str(tmp_path / "out"), *option])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {option[0]}:" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["pose-avg-bench", "icp-bench"])
    @pytest.mark.parametrize("key, value, message", [
        ("trials", 0, "at least 1"), ("trials", -2, "at least 1"), ("threads", 0, "at least 1"),
        ("threads", -3, "at least 1"), ("tau", 2000.0, "at most 1000"),
        ("tau", 5e-324, "at least 2.2250738585072014e-308"),
    ])
    def test_config_file_values_checked(self, tmp_path, command, key, value, message):
        if key == "trials":
            key = "trials_per_level" if command == "pose-avg-bench" else "trials_per_kind"
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit, match=message):
            main([command, "--config", str(cfg_file), "--out-dir", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config, extra, message", [
        ("pose-avg-bench", {"trials_per_level": "3"}, [], "trials_per_level must be an integer"),
        ("pose-avg-bench", {"trials_per_level": True}, [], "trials_per_level must be an integer"),
        ("pose-avg-bench", {"outlier_levels": [1.5]}, [], r"outlier levels must lie in \[0, 1\)"),
        ("pose-avg-bench", {"outlier_levels": []}, [], "outlier_levels must not be empty"),
        ("pose-avg-bench", {"rlfs": ["bogus"]}, [], "unknown rlfs entry 'bogus'"),
        ("pose-avg-bench", {"rlfs": "barron"}, [], "rlfs must be a list"),
        ("pose-avg-bench", {"n_inliers": 0}, [], "n_inliers must be at least 1"),
        ("pose-avg-bench", {"max_iters": 0}, [], "max_iters must be at least 1"),
        ("pose-avg-bench", {"tau": "20"}, [], "tau must be a number"),
        ("pose-avg-bench", {}, ["--seed", "-1"], "master_seed must be at least 0"),
        ("icp-bench", {"overlap_range": [0.1, 0.2]}, [], "overlap_range must satisfy"),
        ("icp-bench", {"overlap_range": [0.6]}, [], "overlap_range must be a pair"),
        ("icp-bench", {"scene_kinds": ["cave"]}, [], "unknown scene_kinds entry 'cave'"),
        ("icp-bench", {"grid": 0}, [], "grid must be positive and finite"),
        ("icp-bench", {"normal_k": 1.5}, [], "normal_k must be an integer"),
        ("icp-bench", {"weight_exponent": 0}, [], "weight_exponent must be at least 1"),
        # Repeated entries would repeat (group, trial, rlf) keys and inflate
        # the summary's trial counts.
        ("pose-avg-bench", {"rlfs": ["cauchy", "cauchy"]}, [], "rlfs must not repeat an entry"),
        ("icp-bench", {"scene_kinds": ["semi", "semi"]}, [],
         "scene_kinds must not repeat an entry"),
        ("pose-avg-bench", {"outlier_levels": [0.2, 0.204]}, [],
         "outlier levels must map to distinct groups, got \\['outliers_20', 'outliers_20'\\]"),
        ("pose-avg-bench", [0.2], [], "expected a JSON object, got list"),
        ("icp-bench", [], [], "expected a JSON object, got list"),
    ])
    def test_bad_config_fields_are_usage_errors(self, tmp_path, command, config, extra, message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        with pytest.raises(SystemExit, match=f"^bad config: {message}"):
            main([command, "--config", str(cfg_file), *extra, "--out-dir", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["pose-avg-bench", "icp-bench"])
    @pytest.mark.parametrize("text, message", [(None, "No such file"), ('{"tau": 2', "Expecting")],
                             ids=["missing", "malformed"])
    def test_unreadable_config_file_is_a_usage_error(self, tmp_path, command, text, message):
        cfg_file = tmp_path / "cfg.json"
        if text is not None:
            cfg_file.write_text(text)
        with pytest.raises(SystemExit, match=f"^bad config: .*{message}"):
            main([command, "--config", str(cfg_file), "--out-dir", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overlap", ["1.5", "0.3", "-1", "nan"])
    def test_gen_scene_rejects_overlap_as_usage_error(self, tmp_path, capsys, overlap):
        with pytest.raises(SystemExit) as exc:
            main(["gen-scene", "--kind", "semi", "--overlap", overlap,
                  "--out-dir", str(tmp_path / "scene")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "argument --overlap:" in err and "[0.4, 1.0]" in err

    @pytest.mark.parametrize("seed", ["-1", "-20220516"])
    def test_gen_scene_rejects_negative_seed_as_usage_error(self, tmp_path, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            main(["gen-scene", "--kind", "semi", "--seed", seed,
                  "--out-dir", str(tmp_path / "scene")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "argument --seed:" in err and "at least 0" in err
        assert not (tmp_path / "scene").exists()

    @pytest.mark.parametrize("command, flag, builder", [
        ("pose-avg-bench", "--out-dir", "_pose_avg_problem"),
        ("icp-bench", "--out-dir", "_icp_problem"),
        ("icp-bench", "--trace-dir", "_icp_problem"),
    ])
    def test_bad_output_directory_is_a_usage_error_before_any_trial(
            self, tmp_path, monkeypatch, command, flag, builder):
        calls = []
        monkeypatch.setattr(bench, builder, recording_builder(calls))
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [command, "--trials", "1", "--rlf", "none"]
        for option, path in {"--out-dir": tmp_path / "out", flag: blocker}.items():
            argv += [option, str(path)]
        with pytest.raises(SystemExit, match=f"^bad {flag[2:]}: .*File exists"):
            main(argv)
        assert calls == []

    def test_missing_residual_file_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit, match="^residual file: .*No such file"):
            main(["weights", "--rlf", "welsch", "--input", str(tmp_path / "missing.txt")])

    def test_weights_out_makes_its_directory(self, tmp_path):
        res_file = tmp_path / "resid.txt"
        res_file.write_text("0.5 1.0 2.0")
        out_file = tmp_path / "nodir" / "sub" / "w.json"
        main(["weights", "--rlf", "welsch", "--input", str(res_file), "--out", str(out_file)])
        assert len(json.loads(out_file.read_text())["weights"]) == 3

    def test_weights_out_under_a_file_is_a_usage_error(self, tmp_path):
        res_file = tmp_path / "resid.txt"
        res_file.write_text("0.5 1.0 2.0")
        # a path under a file, and an existing directory
        for out in (res_file / "w.json", tmp_path):
            with pytest.raises(SystemExit, match="^bad out: "):
                main(["weights", "--rlf", "welsch", "--input", str(res_file), "--out", str(out)])

    def test_gen_scene_out_dir_that_is_a_file_is_a_usage_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(SystemExit, match="^bad out-dir: .*File exists"):
            main(["gen-scene", "--kind", "semi", "--out-dir", str(blocker)])
        assert blocker.read_text() == ""

    def test_gen_scene_accepts_full_overlap(self, tmp_path):
        main(["gen-scene", "--kind", "structured", "--overlap", "1.0", "--seed", "3",
              "--out-dir", str(tmp_path / "scene")])
        assert (tmp_path / "scene/source.csv").exists()

    def test_bench_command_with_config_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "trials_per_level": 2,
            "outlier_levels": [0.4],
            "rlfs": ["adaptive_mb"],
        }))
        main(["pose-avg-bench", "--config", str(cfg_file), "--seed", "77",
              "--out-dir", str(tmp_path / "out")])
        rows = read_csv(tmp_path / "out/trials.csv")
        assert len(rows) == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bogus_key": 1}))
        with pytest.raises(SystemExit):
            main(["pose-avg-bench", "--config", str(cfg_file), "--out-dir", str(tmp_path)])
