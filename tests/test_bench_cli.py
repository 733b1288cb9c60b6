import csv
import hashlib
import json

import numpy as np
import pytest

from robls import bench
from robls.adaptive import TAU_MAX, TAU_MIN
from robls.cli import main
from robls.mbfit import MAX_DOF
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
        mk = lambda threads: bench.IcpBenchConfig(
            master_seed=13, trials_per_kind=2, scene_kinds=("structured",),
            rlfs=("chebrolu",), threads=threads,
        )
        bench.run_icp_benchmark(mk(1), tmp_path / "a")
        bench.run_icp_benchmark(mk(2), tmp_path / "b")
        assert (tmp_path / "a/trials.csv").read_bytes() == (tmp_path / "b/trials.csv").read_bytes()


class TestPinnedOutputs:
    # sha256 of trials.csv and summary.csv for the default configs at a few
    # trials each, and of the ICP trace CSVs concatenated in name order.  A
    # change meant to keep every output keeps these; one that moves an
    # output on purpose states the new hash.
    @pytest.mark.parametrize("command, digests", [
        (["pose-avg-bench", "--trials", "3"], {
            "trials.csv": "ee8997b12391488f23e00239760f834f799beb8ab87b6ddb06b265a53de84c54",
            "summary.csv": "627c4683d1e96f93a1f98e38ff6b7f425fa5ea620c516b06c8b7c0b5f1a887cc",
        }),
        (["icp-bench", "--trials", "1"], {
            "trials.csv": "14e31667c2367180eb1f58692d857af9586fe6dbbf5f7a1334d7aadca70aebdb",
            "summary.csv": "7491c035bd9d6c920fce7cdcf0efea0d74c787f363dbb4ab069d4fb3916d0742",
            "traces": "0020dc9bfda842171572822cee1d3eb96966f7753806073ec666de714cf35816",
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

    def test_fit_mb_command(self, tmp_path):
        rng = np.random.default_rng(1)
        res_file = tmp_path / "resid.txt"
        np.savetxt(res_file, np.linalg.norm(rng.standard_normal((4000, 3)), axis=1))
        out_file = tmp_path / "fit.json"
        main(["fit-mb", "--input", str(res_file), "--n-e", "3", "--out", str(out_file)])
        payload = json.loads(out_file.read_text())
        assert payload["a_star"] == pytest.approx(1.0, abs=0.07)
        assert payload["mode"] == pytest.approx(np.sqrt(2.0), abs=0.1)
        assert len(payload["weights"]) == 4000

    @pytest.mark.parametrize("command", [["fit-mb"], ["weights", "--rlf", "chebrolu"]],
                             ids=["fit-mb", "weights"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-0.5"])
    def test_rejects_non_finite_or_negative_residuals(self, tmp_path, command, token):
        res_file = tmp_path / "resid.txt"
        res_file.write_text(f"0.5, 1.0\n0.7 {token}\n2.0\n")
        with pytest.raises(SystemExit, match=f"line 2: '{token}'"):
            main([*command, "--input", str(res_file)])

    @pytest.mark.parametrize("command", [["fit-mb"], ["weights", "--rlf", "adaptive_mb"]],
                             ids=["fit-mb", "weights"])
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
    @pytest.mark.parametrize("command", [["fit-mb"], *(["weights", "--rlf", k] for k in RLF_KINDS)],
                             ids=["fit-mb", *RLF_KINDS])
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
    ])
    def test_bad_config_fields_are_usage_errors(self, tmp_path, command, config, extra, message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        with pytest.raises(SystemExit, match=f"^bad config: {message}"):
            main([command, "--config", str(cfg_file), *extra, "--out-dir", str(tmp_path / "out")])
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
