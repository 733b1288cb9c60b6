import numpy as np
import pytest

from robls import cloud_io
from robls.icp import PointCloud
from robls.se3 import exp_map
from robls.stats import TrialRecord, percentile, success, summarize


class TestPercentile:
    def test_odd_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_even_median_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_linear_interpolation_closed_form(self):
        assert percentile(np.arange(101), 90) == pytest.approx(90.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_monotone_in_p(self, rng):
        vals = rng.standard_normal(57)
        ps = [percentile(vals, p) for p in (50, 75, 90)]
        assert ps[0] <= ps[1] <= ps[2]


class TestSuccess:
    def test_clear_improvement(self):
        assert success(np.deg2rad(1.0), 0.001, 0.0, 0.0)

    def test_one_sided_improvement_fails(self):
        assert not success(np.deg2rad(1.0), 0.001, np.deg2rad(0.5), 0.002)

    def test_exact_tie_fails(self):
        assert not success(0.1, 0.1, 0.1, 0.1)


def make_records():
    recs = []
    for trial in range(6):
        for rlf in ("alpha", "beta"):
            recs.append(
                TrialRecord(
                    group="g0",
                    trial=trial,
                    rlf=rlf,
                    seed=trial,
                    config_hash="cafe12345678",
                    prior_phi_deg=5.0,
                    prior_rho_mm=100.0,
                    phi_err_deg=float(trial),
                    rho_err_mm=float(10 * trial),
                    iterations=trial + 1,
                    converged=trial % 2 == 0,
                    success=trial < 4,
                    seconds=0.1 * trial,
                )
            )
    return recs


class TestSummaries:
    def test_percentile_monotonicity_rows(self):
        rows = summarize(make_records())
        for row in rows:
            assert row["phi_p50"] <= row["phi_p75"] <= row["phi_p90"]
            assert row["rho_p50"] <= row["rho_p75"] <= row["rho_p90"]

    def test_rates(self):
        rows = summarize(make_records())
        assert rows[0]["success_rate"] == pytest.approx(4 / 6)
        assert rows[0]["convergence_rate"] == pytest.approx(0.5)

    def test_trials_csv_round_and_order(self, tmp_path):
        path = tmp_path / "trials.csv"
        recs = make_records()[::-1]  # emit must re-sort
        cloud_io.write_trials_csv(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[:3] == ["group", "trial", "rlf"]
        trials = [int(line.split(",")[1]) for line in lines[1:]]
        assert trials == sorted(trials)
        assert all("cafe12345678" in line for line in lines[1:])


class TestCloudIo:
    def test_roundtrip_csv(self, tmp_path, rng):
        # robls has no reader; the file is read back with numpy.
        points = rng.standard_normal((20, 3)) * 1e3
        path = tmp_path / "c.csv"
        cloud_io.save_point_cloud_csv(PointCloud(points), path)
        assert path.read_text().splitlines()[0] == "x,y,z"
        again = np.loadtxt(path, delimiter=",", skiprows=1)
        assert again.shape == points.shape
        assert np.array_equal(again, [[float("%.12g" % v) for v in row] for row in points])

    def test_pose_flat_roundtrip(self, rng):
        pose = exp_map(rng.uniform(-1, 1, 6))
        flat = cloud_io.pose_to_flat(pose)
        assert all(type(v) is float for v in flat)
        assert flat == pose.rotation.ravel().tolist() + pose.translation.tolist()
