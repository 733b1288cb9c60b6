import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robls import cloud_io
from robls.icp import PointCloud
from robls.pose_avg import PoseMeasurement, default_measurement_cov
from robls.se3 import exp_map
from robls.stats import TrialRecord, percentile, success, summarize

from conftest import PROPERTY


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
                    phi_err_deg=float(trial),
                    rho_err_mm=float(10 * trial),
                    prior_phi_deg=5.0,
                    prior_rho_mm=100.0,
                    iterations=trial + 1,
                    converged=trial % 2 == 0,
                    succeeded=trial < 4,
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
        cloud_io.write_trials_csv(recs, "cafe12345678", path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[:3] == ["group", "trial", "rlf"]
        trials = [int(line.split(",")[1]) for line in lines[1:]]
        assert trials == sorted(trials)
        assert all("cafe12345678" in line for line in lines[1:])


class TestCloudIo:
    def test_csv_three_columns(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x,y,z\n0,0,0\n1,2,3\n4,5,6\n-1,0.5,2\n7,8,9\n")
        cloud = cloud_io.load_point_cloud(path)
        assert len(cloud) == 5 and cloud.normals is None

    def test_csv_six_columns_populates_normals(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0,0,0,0,0,1\n1,2,3,0,1,0\n")
        cloud = cloud_io.load_point_cloud(path)
        assert cloud.normals is not None and len(cloud) == 2

    def test_csv_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0,0,0\n1,oops,3\n")
        with pytest.raises(ValueError, match=":2"):
            cloud_io.load_point_cloud(path)

    def test_roundtrip_csv(self, tmp_path, rng):
        cloud = PointCloud(rng.standard_normal((20, 3)))
        path = tmp_path / "c.csv"
        cloud_io.save_point_cloud_csv(cloud, path)
        again = cloud_io.load_point_cloud(path)
        assert np.allclose(again.points, cloud.points, atol=1e-10)

    def test_ply_ascii(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 2 3\n"
        )
        cloud = cloud_io.load_point_cloud(path)
        assert len(cloud) == 2

    def test_ply_binary_rejected(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        )
        with pytest.raises(ValueError, match="encoding"):
            cloud_io.load_point_cloud(path)

    def test_ply_unknown_property_named(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float intensity\nend_header\n0 0 0 5\n"
        )
        with pytest.raises(ValueError, match="intensity"):
            cloud_io.load_point_cloud(path)

    def test_pose_flat_roundtrip(self, rng):
        pose = exp_map(rng.uniform(-1, 1, 6))
        again = cloud_io.pose_from_flat(cloud_io.pose_to_flat(pose))
        assert np.allclose(again.matrix(), pose.matrix())

    def test_measurements_json_roundtrip(self, tmp_path, rng):
        meas = [
            PoseMeasurement(exp_map(rng.uniform(-0.5, 0.5, 6)), default_measurement_cov())
            for _ in range(4)
        ]
        init = exp_map(rng.uniform(-0.5, 0.5, 6))
        path = tmp_path / "m.json"
        cloud_io.save_measurements_json(meas, init, path)
        loaded, init2 = cloud_io.load_measurements_json(path)
        assert len(loaded) == 4
        assert np.allclose(init2.matrix(), init.matrix())
        for a, b in zip(meas, loaded):
            assert np.allclose(a.pose.matrix(), b.pose.matrix())
            assert np.allclose(a.cov, b.cov)


PLY_XYZ = "property float x\nproperty float y\nproperty float z\n"


class TestReaderRejections:
    @pytest.mark.parametrize(
        "header_line", ["format", "element", "element vertex"]
    )
    def test_ply_truncated_header_line(self, tmp_path, header_line):
        lines = ["ply", "format ascii 1.0", "element vertex 1"]
        lines[1 if header_line == "format" else 2] = header_line
        path = tmp_path / "c.ply"
        path.write_text("\n".join(lines) + "\n" + PLY_XYZ + "end_header\n0 0 0\n")
        lineno = 2 if header_line == "format" else 3
        with pytest.raises(ValueError, match=f"c.ply:{lineno}:"):
            cloud_io.load_point_cloud(path)

    def test_ply_zero_vertices(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 0\n" + PLY_XYZ + "end_header\n")
        with pytest.raises(ValueError, match="c.ply: no points"):
            cloud_io.load_point_cloud(path)

    def test_ply_repeated_property(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n" + PLY_XYZ
            + "property float x\nend_header\n0 0 0 1\n"
        )
        with pytest.raises(ValueError, match="c.ply:7: repeated PLY property 'x'"):
            cloud_io.load_point_cloud(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_csv_non_finite(self, tmp_path, value):
        path = tmp_path / "c.csv"
        path.write_text(f"x,y,z\n0,0,0\n{value},1,2\n")
        with pytest.raises(ValueError, match="c.csv:3: non-finite"):
            cloud_io.load_point_cloud(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_ply_non_finite(self, tmp_path, value):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n" + PLY_XYZ
            + f"end_header\n0 0 0\n1 {value} 2\n"
        )
        with pytest.raises(ValueError, match="c.ply:9: non-finite"):
            cloud_io.load_point_cloud(path)

    @pytest.fixture
    def payload(self):
        meas = [PoseMeasurement(exp_map(np.full(6, 0.1)), default_measurement_cov())]
        return {
            "init": cloud_io.pose_to_flat(exp_map(np.zeros(6))),
            "measurements": [
                {"pose": cloud_io.pose_to_flat(m.pose), "cov": m.cov.ravel().tolist()}
                for m in meas
            ],
        }

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("init"),
            lambda p: p.pop("measurements"),
            lambda p: p["measurements"][0].pop("cov"),
            lambda p: p["measurements"][0].update(pose=p["init"][:11]),
            lambda p: p["measurements"][0].update(cov=[[1.0] * 6] * 5),
            lambda p: p["measurements"][0].update(cov={"a": 1}),
            lambda p: p.update(init=None),
            lambda p: p.update(measurements=[1.0]),
            lambda p: p.update(measurements=[]),
            lambda p: p["measurements"][0]["pose"].__setitem__(9, float("nan")),
        ],
        ids=["no-init", "no-measurements", "no-cov", "short-pose", "cov-shape",
             "cov-dict", "init-null", "entry-number", "empty", "nan-pose"],
    )
    def test_measurements_json_malformed(self, tmp_path, payload, mutate):
        mutate(payload)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="m.json"):
            cloud_io.load_measurements_json(path)


def load_or_value_error(load, suffix, data):
    """``load`` on a file holding ``data``; None where it raised ValueError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data)
        try:
            return load(path)
        except ValueError:
            return None


def assert_finite_cloud(cloud):
    if cloud is not None:
        assert len(cloud) > 0 and np.all(np.isfinite(cloud.points))
        assert cloud.normals is None or np.all(np.isfinite(cloud.normals))


FINITE_TOKENS = st.floats(-1e6, 1e6).map(repr) | st.integers(-10**6, 10**6).map(str)
BAD_TOKENS = st.floats().map(repr) | st.sampled_from(
    ["nan", "inf", "-inf", "1e999", "", " ", "x", "1,2", "0x1"]
)
TOKENS = st.one_of(FINITE_TOKENS, FINITE_TOKENS, FINITE_TOKENS, BAD_TOKENS)
CSV_ROWS = st.one_of(
    st.lists(TOKENS, min_size=3, max_size=3),
    st.lists(TOKENS, min_size=6, max_size=6),
    st.lists(TOKENS, max_size=7),
).map(",".join)
CSV_TEXT = st.lists(CSV_ROWS, max_size=6).map("\n".join)
PLY_LINES = st.sampled_from(
    ["ply", "format ascii 1.0", "format binary_little_endian 1.0", "format",
     "element vertex 1", "element vertex 0", "element vertex -1", "element vertex",
     "element face 1", "element", "property float x", "property float nx",
     "property float intensity", "property", "comment hi", "end_header", ""]
) | st.lists(TOKENS, max_size=4).map(" ".join)


@st.composite
def ply_texts(draw):
    """A well-formed ASCII PLY file with up to two lines replaced or inserted."""
    props = draw(st.sampled_from([("x", "y", "z"), ("z", "x", "y"), ("x", "y", "z", "nx", "ny", "nz")]))
    rows = draw(st.lists(st.lists(TOKENS, min_size=len(props), max_size=len(props)), max_size=3))
    lines = (
        ["ply", "format ascii 1.0", f"element vertex {len(rows)}"]
        + [f"property float {p}" for p in props]
        + ["end_header"]
        + [" ".join(r) for r in rows]
    )
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(PLY_LINES)]
    return "\n".join(lines) + "\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=13) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=40,
)
BAD_FIELDS = JSON_VALUES | st.lists(
    st.floats(-2.0, 2.0) | st.just(float("nan")), min_size=11, max_size=37
)


@st.composite
def measurement_payloads(draw):
    """A valid measurement file with up to two keys dropped or replaced."""
    pose = cloud_io.pose_to_flat(exp_map(np.full(6, 0.1)))
    cov = default_measurement_cov().ravel().tolist()
    entries = [{"pose": pose, "cov": cov} for _ in range(draw(st.integers(0, 3)))]
    payload = {"init": pose, "measurements": entries}
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        holder = draw(st.sampled_from([payload] + entries))
        if not holder:
            continue
        key = draw(st.sampled_from(sorted(holder)))
        if draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = draw(BAD_FIELDS)
    return json.dumps(payload)


class TestReaderFuzz:
    # Whatever a file holds, a reader returns finite data or raises ValueError.
    @PROPERTY
    @given(data=st.one_of(CSV_TEXT, CSV_TEXT, st.text(), st.binary()))
    def test_csv(self, data):
        assert_finite_cloud(load_or_value_error(cloud_io.load_point_cloud, ".csv", data))

    @PROPERTY
    @given(data=st.one_of(ply_texts(), ply_texts(), st.text(), st.binary()))
    def test_ply(self, data):
        assert_finite_cloud(load_or_value_error(cloud_io.load_point_cloud, ".ply", data))

    @PROPERTY
    @given(
        data=st.one_of(
            measurement_payloads(), measurement_payloads(), JSON_VALUES.map(json.dumps),
            st.text(), st.binary(),
        )
    )
    def test_measurements_json(self, data):
        out = load_or_value_error(cloud_io.load_measurements_json, ".json", data)
        if out is not None:
            measurements, init = out
            assert measurements and np.all(np.isfinite(init.matrix()))
            for m in measurements:
                assert np.all(np.isfinite(m.pose.matrix())) and np.all(np.isfinite(m.cov))
