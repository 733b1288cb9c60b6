import numpy as np
import pytest

from robls.icp import estimate_normals, voxel_downsample
from robls.scenes import SCENE_KINDS, generate_scene


def measure_overlap(source, target, t_gt, radius):
    """Fraction of source points with a target point within ``radius`` at
    the true alignment."""
    d, _ = target.tree.query(t_gt.apply(source.points), distance_upper_bound=radius)
    return float(np.mean(np.isfinite(d)))


class TestGenerateScene:
    def test_full_overlap(self):
        src, tgt, t_gt = generate_scene("structured", 1.0, seed=1)
        ds = voxel_downsample(src, 0.1)
        dt = voxel_downsample(tgt, 0.1)
        assert measure_overlap(ds, dt, t_gt, 0.2) > 0.95

    @pytest.mark.parametrize("kind", SCENE_KINDS)
    @pytest.mark.parametrize("overlap", [0.45, 0.6, 0.8])
    def test_measured_overlap_tracks_request(self, kind, overlap):
        vals = []
        for seed in range(3):
            src, tgt, t_gt = generate_scene(kind, overlap, seed=seed)
            ds = voxel_downsample(src, 0.1)
            dt = voxel_downsample(tgt, 0.1)
            vals.append(measure_overlap(ds, dt, t_gt, 0.2))
        assert abs(np.mean(vals) - overlap) <= 0.05

    def test_structured_has_multiple_plane_orientations(self):
        src, tgt, _ = generate_scene("structured", 0.8, seed=2)
        cloud = estimate_normals(voxel_downsample(tgt, 0.1), 15)
        normals = cloud.normals[np.any(cloud.normals != 0.0, axis=1)]
        # cluster normals against the cardinal axes; at least two distinct
        # non-parallel planes must be heavily populated
        axes = np.eye(3)
        counts = [
            np.mean(np.abs(normals @ axis) > 0.95) for axis in axes
        ]
        assert sum(c > 0.05 for c in counts) >= 2

    def test_deterministic(self):
        a = generate_scene("semi", 0.6, seed=7)
        b = generate_scene("semi", 0.6, seed=7)
        assert np.array_equal(a[0].points, b[0].points)
        assert np.array_equal(a[1].points, b[1].points)
        assert np.array_equal(a[2].matrix(), b[2].matrix())

    def test_invalid_kind_and_overlap(self):
        with pytest.raises(ValueError):
            generate_scene("urban", 0.5, seed=0)
        with pytest.raises(ValueError):
            generate_scene("semi", 0.2, seed=0)

    @pytest.mark.parametrize("kind", SCENE_KINDS)
    def test_reasonable_point_budget(self, kind):
        src, tgt, _ = generate_scene(kind, 0.6, seed=5)
        assert 2000 <= len(src) <= 25_000
        assert 2000 <= len(tgt) <= 25_000
