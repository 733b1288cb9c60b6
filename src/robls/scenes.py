"""Synthetic scene-pair generation for the alignment benchmark.

Each scene is a strip of world along +x sampled twice: the target sensor
sees the window ``[0, w]`` and the source sensor a window slid along x so
that the shared fraction equals the requested overlap (surface density is
uniform along x, so point-wise overlap tracks the window overlap).  Three
scene kinds mirror structured / semi-structured / unstructured
environments:

- ``structured``: a staircase (treads + risers) with a side wall,
- ``semi``: a rough ground surface (random low-frequency relief) with rocks,
- ``unstructured``: scattered volumetric blobs (canopy-like).

Both clouds are returned in their own sensor frames together with the
ground-truth transform mapping source coordinates into the target frame.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .icp import PointCloud
from .se3 import Pose, so3_exp

__all__ = ["SCENE_KINDS", "OVERLAP_MIN", "OVERLAP_MAX", "check_overlap", "generate_scene"]

SCENE_KINDS = ("structured", "semi", "unstructured")
OVERLAP_MIN, OVERLAP_MAX = 0.4, 1.0  # accepted shared fraction of the two views

WINDOW = 6.0         # window length along x [m]
WIDTH = 4.0          # strip width along y [m]
DENSITY = 240.0      # surface sampling density [pts / m^2]
POINT_NOISE = 0.03       # white per-point sensor noise [m]

# Per-view smooth distortion field: a proxy for everything that makes two
# real scans of the same surface disagree at the voxel scale (viewpoint-
# dependent sampling, incidence angle, occlusion fringes, calibration).
# White noise is averaged away by voxel centroids; this is not.
WARP_COMPONENTS = 4
WARP_AMP = (0.012, 0.03)        # per-component amplitude range [m]
WARP_WAVELENGTH = (0.4, 1.2)    # spatial wavelength range [m]
SENSOR_HEIGHT = 1.8
MAX_YAW = np.deg2rad(12.0)

STEP_DEPTH = 0.8     # staircase tread depth [m]
STEP_RISE = 0.3      # staircase riser height [m]
WALL_HEIGHT = 1.5


def _sample_structured(rng, crates, x_lo, x_hi):
    """Staircase treads/risers, a side wall, crates, and sparse clutter."""
    span = x_hi - x_lo
    pts = []

    n_tread = int(DENSITY * span * WIDTH)
    x = rng.uniform(x_lo, x_hi, n_tread)
    y = rng.uniform(-WIDTH / 2, WIDTH / 2, n_tread)
    z = STEP_RISE * np.floor(x / STEP_DEPTH)
    pts.append(np.column_stack([x, y, z]))

    k_lo, k_hi = int(np.ceil(x_lo / STEP_DEPTH)), int(np.floor(x_hi / STEP_DEPTH))
    n_riser = int(DENSITY * WIDTH * STEP_RISE)
    for k in range(k_lo, k_hi + 1):
        xr = np.full(n_riser, k * STEP_DEPTH)
        yr = rng.uniform(-WIDTH / 2, WIDTH / 2, n_riser)
        zr = STEP_RISE * (k - 1) + rng.uniform(0.0, STEP_RISE, n_riser)
        pts.append(np.column_stack([xr, yr, zr]))

    n_wall = int(DENSITY * span * WALL_HEIGHT)
    xw = rng.uniform(x_lo, x_hi, n_wall)
    zw = STEP_RISE * np.floor(xw / STEP_DEPTH) + rng.uniform(0.0, WALL_HEIGHT, n_wall)
    pts.append(np.column_stack([xw, np.full(n_wall, -WIDTH / 2), zw]))

    # crates break the staircase's translation periodicity
    for cx, cy, side in crates:
        base = STEP_RISE * np.floor(cx / STEP_DEPTH)
        n_face = max(6, int(DENSITY * side * side))
        top = np.column_stack(
            [
                rng.uniform(cx - side / 2, cx + side / 2, n_face),
                rng.uniform(cy - side / 2, cy + side / 2, n_face),
                np.full(n_face, base + side),
            ]
        )
        pts.append(top)
        for sx, sy in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            face = np.column_stack(
                [
                    np.full(n_face, cx + sx * side / 2)
                    if sx
                    else rng.uniform(cx - side / 2, cx + side / 2, n_face),
                    np.full(n_face, cy + sy * side / 2)
                    if sy
                    else rng.uniform(cy - side / 2, cy + side / 2, n_face),
                    base + rng.uniform(0.0, side, n_face),
                ]
            )
            pts.append(face)

    n_clutter = int(0.03 * n_tread)
    xc = rng.uniform(x_lo, x_hi, n_clutter)
    yc = rng.uniform(-WIDTH / 2, WIDTH / 2, n_clutter)
    zc = STEP_RISE * np.floor(xc / STEP_DEPTH) + rng.uniform(0.0, 2.0, n_clutter)
    pts.append(np.column_stack([xc, yc, zc]))
    out = np.vstack(pts)
    return out[(out[:, 0] >= x_lo) & (out[:, 0] <= x_hi)]


class _Relief:
    """Smooth random ground relief: a small sum of plane waves."""

    def __init__(self, rng):
        n = 6
        self.amp = rng.uniform(0.08, 0.2, n)
        wavelength = rng.uniform(2.0, 5.0, n)
        heading = rng.uniform(0.0, np.pi, n)
        self.kx = 2 * np.pi * np.cos(heading) / wavelength
        self.ky = 2 * np.pi * np.sin(heading) / wavelength
        self.phase = rng.uniform(0.0, 2 * np.pi, n)

    def height(self, x, y):
        return np.sum(
            self.amp * np.sin(np.outer(x, self.kx) + np.outer(y, self.ky) + self.phase),
            axis=1,
        )


def _sample_semi(rng, relief, rocks, ridges, x_lo, x_hi):
    span = x_hi - x_lo
    n_ground = int(DENSITY * span * WIDTH)
    x = rng.uniform(x_lo, x_hi, n_ground)
    y = rng.uniform(-WIDTH / 2, WIDTH / 2, n_ground)
    z = relief.height(x, y)
    for cx, heading, height, halfw in ridges:
        # signed distance to the ridge line through (cx, 0)
        d = (x - cx) * np.cos(heading) + y * np.sin(heading)
        z = z + height * np.maximum(0.0, 1.0 - np.abs(d) / halfw)
    pts = [np.column_stack([x, y, z])]

    for cx, cy, radius in rocks:
        if not (x_lo - 3 * radius <= cx <= x_hi + 3 * radius):
            continue
        n_rock = max(12, int(2.0 * DENSITY * np.pi * radius**2))
        offset = rng.standard_normal((n_rock, 3)) * radius * 0.5
        base = relief.height(np.array([cx]), np.array([cy]))[0]
        pts.append(offset + np.array([cx, cy, base + 0.6 * radius]))
    out = np.vstack(pts)
    # hard window cut so the non-shared region has no cross-window matches
    return out[(out[:, 0] >= x_lo) & (out[:, 0] <= x_hi)]


def _sample_unstructured(rng, blobs, x_lo, x_hi):
    pts = []
    for cx, cy, cz, sigma in blobs:
        if not (x_lo - 3 * sigma <= cx <= x_hi + 3 * sigma):
            continue
        n_blob = 170
        pts.append(rng.standard_normal((n_blob, 3)) * sigma + np.array([cx, cy, cz]))
    out = np.vstack(pts)
    return out[(out[:, 0] >= x_lo) & (out[:, 0] <= x_hi)]


def check_overlap(overlap: float) -> None:
    """Raise ``ValueError`` unless ``OVERLAP_MIN <= overlap <= OVERLAP_MAX``."""
    if not OVERLAP_MIN <= overlap <= OVERLAP_MAX:
        raise ValueError(f"overlap must lie in [{OVERLAP_MIN}, {OVERLAP_MAX}], got {overlap}")


def generate_scene(kind: str, overlap: float, seed: int) -> tuple[PointCloud, PointCloud, Pose]:
    """Source/target clouds in their sensor frames plus the true transform.

    ``overlap`` is the requested shared fraction of the viewing windows,
    between ``OVERLAP_MIN`` = 0.4 and ``OVERLAP_MAX`` = 1.0.
    """
    if kind not in SCENE_KINDS:
        raise ValueError(f"unknown scene kind {kind!r}; expected one of {SCENE_KINDS}")
    check_overlap(overlap)

    rng = np.random.default_rng(seed)
    offset = (1.0 - overlap) * WINDOW
    x_max = offset + WINDOW

    # World features shared by both views, and the sampler of one view.
    if kind == "structured":
        n_crates = int(np.ceil(0.7 * x_max))
        crates = [
            (
                rng.uniform(0.0, x_max),
                rng.uniform(-WIDTH / 2 + 0.6, WIDTH / 2 - 0.3),
                rng.uniform(0.3, 0.6),
            )
            for _ in range(n_crates)
        ]
        sample = partial(_sample_structured, rng, crates)
    elif kind == "semi":
        relief = _Relief(rng)
        n_rocks = int(np.ceil(3.5 * x_max))  # uniform count per meter of strip
        rocks = [
            (rng.uniform(0.0, x_max), rng.uniform(-WIDTH / 2, WIDTH / 2), rng.uniform(0.15, 0.4))
            for _ in range(n_rocks)
        ]
        n_ridges = max(2, int(round(0.35 * x_max)))
        ridges = [
            (
                rng.uniform(0.0, x_max),            # crossing point on the centerline
                rng.uniform(-np.pi / 3, np.pi / 3), # heading relative to +y
                rng.uniform(0.25, 0.55),            # height [m]
                rng.uniform(0.4, 0.9),              # half-width [m]
            )
            for _ in range(n_ridges)
        ]
        sample = partial(_sample_semi, rng, relief, rocks, ridges)
    else:
        n_cols = int(np.ceil(4.0 * x_max))
        blobs = []
        for i in range(n_cols):  # jittered x-grid keeps density uniform along x
            for _ in range(5):
                blobs.append(
                    (
                        (i + rng.uniform(0.0, 1.0)) * x_max / n_cols,
                        rng.uniform(-WIDTH / 2, WIDTH / 2),
                        rng.uniform(0.2, 2.0),
                        rng.uniform(0.06, 0.15),
                    )
                )
        sample = partial(_sample_unstructured, rng, blobs)

    def add_noise(pts):
        rng.random(len(pts))  # unused, but part of the stream every scene is drawn from
        return pts + POINT_NOISE * rng.standard_normal(pts.shape)

    def warp(pts):
        out = pts.copy()
        for _ in range(WARP_COMPONENTS):
            amp = rng.uniform(*WARP_AMP)
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            wavevec = rng.standard_normal(3)
            wavevec *= 2 * np.pi / (rng.uniform(*WARP_WAVELENGTH) * np.linalg.norm(wavevec))
            phase = rng.uniform(0.0, 2 * np.pi)
            out += amp * np.sin(pts @ wavevec + phase)[:, None] * direction
        return out

    target_origin = np.array([WINDOW / 2, 0.0, SENSOR_HEIGHT])
    source_origin = np.array([offset + WINDOW / 2, 0.0, SENSOR_HEIGHT])

    def view(x_lo, x_hi):
        pts = add_noise(warp(sample(x_lo, x_hi)))
        # re-cut after warping so the windows stay sharp
        return pts[(pts[:, 0] >= x_lo) & (pts[:, 0] <= x_hi)]

    target_world = view(0.0, WINDOW)
    source_world = view(offset, offset + WINDOW)
    yaw = rng.uniform(-MAX_YAW, MAX_YAW)
    source_rot = so3_exp(np.array([0.0, 0.0, yaw]))

    target = PointCloud(target_world - target_origin)
    source = PointCloud((source_world - source_origin) @ source_rot)  # = R^T (p - c)
    t_gt = Pose(source_rot, source_origin - target_origin)
    return source, target, t_gt
