import numpy as np
import pytest

from rigidkit.errors import ValidationError
from rigidkit.fractal import (
    PointCloud,
    box_dimension_estimate,
    covering_number,
    rigidity_threshold,
    rigidity_threshold_check,
)


def midpoint_grid(k: int) -> np.ndarray:
    """k x k grid of cell midpoints of [0,1]^2; exact counts at dyadic scales."""
    axis = (np.arange(k) + 0.5) / k
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


class TestPointCloud:
    def test_accepts_unit_square_samples(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.25]]))
        assert cloud.dim == 2 and cloud.size == 3

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            PointCloud(np.zeros((0, 2)))

    def test_rejects_far_points(self):
        with pytest.raises(ValidationError):
            PointCloud(np.array([[1.5, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            PointCloud(np.array([[np.nan, 0.0]]))


class TestCoveringNumber:
    def test_single_point(self):
        cloud = PointCloud(np.array([[0.3, 0.4]]))
        for eps in (1.0, 0.25, 0.01):
            assert covering_number(cloud, eps) == 1

    def test_three_point_line(self):
        cloud = PointCloud(np.array([[0.0], [0.5], [1.0]]))
        assert covering_number(cloud, 0.25) == 3

    def test_uniform_grid_one_point_per_cell(self):
        cloud = PointCloud(midpoint_grid(64))
        assert covering_number(cloud, 1.0 / 64.0) == 4096

    def test_nonincreasing_in_eps(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.uniform(0, 1, size=(500, 2)))
        scales = [2.0**-k for k in range(1, 9)]
        counts = [covering_number(cloud, e) for e in scales]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_bounded_by_point_count(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(64, 2))
        cloud = PointCloud(pts)
        for eps in (0.5, 0.1, 0.01):
            assert covering_number(cloud, eps) <= cloud.size
        diffs = pts[:, None, :] - pts[None, :, :]
        gaps = np.sqrt((diffs**2).sum(-1))
        min_gap = np.min(gaps[gaps > 0])
        assert covering_number(cloud, min_gap / 2.01) == cloud.size

    def test_positive_scale_required(self):
        with pytest.raises(ValidationError):
            covering_number(PointCloud(np.array([[0.0, 0.0]])), 0.0)

    def test_scale_past_int64_cells_rejected(self):
        # floor(x / eps) leaves int64 here; the cast would wrap and merge cells
        cloud = PointCloud(np.array([[0.1, 0.2], [0.3, 0.4], [-0.5, 0.6], [0.7, -0.8]]))
        assert covering_number(cloud, 1e-10) == 4
        with pytest.raises(ValidationError, match=r"^scale 1e-25 is too fine for int64 cell indices$"):
            covering_number(cloud, 1e-25)


class TestBoxDimension:
    def test_plane_sample_slope_two(self):
        cloud = PointCloud(midpoint_grid(256))
        fit = box_dimension_estimate(cloud, [2.0**-k for k in range(3, 7)])
        assert fit["slope"] == pytest.approx(2.0, abs=0.1)
        assert fit["residual"] <= 1e-9

    def test_segment_slope_one(self):
        ts = (np.arange(4096) + 0.5) / 4096
        pts = np.stack([ts, np.full_like(ts, 0.3)], axis=1)
        fit = box_dimension_estimate(PointCloud(pts), [2.0**-k for k in range(3, 7)])
        assert fit["slope"] == pytest.approx(1.0, abs=0.1)

    def test_finite_cloud_saturates(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-0.9, 0.9, size=(50, 2))
        diffs = pts[:, None, :] - pts[None, :, :]
        gaps = np.abs(diffs).max(-1)
        min_gap = np.min(gaps[gaps > 0])
        scales = [min_gap / 4.0 / 2**k for k in range(4)]
        fit = box_dimension_estimate(PointCloud(pts), scales)
        assert abs(fit["slope"]) <= 0.1

    def test_scale_validation(self):
        cloud = PointCloud(np.array([[0.1, 0.1]]))
        with pytest.raises(ValidationError, match=r"need at least 3 scales"):
            box_dimension_estimate(cloud, [0.5, 0.25])
        with pytest.raises(ValidationError, match=r"positive and strictly decreasing"):
            box_dimension_estimate(cloud, [0.5, 0.5, 0.25])
        with pytest.raises(ValidationError, match=r"positive and strictly decreasing"):
            box_dimension_estimate(cloud, [0.5, 0.25, -0.1])

    def test_fit_json(self):
        data = box_dimension_estimate(PointCloud(midpoint_grid(32)), [0.25, 0.125, 0.0625])
        assert {"slope", "intercept", "residual", "scales", "counts"} <= set(data)
        assert data["counts"] == [16, 64, 256]


class TestThreshold:
    def test_threshold_values(self):
        assert rigidity_threshold(2, 1) == pytest.approx(1.5)
        assert rigidity_threshold(2, 9) == pytest.approx(1.9)
        assert rigidity_threshold(1, 0) == pytest.approx(0.0)

    def test_check_examples(self):
        assert rigidity_threshold_check(1.9, 2, 1)["exceeded"] is True
        assert rigidity_threshold_check(1.85, 2, 9)["exceeded"] is False
        assert rigidity_threshold_check(0.5, 1, 0)["exceeded"] is True

    def test_equality_not_exceeded(self):
        assert rigidity_threshold_check(1.5, 2, 1)["exceeded"] is False

    def test_verdict_mentions_conclusion(self):
        report = rigidity_threshold_check(1.9, 2, 1)
        assert report["threshold"] == pytest.approx(1.5)
        assert "rigid" in report["verdict"]
        silent = rigidity_threshold_check(0.3, 2, 1)
        assert "no rigidity conclusion" in silent["verdict"]
