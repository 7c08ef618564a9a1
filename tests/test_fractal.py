import numpy as np
import pytest

from rigidkit.errors import ValidationError
from rigidkit.fractal import box_dimension_estimate, rigidity_threshold_check


def midpoint_grid(k: int) -> np.ndarray:
    """k x k grid of cell midpoints of [0,1]^2; exact counts at dyadic scales."""
    axis = (np.arange(k) + 0.5) / k
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def counts(points, scales) -> list[int]:
    """The covering numbers ``box_dimension_estimate`` reports for ``points`` at ``scales``."""
    return box_dimension_estimate(points, scales)["counts"]


class TestPointChecks:
    def test_accepts_unit_square_samples(self):
        fit = box_dimension_estimate(np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.25]]), [1.0, 0.5, 0.25])
        assert fit["diagnostics"]["n_points"] == 3 and len(fit["counts"]) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match=r"^point cloud must be nonempty$"):
            box_dimension_estimate(np.zeros((0, 2)), [0.5, 0.25, 0.125])

    def test_rejects_far_points(self):
        with pytest.raises(ValidationError, match=r"^points must lie in the unit max-norm ball$"):
            box_dimension_estimate(np.array([[1.5, 0.0]]), [0.5, 0.25, 0.125])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError, match=r"^points must be finite$"):
            box_dimension_estimate(np.array([[np.nan, 0.0]]), [0.5, 0.25, 0.125])

    def test_rejects_non_matrix(self):
        with pytest.raises(ValidationError, match=r"^points must be a \(k, n\) array, got shape \(1, 2, 2\)$"):
            box_dimension_estimate(np.zeros((1, 2, 2)), [0.5, 0.25, 0.125])

    def test_points_checked_before_scales(self):
        with pytest.raises(ValidationError, match=r"^points must be finite$"):
            box_dimension_estimate(np.array([[np.nan, 0.0]]), [0.5])


class TestCellCounts:
    def test_single_point(self):
        assert counts(np.array([[0.3, 0.4]]), [1.0, 0.25, 0.01]) == [1, 1, 1]

    def test_three_point_line(self):
        assert counts(np.array([[0.0], [0.5], [1.0]]), [1.0, 0.5, 0.25]) == [2, 3, 3]

    def test_uniform_grid_one_point_per_cell(self):
        assert counts(midpoint_grid(64), [1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0]) == [256, 1024, 4096]

    def test_nonincreasing_in_eps(self):
        rng = np.random.default_rng(3)
        found = counts(rng.uniform(0, 1, size=(500, 2)), [2.0**-k for k in range(1, 9)])
        assert all(a <= b for a, b in zip(found, found[1:]))

    def test_bounded_by_point_count(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(64, 2))
        diffs = pts[:, None, :] - pts[None, :, :]
        gaps = np.sqrt((diffs**2).sum(-1))
        fine = np.min(gaps[gaps > 0]) / 2.01
        scales = sorted({0.5, 0.1, 0.01, fine}, reverse=True)
        found = dict(zip(scales, counts(pts, scales)))
        assert max(found.values()) <= len(pts)
        assert found[fine] == len(pts)

    def test_positive_scale_required(self):
        with pytest.raises(ValidationError, match=r"positive and strictly decreasing"):
            box_dimension_estimate(np.array([[0.0, 0.0]]), [0.5, 0.25, 0.0])

    def test_scale_past_int64_cells_rejected(self):
        # floor(x / eps) leaves int64 at 1e-25; the cast would wrap and merge cells
        pts = np.array([[0.1, 0.2], [0.3, 0.4], [-0.5, 0.6], [0.7, -0.8]])
        assert counts(pts, [1e-8, 1e-9, 1e-10]) == [4, 4, 4]
        with pytest.raises(ValidationError, match=r"^scale 1e-25 is too fine for int64 cell indices$"):
            box_dimension_estimate(pts, [1e-10, 1e-18, 1e-25])


class TestBoxDimension:
    def test_plane_sample_slope_two(self):
        fit = box_dimension_estimate(midpoint_grid(256), [2.0**-k for k in range(3, 7)])
        assert fit["slope"] == pytest.approx(2.0, abs=0.1)
        assert fit["residual"] <= 1e-9

    def test_segment_slope_one(self):
        ts = (np.arange(4096) + 0.5) / 4096
        pts = np.stack([ts, np.full_like(ts, 0.3)], axis=1)
        fit = box_dimension_estimate(pts, [2.0**-k for k in range(3, 7)])
        assert fit["slope"] == pytest.approx(1.0, abs=0.1)

    def test_finite_cloud_saturates(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-0.9, 0.9, size=(50, 2))
        diffs = pts[:, None, :] - pts[None, :, :]
        gaps = np.abs(diffs).max(-1)
        min_gap = np.min(gaps[gaps > 0])
        scales = [min_gap / 4.0 / 2**k for k in range(4)]
        fit = box_dimension_estimate(pts, scales)
        assert abs(fit["slope"]) <= 0.1

    def test_scale_validation(self):
        cloud = np.array([[0.1, 0.1]])
        with pytest.raises(ValidationError, match=r"need at least 3 scales"):
            box_dimension_estimate(cloud, [0.5, 0.25])
        with pytest.raises(ValidationError, match=r"positive and strictly decreasing"):
            box_dimension_estimate(cloud, [0.5, 0.5, 0.25])
        with pytest.raises(ValidationError, match=r"positive and strictly decreasing"):
            box_dimension_estimate(cloud, [0.5, 0.25, -0.1])

    def test_fit_json(self):
        data = box_dimension_estimate(midpoint_grid(32), [0.25, 0.125, 0.0625])
        assert {"slope", "intercept", "residual", "scales", "counts"} <= set(data)
        assert data["counts"] == [16, 64, 256]


class TestThreshold:
    def test_threshold_values(self):
        assert rigidity_threshold_check(1.0, 2, 1)["threshold"] == pytest.approx(1.5)
        assert rigidity_threshold_check(1.0, 2, 9)["threshold"] == pytest.approx(1.9)
        assert rigidity_threshold_check(1.0, 1, 0)["threshold"] == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "n, d, message", [(0, 1, "ambient dimension must be >= 1, got 0"), (2, -1, "degree must be >= 0, got -1")]
    )
    def test_dimension_and_degree_refused(self, n, d, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            rigidity_threshold_check(1.0, n, d)

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
