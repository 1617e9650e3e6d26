import math

import numpy as np
import pytest

from learnedbp.errors import ConfigError
from learnedbp.geometry import (
    DetectorArray,
    ImageGrid,
    Scenario,
    TimeGrid,
    directivity_factors,
    make_detectors,
    make_scenario,
)


class TestImageGrid:
    def test_pixel_centers_formula(self):
        grid = ImageGrid(n=4, extent=1.0)
        h = 2.0 / 4
        centers = grid.pixel_centers()
        for i in range(4):
            for j in range(4):
                assert centers[i, j, 0] == pytest.approx(-1.0 + (j + 0.5) * h)
                assert centers[i, j, 1] == pytest.approx(1.0 - (i + 0.5) * h)

    def test_centers_strictly_inside(self):
        grid = ImageGrid(n=7, extent=2.5)
        centers = grid.pixel_centers()
        assert np.all(np.abs(centers) < grid.extent)

    def test_index_center_roundtrip(self):
        grid = ImageGrid(n=9, extent=1.0)
        for i in (0, 3, 8):
            for j in (0, 5, 8):
                assert grid.nearest_index(grid.center_of(i, j)) == (i, j)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            ImageGrid(n=1)
        for extent in (0.0, math.inf, math.nan):
            with pytest.raises(ConfigError):
                ImageGrid(n=8, extent=extent)

    def test_spacing(self):
        assert ImageGrid(n=10, extent=1.0).spacing == pytest.approx(0.2)


class TestTimeGrid:
    def test_samples_exclude_zero(self):
        tg = TimeGrid(n_t=5, t_final=1.0)
        samples = tg.samples()
        assert samples[0] == pytest.approx(0.2)
        assert np.all(samples > 0)
        assert samples[-1] == pytest.approx(1.0)

    def test_samples_formula(self):
        tg = TimeGrid(n_t=400, t_final=3.0)
        samples = tg.samples()
        np.testing.assert_allclose(samples, np.arange(1, 401) * (3.0 / 400), rtol=0, atol=0)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            TimeGrid(n_t=1, t_final=1.0)
        for t_final in (0.0, math.inf, math.nan):
            with pytest.raises(ConfigError):
                TimeGrid(n_t=10, t_final=t_final)


class TestMakeDetectors:
    def test_full_circle_20(self):
        det = make_detectors("B_sparse", 20, 1.0)
        assert det.n_s == 20
        angles = np.arctan2(det.positions[:, 1], det.positions[:, 0])
        gaps = np.diff(np.unwrap(angles))
        np.testing.assert_allclose(gaps, 2 * math.pi / 20, rtol=1e-12)
        assert det.arc_weight == pytest.approx(2 * math.pi / 20)

    def test_half_circle_100(self):
        det = make_detectors("A_limited_view", 100, 1.0)
        assert det.n_s == 100
        # left half circle: x <= 0 for every detector
        assert np.all(det.positions[:, 0] <= 1e-12)
        assert det.arc_weight == pytest.approx(math.pi / 100)

    def test_single_detector_full_circle(self):
        det = make_detectors("B_sparse", 1, 2.0)
        np.testing.assert_allclose(det.positions[0], [2.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(det.normals[0], [1.0, 0.0], atol=1e-15)
        assert det.arc_weight == pytest.approx(4 * math.pi)

    def test_positions_on_circle(self):
        for label, n_s in (("B_sparse", 17), ("A_limited_view", 33), ("custom", 5)):
            det = make_detectors(label, n_s, 2.0)
            np.testing.assert_allclose(np.linalg.norm(det.positions, axis=1), 2.0, rtol=1e-12)
            np.testing.assert_allclose(det.normals, det.positions / 2.0, atol=1e-14)

    def test_full_circle_arc_weights_sum(self):
        for n_s in (1, 7, 64):
            det = make_detectors("B_sparse", n_s, 1.5)
            assert n_s * det.arc_weight == pytest.approx(2 * math.pi * 1.5, rel=1e-14)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            make_detectors("B_sparse", 0, 1.0)
        for radius in (-1.0, math.inf):
            with pytest.raises(ConfigError):
                make_detectors("B_sparse", 10, radius)
        with pytest.raises(ConfigError):
            make_detectors("custom", 10, 1.0, 0.5, math.inf)
        with pytest.raises(ConfigError):
            make_detectors("no_such_label", 10, 1.0)

    def test_positions_pairwise_distinct(self):
        det = make_detectors("C_limited_sparse", 20, 1.0)
        diffs = det.positions[:, None, :] - det.positions[None, :, :]
        dists = np.linalg.norm(diffs, axis=2)
        assert np.all(dists[~np.eye(20, dtype=bool)] > 0)


def directivity(normal, ray):
    return directivity_factors(normal[None, :], ray[None, :])[0, 0]


class TestDirectivity:
    def test_head_on(self):
        # ray antiparallel to the outward normal: alpha = 0
        assert directivity(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == pytest.approx(1.0)

    def test_sixty_degrees(self):
        normal = np.array([1.0, 0.0])
        ray = np.array([-math.cos(math.pi / 3), math.sin(math.pi / 3)])
        assert directivity(normal, ray) == pytest.approx(0.25)

    def test_behind_detector(self):
        normal = np.array([1.0, 0.0])
        alpha = 3 * math.pi / 4
        ray = np.array([-math.cos(alpha), math.sin(alpha)])
        assert directivity(normal, ray) == 0.0

    def test_reflection_symmetry(self):
        normal = np.array([0.0, 1.0])
        rng = np.random.default_rng(11)
        for alpha in rng.uniform(0, math.pi, size=20):
            ray_plus = np.array([math.sin(alpha), -math.cos(alpha)])
            ray_minus = np.array([-math.sin(alpha), -math.cos(alpha)])
            assert directivity(normal, ray_plus) == pytest.approx(directivity(normal, ray_minus), abs=1e-15)

    def test_continuous_at_quarter_turn(self):
        normal = np.array([1.0, 0.0])
        eps = 1e-7
        just_inside = np.array([-math.cos(math.pi / 2 - eps), math.sin(math.pi / 2 - eps)])
        just_outside = np.array([-math.cos(math.pi / 2 + eps), math.sin(math.pi / 2 + eps)])
        assert directivity(normal, just_inside) < 1e-10
        assert directivity(normal, just_outside) == 0.0


class TestScenario:
    def test_make_scenario_defaults(self):
        sc = make_scenario("A_limited_view")
        assert sc.grid.n == 256
        assert sc.detectors.n_s == 100
        assert sc.time.n_t == 400
        assert sc.time.t_final == 3.0
        assert sc.detectors.radius == 1.0
        assert sc.directivity_enabled

    def test_sparse_default_count(self):
        assert make_scenario("B_sparse").detectors.n_s == 20
        assert make_scenario("C_limited_sparse").detectors.n_s == 20

    def test_label_consistency_enforced(self):
        grid = ImageGrid(n=16)
        time = TimeGrid(n_t=10, t_final=3.0)
        full = make_detectors("B_sparse", 8, 1.0)
        with pytest.raises(ConfigError):
            Scenario(grid=grid, detectors=full, time=time, label="A_limited_view")

    def test_rejects_bad_sound_speed(self):
        grid = ImageGrid(n=16)
        time = TimeGrid(n_t=10, t_final=3.0)
        det = make_detectors("B_sparse", 8, 1.0)
        for sound_speed in (0.0, math.inf):
            with pytest.raises(ConfigError):
                Scenario(grid=grid, detectors=det, time=time, sound_speed=sound_speed, label="B_sparse")

    def test_equality_tells_scenarios_apart(self):
        base = make_scenario("B_sparse", n=16, n_s=4, n_t=30)
        assert base == make_scenario("B_sparse", n=16, n_s=4, n_t=30)
        for other in (
            make_scenario("B_sparse", n=16, n_s=5, n_t=30),
            make_scenario("B_sparse", n=16, n_s=4, n_t=31),
            make_scenario("B_sparse", n=16, n_s=4, n_t=30, directivity_enabled=False),
        ):
            assert other != base

    # (0.5, 2.5) has the span, and so the arc weight, of (1.0, 3.0)
    @pytest.mark.parametrize("arc", [(0.3, 2.1), (0.5, 2.5)])
    def test_custom_arcs_of_one_detector_count_differ(self, arc):
        a = make_scenario("custom", n=16, n_s=9, arc=arc)
        b = make_scenario("custom", n=16, n_s=9, arc=(1.0, 3.0))
        assert a == make_scenario("custom", n=16, n_s=9, arc=arc)
        assert a != b
        assert a.detectors != b.detectors


class TestDetectorArrayValidation:
    def test_rejects_off_circle_positions(self):
        pos = np.array([[1.0, 0.0], [0.0, 1.1]])
        normals = pos / np.linalg.norm(pos, axis=1, keepdims=True)
        with pytest.raises(ConfigError):
            DetectorArray(pos, normals, 0.1, 1.0)

    @pytest.mark.parametrize("field", ["positions", "normals"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_arrays(self, field, value):
        det = make_detectors("B_sparse", 4, 1.0)
        arrays = {"positions": det.positions.copy(), "normals": det.normals.copy()}
        arrays[field][1, 0] = value
        with pytest.raises(ConfigError):
            DetectorArray(arrays["positions"], arrays["normals"], det.arc_weight, det.radius)

    def test_arrays_are_readonly(self):
        det = make_detectors("B_sparse", 4, 1.0)
        with pytest.raises(ValueError):
            det.positions[0, 0] = 5.0
