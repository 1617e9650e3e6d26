import dataclasses
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from learnedbp import forward
from learnedbp.errors import ConfigError, ShapeMismatchError
from learnedbp.forward import (
    ForwardOperator,
    SensorData,
    abel_weights,
    cell_table,
    circle_nodes,
    simulation_bytes,
    time_derivative,
)
from learnedbp.geometry import ImageGrid, Scenario, TimeGrid, make_detectors, make_scenario
from learnedbp.phantoms import Image, PhantomParams, generate_phantom
from stencil_oracle import bilinear_stencil, circular_mean, padded_coordinates, sample_bilinear_values, zero_pad


def _gaussian_image(grid: ImageGrid, center, sigma: float, amp: float = 1.0) -> Image:
    pts = grid.pixel_centers()
    d2 = (pts[:, :, 0] - center[0]) ** 2 + (pts[:, :, 1] - center[1]) ** 2
    return Image(grid, amp * np.exp(-d2 / (2.0 * sigma * sigma)))


def _small_scenario(n=32, n_s=8, n_t=60, t_final=3.0, directivity=True, label="B_sparse"):
    return Scenario(
        grid=ImageGrid(n=n),
        detectors=make_detectors(label, n_s, 1.0),
        time=TimeGrid(n_t=n_t, t_final=t_final),
        directivity_enabled=directivity,
        label=label,
    )


class TestCircularMean:
    def test_constant_image(self):
        grid = ImageGrid(n=32)
        img = Image(grid, np.full((32, 32), 3.3))
        mean = circular_mean(img, (0.1, -0.2), 0.3)
        assert mean == pytest.approx(3.3, rel=1e-12)

    def test_radius_zero_reads_point_value(self):
        grid = ImageGrid(n=16)
        values = np.arange(256, dtype=np.float64).reshape(16, 16)
        img = Image(grid, values)
        h = 2.0 * grid.extent / grid.n  # pixel (5, 7)'s center, as ImageGrid's docstring defines it
        x, y = -grid.extent + 7.5 * h, grid.extent - 5.5 * h
        assert circular_mean(img, (x, y), 0.0) == pytest.approx(values[5, 7])

    def test_directional_mean_of_constant_is_quarter(self):
        # (1/2pi) * integral of cos^2 over the front half circle = 1/4
        grid = ImageGrid(n=32)
        img = Image(grid, np.ones((32, 32)))
        mean = circular_mean(img, (0.0, 0.0), 0.4, normal=np.array([1.0, 0.0]), n_angles=2048)
        assert mean == pytest.approx(0.25, rel=1e-4)

    def test_disc_arc_fraction(self):
        # the unweighted circular mean of a disc indicator equals the
        # fraction of the circle inside the disc, known in closed form
        grid = ImageGrid(n=256)
        center = np.array([0.2, 0.1])
        rho = 0.3
        pts = grid.pixel_centers()
        inside = (pts[:, :, 0] - center[0]) ** 2 + (pts[:, :, 1] - center[1]) ** 2 <= rho * rho
        img = Image(grid, inside.astype(np.float64))
        s = np.array([1.0, 0.0])
        dist = float(np.linalg.norm(s - center))
        for r in (dist - 0.2, dist - 0.1, dist, dist + 0.1, dist + 0.2):
            cos_half = (dist * dist + r * r - rho * rho) / (2.0 * dist * r)
            expected = math.acos(np.clip(cos_half, -1.0, 1.0)) / math.pi
            assert circular_mean(img, s, r) == pytest.approx(expected, abs=0.01)

    def test_mean_zero_outside_geometry(self):
        grid = ImageGrid(n=32)
        img = Image(grid, np.ones((32, 32)))
        # circle lies entirely outside the grid
        assert circular_mean(img, (10.0, 0.0), 0.5) == 0.0

    def test_rejects_bad_args(self):
        grid = ImageGrid(n=16)
        img = Image(grid, np.zeros((16, 16)))
        with pytest.raises(ConfigError):
            circular_mean(img, (0, 0), -1.0)
        with pytest.raises(ConfigError):
            circular_mean(img, (0, 0), 0.5, n_angles=4)


class TestAbelWeights:
    def test_linear_integrand_integrated_exactly(self):
        n_r, nps = 48, 4
        radii = np.arange(n_r + 1) * (1.2 / n_r)
        tau = radii[nps::nps]
        weights = abel_weights(tau, radii, nps)
        for c0, c1 in ((1.0, 0.0), (0.0, 1.0), (0.7, -2.0)):
            m = c0 + c1 * radii
            expected = c0 * (math.pi / 2.0) + c1 * tau
            np.testing.assert_allclose(weights @ m, expected, rtol=1e-10, atol=1e-12)

    def test_quadratic_integrand_second_order(self):
        def err(n_r):
            nps = 4
            radii = np.arange(n_r + 1) * (1.0 / n_r)
            tau = radii[nps::nps]
            weights = abel_weights(tau, radii, nps)
            got = weights @ radii**2
            return np.abs(got - (math.pi / 4.0) * tau**2).max()

        assert err(128) < err(64) / 3.0

    def test_rows_only_touch_covered_nodes(self):
        n_r, nps = 20, 4
        radii = np.arange(n_r + 1) * (1.0 / n_r)
        tau = radii[nps::nps]
        weights = abel_weights(tau, radii, nps)
        for k in range(tau.shape[0]):
            assert np.all(weights[k, (k + 1) * nps + 1 :] == 0.0)


class TestTimeDerivative:
    def test_exact_for_linear(self):
        t = np.linspace(0.0, 1.0, 11)
        v = 2.0 - 3.0 * t
        np.testing.assert_allclose(time_derivative(v, t[1] - t[0]), -3.0, atol=1e-12)

    def test_second_order_interior(self):
        def err(n):
            t = np.linspace(0.0, 1.0, n)[:, None]
            v = np.sin(3.0 * t)
            d = time_derivative(v, float(t[1, 0] - t[0, 0]))
            return np.abs(d[1:-1, 0] - 3.0 * np.cos(3.0 * t[1:-1, 0])).max()

        assert err(200) < err(100) / 3.0


class TestSimulate:
    def test_zero_source_gives_zero_data(self):
        sc = _small_scenario()
        data = ForwardOperator(sc).simulate(Image(sc.grid, np.zeros((sc.grid.n, sc.grid.n))))
        assert np.array_equal(data.values, np.zeros((sc.time.n_t, sc.detectors.n_s)))

    def test_linearity(self):
        sc = _small_scenario()
        op = ForwardOperator(sc)
        f = generate_phantom(PhantomParams(seed=1), sc.grid)
        g = generate_phantom(PhantomParams(seed=2), sc.grid)
        both = Image(sc.grid, f.values + g.values)
        lhs = op.simulate(both).values
        rhs = op.simulate(f).values + op.simulate(g).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(rhs).max()))

    def test_scaling(self):
        sc = _small_scenario()
        op = ForwardOperator(sc)
        f = generate_phantom(PhantomParams(seed=3), sc.grid)
        scaled = op.simulate(Image(sc.grid, 2.5 * f.values)).values
        np.testing.assert_allclose(scaled, 2.5 * op.simulate(f).values, rtol=1e-12, atol=1e-15)

    def test_causality(self):
        sc = _small_scenario(n=48, n_t=120, directivity=False)
        img = _gaussian_image(sc.grid, (0.0, 0.0), 0.05)
        data = ForwardOperator(sc).simulate(img)
        t = sc.time.samples()
        # detectors sit on the unit circle, so nothing arrives much before
        # t = 1; by t = 0.65 only the e^-24 tail of the source has reached
        quiet = t < 0.65
        peak = np.abs(data.values).max()
        assert np.abs(data.values[quiet, :]).max() < 1e-8 * peak

    def test_arrival_time_and_n_shape(self):
        sc = _small_scenario(n=64, n_s=1, n_t=300, directivity=False)
        d = 0.7
        img = _gaussian_image(sc.grid, (1.0 - d, 0.0), 0.04)
        data = ForwardOperator(sc).simulate(img)
        trace = data.values[:, 0]
        t = sc.time.samples()
        t_max = t[int(np.argmax(trace))]
        t_min = t[int(np.argmin(trace))]
        # compression peak arrives just before t = d/c, rarefaction just after
        assert abs(t_max - d) < 0.1
        assert abs(t_min - d) < 0.1
        assert t_max < t_min

    def test_batch_matches_single(self):
        sc = _small_scenario(n=24, n_s=4, n_t=40)
        op = ForwardOperator(sc)
        f = generate_phantom(PhantomParams(seed=5), sc.grid)
        g = generate_phantom(PhantomParams(seed=6), sc.grid)
        batch = op.simulate_batch([f, g])
        np.testing.assert_array_equal(batch[0].values.view(np.int64), op.simulate(f).values.view(np.int64))
        np.testing.assert_array_equal(batch[1].values.view(np.int64), op.simulate(g).values.view(np.int64))

    @pytest.mark.parametrize("directivity", [True, False])
    @pytest.mark.parametrize("label", ["A_limited_view", "B_sparse", "C_limited_sparse"])
    def test_data_do_not_depend_on_the_batch(self, label, directivity):
        sc = dataclasses.replace(make_scenario(label, n=32, n_t=100), directivity_enabled=directivity)
        op = ForwardOperator(sc)
        rng = np.random.default_rng(7)
        images = [generate_phantom(PhantomParams(seed=s), sc.grid) for s in (31, 32, 33)]
        images += [_compact_blob(sc.grid, (-0.3, 0.2), 0.05), Image(sc.grid, rng.random((32, 32)))]
        batch = [d.values.view(np.int64) for d in op.simulate_batch(images)]
        for k, img in enumerate(images):
            np.testing.assert_array_equal(op.simulate(img).values.view(np.int64), batch[k])
        for size in (2, 3):
            split = [d for lo in range(0, len(images), size) for d in op.simulate_batch(images[lo : lo + size])]
            for got, want in zip(split, batch, strict=True):
                np.testing.assert_array_equal(got.values.view(np.int64), want)

    def test_rotational_equivariance(self):
        sc = _small_scenario(n=64, n_s=8, n_t=100)
        op = ForwardOperator(sc)
        img = generate_phantom(PhantomParams(seed=9), sc.grid)
        rotated = Image(sc.grid, np.rot90(img.values))
        base = op.simulate(img).values
        rot = op.simulate(rotated).values
        # a quarter turn of the source shifts every trace by two detectors
        expected = np.roll(base, 2, axis=1)
        np.testing.assert_allclose(rot, expected, atol=1e-9 * np.abs(base).max())

    def test_grid_mismatch_rejected(self):
        sc = _small_scenario(n=32)
        with pytest.raises(ShapeMismatchError):
            ForwardOperator(sc).simulate(Image(ImageGrid(n=16), np.zeros((16, 16))))

    def test_time_window_must_cover_grid(self):
        short = make_scenario("B_sparse", n=32, n_t=50, t_final=1.0)
        with pytest.raises(ConfigError):
            ForwardOperator(short)
        # t_final = 3 comfortably covers the unit square from the unit circle
        ForwardOperator(make_scenario("B_sparse", n=32, n_t=50, t_final=3.0))

    def test_mean_table_matches_circular_mean(self):
        sc = _small_scenario(n=24, n_s=4, n_t=30)
        op = ForwardOperator(sc)
        img = generate_phantom(PhantomParams(seed=4), sc.grid)
        j = 1
        table = _mean_table(op, img, j)
        for i in (1, 7, 19):
            r = op.radii[i]
            expected = r * circular_mean(
                img,
                sc.detectors.positions[j],
                r,
                normal=sc.detectors.normals[j],
                n_angles=op.n_angles,
            )
            assert table[i] == pytest.approx(expected, abs=1e-13)


def _oracle_plan(grid: ImageGrid, points: np.ndarray):
    """The gather the simulator used before ray clipping: a full 4-tap
    plan over every circle sample, with a validity mask per tap."""
    h = grid.spacing
    col = (points[..., 0] + grid.extent) / h - 0.5
    row = (grid.extent - points[..., 1]) / h - 0.5
    i0 = np.floor(row).astype(np.int64)
    j0 = np.floor(col).astype(np.int64)
    fr = row - i0
    fc = col - j0

    n = grid.n
    idx = np.empty((4,) + points.shape[:-1], dtype=np.int64)
    wts = np.empty((4,) + points.shape[:-1])
    for q, (di, dj, w) in enumerate((
        (0, 0, (1 - fr) * (1 - fc)),
        (0, 1, (1 - fr) * fc),
        (1, 0, fr * (1 - fc)),
        (1, 1, fr * fc),
    )):
        ii = i0 + di
        jj = j0 + dj
        valid = (ii >= 0) & (ii < n) & (jj >= 0) & (jj < n)
        idx[q] = np.clip(ii, 0, n - 1) * n + np.clip(jj, 0, n - 1)
        wts[q] = np.where(valid, w, 0.0)
    return idx, wts


def _oracle_simulate(op: ForwardOperator, images) -> np.ndarray:
    """simulate_batch as it was before ray clipping, (n_img, n_t, n_s)."""
    sc = op.scenario
    det, time = sc.detectors, sc.time
    out = np.empty((len(images), time.n_t, det.n_s))
    m_table = np.empty((op.radii.shape[0], len(images)))
    for j in range(det.n_s):
        points = det.positions[j][None, None, :] + op.radii[:, None, None] * op.omega[None, :, :]
        idx, wts = _oracle_plan(sc.grid, points)
        if sc.directivity_enabled:
            wts = wts * op.phi[j][None, None, :]
        for k, img in enumerate(images):
            vals = img.values.take(idx.reshape(4, -1))
            m_table[:, k] = op.radii * np.einsum("qra,qra->r", vals.reshape(wts.shape), wts) / op.n_angles
        out[:, :, j] = time_derivative(op.abel @ m_table, time.dt).T
    return out


class TestRayClippedGather:
    @pytest.mark.parametrize("label", ["A_limited_view", "B_sparse", "C_limited_sparse"])
    def test_matches_full_gather(self, label):
        # random and all-ones images are nonzero on the border pixels,
        # where a stencil that extrapolates would show; phantoms are not
        sc = make_scenario(label, n=32, n_t=100)
        op = ForwardOperator(sc)
        rng = np.random.default_rng(11)
        images = [Image(sc.grid, rng.random((32, 32))), Image(sc.grid, np.ones((32, 32)))]
        expected = _oracle_simulate(op, images)
        for img, want in zip(op.simulate_batch(images), expected):
            np.testing.assert_allclose(img.values, want, rtol=0.0, atol=1e-12 * np.abs(want).max())

    def test_border_of_padded_image_reads_zero(self):
        grid = ImageGrid(n=8)
        ones = np.ones((8, 8))
        edge = grid.extent + 0.5 * grid.spacing
        for x in (edge, np.nextafter(edge, np.inf), edge + 0.1 * grid.spacing, 10.0):
            pts = np.array([[x, 0.1], [-x, 0.1], [0.1, x], [0.1, -x], [x, x]])
            np.testing.assert_array_equal(sample_bilinear_values(ones, grid, pts), np.zeros(5))
        # just inside the border the stencil ramps up from zero
        inside = np.array([[edge - 0.25 * grid.spacing, 0.1]])
        assert sample_bilinear_values(ones, grid, inside)[0] == pytest.approx(0.25, abs=1e-12)

    def test_stack_of_images(self):
        grid = ImageGrid(n=8)
        stack = np.random.default_rng(3).random((3, 8, 8))
        pts = np.random.default_rng(4).uniform(-1.2, 1.2, size=(5, 7, 2))
        got = sample_bilinear_values(stack, grid, pts)
        assert got.shape == (3, 5, 7)
        for k in range(3):
            np.testing.assert_array_equal(got[k], sample_bilinear_values(stack[k], grid, pts))


def _square_samples(op: ForwardOperator, j: int):
    """ForwardOperator._samples before the support clip: every ray is
    clipped to the padded square only, blind angles included."""
    grid = op.scenario.grid
    pos = op.scenario.detectors.positions[j]
    half = grid.extent + 0.5 * grid.spacing
    with np.errstate(divide="ignore", invalid="ignore"):
        t_near = (-half - pos[:, None]) / op.omega.T
        t_far = (half - pos[:, None]) / op.omega.T
    r_in = np.fmin(t_near, t_far).max(axis=0)
    r_out = np.fmax(t_near, t_far).min(axis=0)

    dr = op.radii[1]
    n_r = op.radii.shape[0] - 1
    first = np.clip(np.ceil(r_in / dr) - 1, 0, n_r + 1).astype(np.int64)
    last = np.clip(np.floor(r_out / dr) + 1, -1, n_r).astype(np.int64)
    count = np.maximum(last - first + 1, 0)

    skip = np.cumsum(count) - count - first
    node = np.arange(count.sum()) - np.repeat(skip, count)
    r = op.radii[node]
    x = np.repeat(op.omega[:, 0], count)
    x *= r
    x += pos[0]
    y = np.repeat(op.omega[:, 1], count)
    y *= r
    y += pos[1]
    idx, wts = bilinear_stencil(grid, x, y)
    if op.scenario.directivity_enabled:
        wts *= np.repeat(op.phi[j], count)
    return node, idx, wts


def _square_simulate(op: ForwardOperator, images) -> list:
    """ForwardOperator.simulate_batch before the support clip, with one
    Abel product per image as the operator makes."""
    sc = op.scenario
    det, time = sc.detectors, sc.time
    padded = [zero_pad(img.values) for img in images]
    m_tables = np.empty((len(images), op.radii.shape[0], det.n_s))
    for j in range(det.n_s):
        node, idx, wts = _square_samples(op, j)
        for k, image in enumerate(padded):
            vals = np.einsum("qm,qm->m", image.take(idx), wts)
            m_tables[k, :, j] = op.radii * np.bincount(node, weights=vals, minlength=op.radii.shape[0]) / op.n_angles
    return [time_derivative(op.abel @ m_table, time.dt) for m_table in m_tables]


def _slab_disk_samples(op: ForwardOperator, j: int, radius: float, half: float | None = None):
    """The points ForwardOperator._sample_blocks samples, in one block,
    with each ray clipped to the square |x|, |y| <= ``half`` (by default
    the padded square; infinite for none) as well as to the support
    disk: their radial nodes, coordinates and directivity (ones when it
    is disabled)."""
    grid = op.scenario.grid
    pos = op.scenario.detectors.positions[j]
    if half is None:
        half = grid.extent + 0.5 * grid.spacing
    with np.errstate(divide="ignore", invalid="ignore"):
        t_near = (-half - pos[:, None]) / op.omega.T
        t_far = (half - pos[:, None]) / op.omega.T
    b = op.omega @ pos
    disc = b * b - pos @ pos + radius * radius
    chord = np.sqrt(np.maximum(disc, 0.0))
    r_in = np.maximum(np.fmin(t_near, t_far).max(axis=0), -b - chord)
    r_out = np.minimum(np.fmax(t_near, t_far).min(axis=0), -b + chord)

    dr = op.radii[1]
    n_r = op.radii.shape[0] - 1
    first = np.clip(np.ceil(r_in / dr) - 1, 0, n_r + 1).astype(np.int64)
    last = np.clip(np.floor(r_out / dr) + 1, -1, n_r).astype(np.int64)
    count = np.maximum(last - first + 1, 0)
    phi = op.phi[j] if op.scenario.directivity_enabled else np.ones(op.n_angles)
    count[~((disc >= 0) & (radius >= 0) & (phi > 0))] = 0

    skip = np.cumsum(count) - count - first
    node = np.arange(count.sum()) - np.repeat(skip, count)
    r = op.radii[node]
    x = np.repeat(op.omega[:, 0], count)
    x *= r
    x += pos[0]
    y = np.repeat(op.omega[:, 1], count)
    y *= r
    y += pos[1]
    return node, x, y, np.repeat(phi, count)


def _old_cells(grid: ImageGrid, x: np.ndarray, y: np.ndarray):
    """Cell index and offsets of the points (``x``, ``y``) from the old
    4-tap stencil: its first tap idx[0] in the cell stride n + 2, moved
    one row or column on where a coordinate is clamped to n + 1 (there
    the stencil's floor was clamped to n, with offset 1 instead of 0)."""
    n = grid.n
    idx, _ = bilinear_stencil(grid, x, y)
    row, col = padded_coordinates(grid, x, y)
    i0, j0 = np.divmod(idx[0], n + 2)
    i0 += row == n + 1
    j0 += col == n + 1
    return i0 * (n + 2) + j0, row - i0, col - j0


def _blocks(op: ForwardOperator, j: int, radius: float) -> list:
    """Every yield of op._sample_blocks(j, radius), copied out of the
    gather buffers that each block overwrites."""
    return [tuple(a.copy() for a in block) for block in op._sample_blocks(j, radius, op._gather_buffers(1))]


def _n_samples(op: ForwardOperator, j: int, radius: float) -> int:
    return sum(block[0].size for block in _blocks(op, j, radius))


def _one_block(op: ForwardOperator, j: int, radius: float):
    """Every yield of op._sample_blocks(j, radius), joined into one."""
    blocks = _blocks(op, j, radius)
    if not blocks:
        return None
    return tuple(np.concatenate([block[q] for block in blocks]) for q in range(5))


def _one_pixel(grid: ImageGrid, i: int, j: int, value: float = 1.0) -> Image:
    values = np.zeros((grid.n, grid.n))
    values[i, j] = value
    return Image(grid, values)


def _compact_blob(grid: ImageGrid, center, sigma: float) -> Image:
    """A Gaussian cut to exactly zero beyond four standard deviations."""
    img = _gaussian_image(grid, center, sigma)
    pts = grid.pixel_centers()
    far = np.hypot(pts[:, :, 0] - center[0], pts[:, :, 1] - center[1]) > 4.0 * sigma
    return Image(grid, np.where(far, 0.0, img.values))


class TestSupportClip:
    """simulate_batch must match the square-only stencil gather to
    rounding; the per-sample formula differs, so not bit for bit."""

    @staticmethod
    def _assert_matches_square(op, images):
        got = [d.values for d in op.simulate_batch(images)]
        want = _square_simulate(op, images)
        assert len(got) == len(want) == len(images)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12 * np.abs(w).max())
        return got

    @staticmethod
    def _assert_matches_oracle(op, images, got):
        for g, want in zip(got, _oracle_simulate(op, images)):
            np.testing.assert_allclose(g, want, rtol=0.0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("directivity", [True, False])
    @pytest.mark.parametrize("label", ["A_limited_view", "B_sparse", "C_limited_sparse"])
    def test_phantoms(self, label, directivity):
        sc = dataclasses.replace(make_scenario(label, n=32, n_t=100), directivity_enabled=directivity)
        op = ForwardOperator(sc)
        images = [generate_phantom(PhantomParams(seed=s), sc.grid) for s in (21, 22)]
        got = self._assert_matches_square(op, images)
        self._assert_matches_oracle(op, images, got)

    @pytest.mark.parametrize("pixel", [(16, 16), (16, 0), (31, 31)], ids=["centre", "edge", "corner"])
    def test_single_pixel(self, pixel):
        sc = make_scenario("B_sparse", n=32, n_t=100)
        op = ForwardOperator(sc)
        images = [_one_pixel(sc.grid, *pixel, value=-2.5)]
        got = self._assert_matches_square(op, images)
        assert np.abs(got[0]).max() > 0.0
        self._assert_matches_oracle(op, images, got)

    def test_off_centre_blob(self):
        sc = make_scenario("A_limited_view", n=32, n_t=100)
        op = ForwardOperator(sc)
        images = [_compact_blob(sc.grid, (0.35, -0.25), 0.06)]
        got = self._assert_matches_square(op, images)
        self._assert_matches_oracle(op, images, got)

    def test_compact_and_full_square_in_one_batch(self):
        sc = make_scenario("C_limited_sparse", n=32, n_t=100)
        op = ForwardOperator(sc)
        rng = np.random.default_rng(5)
        self._assert_matches_square(op, [_one_pixel(sc.grid, 15, 17), Image(sc.grid, rng.random((32, 32)))])

    def test_all_zero_image(self):
        sc = make_scenario("B_sparse", n=32, n_t=100)
        op = ForwardOperator(sc)
        zero = Image(sc.grid, np.zeros((32, 32)))
        got = self._assert_matches_square(op, [zero])
        np.testing.assert_array_equal(got[0].view(np.int64), np.zeros((sc.time.n_t, sc.detectors.n_s), np.int64))
        # no support at all: not even the disk a negative radius squares to
        radius = op._support_radius([zero])
        assert all(_n_samples(op, j, radius) == 0 for j in range(sc.detectors.n_s))

    @pytest.mark.parametrize("directivity", [True, False])
    def test_full_square_reads_the_zero_cells(self, directivity):
        # a full-square support disk reaches past the padded border, where
        # coordinates clamp to n + 1 and the samples read the cells of zeros
        sc = dataclasses.replace(make_scenario("A_limited_view", n=32, n_t=100), directivity_enabled=directivity)
        op = ForwardOperator(sc)
        rng = np.random.default_rng(9)
        images = [Image(sc.grid, np.ones((32, 32))), Image(sc.grid, rng.random((32, 32)))]
        radius = op._support_radius(images)
        clamped = 0
        for j in range(sc.detectors.n_s):
            node, x, y, phi = _slab_disk_samples(op, j, radius, half=np.inf)
            got = _one_block(op, j, radius)
            np.testing.assert_array_equal(got[0], node)
            for have, want in zip(got[1:4], _old_cells(sc.grid, x, y), strict=True):
                np.testing.assert_array_equal(have, want)
            np.testing.assert_array_equal(got[4], phi)
            row, col = padded_coordinates(sc.grid, x, y)
            clamped += np.count_nonzero((row == 33.0) | (col == 33.0))
        assert clamped > 0
        got = self._assert_matches_square(op, images)
        self._assert_matches_oracle(op, images, got)

    def test_empty_batch(self):
        assert ForwardOperator(make_scenario("B_sparse", n=32, n_t=100)).simulate_batch([]) == []

    @pytest.mark.parametrize("block", [1, 97, 5000])
    def test_small_gather_blocks(self, monkeypatch, block):
        # blocks of one ray, of a few rays and of the whole detector give the bits of one block
        sc = make_scenario("A_limited_view", n=32, n_t=100)
        op = ForwardOperator(sc)
        rng = np.random.default_rng(6)
        images = [generate_phantom(PhantomParams(seed=23), sc.grid), Image(sc.grid, rng.random((32, 32)))]
        monkeypatch.setattr(forward, "GATHER_BLOCK", op.radii.shape[0] * op.n_angles + 1)
        whole = [d.values.view(np.int64) for d in op.simulate_batch(images)]
        monkeypatch.setattr(forward, "GATHER_BLOCK", block)
        for got, want in zip(self._assert_matches_square(op, images), whole, strict=True):
            np.testing.assert_array_equal(got.view(np.int64), want)

    def test_blocks_hold_whole_rays_up_to_the_block_size(self, monkeypatch):
        sc = dataclasses.replace(make_scenario("B_sparse", n=32, n_t=100), directivity_enabled=False)
        op = ForwardOperator(sc)
        radius = op._support_radius([Image(sc.grid, np.ones((32, 32)))])
        longest = op.radii.shape[0]
        for j in range(sc.detectors.n_s):
            monkeypatch.setattr(forward, "GATHER_BLOCK", longest * op.n_angles + 1)
            (whole,) = _blocks(op, j, radius)
            monkeypatch.setattr(forward, "GATHER_BLOCK", 500)
            blocks = _blocks(op, j, radius)
            assert len(blocks) > 1
            assert all(block[0].size <= 500 + longest for block in blocks)
            for q in range(4):
                np.testing.assert_array_equal(np.concatenate([block[q] for block in blocks]), whole[q])
            # no directivity is a sensitivity table of ones
            assert np.all(whole[4] == 1.0) and all(np.all(block[4] == 1.0) for block in blocks)

    @pytest.mark.parametrize(
        "label, n, n_s, n_t",
        [("A_limited_view", 64, 100, 400), ("B_sparse", 64, 20, 400),
         ("C_limited_sparse", 64, 20, 400), ("C_limited_sparse", 24, 6, 60)],
    )
    def test_disk_clip_alone_keeps_the_slab_clipped_samples(self, label, n, n_s, n_t):
        # on a generated phantom the support disk lies inside the padded
        # square, so dropping the square's slab clip removes no sample
        op = ForwardOperator(make_scenario(label, n=n, n_s=n_s, n_t=n_t))
        for seed in (41, 42):
            radius = op._support_radius([generate_phantom(PhantomParams(seed=seed), op.scenario.grid)])
            for j in range(n_s):
                node, x, y, phi = _slab_disk_samples(op, j, radius)
                got = _one_block(op, j, radius)
                if got is None:
                    assert node.size == 0
                    continue
                np.testing.assert_array_equal(got[0], node)
                for have, want in zip(got[1:4], _old_cells(op.scenario.grid, x, y), strict=True):
                    np.testing.assert_array_equal(have, want)
                np.testing.assert_array_equal(got[4], phi)

    @pytest.mark.parametrize("directivity", [True, False])
    def test_every_detector_gathers_fewer_samples(self, directivity):
        # with directivity off only the disk clip can shrink the sets
        sc = dataclasses.replace(make_scenario("A_limited_view", n=32, n_t=100), directivity_enabled=directivity)
        op = ForwardOperator(sc)
        img = generate_phantom(PhantomParams(seed=21), sc.grid)
        radius = op._support_radius([img])
        for j in range(sc.detectors.n_s):
            assert _n_samples(op, j, radius) < _square_samples(op, j)[0].size

    def test_blind_angles_get_no_samples(self):
        sc = make_scenario("A_limited_view", n=32, n_t=100)
        on = ForwardOperator(sc)
        off = ForwardOperator(dataclasses.replace(sc, directivity_enabled=False))
        # a full-square support, so that only the directivity differs
        radius = on._support_radius([Image(sc.grid, np.ones((32, 32)))])
        for j in range(sc.detectors.n_s):
            assert _n_samples(on, j, radius) < _n_samples(off, j, radius)


def _per_detector_simulate(op: ForwardOperator, images) -> list:
    """simulate_batch before mirror pairs: every detector's circles
    sampled on their own, one _tables call per detector for the batch."""
    sc = op.scenario
    det, time = sc.detectors, sc.time
    radius = op._support_radius(images)
    cells = [cell_table(img.values) for img in images]
    tables = np.empty((len(images), op.radii.shape[0], det.n_s))
    for j in range(det.n_s):
        tables[:, :, j] = op._tables(j, radius, cells, op._gather_buffers(len(cells)))
    return [time_derivative(op.abel @ table, time.dt) for table in tables]


def _mean_table(op: ForwardOperator, img: Image, j: int) -> np.ndarray:
    """Directional circular means of ``img`` around detector ``j`` at every
    radial node, already multiplied by the radius: one detector's
    ``_tables`` for one image."""
    return op._tables(j, op._support_radius([img]), [cell_table(img.values)], op._gather_buffers(1))[0]


def _mean_table_simulate(op: ForwardOperator, img: Image) -> np.ndarray:
    """One image's data from each detector's own _mean_table."""
    table = np.stack([_mean_table(op, img, j) for j in range(op.scenario.detectors.n_s)], axis=1)
    return time_derivative(op.abel @ table, op.scenario.time.dt)


# label, detectors, custom arc, pairs, detectors that mirror themselves
_LAYOUTS = [
    ("A_limited_view", 100, None, 50, []),
    ("B_sparse", 20, None, 9, [0, 10]),
    ("B_sparse", 21, None, 10, [0]),
    ("C_limited_sparse", 20, None, 10, []),
    ("custom", 30, (0.3, 2.0), 0, list(range(30))),
]
_LAYOUT_IDS = ["A", "B20", "B21", "C", "custom"]


def _layout_scenario(label, n_s, arc, **kwargs):
    return make_scenario(label, n_s=n_s, **({} if arc is None else {"arc": arc}), **kwargs)


class TestMirrorPairs:
    @pytest.mark.parametrize("label, n_s, arc, pairs, alone", _LAYOUTS, ids=_LAYOUT_IDS)
    def test_pair_table(self, label, n_s, arc, pairs, alone):
        op = ForwardOperator(_layout_scenario(label, n_s, arc, n=16, n_t=40))
        mirror, index = op.mirror, np.arange(n_s)
        np.testing.assert_array_equal(mirror[mirror], index)
        assert np.count_nonzero(mirror > index) == pairs
        assert np.flatnonzero(mirror == index).tolist() == alone
        det = op.scenario.detectors
        flip = np.array([1.0, -1.0])
        paired = mirror != index
        np.testing.assert_allclose(det.positions[mirror[paired]], det.positions[paired] * flip, rtol=0, atol=1e-15)
        np.testing.assert_allclose(det.normals[mirror[paired]], det.normals[paired] * flip, rtol=0, atol=1e-15)
        if label == "B_sparse":
            np.testing.assert_array_equal(mirror, -index % n_s)
        elif label != "custom":
            np.testing.assert_array_equal(mirror, n_s - 1 - index)

    def test_symmetric_custom_arc_pairs_and_a_duplicate_pairs_once(self):
        op = ForwardOperator(make_scenario("custom", n=16, n_s=31, n_t=40, arc=(2.0, 2.0 * math.pi - 2.0)))
        np.testing.assert_array_equal(op.mirror, 30 - np.arange(31))
        # two detectors at one point match the same mirror image, which pairs with the first
        sc = op.scenario
        det = make_detectors("B_sparse", 4, 1.0)
        twice = dataclasses.replace(det, positions=det.positions[[1, 1, 3]], normals=det.normals[[1, 1, 3]])
        op = ForwardOperator(dataclasses.replace(sc, detectors=twice))
        np.testing.assert_array_equal(op.mirror, [2, 1, 0])

    @pytest.mark.parametrize("directivity", [True, False])
    @pytest.mark.parametrize("label, n_s, arc, pairs, alone", _LAYOUTS, ids=_LAYOUT_IDS)
    def test_matches_per_detector_sampling(self, label, n_s, arc, pairs, alone, directivity):
        sc = dataclasses.replace(_layout_scenario(label, n_s, arc, n=32, n_t=100), directivity_enabled=directivity)
        op = ForwardOperator(sc)
        rng = np.random.default_rng(12)
        # none of them symmetric under y -> -y, so a swapped pair would show
        images = [
            generate_phantom(PhantomParams(seed=41), sc.grid),
            Image(sc.grid, rng.random((32, 32))),
            _compact_blob(sc.grid, (-0.3, 0.45), 0.05),
        ]
        own = op.mirror >= np.arange(n_s)
        assert np.count_nonzero(~own) == pairs
        for k, (got, want) in enumerate(zip(op.simulate_batch(images), _per_detector_simulate(op, images), strict=True)):
            # lower-index and unpaired detectors bitwise, partners to rounding
            np.testing.assert_array_equal(got.values[:, own].view(np.int64), want[:, own].view(np.int64))
            for oracle in (want, _mean_table_simulate(op, images[k])):
                np.testing.assert_allclose(got.values, oracle, rtol=0.0, atol=1e-12 * np.abs(oracle).max())

    @pytest.mark.parametrize("label, n_s, arc, pairs, alone", _LAYOUTS, ids=_LAYOUT_IDS)
    def test_each_pair_is_sampled_once(self, monkeypatch, label, n_s, arc, pairs, alone):
        op = ForwardOperator(_layout_scenario(label, n_s, arc, n=16, n_t=40))
        sample_blocks = ForwardOperator._sample_blocks
        sampled = []

        def counting(self, j, radius, buffers):
            sampled.append(j)
            return sample_blocks(self, j, radius, buffers)

        monkeypatch.setattr(ForwardOperator, "_sample_blocks", counting)
        op.simulate(generate_phantom(PhantomParams(seed=3), op.scenario.grid))
        # two participants may start their units in either order
        assert sorted(sampled) == np.flatnonzero(op.mirror >= np.arange(n_s)).tolist()
        assert len(sampled) == n_s - pairs


def _bits(op: ForwardOperator, images, monkeypatch, workers: int) -> list:
    """simulate_batch's data as int64 bit patterns, gathered by ``workers`` threads."""
    monkeypatch.setattr(forward, "WORKERS", workers)
    return [d.values.view(np.int64) for d in op.simulate_batch(images)]


class TestWorkers:
    """Detector units shared between the caller and the worker thread
    give bitwise the data of gathering them all on the caller."""

    @staticmethod
    def _assert_split_is_serial(op, images, monkeypatch):
        serial = _bits(op, images, monkeypatch, 1)
        split = _bits(op, images, monkeypatch, 2)
        assert len(split) == len(serial) == len(images)
        for got, want in zip(split, serial, strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("directivity", [True, False])
    @pytest.mark.parametrize("label", ["A_limited_view", "B_sparse", "C_limited_sparse"])
    def test_canonical_layouts(self, two_cores, monkeypatch, label, directivity):
        sc = dataclasses.replace(make_scenario(label, n=32, n_t=100), directivity_enabled=directivity)
        rng = np.random.default_rng(31)
        images = [generate_phantom(PhantomParams(seed=51), sc.grid), Image(sc.grid, rng.random((32, 32)))]
        self._assert_split_is_serial(ForwardOperator(sc), images, monkeypatch)

    @pytest.mark.parametrize("label, n_s, arc", [("custom", 30, (0.3, 2.0)), ("B_sparse", 21, None)],
                             ids=["custom", "B21"])
    def test_lone_detectors(self, two_cores, monkeypatch, label, n_s, arc):
        op = ForwardOperator(_layout_scenario(label, n_s, arc, n=32, n_t=100))
        assert np.any(op.mirror == np.arange(n_s))
        self._assert_split_is_serial(op, [generate_phantom(PhantomParams(seed=52), op.scenario.grid)], monkeypatch)

    def test_gen_chunk_batch_and_zero_images(self, two_cores, monkeypatch):
        sc = make_scenario("A_limited_view", n=32, n_t=100)
        op = ForwardOperator(sc)
        images = [generate_phantom(PhantomParams(seed=60 + s), sc.grid) for s in range(forward.GEN_CHUNK)]
        self._assert_split_is_serial(op, images, monkeypatch)
        zero = Image(sc.grid, np.zeros((32, 32)))
        self._assert_split_is_serial(op, [zero], monkeypatch)
        self._assert_split_is_serial(op, [zero, images[0]], monkeypatch)

    def test_empty_batch_starts_no_thread(self, two_cores, monkeypatch):
        op = ForwardOperator(make_scenario("B_sparse", n=32, n_t=100))
        monkeypatch.setattr(forward, "_worker", None)  # calling it would raise
        assert _bits(op, [], monkeypatch, 2) == _bits(op, [], monkeypatch, 1) == []

    @pytest.mark.parametrize("block", [1, 97])
    def test_small_gather_blocks(self, two_cores, monkeypatch, block):
        sc = make_scenario("C_limited_sparse", n=32, n_t=100)
        op = ForwardOperator(sc)
        images = [generate_phantom(PhantomParams(seed=53), sc.grid)]
        whole = _bits(op, images, monkeypatch, 1)
        monkeypatch.setattr(forward, "GATHER_BLOCK", block)
        self._assert_split_is_serial(op, images, monkeypatch)
        np.testing.assert_array_equal(_bits(op, images, monkeypatch, 2)[0], whole[0])

    def test_each_unit_is_gathered_once_under_frequent_thread_switches(self, two_cores, monkeypatch):
        sc = make_scenario("B_sparse", n=16, n_s=21, n_t=40)
        op = ForwardOperator(sc)
        images = [generate_phantom(PhantomParams(seed=58), sc.grid)]
        want = _bits(op, images, monkeypatch, 1)
        tables = ForwardOperator._tables
        gathered = []

        def counting(self, j, radius, cells, buffers):
            gathered.append(j)
            return tables(self, j, radius, cells, buffers)

        monkeypatch.setattr(ForwardOperator, "_tables", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                gathered.clear()
                for got, expected in zip(_bits(op, images, monkeypatch, 2), want, strict=True):
                    np.testing.assert_array_equal(got, expected)
                assert sorted(gathered) == np.flatnonzero(op.mirror >= np.arange(21)).tolist()
        finally:
            sys.setswitchinterval(interval)

    def test_one_worker_starts_no_thread(self, monkeypatch):
        sc = make_scenario("B_sparse", n=32, n_t=100)
        monkeypatch.setattr(forward, "_worker", None)
        op = ForwardOperator(sc)
        assert len(_bits(op, [generate_phantom(PhantomParams(seed=54), sc.grid)], monkeypatch, 1)) == 1

    def test_the_worker_is_started_on_first_use_and_kept(self, two_cores, monkeypatch):
        sc = make_scenario("B_sparse", n=32, n_t=100)
        worker = forward._worker
        monkeypatch.setattr(forward, "_worker", None)
        op = ForwardOperator(sc)  # the build starts no thread
        monkeypatch.setattr(forward, "_worker", worker)
        image = generate_phantom(PhantomParams(seed=55), sc.grid)
        threads = []
        for _ in range(2):
            _bits(op, [image], monkeypatch, 2)
            threads.append([t for t in threading.enumerate() if t.name.startswith(forward.WORKER_THREAD)])
        assert len(threads[0]) == 1 and threads[1] == threads[0]
        assert forward._worker(os.getpid()) is forward._worker(os.getpid())

    def test_an_error_in_the_workers_unit_reaches_the_caller(self, two_cores, monkeypatch):
        sc = make_scenario("B_sparse", n=32, n_t=100)
        op = ForwardOperator(sc)
        images = [generate_phantom(PhantomParams(seed=56), sc.grid)]
        want = _bits(op, images, monkeypatch, 1)
        tables = ForwardOperator._tables
        started = threading.Event()

        def failing_on_the_worker(self, j, radius, cells, buffers):
            if threading.current_thread() is not threading.main_thread():
                started.set()
                raise RuntimeError("unit failed on the worker")
            started.wait(timeout=30)  # so the worker takes a unit before the caller has them all
            return tables(self, j, radius, cells, buffers)

        monkeypatch.setattr(ForwardOperator, "_tables", failing_on_the_worker)
        with pytest.raises(RuntimeError, match="on the worker"):
            _bits(op, images, monkeypatch, 2)
        assert started.is_set()
        monkeypatch.setattr(ForwardOperator, "_tables", tables)
        for got, expected in zip(_bits(op, images, monkeypatch, 2), want, strict=True):
            np.testing.assert_array_equal(got, expected)

    def test_an_error_in_the_callers_unit_waits_for_the_worker(self, two_cores, monkeypatch):
        sc = make_scenario("B_sparse", n=32, n_t=100)
        op = ForwardOperator(sc)
        images = [generate_phantom(PhantomParams(seed=57), sc.grid)]
        want = _bits(op, images, monkeypatch, 1)
        tables = ForwardOperator._tables
        started, failed, finished = threading.Event(), threading.Event(), []

        def failing_on_the_caller(self, j, radius, cells, buffers):
            if threading.current_thread() is threading.main_thread():
                started.wait(timeout=30)
                failed.set()
                raise RuntimeError("unit failed on the caller")
            started.set()
            failed.wait(timeout=30)
            means = tables(self, j, radius, cells, buffers)
            finished.append(j)
            return means

        monkeypatch.setattr(ForwardOperator, "_tables", failing_on_the_caller)
        with pytest.raises(RuntimeError, match="on the caller"):
            _bits(op, images, monkeypatch, 2)
        # the worker finished the unit it had and took no other
        assert len(finished) == 1
        monkeypatch.setattr(ForwardOperator, "_tables", tables)
        for got, expected in zip(_bits(op, images, monkeypatch, 2), want, strict=True):
            np.testing.assert_array_equal(got, expected)


_MEMORY_SIZES = [("A_limited_view", 64, 100, 400), ("B_sparse", 128, 20, 100)]


class TestSimulationMemory:
    @staticmethod
    def _assert_peak_within_estimate(label, n, n_s, n_t):
        sc = make_scenario(label, n=n, n_s=n_s, n_t=n_t)
        rng = np.random.default_rng(2)
        # full-square support: every ray is sampled to the padded border
        images = [Image(sc.grid, rng.random((n, n))) for _ in range(forward.GEN_CHUNK)]
        tracemalloc.start()  # traces the worker thread's allocations too
        try:
            op = ForwardOperator(sc)
            op.simulate_batch(images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= simulation_bytes(n, n_s, n_t, op.n_angles, op.n_r_per_dt)

    @pytest.mark.parametrize("label, n, n_s, n_t", _MEMORY_SIZES)
    def test_build_and_batch_peak_within_estimate(self, monkeypatch, label, n, n_s, n_t):
        monkeypatch.setattr(forward, "WORKERS", 1)
        self._assert_peak_within_estimate(label, n, n_s, n_t)

    @pytest.mark.parametrize("label, n, n_s, n_t", _MEMORY_SIZES)
    def test_two_workers_peak_within_estimate(self, two_cores, monkeypatch, label, n, n_s, n_t):
        # the estimate counts one set of gather buffers per participant
        monkeypatch.setattr(forward, "WORKERS", 2)
        self._assert_peak_within_estimate(label, n, n_s, n_t)

    def test_larger_than_available_memory_fails_before_allocating(self, monkeypatch):
        sc = make_scenario("A_limited_view", n=32, n_t=100)
        need = simulation_bytes(32, 100, 100, forward.default_n_angles(sc.grid), forward.DEFAULT_N_R_PER_DT)
        monkeypatch.setattr(forward, "available_memory", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as info:
                ForwardOperator(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 1000 * 8  # far below the quadrature matrix
        message = str(info.value)
        assert f"at n=32, n_s=100 needs {need / 1e6:.1f} MB" in message
        assert f"{(need - 1) / 1e6:.1f} MB available" in message
        for available in (need, None):
            monkeypatch.setattr(forward, "available_memory", lambda: available)
            ForwardOperator(sc)


class TestDirectivityInSimulation:
    def test_peak_ratio_follows_cos_squared(self):
        n = 128
        det = make_detectors("B_sparse", 1, 1.0)
        time = TimeGrid(n_t=200, t_final=3.0)
        grid = ImageGrid(n=n)
        sc_on = Scenario(grid=grid, detectors=det, time=time, directivity_enabled=True, label="B_sparse")
        sc_off = Scenario(grid=grid, detectors=det, time=time, directivity_enabled=False, label="B_sparse")
        op_on = ForwardOperator(sc_on, n_angles=2048)
        op_off = ForwardOperator(sc_off, n_angles=2048)

        dist = 0.7
        sigma = 0.05

        def peak(op, alpha):
            center = det.positions[0] + dist * np.array([-math.cos(alpha), math.sin(alpha)])
            data = op.simulate(_gaussian_image(grid, center, sigma))
            return np.abs(data.values[:, 0]).max()

        base_off = peak(op_off, 0.0)
        head_on = peak(op_on, 0.0)
        assert head_on == pytest.approx(base_off, rel=0.05)
        assert peak(op_on, math.pi / 6.0) / head_on == pytest.approx(math.cos(math.pi / 6.0) ** 2, rel=0.05)
        assert peak(op_on, math.pi / 3.0) / head_on == pytest.approx(math.cos(math.pi / 3.0) ** 2, rel=0.05)

    def test_source_behind_detector_is_silent(self):
        # detector inside the grid at (0.5, 0): sources beyond its tangent
        # line x = 0.5 face its blind side and produce no signal
        det = make_detectors("B_sparse", 1, 0.5)
        grid = ImageGrid(n=64)
        time = TimeGrid(n_t=100, t_final=3.0)
        sc = Scenario(grid=grid, detectors=det, time=time, directivity_enabled=True, label="B_sparse")
        behind = _gaussian_image(grid, (0.85, 0.0), 0.04)
        in_front = _gaussian_image(grid, (0.15, 0.0), 0.04)
        op = ForwardOperator(sc)
        silent = np.abs(op.simulate(behind).values).max()
        loud = np.abs(op.simulate(in_front).values).max()
        assert silent < 1e-3 * loud


class TestSensorData:
    def test_shape_checked(self):
        det = make_detectors("B_sparse", 3, 1.0)
        time = TimeGrid(n_t=10, t_final=3.0)
        with pytest.raises(ShapeMismatchError):
            SensorData(np.zeros((10, 4)), time, det)

    def test_finite_checked(self):
        det = make_detectors("B_sparse", 3, 1.0)
        time = TimeGrid(n_t=10, t_final=3.0)
        bad = np.zeros((10, 3))
        bad[0, 0] = np.inf
        with pytest.raises(ShapeMismatchError):
            SensorData(bad, time, det)


def test_circle_nodes_are_unit_and_uniform():
    nodes = circle_nodes(16)
    np.testing.assert_allclose(np.linalg.norm(nodes, axis=1), 1.0, rtol=1e-14)
    ang = np.arctan2(nodes[:, 1], nodes[:, 0])
    gaps = np.diff(np.unwrap(ang))
    np.testing.assert_allclose(gaps, 2.0 * math.pi / 16, rtol=1e-12)
