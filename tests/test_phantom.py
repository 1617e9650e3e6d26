import dataclasses

import numpy as np
import pytest

from learnedbp import phantoms
from learnedbp.errors import ConfigError, ShapeMismatchError
from learnedbp.geometry import ImageGrid
from learnedbp.phantoms import (
    SUPPORT_RADIUS_FRACTION,
    Image,
    PhantomParams,
    generate_phantom,
    rasterize_ellipses,
    _deform_values,
    support_mask,
)
from stencil_oracle import sample_bilinear_values

# Frozen copy of the modified Shepp-Logan table, kept independent of the
# package constant so silent edits there are caught.
_TABLE = [
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.80, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.20, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.20, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.10, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.10, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.10, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.10, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
]

# the distribution narrowed to the plain table: no jitter, no rotation, no
# fine ellipses and no deformation
_CANONICAL = {"AMP_RANGE": (1.0, 1.0), "POS_JITTER": 0.0, "ROT_RANGE": (0.0, 0.0), "N_FINE": 0, "ELASTIC_ALPHA": 0.0}


def _center(grid: ImageGrid, i: int, j: int) -> tuple[float, float]:
    """Pixel (i, j)'s center, as ImageGrid's docstring defines it."""
    h = 2.0 * grid.extent / grid.n
    return -grid.extent + (j + 0.5) * h, grid.extent - (i + 0.5) * h


def _deform(img: Image, seed: int, alpha: float, sigma: float) -> Image:
    return Image(img.grid, _deform_values(img.values, seed, alpha, sigma))


def _oracle_shepp_logan(grid: ImageGrid) -> np.ndarray:
    """Point-in-ellipse rasterization written independently of the package."""
    out = np.zeros((grid.n, grid.n))
    boundary = np.zeros((grid.n, grid.n), dtype=bool)
    for i in range(grid.n):
        for j in range(grid.n):
            x, y = _center(grid, i, j)
            total = 0.0
            for amp, a, b, x0, y0, deg in _TABLE:
                ang = np.deg2rad(deg)
                dx, dy = x - x0, y - y0
                u = (dx * np.cos(ang) + dy * np.sin(ang)) / a
                v = (dy * np.cos(ang) - dx * np.sin(ang)) / b
                q = u * u + v * v
                if q <= 1.0:
                    total += amp
                if abs(q - 1.0) < 1e-9:
                    boundary[i, j] = True
            out[i, j] = total
    inside = np.zeros((grid.n, grid.n), dtype=bool)
    for i in range(grid.n):
        for j in range(grid.n):
            x, y = _center(grid, i, j)
            inside[i, j] = x * x + y * y <= (0.9 * grid.extent) ** 2
    out[~inside] = 0.0
    np.maximum(out, 0.0, out=out)
    return np.where(boundary, np.nan, out)


class TestGeneratePhantom:
    def test_deterministic(self):
        grid = ImageGrid(n=32)
        params = PhantomParams(seed=7)
        a = generate_phantom(params, grid)
        b = generate_phantom(params, grid)
        assert np.array_equal(a.values, b.values)

    def test_support_and_sign(self):
        for seed in range(5):
            grid = ImageGrid(n=48, extent=1.5)
            img = generate_phantom(PhantomParams(seed=seed), grid)
            assert np.all(img.values >= 0.0)
            assert np.all(img.values[~support_mask(grid)] == 0.0)

    def test_canonical_matches_independent_oracle(self, monkeypatch):
        for name, value in _CANONICAL.items():
            monkeypatch.setattr(phantoms, name, value)
        grid = ImageGrid(n=64)
        img = generate_phantom(PhantomParams(seed=123), grid)
        oracle = _oracle_shepp_logan(grid)
        decided = ~np.isnan(oracle)
        # only pixels on an exact ellipse boundary are exempt from equality
        assert decided.mean() > 0.999
        np.testing.assert_array_equal(img.values[decided], oracle[decided])

    def test_seeds_produce_distinct_phantoms(self):
        grid = ImageGrid(n=32)
        images = [generate_phantom(PhantomParams(seed=s), grid).values for s in range(6)]
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                frac_diff = np.mean(images[i] != images[j])
                assert frac_diff > 0.01

    def test_amplitude_bound(self):
        # positive table amplitudes sum to 1.6; fine ellipse amplitudes are
        # below 1.0 each and at most N_FINE = 8 of them are added
        img = generate_phantom(PhantomParams(seed=3), ImageGrid(n=64))
        assert img.values.max() <= 1.6 * 1.3 + 8 * 1.0 + 1e-12

    def test_rejects_tiny_grid(self):
        with pytest.raises(ConfigError):
            generate_phantom(PhantomParams(seed=0), ImageGrid(n=8))

    def test_support_fraction_constant(self):
        assert SUPPORT_RADIUS_FRACTION == 0.9


class TestPhantomParams:
    def test_rejects_negative_seed(self):
        # numpy's generators take no negative seed; 0 and large seeds are fine
        with pytest.raises(ConfigError, match="phantom seeds must be nonnegative, got -1"):
            PhantomParams(seed=-1)
        assert [f.name for f in dataclasses.fields(PhantomParams)] == ["seed"]
        generate_phantom(PhantomParams(seed=2**40), ImageGrid(n=16))


class TestRasterize:
    def test_boundary_pixel_included(self):
        grid = ImageGrid(n=4, extent=1.0)
        # pixel centers sit at +-0.25 and +-0.75; an ellipse centered at
        # (0.25, 0.25) with semi-axis a = 0.5 has (-0.25, 0.25) exactly on
        # its boundary
        ellipses = np.array([[2.0, 0.5, 0.25, 0.25, 0.25, 0.0]])
        out = rasterize_ellipses(ellipses, grid)
        assert _center(grid, 1, 1) == (-0.25, 0.25)
        assert out[1, 1] == 2.0

    def test_amplitudes_sum(self):
        grid = ImageGrid(n=16, extent=1.0)
        one = np.array([[1.5, 0.5, 0.5, 0.0, 0.0, 0.3]])
        other = np.array([[-0.5, 0.3, 0.2, 0.1, 0.0, 1.0]])
        both = np.vstack([one, other])
        np.testing.assert_array_equal(
            rasterize_ellipses(both, grid),
            rasterize_ellipses(one, grid) + rasterize_ellipses(other, grid),
        )

    def test_empty_table(self):
        grid = ImageGrid(n=8)
        out = rasterize_ellipses(np.zeros((0, 6)), grid)
        assert np.array_equal(out, np.zeros((8, 8)))


class TestElasticDeform:
    def test_alpha_zero_is_identity(self):
        grid = ImageGrid(n=32)
        img = generate_phantom(PhantomParams(seed=1), grid)
        out = _deform(img, seed=99, alpha=0.0, sigma=4.0)
        assert np.array_equal(out.values, img.values)

    def test_deterministic_in_seed(self):
        grid = ImageGrid(n=32)
        img = generate_phantom(PhantomParams(seed=1), grid)
        a = _deform(img, seed=5, alpha=2.0, sigma=4.0)
        b = _deform(img, seed=5, alpha=2.0, sigma=4.0)
        c = _deform(img, seed=6, alpha=2.0, sigma=4.0)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_constant_interior_preserved(self):
        grid = ImageGrid(n=32)
        img = Image(grid, np.ones((32, 32)))
        out = _deform(img, seed=2, alpha=2.0, sigma=4.0)
        # interpolating a constant reproduces it away from the border
        interior = out.values[4:-4, 4:-4]
        np.testing.assert_allclose(interior, 1.0, atol=1e-12)

    def test_range_bounded_by_input(self):
        grid = ImageGrid(n=32)
        img = generate_phantom(PhantomParams(seed=4), grid)
        out = _deform(img, seed=11, alpha=3.0, sigma=5.0)
        assert out.values.min() >= img.values.min() - 1e-12
        assert out.values.max() <= img.values.max() + 1e-12

    def test_mass_approximately_preserved(self):
        grid = ImageGrid(n=64)
        x = grid.axis_x()[None, :]
        y = grid.axis_y()[:, None]
        disc = Image(grid, (x * x + y * y <= 0.36).astype(np.float64))
        base = disc.values.sum()
        for seed in range(5):
            out = _deform(disc, seed=seed, alpha=1.0, sigma=8.0)
            assert abs(out.values.sum() - base) / base < 0.05


class TestImage:
    def test_shape_checked(self):
        with pytest.raises(ShapeMismatchError):
            Image(ImageGrid(n=8), np.zeros((8, 9)))

    def test_finite_checked(self):
        bad = np.zeros((8, 8))
        bad[3, 3] = np.nan
        with pytest.raises(ShapeMismatchError):
            Image(ImageGrid(n=8), bad)

    def test_norm(self):
        values = np.arange(64, dtype=np.float64).reshape(8, 8)
        img = Image(ImageGrid(n=8), values)
        assert img.norm() == pytest.approx(np.sqrt((values**2).sum()))


class TestSampleBilinear:
    def test_exact_at_pixel_centers(self):
        grid = ImageGrid(n=8)
        rng = np.random.default_rng(0)
        img = Image(grid, rng.standard_normal((8, 8)))
        centers = grid.pixel_centers().reshape(-1, 2)
        np.testing.assert_allclose(sample_bilinear_values(img.values, img.grid, centers).reshape(8, 8), img.values, atol=1e-13)

    def test_linear_functions_reproduced(self):
        grid = ImageGrid(n=16)
        centers = grid.pixel_centers()
        values = 2.0 * centers[:, :, 0] + 3.0 * centers[:, :, 1] - 1.0
        img = Image(grid, values)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.7, 0.7, size=(50, 2))
        expected = 2.0 * pts[:, 0] + 3.0 * pts[:, 1] - 1.0
        np.testing.assert_allclose(sample_bilinear_values(img.values, img.grid, pts), expected, atol=1e-12)

    def test_zero_outside(self):
        grid = ImageGrid(n=8)
        img = Image(grid, np.ones((8, 8)))
        pts = np.array([[5.0, 0.0], [0.0, -5.0], [-2.0, 2.0]])
        np.testing.assert_array_equal(sample_bilinear_values(img.values, img.grid, pts), np.zeros(3))

    def test_midpoint_average(self):
        grid = ImageGrid(n=8)
        rng = np.random.default_rng(2)
        img = Image(grid, rng.standard_normal((8, 8)))
        x0, y0 = _center(grid, 3, 3)
        x1, _ = _center(grid, 3, 4)
        mid = np.array([[(x0 + x1) / 2.0, y0]])
        expected = 0.5 * (img.values[3, 3] + img.values[3, 4])
        assert sample_bilinear_values(img.values, img.grid, mid)[0] == pytest.approx(expected, abs=1e-13)
