"""Randomized Shepp-Logan style source images.

Training and test sources are variations of the classic head phantom: each
table amplitude is scaled by a factor drawn from AMP_RANGE and each center
shifted by up to POS_JITTER of the extent per axis, the layout is rotated by
an angle drawn from ROT_RANGE, min(3, N_FINE) to N_FINE small high-contrast
ellipses are added, and the result is warped by a smooth random elastic
deformation of at most ELASTIC_ALPHA pixels, smoothed over ELASTIC_SIGMA
pixels (both at n = 256, scaled with the grid).  All randomness is drawn
from one generator seeded by PhantomParams.seed, so a phantom is a function
of the seed and the grid alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigError, checked_array
from .geometry import ImageGrid

# Modified Shepp-Logan ellipse table: amplitude, semi-axis a (x), semi-axis
# b (y), center x0, y0, rotation angle in degrees (counterclockwise).
SHEPP_LOGAN = np.array(
    [
        [1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0],
        [-0.80, 0.6624, 0.8740, 0.00, -0.0184, 0.0],
        [-0.20, 0.1100, 0.3100, 0.22, 0.0000, -18.0],
        [-0.20, 0.1600, 0.4100, -0.22, 0.0000, 18.0],
        [0.10, 0.2100, 0.2500, 0.00, 0.3500, 0.0],
        [0.10, 0.0460, 0.0460, 0.00, 0.1000, 0.0],
        [0.10, 0.0460, 0.0460, 0.00, -0.1000, 0.0],
        [0.10, 0.0460, 0.0230, -0.08, -0.6050, 0.0],
        [0.10, 0.0230, 0.0230, 0.00, -0.6060, 0.0],
        [0.10, 0.0230, 0.0460, 0.06, -0.6050, 0.0],
    ]
)

# fraction of the extent outside which generated phantoms are forced to zero
SUPPORT_RADIUS_FRACTION = 0.9

AMP_RANGE = (0.7, 1.3)
POS_JITTER = 0.05
ROT_RANGE = (0.0, 2.0 * np.pi)
N_FINE = 8
ELASTIC_ALPHA = 3.0
ELASTIC_SIGMA = 8.0

_MIN_PHANTOM_N = 16


@dataclass(frozen=True)
class Image:
    """A scalar image on an :class:`ImageGrid`; values are (n, n) float64."""

    grid: ImageGrid
    values: np.ndarray

    def __post_init__(self):
        values = checked_array(self.values, (self.grid.n, self.grid.n), "image values")
        object.__setattr__(self, "values", values)

    def norm(self) -> float:
        """Euclidean norm over all pixels."""
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class PhantomParams:
    """The seed of one randomized phantom; numpy's generators take none below 0."""

    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"phantom seeds must be nonnegative, got {self.seed}")


def rasterize_ellipses(ellipses: np.ndarray, grid: ImageGrid) -> np.ndarray:
    """Sum of ellipse amplitudes at every pixel center.

    ``ellipses`` rows are (amplitude, a, b, x0, y0, angle_radians) with the
    semi-axes in domain units.  A pixel belongs to an ellipse when its
    center lies inside or on the boundary.
    """
    x = grid.axis_x()[None, :]
    y = grid.axis_y()[:, None]
    out = np.zeros((grid.n, grid.n))
    for amp, a, b, x0, y0, ang in ellipses:
        ca, sa = np.cos(ang), np.sin(ang)
        dx = x - x0
        dy = y - y0
        u = (dx * ca + dy * sa) / a
        v = (dy * ca - dx * sa) / b
        out += amp * (u * u + v * v <= 1.0)
    return out


def _draw_ellipses(rng: np.random.Generator, extent: float) -> np.ndarray:
    rows = []
    for amp, a, b, x0, y0, deg in SHEPP_LOGAN:
        factor = rng.uniform(*AMP_RANGE)
        jx, jy = rng.uniform(-POS_JITTER, POS_JITTER, size=2) * extent
        rows.append([amp * factor, a * extent, b * extent, x0 * extent + jx, y0 * extent + jy, np.deg2rad(deg)])

    theta = rng.uniform(*ROT_RANGE)
    ct, st = np.cos(theta), np.sin(theta)
    for row in rows:
        x0, y0 = row[3], row[4]
        row[3] = ct * x0 - st * y0
        row[4] = st * x0 + ct * y0
        row[5] += theta

    n_fine = int(rng.integers(min(3, N_FINE), N_FINE + 1))
    for _ in range(n_fine):
        amp = rng.uniform(0.3, 1.0)
        a, b = rng.uniform(0.01, 0.04, size=2) * extent
        rad = 0.8 * extent * np.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * np.pi)
        ang = rng.uniform(0.0, np.pi)
        rows.append([amp, a, b, rad * np.cos(phi), rad * np.sin(phi), ang])

    return np.array(rows)


def support_mask(grid: ImageGrid) -> np.ndarray:
    """True where pixel centers lie within the allowed phantom support."""
    x = grid.axis_x()[None, :]
    y = grid.axis_y()[:, None]
    return x * x + y * y <= (SUPPORT_RADIUS_FRACTION * grid.extent) ** 2


def generate_phantom(params: PhantomParams, grid: ImageGrid) -> Image:
    """Generate one randomized phantom on ``grid``.

    Deterministic in (params.seed, grid).  The result is nonnegative and
    supported inside the disc of radius 0.9 * extent.
    """
    if grid.n < _MIN_PHANTOM_N:
        raise ConfigError(f"phantom generation needs n >= {_MIN_PHANTOM_N}, got {grid.n}")
    rng = np.random.default_rng(params.seed)
    ellipses = _draw_ellipses(rng, grid.extent)
    values = rasterize_ellipses(ellipses, grid)

    deform_seed = int(rng.integers(0, 2**63))
    values = _deform_values(values, deform_seed, ELASTIC_ALPHA * grid.n / 256.0, ELASTIC_SIGMA * grid.n / 256.0)

    values[~support_mask(grid)] = 0.0
    np.maximum(values, 0.0, out=values)
    return Image(grid, values)


def _deform_values(values: np.ndarray, seed: int, alpha: float, sigma: float) -> np.ndarray:
    """Warp ``values`` by a uniform random displacement field blurred with a Gaussian of
    ``sigma`` pixels and scaled to at most ``alpha`` pixels; bilinear, zero outside."""
    if alpha == 0.0:
        return values.copy()
    rng = np.random.default_rng(seed)
    disp = rng.uniform(-1.0, 1.0, size=(2,) + values.shape)
    disp = ndimage.gaussian_filter(disp, sigma=(0.0, sigma, sigma), mode="constant")
    mag = np.sqrt(disp[0] ** 2 + disp[1] ** 2)
    peak = mag.max()
    if peak > 0:
        disp *= alpha / peak
    n = values.shape[0]
    rows, cols = np.mgrid[0:n, 0:n].astype(np.float64)
    coords = np.stack([rows + disp[0], cols + disp[1]])
    return ndimage.map_coordinates(values, coords, order=1, mode="constant", cval=0.0)

