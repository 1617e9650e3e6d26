"""Randomized Shepp-Logan style source images.

Training and test sources are variations of the classic head phantom:
ellipse centers and amplitudes are jittered, the whole layout is rotated
by a random angle, a handful of small high-contrast ellipses is added,
and the result is warped by a smooth random elastic deformation.  All
randomness is drawn from a single seeded generator, so a phantom is a
pure function of (params, grid).
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
    """Controls for the randomized phantom generator.

    ``amp_range`` multiplies each base ellipse amplitude, ``pos_jitter``
    shifts each center by up to that fraction of the extent per axis, and
    ``rot_range`` bounds the global rotation angle (radians).  ``n_fine``
    caps the number of added small ellipses; the actual count is drawn
    uniformly from [min(3, n_fine), n_fine].  ``elastic_alpha`` (max
    displacement) and ``elastic_sigma`` (smoothing width) are in pixels;
    left at None they default to 3 and 8 at n=256, scaled with the grid.
    """

    seed: int = 0
    n_ellipses_base: int = 10
    n_fine: int = 8
    amp_range: tuple[float, float] = (0.7, 1.3)
    pos_jitter: float = 0.05
    rot_range: tuple[float, float] = (0.0, 2.0 * np.pi)
    elastic_alpha: float | None = None
    elastic_sigma: float | None = None

    def __post_init__(self):
        if not 0 <= self.n_ellipses_base <= len(SHEPP_LOGAN):
            raise ConfigError(f"n_ellipses_base must be in [0, {len(SHEPP_LOGAN)}]")
        if self.n_fine < 0:
            raise ConfigError("n_fine must be nonnegative")
        for name, rng in (("amp_range", self.amp_range), ("rot_range", self.rot_range)):
            lo, hi = rng
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ConfigError(f"{name} must be a finite (lo, hi) range with lo <= hi")
        if self.pos_jitter < 0:
            raise ConfigError("pos_jitter must be nonnegative")
        if self.elastic_alpha is not None and self.elastic_alpha < 0:
            raise ConfigError("elastic_alpha must be nonnegative")
        if self.elastic_sigma is not None and not self.elastic_sigma > 0:
            raise ConfigError("elastic_sigma must be positive")


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


def _draw_ellipses(params: PhantomParams, rng: np.random.Generator, extent: float) -> np.ndarray:
    base = SHEPP_LOGAN[: params.n_ellipses_base].copy()
    rows = []
    for amp, a, b, x0, y0, deg in base:
        factor = rng.uniform(*params.amp_range)
        jx, jy = rng.uniform(-params.pos_jitter, params.pos_jitter, size=2) * extent
        rows.append([amp * factor, a * extent, b * extent, x0 * extent + jx, y0 * extent + jy, np.deg2rad(deg)])

    theta = rng.uniform(*params.rot_range)
    ct, st = np.cos(theta), np.sin(theta)
    for row in rows:
        x0, y0 = row[3], row[4]
        row[3] = ct * x0 - st * y0
        row[4] = st * x0 + ct * y0
        row[5] += theta

    n_fine = int(rng.integers(min(3, params.n_fine), params.n_fine + 1))
    for _ in range(n_fine):
        amp = rng.uniform(0.3, 1.0)
        a, b = rng.uniform(0.01, 0.04, size=2) * extent
        rad = 0.8 * extent * np.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * np.pi)
        ang = rng.uniform(0.0, np.pi)
        rows.append([amp, a, b, rad * np.cos(phi), rad * np.sin(phi), ang])

    return np.array(rows) if rows else np.zeros((0, 6))


def support_mask(grid: ImageGrid) -> np.ndarray:
    """True where pixel centers lie within the allowed phantom support."""
    x = grid.axis_x()[None, :]
    y = grid.axis_y()[:, None]
    return x * x + y * y <= (SUPPORT_RADIUS_FRACTION * grid.extent) ** 2


def generate_phantom(params: PhantomParams, grid: ImageGrid) -> Image:
    """Generate one randomized phantom on ``grid``.

    Deterministic in (params, grid).  The result is nonnegative and
    supported inside the disc of radius 0.9 * extent.
    """
    if grid.n < _MIN_PHANTOM_N:
        raise ConfigError(f"phantom generation needs n >= {_MIN_PHANTOM_N}, got {grid.n}")
    rng = np.random.default_rng(params.seed)
    ellipses = _draw_ellipses(params, rng, grid.extent)
    values = rasterize_ellipses(ellipses, grid)

    alpha = params.elastic_alpha if params.elastic_alpha is not None else 3.0 * grid.n / 256.0
    sigma = params.elastic_sigma if params.elastic_sigma is not None else 8.0 * grid.n / 256.0
    deform_seed = int(rng.integers(0, 2**63))
    values = _deform_values(values, deform_seed, alpha, sigma)

    values[~support_mask(grid)] = 0.0
    np.maximum(values, 0.0, out=values)
    return Image(grid, values)


def _deform_values(values: np.ndarray, seed: int, alpha: float, sigma: float) -> np.ndarray:
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


def elastic_deform(img: Image, seed: int, alpha: float, sigma: float) -> Image:
    """Warp ``img`` by a smooth random displacement field.

    A per-pixel uniform random field is blurred with a Gaussian of width
    ``sigma`` pixels and rescaled so its largest displacement is ``alpha``
    pixels, then the image is resampled with bilinear interpolation (zero
    outside the domain).  ``alpha = 0`` returns the image unchanged.
    """
    if alpha < 0:
        raise ConfigError("alpha must be nonnegative")
    if not sigma > 0:
        raise ConfigError("sigma must be positive")
    return Image(img.grid, _deform_values(img.values, seed, alpha, sigma))

