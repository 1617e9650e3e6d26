"""Weighted universal backprojection.

The reconstruction of an image from sensor traces runs in three stages:
a parameter-free temporal filter q = d/dt (g/t), a singular time
integral I(d) = integral_d^T q(t)/sqrt(t^2 - d^2) dt per detector, and a
geometrically weighted sum over detectors.  Squared per-pixel,
per-detector weights W(x, s)^2 multiply the detector contributions; the
all-ones tensor gives the classical (unweighted) backprojection.

The singular integral is evaluated with piecewise-linear q and the
1/sqrt kernel integrated in closed form on each sub-interval, so the
t -> d endpoint needs no regularization.  For speed, I(d) is tabulated
per detector on a dense distance grid and read back by linear
interpolation; an exact mode computes the closed-form quadrature at
every pixel distance instead.

Contributions are made in two steps: tabulate filters one sample's data
and, in table mode, tabulates the integral t; gather reads a pixel
block's b from that.  In table mode b(p, j) = geom (1 - frac) t[idx, j]
+ geom frac t[idx + 1, j] is a fixed linear map with two nonzeros per
(pixel, detector), kept as one CSR matrix per block (rows p * n_s + j;
the blocks share one row pointer), so a gather is one sparse product;
exact mode makes geom and the distances per gather for the quadrature at
each.  The operator's blocks of BLOCK_VALUES (pixel, detector) values
serve contrib, apply, standard and training alike.  apply and standard
reduce each block as it is made, never holding the
whole (n^2, n_s) b, and check each reduced block for finiteness;
standard_and_apply makes both sums from one gather of each block.  The
weighted sum reduces the detector axis 0 of its arrays: apply passes
transposed views of pixel-major blocks, training detector-major blocks.

The build runs in the same blocks and peaks a few MB above what it
keeps.  Traced with tracemalloc, table mode keeps 35.3 MiB at 256^2 with
20 detectors (the quadrature table included) and peaks at 40.7 MiB, and
keeps 155.3 MiB with 100 detectors, peaking at 161.9 MiB; exact mode
keeps only the pixel centers, 1.0 MiB, peaking at 5.0 MiB.  Before
allocating, the build compares its footprint (operator_bytes) with the
memory available to the process and raises ConfigError when it does
not fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import ConfigError, ShapeMismatchError, checked_array
from .forward import SensorData, time_derivative
from .geometry import DetectorArray, ImageGrid, Scenario, TimeGrid
from .memory import available_memory, require
from .phantoms import Image

TABLE_NODES_PER_DT = 4
# (pixel, detector) values per block, for reconstruction and training
# alike: 1024 pixels at 100 detectors, 5120 at 20.  Counting values, not
# pixels, gives every numpy call of an SGD step the same work at any
# detector count; a block's b is 800 kB in float64
BLOCK_VALUES = 102_400
# float64 arrays of one block counted for the temporaries of an operator
# build: at 256^2 its traced peak exceeded the kept arrays, the table and the
# pixel centers by 7.4, 6.7 and 5.1 of them (table mode at 20 and 100
# detectors, exact mode at 20)
BUILD_TEMPORARIES = 10
# integral_weights' rows per chunk, and the (chunk, n_t) float64 temporaries
# by which traced exact gathers peaked above b, geometry and quadrature matrix
WEIGHT_CHUNK = 128
CHUNK_TEMPORARIES = 9


@dataclass(frozen=True)
class WeightTensor:
    """Per-pixel, per-detector backprojection weights, shape (n, n, n_s)."""

    values: np.ndarray
    grid: ImageGrid

    def __post_init__(self):
        values = checked_array(self.values, (self.grid.n, self.grid.n, None), "weights")
        object.__setattr__(self, "values", values)

    @property
    def n_s(self) -> int:
        return self.values.shape[2]

    @staticmethod
    def ones(grid: ImageGrid, n_s: int) -> "WeightTensor":
        return WeightTensor(np.ones((grid.n, grid.n, n_s)), grid)


@dataclass(frozen=True)
class ContribTensor:
    """Unweighted per-detector backprojection contributions b(x, s_j).

    Summing over the detector axis yields the standard (unweighted)
    backprojection image; the weighted variant sums W^2 * b instead.
    """

    values: np.ndarray
    grid: ImageGrid

    def __post_init__(self):
        values = checked_array(self.values, (self.grid.n, self.grid.n, None), "contributions")
        object.__setattr__(self, "values", values)

    @property
    def n_s(self) -> int:
        return self.values.shape[2]

    def sum_image(self) -> Image:
        return Image(self.grid, self.values.sum(axis=2))


def time_filter(data: SensorData, sound_speed: float = 1.0) -> np.ndarray:
    """q(s, t_k) = central finite difference of g(s,t)/t, one-sided at the
    first and last samples; (n_t, n_s).  No trainable parameters."""
    tau = sound_speed * data.time.samples()
    return time_derivative(data.values / tau[:, None], sound_speed * data.time.dt)


def integral_weights(d: np.ndarray, time: TimeGrid, sound_speed: float = 1.0) -> np.ndarray:
    """Matrix A with (A @ q)[m] = integral_{d_m}^{T} q(t)/sqrt(t^2-d_m^2) dt.

    q is piecewise linear on the sample grid and zero outside [t_1, T].
    On a sub-interval [a, b] clipped from below at d the kernel moments
    integral dt/sqrt(t^2-d^2) = log(t + sqrt(t^2-d^2)) and
    integral t dt/sqrt(t^2-d^2) = sqrt(t^2-d^2) are exact, which removes
    the inverse-square-root singularity at t = d analytically.  Rows with
    d_m >= T are zero.

    Row m is zero on every interval with t_{k+1} <= d_m, so the rows are
    computed in chunks, each from the first interval active in any of its
    rows; sorted distances, as in the lookup table, skip about half.
    """
    d = np.asarray(d, dtype=np.float64)
    tau = sound_speed * time.samples()
    # index of the first interval [t_k, t_{k+1}] with t_{k+1} > d, per row
    first = np.searchsorted(tau[1:], d, side="right")
    weights = np.zeros((d.shape[0], time.n_t))
    for start in range(0, d.shape[0], WEIGHT_CHUNK):
        rows = slice(start, start + WEIGHT_CHUNK)
        k0 = first[rows].min()
        a = tau[k0:-1][None, :]
        b = tau[k0 + 1 :][None, :]
        d_col = d[rows, None]

        # both moments once per node clipped below at d; an active interval
        # (d < b) has b unclipped and its lower end at max(a, d)
        node = np.maximum(tau[k0:][None, :], d_col)
        s = np.sqrt(np.maximum(node**2 - d_col**2, 0.0))
        with np.errstate(invalid="ignore", divide="ignore"):
            log_node = np.log(node + s)
            j0 = log_node[:, 1:] - log_node[:, :-1]
        active = d_col < b
        j0 = np.where(active, j0, 0.0)
        j1 = np.where(active, s[:, 1:] - s[:, :-1], 0.0)

        # linear interpolant on [a, b] is anchored at the left node even when
        # the integration starts at d inside the interval
        w_hi = (j1 - a * j0) / (b - a)
        w_lo = j0 - w_hi

        weights[rows, k0:-1] += w_lo
        weights[rows, k0 + 1 :] += w_hi
    return weights


def pixel_blocks(n_px: int, n_s: int) -> list:
    """Slices of BLOCK_VALUES // n_s pixels, at least two.  numpy sums a
    one-pixel block's detectors pairwise, not row by row, so a lone last
    pixel joins the block before."""
    bounds = list(range(0, max(n_px - 1, 1), max(BLOCK_VALUES // n_s, 2))) + [n_px]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def gather_bytes(block: int, n_s: int, n_t: int, exact: bool) -> int:
    """Bytes one gather of ``block`` pixels allocates: the float64 b and, in exact
    mode, six float64 values per (pixel, detector) for its geometry (traced, it
    peaks at 41 B), then one detector's (block, n_t) quadrature matrix and its chunk temporaries."""
    exact_bytes = 8 * block * (6 * n_s + n_t) + 8 * CHUNK_TEMPORARIES * min(block, WEIGHT_CHUNK) * n_t
    return 8 * block * n_s + (exact_bytes if exact else 0)


def operator_bytes(n_px: int, n_s: int, n_t: int, exact: bool) -> int:
    """Footprint of a BackprojectionOperator build: in table mode what it
    keeps, a gather matrix row per (pixel, detector) (two float64 values
    and two int32 indices, 24 B), the blocks' one shared row pointer and
    the quadrature table; in exact mode, which keeps nothing per (pixel,
    detector), one gather of the largest block (gather_bytes); in both the
    pixel centers and one pixel block of temporaries."""
    largest = max(span.stop - span.start for span in pixel_blocks(n_px, n_s))
    table = (TABLE_NODES_PER_DT * n_t + 1) * n_t * 8 + (largest * n_s + 1) * 4
    own = gather_bytes(largest, n_s, n_t, exact) if exact else n_px * n_s * 24 + table
    return own + n_px * 16 + BUILD_TEMPORARIES * largest * n_s * 8


class BackprojectionOperator:
    """Backprojection machinery precomputed for one acquisition geometry.

    In table mode everything that does not depend on the measured data (the
    geometric factor (1/pi) <nu, x-s> ds, the singular integral quadrature
    matrix and the table lookups) is built once here, so training loops and
    batch evaluations pay only two small matrix products per sample.
    Contributions come from :meth:`tabulate`, once per sample, and
    :meth:`gather`, once per pixel block of :attr:`blocks`, in both modes.
    """

    def __init__(
        self,
        grid: ImageGrid,
        detectors: DetectorArray,
        time: TimeGrid,
        sound_speed: float = 1.0,
        exact: bool = False,
    ):
        if not 0 < sound_speed < np.inf:
            raise ConfigError(f"sound speed must be positive and finite, got {sound_speed}")
        self.grid = grid
        self.detectors = detectors
        self.time = time
        self.sound_speed = sound_speed
        self.exact = exact

        n_px, n_s = grid.n * grid.n, detectors.n_s
        # fail before allocating rather than swap
        require(
            f"the backprojection operator at n={grid.n}, n_s={n_s} in {'exact' if exact else 'table'} mode",
            operator_bytes(n_px, n_s, time.n_t, exact),
            available_memory(),
        )
        self.blocks = pixel_blocks(n_px, n_s)
        pixels = grid.pixel_centers().reshape(-1, 2)
        if exact:
            # each gather makes its block's geometry; this pass only checks it
            for span in self.blocks:
                self._block_geometry(pixels[span])
            self._pixels = pixels
            return
        n_d = TABLE_NODES_PER_DT * time.n_t
        step = sound_speed * time.t_final / n_d
        # the table first, so that its build's temporaries come before the kept matrices
        self._table_matrix = integral_weights(np.arange(n_d + 1) * step, time, sound_speed)
        # every row holds two nonzeros: one read-only row pointer of the largest block, a prefix of it per block
        indptr = np.arange(0, 2 * max(span.stop - span.start for span in self.blocks) * n_s + 1, 2, dtype=np.int32)
        indptr.flags.writeable = False
        self._gather_matrices = [
            self._gather_matrix(*self._block_geometry(pixels[span]), step, n_d, indptr) for span in self.blocks
        ]

    def _block_geometry(self, pixels: np.ndarray):
        """The geometric factor and the distances of ``pixels``, (pixels, n_s) each."""
        detectors = self.detectors
        diff = pixels[:, None, :] - detectors.positions[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        if np.any(dist == 0.0):
            raise ConfigError("a pixel center coincides with a detector position")
        outward_dot = np.einsum("psk,sk->ps", diff, detectors.normals)
        # the 1/pi constant makes the unweighted sum an exact inversion of
        # the forward solution formula on dense full-view data (verified
        # against a high-precision radial quadrature oracle)
        geom = (1.0 / np.pi) * outward_dot * detectors.arc_weight
        # causality: contributions vanish once the distance exceeds the window
        geom[dist >= self.sound_speed * self.time.samples()[-1]] = 0.0
        return geom, dist

    def _gather_matrix(self, geom: np.ndarray, dist: np.ndarray, step: float, n_d: int, indptr: np.ndarray):
        """The block's b as a sparse map of the raveled (n_d + 1, n_s) table:
        row p * n_s + j interpolates column j at dist[p, j], times geom[p, j]."""
        n_s = self.detectors.n_s
        pos = dist / step
        idx = np.minimum(pos.astype(np.int64), n_d - 1)
        frac = pos - idx
        values = np.empty(dist.shape + (2,))
        np.multiply(geom, 1.0 - frac, out=values[..., 0])
        np.multiply(geom, frac, out=values[..., 1])
        columns = np.empty(dist.shape + (2,), dtype=np.int32)
        columns[..., 0] = idx * n_s + np.arange(n_s)
        columns[..., 1] = columns[..., 0] + n_s
        return scipy.sparse.csr_array((values.ravel(), columns.ravel(), indptr[: dist.size + 1]),
                                      shape=(dist.size, (n_d + 1) * n_s))

    @classmethod
    def from_scenario(cls, scenario: Scenario, exact: bool = False) -> "BackprojectionOperator":
        return cls(scenario.grid, scenario.detectors, scenario.time, scenario.sound_speed, exact)

    def _check(self, data: SensorData):
        if data.time != self.time:
            raise ShapeMismatchError(f"data time grid {data.time} does not match the operator's {self.time}")
        if data.detectors != self.detectors:
            raise ShapeMismatchError("data detectors do not match the operator's")

    def tabulate(self, data: SensorData) -> np.ndarray:
        """The per-sample part of b: the filtered data q in exact mode, else
        the singular integral tabulated on the distance nodes, (n_d + 1, n_s)."""
        self._check(data)
        q = time_filter(data, self.sound_speed)
        return q if self.exact else self._table_matrix @ q

    def table_bytes(self) -> int:
        """Bytes of one :meth:`tabulate` output."""
        rows = self.time.n_t if self.exact else self._table_matrix.shape[0]
        return rows * self.detectors.n_s * 8

    def gather(self, table: np.ndarray, k: int) -> np.ndarray:
        """The rows of block ``k`` of the flattened (n^2, n_s) contributions
        b, read from one sample's :meth:`tabulate` output."""
        if not self.exact:
            return (self._gather_matrices[k] @ table.ravel()).reshape(-1, self.detectors.n_s)
        geom, dist = self._block_geometry(self._pixels[self.blocks[k]])
        b = np.empty_like(dist)
        for j in range(self.detectors.n_s):
            # a row-wise sum, not BLAS gemv, whose last bits depend
            # on the row count and the thread split
            a_mat = integral_weights(dist[:, j], self.time, self.sound_speed)
            a_mat *= table[:, j]
            b[:, j] = a_mat.sum(axis=1)
            del a_mat  # freed before the next detector's (block, n_t) matrix is made
        b *= geom
        return b

    def gather_bytes(self) -> int:
        """:func:`gather_bytes` of the largest block: what one :meth:`gather` allocates."""
        return gather_bytes(max(s.stop - s.start for s in self.blocks), self.detectors.n_s, self.time.n_t, self.exact)

    def gather_image(self, table: np.ndarray) -> np.ndarray:
        """The whole flattened (n^2, n_s) contributions b, block by block."""
        b = np.empty((self.grid.n**2, self.detectors.n_s))
        for k, span in enumerate(self.blocks):
            b[span] = self.gather(table, k)
        return b

    def contrib(self, data: SensorData) -> ContribTensor:
        """Per-detector contributions b(x, s_j) for one data matrix."""
        return ContribTensor(self.gather_image(self.tabulate(data)).reshape(self.grid.n, self.grid.n, -1), self.grid)

    def apply(self, weights: WeightTensor, data: SensorData) -> Image:
        """sum_j W^2 b for one data matrix, reduced block by block."""
        return self._reduce_blocks(data, weights)[0]

    def standard_and_apply(self, weights: WeightTensor, data: SensorData) -> tuple[Image, Image]:
        """:meth:`standard` and :meth:`apply`, bitwise, from one gather of
        each pixel block."""
        return self._reduce_blocks(data, None, weights)

    def _reduce_blocks(self, data: SensorData, *weights) -> tuple[Image, ...]:
        """One image per weight tensor, sum_j W^2 b, or the plain sum of b for None."""
        rows = [None if w is None else self.check_weights(w) for w in weights]
        images = np.empty((len(weights), self.grid.n**2))
        table = self.tabulate(data)
        for k, span in enumerate(self.blocks):
            b = self.gather(table, k)
            for image, w in zip(images, rows):
                image[span] = b.sum(axis=1) if w is None else self.apply_values(w[span].T, b.T)
            # weights are finite, so a non-finite b always makes its pixel's
            # sums non-finite; b itself is looked at only then
            if not np.all(np.isfinite(images[:, span])) and not np.all(np.isfinite(b)):
                raise ShapeMismatchError("contributions must be finite")
        return tuple(Image(self.grid, image.reshape(self.grid.n, self.grid.n)) for image in images)

    @staticmethod
    def apply_values(w_values: np.ndarray, b_values: np.ndarray, out=None) -> np.ndarray:
        """Weighted detector sum over axis 0 of (n_s, ...) raw arrays, no
        validation; the product W^2 b is formed in ``out`` when given.

        Kept as the single definition of the reduction.  The memory layout
        sets the summation order: numpy adds the rows of a C-contiguous
        (n_s, pixels) array in order, and sums a contiguous detector axis,
        as in the ``.T`` view of a pixel-major (pixels, n_s) array or a
        single pixel, pairwise.  On pixel-major arrays it matches
        ContribTensor.sum_image term for term, so W = 1 reproduces the
        unweighted sum bitwise (multiplying by 1.0 is exact); the training
        loop reuses it on detector-major, not-yet-validated arrays.
        """
        prod = np.square(w_values, out=out)
        prod *= b_values
        return prod.sum(axis=0)

    def check_weights(self, weights: WeightTensor) -> np.ndarray:
        """The weights' (n^2, n_s) pixel rows, once they match the operator."""
        if weights.grid != self.grid or weights.n_s != self.detectors.n_s:
            raise ShapeMismatchError(
                f"weights ({weights.grid.n}, {weights.grid.n}, {weights.n_s}) do not match operator "
                f"({self.grid.n}, {self.grid.n}, {self.detectors.n_s})"
            )
        return weights.values.reshape(-1, self.detectors.n_s)

    def apply_to_contrib(self, weights: WeightTensor, b: ContribTensor) -> Image:
        self.check_weights(weights)
        return Image(self.grid, self.apply_values(np.moveaxis(weights.values, -1, 0), np.moveaxis(b.values, -1, 0)))

    def standard(self, data: SensorData) -> Image:
        """Unweighted backprojection (the W = 1 special case, summed directly),
        reduced block by block; bitwise ContribTensor.sum_image."""
        return self._reduce_blocks(data, None)[0]

