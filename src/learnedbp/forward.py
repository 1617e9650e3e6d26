"""Wave-data simulation: source image to detector pressure traces.

The pressure at a detector is the time derivative of an Abel-type
integral over circular means of the source around that detector.  The
simulator tabulates the means on a fine radial grid, integrates the
inverse-square-root kernel exactly on each radial sub-interval (the
singularity at r = t is handled analytically), and differentiates in
time with finite differences.  Each angular sample is multiplied by the
receiving detector's sensitivity: cos^2 with directivity, 1 without.

The image is read with bilinear interpolation, zero outside the grid.
Each image is turned once into a table of its cells' bilinear
polynomials (see :func:`cell_table`), padded with cells of zeros, so a
circle sample is one cell index and two fractional offsets, and reading
it is one gather and a few products; a sample on or beyond the padded
border reads a cell of zeros.  Each ray from a detector is clipped to
the batch's support disk (the farthest nonzero pixel centre plus
h*sqrt(2)), and angles of directivity 0 are skipped.  Every sample left
out would add exactly 0 to its radial bin, so the sums are bitwise
those of gathering the whole square.  The samples are gathered in
blocks of whole rays of about GATHER_BLOCK samples, each added into the
bins in order, so the simulator's working memory does not grow with the
grid or depend on the images' support, and an image's sums do not
depend on the block size.

The canonical detector layouts are symmetric under y -> -y, as are the
pixel grid and the angular nodes, so each mirror pair of detectors is
sampled once: the lower-index detector's samples read the image and its
row-flipped copy, and the copy's means are the partner's to rounding.  A
detector without a partner is a pair without the flipped half, so every
detector goes through the same call, and the lower-index and unpaired
detectors' means are bitwise those of sampling each alone.

Such a detector unit (a mirror pair, or a detector without one) writes
only its own columns of the batch's mean tables, so the units are shared
out between the calling thread and, when the process may run on two or
more cores, one worker thread (WORKERS: the usable cores, at most 2).
The worker is started on first use and kept for the process; with one
usable core the caller gathers every unit and no thread is started.
Which thread gathers a unit does not change its bits, so the data are
bitwise the same for one and two workers.  Each participant gathers into
block buffers the caller allocates once per call (see _gather_buffers).
The cell tables, the Abel product and the time derivative stay on the
caller: each image gets its own Abel product, a single-threaded plain sum
in column order over the quadrature matrix's CSR staircase, so its data
do not depend on the batch and the product starts no BLAS threads.
Before allocating, the build compares the footprint of itself and of one
GEN_CHUNK batch (simulation_bytes) with the memory available to the
process and raises ConfigError when it does not fit.
"""

from __future__ import annotations

import collections
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import ConfigError, ShapeMismatchError, checked_array
from .geometry import DetectorArray, ImageGrid, Scenario, TimeGrid, directivity_factors
from .memory import available_memory, require
from .phantoms import Image

DEFAULT_N_R_PER_DT = 4
# circle samples gathered at once: a few MB of buffers per participant
GATHER_BLOCK = 1 << 16
# largest distance, relative to the detection radius, between one detector's
# position and the other's mirror image (and between their unit normals) at
# which two detectors count as each other's mirror image
MIRROR_TOLERANCE = 1e-12
# gen-data simulates this many images per simulate_batch call, and the
# operator's memory check counts one such batch; an image's data do not
# depend on the batch, and the batch's cell tables grow with it
GEN_CHUNK = 8
# (n_t, n_r + 1) float64 arrays counted for an operator build: its traced
# peak was 5.3 of them, the dense quadrature matrix it keeps included
QUADRATURE_ARRAYS = 6
# bytes per circle sample of one participant's gather buffers: two int64 and three
# float64 rows of sample geometry and the four rows a cell table is taken into
GATHER_SAMPLE_BYTES = 72
# threads that gather detector units in simulate_batch: the calling thread and,
# when the process may run on two or more cores, one worker thread
WORKERS = min(len(os.sched_getaffinity(0)), 2)
# name prefix of the simulator's worker thread
WORKER_THREAD = "learnedbp-simulate"


@dataclass(frozen=True)
class SensorData:
    """Simulated pressure samples, one column per detector."""

    values: np.ndarray
    time: TimeGrid
    detectors: DetectorArray

    def __post_init__(self):
        values = checked_array(self.values, (self.time.n_t, self.detectors.n_s), "sensor data")
        object.__setattr__(self, "values", values)


def default_n_angles(grid: ImageGrid) -> int:
    return 4 * grid.n


def circle_nodes(n_angles: int) -> np.ndarray:
    """Unit vectors at the uniform angles 2*pi*a/n_angles, as (n_angles, 2)."""
    theta = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def cell_table(values: np.ndarray) -> np.ndarray:
    """Bilinear coefficients of every cell of an (n, n) image, as
    (4, (n + 2)**2).

    Cell (i, j) spans the pixel centres i, i + 1 (rows) and j, j + 1
    (columns) of the image padded by one zero pixel on the top and left
    and two on the bottom and right, so a point at padded coordinate
    (i + fr, j + fc) with fr, fc in [0, 1] reads
    c0 + fc*c1 + fr*(c2 + fc*c3).  Row and column n + 1 are cells of
    zeros, so a coordinate clamped to n + 1 needs no clamp of its cell.
    """
    n = values.shape[0]
    padded = np.zeros((n + 3, n + 3))
    padded[1 : n + 1, 1 : n + 1] = values
    f00, f01 = padded[:-1, :-1], padded[:-1, 1:]
    f10, f11 = padded[1:, :-1], padded[1:, 1:]
    table = np.empty((4, n + 2, n + 2))
    table[0] = f00
    np.subtract(f01, f00, out=table[1])
    np.subtract(f10, f00, out=table[2])
    np.subtract(f11, f10, out=table[3])
    table[3] -= f01
    table[3] += f00
    return table.reshape(4, -1)


def abel_weights(tau: np.ndarray, r: np.ndarray, nodes_per_sample: int) -> np.ndarray:
    """Quadrature matrix turning a table M(r_i) into V(tau_k).

    V(tau) = integral_0^tau M(r)/sqrt(tau^2 - r^2) dr with M piecewise
    linear on the radial grid.  On each covered sub-interval the kernel
    moments integral dr/sqrt(tau^2-r^2) = arcsin(r/tau) and
    integral r dr/sqrt(tau^2-r^2) = -sqrt(tau^2-r^2) are used exactly, so
    the endpoint r -> tau is handled analytically.  ``tau`` must coincide
    with every ``nodes_per_sample``-th radial node.
    """
    n_t = tau.shape[0]
    n_r = r.shape[0] - 1
    r_lo = r[:-1][None, :]
    r_hi = r[1:][None, :]
    tau_col = tau[:, None]

    # interval i is covered by the integral up to tau_k iff i+1 <= k*nodes_per_sample
    covered = (np.arange(1, n_r + 1)[None, :] <= nodes_per_sample * np.arange(1, n_t + 1)[:, None])

    with np.errstate(invalid="ignore", divide="ignore"):
        k0 = np.arcsin(np.clip(r / tau_col, 0.0, 1.0))
        k0 = np.where(covered, k0[:, 1:] - k0[:, :-1], 0.0)
        k1 = np.sqrt(np.maximum(tau_col**2 - r**2, 0.0))
        k1 = np.where(covered, k1[:, :-1] - k1[:, 1:], 0.0)

    w_hi = (k1 - r_lo * k0) / (r_hi - r_lo)
    w_lo = k0 - w_hi

    weights = np.zeros((n_t, n_r + 1))
    weights[:, :-1] += w_lo
    weights[:, 1:] += w_hi
    return weights


def time_derivative(v: np.ndarray, dt: float) -> np.ndarray:
    """Central finite difference along axis 0, one-sided at both ends."""
    return np.gradient(v, dt, axis=0)


def simulation_bytes(n: int, n_s: int, n_t: int, n_angles: int, n_r_per_dt: int) -> int:
    """Footprint of a ForwardOperator build and one simulate_batch of
    GEN_CHUNK images on an (n, n) grid: the build's quadrature arrays and
    the directivity table, the batch's cell tables and their row-flipped
    copies, its mean tables and data, and one set of gather buffers per
    participant (WORKERS of them)."""
    n_r = n_t * n_r_per_dt
    build = QUADRATURE_ARRAYS * n_t * (n_r + 1) + n_s * n_angles
    batch = GEN_CHUNK * (2 * 4 * (n + 2) ** 2 + (n_r + 1) * n_s + 2 * n_t * n_s)
    gather = GATHER_SAMPLE_BYTES * (GATHER_BLOCK + n_r + 1) + 8 * 2 * GEN_CHUNK * (n_r + 1)
    return 8 * (build + batch) + WORKERS * gather


@functools.cache
def _worker(pid: int) -> ThreadPoolExecutor:
    """The simulator's one worker thread, started on first use and kept;
    keyed by process id, so a forked child starts its own."""
    return ThreadPoolExecutor(1, thread_name_prefix=WORKER_THREAD)


class ForwardOperator:
    """Precomputed simulation machinery for one scenario.

    Building the operator validates that the measured time window covers
    the whole grid (otherwise late arrivals would be silently truncated)
    and caches the radial grid, angular nodes, directivity table and the
    Abel quadrature matrix, which are shared by every simulated image.
    """

    def __init__(self, scenario: Scenario, n_angles: int | None = None, n_r_per_dt: int = DEFAULT_N_R_PER_DT):
        if n_angles is None:
            n_angles = default_n_angles(scenario.grid)
        if n_angles < 8:
            raise ConfigError("need at least 8 angular nodes")
        if n_r_per_dt < 1:
            raise ConfigError("n_r_per_dt must be at least 1")
        self.scenario = scenario
        self.n_angles = n_angles
        self.n_r_per_dt = n_r_per_dt

        grid, det, time = scenario.grid, scenario.detectors, scenario.time
        tau_max = scenario.sound_speed * time.t_final
        ext = grid.extent - 0.5 * grid.spacing
        corners = np.array([[-ext, -ext], [-ext, ext], [ext, -ext], [ext, ext]])
        reach = np.linalg.norm(corners[None, :, :] - det.positions[:, None, :], axis=2).max()
        if reach > tau_max:
            raise ConfigError(
                f"time window too short: max pixel-detector distance {reach:.4g} exceeds "
                f"sound_speed * t_final = {tau_max:.4g}"
            )

        # fail before allocating rather than swap
        require(
            f"simulating {GEN_CHUNK} images at once at n={grid.n}, n_s={det.n_s}",
            simulation_bytes(grid.n, det.n_s, time.n_t, n_angles, n_r_per_dt),
            available_memory(),
        )

        n_r = time.n_t * n_r_per_dt
        self.radii = np.arange(n_r + 1) * (tau_max / n_r)
        # quadrature row k is nonzero in its first n_r_per_dt*(k+1)+1 columns; the CSR keeps them in the
        # dense buffer, so the gather's blocks reuse the build's freed heap instead of trimming it
        width = n_r_per_dt * np.arange(1, time.n_t + 1) + 1
        inside = np.arange(n_r + 1) < width[:, None]
        abel = abel_weights(self.radii[n_r_per_dt::n_r_per_dt], self.radii, n_r_per_dt)
        data = abel.reshape(-1)[: width.sum()]
        data[:] = abel[inside]
        cols = np.broadcast_to(np.arange(n_r + 1), inside.shape)[inside]
        self.abel = scipy.sparse.csr_array((data, cols, np.r_[0, np.cumsum(width)]), shape=inside.shape)
        self.omega = circle_nodes(n_angles)
        self.phi = (directivity_factors(det.normals, self.omega) if scenario.directivity_enabled
                    else np.ones((det.n_s, n_angles)))  # no directivity: sensitivity 1 on every ray
        # mirror[j] = k when detector k is detector j reflected in the x-axis,
        # else j; as complex numbers the reflection conjugates position and normal
        z, u = (det.positions / det.radius) @ [1, 1j], det.normals @ [1, 1j]
        match = np.maximum(np.abs(z[:, None] - z.conj()), np.abs(u[:, None] - u.conj())) <= MIRROR_TOLERANCE
        index = np.arange(det.n_s)
        first = np.where(match.any(axis=1), match.argmax(axis=1), index)
        # only mutual matches pair up; detectors on the x-axis mirror themselves
        self.mirror = np.where(first[first] == index, first, index)

    def _support_radius(self, images) -> float:
        """Radius outside which every cell a sample reads holds only zero
        pixels of ``images``: the farthest nonzero pixel centre plus
        h*sqrt(2), the farthest a cell corner lies from a sample point in
        it; -1 if all are zero."""
        grid = self.scenario.grid
        dist = np.hypot(grid.axis_x()[None, :], grid.axis_y()[:, None])
        far = max((dist[img.values != 0].max(initial=-1.0) for img in images), default=-1.0)
        return far + np.sqrt(2.0) * grid.spacing if far >= 0 else -1.0

    def _gather_buffers(self, n_tables: int) -> tuple:
        """One participant's gather buffers for blocks of up to
        GATHER_BLOCK samples plus one ray: int64 rows for the samples'
        radial nodes and cells, float64 rows for their row and column
        offsets and directivity, the four rows a cell table is taken into,
        and ``n_tables`` rows of radial sums."""
        size = GATHER_BLOCK + self.radii.shape[0]
        return (np.empty((2, size), np.int64), np.empty((3, size)), np.empty(4 * size),
                np.empty((n_tables, self.radii.shape[0])))

    def _sample_blocks(self, j: int, radius: float, buffers: tuple):
        """Every circle sample of detector ``j`` that can be nonzero, in
        blocks of whole rays of about GATHER_BLOCK samples, in angle order.

        The ray p_j + r*omega_a meets the disk |x| <= ``radius`` in the
        chord r^2 + 2r(p_j . omega_a) + |p_j|^2 - radius^2 <= 0.  Only the
        radial nodes inside it, widened by one node at each end, are
        sampled; rays that miss the disk or have directivity 0 get none.
        Yields their radial node indices, their flat cell indices into a
        :func:`cell_table`, the fractional row and column offsets in the
        cell, and their directivity (all ones when it is disabled), as
        views of ``buffers`` (see _gather_buffers) that the next block
        overwrites.
        """
        grid = self.scenario.grid
        n, h = grid.n, grid.spacing
        pos = self.scenario.detectors.positions[j]
        b = self.omega @ pos
        disc = b * b - pos @ pos + radius * radius
        chord = np.sqrt(np.maximum(disc, 0.0))

        dr = self.radii[1]
        n_r = self.radii.shape[0] - 1
        first = np.clip(np.ceil((-b - chord) / dr) - 1, 0, n_r + 1).astype(np.int64)
        last = np.clip(np.floor((-b + chord) / dr) + 1, -1, n_r).astype(np.int64)
        count = np.maximum(last - first + 1, 0)
        # radius**2 of a negative radius is positive, so test its sign too
        seen = (disc >= 0) & (radius >= 0) & (self.phi[j] > 0)
        count[~seen] = 0

        nodes = np.arange(n_r + 1)
        # each ray's direction (y, x: the order of the fr and fc rows) and directivity, along its nodes
        along = np.stack([self.omega[:, 1], self.omega[:, 0], self.phi[j]], axis=1)[:, :, None]
        along = np.broadcast_to(along, (self.n_angles, 3, n_r + 1))
        # rays go to the block their first sample falls in: at most GATHER_BLOCK samples plus one ray
        offset = np.cumsum(count) - count
        cuts = np.flatnonzero(np.diff(offset // GATHER_BLOCK)) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, self.n_angles]):
            live = np.flatnonzero(count[lo:hi]) + lo
            if live.size == 0:
                continue
            size = count[live].sum()
            node, cell = buffers[0][:, :size]
            fr, fc, phi = buffers[1][:, :size]
            # until the cell tables are taken into it, the take buffer holds
            # the samples' radii and then their row and column indices
            r, col = buffers[2][: 2 * size].reshape(2, -1)
            # the rays' consecutive radial nodes, directions and directivity,
            # joined straight into the buffers
            rays = list(zip(live.tolist(), first[live].tolist(), count[live].tolist()))
            np.concatenate([nodes[f : f + m] for _, f, m in rays], out=node)
            np.concatenate([along[a, :, :m] for a, _, m in rays], axis=1, out=buffers[1][:, :size])
            np.multiply(node, dr, out=r)
            # padded pixel coordinates, clamped to [0, n + 1]: a point on or
            # beyond the padded border lands in a cell of zeros
            fc *= r
            fc += pos[0]
            fc += grid.extent
            fr *= r
            fr += pos[1]
            np.subtract(grid.extent, fr, out=fr)
            for c in (fc, fr):
                c /= h
                c += 0.5
                np.clip(c, 0.0, n + 1.0, out=c)
            # each sample's cell row and column: the floors (the truncations, as the
            # coordinates are nonnegative), the row written over the radii
            row = np.floor(fr, out=r)
            np.floor(fc, out=col)
            fr -= row
            fc -= col
            row *= n + 2
            row += col
            np.copyto(cell, row, casting="unsafe")  # an integer-valued float
            yield node, cell, fr, fc, phi

    def _tables(self, j: int, radius: float, cells, buffers: tuple) -> np.ndarray:
        """Radius-weighted directional circular means around detector
        ``j`` at every radial node, one row per :func:`cell_table`, as a
        view of ``buffers``' sums (see _gather_buffers).

        Each block's samples are added into their bins in order, the same
        sequence of additions a single np.bincount of all of them makes."""
        sums = buffers[3][: len(cells)]
        sums.fill(0.0)
        for node, cell, fr, fc, phi in self._sample_blocks(j, radius, buffers):
            # a contiguous out and mode="clip" (every cell is in range) let
            # numpy take into the buffer directly instead of through a copy
            c0, c1, c2, c3 = taken = buffers[2][: 4 * node.size].reshape(4, -1)
            for k, table in enumerate(cells):
                table.take(cell, axis=1, out=taken, mode="clip")
                # c0 + fc*c1 + fr*(c2 + fc*c3), in place
                c3 *= fc
                c3 += c2
                c3 *= fr
                c1 *= fc
                c1 += c0
                c1 += c3
                c1 *= phi
                np.add.at(sums[k], node, c1)
        sums *= self.radii
        sums /= self.n_angles
        return sums

    def _gather_units(self, units, radius: float, cells, flipped, tables: np.ndarray, buffers: tuple):
        """Gather the detector units ``units`` hands out into their own
        columns of ``tables`` until it is exhausted.  On an error the
        iterator is exhausted first, so the other participant stops after
        its current unit."""
        try:
            for j, k in units:
                # a lone detector (k == j) is a pair without its flipped half
                means = self._tables(j, radius, cells + flipped if k > j else cells, buffers)
                tables[:, :, j], tables[:, :, k] = means[: len(cells)], means[-len(cells) :]
        except BaseException:
            collections.deque(units, maxlen=0)
            raise

    def simulate(self, img: Image) -> SensorData:
        return self.simulate_batch([img])[0]

    def simulate_batch(self, images) -> list[SensorData]:
        """Simulate several images at once, sampling each detector's
        circles once for the whole batch and each mirror pair's once for
        the batch and its row-flipped copies, the detector units shared out
        between this thread and the simulator's worker.  Each image's data
        are bitwise those of simulating it alone, with any worker count."""
        grid, det, time = self.scenario.grid, self.scenario.detectors, self.scenario.time
        for img in images:
            if img.grid != grid:
                raise ShapeMismatchError(f"image grid {img.grid} does not match scenario grid {grid}")
        if not images:
            return []
        radius = self._support_radius(images)
        cells = [cell_table(img.values) for img in images]
        # detector k = mirror[j] > j reads the image at the mirror points of
        # j's samples, which are j's samples of the row-flipped image
        flipped = [cell_table(img.values[::-1]) for img in images]
        tables = np.empty((len(images), self.radii.shape[0], det.n_s))
        units = [(j, k) for j, k in enumerate(self.mirror) if k >= j]
        # the buffers are allocated here, so the worker allocates no block-sized array
        buffers = [self._gather_buffers(2 * len(images)) for _ in range(min(WORKERS, len(units)))]
        # one iterator hands each unit out once, to whichever participant asks first (next()
        # on a list iterator is one C call, which the interpreter lock makes atomic)
        gather = functools.partial(self._gather_units, iter(units), radius, cells, flipped, tables)
        helpers = [_worker(os.getpid()).submit(gather, own) for own in buffers[1:]]
        try:
            gather(buffers[0])
        finally:
            wait(helpers)
        for helper in helpers:
            helper.result()
        return [SensorData(time_derivative(self.abel @ table, time.dt), time, det) for table in tables]
