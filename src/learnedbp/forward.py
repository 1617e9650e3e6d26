"""Wave-data simulation: source image to detector pressure traces.

The pressure at a detector is the time derivative of an Abel-type
integral over circular means of the source around that detector.  The
simulator tabulates the means on a fine radial grid, integrates the
inverse-square-root kernel exactly on each radial sub-interval (the
singularity at r = t is handled analytically), and differentiates in
time with finite differences.  Detector directivity multiplies each
angular sample by the cos^2 sensitivity of the receiving detector.

The image is read with bilinear interpolation, zero outside the grid.
Each image is padded by one zero pixel so the 4-tap stencil needs no
per-tap mask; a sample beyond the padded border reads only zero pixels.
Each ray from a detector is clipped to the batch's support disk (the
farthest nonzero pixel centre plus h*sqrt(2)), and angles of
directivity 0 are skipped.  Every sample left out would add exactly 0
to its radial bin, so the sums are bitwise those of gathering the whole
square.  The samples are gathered in blocks of whole rays of about
GATHER_BLOCK samples, each added into the bins in order, so the
simulator's working memory does not grow with the grid or depend on the
images' support.  Each image then gets its own Abel product, a plain sum
in column order over the quadrature matrix's CSR staircase, so its data
do not depend on the batch and the product starts no BLAS threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import ConfigError, ShapeMismatchError
from .geometry import DetectorArray, ImageGrid, Scenario, TimeGrid, directivity_factors
from .phantoms import Image, bilinear_stencil, sample_bilinear_values, zero_pad

DEFAULT_N_R_PER_DT = 4
# circle samples gathered at once: about 10 MB of stencil and temporaries
GATHER_BLOCK = 1 << 16


@dataclass(frozen=True)
class SensorData:
    """Simulated pressure samples, one column per detector."""

    values: np.ndarray
    time: TimeGrid
    detectors: DetectorArray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        expected = (self.time.n_t, self.detectors.n_s)
        if values.shape != expected:
            raise ShapeMismatchError(f"sensor data shape {values.shape} does not match (n_t, n_s)={expected}")
        if not np.all(np.isfinite(values)):
            raise ShapeMismatchError("sensor data must be finite")
        object.__setattr__(self, "values", values)


def default_n_angles(grid: ImageGrid) -> int:
    return 4 * grid.n


def circle_nodes(n_angles: int) -> np.ndarray:
    """Unit vectors at the uniform angles 2*pi*a/n_angles, as (n_angles, 2)."""
    theta = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def circular_mean(img: Image, center, radius: float, normal=None, n_angles: int | None = None) -> float:
    """Mean of ``img`` over the circle of ``radius`` around ``center``.

    Uniform trapezoid quadrature over the full angle range (which on a
    periodic interval is the plain average of ``n_angles`` samples); the
    image is read with bilinear interpolation and is zero outside the
    grid.  When ``normal`` (the detector's outward normal) is given, each
    sample is weighted by the cos^2 directivity of the ray from ``center``
    toward it, so the result is the directional mean
    (1/2pi) * integral of f(center + r*omega) * phi(omega) d(omega).
    ``radius = 0`` returns the interpolated image value at ``center``.
    """
    if n_angles is None:
        n_angles = default_n_angles(img.grid)
    if radius < 0:
        raise ConfigError("radius must be nonnegative")
    if n_angles < 8:
        raise ConfigError("need at least 8 angular nodes")
    center = np.asarray(center, dtype=np.float64)
    if radius == 0.0:
        return float(sample_bilinear_values(img.values, img.grid, center))
    omega = circle_nodes(n_angles)
    vals = sample_bilinear_values(img.values, img.grid, center[None, :] + radius * omega)
    if normal is not None:
        normal = np.asarray(normal, dtype=np.float64)
        vals = vals * directivity_factors(normal[None, :], omega)[0]
    return float(vals.mean())


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
    out = np.empty_like(v)
    out[0] = (v[1] - v[0]) / dt
    out[-1] = (v[-1] - v[-2]) / dt
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    return out


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
        self.phi = directivity_factors(det.normals, self.omega) if scenario.directivity_enabled else None

    def _support_radius(self, images) -> float:
        """Radius outside which every stencil reads only zero pixels of
        ``images``: the farthest nonzero pixel centre plus h*sqrt(2), the
        farthest a tap lies from its sample point; -1 if all are zero."""
        grid = self.scenario.grid
        dist = np.hypot(grid.axis_x()[None, :], grid.axis_y()[:, None])
        far = max((dist[img.values != 0].max(initial=-1.0) for img in images), default=-1.0)
        return far + np.sqrt(2.0) * grid.spacing if far >= 0 else -1.0

    def _sample_blocks(self, j: int, radius: float):
        """Every circle sample of detector ``j`` that can be nonzero, in
        blocks of whole rays of about GATHER_BLOCK samples, in angle order.

        The ray p_j + r*omega_a meets the disk |x| <= ``radius`` in the
        chord r^2 + 2r(p_j . omega_a) + |p_j|^2 - radius^2 <= 0.  Only the
        radial nodes inside it, widened by one node at each end, are
        sampled; rays that miss the disk or have directivity 0 get none.
        Yields their radial node indices and their stencil (indices into
        the padded image and weights, with the directivity folded in).
        """
        grid = self.scenario.grid
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
        seen = (disc >= 0) & (radius >= 0)
        if self.phi is not None:
            seen &= self.phi[j] > 0
        count[~seen] = 0

        # rays go to the block their first sample falls in: at most GATHER_BLOCK samples plus one ray
        offset = np.cumsum(count) - count
        cuts = np.flatnonzero(np.diff(offset // GATHER_BLOCK)) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, self.n_angles]):
            n = count[lo:hi]
            # node index of each sample: consecutive along every clipped ray
            skip = np.cumsum(n) - n - first[lo:hi]
            node = np.arange(n.sum()) - np.repeat(skip, n)
            r = self.radii[node]
            x = np.repeat(self.omega[lo:hi, 0], n)
            x *= r
            x += pos[0]
            y = np.repeat(self.omega[lo:hi, 1], n)
            y *= r
            y += pos[1]
            idx, wts = bilinear_stencil(grid, x, y)
            if self.phi is not None:
                wts *= np.repeat(self.phi[j, lo:hi], n)
            yield node, idx, wts

    def _tables(self, j: int, radius: float, padded) -> np.ndarray:
        """Radius-weighted directional circular means around detector
        ``j`` at every radial node, one row per zero-padded flat image.

        Each block's samples are added into their bins in order, the same
        sequence of additions a single np.bincount of all of them makes."""
        sums = np.zeros((len(padded), self.radii.shape[0]))
        for node, idx, wts in self._sample_blocks(j, radius):
            for k, image in enumerate(padded):
                np.add.at(sums[k], node, np.einsum("qm,qm->m", image.take(idx), wts))
        return self.radii * sums / self.n_angles

    def mean_table(self, img: Image, j: int) -> np.ndarray:
        """Directional circular means of ``img`` around detector ``j`` at
        every radial node, already multiplied by the radius."""
        return self._tables(j, self._support_radius([img]), [zero_pad(img.values)])[0]

    def simulate(self, img: Image) -> SensorData:
        return self.simulate_batch([img])[0]

    def simulate_batch(self, images) -> list[SensorData]:
        """Simulate several images at once, sampling each detector's
        circles once for the whole batch.  Each image's data are bitwise
        those of simulating it alone."""
        scenario = self.scenario
        grid, det, time = scenario.grid, scenario.detectors, scenario.time
        for img in images:
            if img.grid != grid:
                raise ShapeMismatchError(f"image grid {img.grid} does not match scenario grid {grid}")
        radius = self._support_radius(images)
        padded = [zero_pad(img.values) for img in images]
        tables = np.empty((len(images), self.radii.shape[0], det.n_s))
        for j in range(det.n_s):
            tables[:, :, j] = self._tables(j, radius, padded)
        return [SensorData(time_derivative(self.abel @ table, time.dt), time, det) for table in tables]

