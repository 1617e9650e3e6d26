"""The simulator's former per-sample bilinear path, kept as a test oracle.

Before the cell-polynomial gather, every circle sample carried a 4-tap
stencil: four flat indices into the image padded by one zero pixel and
four weights.  These helpers reproduce that path apart from the
simulator's gather, so the simulator can be checked against it.
"""

import numpy as np

from learnedbp.errors import ConfigError
from learnedbp.forward import circle_nodes, default_n_angles
from learnedbp.geometry import ImageGrid, directivity_factors


def zero_pad(values: np.ndarray) -> np.ndarray:
    """Images (..., n, n) padded by one zero pixel on every side and
    flattened to (..., (n+2)**2), the layout :func:`bilinear_stencil`
    indexes."""
    pad = [(0, 0)] * (values.ndim - 2) + [(1, 1), (1, 1)]
    padded = np.pad(values, pad)
    return padded.reshape(values.shape[:-2] + (-1,))


def padded_coordinates(grid: ImageGrid, x: np.ndarray, y: np.ndarray):
    """Row and column coordinates of the points (``x``, ``y``) in the
    zero-padded image, clamped to its range [0, n + 1]."""
    h = grid.spacing
    col = np.asarray(x, dtype=np.float64) + grid.extent
    row = grid.extent - np.asarray(y, dtype=np.float64)
    for c in (col, row):
        c /= h
        c += 0.5
        np.clip(c, 0.0, grid.n + 1.0, out=c)
    return row, col


def bilinear_stencil(grid: ImageGrid, x: np.ndarray, y: np.ndarray):
    """The 4-tap bilinear stencil at the points (``x``, ``y``), 1-d arrays.

    Returns flat indices into the zero-padded image (see
    :func:`zero_pad`) and the matching weights, both (4, len(x)), for
    the taps b, b+1, b+s, b+s+1 with row stride s = n + 2.  The
    fractional coordinate itself is clamped to the padded range before
    the floor, so a point on or beyond the padded border reads only zero
    pixels with weights in [0, 1] and never extrapolates from the
    image's edge.
    """
    n = grid.n
    s = n + 2
    row, col = padded_coordinates(grid, x, y)
    i0 = np.minimum(row.astype(np.int64), n)
    j0 = np.minimum(col.astype(np.int64), n)
    fr = row - i0
    fc = col - j0

    idx = np.empty((4,) + i0.shape, dtype=np.int64)
    np.multiply(i0, s, out=idx[0])
    idx[0] += j0
    np.add(idx[0], 1, out=idx[1])
    np.add(idx[0], s, out=idx[2])
    np.add(idx[0], s + 1, out=idx[3])
    gr = 1.0 - fr
    gc = 1.0 - fc
    wts = np.empty((4,) + i0.shape)
    np.multiply(gr, gc, out=wts[0])
    np.multiply(gr, fc, out=wts[1])
    np.multiply(fr, gc, out=wts[2])
    np.multiply(fr, fc, out=wts[3])
    return idx, wts


def sample_bilinear_values(values: np.ndarray, grid: ImageGrid, points: np.ndarray) -> np.ndarray:
    """Bilinear samples of an image (n, n) or a stack of images
    (..., n, n) at ``points``; the result is values.shape[:-2] +
    points.shape[:-1]."""
    points = np.asarray(points, dtype=np.float64)
    flat = points.reshape(-1, 2)
    idx, wts = bilinear_stencil(grid, flat[:, 0], flat[:, 1])
    padded = zero_pad(np.asarray(values, dtype=np.float64))
    out = (padded[..., idx] * wts).sum(axis=padded.ndim - 1)
    return out.reshape(padded.shape[:-1] + points.shape[:-1])


def circular_mean(img, center, radius: float, normal=None, n_angles: int | None = None) -> float:
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
