"""Reference computations that share no code with learnedbp.

Every correctness check of the benchmark compares the program's output
with one of these, or with a property the method must have.  They take
plain numpy arrays and scenario numbers, never learnedbp objects, and use
different quadratures from the program's: midpoint angle nodes and
scipy's interpolator for the forward waveform, the t = d*cosh(u)
substitution for the backprojection's singular time integral, and
scipy's NNLS for the best loss training can reach.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
from scipy.ndimage import map_coordinates
from scipy.optimize import nnls


def read_patb(path) -> np.ndarray:
    """Parse a PATB tensor file: magic, version, rank, dims, float32 payload."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"PATB":
        raise ValueError(f"{path}: bad magic")
    _version, ndim = struct.unpack_from("<II", raw, 4)
    dims = struct.unpack_from(f"<{ndim}I", raw, 12)
    payload = np.frombuffer(raw, dtype="<f4", offset=12 + 4 * ndim)
    return payload.astype(np.float64).reshape(dims)


def pixel_centers(n: int, extent: float):
    """(x, y) of every pixel center; row 0 is the top row."""
    h = 2.0 * extent / n
    x = -extent + (np.arange(n) + 0.5) * h
    y = extent - (np.arange(n) + 0.5) * h
    return np.broadcast_to(x[None, :], (n, n)), np.broadcast_to(y[:, None], (n, n))


def detector_layout(label: str, n_s: int, radius: float = 1.0):
    """Positions and outward normals of the canonical detector arcs."""
    if label == "B_sparse":
        angles = 2.0 * np.pi * np.arange(n_s) / n_s
        arc = 2.0 * np.pi * radius / n_s
    else:
        angles = 0.5 * np.pi + (np.arange(n_s) + 0.5) * np.pi / n_s
        arc = np.pi * radius / n_s
    normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return radius * normals, normals, arc


def waveform(image, extent, position, normal, n_t, t_final, sound_speed=1.0,
             angle_factor=4, radial_factor=4, n_psi=4096, block=128):
    """Pressure trace at one detector by brute force.

    Directional circular means of the bilinear image on a radial grid
    ``radial_factor`` times finer than the program's and with
    ``angle_factor`` times its angle count, at midpoint angle nodes; the
    Abel integral by the substitution r = c*t*sin(psi), which removes its
    square-root singularity; the time derivative by np.gradient.
    """
    n = image.shape[0]
    h = 2.0 * extent / n
    t = np.arange(1, n_t + 1) * (t_final / n_t)
    n_r = radial_factor * 4 * n_t
    radii = np.arange(n_r + 1) * (sound_speed * t_final / n_r)
    n_ang = angle_factor * 4 * n
    angles = 2.0 * np.pi * (np.arange(n_ang) + 0.5) / n_ang
    omega = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    cos_in = -(omega @ np.asarray(normal))
    phi = np.where(cos_in > 0.0, cos_in, 0.0) ** 2

    means = np.zeros(radii.size)
    for lo in range(0, n_ang, block):
        w = omega[lo : lo + block]
        px = position[0] + radii[None, :] * w[:, :1]
        py = position[1] + radii[None, :] * w[:, 1:]
        rows = (extent - py) / h - 0.5
        cols = (px + extent) / h - 0.5
        vals = map_coordinates(image, [rows.ravel(), cols.ravel()], order=1, mode="constant", cval=0.0)
        means += phi[lo : lo + block] @ vals.reshape(px.shape)
    means /= n_ang

    psi = (np.arange(n_psi) + 0.5) * (0.5 * np.pi / n_psi)
    r_eval = sound_speed * t[:, None] * np.sin(psi)[None, :]
    m_eval = np.interp(r_eval.ravel(), radii, means).reshape(r_eval.shape)
    v = (0.5 * np.pi / n_psi) * (r_eval * m_eval).sum(axis=1)
    return np.gradient(v, t_final / n_t)


def first_arrival(image, extent, position) -> float:
    """Distance from ``position`` to the nearest point the bilinear image
    can be nonzero: its support grown by one pixel diagonal."""
    n = image.shape[0]
    x, y = pixel_centers(n, extent)
    mask = image != 0.0
    if not mask.any():
        return np.inf
    dist = np.hypot(x[mask] - position[0], y[mask] - position[1]).min()
    return dist - np.sqrt(2.0) * (2.0 * extent / n)


def backprojection_pixel(data, weights_sq, x, y, positions, normals, arc, t_final,
                         sound_speed=1.0, n_u=4096):
    """sum_j W(x, s_j)^2 b(x, s_j) at one point, by direct quadrature.

    b(x, s) = (arc/pi) <x - s, nu_s> integral_d^T q(t)/sqrt(t^2 - d^2) dt,
    d = |x - s| / c, q = d/dt (g/t) by np.gradient and read piecewise
    linearly; the singular integral becomes integral_0^U q(d cosh u) du
    under t = d cosh(u), evaluated with the midpoint rule.
    """
    n_t = data.shape[0]
    t = np.arange(1, n_t + 1) * (t_final / n_t)
    q = np.gradient(data / t[:, None], t_final / n_t, axis=0) / sound_speed
    total = 0.0
    for j in range(positions.shape[0]):
        dx = x - positions[j, 0]
        dy = y - positions[j, 1]
        d = np.hypot(dx, dy) / sound_speed
        if d >= t_final:
            continue
        u_max = np.arccosh(t_final / d)
        u = (np.arange(n_u) + 0.5) * (u_max / n_u)
        q_u = np.interp(d * np.cosh(u), t, q[:, j], left=0.0, right=0.0)
        integral = q_u.sum() * (u_max / n_u)
        geom = (arc / np.pi) * (dx * normals[j, 0] + dy * normals[j, 1])
        total += weights_sq[j] * geom * integral
    return total


def certified_min_loss(contribs, truths) -> float:
    """Smallest mean squared training loss over all W: min over V = W^2 >= 0
    of mean_n ||sum_j V b_n - f_n||^2.  The loss separates by pixel, so it
    is one nonnegative least-squares fit per pixel.

    ``contribs`` is (N, n, n, n_s), ``truths`` (N, n, n)."""
    count, n, _, n_s = contribs.shape
    a_all = contribs.reshape(count, n * n, n_s)
    f_all = truths.reshape(count, n * n)
    total = 0.0
    for p in range(n * n):
        _, residual = nnls(a_all[:, p, :], f_all[:, p])
        total += residual**2
    return total / count


def weighted_loss(weights, contribs, truths) -> float:
    """mean_n ||sum_j W^2 b_n - f_n||^2 for a (n, n, n_s) weight array."""
    recon = np.einsum("ijs,nijs->nij", weights**2, contribs)
    return float(((recon - truths) ** 2).sum(axis=(1, 2)).mean())
