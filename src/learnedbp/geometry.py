"""Reconstruction grid, detection geometry and detector directivity.

The measurement setup is a circle of detectors around a square pixel grid.
Three canonical arrangements are supported:

* ``A_limited_view``  -- many detectors on the left half circle,
* ``B_sparse``        -- few detectors equidistant on the full circle,
* ``C_limited_sparse`` -- few detectors on the left half circle,

plus ``custom`` for arbitrary arcs.  All geometry objects are immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError

SCENARIO_LABELS = ("A_limited_view", "B_sparse", "C_limited_sparse", "custom")

HALF_CIRCLE_START = 0.5 * math.pi
HALF_CIRCLE_END = 1.5 * math.pi


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ImageGrid:
    """Square pixel grid covering the domain [-extent, extent]^2.

    Pixel (i, j) is centered at
    ``(-extent + (j + 0.5) * h, extent - (i + 0.5) * h)`` with
    ``h = 2 * extent / n``: rows run top to bottom, columns left to right.
    """

    n: int
    extent: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError(f"grid needs n >= 2 pixels per side, got {self.n}")
        if not 0 < self.extent < math.inf:
            raise ConfigError(f"grid extent must be positive and finite, got {self.extent}")

    @property
    def spacing(self) -> float:
        """Pixel side length."""
        return 2.0 * self.extent / self.n

    def axis_x(self) -> np.ndarray:
        """Column center x-coordinates, increasing."""
        h = self.spacing
        return -self.extent + (np.arange(self.n) + 0.5) * h

    def axis_y(self) -> np.ndarray:
        """Row center y-coordinates, decreasing (row 0 is on top)."""
        h = self.spacing
        return self.extent - (np.arange(self.n) + 0.5) * h

    def pixel_centers(self) -> np.ndarray:
        """All pixel centers as an (n, n, 2) array of (x, y) pairs."""
        x = self.axis_x()
        y = self.axis_y()
        out = np.empty((self.n, self.n, 2))
        out[:, :, 0] = x[None, :]
        out[:, :, 1] = y[:, None]
        return out


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time samples t_k = k * t_final / n_t for k = 1..n_t.

    t = 0 is deliberately excluded so that 1/t filtering is finite.
    """

    n_t: int
    t_final: float

    def __post_init__(self):
        if self.n_t < 2:
            raise ConfigError(f"time grid needs n_t >= 2, got {self.n_t}")
        if not 0 < self.t_final < math.inf:
            raise ConfigError(f"t_final must be positive and finite, got {self.t_final}")

    @property
    def dt(self) -> float:
        return self.t_final / self.n_t

    def samples(self) -> np.ndarray:
        return np.arange(1, self.n_t + 1) * (self.t_final / self.n_t)


@dataclass(frozen=True)
class DetectorArray:
    """Point detectors on a circle of given radius around the origin.

    ``positions`` is (n_s, 2), ``normals`` the matching outward unit
    normals, and ``arc_weight`` the arc length each detector represents in
    the boundary integral (one shared value; the arrays are read-only).
    Two detector arrays are equal when all four fields are, the arrays by value.
    """

    positions: np.ndarray
    normals: np.ndarray
    arc_weight: float
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "positions", _readonly(self.positions))
        object.__setattr__(self, "normals", _readonly(self.normals))
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ConfigError("detector positions must have shape (n_s, 2)")
        if self.normals.shape != self.positions.shape:
            raise ConfigError("detector normals must match positions in shape")
        if not (np.isfinite(self.positions).all() and np.isfinite(self.normals).all()):
            raise ConfigError("detector positions and normals must be finite")
        if not 0 < self.arc_weight < math.inf:
            raise ConfigError("arc_weight must be positive and finite")
        if not 0 < self.radius < math.inf:
            raise ConfigError("detection radius must be positive and finite")
        r = np.linalg.norm(self.positions, axis=1)
        if np.any(np.abs(r - self.radius) > 1e-12 * self.radius):
            raise ConfigError("detector positions must lie on the detection circle")

    def __eq__(self, other):
        if not isinstance(other, DetectorArray):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @property
    def n_s(self) -> int:
        return self.positions.shape[0]


def make_detectors(
    label: str,
    n_s: int,
    radius: float,
    start_angle: float = HALF_CIRCLE_START,
    end_angle: float = HALF_CIRCLE_END,
) -> DetectorArray:
    """Place ``n_s`` detectors for a scenario label.

    ``B_sparse`` distributes them over the full circle at angles
    2*pi*k/n_s with arc weight 2*pi*R/n_s.  ``A_limited_view`` and
    ``C_limited_sparse`` place them on the left half circle (the arc from
    pi/2 to 3*pi/2, facing the object): each detector sits at the midpoint
    of its own arc segment so the segments tile the half circle exactly,
    with arc weight pi*R/n_s.  ``custom`` uses the same midpoint rule on
    [start_angle, end_angle].
    """
    if label not in SCENARIO_LABELS:
        raise ConfigError(f"unknown scenario label {label!r}")
    if n_s < 1:
        raise ConfigError(f"need at least one detector, got n_s={n_s}")
    if not 0 < radius < math.inf:
        raise ConfigError(f"detection radius must be positive and finite, got {radius}")

    if label == "B_sparse":
        angles = 2.0 * math.pi * np.arange(n_s) / n_s
        arc_weight = 2.0 * math.pi * radius / n_s
    else:
        if label != "custom":
            start_angle, end_angle = HALF_CIRCLE_START, HALF_CIRCLE_END
        span = end_angle - start_angle
        if not 0 < span < math.inf:
            raise ConfigError("detector arc must have a positive and finite angular span")
        angles = start_angle + (np.arange(n_s) + 0.5) * span / n_s
        arc_weight = span * radius / n_s

    normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    positions = radius * normals
    return DetectorArray(positions, normals, arc_weight, radius)


def directivity_factors(normals: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """Detector sensitivity table for unit outward ``normals`` (n_s, 2)
    against unit ``rays`` (m, 2) from the detector toward the source point;
    returns (n_s, m).  With alpha the angle between a ray and the inward
    direction -normal, the sensitivity is cos(alpha)^2 for |alpha| < pi/2
    and 0 beyond.  Unit lengths are not checked."""
    c = -(normals @ rays.T)
    return np.where(c > 0.0, c * c, 0.0)


@dataclass(frozen=True)
class Scenario:
    """Complete measurement configuration for simulation and training.
    Two scenarios are equal when all six fields are, the detectors by value."""

    grid: ImageGrid
    detectors: DetectorArray
    time: TimeGrid
    directivity_enabled: bool = True
    sound_speed: float = 1.0
    label: str = "custom"

    def __post_init__(self):
        if not 0 < self.sound_speed < math.inf:
            raise ConfigError(f"sound speed must be positive and finite, got {self.sound_speed}")
        # a canonical label means make_detectors' layout exactly; it rejects unknown labels
        det = self.detectors
        if self.label != "custom" and det != make_detectors(self.label, det.n_s, det.radius):
            raise ConfigError(f"label {self.label} requires make_detectors' layout of {det.n_s} detectors")


# default detector counts for the three canonical arrangements; custom arcs get 100
_DEFAULT_N_S = {"A_limited_view": 100, "B_sparse": 20, "C_limited_sparse": 20}


def make_scenario(
    label: str,
    n: int = 256,
    n_s: int | None = None,
    n_t: int = 400,
    t_final: float = 3.0,
    extent: float = 1.0,
    radius: float = 1.0,
    directivity_enabled: bool = True,
    sound_speed: float = 1.0,
    arc: tuple[float, float] = (HALF_CIRCLE_START, HALF_CIRCLE_END),
) -> Scenario:
    """Build a scenario with standard defaults; the one table of them.

    ``arc`` = (start, end) in radians is the detector arc of ``custom``
    scenarios and is ignored by the canonical labels.
    """
    if n_s is None:
        n_s = _DEFAULT_N_S.get(label, 100)
    return Scenario(
        grid=ImageGrid(n=n, extent=extent),
        detectors=make_detectors(label, n_s, radius, *arc),
        time=TimeGrid(n_t=n_t, t_final=t_final),
        directivity_enabled=directivity_enabled,
        sound_speed=sound_speed,
        label=label,
    )
