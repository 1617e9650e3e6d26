"""Photoacoustic-style simulation and backprojection with learned weights.

The package simulates circular-detector pressure data from 2D source
images, reconstructs sources with the (optionally weighted) universal
backprojection, and trains the per-pixel, per-detector weight tensor by
stochastic gradient descent to suppress limited-view, sparse-sampling
and directivity artifacts.
"""

from .errors import (
    ConfigError,
    DivergenceError,
    FormatError,
    LearnedBpError,
    ShapeMismatchError,
)
from .fileio import Dataset, load_scenario_cfg, read_patb, read_pgm, save_scenario_cfg, write_patb, write_pgm
from .forward import ForwardOperator, SensorData
from .geometry import (
    DetectorArray,
    ImageGrid,
    Scenario,
    TimeGrid,
    make_detectors,
    make_scenario,
)
from .metrics import EvalReport, evaluate, rel_error
from .phantoms import Image, PhantomParams, generate_phantom, rasterize_ellipses
from .recon import BackprojectionOperator, ContribTensor, WeightTensor, time_filter
from .training import TrainConfig, TrainState, grad, loss, sgd_train

__version__ = "0.1.0"

__all__ = [
    "BackprojectionOperator",
    "ConfigError",
    "ContribTensor",
    "Dataset",
    "DetectorArray",
    "DivergenceError",
    "EvalReport",
    "FormatError",
    "ForwardOperator",
    "Image",
    "ImageGrid",
    "LearnedBpError",
    "PhantomParams",
    "Scenario",
    "SensorData",
    "ShapeMismatchError",
    "TimeGrid",
    "TrainConfig",
    "TrainState",
    "WeightTensor",
    "evaluate",
    "generate_phantom",
    "grad",
    "load_scenario_cfg",
    "loss",
    "make_detectors",
    "make_scenario",
    "rasterize_ellipses",
    "read_patb",
    "read_pgm",
    "rel_error",
    "save_scenario_cfg",
    "sgd_train",
    "time_filter",
    "write_patb",
    "write_pgm",
]
