"""Stochastic gradient descent on the backprojection weights.

The objective is the mean squared reconstruction error over a set of
(sensor data, source image) pairs.  Because the reconstruction is
sum_j W^2 b with b independent of W, the gradient has the closed form
4 * (recon - truth) * W * b.  Full-resolution weights separate by
pixel, so training tabulates each sample once per run and trains on the
operator's pixel blocks: the epochs run in segments that end at the
checkpoint epochs, and per segment and block b is gathered once.  The
weights are bitwise those of whole-image epochs.  The coarse weight grid
couples pixels, so its one block is the whole image, gathered once per
run.  Training is plain SGD, batch size one by default, deterministic
given the dataset and the config.  One block loop around one SGD pass
runs the training epochs and the pre-scan's probe epochs alike, so no
probe's b is gathered as a whole image; a step writes its gradient into
one buffer and updates the weights in place.  Divergence is checked once
per epoch and block; the weight tensors handed out own their arrays.

Training arrays are detector-major: the parameters, each block's b and
weights, and the gradient buffer are C-contiguous (n_s, pixels) rows, so
a step's per-pixel detector sum adds whole rows in detector order and
the factor 4 * residual broadcasts along them.  Only the public
WeightTensor and grad keep the pixel-major (n, n, n_s) shape.

The arrays the SGD loop streams hold DTYPE, float32: each block's b
(cast in the transposing copy), the flat truths, the parameters, the
gradient buffer, the pre-scan's probes and the weight grid's 1-D
interpolation factor.  The data files and checkpoints store float32, so
float64 there would hold nothing the files keep, and a step moves half
the bytes.  The per-sample tables stay float64, as op.tabulate returns
them; WeightTensor casts to float64 exactly, so a checkpoint holds the
trained weights bitwise, and each frees the one before it.  grad, loss
and sample_loss stay in float64.  Before tabulating, sgd_train compares
its footprint (training_bytes) with the memory available to the process
and raises ConfigError when it does not fit.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, ShapeMismatchError
from .forward import SensorData
from .memory import available_memory, require
from .phantoms import Image
from .recon import BackprojectionOperator, WeightTensor

PROBE_SAMPLES = 5
PROBE_STEPS = 5
# dtype of the arrays the SGD loop streams (see the module docstring)
DTYPE = np.float32


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of one training run.

    ``learning_rate = None`` asks for the automatic pre-scan (one decade
    below the largest power of ten that keeps a few probe steps finite
    and decreasing).
    ``init`` accepts "ones", "constant:<value>" or a path to a saved
    weight tensor to resume from.  ``weight_grid`` optionally trains the
    weights on a coarser m x m grid, bilinearly upsampled to the image
    grid inside the forward map.
    """

    epochs: int = 100
    batch_size: int = 1
    learning_rate: float | None = None
    init: str = "ones"
    shuffle_seed: int = 0
    checkpoint_every: int = 0
    weight_grid: int | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.learning_rate is not None and not 0 <= self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and nonnegative")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be nonnegative")
        if self.weight_grid is not None and self.weight_grid < 2:
            raise ConfigError("weight_grid must be at least 2")


@dataclass
class TrainState:
    """Weights plus the loss trajectory of a (possibly partial) run."""

    weights: WeightTensor
    epoch: int = 0
    train_losses: list = field(default_factory=list)
    heldout_losses: list = field(default_factory=list)
    learning_rate: float = 0.0

    def __post_init__(self):
        if len(self.train_losses) != self.epoch:
            raise ConfigError("one training loss per completed epoch")
        if any(l < 0 for l in self.train_losses) or any(l < 0 for l in self.heldout_losses):
            raise ConfigError("losses are nonnegative")


def sample_loss(weights: WeightTensor, data: SensorData, truth: Image, op: BackprojectionOperator) -> float:
    recon = op.apply(weights, data)
    return float(((recon.values - truth.values) ** 2).sum())


def loss(weights: WeightTensor, pairs, op: BackprojectionOperator, squared: bool = True) -> float:
    """Mean reconstruction error of ``pairs`` = [(SensorData, Image), ...].

    Default is the mean of squared Euclidean norms ||F - P(W,G)||^2 (the
    form whose gradient drives training); ``squared=False`` averages the
    unsquared norms instead.
    """
    if len(pairs) == 0:
        raise ConfigError("loss needs at least one pair")
    total = 0.0
    for data, truth in pairs:
        value = sample_loss(weights, data, truth, op)
        total += value if squared else np.sqrt(value)
    return total / len(pairs)


def grad(weights: WeightTensor, pair, op: BackprojectionOperator) -> np.ndarray:
    """Exact gradient of ||F - P(W,G)||^2 with respect to W, shape (n, n, n_s).

    One forward pass; the contribution tensor b is reused, no numerical
    differentiation anywhere.  The step runs on detector-major rows, like
    training, and its result is transposed back.
    """
    data, truth = pair
    if truth.grid != weights.grid:
        raise ShapeMismatchError("truth image grid does not match weights")
    op.check_weights(weights)
    b = _detector_major(op.contrib(data).values)
    full = _step(_detector_major(weights.values), b, truth.values.reshape(-1))[1]
    return full.T.reshape(weights.values.shape)


def _detector_major(values: np.ndarray, dtype=None) -> np.ndarray:
    """C-contiguous (n_s, pixels) rows of pixel-major (..., n_s) values,
    cast to ``dtype`` (default: kept) in the same copy."""
    return np.ascontiguousarray(values.reshape(-1, values.shape[-1]).T, dtype=dtype)


def _step(w: np.ndarray, b: np.ndarray, truth: np.ndarray, gradient: bool = True, out=None):
    """Squared error ||sum_j w^2 b - f||^2 of one sample on detector-major
    (n_s, pixels) raw arrays and, unless ``gradient`` is false, its gradient
    4 * residual * w * b; both the product w^2 b and the gradient are
    written into ``out`` when given.  The error squares and sums the
    residual in float64, so that it does not overflow before the weights
    do and losses summed over blocks match whole-image sums to float64
    rounding."""
    residual = BackprojectionOperator.apply_values(w, b, out=out) - truth
    error = float(np.square(residual, dtype=np.float64).sum())
    if not gradient:
        return error, None
    full = np.multiply(4.0 * residual, w, out=out)
    full *= b
    return error, full


class _WeightParam:
    """Trainable parameterization of the weight tensor.

    Parameters and weights are detector-major, (n_s, pixels), of DTYPE.
    Full resolution by default; with a coarse grid the parameters live on
    m^2 columns and the applied weights are their bilinear upsampling.
    That map is the Kronecker square of a dense (n, m) 1-D interpolation
    matrix L, so it applies as L V L^T to each detector's (m, m) view V,
    and gradients G pull back as L^T G L, with no (n^2, n_s) temporary.
    """

    def __init__(self, grid, n_s: int, coarse: int | None):
        self.grid = grid
        self.n_s = n_s
        self.coarse = coarse
        self.line = None if coarse is None else _interp_line(coarse, grid.n).toarray().astype(DTYPE)

    def init_values(self, init: str, reader=None) -> np.ndarray:
        """Fresh initial parameters of DTYPE; a reader's array is copied,
        so that in-place updates never write into it."""
        side = self.grid.n if self.coarse is None else self.coarse
        if init == "ones":
            return np.ones((self.n_s, side * side), dtype=DTYPE)
        if init.startswith("constant:"):
            try:
                kappa = float(init.split(":", 1)[1])
            except ValueError as exc:
                raise ConfigError(f"bad constant init {init!r}") from exc
            return np.full((self.n_s, side * side), kappa, dtype=DTYPE)
        if reader is None:
            raise ConfigError(f"unknown init {init!r}")
        values = reader(init)
        if values.shape != (side, side, self.n_s):
            raise ShapeMismatchError(
                f"resume weights shape {values.shape} does not match expected {(side, side, self.n_s)}"
            )
        return np.array(values.reshape(side * side, self.n_s).T, dtype=DTYPE, order="C")

    def expand_values(self, values: np.ndarray) -> np.ndarray:
        """Raw upsampled array; no finiteness validation, safe mid-training."""
        if self.line is None:
            return values
        n, m = self.grid.n, self.coarse
        # V L^T as one product over every detector's rows, then L times each (m, n) slice
        return (self.line @ (values.reshape(-1, m) @ self.line.T).reshape(-1, m, n)).reshape(-1, n * n)

    def expand(self, values: np.ndarray) -> WeightTensor:
        """Validated pixel-major float64 tensor, one C-contiguous copy of its
        own, so that later in-place updates of ``values`` do not reach it."""
        n = self.grid.n
        full = np.ascontiguousarray(self.expand_values(values).T, dtype=np.float64)
        return WeightTensor(full.reshape(n, n, self.n_s), self.grid)

    def pull_back(self, full_grad: np.ndarray) -> np.ndarray:
        """The adjoint of expand_values, applied to a (n_s, n^2) gradient."""
        if self.line is None:
            return full_grad
        n, m = self.grid.n, self.coarse
        return (self.line.T @ full_grad.reshape(-1, n, n) @ self.line).reshape(-1, m * m)


def _interp_line(coarse: int, fine: int):
    """Sparse (fine, coarse) linear interpolation matrix between two
    pixel-center grids over the same interval; edge-clamped so constants
    are preserved exactly."""
    from scipy import sparse

    # fine pixel centers in coarse index coordinates
    pos = (np.arange(fine) + 0.5) * (coarse / fine) - 0.5
    i0 = np.clip(np.floor(pos).astype(np.int64), 0, coarse - 2)
    frac = np.clip(pos - i0, 0.0, 1.0)
    # row i holds 1 - frac[i] at column i0[i] and frac[i] at i0[i] + 1
    values = np.stack([1.0 - frac, frac], axis=1).ravel()
    columns = np.stack([i0, i0 + 1], axis=1).ravel()
    return sparse.csr_matrix((values, columns, np.arange(0, 2 * fine + 1, 2)), shape=(fine, coarse))


def _upsample_matrix(coarse: int, fine: int):
    """Sparse (fine^2, coarse^2) bilinear interpolation matrix between two
    pixel-center grids over the same square, in float64: the Kronecker
    square of :func:`_interp_line`.  Training applies it through that
    factor; this product form is the reference the factored map is
    checked against."""
    from scipy import sparse

    line = _interp_line(coarse, fine)
    return sparse.kron(line, line, format="csr")


def epoch_order(shuffle_seed: int, epoch: int, n_samples: int) -> np.ndarray:
    """Deterministic sample order for one epoch, derived from the run seed
    and the epoch index so every epoch reshuffles reproducibly."""
    rng = np.random.default_rng([int(shuffle_seed) & 0xFFFFFFFFFFFFFFFF, int(epoch)])
    return rng.permutation(n_samples)


def _sgd_pass(param: _WeightParam, values: np.ndarray, contribs: list, truths: list,
              order, batch_size: int, lr: float, grad_buf: np.ndarray) -> float:
    """One SGD pass over the samples with b ``contribs`` and ``truths`` in
    ``order``, a step per ``batch_size`` samples, updating ``values`` in
    place; returns the sum of the per-sample losses seen before each step.
    Non-finite weights are left for the caller: they stay non-finite."""
    total = 0.0
    for lo in range(0, len(order), batch_size):
        batch = order[lo : lo + batch_size]
        w = param.expand_values(values)
        for i, k in enumerate(batch):
            error, full = _step(w, contribs[k], truths[k], out=grad_buf)
            total += error
            g = param.pull_back(full)
            if i > 0:
                update += g
            else:
                # the next gradient of the batch overwrites grad_buf
                update = g.copy() if g is grad_buf and len(batch) > 1 else g
        update *= lr / len(batch)
        values -= update
    return total


def _block_epochs(param: _WeightParam, values: np.ndarray, spans: list, gather, truths: list,
                  orders: list, batch_size: int, lr: float, scored: slice):
    """Train ``values`` in place on each block of ``spans`` in turn, with
    every sample's b of block k from ``gather(k)``: per order of ``orders``
    one :func:`_sgd_pass`, then the samples ``scored`` are scored.  Returns
    the per-epoch sums over blocks of the pass losses, the scores and the
    wall seconds, and how many epochs every block finished: no block runs
    the first epoch in which any block's weights or loss are non-finite."""
    done = len(orders)
    train_sums, scores, walls = ([0.0] * done for _ in range(3))
    for k, span in enumerate(spans):
        if done == 0:
            break  # a block diverged in the first epoch: no later block gathers its b
        contribs = None  # the last block's b is freed before the next is gathered
        contribs = gather(k)
        # a full-resolution block trains a contiguous copy of its weight columns
        params = values if param.coarse is not None else values[:, span].copy()
        block_truths = [truth[span] for truth in truths]
        grad_buf = np.empty_like(contribs[0])
        for i, order in enumerate(orders[:done]):
            clock = _time.monotonic()
            with np.errstate(over="ignore", invalid="ignore"):
                total = _sgd_pass(param, params, contribs, block_truths, order, batch_size, lr, grad_buf)
                if not (np.isfinite(total) and np.all(np.isfinite(params))):
                    done = i  # later blocks stop before this epoch
                    break
                w = param.expand_values(params)
                scores[i] += sum(_step(w, b, truth, gradient=False, out=grad_buf)[0]
                                 for b, truth in zip(contribs[scored], block_truths[scored]))
            train_sums[i] += total
            walls[i] += _time.monotonic() - clock
        if params is not values:
            values[:, span] = params
    return train_sums, scores, walls, done


def prescan_learning_rate(param: _WeightParam, values: np.ndarray, spans: list, gather, truths: list) -> float:
    """Pick the default learning rate: one decade below the largest power of
    ten for which a few probe epochs on a few samples keep the loss finite
    and decreasing.

    The probes come as :func:`_block_epochs` takes its samples (sgd_train
    passes its first PROBE_SAMPLES).  At each rate, from a copy of
    ``values``, an epoch without steps scores their base loss, then
    PROBE_STEPS epochs run over them in order with batch size one.

    The backoff matters: the probes run a few dozen updates, but an epoch
    over a real training set runs hundreds, and a rate at the edge of
    stability can survive the former yet blow up mid-epoch."""
    orders = [range(0)] + [range(len(truths))] * PROBE_STEPS
    for exponent in range(2, -13, -1):
        lr = 10.0**exponent
        _, losses, _, done = _block_epochs(param, values.copy(), spans, gather, truths, orders, 1, lr, slice(None))
        if losses[0] == 0.0:
            return 1e-6
        # a non-finite loss is not below the one before it
        if done == len(orders) and all(prev > current for prev, current in zip(losses, losses[1:])):
            return lr / 10.0
    raise DivergenceError("learning-rate pre-scan found no stable step size; data may be degenerate")


def training_bytes(op: BackprojectionOperator, cfg: TrainConfig, n_train: int, n_heldout: int) -> int:
    """Footprint of sgd_train's own arrays, summed over its phases: every
    sample's float64 table; in DTYPE, every sample's flat truth and b of
    one block and one more being gathered, two block-sized buffers, and
    the parameters and a copy; in float64, the weight tensor and the b of
    the largest gather, one operator block's product and, with a weight
    grid, the whole image it is written into.  The pre-scan runs on fewer
    samples in the same blocks, so it adds nothing."""
    n_px, n_s, n_samples = op.grid.n**2, op.detectors.n_s, n_train + n_heldout
    op_block = max(span.stop - span.start for span in op.blocks)
    block = op_block if cfg.weight_grid is None else n_px
    side = op.grid.n if cfg.weight_grid is None else cfg.weight_grid
    streamed = ((n_samples + 3) * block + 2 * side * side) * n_s + n_samples * n_px
    wide = (n_px + op_block + (0 if cfg.weight_grid is None else n_px)) * n_s
    return n_samples * op.table_bytes() + streamed * np.dtype(DTYPE).itemsize + wide * 8


def sgd_train(
    train_pairs,
    heldout_pairs,
    cfg: TrainConfig,
    op: BackprojectionOperator,
    checkpoint=None,
    log=None,
    weight_reader=None,
) -> TrainState:
    """Train the weight tensor on ``train_pairs`` = [(SensorData, Image), ...].

    The epochs run in segments, each ending at a checkpoint epoch (every
    ``cfg.checkpoint_every`` and the last).  Per segment, each epoch's
    shuffle is drawn once, with a seed derived from (cfg.shuffle_seed,
    epoch); one :func:`_block_epochs` call per segment runs the epochs on
    each pixel block (see the module docstring) and scores the held-out
    samples; an epoch's losses and wall time (SGD and scoring only) are
    sums over blocks.
    ``checkpoint(epoch, WeightTensor)`` fires for the initial tensor once
    every sample is checked, then at the end of each segment; ``log(epoch,
    train_loss, heldout_loss, lr, wall_seconds_so_far)`` for each epoch of
    a finished segment.  Raises ConfigError before tabulating when
    :func:`training_bytes` exceeds the memory available, and
    DivergenceError naming the first epoch in which any block's weights
    or loss are non-finite, after the callbacks of the epochs before it.
    """
    if len(train_pairs) == 0:
        raise ConfigError("training set is empty")
    n, n_train = op.grid.n, len(train_pairs)
    param = _WeightParam(op.grid, op.detectors.n_s, cfg.weight_grid)
    values = param.init_values(cfg.init, reader=weight_reader)
    state = TrainState(param.expand(values))  # validated before the pre-scan trains on it
    samples = list(train_pairs) + list(heldout_pairs)
    # a weight grid couples pixels, so its one block is the whole image
    spans = op.blocks if cfg.weight_grid is None else [slice(0, n * n)]
    # fail before tabulating rather than swap
    require(
        f"training on {len(samples)} samples at n={n}, n_s={op.detectors.n_s}",
        training_bytes(op, cfg, n_train, len(heldout_pairs)),
        available_memory(),
    )
    # every sample is checked here, before any callback may write
    tables = [op.tabulate(data) for data, _ in samples]
    truths = [truth.values.reshape(-1).astype(DTYPE) for _, truth in samples]
    once = len(spans) == 1
    if once:
        # the one block's b is gathered once, each replacing its sample's table
        for i, table in enumerate(tables):
            b = op.gather(table, 0) if cfg.weight_grid is None else op.gather_image(table)
            tables[i] = _detector_major(b, DTYPE)

    def gather(k, stop=None):
        """Block k's detector-major b of the first ``stop`` samples (all by default)."""
        return tables[:stop] if once else [_detector_major(op.gather(table, k), DTYPE) for table in tables[:stop]]

    lr = cfg.learning_rate
    if lr is None:
        n_probes = min(PROBE_SAMPLES, n_train)
        lr = prescan_learning_rate(param, values, spans, lambda k: gather(k, n_probes), truths[:n_probes])
    state.learning_rate = lr
    if checkpoint is not None:
        checkpoint(0, state.weights)

    every = cfg.checkpoint_every or cfg.epochs or 1  # without a cadence, one segment
    wall = 0.0
    for first in range(1, cfg.epochs + 1, every):
        last = min(first + every - 1, cfg.epochs)
        orders = [epoch_order(cfg.shuffle_seed, epoch, n_train) for epoch in range(first, last + 1)]
        # several blocks gather their b again each segment
        train_sums, heldout_sums, walls, done = _block_epochs(
            param, values, spans, gather, truths, orders, cfg.batch_size, lr, slice(n_train, None))
        for i, epoch in enumerate(range(first, first + done)):
            wall += walls[i]
            state.epoch = epoch
            state.train_losses.append(train_sums[i] / n_train)
            state.heldout_losses.append(heldout_sums[i] / len(heldout_pairs) if heldout_pairs else float("nan"))
            if epoch == last:
                state.weights = None  # the previous tensor is freed before its successor is made
                state.weights = param.expand(values)
                if checkpoint is not None:
                    checkpoint(epoch, state.weights)
            if log is not None:
                log(epoch, state.train_losses[-1], state.heldout_losses[-1], lr, wall)
        if done < len(orders):
            raise DivergenceError(f"training diverged at epoch {first + done}; try a lower learning rate")
    return state
