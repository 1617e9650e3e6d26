"""Stochastic gradient descent on the backprojection weights.

The objective is the mean squared reconstruction error over a set of
(sensor data, source image) pairs.  Because the reconstruction is
sum_j W^2 b with b independent of W, the gradient has the closed form
4 * (recon - truth) * W * b, and the contributions b of every training
and held-out sample are computed once per run, before the learning-rate
pre-scan.  Stored contributions are bounded by CONTRIB_CACHE_BYTES
(n^2 * n_s * 8 bytes per sample, training samples first); samples past
the budget recompute b at each use.  Training is plain SGD, batch size
one by default, deterministic given the dataset and the config.  One SGD
pass serves the training epochs and the pre-scan's probe epochs alike: a
step writes its gradient into one buffer and updates the weights in
place.  Divergence is checked once per epoch; the weight tensors handed
out own their arrays.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, ShapeMismatchError
from .forward import SensorData
from .phantoms import Image
from .recon import BackprojectionOperator, WeightTensor

PROBE_SAMPLES = 5
PROBE_STEPS = 5
# memory for stored contributions b; samples past it recompute b at each use
CONTRIB_CACHE_BYTES = 1 << 30


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
        if self.learning_rate is not None and self.learning_rate < 0:
            raise ConfigError("learning_rate must be nonnegative")
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
    differentiation anywhere.
    """
    data, truth = pair
    if truth.grid != weights.grid:
        raise ShapeMismatchError("truth image grid does not match weights")
    op.check_weights(weights)
    return _step(weights.values, op.contrib(data).values, truth.values)[1]


def _step(w: np.ndarray, b: np.ndarray, truth: np.ndarray, gradient: bool = True, out=None):
    """Squared error ||sum_j w^2 b - f||^2 of one sample on raw arrays and,
    unless ``gradient`` is false, its gradient 4 * residual * w * b, written
    into ``out`` when given."""
    residual = BackprojectionOperator.apply_values(w, b) - truth
    error = float((residual**2).sum())
    if not gradient:
        return error, None
    full = np.multiply(4.0 * residual[:, :, None], w, out=out)
    full *= b
    return error, full


def _store_contribs(pairs, op: BackprojectionOperator, budget: int) -> list:
    """b of the leading pairs whose arrays fit in ``budget`` bytes."""
    count = min(len(pairs), budget // (op.grid.n * op.grid.n * op.detectors.n_s * 8))
    return [op.contrib(data).values for data, _ in pairs[:count]]


def _contrib(op: BackprojectionOperator, pairs, stored: list, k: int) -> np.ndarray:
    """b of ``pairs[k]``: the stored array, or recomputed past the budget."""
    return stored[k] if k < len(stored) else op.contrib(pairs[k][0]).values


def _mean_error(w: np.ndarray, pairs, stored: list, op: BackprojectionOperator) -> float:
    """:func:`loss` of ``pairs`` at the raw weights ``w``, reading stored b."""
    total = 0.0
    for k, (_, truth) in enumerate(pairs):
        total += _step(w, _contrib(op, pairs, stored, k), truth.values, gradient=False)[0]
    return total / len(pairs)


class _WeightParam:
    """Trainable parameterization of the weight tensor.

    Full resolution by default; with a coarse grid the parameters live on
    m x m x n_s and the applied tensor is their bilinear upsampling, so
    gradients pull back through the (sparse) interpolation matrix.
    """

    def __init__(self, grid, n_s: int, coarse: int | None):
        self.grid = grid
        self.n_s = n_s
        self.coarse = coarse
        if coarse is None:
            self.upsample = None
        else:
            self.upsample = _upsample_matrix(coarse, grid.n)

    def init_values(self, init: str, reader=None) -> np.ndarray:
        side = self.grid.n if self.coarse is None else self.coarse
        if init == "ones":
            return np.ones((side, side, self.n_s))
        if init.startswith("constant:"):
            try:
                kappa = float(init.split(":", 1)[1])
            except ValueError as exc:
                raise ConfigError(f"bad constant init {init!r}") from exc
            return np.full((side, side, self.n_s), kappa)
        if reader is None:
            raise ConfigError(f"unknown init {init!r}")
        values = reader(init)
        if values.shape != (side, side, self.n_s):
            raise ShapeMismatchError(
                f"resume weights shape {values.shape} does not match expected {(side, side, self.n_s)}"
            )
        return values

    def expand_values(self, values: np.ndarray) -> np.ndarray:
        """Raw upsampled array; no finiteness validation, safe mid-training."""
        if self.upsample is None:
            return values
        n = self.grid.n
        flat = self.upsample @ values.reshape(self.coarse * self.coarse, self.n_s)
        return flat.reshape(n, n, self.n_s)

    def expand(self, values: np.ndarray) -> WeightTensor:
        """Validated tensor that owns its array, so that later in-place
        updates of ``values`` do not reach it."""
        expanded = self.expand_values(values)
        return WeightTensor(expanded.copy() if expanded is values else expanded, self.grid)

    def pull_back(self, full_grad: np.ndarray) -> np.ndarray:
        if self.upsample is None:
            return full_grad
        n = self.grid.n
        flat = self.upsample.T @ full_grad.reshape(n * n, self.n_s)
        return flat.reshape(self.coarse, self.coarse, self.n_s)


def _upsample_matrix(coarse: int, fine: int):
    """Sparse (fine^2, coarse^2) bilinear interpolation matrix between two
    pixel-center grids over the same square; edge-clamped so constants are
    preserved exactly.  It is the Kronecker square of the 1-D linear
    interpolation matrix."""
    from scipy import sparse

    # fine pixel centers in coarse index coordinates
    pos = (np.arange(fine) + 0.5) * (coarse / fine) - 0.5
    i0 = np.clip(np.floor(pos).astype(np.int64), 0, coarse - 2)
    frac = np.clip(pos - i0, 0.0, 1.0)
    # row i holds 1 - frac[i] at column i0[i] and frac[i] at i0[i] + 1
    values = np.stack([1.0 - frac, frac], axis=1).ravel()
    columns = np.stack([i0, i0 + 1], axis=1).ravel()
    line = sparse.csr_matrix((values, columns, np.arange(0, 2 * fine + 1, 2)), shape=(fine, coarse))
    return sparse.kron(line, line, format="csr")


def epoch_order(shuffle_seed: int, epoch: int, n_samples: int) -> np.ndarray:
    """Deterministic sample order for one epoch, derived from the run seed
    and the epoch index so every epoch reshuffles reproducibly."""
    rng = np.random.default_rng([int(shuffle_seed) & 0xFFFFFFFFFFFFFFFF, int(epoch)])
    return rng.permutation(n_samples)


def _sgd_pass(param: _WeightParam, values: np.ndarray, pairs, stored: list, op: BackprojectionOperator,
              order, batch_size: int, lr: float, grad_buf: np.ndarray) -> float:
    """One SGD pass over ``pairs`` in ``order``, one step per ``batch_size``
    samples, updating ``values`` in place; returns the sum of the
    per-sample losses seen before each step.  Non-finite weights are left
    for the caller to detect: a non-finite weight stays non-finite."""
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(order), batch_size):
            batch = order[lo : lo + batch_size]
            w = param.expand_values(values)
            for i, k in enumerate(batch):
                error, full = _step(w, _contrib(op, pairs, stored, k), pairs[k][1].values, out=grad_buf)
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


def prescan_learning_rate(param: _WeightParam, values: np.ndarray, pairs, op: BackprojectionOperator, stored=()) -> float:
    """Pick the default learning rate: one decade below the largest power of
    ten for which a few probe epochs on a few samples keep the loss finite
    and decreasing.

    The probes are the first PROBE_SAMPLES pairs, each probe epoch one
    :func:`_sgd_pass` over them in order with batch size one; ``stored``
    holds the contributions b of leading pairs already computed, the rest
    are computed here once.

    The backoff matters: the probes run a few dozen updates, but an epoch
    over a real training set runs hundreds, and a rate at the edge of
    stability can survive the former yet blow up mid-epoch."""
    probe = pairs[:PROBE_SAMPLES]
    contribs = [_contrib(op, probe, stored, k) for k in range(len(probe))]
    base = _mean_error(param.expand_values(values), probe, contribs, op)
    if base == 0.0:
        return 1e-6
    grad_buf = np.empty((op.grid.n, op.grid.n, op.detectors.n_s))
    with np.errstate(over="ignore", invalid="ignore"):
        for exponent in range(2, -13, -1):
            lr = 10.0**exponent
            w, prev = values.copy(), base
            for _ in range(PROBE_STEPS):
                _sgd_pass(param, w, probe, contribs, op, range(len(probe)), 1, lr, grad_buf)
                current = _mean_error(param.expand_values(w), probe, contribs, op) if np.all(np.isfinite(w)) else np.inf
                if not np.isfinite(current) or current >= prev:
                    break
                prev = current
            else:
                return lr / 10.0
    raise DivergenceError("learning-rate pre-scan found no stable step size; data may be degenerate")


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

    Per epoch: shuffle with a seed derived from (cfg.shuffle_seed, epoch),
    make one :func:`_sgd_pass` (a gradient step per batch), record the
    running mean of the per-sample losses seen during the epoch and the
    held-out loss after it.  ``checkpoint(epoch, WeightTensor)`` fires
    every ``cfg.checkpoint_every`` epochs (and for the initial tensor),
    ``log(epoch, train_loss, heldout_loss, lr, wall_seconds)`` once per
    epoch.  Raises DivergenceError at the end of the first epoch whose
    weights or loss are non-finite.
    """
    if len(train_pairs) == 0:
        raise ConfigError("training set is empty")
    param = _WeightParam(op.grid, op.detectors.n_s, cfg.weight_grid)
    # a copy, so the in-place updates below never write into the reader's array
    values = param.init_values(cfg.init, reader=weight_reader).copy()

    stored = _store_contribs(list(train_pairs) + list(heldout_pairs), op, CONTRIB_CACHE_BYTES)
    train_b, heldout_b = stored[: len(train_pairs)], stored[len(train_pairs) :]

    lr = cfg.learning_rate
    if lr is None:
        lr = prescan_learning_rate(param, values, train_pairs, op, stored=train_b)

    state = TrainState(weights=param.expand(values), learning_rate=lr)
    if checkpoint is not None:
        checkpoint(0, state.weights)

    grad_buf = np.empty((op.grid.n, op.grid.n, op.detectors.n_s))
    start = _time.monotonic()
    for epoch in range(1, cfg.epochs + 1):
        order = epoch_order(cfg.shuffle_seed, epoch, len(train_pairs))
        epoch_total = _sgd_pass(param, values, train_pairs, train_b, op, order, cfg.batch_size, lr, grad_buf)
        if not np.all(np.isfinite(values)):
            raise DivergenceError(f"training diverged at epoch {epoch}; try a lower learning rate")
        train_loss = epoch_total / len(train_pairs)
        if not np.isfinite(train_loss):
            raise DivergenceError(
                f"training diverged at epoch {epoch} (loss {train_loss}); try a lower learning rate"
            )
        weights = param.expand(values)
        heldout = _mean_error(weights.values, heldout_pairs, heldout_b, op) if len(heldout_pairs) else float("nan")
        state.weights = weights
        state.epoch = epoch
        state.train_losses.append(train_loss)
        state.heldout_losses.append(heldout)
        cadence_hit = cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0
        if checkpoint is not None and (cadence_hit or epoch == cfg.epochs):
            checkpoint(epoch, weights)
        if log is not None:
            log(epoch, train_loss, heldout, lr, _time.monotonic() - start)
    return state
