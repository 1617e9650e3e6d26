import math
import tracemalloc
import weakref

import numpy as np
import pytest

from learnedbp.errors import ConfigError, DivergenceError
from learnedbp.forward import ForwardOperator, SensorData
from learnedbp.geometry import ImageGrid, Scenario, TimeGrid, make_detectors
from learnedbp.phantoms import Image, PhantomParams, generate_phantom
from learnedbp.recon import BackprojectionOperator, WeightTensor
from learnedbp import fileio, recon, training
from learnedbp.training import (
    PROBE_SAMPLES,
    PROBE_STEPS,
    TrainConfig,
    TrainState,
    epoch_order,
    grad,
    loss,
    prescan_learning_rate,
    sample_loss,
    sgd_train,
    _upsample_matrix,
    _WeightParam,
)


def _scenario(n=12, n_s=3, n_t=24, t_final=3.0):
    return Scenario(
        grid=ImageGrid(n=n),
        detectors=make_detectors("B_sparse", n_s, 1.0),
        time=TimeGrid(n_t=n_t, t_final=t_final),
        directivity_enabled=False,
        label="B_sparse",
    )


def _random_pair(sc, seed):
    rng = np.random.default_rng(seed)
    smooth = np.cumsum(np.cumsum(rng.standard_normal((sc.time.n_t, sc.detectors.n_s)), axis=0), axis=0)
    smooth /= max(1.0, np.abs(smooth).max())
    data = SensorData(smooth, sc.time, sc.detectors)
    truth = Image(sc.grid, rng.standard_normal((sc.grid.n, sc.grid.n)))
    return data, truth


@pytest.fixture(scope="module")
def small_problem():
    sc = _scenario()
    op = BackprojectionOperator.from_scenario(sc)
    pairs = [_random_pair(sc, seed) for seed in range(4)]
    return sc, op, pairs


def _simulated(n_s):
    sc = _scenario(n=16, n_s=n_s, n_t=40)
    fwd = ForwardOperator(sc)
    phantoms = [generate_phantom(PhantomParams(seed=s), sc.grid) for s in range(6)]
    pairs = [(fwd.simulate(f), f) for f in phantoms]
    op = BackprojectionOperator.from_scenario(sc)
    return sc, op, pairs[:4], pairs[4:]


@pytest.fixture(scope="module")
def simulated_problem():
    return _simulated(n_s=4)


@pytest.fixture(scope="module")
def wide_problem():
    # 20 detectors, as in B_sparse and C_limited_sparse: numpy sums 8 or
    # more terms along a contiguous axis pairwise, so the order shows
    return _simulated(n_s=20)


class TestGradient:
    def test_matches_central_differences(self, small_problem):
        sc, op, pairs = small_problem
        data, truth = pairs[0]
        rng = np.random.default_rng(42)
        w_values = rng.uniform(0.5, 1.5, size=(sc.grid.n, sc.grid.n, sc.detectors.n_s))
        weights = WeightTensor(w_values, sc.grid)
        g = grad(weights, (data, truth), op)

        eps = 1e-6
        checked = 0
        for _ in range(12):
            i, j, k = (int(rng.integers(0, s)) for s in g.shape)
            bumped = w_values.copy()
            bumped[i, j, k] += eps
            up = sample_loss(WeightTensor(bumped, sc.grid), data, truth, op)
            bumped[i, j, k] -= 2.0 * eps
            down = sample_loss(WeightTensor(bumped, sc.grid), data, truth, op)
            fd = (up - down) / (2.0 * eps)
            if abs(g[i, j, k]) > 1e-8:
                assert fd == pytest.approx(g[i, j, k], rel=1e-5)
                checked += 1
        assert checked >= 6

    def test_zero_residual_zero_gradient(self, small_problem):
        sc, op, pairs = small_problem
        data, _ = pairs[0]
        weights = WeightTensor.ones(sc.grid, sc.detectors.n_s)
        perfect = op.apply(weights, data)
        g = grad(weights, (data, perfect), op)
        assert np.array_equal(g, np.zeros_like(g))

    def test_coarse_parameterization_gradient(self, small_problem):
        sc, op, pairs = small_problem
        data, truth = pairs[1]
        param = _WeightParam(sc.grid, sc.detectors.n_s, coarse=4)
        rng = np.random.default_rng(7)
        # the parameters are detector-major, one column per coarse pixel
        values = rng.uniform(0.5, 1.5, size=(sc.detectors.n_s, 16))
        g = param.pull_back(grad(param.expand(values), (data, truth), op).reshape(-1, sc.detectors.n_s).T)
        assert g.shape == values.shape

        eps = 1e-6
        for i, j, k in ((0, 0, 0), (2, 3, 1), (3, 1, 2)):
            bumped = values.copy()
            bumped[k, 4 * i + j] += eps
            up = sample_loss(param.expand(bumped), data, truth, op)
            bumped[k, 4 * i + j] -= 2.0 * eps
            down = sample_loss(param.expand(bumped), data, truth, op)
            fd = (up - down) / (2.0 * eps)
            assert fd == pytest.approx(g[k, 4 * i + j], rel=1e-4, abs=1e-10)


class TestLoss:
    def test_mean_over_pairs(self, small_problem):
        sc, op, pairs = small_problem
        w = WeightTensor.ones(sc.grid, sc.detectors.n_s)
        per_sample = [sample_loss(w, d, f, op) for d, f in pairs]
        assert loss(w, pairs, op) == pytest.approx(np.mean(per_sample), rel=1e-14)

    def test_unsquared_variant(self, small_problem):
        sc, op, pairs = small_problem
        w = WeightTensor.ones(sc.grid, sc.detectors.n_s)
        one = pairs[:1]
        assert loss(w, one, op, squared=False) == pytest.approx(math.sqrt(loss(w, one, op)), rel=1e-14)

    def test_empty_rejected(self, small_problem):
        sc, op, _ = small_problem
        with pytest.raises(ConfigError):
            loss(WeightTensor.ones(sc.grid, sc.detectors.n_s), [], op)


class TestEpochOrder:
    def test_deterministic_permutation(self):
        a = epoch_order(123, 4, 50)
        b = epoch_order(123, 4, 50)
        assert np.array_equal(a, b)
        assert np.array_equal(np.sort(a), np.arange(50))

    def test_epochs_reshuffle(self):
        orders = {tuple(epoch_order(0, e, 30)) for e in range(8)}
        assert len(orders) > 1

    def test_negative_seed_accepted(self):
        order = epoch_order(-5, 1, 10)
        assert np.array_equal(np.sort(order), np.arange(10))


class TestSgdTrain:
    def test_zero_learning_rate_keeps_init(self, small_problem):
        sc, op, pairs = small_problem
        cfg = TrainConfig(epochs=3, learning_rate=0.0)
        state = sgd_train(pairs, pairs[:1], cfg, op)
        assert np.array_equal(state.weights.values, np.ones_like(state.weights.values))
        assert state.epoch == 3
        assert len(set(state.train_losses)) == 1
        # the held-out loss at W = 1 from its definition, on the training dtype
        data, truth = pairs[0]
        b = op.contrib(data).values.astype(training.DTYPE)
        residual = _detector_sum(b) - truth.values.astype(training.DTYPE)
        expected = float(np.square(residual, dtype=np.float64).sum())
        assert state.heldout_losses == [expected] * 3
        assert expected == pytest.approx(loss(WeightTensor.ones(sc.grid, sc.detectors.n_s), pairs[:1], op), rel=1e-5)

    def test_update_rule_matches_reference_recurrence(self, small_problem):
        sc, op, pairs = small_problem
        two = pairs[:2]
        lr = 0.01
        cfg = TrainConfig(epochs=2, learning_rate=lr, shuffle_seed=9)
        state = sgd_train(two, [], cfg, op)

        # re-run the update rule from its definition on the training dtype,
        # sharing only the contribution tensors with the implementation
        dtype = training.DTYPE
        contribs = [op.contrib(d).values.astype(dtype) for d, _ in two]
        w = np.ones((sc.grid.n, sc.grid.n, sc.detectors.n_s), dtype=dtype)
        losses = []
        for epoch in (1, 2):
            total = 0.0
            for k in epoch_order(9, epoch, 2):
                b = contribs[k]
                residual = _detector_sum(w**2 * b) - two[k][1].values.astype(dtype)
                total += float(np.square(residual, dtype=np.float64).sum())
                full = 4.0 * residual[:, :, None] * w * b
                w = w - (lr / 1) * full
            losses.append(total / 2)

        assert np.array_equal(state.weights.values, w)
        assert state.train_losses == losses

    def test_deterministic(self, simulated_problem):
        sc, op, train, heldout = simulated_problem
        cfg = TrainConfig(epochs=3, learning_rate=1e-3, shuffle_seed=4)
        a = sgd_train(train, heldout, cfg, op)
        b = sgd_train(train, heldout, cfg, op)
        assert np.array_equal(a.weights.values, b.weights.values)
        assert a.train_losses == b.train_losses
        assert a.heldout_losses == b.heldout_losses

    def test_loss_decreases_with_prescanned_rate(self, simulated_problem):
        # generalization to held-out data needs a real training set and is
        # exercised by the acceptance suite; here only the optimization on
        # the four training samples is checked
        sc, op, train, heldout = simulated_problem
        cfg = TrainConfig(epochs=5)
        state = sgd_train(train, heldout, cfg, op)
        assert state.learning_rate > 0
        assert state.train_losses[-1] < state.train_losses[0]
        assert all(np.isfinite(state.heldout_losses))

    def test_checkpoint_cadence(self, small_problem):
        sc, op, pairs = small_problem
        seen = []
        cfg = TrainConfig(epochs=5, learning_rate=0.0, checkpoint_every=2)
        sgd_train(pairs, [], cfg, op, checkpoint=lambda e, w: seen.append(e))
        assert seen == [0, 2, 4, 5]

    def test_checkpoint_initial_and_final_only(self, small_problem):
        sc, op, pairs = small_problem
        seen = []
        cfg = TrainConfig(epochs=3, learning_rate=0.0)
        sgd_train(pairs, [], cfg, op, checkpoint=lambda e, w: seen.append(e))
        assert seen == [0, 3]

    def test_zero_epochs_returns_init(self, small_problem):
        sc, op, pairs = small_problem
        seen = []
        cfg = TrainConfig(epochs=0, learning_rate=1e-3, init="constant:2.5")
        state = sgd_train(pairs, [], cfg, op, checkpoint=lambda e, w: seen.append((e, w)))
        assert state.epoch == 0
        assert np.all(state.weights.values == 2.5)
        assert len(seen) == 1 and seen[0][0] == 0
        assert np.all(seen[0][1].values == 2.5)

    def test_log_callback_rows(self, small_problem):
        sc, op, pairs = small_problem
        rows = []
        cfg = TrainConfig(epochs=2, learning_rate=0.0)
        sgd_train(pairs, pairs[:1], cfg, op, log=lambda *row: rows.append(row))
        assert [r[0] for r in rows] == [1, 2]
        for _, train_loss, heldout, lr, wall in rows:
            assert train_loss >= 0 and heldout >= 0
            assert lr == 0.0
            assert wall >= 0.0

    def test_divergence_detected(self, simulated_problem):
        sc, op, train, _ = simulated_problem
        cfg = TrainConfig(epochs=5, learning_rate=1e12)
        with pytest.raises(DivergenceError):
            sgd_train(train, [], cfg, op)

    @pytest.mark.parametrize(
        "overrides, epoch",
        [({}, 1), ({"weight_grid": 4, "batch_size": 2}, 2)],
        ids=["full-resolution", "weight-grid-batch-2"],
    )
    def test_divergence_raised_at_the_end_of_its_epoch(self, simulated_problem, overrides, epoch):
        # a non-finite weight stays non-finite, so checking once per epoch
        # raises in the epoch that checking after every step named; the
        # coarse grid's two steps per epoch keep epoch 1 finite (in float32
        # for rates from 1e6 to 1e9; from 1e10 its first epoch overflows)
        sc, op, train, _ = simulated_problem
        checkpoints, rows = [], []
        cfg = TrainConfig(epochs=3, learning_rate=1e8, checkpoint_every=1, **overrides)
        with pytest.raises(DivergenceError, match=rf"at epoch {epoch}\b"):
            sgd_train(train, [], cfg, op, checkpoint=lambda e, w: checkpoints.append(e), log=lambda *row: rows.append(row))
        assert checkpoints == list(range(epoch))
        assert [row[0] for row in rows] == list(range(1, epoch))

    def test_empty_training_set_rejected(self, small_problem):
        sc, op, _ = small_problem
        with pytest.raises(ConfigError):
            sgd_train([], [], TrainConfig(epochs=1, learning_rate=0.0), op)

    def test_batch_size_two_runs(self, simulated_problem):
        sc, op, train, heldout = simulated_problem
        cfg = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=2)
        state = sgd_train(train, heldout, cfg, op)
        assert state.epoch == 2
        assert np.all(np.isfinite(state.weights.values))

    def test_coarse_weight_grid_trains(self, simulated_problem):
        sc, op, train, heldout = simulated_problem
        cfg = TrainConfig(epochs=3, weight_grid=4)
        state = sgd_train(train, heldout, cfg, op)
        assert state.weights.values.shape == (sc.grid.n, sc.grid.n, sc.detectors.n_s)
        assert state.train_losses[-1] < state.train_losses[0]


def _bits(values):
    values = np.ascontiguousarray(values)
    return values.view(f"i{values.dtype.itemsize}")


def _built(monkeypatch, block, sc, exact=False):
    """An operator built in blocks of ``block`` pixels, which training runs on."""
    monkeypatch.setattr(recon, "PIXEL_BLOCK", block)
    return BackprojectionOperator.from_scenario(sc, exact=exact)


def _detector_sum(terms):
    """Sum over the last, detector axis one detector after another from
    0.0, in the terms' dtype, the order numpy takes along the rows of a
    C-contiguous (n_s, pixels) array (a sum of -0.0 terms is +0.0 there
    too)."""
    total = np.zeros(terms.shape[:-1], dtype=terms.dtype)
    for j in range(terms.shape[-1]):
        total += terms[..., j]
    return total


def _reference_sgd(train, heldout, cfg, op, dtype=training.DTYPE):
    """SGD and its learning-rate pre-scan from their definitions, calling
    op.contrib afresh at every use; returns (weights, train losses,
    held-out losses, learning rate).  The arithmetic runs on whole
    (n, n, n_s) images of ``dtype`` (b, truths and parameters are cast to
    it) and sums the detectors in order; only the parameterization's
    detector-major rows and its upsampling are shared."""
    n, n_s = op.grid.n, op.detectors.n_s
    param = _WeightParam(op.grid, n_s, cfg.weight_grid)
    values = param.init_values(cfg.init).astype(dtype)

    def error_and_grad(v, pair):
        data, truth = pair
        w = param.expand_values(v).T.reshape(n, n, n_s)
        b = op.contrib(data).values.astype(dtype)
        residual = _detector_sum(w**2 * b) - truth.values.astype(dtype)
        return float(np.square(residual, dtype=np.float64).sum()), param.pull_back((4.0 * residual[:, :, None] * w * b).reshape(-1, n_s).T)

    def mean_error(v, pairs):
        total = 0.0
        for pair in pairs:
            total += error_and_grad(v, pair)[0]
        return total / len(pairs)

    lr = cfg.learning_rate
    if lr is None:
        probe = train[:PROBE_SAMPLES]
        base = mean_error(values, probe)
        with np.errstate(over="ignore", invalid="ignore"):
            for exponent in range(2, -13, -1):
                w, prev = values.copy(), base
                for _ in range(PROBE_STEPS):
                    for pair in probe:
                        w -= 10.0**exponent * error_and_grad(w, pair)[1]
                    current = mean_error(w, probe) if np.all(np.isfinite(w)) else np.inf
                    if not current < prev:
                        break
                    prev = current
                else:
                    lr = 10.0**exponent / 10.0
                    break

    train_losses, heldout_losses = [], []
    for epoch in range(1, cfg.epochs + 1):
        order = epoch_order(cfg.shuffle_seed, epoch, len(train))
        total = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            step = np.zeros_like(values)
            for k in batch:
                error, g = error_and_grad(values, train[k])
                total += error
                step += g
            values = values - (lr / len(batch)) * step
        train_losses.append(total / len(train))
        heldout_losses.append(mean_error(values, heldout))
    return param.expand_values(values).T.reshape(n, n, n_s).astype(np.float64), train_losses, heldout_losses, lr


def _assert_matches_reference(train, heldout, cfg, op, one_block):
    state = sgd_train(train, heldout, cfg, op)
    weights, train_losses, heldout_losses, lr = _reference_sgd(train, heldout, cfg, op)
    assert np.array_equal(_bits(state.weights.values), _bits(weights))
    assert state.learning_rate == lr
    if one_block:
        assert state.train_losses == train_losses
        assert state.heldout_losses == heldout_losses
    else:
        # sums over blocks add the same terms in another order
        assert state.train_losses == pytest.approx(train_losses, rel=1e-13, abs=0)
        assert state.heldout_losses == pytest.approx(heldout_losses, rel=1e-13, abs=0)


class TestStoredContributions:
    """Training from per-sample tables, pixel block by pixel block, against
    the whole-image reference."""

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"weight_grid": 4, "batch_size": 2, "shuffle_seed": 3}],
        ids=["full-resolution", "weight-grid-batch-2"],
    )
    def test_matches_reference_recomputing_every_step_bitwise(self, simulated_problem, overrides):
        # n^2 = 256 pixels fit one block, so the losses are bitwise too
        sc, op, train, heldout = simulated_problem
        cfg = TrainConfig(epochs=3, **overrides)
        state = sgd_train(train, heldout, cfg, op)
        weights, train_losses, heldout_losses, lr = _reference_sgd(train, heldout, cfg, op)
        assert np.array_equal(_bits(state.weights.values), _bits(weights))
        assert state.train_losses == train_losses
        assert state.heldout_losses == heldout_losses
        assert state.learning_rate == lr

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"batch_size": 3}, {"weight_grid": 4, "batch_size": 2, "shuffle_seed": 3}],
        ids=["batch-1", "batch-3", "weight-grid-batch-2"],
    )
    @pytest.mark.parametrize("problem", ["simulated_problem", "wide_problem"])
    def test_float64_reference_agrees_within_float32_rounding(self, request, problem, overrides):
        # the same definition run in float64 on the same float64 b: training
        # in float32 picks the same rate, and over 20 epochs its weights stay
        # within 100 float32 epsilons of their maximum, its losses within 10
        # (measured: 1.2e-6 and 9.2e-8 at most, against 1.2e-5 and 1.2e-6)
        sc, op, train, heldout = request.getfixturevalue(problem)
        eps = np.finfo(np.float32).eps
        cfg = TrainConfig(epochs=20, **overrides)
        state = sgd_train(train, heldout, cfg, op)
        weights, train_losses, heldout_losses, lr = _reference_sgd(train, heldout, cfg, op, dtype=np.float64)
        assert state.learning_rate == lr
        np.testing.assert_allclose(state.weights.values, weights, rtol=0, atol=100 * eps * np.abs(weights).max())
        assert state.train_losses == pytest.approx(train_losses, rel=10 * eps, abs=0)
        assert state.heldout_losses == pytest.approx(heldout_losses, rel=10 * eps, abs=0)

    @pytest.mark.parametrize("exact", [False, True], ids=["table", "exact"])
    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("block", [1, 7, 100, 257])
    def test_matches_reference_for_any_block_size(self, simulated_problem, monkeypatch, block, batch_size, exact):
        # 256 pixels: 128 blocks of two (a block holds at least two pixels),
        # 37 blocks (the last of 4 pixels), 3 blocks (the last of 56), one
        # block; the pre-scan picks the whole-image reference's rate
        sc, _, train, heldout = simulated_problem
        op = _built(monkeypatch, block, sc, exact=exact)
        cfg = TrainConfig(epochs=3, batch_size=batch_size, shuffle_seed=5)
        _assert_matches_reference(train, heldout, cfg, op, one_block=block > sc.grid.n**2)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"batch_size": 3}, {"weight_grid": 4, "batch_size": 2, "shuffle_seed": 3}],
        ids=["batch-1", "batch-3", "weight-grid-batch-2"],
    )
    @pytest.mark.parametrize("block", [1, 7, 257])
    def test_twenty_detectors_sum_in_detector_order(self, wide_problem, monkeypatch, block, overrides):
        sc, op, train, heldout = wide_problem
        b = op.contrib(train[0][0]).values
        assert not np.array_equal(_bits(_detector_sum(b)), _bits(b.sum(axis=-1)))  # the orders differ here
        op = _built(monkeypatch, block, sc)
        cfg = TrainConfig(epochs=3, **overrides)
        _assert_matches_reference(train, heldout, cfg, op, one_block=block > sc.grid.n**2 or "weight_grid" in overrides)

    @pytest.mark.parametrize("epochs", [0, 1, 4])
    @pytest.mark.parametrize("rate", [None, 1e-3], ids=["prescan", "given-rate"])
    def test_tables_are_built_once_per_sample(self, simulated_problem, monkeypatch, epochs, rate):
        # the pre-scan gathers its probes' b block by block from the same tables
        sc, _, train, heldout = simulated_problem
        op = _built(monkeypatch, 100, sc)
        calls = []
        tabulate = op.tabulate

        def counting(data):
            calls.append(data)
            return tabulate(data)

        monkeypatch.setattr(op, "tabulate", counting)
        sgd_train(train, heldout, TrainConfig(epochs=epochs, learning_rate=rate), op)
        assert len(calls) == len(train) + len(heldout)

    def test_divergence_in_the_last_block_stops_like_one_block(self, simulated_problem, monkeypatch):
        # zero weights have zero gradient, so only the last block's rows
        # move; at this rate they overflow in epoch 4
        sc, _, train, heldout = simulated_problem
        init = np.zeros((sc.grid.n, sc.grid.n, sc.detectors.n_s))
        init[12:] = 1.0
        cfg = TrainConfig(epochs=6, learning_rate=3.0, init="resume.patb", checkpoint_every=1)
        runs = []
        for block in (64, sc.grid.n**2):
            op = _built(monkeypatch, block, sc)
            checkpoints, rows = [], []
            with pytest.raises(DivergenceError) as info:
                sgd_train(train, heldout, cfg, op, checkpoint=lambda e, w: checkpoints.append((e, _bits(w.values))),
                          log=lambda *row: rows.append(row), weight_reader=lambda path: init)
            runs.append((str(info.value), checkpoints, rows))
        (message, checkpoints, rows), (one_message, one_checkpoints, one_rows) = runs
        assert "at epoch 4;" in one_message and message == one_message
        assert [e for e, _ in checkpoints] == [e for e, _ in one_checkpoints] == [0, 1, 2, 3]
        for (_, bits), (_, one_bits) in zip(checkpoints, one_checkpoints):
            assert np.array_equal(bits, one_bits)
        assert [row[0] for row in rows] == [row[0] for row in one_rows] == [1, 2, 3]
        for row, one_row in zip(rows, one_rows):
            assert row[1:3] == pytest.approx(one_row[1:3], rel=1e-13, abs=0)
            assert row[3] == one_row[3]

    def test_no_gather_after_the_first_block_diverges(self, simulated_problem, monkeypatch):
        # only the first block's rows are nonzero, so only they move; they
        # overflow in epoch 2, and the three blocks after it gather nothing
        # in that segment, with the message, checkpoints and rows of one block
        sc, _, train, heldout = simulated_problem
        init = np.zeros((sc.grid.n, sc.grid.n, sc.detectors.n_s))
        init[:4] = 1.0
        cfg = TrainConfig(epochs=6, learning_rate=5.0, init="resume.patb", checkpoint_every=1)
        runs = []
        for block in (64, sc.grid.n**2):
            op = _built(monkeypatch, block, sc)
            gather = op.gather
            starts, checkpoints, rows = [], [], []

            def counting(table, k, op=op, gather=gather):
                starts.append(op.blocks[k].start)
                return gather(table, k)

            monkeypatch.setattr(op, "gather", counting)
            with pytest.raises(DivergenceError) as info:
                sgd_train(train, heldout, cfg, op, checkpoint=lambda e, w: checkpoints.append((e, _bits(w.values))),
                          log=lambda *row: rows.append(row), weight_reader=lambda path: init)
            runs.append((str(info.value), checkpoints, rows, starts))
        (message, checkpoints, rows, starts), (one_message, one_checkpoints, one_rows, one_starts) = runs
        n_samples = len(train) + len(heldout)
        assert starts == [start for start in (0, 64, 128, 192, 0) for _ in range(n_samples)]
        assert one_starts == [0] * n_samples  # one block is gathered once per run
        assert "at epoch 2;" in one_message and message == one_message
        assert [e for e, _ in checkpoints] == [e for e, _ in one_checkpoints] == [0, 1]
        for (_, bits), (_, one_bits) in zip(checkpoints, one_checkpoints):
            assert np.array_equal(bits, one_bits)
        assert [row[0] for row in rows] == [row[0] for row in one_rows] == [1]
        for row, one_row in zip(rows, one_rows):
            assert row[1:3] == pytest.approx(one_row[1:3], rel=1e-13, abs=0)
            assert row[3] == one_row[3]

    @pytest.mark.parametrize("rate", [None, 1e-3], ids=["prescan", "given-rate"])
    def test_segments_write_their_checkpoints_before_the_next_segment_runs(self, simulated_problem, monkeypatch,
                                                                           rate):
        # 256 pixels in 3 blocks; with a cadence of 2, epochs 1-2, 3-4 and
        # 5 are segments, each gathering every sample's b once per block
        sc, _, train, heldout = simulated_problem
        op = _built(monkeypatch, 100, sc)
        tables, events = [], []
        tabulate, gather = op.tabulate, op.gather

        def tabulating(data):
            tables.append(tabulate(data))
            return tables[-1]

        def counting(table, k):
            events.append((k, [t is table for t in tables].index(True)))
            return gather(table, k)

        monkeypatch.setattr(op, "tabulate", tabulating)
        monkeypatch.setattr(op, "gather", counting)
        cfg = TrainConfig(epochs=5, learning_rate=rate, checkpoint_every=2)
        sgd_train(train, heldout, cfg, op, checkpoint=lambda e, w: events.append(f"c{e}"),
                  log=lambda e, *rest: events.append(f"l{e}"))
        start = events.index("c0")
        if rate is None:
            # every probe gather comes before the first checkpoint, in passes
            # over blocks 0, 1 and 2 in order, each reading only the probes' tables
            probe_pass = [(k, i) for k in range(3) for i in range(min(PROBE_SAMPLES, len(train)))]
            passes, rest = divmod(start, len(probe_pass))
            assert passes >= 1 and rest == 0
            assert events[:start] == probe_pass * passes
        else:
            assert start == 0
        segment = [(k, i) for k in range(3) for i in range(len(train) + len(heldout))]
        assert events[start:] == (["c0"] + segment + ["l1", "c2", "l2"] + segment + ["l3", "c4", "l4"]
                                  + segment + ["c5", "l5"])

    def test_each_epoch_is_shuffled_once_for_all_blocks(self, simulated_problem, monkeypatch):
        # 256 pixels in 3 blocks, segments of epochs 1-2, 3-4 and 5
        sc, _, train, heldout = simulated_problem
        epochs = []

        def counting(seed, epoch, n_samples):
            epochs.append(epoch)
            return epoch_order(seed, epoch, n_samples)

        monkeypatch.setattr(training, "epoch_order", counting)
        op = _built(monkeypatch, 100, sc)
        sgd_train(train, heldout, TrainConfig(epochs=5, learning_rate=1e-3, checkpoint_every=2), op)
        assert epochs == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("cadence", [0, 1], ids=["last-epoch", "every-epoch"])
    def test_holds_less_than_every_sample_b(self, monkeypatch, cadence):
        # 16 samples' b take 16 * 32^2 * 16 * 8 B = 2 MB; training holds
        # their tables (1/6 of that), one block of b and the weights, and
        # no more with a checkpoint each of 8 epochs (131 kB of weights each)
        sc = _scenario(n=32, n_s=16, n_t=40)
        op = _built(monkeypatch, 128, sc)
        pairs = [_random_pair(sc, seed) for seed in range(16)]
        all_b = len(pairs) * sc.grid.n**2 * sc.detectors.n_s * 8
        cfg = TrainConfig(epochs=8, learning_rate=1e-3, checkpoint_every=cadence)
        tracemalloc.start()
        try:
            sgd_train(pairs[:12], pairs[12:], cfg, op, checkpoint=lambda e, w: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < all_b


class TestInPlaceUpdate:
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"batch_size": 3}, {"weight_grid": 4, "batch_size": 2}],
        ids=["full-resolution", "batch-3", "weight-grid-batch-2"],
    )
    def test_returned_tensors_own_their_arrays(self, simulated_problem, overrides):
        # the update runs in place; no tensor handed out may see a later step
        sc, op, train, heldout = simulated_problem
        kept = []
        cfg = TrainConfig(epochs=3, learning_rate=1e-3, checkpoint_every=1, **overrides)
        state = sgd_train(train, heldout, cfg, op, checkpoint=lambda e, w: kept.append((e, w, w.values.copy())))
        assert [e for e, _, _ in kept] == [0, 1, 2, 3]
        for _, tensor, copy in kept:
            assert np.array_equal(_bits(tensor.values), _bits(copy))
        assert np.all(kept[0][2] == 1.0)
        assert not np.array_equal(kept[1][2], kept[0][2])
        assert np.array_equal(_bits(state.weights.values), _bits(kept[-1][2]))

    def test_one_step_allocates_no_contribution_sized_array(self):
        # the product w^2 b and the gradient both go into the buffer; what
        # is left is per-pixel vectors and numpy's fixed 64 KB loop buffer
        sc = _scenario(n=64, n_s=20, n_t=40)
        op = BackprojectionOperator.from_scenario(sc)
        data, truth = _random_pair(sc, 3)
        b = training._detector_major(op.contrib(data).values)
        w = np.random.default_rng(4).uniform(0.5, 1.5, b.shape)
        f = truth.values.reshape(-1)
        buf = np.empty_like(b)
        expected = training._step(w, b, f)
        tracemalloc.start()
        try:
            error, full = training._step(w, b, f, out=buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert full is buf
        assert error == expected[0] and np.array_equal(_bits(full), _bits(expected[1]))
        assert peak < b.nbytes / 3

    def test_resumed_weights_are_not_written(self, simulated_problem):
        sc, op, train, heldout = simulated_problem
        resumed = np.random.default_rng(21).uniform(0.5, 1.5, (sc.grid.n, sc.grid.n, sc.detectors.n_s))
        copy = resumed.copy()
        cfg = TrainConfig(epochs=2, learning_rate=1e-3, init="resume.patb")
        state = sgd_train(train, heldout, cfg, op, weight_reader=lambda path: resumed)
        assert np.array_equal(_bits(resumed), _bits(copy))
        assert not np.array_equal(state.weights.values, copy)


    @pytest.mark.parametrize(
        "overrides", [{}, {"weight_grid": 4, "batch_size": 2}], ids=["full-resolution", "weight-grid-batch-2"]
    )
    def test_checkpoint_files_hold_the_trained_weights_bitwise(self, simulated_problem, tmp_path, overrides):
        # the weights train in float32 and widen to float64 exactly, so the
        # float32 PATB payload loses nothing
        sc, op, train, heldout = simulated_problem
        handed = {}

        def checkpoint(epoch, weights):
            fileio.write_patb(tmp_path / f"w{epoch}.patb", weights.values)
            handed[epoch] = weights.values

        cfg = TrainConfig(epochs=3, learning_rate=1e-3, checkpoint_every=1, **overrides)
        state = sgd_train(train, heldout, cfg, op, checkpoint=checkpoint)
        assert sorted(handed) == [0, 1, 2, 3]
        for epoch, values in handed.items():
            assert np.array_equal(_bits(fileio.read_patb(tmp_path / f"w{epoch}.patb")), _bits(values))
        assert np.array_equal(_bits(fileio.read_patb(tmp_path / "w3.patb")), _bits(state.weights.values))


class TestMemoryCheck:
    @pytest.fixture(scope="class")
    def desk_problem(self):
        # 64^2 with 20 detectors, as in the C_limited_sparse desk scale
        sc = _scenario(n=64, n_s=20, n_t=40)
        fwd = ForwardOperator(sc)
        pairs = [(fwd.simulate(f), f) for f in (generate_phantom(PhantomParams(seed=s), sc.grid) for s in range(16))]
        return BackprojectionOperator.from_scenario(sc), pairs[:12], pairs[12:]

    @pytest.mark.parametrize(
        "overrides", [{"learning_rate": 1e-3}, {}, {"weight_grid": 4}], ids=["given-rate", "prescan", "weight-grid"]
    )
    def test_footprint_bounds_the_traced_peak(self, desk_problem, overrides):
        # the footprint sums the phases (pre-scan, blocks, checkpoints), so
        # it may count up to twice what is ever held at once
        op, train, heldout = desk_problem
        cfg = TrainConfig(epochs=2, checkpoint_every=1, **overrides)
        need = training.training_bytes(op, cfg, len(train), len(heldout))
        tracemalloc.start()
        try:
            sgd_train(train, heldout, cfg, op, checkpoint=lambda e, w: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need < 2 * peak

    @pytest.mark.parametrize("overrides", [{}, {"weight_grid": 16}], ids=["full-resolution", "weight-grid"])
    def test_a_checkpoint_holds_one_weight_tensor(self, desk_problem, monkeypatch, overrides):
        # each checkpoint frees the tensor before it, then writes the next
        # one in a single C-contiguous float64 array; beyond that array the
        # expand holds the finiteness mask (1/8 of it) and, with a weight
        # grid, the float32 upsampled weights (1/2)
        op, train, heldout = desk_problem
        tensor_bytes = op.grid.n**2 * op.detectors.n_s * 8
        expand, alive, peaks = _WeightParam.expand, [], []

        def traced(param, values):
            assert all(ref() is None for ref in alive)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            tensor = expand(param, values)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            assert tensor.values.flags["C_CONTIGUOUS"]
            alive.append(weakref.ref(tensor))
            return tensor

        monkeypatch.setattr(_WeightParam, "expand", traced)
        cfg = TrainConfig(epochs=3, learning_rate=1e-3, checkpoint_every=1, **overrides)
        tracemalloc.start()
        try:
            sgd_train(train, heldout, cfg, op, checkpoint=lambda e, w: None)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 4
        bound = 1.2 if "weight_grid" not in overrides else 1.55
        assert max(peaks) < bound * tensor_bytes

    def test_larger_than_available_memory_fails_before_tabulating(self, simulated_problem, monkeypatch):
        sc, op, train, heldout = simulated_problem
        cfg = TrainConfig(epochs=1)
        need = training.training_bytes(op, cfg, len(train), len(heldout))
        calls = []
        tabulate = op.tabulate

        def counting(data):
            calls.append(data)
            return tabulate(data)

        monkeypatch.setattr(op, "tabulate", counting)
        monkeypatch.setattr(training, "available_memory", lambda: need - 1)
        with pytest.raises(ConfigError, match=rf"training on 6 samples at n=16, n_s=4 needs {need / 1e6:.1f} MB"):
            sgd_train(train, heldout, cfg, op)
        assert calls == []
        monkeypatch.setattr(training, "available_memory", lambda: need)
        assert sgd_train(train, heldout, cfg, op).epoch == 1
        assert len(calls) == len(train) + len(heldout)


class TestPrescan:
    def test_returns_power_of_ten(self, simulated_problem, monkeypatch):
        # the probes' b of each of 3 blocks, gathered from their tables
        sc, _, train, _ = simulated_problem
        op = _built(monkeypatch, 100, sc)
        param = _WeightParam(sc.grid, sc.detectors.n_s, None)
        tables = [op.tabulate(data) for data, _ in train[:PROBE_SAMPLES]]
        truths = [truth.values.reshape(-1).astype(training.DTYPE) for _, truth in train[:PROBE_SAMPLES]]

        def gather(k):
            return [training._detector_major(op.gather(table, k), training.DTYPE) for table in tables]

        lr = prescan_learning_rate(param, param.init_values("ones"), op.blocks, gather, truths)
        assert lr > 0
        assert math.isclose(10 ** round(math.log10(lr)), lr, rel_tol=1e-12)

    def test_zero_loss_shortcut(self, small_problem):
        sc, op, pairs = small_problem
        data, _ = pairs[0]
        w = WeightTensor.ones(sc.grid, sc.detectors.n_s)
        param = _WeightParam(sc.grid, sc.detectors.n_s, None)
        b = training._detector_major(op.contrib(data).values)
        truth = op.apply(w, data).values.reshape(-1)
        spans = [slice(0, sc.grid.n**2)]
        assert prescan_learning_rate(param, param.init_values("ones"), spans, lambda k: [b], [truth]) == 1e-6

    @pytest.mark.parametrize("block", [7, 100, None], ids=["block-7", "block-100", "default"])
    def test_full_resolution_training_gathers_no_whole_image(self, simulated_problem, monkeypatch, block):
        # the probes' b is gathered block by block, like the training samples'
        sc, op, train, heldout = simulated_problem
        if block is not None:
            op = _built(monkeypatch, block, sc)

        def whole_image(table):
            raise AssertionError("gather_image called")

        monkeypatch.setattr(op, "gather_image", whole_image)
        state = sgd_train(train, heldout, TrainConfig(epochs=2), op)
        assert state.epoch == 2 and state.learning_rate > 0

    def test_peak_stays_below_one_whole_image_probe_set(self):
        # 64^2 with 20 detectors in 4 blocks: the probes' b of one block at
        # a time, never the float32 whole-image b of every probe
        sc = _scenario(n=64, n_s=20, n_t=40)
        op = BackprojectionOperator.from_scenario(sc)
        pairs = [_random_pair(sc, seed) for seed in range(PROBE_SAMPLES)]
        param = _WeightParam(sc.grid, sc.detectors.n_s, None)
        tables = [op.tabulate(data) for data, _ in pairs]
        truths = [truth.values.reshape(-1).astype(training.DTYPE) for _, truth in pairs]
        probe_set = PROBE_SAMPLES * sc.grid.n**2 * sc.detectors.n_s * 4

        def gather(k):
            return [training._detector_major(op.gather(table, k), training.DTYPE) for table in tables]

        values = param.init_values("ones")
        tracemalloc.start()
        try:
            prescan_learning_rate(param, values, op.blocks, gather, truths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(op.blocks) == 4
        assert peak < probe_set


def _coo_upsample_matrix(coarse, fine):
    """The interpolation matrix built entry by entry from its four bilinear
    corners, as an oracle for the Kronecker construction."""
    from scipy import sparse

    pos = (np.arange(fine) + 0.5) * (coarse / fine) - 0.5
    i0 = np.clip(np.floor(pos).astype(np.int64), 0, coarse - 2)
    frac = np.clip(pos - i0, 0.0, 1.0)

    rows_i, cols_i = np.meshgrid(np.arange(fine), np.arange(fine), indexing="ij")
    entries = []
    for di in (0, 1):
        wi = np.where(di == 0, 1.0 - frac, frac)[rows_i]
        for dj in (0, 1):
            wj = np.where(dj == 0, 1.0 - frac, frac)[cols_i]
            rows = (rows_i * fine + cols_i).ravel()
            cols = ((i0[rows_i] + di) * coarse + (i0[cols_i] + dj)).ravel()
            entries.append((rows, cols, (wi * wj).ravel()))
    rows = np.concatenate([e[0] for e in entries])
    cols = np.concatenate([e[1] for e in entries])
    vals = np.concatenate([e[2] for e in entries])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(fine * fine, coarse * coarse))


class TestUpsampleMatrix:
    @pytest.mark.parametrize(
        "coarse, fine", [(2, 16), (4, 12), (4, 16), (8, 32), (16, 64), (3, 64), (7, 67), (32, 256), (64, 64), (5, 3)]
    )
    def test_kronecker_square_matches_entrywise_build_bitwise(self, coarse, fine):
        u, oracle = _upsample_matrix(coarse, fine), _coo_upsample_matrix(coarse, fine)
        assert u.shape == oracle.shape
        assert np.array_equal(u.indptr, oracle.indptr)
        assert np.array_equal(u.indices, oracle.indices)
        assert np.array_equal(_bits(u.data), _bits(oracle.data))

    def test_preserves_constants(self):
        u = _upsample_matrix(4, 16)
        out = u @ np.ones(16)
        np.testing.assert_allclose(out, 1.0, atol=1e-14)

    def test_reproduces_linear_ramp_in_interior(self):
        coarse, fine = 8, 32
        u = _upsample_matrix(coarse, fine)
        cx = (np.arange(coarse) + 0.5) / coarse
        fx = (np.arange(fine) + 0.5) / fine
        ramp = (cx[:, None] + 0.0 * cx[None, :]).ravel()
        out = (u @ ramp).reshape(fine, fine)
        # away from the clamped border the interpolation is exact on ramps
        interior = slice(fine // coarse, -fine // coarse)
        got = out[interior, interior]
        expected = np.broadcast_to(fx[interior][:, None], got.shape)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("coarse, fine", [(4, 16), (16, 64), (3, 64), (7, 67), (5, 3)])
    def test_factored_map_matches_the_sparse_matrix(self, coarse, fine):
        # expand_values is the product with _upsample_matrix and pull_back
        # with its transpose, both applied in float32 through the 1-D
        # factor: within 8 float32 epsilons of the largest float64 entry
        param = _WeightParam(ImageGrid(n=fine), 5, coarse)
        u = _upsample_matrix(coarse, fine)
        rng = np.random.default_rng(coarse * fine)
        v = rng.uniform(0.5, 1.5, (5, coarse**2)).astype(training.DTYPE)
        g = rng.standard_normal((5, fine**2)).astype(training.DTYPE)
        for got, expected in ((param.expand_values(v), (u @ v.T.astype(np.float64)).T),
                              (param.pull_back(g), (u.T @ g.T.astype(np.float64)).T)):
            assert got.dtype == training.DTYPE and got.flags.c_contiguous
            np.testing.assert_allclose(got, expected, rtol=0, atol=8 * np.finfo(np.float32).eps * np.abs(expected).max())

    def test_pull_back_is_the_adjoint_of_expand(self):
        param = _WeightParam(ImageGrid(n=20), 3, 6)
        rng = np.random.default_rng(8)
        v, g = rng.standard_normal((3, 36)), rng.standard_normal((3, 400))
        assert np.vdot(param.expand_values(v), g) == pytest.approx(np.vdot(v, param.pull_back(g)), rel=1e-12)

    def test_no_whole_image_temporary(self):
        # at 64^2 with 20 detectors and a 16^2 grid, the temporaries are
        # (n_s, 64, 16): a quarter of a whole-image (n_s, 64^2) array
        param = _WeightParam(ImageGrid(n=64), 20, 16)
        rng = np.random.default_rng(9)
        v = rng.uniform(0.5, 1.5, (20, 256)).astype(training.DTYPE)
        g = rng.standard_normal((20, 64 * 64)).astype(training.DTYPE)
        for apply, arg, result_bytes in ((param.expand_values, v, g.nbytes), (param.pull_back, g, v.nbytes)):
            tracemalloc.start()
            try:
                apply(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < result_bytes + g.nbytes / 2

    def test_shape_and_sparsity(self):
        u = _upsample_matrix(4, 12)
        assert u.shape == (144, 16)
        assert u.nnz <= 4 * 144


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=-1)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1e-3)
        with pytest.raises(ConfigError):
            TrainConfig(checkpoint_every=-1)
        with pytest.raises(ConfigError):
            TrainConfig(weight_grid=1)

    def test_bad_init_strings(self, small_problem):
        sc, op, pairs = small_problem
        with pytest.raises(ConfigError):
            sgd_train(pairs, [], TrainConfig(epochs=0, learning_rate=0.0, init="constant:abc"), op)
        with pytest.raises(ConfigError):
            sgd_train(pairs, [], TrainConfig(epochs=0, learning_rate=0.0, init="no-such-init"), op)

    def test_train_state_validation(self):
        w = WeightTensor.ones(ImageGrid(n=4), 2)
        with pytest.raises(ConfigError):
            TrainState(weights=w, epoch=2, train_losses=[1.0])
        with pytest.raises(ConfigError):
            TrainState(weights=w, epoch=1, train_losses=[-1.0])
