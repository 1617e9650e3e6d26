import io
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from learnedbp import memory, recon, training
from learnedbp.errors import ConfigError, ShapeMismatchError
from learnedbp.forward import ForwardOperator, SensorData
from learnedbp.geometry import DetectorArray, ImageGrid, Scenario, TimeGrid, make_detectors, make_scenario
from learnedbp.phantoms import Image
from learnedbp.recon import (
    BackprojectionOperator,
    ContribTensor,
    WeightTensor,
    integral_weights,
    time_filter,
)


def _scenario(n=32, n_s=8, n_t=60, t_final=3.0, directivity=False, label="B_sparse"):
    return Scenario(
        grid=ImageGrid(n=n),
        detectors=make_detectors(label, n_s, 1.0),
        time=TimeGrid(n_t=n_t, t_final=t_final),
        directivity_enabled=directivity,
        label=label,
    )


def _smooth_data(scenario, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((scenario.time.n_t, scenario.detectors.n_s))
    # cumulative sums make the traces smooth enough for interpolation checks
    smooth = np.cumsum(np.cumsum(raw, axis=0), axis=0)
    smooth *= scale / max(1.0, np.abs(smooth).max())
    return SensorData(smooth, scenario.time, scenario.detectors)


class TestTimeFilter:
    def _data(self, values, n_s=3, n_t=50, t_final=2.0):
        det = make_detectors("B_sparse", n_s, 1.0)
        time = TimeGrid(n_t=n_t, t_final=t_final)
        t = time.samples()
        vals = np.repeat(values(t)[:, None], n_s, axis=1)
        return SensorData(vals, time, det)

    def test_linear_trace_filters_to_zero(self):
        data = self._data(lambda t: 4.0 * t)
        assert np.array_equal(time_filter(data), np.zeros_like(data.values))

    def test_quadratic_trace_filters_to_one(self):
        data = self._data(lambda t: t * t)
        np.testing.assert_allclose(time_filter(data), 1.0, atol=1e-11)

    def test_cubic_trace(self):
        data = self._data(lambda t: t**3)
        t = data.time.samples()
        q = time_filter(data)
        np.testing.assert_allclose(q[1:-1, 0], 2.0 * t[1:-1], rtol=1e-10)
        assert q[0, 0] == pytest.approx(t[0] + t[1], rel=1e-10)
        assert q[-1, 0] == pytest.approx(t[-2] + t[-1], rel=1e-10)

    def test_sound_speed_rescales_axis(self):
        c = 2.0
        det = make_detectors("B_sparse", 2, 1.0)
        time = TimeGrid(n_t=40, t_final=1.5)
        t = time.samples()
        vals = np.repeat(((c * t) ** 2)[:, None], 2, axis=1)
        q = time_filter(SensorData(vals, time, det), sound_speed=c)
        np.testing.assert_allclose(q, 1.0, atol=1e-11)


class TestSingularIntegral:
    def test_constant_integrand_closed_form(self):
        time = TimeGrid(n_t=300, t_final=3.0)
        q = np.ones(300)
        d = 1.0
        expected = math.log((3.0 + math.sqrt(9.0 - d * d)) / d)
        assert integral_weights(np.array([d]), time)[0] @ q == pytest.approx(expected, rel=1e-12)

    def test_linear_integrand_closed_form(self):
        time = TimeGrid(n_t=240, t_final=3.0)
        t = time.samples()
        q = 2.0 + 0.5 * t
        d = 0.73
        s = math.sqrt(9.0 - d * d)
        expected = 2.0 * math.log((3.0 + s) / d) + 0.5 * s
        assert integral_weights(np.array([d]), time)[0] @ q == pytest.approx(expected, rel=1e-12)

    def test_zero_beyond_window(self):
        time = TimeGrid(n_t=100, t_final=3.0)
        q = np.ones(100)
        assert integral_weights(np.array([3.0]), time)[0] @ q == 0.0
        assert integral_weights(np.array([5.0]), time)[0] @ q == 0.0


def _dense_integral_weights(d, time):
    """integral_weights over every interval of every row, the formula before
    rows were computed from their first active interval on."""
    tau = time.samples()
    a, b, d_col = tau[:-1][None, :], tau[1:][None, :], d[:, None]
    lo = np.maximum(a, d_col)
    active = d_col < b
    s_b = np.sqrt(np.maximum(b**2 - d_col**2, 0.0))
    s_lo = np.sqrt(np.maximum(lo**2 - d_col**2, 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        j0 = np.log(b + s_b) - np.log(lo + s_lo)
    j1 = s_b - s_lo
    j0 = np.where(active, j0, 0.0)
    j1 = np.where(active, j1, 0.0)
    w_hi = (j1 - a * j0) / (b - a)
    w_lo = j0 - w_hi
    weights = np.zeros((d.shape[0], time.n_t))
    weights[:, :-1] += w_lo
    weights[:, 1:] += w_hi
    return weights


class TestBandedIntegralWeights:
    def test_table_distances_match_dense_formula_bitwise(self):
        sc = _scenario(n_t=80)
        op = BackprojectionOperator.from_scenario(sc)
        n_d = op._table_matrix.shape[0] - 1
        d = np.arange(n_d + 1) * (sc.time.t_final / n_d)
        assert np.array_equal(_bits(op._table_matrix), _bits(_dense_integral_weights(d, sc.time)))

    def test_unsorted_distances_match_dense_formula_bitwise(self):
        time = TimeGrid(n_t=90, t_final=3.0)
        d = np.random.default_rng(16).uniform(0.0, 3.5, 700)
        # zero, below the first sample, at and beyond the window's end
        d[[3, 200, 450, 451, 699]] = [0.0, 0.4 * time.samples()[0], 3.0, 5.0, time.samples()[-2]]
        weights = integral_weights(d, time)
        assert np.array_equal(_bits(weights), _bits(_dense_integral_weights(d, time)))
        assert not weights[450].any() and not weights[451].any()
        assert weights[3].all()

    def test_empty_distances(self):
        assert integral_weights(np.array([]), TimeGrid(n_t=10, t_final=1.0)).shape == (0, 10)


class TestBackprojection:
    def test_zero_data_zero_image(self):
        sc = _scenario()
        op = BackprojectionOperator.from_scenario(sc)
        data = SensorData(np.zeros((sc.time.n_t, sc.detectors.n_s)), sc.time, sc.detectors)
        assert np.all(op.standard(data).values == 0.0)
        w = WeightTensor.ones(sc.grid, sc.detectors.n_s)
        assert np.all(op.apply(w, data).values == 0.0)

    def test_ones_weights_match_standard_bitwise(self):
        sc = _scenario()
        op = BackprojectionOperator.from_scenario(sc)
        data = _smooth_data(sc, seed=1)
        w = WeightTensor.ones(sc.grid, sc.detectors.n_s)
        assert np.array_equal(op.apply(w, data).values, op.standard(data).values)

    def test_weight_sign_irrelevant(self):
        sc = _scenario()
        op = BackprojectionOperator.from_scenario(sc)
        data = _smooth_data(sc, seed=2)
        rng = np.random.default_rng(5)
        w = WeightTensor(rng.standard_normal((sc.grid.n, sc.grid.n, sc.detectors.n_s)), sc.grid)
        w_neg = WeightTensor(-w.values, sc.grid)
        assert np.array_equal(op.apply(w, data).values, op.apply(w_neg, data).values)

    def test_quadratic_weight_homogeneity(self):
        sc = _scenario()
        op = BackprojectionOperator.from_scenario(sc)
        data = _smooth_data(sc, seed=3)
        rng = np.random.default_rng(6)
        w = WeightTensor(rng.standard_normal((sc.grid.n, sc.grid.n, sc.detectors.n_s)), sc.grid)
        w2 = WeightTensor(2.0 * w.values, sc.grid)
        # doubling the weights quadruples the image, exactly in binary
        assert np.array_equal(op.apply(w2, data).values, 4.0 * op.apply(w, data).values)

    def test_linear_in_data(self):
        sc = _scenario()
        op = BackprojectionOperator.from_scenario(sc)
        d1 = _smooth_data(sc, seed=4)
        d2 = _smooth_data(sc, seed=5)
        both = SensorData(d1.values + d2.values, sc.time, sc.detectors)
        lhs = op.standard(both).values
        rhs = op.standard(d1).values + op.standard(d2).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-11 * max(1.0, np.abs(rhs).max()))

    def test_detector_column_locality(self):
        sc = _scenario(n_s=6)
        op = BackprojectionOperator.from_scenario(sc)
        data = _smooth_data(sc, seed=7)
        vals = data.values.copy()
        vals[:, 2] = 0.0
        b = op.contrib(SensorData(vals, sc.time, sc.detectors))
        assert np.all(b.values[:, :, 2] == 0.0)
        assert np.any(b.values[:, :, 3] != 0.0)

    def test_causality_zeroes_far_pixels(self):
        # a short time window cannot reach distant pixels, so their
        # contributions vanish no matter the data
        sc = _scenario(n=16, n_s=4, n_t=30, t_final=1.2)
        op = BackprojectionOperator.from_scenario(sc)
        data = _smooth_data(sc, seed=8)
        b = op.contrib(data)
        pixels = sc.grid.pixel_centers().reshape(-1, 2)
        for j in range(4):
            dist = np.linalg.norm(pixels - sc.detectors.positions[j], axis=1)
            far = (dist >= 1.2).reshape(sc.grid.n, sc.grid.n)
            assert far.any()
            assert np.all(b.values[:, :, j][far] == 0.0)

    def test_in_place_contrib_and_apply_match_plain_expressions_bitwise(self):
        # contrib writes each block's sparse product into its tensor and
        # apply_values works in place; the operations and their order are
        # those of the plain expressions, so results are bitwise equal
        sc = _scenario(n=24, n_s=5, n_t=80)
        op = BackprojectionOperator.from_scenario(sc)
        data = _smooth_data(sc, seed=10)
        table = op._table_matrix @ time_filter(data, op.sound_speed)
        built = _whole_image_build(sc.grid, sc.detectors, sc.time, op.sound_speed, exact=False)
        geom, idx, frac = built["geom"], built["idx"], built["frac"]
        lo = np.take_along_axis(table, idx, axis=0)
        hi = np.take_along_axis(table, idx + 1, axis=0)
        # a row's sum starts from +0.0, so the two compare equal, not bitwise, at -0.0
        expected = (geom * (1.0 - frac) * lo + geom * frac * hi).reshape(24, 24, 5)
        b = op.contrib(data).values
        assert np.array_equal(b, expected)
        w = np.random.default_rng(11).standard_normal(b.shape)
        # apply_values sums axis 0: the detector axis moved there as a view
        # is still the contiguous one, summed as the plain expression sums it
        w_view, b_view = np.moveaxis(w, -1, 0), np.moveaxis(b, -1, 0)
        assert np.array_equal(BackprojectionOperator.apply_values(w_view, b_view), (w**2 * b).sum(axis=2))
        buf = np.empty_like(b)
        out = np.moveaxis(buf, -1, 0)
        assert np.array_equal(BackprojectionOperator.apply_values(w_view, b_view, out=out), (w**2 * b).sum(axis=2))
        assert np.array_equal(buf, w**2 * b)

    def test_exact_mode_close_to_table(self):
        sc = _scenario(n=24, n_s=5, n_t=80)
        data = _smooth_data(sc, seed=9)
        b_table = BackprojectionOperator.from_scenario(sc).contrib(data)
        b_exact = BackprojectionOperator.from_scenario(sc, exact=True).contrib(data)
        scale = np.abs(b_exact.values).max()
        np.testing.assert_allclose(b_table.values, b_exact.values, atol=2e-3 * scale)

    def test_detector_on_pixel_center_rejected(self):
        grid = ImageGrid(n=4, extent=1.0)
        radius = math.hypot(0.75, 0.25)
        pos = np.array([[0.75, 0.25], [-0.75, -0.25]])
        normals = pos / radius
        det = DetectorArray(pos, normals, 0.1, radius)
        with pytest.raises(ConfigError):
            BackprojectionOperator(grid, det, TimeGrid(n_t=20, t_final=3.0))

    def test_bad_sound_speed_rejected(self):
        # a NaN speed would fail every call after the build, an infinite
        # one would reconstruct every image as 0
        sc = _scenario(n=16, n_s=4, n_t=40)
        for sound_speed in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="sound speed must be positive and finite"):
                BackprojectionOperator(sc.grid, sc.detectors, sc.time, sound_speed)

    def test_data_shape_mismatch_rejected(self):
        sc = _scenario(n_s=4)
        op = BackprojectionOperator.from_scenario(sc)
        other = make_detectors("B_sparse", 5, 1.0)
        data = SensorData(np.zeros((sc.time.n_t, 5)), sc.time, other)
        with pytest.raises(ShapeMismatchError):
            op.standard(data)

    def test_data_of_another_layout_with_the_same_shape_rejected(self):
        sc = _scenario(n_s=4)
        op = BackprojectionOperator.from_scenario(sc)
        # the same layout turned by 0.25 rad: every scalar field is equal
        other = make_detectors("custom", 4, 1.0, 0.25, 0.25 + 2 * math.pi)
        assert (other.arc_weight, other.radius) == (sc.detectors.arc_weight, sc.detectors.radius)
        data = SensorData(np.zeros((sc.time.n_t, 4)), sc.time, other)
        with pytest.raises(ShapeMismatchError, match="data detectors do not match"):
            op.standard(data)

    def test_weight_shape_mismatch_rejected(self):
        sc = _scenario(n_s=4)
        op = BackprojectionOperator.from_scenario(sc)
        data = _smooth_data(sc, seed=10)
        overflowing = SensorData(np.full(data.values.shape, 1e307), sc.time, sc.detectors)
        for n, n_s in ((sc.grid.n, 3), (16, 4)):
            wrong = WeightTensor(np.ones((n, n, n_s)), ImageGrid(n=n))
            with pytest.raises(ShapeMismatchError, match="do not match operator"):
                op.apply(wrong, data)
            # the weights are checked before any contribution is computed
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ShapeMismatchError, match="do not match operator"):
                    op.apply(wrong, overflowing)

    def test_table_mode_keeps_no_distance_array(self):
        sc = _scenario(n=16, n_s=4, n_t=40)
        table = BackprojectionOperator.from_scenario(sc)
        assert not {"geom", "dist", "_flat", "_frac"} & set(vars(table))
        # per (pixel, detector) row of a gather matrix: two float64 values
        # and two int32 columns; one read-only int32 row pointer of the
        # largest block, which every block's matrix views, plus the
        # quadrature table
        rows = sc.grid.n**2 * sc.detectors.n_s
        indptr = table._gather_matrices[0].indptr
        assert indptr.dtype == np.int32 and not indptr.flags.writeable
        assert all(np.shares_memory(m.indptr, indptr) for m in table._gather_matrices)
        largest = max(span.stop - span.start for span in table.blocks) * sc.detectors.n_s
        assert _kept_bytes(table) == 24 * rows + 4 * (largest + 1) + table._table_matrix.nbytes
        exact = BackprojectionOperator.from_scenario(sc, exact=True)
        assert not {"geom", "dist"} & set(vars(exact))
        kept = [v for v in vars(exact).values() if isinstance(v, np.ndarray)]
        assert kept and all(v.size != rows for v in kept)

    @pytest.mark.parametrize("exact", [False, True])
    def test_overflowing_data_is_rejected(self, exact):
        # 1e307 is finite, but its filtered trace is not
        sc = _scenario(n=12, n_s=3, n_t=30)
        op = BackprojectionOperator.from_scenario(sc, exact=exact)
        data = SensorData(np.full((30, 3), 1e307), sc.time, sc.detectors)
        weights = WeightTensor.ones(sc.grid, 3)
        with np.errstate(over="ignore", invalid="ignore"):
            for call in (lambda: op.contrib(data), lambda: op.apply(weights, data), lambda: op.standard(data)):
                with pytest.raises(ShapeMismatchError, match="contributions must be finite"):
                    call()


def _bits(values):
    return np.ascontiguousarray(values).view(np.int64)


def _kept_bytes(op):
    """Bytes of the arrays an operator keeps, its gather matrices' included;
    an array that several views share is counted once, in full."""
    arrays = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
    for matrix in getattr(op, "_gather_matrices", []):
        arrays += [matrix.data, matrix.indices, matrix.indptr]
    owners = {}
    for array in arrays:
        while isinstance(array.base, np.ndarray):
            array = array.base
        owners[id(array)] = array
    return sum(array.nbytes for array in owners.values())


def _built(monkeypatch, block, sc, **kwargs):
    """An operator built in blocks of ``block`` pixels."""
    monkeypatch.setattr(recon, "BLOCK_VALUES", block * sc.detectors.n_s)
    return BackprojectionOperator.from_scenario(sc, **kwargs)


class TestPixelBlocks:
    @pytest.mark.parametrize("exact", [False, True])
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, exact):
        # n^2 = 4489 exceeds a block of 1024 pixels and is not a multiple of 7
        n, n_s = 67, 3
        sc = _scenario(n=n, n_s=n_s, n_t=40)
        op = _built(monkeypatch, 1024, sc, exact=exact)
        assert len(op.blocks) == 5
        data = _smooth_data(sc, seed=13)
        weights = WeightTensor(np.random.default_rng(14).uniform(0.5, 1.5, (n, n, n_s)), sc.grid)
        b = op.contrib(data)
        image = op.apply(weights, data).values
        assert np.array_equal(_bits(image), _bits(op.apply_to_contrib(weights, b).values))
        for block in (1, 7, n * n + 1):
            op = _built(monkeypatch, block, sc, exact=exact)
            assert np.array_equal(_bits(op.contrib(data).values), _bits(b.values))
            assert np.array_equal(_bits(op.apply(weights, data).values), _bits(image))

    def test_blocks_partition_the_pixels(self, monkeypatch):
        # a lone last pixel joins the block before: numpy sums one pixel's
        # detectors pairwise, not row by row
        for n_s in (1, 3, 20, 100):
            assert recon.pixel_blocks(1, n_s) == [slice(0, 1)]
        for block, n_px, sizes in ((1, 5, [2, 3]), (7, 15, [7, 8]), (7, 16, [7, 7, 2]), (4, 4, [4])):
            for n_s in (1, 3, 20, 100):
                monkeypatch.setattr(recon, "BLOCK_VALUES", block * n_s)
                blocks = recon.pixel_blocks(n_px, n_s)
                assert [span.stop - span.start for span in blocks] == sizes
                assert blocks[0].start == 0 and blocks[-1].stop == n_px
                assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))

    def test_one_hundred_detectors_keep_blocks_of_1024_pixels(self):
        # the partition at 100 detectors is the one of fixed 1024-pixel blocks
        for n_px in (256 * 256, 5000):
            bounds = list(range(0, n_px - 1, 1024)) + [n_px]
            assert recon.pixel_blocks(n_px, 100) == [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        assert recon.pixel_blocks(5000, 100)[-1] == slice(4096, 5000)
        assert len(recon.pixel_blocks(256 * 256, 100)) == 64

    def test_blocks_hold_a_budget_of_values(self):
        # 5120 pixels at 20 detectors, so a 64^2 image is one block; 102,400
        # values make blocks of 34,133 pixels at 3 detectors
        assert recon.pixel_blocks(64 * 64, 20) == [slice(0, 64 * 64)]
        assert [span.stop for span in recon.pixel_blocks(128 * 128, 20)] == [5120, 10240, 15360, 16384]
        assert recon.pixel_blocks(5121, 20) == [slice(0, 5121)]
        assert recon.pixel_blocks(5122, 20) == [slice(0, 5120), slice(5120, 5122)]
        assert recon.pixel_blocks(34134, 3) == [slice(0, 34134)]
        # more detectors than the budget: two pixels per block, at least
        assert [span.stop - span.start for span in recon.pixel_blocks(7, 200_000)] == [2, 2, 3]

    def test_paper_scale_footprints_are_those_of_1024_pixel_blocks(self):
        # A/256 with 100 detectors, 150 + 30 samples, n_t = 400: the
        # footprints of the fixed 1024-pixel blocks the budget of values
        # replaced; exact mode keeps nothing per (pixel, detector) and counts
        # one gather, 12.7 MB with its geometry, its (1024, n_t) quadrature
        # matrix and nine (128, n_t) chunk temporaries; training holds the
        # probes' b (131 MB) or, per checkpoint epoch before the last, a 26 MB slot
        assert recon.operator_bytes(256 * 256, 100, 400, exact=False) == 172_059_780
        assert recon.gather_bytes(1024, 100, 400, exact=True) == 9_011_200 + 9 * 8 * 128 * 400 == 12_697_600
        assert recon.operator_bytes(256 * 256, 100, 400, exact=True) == 18_251_776 + 9 * 8 * 128 * 400
        op = SimpleNamespace(grid=SimpleNamespace(n=256), detectors=SimpleNamespace(n_s=100),
                             blocks=recon.pixel_blocks(256 * 256, 100),
                             gather_bytes=lambda: recon.gather_bytes(1024, 100, 400, exact=False),
                             table_bytes=lambda: (recon.TABLE_NODES_PER_DT * 400 + 1) * 100 * 8)
        assert training.training_bytes(op, training.TrainConfig(), 150, 30) == 515_707_520
        assert training.training_bytes(op, training.TrainConfig(checkpoint_every=1), 150, 30) == 3_027_374_720
        assert training.training_bytes(op, training.TrainConfig(weight_grid=32), 150, 30) == 5_181_051_520

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_sums_keep_their_pixel_major_bits_at_twenty_detectors(self, monkeypatch, block):
        # the oracle is the pixel-major sum (w**2 * b).sum(axis=-1) on
        # C-contiguous (n^2, n_s) arrays, which numpy adds pairwise from 8
        # terms on; training's detector-major sum adds the rows in order
        n, n_s = 67, 20
        sc = _scenario(n=n, n_s=n_s, n_t=40)
        op = _built(monkeypatch, block, sc)
        data = _smooth_data(sc, seed=18)
        weights = WeightTensor(np.random.default_rng(19).uniform(0.5, 1.5, (n, n, n_s)), sc.grid)
        b = op.contrib(data)
        w_rows, b_rows = weights.values.reshape(-1, n_s), b.values.reshape(-1, n_s)
        weighted = (w_rows**2 * b_rows).sum(axis=-1).reshape(n, n)
        plain = b_rows.sum(axis=-1).reshape(n, n)
        in_order = np.zeros(n * n)
        for j in range(n_s):
            in_order += w_rows[:, j] ** 2 * b_rows[:, j]
        assert not np.array_equal(_bits(in_order.reshape(n, n)), _bits(weighted))  # the orders differ here
        assert np.array_equal(_bits(op.apply(weights, data).values), _bits(weighted))
        assert np.array_equal(_bits(op.apply_to_contrib(weights, b).values), _bits(weighted))
        assert np.array_equal(_bits(b.sum_image().values), _bits(plain))
        assert np.array_equal(_bits(op.standard(data).values), _bits(plain))

    @pytest.mark.parametrize("block, exact", [(1, False), (7, False), (4096, False), (1000, True)])
    def test_standard_and_apply_from_one_gather(self, monkeypatch, block, exact):
        n, n_s = 67, 20
        sc = _scenario(n=n, n_s=n_s, n_t=40)
        op = BackprojectionOperator.from_scenario(sc, exact=exact)
        data = _smooth_data(sc, seed=21)
        weights = WeightTensor(np.random.default_rng(22).uniform(0.5, 1.5, (n, n, n_s)), sc.grid)
        plain, weighted = op.standard(data).values, op.apply(weights, data).values
        op = _built(monkeypatch, block, sc, exact=exact)
        tabulate = op.tabulate
        calls = []
        monkeypatch.setattr(op, "tabulate", lambda d: calls.append(d) or tabulate(d))
        both = op.standard_and_apply(weights, data)
        assert len(calls) == 1
        assert np.array_equal(_bits(both[0].values), _bits(plain))
        assert np.array_equal(_bits(both[1].values), _bits(weighted))
        overflowing = SensorData(np.full((40, n_s), 1e307), sc.time, sc.detectors)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ShapeMismatchError, match="contributions must be finite"):
                op.standard_and_apply(weights, overflowing)

    @pytest.mark.parametrize("block", [1, 7, 1024, 4096, 5000])
    def test_each_block_matches_the_step_table_gather(self, monkeypatch, block):
        # the oracle is the gather the gather matrices replaced: one flat
        # take of the table and one of its node-to-node steps at offsets
        # idx * n_s + j, times the geometric factor; the sparse product
        # sums geom (1 - frac) t[idx] and geom frac t[idx + 1] instead, so
        # the two agree to rounding: within 1e-15 of the peak (measured: at
        # most 2.1e-16 here, 3.1e-16 at 256^2 with 20 detectors)
        n, n_s = 67, 3
        sc = _scenario(n=n, n_s=n_s, n_t=40)
        op = _built(monkeypatch, block, sc)
        data = _smooth_data(sc, seed=16)
        table = op.tabulate(data)
        built = _whole_image_build(sc.grid, sc.detectors, sc.time, op.sound_speed, exact=False)
        flat = built["idx"] * n_s + np.arange(n_s)
        step = table[1:] - table[:-1]
        expected = (step.take(flat) * built["frac"] + table.take(flat)) * built["geom"]
        peak = np.abs(expected).max()
        assert [op.blocks[0].start, op.blocks[-1].stop] == [0, n * n]
        for k, span in enumerate(op.blocks):
            np.testing.assert_allclose(op.gather(table, k), expected[span], rtol=0, atol=1e-15 * peak)
        np.testing.assert_allclose(op.contrib(data).values.reshape(-1, n_s), expected, rtol=0, atol=1e-15 * peak)

    def test_exact_gather_matches_contrib_rows_bitwise(self, monkeypatch):
        n, n_s = 20, 3
        sc = _scenario(n=n, n_s=n_s, n_t=40)
        op = BackprojectionOperator.from_scenario(sc, exact=True)
        data = _smooth_data(sc, seed=17)
        b = op.contrib(data).values.reshape(-1, n_s)
        q = op.tabulate(data)
        assert np.array_equal(_bits(q), _bits(time_filter(data, op.sound_speed)))
        for block in (7, 300, n * n):
            op = _built(monkeypatch, block, sc, exact=True)
            for k, span in enumerate(op.blocks):
                assert np.array_equal(_bits(op.gather(q, k)), _bits(b[span]))

    def test_apply_holds_less_than_one_contribution_tensor(self):
        sc = make_scenario("B_sparse", n=256, n_s=20, n_t=400)
        op = BackprojectionOperator.from_scenario(sc)
        data = _smooth_data(sc, seed=15)
        weights = WeightTensor.ones(sc.grid, 20)
        tracemalloc.start()
        try:
            op.apply(weights, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 256 * 20 * 8


def _whole_image_build(grid, detectors, time, sound_speed, exact):
    """The geometry arrays built over the whole image at once: the oracle
    of the blocked table build and of exact mode's per-gather geometry."""
    pixels = grid.pixel_centers().reshape(-1, 2)
    diff = pixels[:, None, :] - detectors.positions[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    if np.any(dist == 0.0):
        raise ConfigError("a pixel center coincides with a detector position")
    tau_max = sound_speed * time.samples()[-1]
    outward_dot = np.einsum("psk,sk->ps", diff, detectors.normals)
    geom = (1.0 / np.pi) * outward_dot * detectors.arc_weight
    geom[dist >= tau_max] = 0.0
    if exact:
        return {"geom": geom, "dist": dist}
    n_d = recon.TABLE_NODES_PER_DT * time.n_t
    pos = dist / (sound_speed * time.t_final / n_d)
    idx = np.minimum(pos.astype(np.int64), n_d - 1)
    return {"geom": geom, "idx": idx, "frac": pos - idx}


class TestBlockedBuild:
    @pytest.mark.parametrize("block", [1, 7, 4096])
    @pytest.mark.parametrize("exact", [False, True])
    def test_matches_whole_image_build_bitwise(self, monkeypatch, exact, block):
        # n^2 = 4489 leaves a partial last block for 7 and 4096; the short
        # window at sound speed 1.25 zeroes the far pixels' geometry
        sc = _scenario(n=67, n_s=5, n_t=40, t_final=1.2)
        expected = _whole_image_build(sc.grid, sc.detectors, sc.time, 1.25, exact)
        monkeypatch.setattr(recon, "BLOCK_VALUES", block * sc.detectors.n_s)
        op = BackprojectionOperator(sc.grid, sc.detectors, sc.time, 1.25, exact)
        held = {k: v for k, v in vars(op).items() if isinstance(v, np.ndarray)}
        assert (expected["geom"] == 0.0).any() and (expected["geom"] != 0.0).any()
        if not exact:
            # the gather matrices' rows as the whole-image arrays give them
            assert set(held) == {"_table_matrix"}
            geom, idx, frac = expected["geom"], expected["idx"], expected["frac"]
            values = np.stack([geom * (1.0 - frac), geom * frac], axis=-1)
            columns = idx * 5 + np.arange(5)
            columns = np.stack([columns, columns + 5], axis=-1).astype(np.int32)
            for span, matrix in zip(op.blocks, op._gather_matrices):
                rows = (span.stop - span.start) * 5
                assert matrix.shape == (rows, (recon.TABLE_NODES_PER_DT * 40 + 1) * 5)
                assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
                assert np.array_equal(matrix.indptr, np.arange(0, 2 * rows + 1, 2))
                # one read-only row pointer, a prefix of it for a shorter block
                assert np.shares_memory(matrix.indptr, op._gather_matrices[0].indptr)
                assert not matrix.indptr.flags.writeable
                assert np.array_equal(matrix.indices, columns[span].ravel())
                assert np.array_equal(_bits(matrix.data), _bits(values[span].ravel()))
            return
        # each gather makes its block's geometry: b as the whole-image
        # arrays give it, one row-wise quadrature sum per detector
        assert set(held) == {"_pixels"}
        q = op.tabulate(_smooth_data(sc, seed=23))
        b = np.empty_like(expected["dist"])
        for j in range(5):
            b[:, j] = (integral_weights(expected["dist"][:, j], sc.time, 1.25) * q[:, j]).sum(axis=1)
        b *= expected["geom"]
        for k, span in enumerate(op.blocks):
            assert np.array_equal(_bits(op.gather(q, k)), _bits(b[span])), k

    @pytest.mark.parametrize("exact", [False, True])
    def test_detector_on_a_pixel_of_the_last_block_rejected(self, monkeypatch, exact):
        # 16 pixels in blocks of 7: pixel 15, centered at (0.75, -0.75), is in the last
        grid = ImageGrid(n=4, extent=1.0)
        radius = math.hypot(0.75, 0.75)
        pos = np.array([[radius, 0.0], [0.75, -0.75]])
        det = DetectorArray(pos, pos / radius, 0.1, radius)
        monkeypatch.setattr(recon, "BLOCK_VALUES", 7 * det.n_s)
        time = TimeGrid(n_t=20, t_final=3.0)
        message = "a pixel center coincides with a detector position"
        with pytest.raises(ConfigError, match=message):
            _whole_image_build(grid, det, time, 1.0, exact)
        with pytest.raises(ConfigError, match=message):
            BackprojectionOperator(grid, det, time, exact=exact)

    @pytest.mark.parametrize("exact", [False, True])
    def test_build_peaks_near_the_arrays_it_keeps(self, exact):
        # the whole-image build exceeded them by about five (n^2, n_s) arrays
        n, n_s, n_t = 256, 20, 400
        sc = make_scenario("B_sparse", n=n, n_s=n_s, n_t=n_t)
        tracemalloc.start()
        try:
            op = BackprojectionOperator.from_scenario(sc, exact=exact)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = _kept_bytes(op)
        assert peak - kept < n * n * n_s * 8
        assert peak <= recon.operator_bytes(n * n, n_s, n_t, exact)

    def test_exact_build_keeps_only_the_pixel_centers(self):
        # whole-image geom and dist arrays would be 20.0 MiB here
        n, n_s = 256, 20
        sc = make_scenario("B_sparse", n=n, n_s=n_s, n_t=400)
        tracemalloc.start()
        try:
            op = BackprojectionOperator.from_scenario(sc, exact=True)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= n * n * 16 + 64_000
        assert not {"geom", "dist"} & set(vars(op))

    def test_exact_gather_peaks_within_the_footprint(self):
        # a gather of the largest block makes a (5120, n_t) quadrature matrix
        # per detector, 16.4 MB, twenty times the b it returns
        n, n_s, n_t = 256, 20, 400
        sc = make_scenario("B_sparse", n=n, n_s=n_s, n_t=n_t)
        data = SensorData(np.random.default_rng(3).standard_normal((n_t, n_s)), sc.time, sc.detectors)
        tracemalloc.start()
        try:
            op = BackprojectionOperator.from_scenario(sc, exact=True)
            b = op.gather(op.tabulate(data), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert b.shape == (5120, n_s)
        assert peak <= recon.operator_bytes(n * n, n_s, n_t, exact=True)

    @pytest.mark.parametrize("label, n, n_t", [("B_sparse", 32, 400), ("C_limited_sparse", 16, 200)])
    def test_exact_gather_peaks_within_its_count_at_small_grids(self, label, n, n_t):
        # at four detectors integral_weights' (128, n_t) chunk temporaries
        # outweigh b, the geometry and the quadrature matrix together
        sc = make_scenario(label, n=n, n_s=4, n_t=n_t)
        op = BackprojectionOperator.from_scenario(sc, exact=True)
        table = op.tabulate(SensorData(np.random.default_rng(4).standard_normal((n_t, 4)), sc.time, sc.detectors))
        for k in range(len(op.blocks)):
            tracemalloc.start()
            try:
                op.gather(table, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= op.gather_bytes()


class TestMemoryCheck:
    @pytest.mark.parametrize("exact", [False, True])
    def test_operator_larger_than_available_memory_fails_before_allocating(self, monkeypatch, exact):
        sc = _scenario(n=32, n_s=8, n_t=60)
        need = recon.operator_bytes(32 * 32, 8, 60, exact)
        monkeypatch.setattr(recon, "available_memory", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as info:
                BackprojectionOperator.from_scenario(sc, exact=exact)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 32 * 8 * 8
        mode = "exact" if exact else "table"
        assert f"n=32, n_s=8 in {mode} mode needs {need / 1e6:.1f} MB" in str(info.value)
        assert f"{(need - 1) / 1e6:.1f} MB available" in str(info.value)
        for available in (need, None):
            monkeypatch.setattr(recon, "available_memory", lambda: available)
            BackprojectionOperator.from_scenario(sc, exact=exact)

    @pytest.mark.parametrize(
        "files, expected",
        [
            ({"/proc/meminfo": "MemTotal: 8000 kB\nMemAvailable: 5000 kB\n"}, 5000 * 1024),
            (
                {
                    "/proc/meminfo": "MemAvailable: 5000 kB\n",
                    "/proc/self/cgroup": "4:memory:/x\n0::/user/job\n",
                    "/sys/fs/cgroup/user/job/memory.max": "1000000\n",
                },
                1000000,
            ),
            (
                {
                    "/proc/meminfo": "MemAvailable: 5000 kB\n",
                    "/proc/self/cgroup": "0::/\n",
                    "/sys/fs/cgroup/memory.max": "max\n",
                },
                5000 * 1024,
            ),
            ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/memory.max": "7000000\n"}, 7000000),
            ({}, None),
        ],
    )
    def test_available_memory_reads_meminfo_and_the_cgroup_limit(self, monkeypatch, files, expected):
        def fake_open(path, *args, **kwargs):
            if path not in files:
                raise FileNotFoundError(path)
            return io.StringIO(files[path])

        monkeypatch.setattr(memory, "open", fake_open, raising=False)
        assert memory.available_memory() == expected


class TestRoundTripAccuracy:
    def test_dense_full_view_recovers_smooth_source(self):
        n = 64
        label = "B_sparse"
        sc = Scenario(
            grid=ImageGrid(n=n),
            detectors=make_detectors(label, 100, 1.0),
            time=TimeGrid(n_t=200, t_final=3.0),
            directivity_enabled=False,
            label=label,
        )
        pts = sc.grid.pixel_centers()
        d2 = (pts[:, :, 0] - 0.1) ** 2 + (pts[:, :, 1] + 0.05) ** 2
        img = Image(sc.grid, np.exp(-d2 / (2.0 * 0.15**2)))
        data = ForwardOperator(sc).simulate(img)
        recon = BackprojectionOperator.from_scenario(sc).standard(data)
        rel = np.linalg.norm(recon.values - img.values) / np.linalg.norm(img.values)
        assert rel < 0.05


class TestWeightTensor:
    def test_ones_factory(self):
        grid = ImageGrid(n=8)
        w = WeightTensor.ones(grid, 5)
        assert w.values.shape == (8, 8, 5)
        assert w.n_s == 5
        assert np.all(w.values == 1.0)

    def test_shape_validation(self):
        grid = ImageGrid(n=8)
        with pytest.raises(ShapeMismatchError):
            WeightTensor(np.ones((8, 7, 3)), grid)
        with pytest.raises(ShapeMismatchError):
            WeightTensor(np.ones((8, 8)), grid)
        with pytest.raises(ShapeMismatchError):
            WeightTensor(np.ones((8, 8, 0)), grid)

    def test_finite_validation(self):
        grid = ImageGrid(n=8)
        bad = np.ones((8, 8, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ShapeMismatchError):
            WeightTensor(bad, grid)


class TestContribTensor:
    def test_sum_image(self):
        grid = ImageGrid(n=4)
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((4, 4, 3))
        b = ContribTensor(vals, grid)
        assert np.array_equal(b.sum_image().values, vals.sum(axis=2))
        assert b.n_s == 3
