import tracemalloc

import numpy as np
import pytest

from learnedbp.errors import ConfigError, ShapeMismatchError
from learnedbp.forward import SensorData
from learnedbp.geometry import ImageGrid, Scenario, TimeGrid, make_detectors, make_scenario
from learnedbp.metrics import (
    METHOD_UBP,
    METHOD_WEIGHTED,
    EvalReport,
    evaluate,
    format_report,
    rel_error,
    report_csv,
)
from learnedbp.phantoms import Image
from learnedbp.recon import BackprojectionOperator, WeightTensor


def _scenario(n=16, n_s=4, n_t=40):
    return Scenario(
        grid=ImageGrid(n=n),
        detectors=make_detectors("B_sparse", n_s, 1.0),
        time=TimeGrid(n_t=n_t, t_final=3.0),
        directivity_enabled=False,
        label="B_sparse",
    )


def _pairs(sc, count, start_seed=0):
    out = []
    for k in range(count):
        rng = np.random.default_rng(start_seed + k)
        smooth = np.cumsum(rng.standard_normal((sc.time.n_t, sc.detectors.n_s)), axis=0)
        data = SensorData(smooth / np.abs(smooth).max(), sc.time, sc.detectors)
        truth = Image(sc.grid, rng.standard_normal((sc.grid.n, sc.grid.n)))
        out.append((data, truth))
    return out


class TestRelError:
    def _images(self):
        grid = ImageGrid(n=8)
        rng = np.random.default_rng(1)
        f = Image(grid, rng.standard_normal((8, 8)))
        return grid, f

    def test_identity_is_zero(self):
        _, f = self._images()
        assert rel_error(f, f) == 0.0

    def test_zero_estimate_is_one(self):
        grid, f = self._images()
        zero = Image(grid, np.zeros((8, 8)))
        assert rel_error(zero, f) == 1.0

    def test_double_estimate_is_one(self):
        grid, f = self._images()
        double = Image(grid, 2.0 * f.values)
        assert rel_error(double, f) == pytest.approx(1.0, rel=1e-14)

    def test_squared_variant(self):
        grid, f = self._images()
        rng = np.random.default_rng(2)
        g = Image(grid, f.values + 0.1 * rng.standard_normal((8, 8)))
        assert rel_error(g, f, squared=True) == pytest.approx(rel_error(g, f) ** 2, rel=1e-14)

    def test_scale_invariance(self):
        grid, f = self._images()
        rng = np.random.default_rng(3)
        g = Image(grid, f.values + rng.standard_normal((8, 8)))
        f4 = Image(grid, 4.0 * f.values)
        g4 = Image(grid, 4.0 * g.values)
        assert rel_error(g4, f4) == rel_error(g, f)

    def test_zero_truth_rejected(self):
        grid, f = self._images()
        zero = Image(grid, np.zeros((8, 8)))
        with pytest.raises(ConfigError):
            rel_error(f, zero)

    def test_grid_mismatch_rejected(self):
        _, f = self._images()
        other = Image(ImageGrid(n=8, extent=2.0), f.values)
        with pytest.raises(ShapeMismatchError):
            rel_error(f, other)


class TestEvaluate:
    def test_ubp_errors_match_direct_computation(self):
        sc = _scenario()
        op = BackprojectionOperator.from_scenario(sc)
        pairs = _pairs(sc, 3)
        report = evaluate(None, pairs, op, scenario_label="B_sparse")
        assert report.methods == [METHOD_UBP]
        assert report.count == 3
        assert report.sample_indices == [0, 1, 2]
        expected = [rel_error(op.standard(d), f) for d, f in pairs]
        assert report.errors[METHOD_UBP] == expected
        assert report.failures == []

    def test_ones_weights_duplicate_ubp_column(self):
        sc = _scenario()
        op = BackprojectionOperator.from_scenario(sc)
        pairs = _pairs(sc, 3)
        w = WeightTensor.ones(sc.grid, sc.detectors.n_s)
        report = evaluate(w, pairs, op)
        assert report.methods == [METHOD_UBP, METHOD_WEIGHTED]
        assert report.errors[METHOD_WEIGHTED] == report.errors[METHOD_UBP]

    def test_errors_match_the_whole_contribution_tensor(self):
        # 96^2 pixels at 20 detectors make two pixel blocks, the last one partial
        sc = _scenario(n=96, n_s=20, n_t=60)
        op = BackprojectionOperator.from_scenario(sc)
        assert [span.stop for span in op.blocks] == [5120, 96 * 96]
        pairs = _pairs(sc, 3)
        w = WeightTensor(np.random.default_rng(8).uniform(0.5, 1.5, (96, 96, 20)), sc.grid)
        for squared in (False, True):
            report = evaluate(w, pairs, op, squared=squared)
            contribs = [op.contrib(d) for d, _ in pairs]
            ubp = [rel_error(b.sum_image(), f, squared) for b, (_, f) in zip(contribs, pairs)]
            weighted = [rel_error(op.apply_to_contrib(w, b), f, squared) for b, (_, f) in zip(contribs, pairs)]
            assert report.errors == {METHOD_UBP: ubp, METHOD_WEIGHTED: weighted}

    def test_non_finite_contributions_recorded_as_a_failure(self):
        sc = _scenario()
        op = BackprojectionOperator.from_scenario(sc)
        pairs = _pairs(sc, 2)
        # 1e307 is finite, but its filtered trace is not
        overflowing = SensorData(np.full((sc.time.n_t, sc.detectors.n_s), 1e307), sc.time, sc.detectors)
        pairs[0] = (overflowing, pairs[0][1])
        for w in (None, WeightTensor.ones(sc.grid, sc.detectors.n_s)):
            with np.errstate(over="ignore", invalid="ignore"):
                report = evaluate(w, pairs, op)
            assert report.failures == [(0, "contributions must be finite")]
            assert report.sample_indices == [1]

    def test_peak_stays_below_one_contribution_tensor(self):
        n, n_s = 256, 20
        sc = make_scenario("B_sparse", n=n, n_s=n_s, n_t=100)
        op = BackprojectionOperator.from_scenario(sc)
        pairs = _pairs(sc, 2)
        w = WeightTensor(np.random.default_rng(9).uniform(0.5, 1.5, (n, n, n_s)), sc.grid)
        tracemalloc.start()
        try:
            report = evaluate(w, pairs, op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.sample_indices == [0, 1]
        assert peak < n * n * n_s * 8

    def test_partial_failure_recorded(self):
        sc = _scenario()
        op = BackprojectionOperator.from_scenario(sc)
        pairs = _pairs(sc, 3)
        zero_truth = Image(sc.grid, np.zeros((sc.grid.n, sc.grid.n)))
        pairs[1] = (pairs[1][0], zero_truth)
        report = evaluate(None, pairs, op)
        assert report.sample_indices == [0, 2]
        assert len(report.errors[METHOD_UBP]) == 2
        assert len(report.failures) == 1
        assert report.failures[0][0] == 1

    def test_all_failures_raise(self):
        sc = _scenario()
        op = BackprojectionOperator.from_scenario(sc)
        zero_truth = Image(sc.grid, np.zeros((sc.grid.n, sc.grid.n)))
        pairs = [(d, zero_truth) for d, _ in _pairs(sc, 2)]
        with pytest.raises(ConfigError):
            evaluate(None, pairs, op)

    def test_empty_rejected(self):
        sc = _scenario()
        op = BackprojectionOperator.from_scenario(sc)
        with pytest.raises(ConfigError):
            evaluate(None, [], op)

    def test_mean(self):
        report = EvalReport(scenario="custom", count=2)
        report.errors[METHOD_UBP] = [0.2, 0.4]
        assert report.mean(METHOD_UBP) == pytest.approx(0.3)
        report.errors[METHOD_WEIGHTED] = []
        assert np.isnan(report.mean(METHOD_WEIGHTED))


class TestReportFormats:
    def _report(self):
        report = EvalReport(scenario="A_limited_view", count=2)
        report.errors[METHOD_UBP] = [0.25, 0.35]
        report.errors[METHOD_WEIGHTED] = [0.125, 0.175]
        report.sample_indices = [0, 1]
        return report

    def test_text_table(self):
        text = format_report(self._report())
        lines = text.splitlines()
        assert "A_limited_view" in lines[0]
        assert "2 samples" in lines[0]
        assert any("UBP" in line and "0.300000" in line for line in lines)
        assert any("weighted-UBP" in line and "0.150000" in line for line in lines)

    def test_text_table_failure_lines(self):
        report = self._report()
        report.failures.append((7, "boom"))
        assert "sample 7 failed: boom" in format_report(report)

    def test_csv_layout(self):
        csv = report_csv(self._report())
        lines = csv.splitlines()
        assert lines[0] == "scenario,method,sample,rel_error"
        assert lines[1] == "A_limited_view,UBP,0,0.25"
        assert lines[2] == "A_limited_view,UBP,1,0.35"
        assert lines[3] == "A_limited_view,weighted-UBP,0,0.125"
        assert lines[4] == "A_limited_view,weighted-UBP,1,0.175"
        assert csv.endswith("\n")
        assert len(lines) == 5
