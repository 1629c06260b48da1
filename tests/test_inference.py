import numpy as np
import pytest

from ordbounds import (
    IntervalReport,
    UnitRecord,
    bootstrap_bounds_ci,
    bootstrap_pair_ci_with_independent,
    estimate_randomized,
)

from test_estimation import make_records


def sample_records():
    return make_records([4, 12, 4], [8, 4, 8])


class TestBasics:
    def test_interval_contains_point_bounds(self):
        ci = bootstrap_bounds_ci(sample_records(), n_boot=200, seed=1)
        est = estimate_randomized(sample_records())
        assert ci.ci_low <= float(est.report.tau_L) + 1e-12
        assert ci.ci_high >= float(est.report.tau_U) - 1e-12
        assert 0.0 <= ci.ci_low <= ci.ci_high <= 1.0
        assert ci.n_boot == 200

    def test_deterministic_given_seed(self):
        a = bootstrap_bounds_ci(sample_records(), n_boot=200, seed=9)
        b = bootstrap_bounds_ci(sample_records(), n_boot=200, seed=9)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    def test_seed_changes_interval(self):
        a = bootstrap_bounds_ci(sample_records(), n_boot=200, seed=1)
        b = bootstrap_bounds_ci(sample_records(), n_boot=200, seed=2)
        assert (a.ci_low, a.ci_high) != (b.ci_low, b.ci_high)

    def test_n_boot_minimum(self):
        with pytest.raises(ValueError):
            bootstrap_bounds_ci(sample_records(), n_boot=50)

    def test_unknown_estimand(self):
        with pytest.raises(ValueError):
            bootstrap_bounds_ci(sample_records(), estimand="theta")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            bootstrap_bounds_ci(sample_records(), n_boot=100, method="bca")

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalReport(point_lower=0.2, point_upper=0.6, ci_low=0.7, ci_high=0.5,
                           level=0.95, n_boot=100, seed=0)


class TestLevels:
    def test_nested_levels(self):
        recs = sample_records()
        c90 = bootstrap_bounds_ci(recs, n_boot=500, level=0.90, seed=3)
        c95 = bootstrap_bounds_ci(recs, n_boot=500, level=0.95, seed=3)
        c99 = bootstrap_bounds_ci(recs, n_boot=500, level=0.99, seed=3)
        assert c99.ci_low <= c95.ci_low <= c90.ci_low
        assert c90.ci_high <= c95.ci_high <= c99.ci_high

    def test_normal_method_clipped_to_unit_interval(self):
        recs = make_records([0, 0, 20], [20, 0, 0])  # bounds are (1, 1)
        ci = bootstrap_bounds_ci(recs, n_boot=200, seed=4, method="normal")
        assert ci.ci_high <= 1.0

    def test_degenerate_data_gives_point_interval(self):
        recs = make_records([0, 20], [20, 0])
        ci = bootstrap_bounds_ci(recs, n_boot=200, seed=5)
        assert ci.ci_low == pytest.approx(1.0, abs=1e-12)
        assert ci.ci_high == pytest.approx(1.0, abs=1e-12)


class TestEstimandsAndEstimators:
    def test_eta_interval(self):
        ci = bootstrap_bounds_ci(sample_records(), estimand="eta", n_boot=200, seed=6)
        est = estimate_randomized(sample_records())
        assert ci.point_lower == pytest.approx(float(est.report.eta_L), abs=1e-12)
        assert ci.point_upper == pytest.approx(float(est.report.eta_U), abs=1e-12)

    def test_independent_lower(self):
        ci = bootstrap_pair_ci_with_independent(
            sample_records(), estimand="tau", n_boot=200, seed=6
        )
        est = estimate_randomized(sample_records())
        assert ci.point_lower == pytest.approx(float(est.report.tau_I), abs=1e-12)
        assert ci.point_upper == pytest.approx(float(est.report.tau_U), abs=1e-12)

    def test_complier_estimator(self):
        rng = np.random.default_rng(90)
        from test_noncompliance import TRUTH, draw_iv_records

        recs = draw_iv_records(TRUTH, 2000, rng)
        ci = bootstrap_bounds_ci(recs, estimator="complier", n_boot=150, seed=8)
        assert 0.0 <= ci.ci_low <= ci.ci_high <= 1.0
        assert ci.point_lower <= ci.point_upper

    def test_adjusted_estimator(self):
        rng = np.random.default_rng(91)
        recs = []
        for _ in range(400):
            s = int(rng.integers(0, 2))
            z = int(rng.integers(0, 2))
            y = int(rng.integers(0, 3))
            recs.append(UnitRecord(z=z, y=y, x=(float(s),)))
        ci = bootstrap_bounds_ci(
            recs, estimator="adjusted", n_boot=120, seed=8, strata="discrete"
        )
        assert 0.0 <= ci.ci_low <= ci.ci_high <= 1.0
