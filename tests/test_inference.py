import numpy as np
import pytest

from ordbounds import (
    IntervalReport,
    UnitRecord,
    bootstrap_bounds_ci,
    bootstrap_pair_ci_with_independent,
    bootstrap_replicates,
    complier_bounds,
    em_fit,
    estimate_adjusted,
    estimate_ipw,
    estimate_randomized,
    interval_from_replicates,
)
from ordbounds.exceptions import EmptyArm, ReplicateFailure

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


def covariate_records(seed, n=300):
    """Units with one covariate that shifts both the assignment (propensity
    0.3-0.7) and the outcome."""
    rng = np.random.default_rng(seed)
    recs = []
    for _ in range(n):
        x = int(rng.integers(0, 2))
        z = int(rng.random() < 0.3 + 0.4 * x)
        y = int(min(2, rng.integers(0, 2) + x * rng.integers(0, 2) + z * rng.integers(0, 2)))
        recs.append(UnitRecord(z=z, y=y, x=(float(x),)))
    return recs


def iv_records(seed, n=2000):
    from test_noncompliance import TRUTH, draw_iv_records

    return draw_iv_records(TRUTH, n, np.random.default_rng(seed))


# (estimator, records, options) for every estimator the CLI bootstraps
SHARED_CASES = {
    "randomized": ("randomized", sample_records, {}),
    "ipw": ("ipw", lambda: covariate_records(31), {}),
    "adjusted_discrete": ("adjusted", lambda: covariate_records(32), {"strata": "discrete"}),
    "adjusted_model": ("adjusted", lambda: covariate_records(33), {"strata": "model"}),
    "complier": ("complier", lambda: iv_records(34), {}),
}
PAIRS = [("tau", "bound"), ("tau", "independent"), ("eta", "bound"), ("eta", "independent")]


class TestSharedReplicates:
    @pytest.mark.parametrize("case", sorted(SHARED_CASES))
    def test_one_bootstrap_serves_every_interval(self, case):
        estimator, make, options = SHARED_CASES[case]
        recs = make()
        reps = bootstrap_replicates(recs, estimator=estimator, n_boot=100, seed=12, **options)
        assert reps.rows.shape == (reps.n_boot - reps.n_failed, 6)
        assert reps.n_boot == 100
        for method in ("percentile", "normal"):
            for estimand, lower in PAIRS:
                got = interval_from_replicates(reps, estimand, lower, level=0.9, method=method)
                want = bootstrap_bounds_ci(recs, estimator=estimator, estimand=estimand,
                                           n_boot=100, level=0.9, seed=12, lower=lower,
                                           method=method, **options)
                assert got == want

    @pytest.mark.parametrize("estimator, estimate", [
        ("randomized", lambda r: estimate_randomized(r)),
        ("ipw", lambda r: estimate_ipw(r)),
        ("adjusted", lambda r: estimate_adjusted(r, strata="model")),
    ])
    def test_point_row_is_the_full_sample_report(self, estimator, estimate):
        recs = covariate_records(35)
        reps = bootstrap_replicates(recs, estimator=estimator, n_boot=100, seed=1,
                                    **({"strata": "model"} if estimator == "adjusted" else {}))
        rep = estimate(recs).report
        want = [rep.tau_L, rep.tau_I, rep.tau_U, rep.eta_L, rep.eta_I, rep.eta_U]
        assert reps.point.tolist() == [float(v) for v in want]

    def test_rows_hold_each_replicates_bounds(self):
        reps = bootstrap_replicates(covariate_records(36), estimator="ipw", n_boot=100, seed=2)
        tl, ti, tu, el, ei, eu = reps.rows.T
        assert (tl <= ti + 1e-12).all() and (ti <= tu + 1e-12).all()
        assert (el <= ei + 1e-12).all() and (ei <= eu + 1e-12).all()
        assert (el <= tl + 1e-12).all() and (eu <= tu + 1e-12).all()

    def test_n_boot_minimum(self):
        with pytest.raises(ValueError):
            bootstrap_replicates(sample_records(), n_boot=50)

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            bootstrap_replicates(sample_records(), estimator="bayes", n_boot=100)

    def test_unknown_estimand(self):
        reps = bootstrap_replicates(sample_records(), n_boot=100)
        with pytest.raises(ValueError):
            interval_from_replicates(reps, "theta")


def rare_stratum_records():
    """A stratum with one treated unit of 20: arm-stratified resamples miss
    it about a third of the time, and the discrete-strata estimator then
    raises StratumMissingArm."""
    recs = [UnitRecord(z=1, y=k % 3, x=(0.0,)) for k in range(19)]
    recs += [UnitRecord(z=1, y=2, x=(1.0,))]
    recs += [UnitRecord(z=0, y=k % 3, x=(float(k % 2),)) for k in range(20)]
    return recs


class TestReplicateFailures:
    def test_failed_replicates_are_counted(self):
        reps = bootstrap_replicates(rare_stratum_records(), estimator="adjusted", n_boot=100,
                                    seed=3, strata="discrete")
        assert 5 < reps.n_failed < 100
        assert len(reps.rows) == 100 - reps.n_failed

    def test_more_than_five_percent_failed_raises(self):
        reps = bootstrap_replicates(rare_stratum_records(), estimator="adjusted", n_boot=100,
                                    seed=3, strata="discrete")
        for estimand, lower in PAIRS:
            with pytest.raises(ReplicateFailure):
                interval_from_replicates(reps, estimand, lower)
        with pytest.raises(ReplicateFailure):
            bootstrap_bounds_ci(rare_stratum_records(), estimator="adjusted", n_boot=100,
                                seed=3, strata="discrete")


class TestComplierIndependent:
    def test_independent_lower_from_the_cell_count_stack(self):
        recs = iv_records(37)
        ci = bootstrap_pair_ci_with_independent(recs, estimator="complier", n_boot=200, seed=4)
        rep = complier_bounds(em_fit(recs)).complier
        assert (ci.point_lower, ci.point_upper) == (float(rep.tau_I), float(rep.tau_U))
        assert ci.ci_low <= ci.point_lower <= ci.point_upper <= ci.ci_high
        assert ci.n_failed == 0

    def test_eta_independent(self):
        recs = iv_records(38)
        ci = bootstrap_bounds_ci(recs, estimator="complier", estimand="eta",
                                 lower="independent", n_boot=200, seed=4)
        rep = complier_bounds(em_fit(recs)).complier
        assert (ci.point_lower, ci.point_upper) == (float(rep.eta_I), float(rep.eta_U))
        assert ci.ci_low <= ci.point_lower <= ci.point_upper <= ci.ci_high


class TestEmptyArm:
    def test_complier_bootstrap_rejects_an_empty_arm(self):
        recs = [r for r in iv_records(39, n=200) if r.z == 1]
        with pytest.raises(EmptyArm):
            bootstrap_replicates(recs, estimator="complier", n_boot=100)
