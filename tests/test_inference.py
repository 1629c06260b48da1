from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from ordbounds import (
    IntervalReport,
    Replicates,
    UnitRecord,
    bootstrap_bounds_ci,
    bootstrap_pair_ci_with_independent,
    bootstrap_replicates,
    complier_bounds,
    em_fit,
    em_fit_with_covariates,
    empirical_marginals,
    estimate_adjusted,
    estimate_ipw,
    estimate_randomized,
    generate_study2,
    interval_from_replicates,
    ipw_marginals,
    moment_identify,
)
from ordbounds import estimation, inference
from ordbounds.bounds import full_report, weighted_report
from ordbounds.distributions import MarginalDistribution, MarginalPair, _take, unit_columns
from ordbounds.estimation import _strata, adjusted_bounds_from_strata
from ordbounds.exceptions import (
    DimensionMismatch,
    EmptyArm,
    ExtremePropensity,
    OrdBoundsError,
    OutOfRangeOutcome,
    ReplicateFailure,
    StratumMissingArm,
    ValidationError,
)
from ordbounds.inference import _report_row, _resampler
from ordbounds.models import fit_cumulative_logit, fit_logit

from test_estimation import make_records


def sample_records():
    return make_records([4, 12, 4], [8, 4, 8])


def forbid_resamples(monkeypatch):
    """Make bootstrap_bounds_ci fail if it resamples."""
    def forbidden(*args, **kwargs):
        raise AssertionError("resampled before the interval's arguments were checked")

    monkeypatch.setattr(inference, "bootstrap_replicates", forbidden)


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

    def test_unknown_estimand(self, monkeypatch):
        forbid_resamples(monkeypatch)
        with pytest.raises(ValueError, match="unknown estimand"):
            bootstrap_bounds_ci(sample_records(), estimand="theta")

    def test_unknown_method(self, monkeypatch):
        forbid_resamples(monkeypatch)
        with pytest.raises(ValueError, match="unknown method"):
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestIntervalArguments:
    """Every argument of an interval is checked, and bootstrap_bounds_ci
    checks them before it resamples."""

    @pytest.mark.parametrize("lower", ["indep", "Bound", "", None])
    def test_unknown_lower(self, monkeypatch, lower):
        reps = bootstrap_replicates(sample_records(), n_boot=100, seed=1)
        with pytest.raises(ValueError, match="unknown lower"):
            interval_from_replicates(reps, lower=lower)
        forbid_resamples(monkeypatch)
        with pytest.raises(ValueError, match="unknown lower"):
            bootstrap_bounds_ci(sample_records(), n_boot=100, lower=lower)

    @pytest.mark.parametrize("level", [-0.2, 0, 0.0, 1, 1.5, float("nan"), float("inf")])
    @pytest.mark.parametrize("method", ["percentile", "normal"])
    def test_level_outside_the_unit_interval(self, monkeypatch, level, method):
        reps = bootstrap_replicates(sample_records(), n_boot=100, seed=1)
        with pytest.raises(ValueError, match="level must be strictly between 0 and 1"):
            interval_from_replicates(reps, level=level, method=method)
        forbid_resamples(monkeypatch)
        with pytest.raises(ValueError, match="level must be strictly between 0 and 1"):
            bootstrap_bounds_ci(sample_records(), n_boot=100, level=level, method=method)

    @pytest.mark.parametrize("level", [1e-9, 0.5, 1 - 1e-9])
    @pytest.mark.parametrize("method", ["percentile", "normal"])
    def test_level_inside_the_unit_interval(self, level, method):
        ir = bootstrap_bounds_ci(sample_records(), n_boot=100, level=level, method=method)
        assert 0.0 <= ir.ci_low <= ir.ci_high <= 1.0 and ir.level == level


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

    def test_failures_name_each_failed_replicate(self):
        reps = bootstrap_replicates(rare_stratum_records(), estimator="adjusted", n_boot=100,
                                    seed=3, strata="discrete")
        _, want = reference_replicates(rare_stratum_records(), "adjusted", 100, 3,
                                       strata="discrete")
        assert reps.failures == want
        assert reps.n_failed == len(reps.failures)
        assert {name for _, name in reps.failures} == {"StratumMissingArm"}

    @pytest.mark.parametrize("estimator, make", [
        ("randomized", sample_records),
        ("complier", lambda: iv_records(40)),
    ])
    def test_no_failures_by_default(self, estimator, make):
        reps = bootstrap_replicates(make(), estimator=estimator, n_boot=100, seed=5)
        assert reps.failures == () and reps.n_failed == 0


def reference_estimate(records, estimator, J=None, propensity=None, trim=0.01,
                       strata="discrete"):
    """The BoundsReport of the full-sample ipw or adjusted estimator as
    written before both became the one-row case of the stacked kernels: one
    fit_logit and a per-category loop (ipw); per-stratum empirical marginals
    or two fit_cumulative_logit calls (adjusted).  An independent reference
    for the kernels."""
    cols = unit_columns(records)
    z, y, X = cols.z, cols.y, cols.x
    J = cols.J if J is None else J
    if estimator == "ipw":
        if z.sum() == 0 or z.sum() == len(z):
            raise EmptyArm("both arms required")
        if propensity is None:
            e = fit_logit(z, X).predict_proba(X)
        elif np.isscalar(propensity):
            e = np.full(len(z), float(propensity))
        else:
            e = np.asarray(propensity, dtype=float)
        bad = np.nonzero((e < trim) | (e > 1 - trim))[0]
        if bad.size:
            raise ExtremePropensity(bad.tolist())
        w1, w0 = z / e, (1 - z) / (1 - e)
        p1 = np.array([w1[y == k].sum() for k in range(J)])
        p0 = np.array([w0[y == k].sum() for k in range(J)])
        return full_report(MarginalPair(MarginalDistribution(tuple(p1 / p1.sum())),
                                        MarginalDistribution(tuple(p0 / p0.sum()))))
    if z.all() or not z.any():
        raise EmptyArm("both arms required")
    if strata == "discrete":
        s, keys = _strata(X)
        weighted = []
        for k, key in enumerate(keys):
            members = s == k
            try:
                weighted.append((np.count_nonzero(members) / len(s),
                                 empirical_marginals(_take(cols, members), J=J)))
            except EmptyArm:
                raise StratumMissingArm(f"stratum {key!r} lacks one arm") from None
        return adjusted_bounds_from_strata(weighted)
    p1 = fit_cumulative_logit(y[z == 1], X[z == 1]).predict_proba(X)
    p0 = fit_cumulative_logit(y[z == 0], X[z == 0]).predict_proba(X)
    Jm = max(p1.shape[1], p0.shape[1], J)
    pad = lambda p: np.hstack([p, np.zeros((len(p), Jm - p.shape[1]))])
    return weighted_report(np.full(len(p1), 1.0 / len(p1)), pad(p1), pad(p0))


def reference_replicates(records, estimator, n_boot, seed, J=None, **options):
    """The per-replicate refit loop: the same spawned streams and resamplers,
    one reference_estimate per replicate."""
    draw = _resampler(unit_columns(records), "whole" if estimator == "ipw" else "stratified")
    rows, failures = [], []
    for r, ss in enumerate(np.random.SeedSequence(seed).spawn(n_boot)):
        sample = [records[i] for i in draw(np.random.default_rng(ss))]
        try:
            rows.append(_report_row(reference_estimate(sample, estimator, J=J, **options)))
        except OrdBoundsError as e:
            failures.append((r, type(e).__name__))
    return np.array(rows).reshape(-1, 6), tuple(failures)


def logistic_assignment_records(seed, slope, n=60):
    """Assignment logistic in a covariate on [-2, 2]: the steeper the slope,
    the more refitted propensities leave the trim range."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=n)
    z = rng.random(n) < 1 / (1 + np.exp(-slope * x))
    return [UnitRecord(z=int(a), y=int(b), x=(float(c),))
            for a, b, c in zip(z, rng.integers(0, 3, size=n), x)]


def near_separated_records(arm=None, n=40):
    """x on a grid; z (or, within arm, y) is [x > 0] except for the two
    units nearest 0, so resamples that miss both are separated."""
    rng = np.random.default_rng(5)
    x = np.linspace(-1, 1, n)
    lab = (x > 0).astype(int)
    lab[[n // 2 - 2, n // 2 + 1]] ^= 1
    if arm is None:
        return [UnitRecord(z=int(lab[i]), y=int(rng.integers(0, 3)), x=(float(x[i]),))
                for i in range(n)]
    other = [UnitRecord(z=1 - arm, y=int(rng.integers(0, 3)), x=(float(rng.normal()),))
             for _ in range(n)]
    return other + [UnitRecord(z=arm, y=int(lab[i]), x=(float(x[i]),)) for i in range(n)]


def rare_covariate_records(n=60):
    """A second covariate that is 1 on two units only: resamples without
    them have a constant column."""
    rng = np.random.default_rng(6)
    return [UnitRecord(z=int(rng.random() < 0.5), y=int(rng.integers(0, 3)),
                       x=(float(rng.normal()), float(i < 2))) for i in range(n)]


def few_treated_records(n=40):
    """Two treated units of 40: about one whole-sample resample in eight has
    no treated unit."""
    rng = np.random.default_rng(7)
    return [UnitRecord(z=int(i < 2), y=int(rng.integers(0, 3)), x=(float(rng.normal()),))
            for i in range(n)]


def rare_top_records():
    """Treated arm with one unit in the top category 3 (resamples without it
    fit J = 3); control arm with two units in category 1 of {0, 1}
    (resamples without them observe one category)."""
    rng = np.random.default_rng(1)
    recs = [UnitRecord(z=1, y=3 if i == 0 else int(rng.integers(0, 3)),
                       x=(float(rng.normal()),)) for i in range(30)]
    return recs + [UnitRecord(z=0, y=int(i < 2), x=(float(rng.normal()),)) for i in range(30)]


def zero_covariate_records():
    """A covariate that is nonzero on one unit of each arm: arm-resamples
    without it have an all-zero design."""
    rng = np.random.default_rng(3)
    return [UnitRecord(z=i % 2, y=int(rng.integers(0, 3)), x=(float(i < 2),))
            for i in range(40)]


# (estimator, records, options, failure names the resamples must produce)
STACKED_CASES = {
    "ipw_extreme_propensity": ("ipw", lambda: logistic_assignment_records(0, 2.0), {},
                               {"ExtremePropensity"}),
    "ipw_near_separation": ("ipw", near_separated_records, {"trim": 1e-9},
                            {"SeparationDetected", "ExtremePropensity"}),
    "ipw_constant_covariate": ("ipw", rare_covariate_records, {},
                               {"RankDeficient", "ExtremePropensity"}),
    "ipw_empty_arm": ("ipw", few_treated_records, {}, {"EmptyArm", "ExtremePropensity"}),
    "ipw_given_propensity": ("ipw", few_treated_records, {"propensity": 0.3}, {"EmptyArm"}),
    "ipw_ok": ("ipw", lambda: covariate_records(31), {}, set()),
    "model_near_separation": ("adjusted", lambda: near_separated_records(arm=0),
                              {"strata": "model"}, {"SeparationDetected"}),
    "model_zero_covariate": ("adjusted", zero_covariate_records, {"strata": "model"},
                             {"RankDeficient"}),
    "model_rare_top_category": ("adjusted", rare_top_records, {"strata": "model"},
                                {"TooFewCategories"}),
    "model_ok": ("adjusted", lambda: covariate_records(33), {"strata": "model"}, set()),
    "discrete_one_unit_stratum": ("adjusted", rare_stratum_records, {"strata": "discrete"},
                                  {"StratumMissingArm"}),
    "discrete_ok": ("adjusted", lambda: covariate_records(32), {"strata": "discrete"}, set()),
}


class TestStackedReplicates:
    """The stacked ipw and adjusted bootstraps equal the per-replicate refit
    loop: same rows within 1e-12, same failed replicates and reasons."""

    @pytest.mark.parametrize("case", sorted(STACKED_CASES))
    def test_equals_the_refit_loop(self, case):
        estimator, make, options, reasons = STACKED_CASES[case]
        recs = make()
        reps = bootstrap_replicates(recs, estimator=estimator, n_boot=100, seed=7, **options)
        rows, failures = reference_replicates(recs, estimator, 100, 7, **options)
        assert reps.failures == failures
        assert reps.n_failed == len(failures)
        assert {name for _, name in failures} == reasons
        assert reps.rows.shape == rows.shape
        assert np.abs(reps.rows - rows).max(initial=0.0) <= 1e-12

    def test_rare_top_category_makes_short_arm_fits(self):
        # the model case above covers resamples whose treated arm misses category 3
        recs = rare_top_records()
        draw = _resampler(unit_columns(recs), "stratified")
        tops = [max(recs[i].y for i in draw(np.random.default_rng(ss)) if recs[i].z == 1)
                for ss in np.random.SeedSequence(7).spawn(100)]
        assert 0 < tops.count(2) < 100

    @pytest.mark.parametrize("J", [2, 6])
    @pytest.mark.parametrize("estimator, options", [("ipw", {}), ("adjusted", {"strata": "model"})])
    def test_given_categories_equal_the_loop(self, J, estimator, options):
        # J below the observed top: ipw rejects the outcomes above, as the
        # randomized estimator does, and the model fits keep them; J above it pads
        recs = rare_top_records()
        if estimator == "ipw" and J < unit_columns(recs).J:
            with pytest.raises(OutOfRangeOutcome, match="outside 0..1"):
                bootstrap_replicates(recs, estimator=estimator, n_boot=100, seed=8, J=J)
            return
        reps = bootstrap_replicates(recs, estimator=estimator, n_boot=100, seed=8, J=J,
                                    **options)
        rows, failures = reference_replicates(recs, estimator, 100, 8, J=J, **options)
        assert reps.failures == failures
        assert np.abs(reps.rows - rows).max() <= 1e-12

    def test_blocks_do_not_change_the_result(self, monkeypatch):
        recs = logistic_assignment_records(0, 2.0)
        whole = bootstrap_replicates(recs, estimator="ipw", n_boot=100, seed=9)
        monkeypatch.setattr(inference, "_BLOCK", 7 * len(recs) * 3)
        blocked = bootstrap_replicates(recs, estimator="ipw", n_boot=100, seed=9)
        assert blocked.failures == whole.failures
        assert np.abs(blocked.rows - whole.rows).max() <= 1e-12

    def test_given_propensities_follow_their_units(self):
        recs = covariate_records(41, n=120)
        e = np.array([0.3 + 0.4 * r.x[0] for r in recs])
        reps = bootstrap_replicates(recs, estimator="ipw", n_boot=100, seed=10, propensity=e)
        draw = _resampler(unit_columns(recs), "whole")
        want = []
        for ss in np.random.SeedSequence(10).spawn(100):
            idx = draw(np.random.default_rng(ss))
            want.append(_report_row(reference_estimate([recs[i] for i in idx], "ipw",
                                                       propensity=e[idx])))
        assert reps.n_failed == 0
        assert np.abs(reps.rows - np.array(want)).max() <= 1e-12


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


ESTIMATORS = {
    "randomized": ({}, estimate_randomized),
    "ipw": ({}, estimate_ipw),
    "discrete": ({"strata": "discrete"}, estimate_adjusted),
    "model": ({"strata": "model"}, estimate_adjusted),
}


class TestInvalidUnits:
    """z or d outside {0, 1} or a negative y raise from every estimator and
    every bootstrap, before any fit."""

    @pytest.mark.parametrize("field, value", [("z", 2), ("d", 2), ("y", -1)])
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_estimators_raise(self, name, field, value):
        from test_noncompliance import invalid_records

        options, estimate = ESTIMATORS[name]
        with pytest.raises(OutOfRangeOutcome):
            estimate(invalid_records(field, value), **options)

    @pytest.mark.parametrize("field, value", [("z", 2), ("d", 2), ("y", -1)])
    @pytest.mark.parametrize("estimator, options", [
        ("randomized", {}), ("ipw", {}), ("adjusted", {"strata": "discrete"}),
        ("adjusted", {"strata": "model"}), ("complier", {}), ("complier_adjusted", {}),
    ])
    def test_bootstrap_raises(self, estimator, options, field, value):
        from test_noncompliance import invalid_records

        with pytest.raises(OutOfRangeOutcome):
            bootstrap_replicates(invalid_records(field, value), estimator=estimator,
                                 n_boot=100, **options)


def covariate_iv_records():
    from test_noncompliance import TestCovariateEM

    return TestCovariateEM().make_covariate_records(np.random.default_rng(1), 200)


def _boot(estimator, **options):
    return partial(bootstrap_replicates, estimator=estimator, n_boot=100, seed=11, **options)


# public entry point -> (call on unit data, records)
ENTRY_POINTS = {
    "empirical_marginals": (empirical_marginals, sample_records),
    "estimate_randomized": (estimate_randomized, sample_records),
    "ipw_marginals": (ipw_marginals, lambda: covariate_records(31)),
    "estimate_ipw": (estimate_ipw, lambda: covariate_records(31)),
    "estimate_adjusted_discrete": (partial(estimate_adjusted, strata="discrete"),
                                   lambda: covariate_records(32)),
    "estimate_adjusted_model": (partial(estimate_adjusted, strata="model"),
                                lambda: covariate_records(33)),
    "moment_identify": (moment_identify, lambda: iv_records(34)),
    "em_fit": (em_fit, lambda: iv_records(34)),
    "em_fit_with_covariates": (em_fit_with_covariates, covariate_iv_records),
    "bootstrap_randomized": (_boot("randomized"), sample_records),
    "bootstrap_ipw": (_boot("ipw"), lambda: covariate_records(31)),
    "bootstrap_adjusted_discrete": (_boot("adjusted", strata="discrete"), rare_stratum_records),
    "bootstrap_adjusted_model": (_boot("adjusted", strata="model"),
                                 lambda: covariate_records(33)),
    "bootstrap_complier": (_boot("complier"), lambda: iv_records(34)),
    "bootstrap_complier_adjusted": (_boot("complier_adjusted"), covariate_iv_records),
    "bootstrap_bounds_ci": (partial(bootstrap_bounds_ci, estimator="ipw", n_boot=100, seed=11),
                            lambda: covariate_records(31)),
}


class TestRecordsOrColumns:
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_same_result(self, monkeypatch, name):
        # the bootstrap's covariate EM stops after two iterations: the
        # replicates stay cheap and still depend on every unit
        monkeypatch.setattr(inference, "em_fit_with_covariates",
                            partial(em_fit_with_covariates, tol=np.inf))
        call, make = ENTRY_POINTS[name]
        records = make()
        a, b = call(records), call(unit_columns(records))
        if isinstance(a, Replicates):
            assert np.array_equal(a.point, b.point) and np.array_equal(a.rows, b.rows)
            assert (a.n_failed, a.seed, a.failures) == (b.n_failed, b.seed, b.failures)
        else:
            assert a == b


class TestEstimatorOptions:
    """An option the estimator does not take raises TypeError instead of
    being ignored."""

    @pytest.mark.parametrize("estimator, options", [
        ("ipw", {"trimm": 0.3}),
        ("ipw", {"strata": "model"}),
        ("randomized", {"monotonicity": "strong"}),
        ("adjusted", {"trim": 0.1}),
        ("complier", {"strata": "model"}),
        ("complier_adjusted", {"trim": 0.1}),
        # the full-sample fit takes these, the bootstrap does not
        ("complier", {"max_iter": 5}),
        ("complier_adjusted", {"tol": 1e-3}),
        # neither the fit nor the bootstrap takes init
        ("complier_adjusted", {"init": None}),
    ])
    def test_unknown_option_raises(self, monkeypatch, estimator, options):
        def fit(*args, **kwargs):
            raise AssertionError("fitted before the options were checked")

        monkeypatch.setitem(inference._ESTIMATORS, estimator,
                            (fit, inference._ESTIMATORS[estimator][1]))
        recs = covariate_records(36)
        with pytest.raises(TypeError):
            bootstrap_replicates(recs, estimator=estimator, n_boot=100, **options)
        with pytest.raises(TypeError):
            bootstrap_bounds_ci(recs, estimator=estimator, n_boot=100, **options)

    def test_options_checked_once_per_bootstrap(self, monkeypatch):
        checks = []
        monkeypatch.setattr(inference, "_estimator",
                            lambda *a, inner=inference._estimator: checks.append(a) or inner(*a))
        recs = covariate_records(36)
        for seed in range(3):
            bootstrap_replicates(recs, estimator="randomized", n_boot=100, seed=seed)
            bootstrap_replicates(recs, estimator="ipw", n_boot=100, seed=seed, trim=0.01)
        assert len(checks) == 6

    def test_known_options_still_apply(self):
        recs = covariate_records(36)
        a = bootstrap_replicates(recs, estimator="ipw", n_boot=100, seed=3, trim=0.01)
        b = bootstrap_replicates(recs, estimator="ipw", n_boot=100, seed=3, trim=0.3)
        assert a.n_failed < b.n_failed


class TestArmRedraws:
    """The randomized and complier bootstraps redraw each arm's counts with
    two multinomial calls on one stream, the treated arm first."""

    @pytest.mark.parametrize("J", [None, 5])
    @pytest.mark.parametrize("seed", [0, 13])
    def test_randomized_rows(self, J, seed):
        from ordbounds.bounds import bound_rows

        recs = covariate_records(43, n=120)
        y1 = np.array([r.y for r in recs if r.z == 1])
        y0 = np.array([r.y for r in recs if r.z == 0])
        f1 = np.bincount(y1, minlength=J or 3) / len(y1)
        f0 = np.bincount(y0, minlength=J or 3) / len(y0)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        p1 = rng.multinomial(len(y1), f1, size=100) / len(y1)
        p0 = rng.multinomial(len(y0), f0, size=100) / len(y0)
        reps = bootstrap_replicates(recs, n_boot=100, seed=seed, J=J)
        assert np.array_equal(reps.rows, bound_rows(p1, p0))

    @pytest.mark.parametrize("seed", [0, 14])
    def test_complier_stack(self, monkeypatch, seed):
        recs = iv_records(44, n=400)
        cols = unit_columns(recs)
        J = cols.J
        counts = np.zeros((2, 2, J))
        np.add.at(counts, (cols.z, cols.d, cols.y), 1)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        n1, n0 = counts[1].sum(), counts[0].sum()
        draws1 = rng.multinomial(int(n1), counts[1].ravel() / n1, size=100)
        draws0 = rng.multinomial(int(n0), counts[0].ravel() / n0, size=100)
        want = np.stack([draws0, draws1], axis=1).reshape(100, 2, 2, J)
        stacks = []
        mle = inference.complier_mle

        def spy(counts, **options):
            stacks.append(counts)
            return mle(counts, **options)

        monkeypatch.setattr(inference, "complier_mle", spy)
        bootstrap_replicates(recs, estimator="complier", n_boot=100, seed=seed)
        assert len(stacks) == 1 and np.array_equal(stacks[0], want)

    @pytest.mark.parametrize("per_block", [1, 2, 5])
    def test_randomized_stack_is_each_data_sets_bootstrap(self, monkeypatch, per_block):
        # data sets of different sizes and one J, in blocks of per_block
        data = [covariate_records(50 + k, n=40 + 20 * k) for k in range(5)]
        J = max(unit_columns(recs).J for recs in data)
        seeds = [3 * k + 1 for k in range(5)]
        counts = np.stack([inference._arm_counts(unit_columns(recs), J) for recs in data])
        monkeypatch.setattr(inference, "_BLOCK", per_block * 101 * 2 * J)
        stack = inference._randomized_stack(counts, 100, seeds)
        for recs, seed, reps in zip(data, seeds, stack):
            want = bootstrap_replicates(recs, n_boot=100, seed=seed, J=J)
            assert np.array_equal(reps.point, want.point)
            assert np.array_equal(reps.rows, want.rows)
            assert (reps.n_failed, reps.seed, reps.failures) == (0, seed, ())


# design -> (public estimator, reference_estimate estimator, options)
DESIGNS = {
    "ipw": (estimate_ipw, "ipw", {}),
    "ipw_trim": (estimate_ipw, "ipw", {"trim": 0.3}),
    "ipw_given": (estimate_ipw, "ipw", {"propensity": 0.4}),
    "discrete": (estimate_adjusted, "adjusted", {"strata": "discrete"}),
    "model": (estimate_adjusted, "adjusted", {"strata": "model"}),
}
REFERENCE_RECORDS = {
    "covariate_31": lambda: covariate_records(31),
    "covariate_32": lambda: covariate_records(32),
    "covariate_33": lambda: covariate_records(33),
    "rare_stratum": rare_stratum_records,
    "near_separated": near_separated_records,
    "near_separated_arm": lambda: near_separated_records(arm=0),
    "logistic_assignment": lambda: logistic_assignment_records(0, 2.0),
    # inputs on which the full-sample fits fail
    "one_arm": lambda: [UnitRecord(z=1, y=i % 3, x=(float(i % 2),)) for i in range(20)],
    "zero_covariate": lambda: [UnitRecord(z=i % 2, y=i % 3, x=(0.0,)) for i in range(40)],
    "one_treated_category": lambda: [UnitRecord(z=i % 2, y=(i % 3) * (1 - i % 2),
                                                x=(float(i % 5),)) for i in range(40)],
    "separated_control": lambda: [
        UnitRecord(z=i % 2, y=(i // 2) % 3 if i % 2 else int(i >= 20), x=(i / 20 - 1,))
        for i in range(40)],
}


def _outcome(call):
    """call()'s result, or the exception it raised."""
    try:
        return call()
    except OrdBoundsError as e:
        return e


class TestPublicEstimatorsEqualTheReference:
    """The public ipw and adjusted estimators, the one-row case of the
    stacked kernels, give the reference's report (ipw within 1e-15: the
    kernel sums each category by one bincount) or raise its exception."""

    @pytest.mark.parametrize("records", sorted(REFERENCE_RECORDS))
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_same_report_or_error(self, design, records):
        public, estimator, options = DESIGNS[design]
        recs = REFERENCE_RECORDS[records]()
        want = _outcome(lambda: reference_estimate(recs, estimator, **options))
        got = _outcome(lambda: public(recs, **options))
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            return
        got = got.report
        if estimator == "ipw":
            assert np.abs(_report_row(got) - _report_row(want)).max() <= 1e-15
            # a construction index can differ where two deltas tie to rounding
            assert np.abs(np.subtract(got.deltas.deltas, want.deltas.deltas)).max() <= 1e-15
        else:
            assert got == want

    def test_every_failure_is_compared(self):
        names = {type(_outcome(lambda: reference_estimate(make(), estimator, **options))).__name__
                 for _, estimator, options in DESIGNS.values()
                 for make in REFERENCE_RECORDS.values()}
        assert names >= {"EmptyArm", "ExtremePropensity", "RankDeficient", "StratumMissingArm",
                         "TooFewCategories", "SeparationDetected"}


BAD_PROPENSITIES = {
    "short": (lambda n: np.full(n - 1, 0.5), DimensionMismatch),
    "column": (lambda n: np.full((n, 1), 0.5), DimensionMismatch),
    "nan": (lambda n: np.where(np.arange(n) == 3, np.nan, 0.5), ValidationError),
}


class TestGivenPropensity:
    """A given propensity is a scalar or one finite value per unit; every
    ipw entry point checks it before the full-sample kernel runs."""

    @pytest.mark.parametrize("bad", sorted(BAD_PROPENSITIES))
    @pytest.mark.parametrize("call", [ipw_marginals, estimate_ipw, _boot("ipw")],
                             ids=["ipw_marginals", "estimate_ipw", "bootstrap"])
    def test_rejected_before_the_fit(self, monkeypatch, call, bad):
        def fit(*args):
            raise AssertionError("fitted before the propensity was checked")

        monkeypatch.setattr(estimation, "_full_sample", fit)
        make, error = BAD_PROPENSITIES[bad]
        recs = covariate_records(31)
        with pytest.raises(error) as raised:
            call(recs, propensity=make(len(recs)))
        assert type(raised.value) is error
        assert "propensity" in str(raised.value)


def single_category_records():
    """A study-2 draw (z, d and a binary covariate) whose outcomes are all 0."""
    return [replace(r, y=0, x=(float(r.x[0] > 0),)) for r in generate_study2(4, 200, seed=0)]


def _fit_report(estimator, fit, cols):
    """The BoundsReport of a full-sample fit of inference._ESTIMATORS."""
    if estimator == "complier":
        return complier_bounds(fit).complier
    if estimator == "complier_adjusted":
        return fit.complier_report(cols.x)
    return fit.report


class TestOneCategoryCount:
    """Every fit takes its J by one rule, UnitColumns.categories (the given
    J or max(y) + 1, and at least 2), and the bootstrap replicates take J
    from the full-sample fit."""

    @pytest.mark.parametrize("J", [None, 0, 1])
    @pytest.mark.parametrize("estimator, options", [
        ("randomized", {}), ("ipw", {}), ("adjusted", {"strata": "discrete"}),
        ("complier", {}), ("complier_adjusted", {}),
    ])
    def test_single_category_fits_two(self, monkeypatch, estimator, options, J):
        # the replicates' covariate EM stops after two iterations
        monkeypatch.setattr(inference, "em_fit_with_covariates",
                            partial(em_fit_with_covariates, tol=np.inf))
        cols = unit_columns(single_category_records())
        fit = inference._ESTIMATORS[estimator][0](cols, J=J, **options)
        report = _fit_report(estimator, fit, cols)
        assert len(report.deltas.deltas) == 2
        assert float(report.tau_L) == pytest.approx(1, abs=1e-8)
        assert float(report.tau_U) == pytest.approx(1, abs=1e-8)
        reps = bootstrap_replicates(cols, estimator=estimator, n_boot=100, seed=0, J=J,
                                    **options)
        assert reps.n_failed == 0
        assert np.abs(reps.rows[:, [0, 2]] - 1).max() <= 1e-8

    def test_complier_adjusted_refits_on_the_full_sample_categories(self, monkeypatch):
        # one unit in the top category 3: about a third of the resamples miss it
        recs = covariate_iv_records() + [UnitRecord(z=1, y=3, d=1, x=(0.0,))]
        Js, tops = [], []

        def spy(sample, J=None, **options):
            Js.append(J)
            tops.append(sample.J)
            return em_fit_with_covariates(sample, J=J, tol=np.inf, **options)

        monkeypatch.setattr(inference, "em_fit_with_covariates", spy)
        reps = bootstrap_replicates(recs, estimator="complier_adjusted", n_boot=100, seed=2)
        assert Js == [4] * 100
        assert 0 < tops.count(3) < 100
        assert reps.rows.shape == (100 - reps.n_failed, 6)

    def test_failed_complier_adjusted_replicates_are_named(self, monkeypatch):
        from ordbounds.exceptions import NoCompliers, NonConvergence

        calls = []

        def refit(sample, **options):
            calls.append(1)
            if len(calls) in (4, 9):
                raise NonConvergence("forced")
            if len(calls) == 6:
                raise NoCompliers("forced")
            return em_fit_with_covariates(sample, tol=np.inf, **options)

        monkeypatch.setattr(inference, "em_fit_with_covariates", refit)
        reps = bootstrap_replicates(covariate_iv_records(), estimator="complier_adjusted",
                                    n_boot=100, seed=1)
        assert reps.failures == ((3, "NonConvergence"), (5, "NoCompliers"),
                                 (8, "NonConvergence"))
        assert reps.n_failed == 3 and reps.rows.shape == (97, 6)
