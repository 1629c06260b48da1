from fractions import Fraction

import numpy as np
import pytest

from ordbounds import (
    UnitRecord,
    adjusted_bounds_from_strata,
    bradley_records,
    estimate_adjusted,
    estimate_ipw,
    estimate_randomized,
    full_report,
    ipw_marginals,
)
from ordbounds.exceptions import EmptyArm, ExtremePropensity, OutOfRangeOutcome, StratumMissingArm

from conftest import frac_pair, random_pair

F = Fraction


def make_records(counts1, counts0, x1=None, x0=None):
    recs = []
    for y, c in enumerate(counts1):
        recs += [UnitRecord(z=1, y=y, x=x1)] * c
    for y, c in enumerate(counts0):
        recs += [UnitRecord(z=0, y=y, x=x0)] * c
    return recs


class TestRandomized:
    def test_matches_plugin_report(self):
        recs = make_records([2, 6, 2], [4, 1, 5])
        est = estimate_randomized(recs)
        want = full_report(frac_pair([(1, 5), (3, 5), (1, 5)], [(2, 5), (1, 10), (1, 2)]))
        assert est.report.tau_L == pytest.approx(float(want.tau_L), abs=1e-12)
        assert est.report.tau_U == pytest.approx(float(want.tau_U), abs=1e-12)
        assert est.report.eta_L == pytest.approx(float(want.eta_L), abs=1e-12)
        assert (est.n_treated, est.n_control) == (10, 10)
        assert est.design == "randomized"

    def test_empty_arm(self):
        with pytest.raises(EmptyArm):
            estimate_randomized([UnitRecord(z=1, y=0), UnitRecord(z=1, y=1)])


class TestIPW:
    def test_constant_propensity_equals_randomized(self):
        recs = make_records([2, 6, 2], [4, 1, 5])
        a = estimate_ipw(recs, propensity=0.5)
        b = estimate_randomized(recs)
        assert a.report.tau_L == pytest.approx(b.report.tau_L, abs=1e-12)
        assert a.report.tau_U == pytest.approx(b.report.tau_U, abs=1e-12)

    def test_extreme_propensity_rejected(self):
        recs = make_records([1, 1], [1, 1])
        e = [0.5, 0.5, 0.001, 0.5]
        with pytest.raises(ExtremePropensity) as err:
            ipw_marginals(recs, propensity=e)
        assert 2 in err.value.units

    @pytest.mark.parametrize("fit", [estimate_ipw, ipw_marginals], ids=["ipw", "ipw_marginals"])
    def test_categories_below_the_top_outcome_rejected(self, fit):
        # as estimate_randomized does, instead of fitting the units below J
        # alone (TestStackedReplicates covers the bootstrap)
        rng = np.random.default_rng(15)
        recs = [UnitRecord(z=int(z), y=int(y), x=(float(x),))
                for z, y, x in zip(np.arange(60) % 2, np.arange(60) % 3, rng.normal(size=60))]
        with pytest.raises(OutOfRangeOutcome, match="outcome 2 outside 0..1"):
            fit(recs, J=2)
        fit(recs, J=3)

    def test_reweighting_corrects_confounding(self):
        # within-stratum assignment rates 0.8 and 0.2; IPW with the true
        # per-unit propensities recovers the stratified marginals
        rng = np.random.default_rng(14)
        recs, es = [], []
        for _ in range(4000):
            s = rng.integers(0, 2)
            e = 0.8 if s else 0.2
            z = int(rng.uniform() < e)
            base = 1 if s else 0
            y = base + int(rng.uniform() < 0.5)
            recs.append(UnitRecord(z=z, y=y, x=(float(s),)))
            es.append(e)
        m = ipw_marginals(recs, propensity=es, J=3)
        # truth: strata equally likely; stratum 0 puts mass (1/2,1/2,0) and
        # stratum 1 puts (0,1/2,1/2) regardless of arm, so both potential
        # marginals are (1/4,1/2,1/4)
        truth = (0.25, 0.5, 0.25)
        assert np.allclose(m.treated.probs, truth, atol=0.05)
        assert np.allclose(m.control.probs, truth, atol=0.05)
        # the unweighted treated marginal is confounded toward stratum 1
        naive = np.array(
            [sum(1 for r in recs if r.z == 1 and r.y == k) for k in range(3)],
            dtype=float,
        )
        naive /= naive.sum()
        assert naive[2] > 0.3


class TestAdjustedDiscrete:
    def test_worked_two_strata(self):
        # two equal strata whose conditional pairs are the standard fixtures:
        # adjusted bounds average (2/5,4/5) and (3/5,1) -> (1/2, 9/10),
        # tighter than the unadjusted bounds from the pooled marginals (1/2, 1)
        taste = frac_pair([(1, 5), (3, 5), (1, 5)], [(2, 5), (1, 5), (2, 5)])
        dom = frac_pair([(1, 5), (1, 5), (3, 5)], [(3, 5), (1, 5), (1, 5)])
        rep = adjusted_bounds_from_strata([(F(1, 2), taste), (F(1, 2), dom)])
        assert (rep.tau_L, rep.tau_U) == (F(1, 2), F(9, 10))
        pooled = frac_pair([(1, 5), (2, 5), (2, 5)], [(1, 2), (1, 5), (3, 10)])
        assert full_report(pooled).tau_U == 1
        assert rep.tau_U < 1

    def test_estimate_adjusted_discrete(self):
        recs = (
            make_records([1, 3, 1], [2, 1, 2], x1=("s0",), x0=("s0",))
            + make_records([1, 1, 3], [3, 1, 1], x1=("s1",), x0=("s1",))
        )
        est = estimate_adjusted(recs, strata="discrete")
        assert est.report.tau_L == pytest.approx(0.5, abs=1e-12)
        assert est.report.tau_U == pytest.approx(0.9, abs=1e-12)

    def test_categories_below_the_top_outcome_rejected(self):
        recs = make_records([1, 3, 1], [2, 1, 2], x1=("s0",), x0=("s0",))
        with pytest.raises(OutOfRangeOutcome, match="outcome 2 outside 0..1"):
            estimate_adjusted(recs, strata="discrete", J=2)

    def test_unknown_strata_mode(self):
        recs = make_records([1, 3, 1], [2, 1, 2], x1=("s0",), x0=("s0",))
        with pytest.raises(ValueError, match="unknown strata mode 'bogus'"):
            estimate_adjusted(recs, strata="bogus")

    def test_stratum_missing_arm(self):
        recs = make_records([1, 1], [1, 1], x1=("a",), x0=("b",))
        with pytest.raises(StratumMissingArm):
            estimate_adjusted(recs, strata="discrete")

    def test_weights_must_sum_to_one(self):
        taste = frac_pair([(1, 5), (3, 5), (1, 5)], [(2, 5), (1, 5), (2, 5)])
        with pytest.raises(ValueError):
            adjusted_bounds_from_strata([(0.5, taste), (0.4, taste)])


class TestAdjustedNesting:
    def test_adjusted_within_unadjusted(self):
        # averaging conditional sharp bounds can only tighten the interval
        rng = np.random.default_rng(55)
        for _ in range(300):
            J = int(rng.integers(2, 6))
            k = int(rng.integers(2, 5))
            w = rng.dirichlet(np.ones(k))
            pairs = [random_pair(rng, J) for _ in range(k)]
            rep = adjusted_bounds_from_strata(list(zip(w, pairs)))
            p1 = np.zeros(J)
            p0 = np.zeros(J)
            for wi, pr in zip(w, pairs):
                p1 += wi * np.array(pr.treated.probs)
                p0 += wi * np.array(pr.control.probs)
            from ordbounds import MarginalDistribution, MarginalPair, eta_bounds, tau_bounds

            pooled = MarginalPair(
                MarginalDistribution(tuple(p1)), MarginalDistribution(tuple(p0))
            )
            tl, tu = tau_bounds(pooled)
            el, eu = eta_bounds(pooled)
            assert tl - 1e-9 <= rep.tau_L <= rep.tau_U <= tu + 1e-9
            assert el - 1e-9 <= rep.eta_L <= rep.eta_U <= eu + 1e-9

    def test_exact_nesting_on_exact_inputs(self):
        rng = np.random.default_rng(56)
        for _ in range(200):
            J = int(rng.integers(2, 5))
            pairs = [random_pair(rng, J, exact=True) for _ in range(2)]
            rep = adjusted_bounds_from_strata(
                [(F(1, 2), pairs[0]), (F(1, 2), pairs[1])]
            )
            from ordbounds import MarginalDistribution, MarginalPair, tau_bounds

            p1 = tuple(
                (a + b) / 2 for a, b in zip(pairs[0].treated.probs, pairs[1].treated.probs)
            )
            p0 = tuple(
                (a + b) / 2 for a, b in zip(pairs[0].control.probs, pairs[1].control.probs)
            )
            pooled = MarginalPair(
                MarginalDistribution(p1), MarginalDistribution(p0)
            )
            tl, tu = tau_bounds(pooled)
            assert tl <= rep.tau_L <= rep.tau_U <= tu


class TestAdjustedModel:
    def test_model_strata_close_to_discrete_on_binary_covariate(self):
        rng = np.random.default_rng(31)
        recs = []
        for _ in range(3000):
            s = int(rng.integers(0, 2))
            z = int(rng.integers(0, 2))
            shift = 0.8 * s - 0.6 * z
            u = rng.logistic() + shift
            y = int(u > -0.5) + int(u > 1.0)
            recs.append(UnitRecord(z=z, y=y, x=(float(s),)))
        disc = estimate_adjusted(recs, strata="discrete")
        mod = estimate_adjusted(recs, strata="model")
        assert mod.report.tau_L == pytest.approx(disc.report.tau_L, abs=0.03)
        assert mod.report.tau_U == pytest.approx(disc.report.tau_U, abs=0.03)

    def test_no_covariates_fit_intercepts_only(self):
        # without x the per-arm fits are intercept-only, so the model
        # marginals are the within-arm frequencies
        recs = make_records([2, 6, 2], [4, 1, 5])
        mod = estimate_adjusted(recs, strata="model")
        ref = estimate_randomized(recs)
        for name in ("tau_L", "tau_I", "tau_U", "eta_L", "eta_I", "eta_U"):
            assert getattr(mod.report, name) == pytest.approx(getattr(ref.report, name), abs=1e-9)


class TestBradleyRecords:
    @pytest.mark.parametrize("treated, control", [("E", "E"), ("E", "X"), ("X", "C")])
    def test_arms_must_be_distinct_members(self, treated, control):
        with pytest.raises(ValueError, match="distinct members"):
            bradley_records(treated, control)
