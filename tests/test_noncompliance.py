import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ordbounds import (
    MarginalDistribution,
    StrataModel,
    UnitRecord,
    bootstrap_replicates,
    complier_bounds,
    em_fit,
    em_fit_with_covariates,
    estimands_relation,
    full_report,
    moment_identify,
)
from ordbounds.distributions import covariate_matrix, unit_columns
from ordbounds.exceptions import (
    DefiersObserved,
    EmptyArm,
    InconsistentInputs,
    NoCompliers,
    NonConvergence,
    OutOfRangeOutcome,
)
from ordbounds.noncompliance import (
    _cells,
    _em_from_counts,
    _intercept_only,
    _safe_cumlogit,
    complier_mle,
    em_loglik,
)
from ordbounds.simulation import generate_study2

from conftest import frac_pair, random_pair

F = Fraction


def exact_strata(rng, J):
    w = [int(v) for v in rng.integers(1, 10, size=3)]
    tot = sum(w)
    pi = [F(v, tot) for v in w]
    m1 = random_pair(rng, J, exact=True)
    m2 = random_pair(rng, J, exact=True)
    return StrataModel(
        pi_a=pi[0], pi_c=pi[1], pi_n=pi[2],
        a_marginal=m1.treated, n_marginal=m1.control,
        c_treated=m2.treated, c_control=m2.control,
    )


def draw_iv_records(truth: StrataModel, n, rng, x_fn=None):
    recs = []
    pis = np.array([truth.pi_a, truth.pi_c, truth.pi_n], dtype=float)
    strata = rng.choice(3, size=n, p=pis)
    z = rng.integers(0, 2, size=n)
    for i in range(n):
        g = strata[i]
        if g == 0:
            d, probs = 1, truth.a_marginal.probs
        elif g == 2:
            d, probs = 0, truth.n_marginal.probs
        else:
            d = int(z[i])
            probs = truth.c_treated.probs if d else truth.c_control.probs
        y = int(rng.choice(truth.J, p=np.array(probs, dtype=float)))
        recs.append(UnitRecord(z=int(z[i]), y=y, d=d))
    return recs


TRUTH = StrataModel(
    pi_a=0.2, pi_c=0.5, pi_n=0.3,
    a_marginal=MarginalDistribution((0.5, 0.3, 0.2)),
    n_marginal=MarginalDistribution((0.2, 0.2, 0.6)),
    c_treated=MarginalDistribution((0.1, 0.3, 0.6)),
    c_control=MarginalDistribution((0.5, 0.3, 0.2)),
)


class TestEstimandsRelation:
    def test_tau_worked(self):
        assert estimands_relation(0.9, 0.5, "tau") == pytest.approx(0.8)

    def test_eta_worked(self):
        assert estimands_relation(0.3, 0.5, "eta") == pytest.approx(0.6)

    def test_tau_inconsistent(self):
        with pytest.raises(InconsistentInputs):
            estimands_relation(0.2, 0.5, "tau")

    def test_eta_inconsistent(self):
        with pytest.raises(InconsistentInputs):
            estimands_relation(0.8, 0.5, "eta")

    def test_zero_pi_c(self):
        with pytest.raises(NoCompliers):
            estimands_relation(0.5, 0.0, "tau")


class TestComplierBounds:
    def test_sharpening_formulas(self, taste_pair):
        s = StrataModel(
            pi_a=F(1, 4), pi_c=F(1, 2), pi_n=F(1, 4),
            a_marginal=taste_pair.treated, n_marginal=taste_pair.control,
            c_treated=taste_pair.treated, c_control=taste_pair.control,
        )
        rep = complier_bounds(s)
        # complier bounds are the fixture's (2/5, 4/5) and (1/5, 3/5)
        assert rep.tau_sharpened == (F(1, 2) * F(2, 5) + F(1, 2),
                                     F(1, 2) * F(4, 5) + F(1, 2))
        assert rep.eta_sharpened == (F(1, 2) * F(1, 5), F(1, 2) * F(3, 5))

    def test_sharpened_tau_upper_equals_population(self):
        # exclusion restriction makes the population delta proportional to the
        # complier delta, so the sharpened tau upper bound and eta lower bound
        # coincide with the population ones; the other two can only tighten
        rng = np.random.default_rng(61)
        for _ in range(1000):
            s = exact_strata(rng, int(rng.integers(2, 5)))
            rep = complier_bounds(s)
            pop = full_report(s.mixture_pair())
            assert rep.tau_sharpened[1] == pop.tau_U
            assert rep.eta_sharpened[0] == pop.eta_L
            assert rep.tau_sharpened[0] >= pop.tau_L
            assert rep.eta_sharpened[1] <= pop.eta_U

    def test_no_compliers(self):
        s = StrataModel(
            pi_a=0.5, pi_c=0.0, pi_n=0.5,
            a_marginal=MarginalDistribution((0.5, 0.5)),
            n_marginal=MarginalDistribution((0.5, 0.5)),
            c_treated=MarginalDistribution((0.5, 0.5)),
            c_control=MarginalDistribution((0.5, 0.5)),
        )
        with pytest.raises(NoCompliers):
            complier_bounds(s)


class TestMomentIdentify:
    def test_recovers_truth_on_large_sample(self):
        rng = np.random.default_rng(70)
        recs = draw_iv_records(TRUTH, 100_000, rng)
        m = moment_identify(recs)
        assert m.pi_a == pytest.approx(TRUTH.pi_a, abs=0.01)
        assert m.pi_c == pytest.approx(TRUTH.pi_c, abs=0.01)
        assert np.allclose(m.c_treated.probs, TRUTH.c_treated.probs, atol=0.02)
        assert np.allclose(m.c_control.probs, TRUTH.c_control.probs, atol=0.02)

    def test_defiers_rejected_under_strong(self):
        recs = [UnitRecord(z=0, y=0, d=1), UnitRecord(z=1, y=0, d=1),
                UnitRecord(z=0, y=1, d=0), UnitRecord(z=1, y=1, d=0)]
        with pytest.raises(DefiersObserved):
            moment_identify(recs, monotonicity="strong")

    def test_negative_cells_flagged(self):
        # tiny sample engineered so mixture subtraction goes negative:
        # always-takers all have y=0, and the (1,1) cell has less mass at 0
        recs = (
            [UnitRecord(z=0, y=0, d=1)] * 4
            + [UnitRecord(z=0, y=1, d=0)] * 4
            + [UnitRecord(z=1, y=1, d=1)] * 7
            + [UnitRecord(z=1, y=0, d=1)] * 1
            + [UnitRecord(z=1, y=0, d=0)] * 2
        )
        m = moment_identify(recs)
        assert m.negative_cells_clipped
        assert min(m.c_treated.probs) >= 0

    def test_no_compliers_raises(self):
        recs = [UnitRecord(z=0, y=0, d=1)] * 5 + [UnitRecord(z=1, y=0, d=0)] * 5
        with pytest.raises(NoCompliers):
            moment_identify(recs)


class TestEMFit:
    def test_recovery_large_sample(self):
        rng = np.random.default_rng(71)
        recs = draw_iv_records(TRUTH, 100_000, rng)
        m = em_fit(recs)
        assert m.pi_a == pytest.approx(TRUTH.pi_a, abs=0.01)
        assert m.pi_c == pytest.approx(TRUTH.pi_c, abs=0.01)
        assert m.pi_n == pytest.approx(TRUTH.pi_n, abs=0.01)
        assert np.allclose(m.c_treated.probs, TRUTH.c_treated.probs, atol=0.01)
        assert np.allclose(m.c_control.probs, TRUTH.c_control.probs, atol=0.01)
        # the pure-stratum marginals see only ~1/4 of the sample each
        assert np.allclose(m.a_marginal.probs, TRUTH.a_marginal.probs, atol=0.02)
        assert np.allclose(m.n_marginal.probs, TRUTH.n_marginal.probs, atol=0.02)

    def test_loglik_nondecreasing(self):
        rng = np.random.default_rng(72)
        recs = draw_iv_records(TRUTH, 500, rng)
        _, trace = em_fit(recs, track_loglik=True)
        diffs = np.diff(trace)
        assert (diffs >= -1e-9).all()

    def test_perfect_compliance(self):
        rng = np.random.default_rng(73)
        recs = [
            UnitRecord(z=z, y=int(rng.integers(0, 3)), d=z)
            for z in rng.integers(0, 2, size=200)
        ]
        m = em_fit(recs)
        assert m.pi_c == pytest.approx(1.0, abs=1e-12)
        assert m.pi_a == 0.0
        assert m.pi_n == 0.0

    def test_fixed_point_converges_immediately(self):
        # data exactly proportional to a model is a fixed point of EM
        s = StrataModel(
            pi_a=0.25, pi_c=0.5, pi_n=0.25,
            a_marginal=MarginalDistribution((0.5, 0.5)),
            n_marginal=MarginalDistribution((0.25, 0.75)),
            c_treated=MarginalDistribution((0.75, 0.25)),
            c_control=MarginalDistribution((0.25, 0.75)),
        )
        recs = []
        # counts per (z, d, y) cell proportional to the model at scale 80
        for z in (0, 1):
            cell = {
                (0, 1): [s.pi_a * p for p in s.a_marginal.probs],
                (1, 0): [s.pi_n * p for p in s.n_marginal.probs],
            }
            mixed = (
                [s.pi_a * a + s.pi_c * c
                 for a, c in zip(s.a_marginal.probs, s.c_treated.probs)]
                if z == 1 else
                [s.pi_n * nn + s.pi_c * c
                 for nn, c in zip(s.n_marginal.probs, s.c_control.probs)]
            )
            cell[(z, 1 if z else 0)] = mixed
            for (zz, d), probs in (((z, 1 - z), cell[(z, 1 - z)]),
                                   ((z, z), cell[(z, z)])):
                for y, p in enumerate(probs):
                    recs += [UnitRecord(z=z, y=y, d=d)] * int(round(80 * p))
        m, trace = em_fit(recs, init=s, track_loglik=True)
        assert len(trace) <= 2
        assert m.pi_c == pytest.approx(0.5, abs=1e-6)

    def test_matches_moment_on_large_clean_sample(self):
        rng = np.random.default_rng(74)
        recs = draw_iv_records(TRUTH, 40_000, rng)
        em = em_fit(recs)
        mom = moment_identify(recs)
        assert em.pi_c == pytest.approx(mom.pi_c, abs=0.005)
        assert np.allclose(em.c_treated.probs, mom.c_treated.probs, atol=0.01)

    def test_loglik_value_matches_helper(self):
        rng = np.random.default_rng(75)
        recs = draw_iv_records(TRUTH, 1000, rng)
        m, trace = em_fit(recs, track_loglik=True)
        counts = _cells(recs, 3)
        ll = em_loglik(
            counts,
            (m.pi_a, m.pi_c, m.pi_n),
            np.array(m.a_marginal.probs),
            np.array(m.n_marginal.probs),
            np.array(m.c_treated.probs),
            np.array(m.c_control.probs),
        )
        assert ll == pytest.approx(trace[-1], abs=1e-9)


# the n=400 study-2 draws generate_study2(1 + s % 6, 400, seed=s) on which
# EM iterated from the moment proportions and uniform marginals stopped short
# of its stopping rule in 1000 iterations; all have an interior moment solution
SLOW_EM_SEEDS = (13, 37, 59, 98, 107, 125, 179, 218, 399, 422, 549, 650, 654, 715)

# tiny sample whose mixture subtraction goes negative: always-takers all
# have y=0, and the (1,1) cell has less mass at 0
BOUNDARY_RECORDS = (
    [UnitRecord(z=0, y=0, d=1)] * 4
    + [UnitRecord(z=0, y=1, d=0)] * 4
    + [UnitRecord(z=1, y=1, d=1)] * 7
    + [UnitRecord(z=1, y=0, d=1)] * 1
    + [UnitRecord(z=1, y=0, d=0)] * 2
)


def study2_counts(seeds):
    return np.array([_cells(generate_study2(1 + s % 6, 400, seed=s), 3) for s in seeds])


def model_arrays(m):
    return ([m.pi_a, m.pi_c, m.pi_n], m.a_marginal.probs, m.n_marginal.probs,
            m.c_treated.probs, m.c_control.probs)


def table_traces(trace):
    """Per-table log-likelihood traces of a stacked EM trace."""
    return [col[~np.isnan(col)] for col in np.array(trace).T]


class TestCells:
    def test_matches_loop_count(self):
        rng = np.random.default_rng(76)
        recs = [UnitRecord(z=int(z), d=int(d), y=int(y))
                for z, d, y in zip(rng.integers(0, 2, 300), rng.integers(0, 2, 300),
                                   rng.integers(0, 4, 300))]
        want = np.zeros((2, 2, 5))
        for r in recs:
            want[r.z, r.d, r.y] += 1
        assert np.array_equal(_cells(recs, 5), want)

    def test_missing_d_rejected(self):
        with pytest.raises(ValueError):
            _cells([UnitRecord(z=0, y=0, d=1), UnitRecord(z=1, y=0)], 2)

    @pytest.mark.parametrize("z, d, y", [(2, 0, 0), (0, -1, 0), (1, 1, -1), (1, 0, 3)])
    def test_out_of_range_rejected(self, z, d, y):
        with pytest.raises(ValueError):
            _cells([UnitRecord(z=0, y=0, d=0), UnitRecord(z=z, y=y, d=d)], 3)

    @pytest.mark.parametrize("arm", [0, 1])
    @pytest.mark.parametrize("fit", [_cells, moment_identify, em_fit])
    def test_empty_arm_rejected(self, arm, fit):
        # without the check the mixture subtraction divides by the empty
        # arm's size: numpy warnings, then nan strata or EM on nan
        recs = [r for r in draw_iv_records(TRUTH, 200, np.random.default_rng(77)) if r.z != arm]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyArm):
                fit(recs, 3) if fit is _cells else fit(recs)


def invalid_records(field, value):
    """A seeded study-2 draw (z, d, y and two covariates) whose first three
    units carry value in field."""
    recs = generate_study2(4, 300, seed=0)
    return [replace(r, **{field: value}) if i < 3 else r for i, r in enumerate(recs)]


INVALID = [("z", 2), ("d", 2), ("y", -1)]


class TestInvalidUnits:
    @pytest.mark.parametrize("field, value", INVALID)
    @pytest.mark.parametrize("fit", [moment_identify, em_fit, em_fit_with_covariates])
    def test_fits_raise(self, fit, field, value):
        with pytest.raises(OutOfRangeOutcome):
            fit(invalid_records(field, value))


class TestComplierMLE:
    @pytest.mark.parametrize("s", SLOW_EM_SEEDS)
    def test_slow_em_draws_fit_in_closed_form(self, s):
        recs = generate_study2(1 + s % 6, 400, seed=s)
        m = em_fit(recs)
        mom = moment_identify(recs)
        assert not m.negative_cells_clipped and not mom.negative_cells_clipped
        for got, want in zip(model_arrays(m), model_arrays(mom)):
            assert np.abs(np.subtract(got, want)).max() <= 1e-12

    def test_boundary_em_beats_clipped_moments(self):
        mom = moment_identify(BOUNDARY_RECORDS)
        assert mom.negative_cells_clipped
        counts = _cells(BOUNDARY_RECORDS, 2)
        assert not complier_mle(counts[None]).interior[0]
        m, trace = em_fit(BOUNDARY_RECORDS, track_loglik=True)
        assert len(trace) > 1
        assert (np.diff(trace) >= -1e-9).all()
        ll_em = em_loglik(counts, *model_arrays(m))
        assert ll_em == pytest.approx(trace[-1], abs=1e-9)
        assert ll_em >= em_loglik(counts, *model_arrays(mom))

    def test_stack_matches_single_table_fits(self):
        # seeds 116..125 hold both boundary (116, 121, 122) and interior draws
        seeds = range(116, 126)
        stack = study2_counts(seeds)
        fit = complier_mle(stack)
        assert fit.interior.any() and not fit.interior.all()
        assert fit.converged.all()
        for k, s in enumerate(seeds):
            m = em_fit(generate_study2(1 + s % 6, 400, seed=s))
            for got, want in zip((fit.pi, fit.a, fit.n, fit.c1, fit.c0), model_arrays(m)):
                assert np.abs(got[k] - np.asarray(want)).max() <= 1e-10

    def test_warm_started_boundary_em_is_monotone(self):
        # the bootstrap's start: every table from one full-sample fit
        stack = study2_counts(range(116, 126))
        warm = model_arrays(em_fit(generate_study2(1, 400, seed=0)))
        fit = complier_mle(stack, init=warm, max_iter=20000)
        assert fit.converged.all()
        edge = np.flatnonzero(~fit.interior)
        traces = table_traces(fit.trace)
        assert len(traces) == len(edge) == 3
        for k, tr in zip(edge, traces):
            assert len(tr) > 1
            assert (np.diff(tr) >= -1e-9).all()
            assert tr[-1] >= em_loglik(stack[k], *warm)

    def test_em_from_closed_form_gains_nothing(self):
        stack = study2_counts(range(20))
        fit = complier_mle(stack)
        inner = np.flatnonzero(fit.interior)
        start = [v[inner] for v in fit[:5]]
        *_, trace, converged = _em_from_counts(stack[inner], *start, max_iter=1000, tol=1e-8)
        assert converged.all()
        ll0 = np.array([em_loglik(stack[i], *(v[i] for v in fit[:5])) for i in inner])
        assert (np.nanmax(np.array(trace), axis=0) - ll0).max() <= 1e-9

    def test_interior_trace_is_the_closed_form_loglik(self):
        recs = generate_study2(1, 400, seed=13)
        m, trace = em_fit(recs, track_loglik=True)
        assert trace == [em_loglik(_cells(recs, 3), *model_arrays(m))]

    def test_nonconvergence_reported_per_table(self):
        stack = study2_counts(range(116, 123))
        fit = complier_mle(stack, max_iter=1)
        assert (fit.converged == fit.interior).all()
        with pytest.raises(NonConvergence):
            em_fit(BOUNDARY_RECORDS, max_iter=1)


class TestCovariateEM:
    def make_covariate_records(self, rng, n):
        recs = []
        for _ in range(n):
            x = float(rng.normal())
            eta = np.array([0.0, 0.5 + x, -0.5 + x])
            p = np.exp(eta - eta.max())
            p /= p.sum()
            g = rng.choice(3, p=p)  # 0=c, 1=a, 2=n
            z = int(rng.integers(0, 2))
            if g == 1:
                d = 1
                cuts = np.array([-0.5, 1.0]) + 1.0 * x
            elif g == 2:
                d = 0
                cuts = np.array([-1.5, 0.0])
            else:
                d = z
                cuts = (np.array([-1.0, 0.5]) if d else np.array([0.5, 2.0]))
            Fc = 1 / (1 + np.exp(-cuts))
            pr = np.diff(np.concatenate([[0.0], Fc, [1.0]]))
            y = int(rng.choice(3, p=pr))
            recs.append(UnitRecord(z=z, y=y, d=d, x=(x,)))
        return recs

    def test_monotone_loglik_and_plausible_fit(self):
        rng = np.random.default_rng(81)
        recs = self.make_covariate_records(rng, 2000)
        fit = em_fit_with_covariates(recs)
        diffs = np.diff(fit.loglik_trace)
        assert (diffs >= -1e-7).all()
        X = np.array([r.x for r in recs], dtype=float)
        # average complier share implied by the logit truth is about 0.38
        assert fit.pi_c(X).mean() == pytest.approx(0.38, abs=0.06)

    def test_reduces_to_flat_em_without_covariates(self):
        rng = np.random.default_rng(82)
        recs = draw_iv_records(TRUTH, 3000, rng)
        flat = em_fit(recs)
        cov = em_fit_with_covariates(recs)
        X = np.zeros((len(recs), 0))
        pis = cov.pi(X)
        assert pis[0, 0] == pytest.approx(flat.pi_c, abs=1e-4)
        assert pis[0, 1] == pytest.approx(flat.pi_a, abs=1e-4)
        assert pis[0, 2] == pytest.approx(flat.pi_n, abs=1e-4)

    def test_defiers_rejected_under_strong(self):
        recs = [UnitRecord(z=0, y=0, d=1, x=(0.0,)),
                UnitRecord(z=1, y=1, d=1, x=(0.0,)),
                UnitRecord(z=0, y=1, d=0, x=(0.0,)),
                UnitRecord(z=1, y=0, d=0, x=(0.0,))]
        with pytest.raises(DefiersObserved):
            em_fit_with_covariates(recs, monotonicity="strong")

    def test_strong_monotonicity_fit(self):
        recs = [r for r in generate_study2(4, 1000, seed=3) if not (r.z == 0 and r.d == 1)]
        fit = em_fit_with_covariates(recs, monotonicity="strong")
        assert fit.g_model.classes == ("c", "n") and fit.a_model is None
        assert fit.n_iter == len(fit.loglik_trace) == 13
        assert (np.diff(fit.loglik_trace) >= 0).all()
        X = np.array([r.x for r in recs])
        assert np.allclose(fit.pi(X).sum(axis=1), 1)


def four_cell_loglik(fit, records):
    """Observed-data log-likelihood of a covariate strata fit, summed cell by
    cell: always-takers (z=0, d=1), never-takers (z=1, d=0) and the mixed
    cells (z=1, d=1) and (z=0, d=0)."""
    z, y, d, _ = unit_columns(records)
    X = covariate_matrix(records)
    P = fit.pi(X)
    rows = np.arange(len(y))

    def term(g, model):
        return P[:, fit.g_model.classes.index(g)] * model.predict_proba(X)[rows, y]

    ta = np.zeros(len(y)) if fit.a_model is None else term("a", fit.a_model)
    tn = term("n", fit.n_model)
    cells = ((ta, (z == 0) & (d == 1)), (tn, (z == 1) & (d == 0)),
             (ta + term("c", fit.c_treated_model), (z == 1) & (d == 1)),
             (tn + term("c", fit.c_control_model), (z == 0) & (d == 0)))
    return sum(np.log(np.maximum(v[cell], 1e-300)).sum() for v, cell in cells)


class TestCovariateLoglik:
    def test_loglik_is_the_four_cell_likelihood(self):
        recs = TestCovariateEM().make_covariate_records(np.random.default_rng(81), 2000)
        strong = [r for r in generate_study2(4, 1000, seed=3) if not (r.z == 0 and r.d == 1)]
        for records, mode in ((recs, "standard"), (strong, "strong")):
            fit = em_fit_with_covariates(records, monotonicity=mode)
            assert fit.loglik == fit.loglik_trace[-1]
            assert abs(fit.loglik - four_cell_loglik(fit, records)) <= 1e-9


class TestSafeCumlogit:
    def test_keeps_J_categories_when_the_top_one_is_missing(self):
        rng = np.random.default_rng(83)
        X = rng.normal(size=(60, 1))
        y = rng.integers(0, 2, size=60)
        w = rng.random(60)
        y_zero = np.where(np.arange(60) < 5, 3, y)   # top category at weight 0 only
        w_zero = np.where(np.arange(60) < 5, 0.0, w)
        for yy, ww in ((y, w), (y_zero, w_zero)):
            model = _safe_cumlogit(yy, X, ww, 4)
            assert model.J == 4 and model.slope[0] != 0   # a fit, not the fallback
            p = model.predict_proba(X)
            assert np.isfinite(p).all() and np.abs(p.sum(axis=1) - 1).max() <= 1e-12


class TestInterceptOnly:
    @pytest.mark.parametrize("counts", [[5, 0, 0], [5, 0, 0, 0], [0, 0, 5], [0, 5, 0], [2, 3, 5]])
    def test_finite_increasing_cutpoints(self, counts):
        model = _intercept_only(np.array(counts, dtype=float), 2)
        cuts = np.array(model.cutpoints)
        assert len(cuts) == len(counts) - 1
        assert np.isfinite(cuts).all() and (np.diff(cuts) > 0).all()
        p = model.predict_proba(np.zeros((3, 2)))
        assert np.isfinite(p).all()
        assert np.abs(p.sum(axis=1) - 1).max() <= 1e-12
        assert np.abs(p[0] - np.array(counts) / sum(counts)).max() <= 1e-8


class TestMonotonicityMode:
    """Every fit rejects an unknown monotonicity mode, before any fitting."""

    @pytest.mark.parametrize("fit", [
        lambda r: moment_identify(r, monotonicity="bogus"),
        lambda r: em_fit(r, monotonicity="bogus"),
        lambda r: em_fit_with_covariates(r, monotonicity="bogus"),
        lambda r: em_fit_with_covariates(r, monotonicity="bogus",
                                         init=em_fit_with_covariates(r, monotonicity="strong")),
        lambda r: bootstrap_replicates(r, estimator="complier", n_boot=100,
                                       monotonicity="bogus"),
    ])
    def test_unknown_mode_raises(self, fit):
        # data that strong monotonicity allows (no z=0, d=1 units)
        recs = [r for r in generate_study2(4, 400, seed=0) if not (r.z == 0 and r.d == 1)]
        with pytest.raises(ValueError, match="unknown monotonicity mode 'bogus'"):
            fit(recs)

    def test_complier_adjusted_bootstrap_raises(self):
        recs = [r for r in generate_study2(4, 400, seed=0) if not (r.z == 0 and r.d == 1)]
        with pytest.raises(ValueError, match="unknown monotonicity mode"):
            bootstrap_replicates(recs, estimator="complier_adjusted", n_boot=100,
                                 monotonicity="bogus")

    def test_strong_mode_still_rejects_defiers(self):
        recs = generate_study2(4, 400, seed=0)
        for fit in (moment_identify, em_fit, em_fit_with_covariates):
            with pytest.raises(DefiersObserved):
                fit(recs, monotonicity="strong")
