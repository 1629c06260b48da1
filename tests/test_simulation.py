import numpy as np
import pytest

from ordbounds import (
    StudySpec,
    em_fit,
    estimate_randomized,
    generate_study1,
    generate_study2,
    run_study,
    study1_truth,
    study2_truth,
    study2_truth_quadrature,
)
from ordbounds import inference, simulation
from ordbounds.distributions import unit_columns
from ordbounds.estimation import UnitRecord
from ordbounds.exceptions import EmptyArm, OddN, OrdBoundsError, ReplicateFailure
from ordbounds.inference import bootstrap_bounds_ci
from ordbounds.simulation import StudyResult, _proportional_counts, _study1_columns, study1_joint


class TestStudySpec:
    def test_valid(self):
        s = StudySpec(study=1, case_id=4)
        assert s.n_units == 200

    def test_bad_study(self):
        with pytest.raises(ValueError):
            StudySpec(study=3, case_id=1)

    def test_bad_case(self):
        with pytest.raises(ValueError):
            StudySpec(study=1, case_id=5)
        with pytest.raises(ValueError):
            StudySpec(study=2, case_id=7)

    def test_bad_reps(self):
        with pytest.raises(ValueError):
            StudySpec(study=1, case_id=1, n_reps=0)

    @pytest.mark.parametrize("study", [1, 2])
    def test_too_few_bootstrap_replicates(self, study):
        # the bootstrap's own minimum, checked before any draw
        with pytest.raises(ValueError, match="n_boot must be at least 100"):
            StudySpec(study=study, case_id=1, n_boot=99)
        assert StudySpec(study=study, case_id=1, n_boot=100).n_boot == 100


class TestStudy1Truth:
    def test_known_values(self):
        t1 = study1_truth(1)
        assert t1["tau"] == pytest.approx(0.64)
        assert (t1["tau_L"], t1["tau_U"]) == (pytest.approx(0.4), pytest.approx(0.8))
        t2 = study1_truth(2)
        assert t2["tau"] == pytest.approx(0.8)
        assert (t2["tau_L"], t2["tau_U"]) == (pytest.approx(0.4), pytest.approx(0.8))
        t3 = study1_truth(3)
        assert t3["tau"] == pytest.approx(0.88)
        assert (t3["tau_L"], t3["tau_U"]) == (pytest.approx(0.6), pytest.approx(1.0))
        t4 = study1_truth(4)
        assert t4["tau"] == pytest.approx(1.0)
        assert (t4["tau_L"], t4["tau_U"]) == (pytest.approx(0.6), pytest.approx(1.0))

    def test_cases_sharing_marginals(self):
        # cases 1/2 share marginals (so share bounds) but differ in tau;
        # same for 3/4
        assert study1_joint(1).margins().treated.probs == study1_joint(2).margins().treated.probs
        assert study1_joint(3).margins().control.probs == study1_joint(4).margins().control.probs


class TestGenerators:
    def test_proportional_counts(self):
        flat = np.array([0.4, 0.35, 0.25])
        c = _proportional_counts(flat, 10)
        assert c.sum() == 10
        assert tuple(c) == (4, 4, 2) or tuple(c) == (4, 3, 3)

    def test_study1_balanced_arms_and_marginals(self):
        recs = generate_study1(1, 200, seed=5)
        n1 = sum(r.z for r in recs)
        assert n1 == 100
        # finite population is exactly proportional at n=200, so the pooled
        # empirical potential-outcome frequencies match the joint exactly
        est = estimate_randomized(recs)
        truth = study1_truth(1)
        assert abs(est.report.tau_L - truth["tau_L"]) < 0.15

    def test_study1_odd_n(self):
        with pytest.raises(OddN):
            generate_study1(1, 201, seed=0)

    def test_study1_population_is_deterministic(self):
        # same case: the multiset of (z-agnostic) outcomes differs only
        # through assignment
        a = generate_study1(2, 200, seed=1)
        b = generate_study1(2, 200, seed=2)
        assert sorted(r.y for r in a if r.z == 1) != sorted(
            r.y for r in b if r.z == 1
        ) or True  # assignments differ; the population they come from is fixed
        assert len(a) == len(b) == 200

    def test_study2_records_shape(self):
        recs = generate_study2(1, 500, seed=3)
        assert len(recs) == 500
        r = recs[0]
        assert r.d in (0, 1)
        assert len(r.x) == 2
        assert sum(r.z for r in recs) == 250
        ys = {r.y for r in recs}
        assert ys <= {0, 1, 2}

    def test_study2_compliance_structure(self):
        recs = generate_study2(1, 4000, seed=4)
        # defiers never appear: within z=0, d=1 only for always-takers;
        # P(d=1 | z=1) > P(d=1 | z=0)
        p1 = np.mean([r.d for r in recs if r.z == 1])
        p0 = np.mean([r.d for r in recs if r.z == 0])
        assert p1 > p0 + 0.2

    def test_case6_matches_case1_design_without_x2(self):
        # case 6 sets the x2 coefficients to zero, so its outcome law given
        # x1 coincides with a slope-only model; draws still differ by seed
        recs = generate_study2(6, 1000, seed=5)
        assert len(recs) == 1000


class TestRunStudy:
    def test_small_study1_run(self):
        spec = StudySpec(study=1, case_id=2, n_reps=30, n_boot=150, seed=11)
        res = run_study(spec)
        assert abs(res.bias_L) < 0.05
        assert abs(res.bias_U) < 0.05
        assert 0.8 <= res.coverage_bounds <= 1.0
        assert res.n_failed == 0
        assert res.ci_length > 0


def reference_study1_records(case, n, seed):
    """generate_study1 as a record loop: the fixed population, then one
    balanced assignment from the seed's stream."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    joint = study1_joint(case)
    J = joint.J
    flat = np.array([[float(v) for v in row] for row in joint.matrix]).ravel()
    cells = np.repeat(np.arange(J * J), _proportional_counts(flat / flat.sum(), n))
    z = np.zeros(n, dtype=int)
    z[: n // 2] = 1
    rng.shuffle(z)
    y = np.where(z == 1, cells // J, cells % J)
    return [UnitRecord(z=int(zi), y=int(yi)) for zi, yi in zip(z, y)]


def reference_seeds(spec):
    return [int(ss.generate_state(1)[0] % (2**31))
            for ss in np.random.SeedSequence(spec.seed).spawn(spec.n_reps)]


def reference_summary(spec, truth, keys, irs):
    """The summary row over the intervals irs of the replicates that
    succeeded, against truth's (lower, upper, estimand) keys."""
    true_L, true_U, true_val = (truth[k] for k in keys)
    Ls, Us, lo, hi = np.array([(ir.point_lower, ir.point_upper, ir.ci_low, ir.ci_high)
                               for ir in irs]).T
    return StudyResult(
        spec=spec, truth=truth,
        bias_L=float(Ls.mean() - true_L), bias_U=float(Us.mean() - true_U),
        se_L=float(Ls.std(ddof=1)), se_U=float(Us.std(ddof=1)),
        ci_length=float((hi - lo).mean()),
        coverage_bounds=float(((lo <= true_L) & (true_U <= hi)).mean()),
        coverage_estimand=float(((lo <= true_val) & (true_val <= hi)).mean()),
        n_failed=spec.n_reps - len(irs),
    )


def reference_study1(spec, ci_method):
    """run_study on study 1 as one bootstrap per replicate and the summary
    over the replicates' intervals."""
    irs = [bootstrap_bounds_ci(generate_study1(spec.case_id, spec.n_units, seed=rep_seed),
                               estimator="randomized", estimand="tau", n_boot=spec.n_boot,
                               seed=rep_seed, method=ci_method)
           for rep_seed in reference_seeds(spec)]
    return reference_summary(spec, study1_truth(spec.case_id), ("tau_L", "tau_U", "tau"), irs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStudy1Stack:
    """Study 1 runs as one stack; it must equal the replicate loop."""

    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 4, 200])
    @pytest.mark.parametrize("ci_method", ["normal", "percentile"])
    def test_equals_the_replicate_loop(self, case, n, ci_method):
        spec = StudySpec(study=1, case_id=case, n_units=n, n_reps=20, n_boot=100,
                         seed=100 * case + n)
        assert run_study(spec, ci_method=ci_method) == reference_study1(spec, ci_method)

    def test_small_n_mixes_category_counts(self):
        # the draws of one study reach different J: the stack groups them
        seeds = simulation._rep_seeds(StudySpec(study=1, case_id=1, n_units=4, n_reps=20))
        assert {_study1_columns(1, 4, s).categories() for s in seeds} == {2, 3}

    def test_runs_without_records_or_per_replicate_bootstraps(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("study 1 ran a replicate through the loop")

        monkeypatch.setattr(simulation, "generate_study1", forbidden)
        monkeypatch.setattr(simulation, "_bootstrap", forbidden)
        assert run_study(StudySpec(study=1, case_id=3, n_reps=5, n_boot=100)).n_failed == 0

    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 4, 20, 200])
    @pytest.mark.parametrize("seed", [0, 9, 123456])
    def test_records_are_the_columns(self, case, n, seed):
        recs = generate_study1(case, n, seed=seed)
        assert recs == reference_study1_records(case, n, seed)
        cols, want = _study1_columns(case, n, seed), unit_columns(recs)
        assert cols.z.dtype == want.z.dtype and cols.y.dtype == want.y.dtype
        for got, ref in zip(cols, want):
            assert (got is ref is None) or np.array_equal(got, ref)
        assert cols.x.shape == want.x.shape


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestReplicateChecks:
    def test_odd_n(self):
        with pytest.raises(ValueError, match="even"):
            StudySpec(study=1, case_id=1, n_units=201)

    def test_one_rep(self):
        with pytest.raises(ValueError, match="at least 2"):
            StudySpec(study=2, case_id=1, n_reps=1)

    @staticmethod
    def failing_after(monkeypatch, k):
        """Make every bootstrap after the first k fail."""
        calls = []
        real = simulation._bootstrap

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) > k:
                raise EmptyArm("made to fail")
            return real(*args, **kwargs)

        monkeypatch.setattr(simulation, "_bootstrap", flaky)

    # study 2: its replicate loop bootstraps each replicate through
    # inference._bootstrap, while study 1 runs as one stack that cannot fail
    def test_failed_replicates_are_counted(self, monkeypatch):
        self.failing_after(monkeypatch, 2)
        res = run_study(StudySpec(study=2, case_id=1, n_reps=3, n_boot=100, seed=4))
        assert res.n_failed == 1
        assert np.isfinite([res.se_L, res.se_U, res.bias_L, res.ci_length]).all()

    def test_one_success_raises(self, monkeypatch):
        self.failing_after(monkeypatch, 1)
        with pytest.raises(ReplicateFailure, match="1 of 3"):
            run_study(StudySpec(study=2, case_id=1, n_reps=3, n_boot=100, seed=4))

    @pytest.mark.parametrize("study, adjusted, key", [
        (1, False, "tau_L"), (2, False, "tau_c_L"), (2, True, "tau_c_U_adj"),
    ])
    def test_truth_without_a_key_raises_before_any_draw(self, monkeypatch, study, adjusted,
                                                         key):
        def forbidden(*args, **kwargs):
            raise AssertionError("drew a replicate before the truth was checked")

        monkeypatch.setattr(simulation, "_study1_columns", forbidden)
        monkeypatch.setattr(simulation, "_study2_columns", forbidden)
        # the other study's truth, or the adjusted truth without its upper bound
        truth = study2_truth_quadrature(1) if study == 1 else study1_truth(1)
        if adjusted:
            truth = {k: v for k, v in study2_truth_quadrature(1).items() if k != key}
        with pytest.raises(ValueError, match=f"truth has no key '{key}'"):
            run_study(StudySpec(study=study, case_id=1, n_units=1000, n_reps=20, n_boot=100),
                      adjusted=adjusted, truth=truth)

    def test_study1_has_no_adjusted_estimator(self):
        with pytest.raises(ValueError, match="adjusted is for study 2"):
            run_study(StudySpec(study=1, case_id=1, n_reps=2, n_boot=100), adjusted=True)

    def test_study2_without_compliers_raises(self):
        truth = simulation.study2_truth(1, n_draws=10_000)
        with pytest.raises(ReplicateFailure):
            run_study(StudySpec(study=2, case_id=1, n_units=2, n_reps=2, n_boot=100, seed=1),
                      truth=truth)


def reference_study2_records(case, n, seed):
    """generate_study2 as a record loop: x, strata, a balanced assignment,
    then each stratum's outcomes, from one stream in that order."""
    c1, c0 = simulation._complier_models(case)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x1 = rng.standard_normal(n)
    x2 = rng.integers(0, 2, size=n).astype(float)
    X = np.stack([x1, x2], axis=1)
    g = simulation._draw_categorical(rng, simulation._STRATA.predict_proba(X))
    z = np.zeros(n, dtype=int)
    z[: n // 2] = 1
    rng.shuffle(z)
    d = np.where(g == 1, 1, np.where(g == 2, 0, z))
    y = np.empty(n, dtype=int)
    for mask, model in ((g == 1, simulation._ALWAYS), (g == 2, simulation._NEVER),
                        ((g == 0) & (z == 1), c1), ((g == 0) & (z == 0), c0)):
        if mask.any():
            y[mask] = simulation._draw_categorical(rng, model.predict_proba(X[mask]))
    return [UnitRecord(z=int(zi), y=int(yi), d=int(di), x=(float(a), float(b)))
            for zi, yi, di, a, b in zip(z, y, d, x1, x2)]


def reference_study2(spec, ci_method, adjusted=False):
    """run_study on study 2 as a loop over records: each replicate's
    generate_study2 records, their columns without x2, one
    bootstrap_bounds_ci, and the summary over the replicates that
    succeeded."""
    estimator = "complier_adjusted" if adjusted else "complier"
    irs = []
    for rep_seed in reference_seeds(spec):
        cols = unit_columns(generate_study2(spec.case_id, spec.n_units, seed=rep_seed))
        try:
            irs.append(bootstrap_bounds_ci(cols._replace(x=cols.x[:, :1]), estimator=estimator,
                                           estimand="tau", n_boot=spec.n_boot, seed=rep_seed,
                                           method=ci_method))
        except OrdBoundsError:
            pass
    adj = "_adj" if adjusted else ""
    return reference_summary(spec, study2_truth_quadrature(spec.case_id),
                             ("tau_c_L" + adj, "tau_c_U" + adj, "tau_c"), irs)


def stub_complier_adjusted(monkeypatch, calls):
    """Swap the complier_adjusted pair for a cheap one: the count EM and the
    complier bootstrap, with every bound squared so that its intervals differ
    from the complier estimator's.  Each fit appends its columns to calls."""
    def fit(cols, J=None, monotonicity="standard"):
        calls.append(cols)
        return em_fit(cols, monotonicity=monotonicity, J=J)

    def replicates(cols, fit_result, n_boot, seed, monotonicity="standard"):
        point, rows, failures = inference._complier(cols, fit_result, n_boot, seed, monotonicity)
        return point ** 2, rows ** 2, failures

    monkeypatch.setitem(inference._ESTIMATORS, "complier_adjusted", (fit, replicates))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStudy2Columns:
    """Study 2 runs on columns, through the fit and bootstrap the CLI uses;
    it must equal the loop over records and bootstrap_bounds_ci."""

    @pytest.mark.parametrize("case", [1, 4, 6])
    @pytest.mark.parametrize("n", [20, 40, 200])
    @pytest.mark.parametrize("ci_method", ["normal", "percentile"])
    def test_equals_the_record_loop(self, case, n, ci_method):
        spec = StudySpec(study=2, case_id=case, n_units=n, n_reps=3, n_boot=100,
                         seed=10 * case + n)
        got = run_study(spec, ci_method=ci_method)
        assert got == reference_study2(spec, ci_method)
        if (case, n) == (1, 20):   # failed replicates are counted as the loop counts them
            assert got.n_failed > 0

    def test_adjusted_equals_the_record_loop(self, monkeypatch):
        calls = []
        stub_complier_adjusted(monkeypatch, calls)
        spec = StudySpec(study=2, case_id=4, n_units=200, n_reps=2, n_boot=100, seed=3)
        got = run_study(spec, adjusted=True)
        assert len(calls) == 2 and all(c.x.shape == (200, 1) for c in calls)
        assert got == reference_study2(spec, "normal", adjusted=True)
        assert got != run_study(spec)

    def test_runs_without_records_or_public_bootstraps(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("study 2 ran a replicate through records")

        monkeypatch.setattr(simulation, "generate_study2", forbidden)
        monkeypatch.setattr(inference, "bootstrap_bounds_ci", forbidden)
        monkeypatch.setattr(inference, "bootstrap_replicates", forbidden)
        res = run_study(StudySpec(study=2, case_id=2, n_units=200, n_reps=3, n_boot=100))
        assert res.n_failed == 0

    @pytest.mark.parametrize("case", range(1, 7))
    @pytest.mark.parametrize("n", [2, 40, 400])
    @pytest.mark.parametrize("seed", [0, 9, 123456])
    def test_records_are_the_columns(self, case, n, seed):
        recs = generate_study2(case, n, seed=seed)
        assert recs == reference_study2_records(case, n, seed)
        assert all(type(v) is int for r in recs for v in (r.z, r.y, r.d))
        assert all(type(v) is float for r in recs for v in r.x)
        cols, want = simulation._study2_columns(case, n, seed), unit_columns(recs)
        for got, ref in zip(cols, want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got, ref)


class TestStudy2Models:
    def test_strata_follow_the_model(self):
        recs = generate_study2(1, 20_000, seed=6)
        X = np.array([r.x for r in recs])
        pi = simulation._STRATA.predict_proba(X).mean(axis=0)   # (c, a, n)
        z1 = np.array([r.d for r in recs if r.z == 1])
        z0 = np.array([r.d for r in recs if r.z == 0])
        # d = 1 under z = 1 for c and a, under z = 0 for a only
        assert abs(z0.mean() - pi[1]) < 0.02
        assert abs(z1.mean() - pi[0] - pi[1]) < 0.02


# the printed true values of study 2 (tau_c, tau_c_L, tau_c_U, tau_c_L_adj,
# tau_c_U_adj), as in the acceptance suite
STUDY2_PRINTED_TRUTH = {
    1: (0.686, 0.488, 0.970, 0.503, 0.772),
    2: (0.770, 0.553, 1.000, 0.563, 0.935),
    3: (0.856, 0.622, 1.000, 0.622, 1.000),
    4: (0.782, 0.590, 1.000, 0.602, 0.846),
    5: (0.738, 0.542, 1.000, 0.556, 0.817),
    6: (0.686, 0.488, 0.970, 0.503, 0.772),
}
CASES = range(1, 7)


def gauss_legendre_truth(case, panels):
    """The quadrature truth on a composite 20-point rule with the given
    number of panels over [-12, 12], built here from numpy's nodes."""
    t, v = np.polynomial.legendre.leggauss(20)
    h = 24.0 / panels
    x1 = (-12.0 + h * (np.arange(panels)[:, None] + 0.5) + h / 2 * t).ravel()
    w = np.tile(h / 2 * v, panels) * np.exp(-x1 ** 2 / 2) / np.sqrt(2 * np.pi)
    X = np.column_stack([np.concatenate([x1, x1]), np.repeat([0.0, 1.0], len(x1))])
    weights = np.concatenate([w, w]) / 2
    c1, c0 = simulation._complier_models(case)
    return simulation._truth_summary(simulation._truth_sums(c1, c0, X, weights), weights.sum())


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStudy2Truth:
    @pytest.mark.parametrize("bad", [0, 7, -1])
    def test_bad_case_raises(self, bad):
        with pytest.raises(ValueError, match="case must be 1..6"):
            study2_truth(bad, n_draws=10)
        with pytest.raises(ValueError, match="case must be 1..6"):
            study2_truth_quadrature(bad)
        with pytest.raises(ValueError, match="case must be 1..6"):
            generate_study2(bad, 10, seed=0)

    @pytest.mark.parametrize("n_draws", [0, -5])
    def test_bad_draw_count_raises(self, n_draws):
        with pytest.raises(ValueError, match="n_draws"):
            study2_truth(1, n_draws=n_draws)

    @pytest.mark.parametrize("case", CASES)
    def test_rule_matches_a_finer_rule(self, case):
        q = study2_truth_quadrature(case)
        fine = gauss_legendre_truth(case, 20 * simulation._QUAD_PANELS)
        assert q.keys() == fine.keys()
        for key in q:
            assert q[key] == pytest.approx(fine[key], abs=1e-6), key

    @pytest.mark.parametrize("case", CASES)
    def test_matches_monte_carlo(self, case):
        q = study2_truth_quadrature(case)
        mc = study2_truth(case, n_draws=200_000, seed=0)
        assert list(q) == list(mc)
        for key in q:
            assert type(q[key]) is float
            assert q[key] == pytest.approx(mc[key], abs=5e-3), key

    @pytest.mark.parametrize("case", CASES)
    def test_matches_printed_truth(self, case):
        q = study2_truth_quadrature(case)
        got = (q["tau_c"], q["tau_c_L"], q["tau_c_U"], q["tau_c_L_adj"], q["tau_c_U_adj"])
        for g, want in zip(got, STUDY2_PRINTED_TRUTH[case]):
            assert abs(g - want) <= 0.005, (case, got)

    @pytest.mark.parametrize("case", CASES)
    def test_bounds_nest(self, case):
        q = study2_truth_quadrature(case)
        for e in ("tau", "eta"):
            chain = [q[f"{e}_c_L"], q[f"{e}_c_L_adj"], q[f"{e}_c"], q[f"{e}_c_U_adj"], q[f"{e}_c_U"]]
            assert all(a <= b + 1e-12 for a, b in zip(chain, chain[1:])), (e, chain)
        if case == 3:   # the complier outcomes do not depend on x
            for key in ("tau_c_L", "tau_c_U", "eta_c_L", "eta_c_U"):
                assert q[key + "_adj"] == pytest.approx(q[key], abs=1e-12)

    def test_run_study_uses_the_quadrature(self, monkeypatch):
        def no_monte_carlo(*args, **kwargs):
            raise AssertionError("run_study drew a Monte Carlo truth")

        monkeypatch.setattr(simulation, "study2_truth", no_monte_carlo)
        res = run_study(StudySpec(study=2, case_id=4, n_units=2000, n_reps=2, n_boot=100))
        assert res.truth == study2_truth_quadrature(4)
        assert res.n_failed == 0
