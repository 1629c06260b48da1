import warnings

import numpy as np
import pytest

from ordbounds import (
    fit_cumulative_logit,
    fit_logit,
    fit_multinomial_logit,
    predict_marginal,
)
from ordbounds import models
from ordbounds.exceptions import (
    DimensionMismatch,
    NonConvergence,
    OutOfRangeOutcome,
    RankDeficient,
    SeparationDetected,
    TooFewCategories,
)
from ordbounds.models import (
    CumulativeLogitModel,
    LogitModel,
    MultinomialLogitModel,
    _ascent_direction,
    _cumlogit_derivs,
    _cumlogit_loglik_grad,
    _logit_derivs,
    _logit_loglik_grad,
    _mnlogit_derivs,
    _mnlogit_loglik_grad,
    _sigmoid,
    fit_cumulative_logit_rows,
    fit_multinomial_logit_rows,
)


def numeric_grad(f, theta, h=1e-6):
    g = np.empty_like(theta)
    for j in range(len(theta)):
        tp = theta.copy(); tp[j] += h
        tm = theta.copy(); tm[j] -= h
        g[j] = (f(tp)[0] - f(tm)[0]) / (2 * h)
    return g


class TestGradients:
    def test_cumlogit_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        J, d, n = 4, 2, 60
        y = rng.integers(0, J, size=n)
        y[:J] = np.arange(J)  # all categories present
        X = rng.normal(size=(n, d))
        w = rng.uniform(0.2, 2.0, size=n)
        f = lambda t: _cumlogit_loglik_grad(t, y, X, w, J)
        for _ in range(40):
            theta = np.concatenate([
                rng.normal(scale=1.0, size=1),
                rng.normal(scale=0.5, size=J - 2),
                rng.normal(scale=1.0, size=d),
            ])
            _, g = f(theta)
            assert np.allclose(g, numeric_grad(f, theta), atol=1e-4)

    def test_logit_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        n = 80
        dlab = rng.integers(0, 2, size=n).astype(float)
        M = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 2))])
        w = rng.uniform(0.2, 2.0, size=n)
        f = lambda t: _logit_loglik_grad(t, dlab, M, w)
        for _ in range(30):
            theta = rng.normal(size=3)
            _, g = f(theta)
            assert np.allclose(g, numeric_grad(f, theta), atol=1e-4)

    def test_mnlogit_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        n, q, G = 70, 3, 3
        gidx = rng.integers(0, G, size=n)
        M = np.hstack([np.ones((n, 1)), rng.normal(size=(n, q - 1))])
        w = rng.uniform(0.2, 2.0, size=n)
        f = lambda t: _mnlogit_loglik_grad(t, gidx, M, w, G)
        for _ in range(30):
            theta = rng.normal(size=(G - 1) * q)
            _, g = f(theta)
            assert np.allclose(g, numeric_grad(f, theta), atol=1e-4)


def numeric_hessian(derivs, theta, h=1e-6):
    """Central differences of the analytic gradient at one parameter vector
    (derivs maps one (1, p) row to its derivatives)."""
    H = np.empty((len(theta), len(theta)))
    for j in range(len(theta)):
        tp = theta.copy(); tp[j] += h
        tm = theta.copy(); tm[j] -= h
        H[:, j] = (derivs(tp[None])[1][0] - derivs(tm[None])[1][0]) / (2 * h)
    return H


def check_hessian(derivs, thetas, W):
    """derivs(theta, w) evaluates parameter rows under weight rows.  Each
    row's analytic Hessian equals central differences of its gradient, and
    the stack gives each row's one-row values."""
    ll, grad, hess = derivs(thetas, W)
    for k, theta in enumerate(thetas):
        one = lambda t: derivs(t, W[k : k + 1])
        assert np.abs(hess[k] - numeric_hessian(one, theta)).max() <= 1e-6
        ll1, grad1, hess1 = one(theta[None])
        assert abs(ll1[0] - ll[k]) <= 1e-14
        assert np.abs(grad1[0] - grad[k]).max() <= 1e-14
        assert np.abs(hess1[0] - hess[k]).max() <= 1e-14


def weight_rows(rng, n, zeros):
    """Four weight rows: positive reals with zeros at the given units, and
    resample counts (which include zeros)."""
    w = rng.uniform(0.2, 2.0, size=(4, n))
    w[:2, zeros] = 0.0
    w[2:] = rng.integers(0, 3, size=(2, n))
    w[2:, 0] = 1.0
    return w


class TestHessians:
    @pytest.mark.parametrize("J", [2, 3, 7])
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_cumlogit_hessian_matches_finite_differences(self, J, d):
        rng = np.random.default_rng(100 + 10 * J + d)
        n = 50
        # the last J units are zero-weight padding rows, one per category at
        # x = 0, as the covariate EM appends them
        y = np.concatenate([rng.integers(0, J, size=n), np.arange(J)])
        X = np.vstack([rng.normal(size=(n, d)), np.zeros((J, d))])
        W = weight_rows(rng, n + J, np.arange(n, n + J))
        thetas = np.hstack([rng.normal(size=(4, 1)), rng.normal(scale=0.5, size=(4, J - 2)),
                            rng.normal(size=(4, d))])
        check_hessian(lambda t, w: _cumlogit_derivs(t, y, X, w, J), thetas, W)

    def test_logit_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        n = 80
        dlab = rng.integers(0, 2, size=n).astype(float)
        M = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 2))])
        check_hessian(lambda t, w: _logit_derivs(t, dlab, M, w), rng.normal(size=(4, 3)),
                      weight_rows(rng, n, np.arange(6)))

    def test_mnlogit_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        n, q, G = 70, 3, 3
        gidx = rng.integers(0, G, size=n)
        M = np.hstack([np.ones((n, 1)), rng.normal(size=(n, q - 1))])
        check_hessian(lambda t, w: _mnlogit_derivs(t, gidx, M, w, G),
                      rng.normal(size=(4, (G - 1) * q)), weight_rows(rng, n, np.arange(5)))


def batched_gram(c, M, N=None):
    """_gram as k batched (q, n) @ (n, r) products, one per weight row."""
    N = M if N is None else N
    return (M.T * c[:, None, :]) @ N


def assert_rows_close(got, want, rtol=1e-12):
    """Each stack row of got within rtol of want, relative to the row's
    largest entry; a zero row exactly zero."""
    axes = tuple(range(1, want.ndim))
    err = np.abs(got - want).max(axis=axes, initial=0.0)
    assert (err <= rtol * np.abs(want).max(axis=axes, initial=0.0)).all()


class TestGramProducts:
    """The weighted Grams as one GEMM equal the batched products they
    replace, to rounding."""

    @pytest.mark.parametrize("k", [1, 7, 100])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_gram_equals_the_batched_product(self, k, q):
        rng = np.random.default_rng([k, q])
        n = 150
        M = np.hstack([np.ones((n, 1)), rng.normal(size=(n, q - 1))])
        c = rng.uniform(-0.5, 2.0, size=(k, n))
        c[:, rng.random(n) < 0.2] = 0.0   # zero-weight units
        if k > 1:
            c[0] = 0.0   # and an all-zero row
        assert_rows_close(models._gram(c, M), batched_gram(c, M))
        for r in (1, 3):
            N = rng.normal(size=(n, r))
            assert_rows_close(models._gram(c, M, N), batched_gram(c, M, N))

    @pytest.mark.parametrize("k", [1, 7, 100])
    @pytest.mark.parametrize("J, d", [(2, 0), (3, 1), (3, 3), (7, 2)])
    def test_cumlogit_derivs_equal_the_batched_reference(self, k, J, d, monkeypatch):
        rng = np.random.default_rng([k, J, d])
        n = 120
        # zero-weight padding rows, one per category at x = 0, as the EM has
        y = np.concatenate([rng.integers(0, J, size=n), np.arange(J)])
        X = np.vstack([rng.normal(size=(n, d)), np.zeros((J, d))])
        W = rng.integers(0, 3, size=(k, n + J)).astype(float)
        W[:, 0], W[:, n:] = 1.0, 0.0
        thetas = np.hstack([rng.normal(size=(k, 1)), rng.normal(scale=0.5, size=(k, J - 2)),
                            rng.normal(size=(k, d))])
        ll, grad, hess = _cumlogit_derivs(thetas, y, X, W, J)
        monkeypatch.setattr(models, "_gram", batched_gram)
        ll_ref, grad_ref, hess_ref = _cumlogit_derivs(thetas, y, X, W, J)
        assert np.array_equal(ll, ll_ref) and np.array_equal(grad, grad_ref)
        assert_rows_close(hess, hess_ref)

    @pytest.mark.parametrize("k", [1, 7, 100])
    def test_logit_derivs_equal_the_batched_reference(self, k, monkeypatch):
        rng = np.random.default_rng(k)
        n = 150
        dlab = rng.integers(0, 2, size=n).astype(float)
        M = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 3))])
        W = rng.integers(0, 3, size=(k, n)).astype(float)
        W[:, 0] = 1.0
        thetas = rng.normal(size=(k, 4))
        ll, grad, hess = _logit_derivs(thetas, dlab, M, W)
        monkeypatch.setattr(models, "_gram", batched_gram)
        ll_ref, grad_ref, hess_ref = _logit_derivs(thetas, dlab, M, W)
        assert np.array_equal(ll, ll_ref) and np.array_equal(grad, grad_ref)
        assert_rows_close(hess, hess_ref)


class TestStartRows:
    """A start only moves where Newton begins: every row of a warm-started
    stack ends at its own cold one-row fit."""

    def test_cumulative_rows_reproduce_cold_fits(self):
        rng = np.random.default_rng(61)
        n, J = 300, 4
        X = rng.normal(size=(n, 2))
        y = np.minimum((X @ [1.0, -0.5] + rng.logistic(size=n) + 2).astype(int).clip(0), J - 1)
        W = rng.uniform(0.1, 2.0, size=(3, n))
        W[1, :100] = 0.0
        cold = [fit_cumulative_logit(y, X, weights=w) for w in W]
        # started near the fit, as the covariate EM's M-steps are (the stop rule
        # bounds the gradient, so a far start can end ~1e-8 away)
        start = (np.array([m.cutpoints for m in cold]) + rng.normal(scale=0.05, size=(3, 1)),
                 np.array([m.slope for m in cold]) + rng.normal(scale=0.05, size=(3, 2)))
        cut, slope, error = fit_cumulative_logit_rows(y, X, W, J, start)
        assert all(e is None for e in error)
        assert np.abs(cut - [m.cutpoints for m in cold]).max() <= 1e-8
        assert np.abs(slope - [m.slope for m in cold]).max() <= 1e-8

    def test_multinomial_rows_reproduce_cold_fits(self):
        rng = np.random.default_rng(62)
        n, G = 300, 3
        X = rng.normal(size=(n, 2))
        M = np.hstack([np.ones((n, 1)), X])
        gidx = rng.integers(0, G, size=n)
        W = rng.uniform(0.1, 2.0, size=(3, n))
        W[2, 50:120] = 0.0
        cold = [np.ravel(fit_multinomial_logit(gidx, X, weights=w, classes=(0, 1, 2)).coef)
                for w in W]
        # started near the fit, as the covariate EM's M-steps are (the stop rule
        # bounds the gradient, so a far start can end ~1e-8 away)
        start = np.array(cold) + rng.normal(scale=0.05, size=(3, 6))
        theta, error = fit_multinomial_logit_rows(gidx, M, W, G, start)
        assert all(e is None for e in error)
        assert np.abs(theta - cold).max() <= 1e-8


class TestProbabilityFloor:
    """Units whose outcome probability sits at the 1e-300 floor."""

    # a log-gap of -800 merges the two cutpoints, so category 1 has probability
    # 0 (floored at 1e-300) while F(1 - F) = 1/4 at x = 0: its score is ~1e299
    THETA = np.array([[0.0, -800.0, 1.0]])

    def test_zero_weight_units_add_exactly_zero(self):
        rng = np.random.default_rng(63)
        X = rng.normal(size=(40, 1))
        y = 2 * rng.integers(0, 2, size=40)   # categories 0 and 2 only
        w = rng.uniform(0.5, 1.5, size=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _cumlogit_derivs(self.THETA, np.r_[y, 1, 1], np.vstack([X, [[0.0], [0.1]]]),
                                   np.r_[w, 0.0, 0.0][None], 3)
        want = _cumlogit_derivs(self.THETA, y, X, w[None], 3)
        for g, v in zip(got, want):
            assert np.isfinite(g).all()
            assert np.abs(g - v).max() <= 1e-12 * max(1.0, np.abs(v).max())

    def test_weighted_unit_at_the_floor_gives_a_gradient_step(self):
        X = np.array([[0.0], [0.5], [-0.5], [1.0]])
        y = np.array([1, 0, 2, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, grad, hess = _cumlogit_derivs(self.THETA, y, X, np.ones((1, 4)), 3)
            direction = _ascent_direction(grad, hess)
        assert not np.isfinite(hess).all() and np.isfinite(grad).all()
        assert np.allclose(direction, grad / max(np.abs(grad).max(), 1.0))

    def test_ascent_direction_per_row(self):
        # a score at the floor can make the gradient itself huge
        grad = np.array([[1e200, -2e200], [0.5, 0.25]])
        hess = np.array([[[np.inf, 0.0], [0.0, -1.0]], [[-2.0, 0.0], [0.0, -1.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            direction = _ascent_direction(grad, hess)
        assert np.allclose(direction[0], [0.5, -1.0])        # the scaled gradient
        assert np.allclose(direction[1], [0.25, 0.25], atol=1e-9)   # the Newton step


class TestNewtonFallbacks:
    """The stacked Newton fallbacks act on the failing row alone."""

    def test_singular_row_gets_the_gradient(self, monkeypatch):
        # row 1's ridged Hessian 1e-10 I - 1e-10 I is exactly singular, so the
        # stacked solve fails and every row is solved on its own
        grad = np.array([[1.0, 2.0], [3.0, -4.0], [-1.0, 0.5]])
        hess = np.array([[[-2.0, 0.5], [0.5, -1.0]], 1e-10 * np.eye(2), [[-4.0, 0.0], [0.0, -0.5]]])
        solves = []
        solve = np.linalg.solve

        def spy(a, b):
            solves.append(np.shape(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        direction = _ascent_direction(grad, hess)
        assert solves == [(3, 2, 2), (2, 2), (2, 2), (2, 2)]
        assert np.array_equal(direction[1], [0.75, -1.0])    # the scaled gradient
        for k in (0, 2):                                      # the Newton steps
            assert np.allclose(direction[k], -np.linalg.inv(hess[k]) @ grad[k], atol=1e-9)

    def test_line_search_failure_is_per_row(self):
        # rows 0 and 2 are concave quadratics; row 1's log-likelihood drops
        # from 0 to -1 at every point but its start, along a nonzero gradient
        start = np.array([[0.0, 0.0], [1.0, -1.0], [2.0, 0.5]])
        target = np.array([[1.0, -2.0], [0.0, 0.0], [0.5, 0.5]])
        pit = np.array([False, True, False])

        def f(theta, rows):
            resid = theta - target[rows]
            quad = -0.5 * (resid ** 2).sum(axis=1)
            moved = (theta != start[rows]).any(axis=1)
            ll = np.where(pit[rows], np.where(moved, -1.0, 0.0), quad)
            grad = np.where(pit[rows][:, None], 1.0, -resid)
            return ll, grad, np.broadcast_to(-np.eye(2), (len(rows), 2, 2)).copy()

        theta, error = models._newton(f, start)
        assert isinstance(error[1], NonConvergence)
        assert str(error[1]) == "line search failed to improve log-likelihood"
        assert np.array_equal(theta[1], start[1])
        assert error[0] is None and error[2] is None
        assert np.allclose(theta[[0, 2]], target[[0, 2]], atol=1e-8)


class TestFitFailures:
    """The one-row fitters raise the typed failure of their Newton row."""

    def test_non_convergence(self):
        # at this covariate scale rounding keeps every gradient above 1e-8
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 1)) * 1e12
        d = (rng.random(200) < _sigmoid(X[:, 0] / 1e12)).astype(float)
        y = rng.integers(0, 3, size=200)
        g = list(rng.choice(["c", "a", "n"], size=200))
        with pytest.raises(NonConvergence):
            fit_logit(d, X)
        with pytest.raises(NonConvergence):
            fit_cumulative_logit(y, X)
        with pytest.raises(NonConvergence):
            fit_multinomial_logit(g, X, classes=("c", "a", "n"))

    def test_converges_with_large_covariate_scales(self):
        # the analytic Hessian has no difference step to mis-scale
        rng = np.random.default_rng(0)
        for scale in (1e6, 1e8):
            X = rng.normal(size=(200, 1)) * scale
            d = (rng.random(200) < _sigmoid(X[:, 0] / scale)).astype(float)
            m = fit_logit(d, X)
            ref = fit_logit(d, X / scale)
            assert m.coef[0] == pytest.approx(ref.coef[0], abs=1e-9)
            assert m.coef[1] * scale == pytest.approx(ref.coef[1], abs=1e-9)

    def test_separation(self):
        X = np.linspace(-1, 1, 40).reshape(-1, 1)
        with pytest.raises(SeparationDetected):
            fit_cumulative_logit((X[:, 0] > 0).astype(int), X)
        g = ["c" if v < -0.3 else "a" if v < 0.3 else "n" for v in X[:, 0]]
        with pytest.raises(SeparationDetected):
            fit_multinomial_logit(g, X, classes=("c", "a", "n"))

    def test_rank_deficient(self):
        X = np.array([[1.0, 2.0]] * 6)
        with pytest.raises(RankDeficient):
            fit_logit(np.array([0, 1, 0, 1, 1, 0.0]), X)
        with pytest.raises(RankDeficient):
            fit_multinomial_logit(["c", "a", "n"] * 2, X, classes=("c", "a", "n"))

    def test_too_few_categories_counts_positive_weights_only(self):
        y = np.array([0, 1, 1, 2, 2])
        with pytest.raises(TooFewCategories):
            fit_cumulative_logit(y, weights=[0.0, 1.0, 2.0, 0.0, 0.0])


class TestCumulativeLogit:
    def test_intercept_only_closed_form(self):
        y = np.array([0] * 3 + [1] * 5 + [2] * 2)
        m = fit_cumulative_logit(y)
        F1, F2 = _sigmoid(np.array(m.cutpoints))
        assert F1 == pytest.approx(0.3, abs=1e-9)
        assert F2 == pytest.approx(0.8, abs=1e-9)
        assert m.slope == ()

    def test_weighted_equals_replicated(self):
        rng = np.random.default_rng(6)
        y = rng.integers(0, 3, size=30)
        X = rng.normal(size=(30, 1))
        reps = rng.integers(1, 4, size=30)
        w = reps.astype(float)
        yr = np.repeat(y, reps)
        Xr = np.repeat(X, reps, axis=0)
        m1 = fit_cumulative_logit(y, X, weights=w)
        m2 = fit_cumulative_logit(yr, Xr)
        assert np.allclose(m1.cutpoints, m2.cutpoints, atol=1e-6)
        assert np.allclose(m1.slope, m2.slope, atol=1e-6)

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(20)
        n = 20000
        X = rng.normal(size=(n, 1))
        cuts = np.array([-0.5, 1.0])
        u = -1.5 * X[:, 0]
        F = _sigmoid(np.add.outer(u, cuts))
        p = np.diff(np.hstack([np.zeros((n, 1)), F, np.ones((n, 1))]), axis=1)
        y = (rng.uniform(size=n)[:, None] > p.cumsum(axis=1)).sum(axis=1)
        m = fit_cumulative_logit(y, X)
        assert np.allclose(m.cutpoints, cuts, atol=0.07)
        assert np.allclose(m.slope, [-1.5], atol=0.07)

    def test_predict_marginal_sums_to_one(self):
        rng = np.random.default_rng(9)
        y = rng.integers(0, 3, size=50)
        X = rng.normal(size=(50, 1))
        m = fit_cumulative_logit(y, X)
        marg = predict_marginal(m, [0.5])
        assert sum(marg.probs) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0 for v in marg.probs)

    def test_too_few_categories(self):
        with pytest.raises(TooFewCategories):
            fit_cumulative_logit(np.zeros(10, dtype=int))

    def test_rank_deficient(self):
        y = np.array([0, 1, 2, 1, 0, 2])
        X = np.array([[1.0, 2.0]] * 6)  # constant columns are collinear
        with pytest.raises(RankDeficient):
            fit_cumulative_logit(y, X)


class TestLogit:
    def test_intercept_only(self):
        d = np.array([1, 1, 1, 0])
        m = fit_logit(d)
        assert m.coef[0] == pytest.approx(np.log(3), abs=1e-9)

    def test_separation_detected(self):
        # perfectly separated labels push coefficients to infinity
        X = np.linspace(-1, 1, 40).reshape(-1, 1)
        d = (X[:, 0] > 0).astype(float)
        with pytest.raises(SeparationDetected):
            fit_logit(d, X)

    def test_degenerate_labels(self):
        with pytest.raises(SeparationDetected):
            fit_logit(np.ones(5))

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(30)
        n = 20000
        X = rng.normal(size=(n, 2))
        p = _sigmoid(0.5 + X @ np.array([1.0, -0.7]))
        d = (rng.uniform(size=n) < p).astype(float)
        m = fit_logit(d, X)
        assert np.allclose(m.coef, [0.5, 1.0, -0.7], atol=0.08)


class TestMultinomialLogit:
    def test_reference_class_fixed_at_zero(self):
        rng = np.random.default_rng(41)
        g = list(rng.choice(["c", "a", "n"], size=200))
        m = fit_multinomial_logit(g, classes=("c", "a", "n"))
        assert m.classes == ("c", "a", "n")
        P = m.predict_proba(np.zeros((1, 0)))
        counts = np.array([g.count(c) for c in m.classes], dtype=float)
        assert np.allclose(P[0], counts / counts.sum(), atol=1e-6)

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(42)
        n = 30000
        X = rng.normal(size=(n, 1))
        eta = np.hstack([np.zeros((n, 1)), 0.5 + X, -0.5 + X])
        P = np.exp(eta)
        P /= P.sum(axis=1, keepdims=True)
        draws = (rng.uniform(size=n)[:, None] > P.cumsum(axis=1)).sum(axis=1)
        g = [("c", "a", "n")[k] for k in draws]
        m = fit_multinomial_logit(g, X, classes=("c", "a", "n"))
        B = np.array(m.coef)
        assert np.allclose(B, [[0.5, 1.0], [-0.5, 1.0]], atol=0.08)

    def test_too_few_classes(self):
        with pytest.raises(TooFewCategories):
            fit_multinomial_logit(["c"] * 10)


X20 = np.random.default_rng(51).normal(size=(20, 1))
WEIGHTED_FITS = {
    "logit": lambda w: fit_logit(np.arange(20) % 2, X20, weights=w),
    "cumulative": lambda w: fit_cumulative_logit(np.arange(20) % 3, X20, weights=w),
    "multinomial": lambda w: fit_multinomial_logit(["c", "a", "n", "a"] * 5, X20, weights=w,
                                                   classes=("c", "a", "n")),
}


FIT_LABELS = [
    (fit_logit, np.arange(20) % 2),
    (fit_cumulative_logit, np.arange(20) % 3),
    (fit_multinomial_logit, ["c", "a", "n", "a"] * 5),
]
FIT_IDS = ["logit", "cumulative", "multinomial"]


class TestInputChecks:
    """The three fitters check their weights, labels and covariates alike,
    and the three models the covariates they predict at."""

    @pytest.mark.parametrize("fit", WEIGHTED_FITS)
    def test_negative_weights_rejected(self, fit):
        with pytest.raises(ValueError, match="nonnegative"):
            WEIGHTED_FITS[fit](-np.ones(20))

    @pytest.mark.parametrize("fit", WEIGHTED_FITS)
    @pytest.mark.parametrize("n", [19, 21])
    def test_wrong_weight_length_rejected(self, fit, n):
        with pytest.raises(DimensionMismatch):
            WEIGHTED_FITS[fit](np.ones(n))

    @pytest.mark.parametrize("fit, labels", FIT_LABELS, ids=FIT_IDS)
    def test_covariate_vector_is_one_column(self, fit, labels):
        assert fit(labels, X20[:, 0]) == fit(labels, X20)

    @pytest.mark.parametrize("fit, labels", FIT_LABELS, ids=FIT_IDS)
    def test_wrong_covariate_row_count_rejected(self, fit, labels):
        with pytest.raises(DimensionMismatch, match="19 covariate rows for 20 outcomes"):
            fit(labels, X20[:19])

    @pytest.mark.parametrize("cutpoints", [(1.0, 0.0), (0.5, 0.5)], ids=["decreasing", "tied"])
    def test_cutpoints_must_increase(self, cutpoints):
        with pytest.raises(ValueError, match="strictly increasing"):
            CumulativeLogitModel(cutpoints, ())

    @pytest.mark.parametrize("model", [
        CumulativeLogitModel((0.0,), (1.0,)), LogitModel((0.0, 1.0)),
        MultinomialLogitModel(("c", "a"), ((0.0, 1.0),)),
    ], ids=["cumulative", "logit", "multinomial"])
    def test_predict_proba_checks_the_covariate_count(self, model):
        model.predict_proba(np.zeros((3, 1)))
        with pytest.raises(DimensionMismatch):
            model.predict_proba(np.zeros((3, 2)))

    def test_unknown_label_named(self):
        with pytest.raises(ValueError, match="'b'"):
            fit_multinomial_logit(["c", "a", "b", "n"] * 5, X20, classes=("c", "a", "n"))

    @pytest.mark.parametrize("X", [X20, None], ids=["covariates", "intercept"])
    @pytest.mark.parametrize("fit, labels", FIT_LABELS, ids=FIT_IDS)
    def test_all_zero_weights_rejected(self, fit, labels, X):
        with pytest.raises(ValueError, match="all zero"):
            fit(labels, X, weights=np.zeros(20))

    @pytest.mark.parametrize("y", [np.arange(20) % 3 - 1, np.r_[0.5, np.arange(19) % 3]],
                             ids=["negative", "fractional"])
    def test_cumulative_labels_must_be_nonnegative_integers(self, y):
        with pytest.raises(OutOfRangeOutcome):
            fit_cumulative_logit(y, X20)

    def test_cumulative_accepts_integer_valued_float_labels(self):
        y = np.arange(20) % 3
        assert fit_cumulative_logit(y.astype(float), X20) == fit_cumulative_logit(y, X20)

    def test_logit_labels_must_be_binary(self):
        with pytest.raises(OutOfRangeOutcome):
            fit_logit(np.arange(20) % 3, X20)

    def test_iteration_limit_read_at_call_time(self, monkeypatch):
        # one Newton step cannot bring the gradient below GRAD_TOL
        monkeypatch.setattr(models, "MAX_ITER", 1)
        with pytest.raises(NonConvergence, match="after 1 iterations"):
            fit_logit(np.arange(20) % 2, X20)
