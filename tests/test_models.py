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
    RankDeficient,
    SeparationDetected,
    TooFewCategories,
)
from ordbounds.models import (
    _cumlogit_derivs,
    _cumlogit_loglik_grad,
    _logit_derivs,
    _logit_loglik_grad,
    _mnlogit_derivs,
    _mnlogit_loglik_grad,
    _sigmoid,
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


class TestInputChecks:
    """The three fitters check their weights and labels alike."""

    @pytest.mark.parametrize("fit", WEIGHTED_FITS)
    def test_negative_weights_rejected(self, fit):
        with pytest.raises(ValueError, match="nonnegative"):
            WEIGHTED_FITS[fit](-np.ones(20))

    @pytest.mark.parametrize("fit", WEIGHTED_FITS)
    @pytest.mark.parametrize("n", [19, 21])
    def test_wrong_weight_length_rejected(self, fit, n):
        with pytest.raises(DimensionMismatch):
            WEIGHTED_FITS[fit](np.ones(n))

    def test_unknown_label_named(self):
        with pytest.raises(ValueError, match="'b'"):
            fit_multinomial_logit(["c", "a", "b", "n"] * 5, X20, classes=("c", "a", "n"))

    def test_iteration_limit_read_at_call_time(self, monkeypatch):
        # one Newton step cannot bring the gradient below GRAD_TOL
        monkeypatch.setattr(models, "MAX_ITER", 1)
        with pytest.raises(NonConvergence, match="after 1 iterations"):
            fit_logit(np.arange(20) % 2, X20)
