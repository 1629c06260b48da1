"""Maximum-likelihood fitters: cumulative-logit (proportional odds), binary
logit, and multinomial logit.

Conventions
-----------
* Design matrices hold covariates only; intercepts are implicit (the
  cumulative-logit cutpoints play that role, the other two models prepend a
  constant column).  Covariates are used as supplied; standardize upstream if
  scales differ wildly.
* Cumulative logit uses logit pr(Y <= j | x) = alpha_j + x' beta, with
  strictly increasing cutpoints alpha_0 < ... < alpha_{J-2} enforced by the
  (alpha_0, log-gap) reparameterization.
* Every log-likelihood has an analytic gradient and Hessian (the cumulative
  logit's through the (alpha_0, log-gap) chain rule).
* Optimization is one Newton-Raphson with step-halving over a (B, p) stack
  of parameter rows, each fitted under its own row of data weights (a
  bootstrap resample is a row of counts on the original units).  Every row
  converges when its gradient sup-norm is below 1e-8 within 200 iterations
  and otherwise gets a per-row status (NonConvergence or
  SeparationDetected) instead of stopping the stack.  fit_logit,
  fit_cumulative_logit and fit_multinomial_logit are the one-row case and
  raise that status; fit_logit_rows and fit_cumulative_logit_rows return
  it.  Intercept-only fits use the closed forms directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import MarginalDistribution
from .exceptions import (
    DimensionMismatch,
    NonConvergence,
    RankDeficient,
    SeparationDetected,
    TooFewCategories,
)

GRAD_TOL = 1e-8
MAX_ITER = 200
COEF_CAP = 30.0


def _sigmoid(t):
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def _logit(p):
    return np.log(p) - np.log1p(-p)


def _as_design(X, n):
    if X is None:
        return np.empty((n, 0))
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] != n:
        raise DimensionMismatch(f"{X.shape[0]} covariate rows for {n} outcomes")
    return X


def _weights(weights, n):
    """Unit weights (n,), ones by default: DimensionMismatch for a wrong
    length, ValueError for a negative entry."""
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise DimensionMismatch(f"weights of shape {w.shape} for {n} outcomes")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    return w


def _check_rank(M):
    if M.shape[1] and np.linalg.matrix_rank(M) < M.shape[1]:
        raise RankDeficient("design matrix is rank deficient")


@dataclass(frozen=True)
class CumulativeLogitModel:
    cutpoints: tuple  # length J-1, strictly increasing
    slope: tuple      # one coefficient per covariate

    def __post_init__(self):
        cp = tuple(float(a) for a in self.cutpoints)
        if any(b <= a for a, b in zip(cp, cp[1:])):
            raise ValueError("cutpoints must be strictly increasing")
        object.__setattr__(self, "cutpoints", cp)
        object.__setattr__(self, "slope", tuple(float(b) for b in self.slope))

    @property
    def J(self) -> int:
        return len(self.cutpoints) + 1

    def predict_proba(self, X) -> np.ndarray:
        """Category probabilities, shape (n, J)."""
        X = _as_design(X, np.shape(X)[0] if np.ndim(X) else 1)
        if X.shape[1] != len(self.slope):
            raise DimensionMismatch(
                f"model has {len(self.slope)} covariates, got {X.shape[1]}"
            )
        slope = np.array(self.slope).reshape(1, -1)
        return cumulative_logit_proba(np.array([self.cutpoints]), slope, X)[0]


def predict_marginal(model: CumulativeLogitModel, x) -> MarginalDistribution:
    """Predicted outcome distribution at one covariate row."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p = model.predict_proba(x[None, :])[0]
    p = np.clip(p, 0.0, None)
    return MarginalDistribution(tuple(p / p.sum()))


@dataclass(frozen=True)
class LogitModel:
    coef: tuple  # intercept followed by slopes

    def predict_proba(self, X) -> np.ndarray:
        X = _as_design(X, np.shape(X)[0])
        if X.shape[1] != len(self.coef) - 1:
            raise DimensionMismatch("covariate dimension mismatch")
        b = np.array(self.coef)
        return _sigmoid(b[0] + X @ b[1:])


@dataclass(frozen=True)
class MultinomialLogitModel:
    classes: tuple           # class labels, reference first
    coef: tuple              # per non-reference class: (intercept, slopes...)

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered as self.classes."""
        X = _as_design(X, np.shape(X)[0])
        B = np.array(self.coef)  # (G-1, d+1)
        if B.size and X.shape[1] != B.shape[1] - 1:
            raise DimensionMismatch("covariate dimension mismatch")
        scores = np.zeros((X.shape[0], len(self.classes)))
        for g in range(1, len(self.classes)):
            scores[:, g] = B[g - 1, 0] + X @ B[g - 1, 1:]
        scores -= scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        return e / e.sum(axis=1, keepdims=True)


# -- stacked Newton-Raphson --------------------------------------------------

def _gram(c, M):
    """sum_i c[k, i] M[i] M[i]' for each row k of c: (k, q, q)."""
    return (M.T * c[:, None, :]) @ M


def _ascent_direction(grad, hess):
    """Newton direction of each row; the gradient scaled to sup-norm <= 1
    where the Hessian is singular or the Newton step does not ascend."""
    A = hess - 1e-10 * np.eye(grad.shape[1])
    try:
        step = np.linalg.solve(A, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:   # some row is singular: solve row by row
        step = np.zeros_like(grad)  # a zero step falls back to the gradient
        for k in range(len(grad)):
            try:
                step[k] = np.linalg.solve(A[k], grad[k])
            except np.linalg.LinAlgError:
                pass
    direction = -step
    back = (grad * direction).sum(axis=1) <= 0
    g = grad[back]
    direction[back] = g / np.maximum(np.abs(g).max(axis=1), 1.0)[:, None]
    return direction


def _newton(f, theta, cap_slice=slice(None)):
    """Newton-Raphson with step-halving on a (B, p) stack of parameter rows.

    f(theta, rows) returns the log-likelihood (k,), gradient (k, p) and
    analytic Hessian (k, p, p) of the stack rows ``rows`` at the (k, p)
    parameters theta.  Every row follows the one-fit rules on its own: it
    converges when its gradient sup-norm is below GRAD_TOL, fails with
    NonConvergence when 40 step halvings do not improve its log-likelihood
    or it is still iterating after MAX_ITER steps, and with
    SeparationDetected when a coefficient in cap_slice exceeds COEF_CAP.
    A finished row leaves the stack, so f only sees the rows still running.

    Returns the final (B, p) rows and a length-B object array holding None
    for each row that converged and the exception of each row that failed.
    """
    theta = np.array(theta, dtype=float)
    error = np.full(len(theta), None, dtype=object)
    live = np.arange(len(theta))
    ll, grad, hess = f(theta, live)
    for _ in range(MAX_ITER):
        going = np.abs(grad).max(axis=1) >= GRAD_TOL
        live, ll, grad, hess = live[going], ll[going], grad[going], hess[going]
        if not len(live):
            return theta, error
        direction = _ascent_direction(grad, hess)
        todo, scale = np.arange(len(live)), 1.0
        for _ in range(40):
            cand = theta[live[todo]] + scale * direction[todo]
            ll_c, grad_c, hess_c = f(cand, live[todo])
            up = np.isfinite(ll_c) & (ll_c >= ll[todo] - 1e-12)
            done = todo[up]
            theta[live[done]] = cand[up]
            ll[done], grad[done], hess[done] = ll_c[up], grad_c[up], hess_c[up]
            todo = todo[~up]
            if not len(todo):
                break
            scale *= 0.5
        stuck = np.zeros(len(live), dtype=bool)
        stuck[todo] = True
        for r in live[stuck]:
            error[r] = NonConvergence("line search failed to improve log-likelihood")
        capped = ~stuck & (np.abs(theta[live][:, cap_slice]).max(axis=1, initial=0.0) > COEF_CAP)
        for r in live[capped]:
            error[r] = SeparationDetected(f"coefficient norm exceeded {COEF_CAP}")
        going = ~(stuck | capped)
        live, ll, grad, hess = live[going], ll[going], grad[going], hess[going]
    for r, g in zip(live, np.abs(grad).max(axis=1, initial=0.0)):
        if g >= GRAD_TOL:
            error[r] = NonConvergence(f"gradient norm {g:.2e} after {MAX_ITER} iterations")
    return theta, error


def _raise_failure(error):
    """Raise the failure of a one-row fit, if any."""
    if error[0] is not None:
        raise error[0]


# -- cumulative logit --------------------------------------------------------

def _cumlogit_cuts(theta, J):
    """Cutpoints (k, J-1) and gaps (k, J-2) of (a0, log-gap) rows."""
    gaps = np.exp(theta[:, 1 : J - 1])
    cut = theta[:, :1] + np.hstack([np.zeros((len(theta), 1)), np.cumsum(gaps, axis=1)])
    return cut, gaps


def cumulative_logit_proba(cut, slope, X) -> np.ndarray:
    """Category probabilities (B, n, J) of B proportional-odds parameter rows,
    cutpoints (B, J-1) and slopes (B, d), at the covariate rows X (n, d).  A
    cutpoint of +inf gives its category and every one above it probability 0.
    """
    F = _sigmoid((slope @ X.T)[:, :, None] + cut[:, None, :])
    return np.diff(F, axis=2, prepend=0.0, append=1.0)


def _cumlogit_derivs(theta, y, X, w, J):
    """Mean log-likelihood (k,), gradient (k, p) and Hessian (k, p, p) of the
    proportional-odds model at (a0, log-gap, slope) rows theta (k, p),
    p = J-1+d, under weight rows w (k, n) on one data set (y < J, X).

    Each unit's log p_y depends on eta_hi = alpha_y + x'beta (absent for
    y = J-1) and eta_lo = alpha_{y-1} + x'beta (absent for y = 0).  Its
    derivatives in (eta_hi, eta_lo) are carried to (alpha, beta) by one-hot
    indicators and then to (a0, log-gaps) by alpha = A (a0, gaps); the
    curvature of the exp in the gaps adds the gap gradient to the diagonal.
    """
    k = len(theta)
    n = len(y)
    cut, gaps = _cumlogit_cuts(theta, J)
    u = theta[:, J - 1 :] @ X.T
    hi, lo = y <= J - 2, y >= 1
    Yhi = (y[:, None] == np.arange(J - 1)).astype(float)       # alpha_y, (n, J-1)
    Ylo = (y[:, None] - 1 == np.arange(J - 1)).astype(float)   # alpha_{y-1}
    F_hi = np.ones((k, n))
    F_hi[:, hi] = _sigmoid(u[:, hi] + cut[:, y[hi]])
    F_lo = np.zeros((k, n))
    F_lo[:, lo] = _sigmoid(u[:, lo] + cut[:, y[lo] - 1])
    p = np.clip(F_hi - F_lo, 1e-300, None)
    a = w / w.sum(axis=1, keepdims=True)
    ll = (a * np.log(p)).sum(axis=1)

    f_hi, f_lo = F_hi * (1.0 - F_hi), F_lo * (1.0 - F_lo)      # 0 without the cutpoint
    g_hi, g_lo = f_hi / p, -f_lo / p                           # d log p / d eta
    # d f / d eta = f (1 - 2F)
    h_hi = a * (f_hi * (1.0 - 2.0 * F_hi) / p - g_hi * g_hi)
    h_lo = a * (-f_lo * (1.0 - 2.0 * F_lo) / p - g_lo * g_lo)
    h_x = a * (-g_hi * g_lo)
    g_hi, g_lo = a * g_hi, a * g_lo

    grad_cut = g_hi @ Yhi + g_lo @ Ylo
    H_cc = np.zeros((k, J - 1, J - 1))
    i = np.arange(J - 1)
    H_cc[:, i, i] = h_hi @ Yhi + h_lo @ Ylo
    off = (h_x @ Yhi)[:, 1:]                                   # alpha_m with alpha_{m-1}
    H_cc[:, i[1:], i[:-1]] = off
    H_cc[:, i[:-1], i[1:]] = off
    H_cb = (Yhi.T * (h_hi + h_x)[:, None, :]) @ X + (Ylo.T * (h_lo + h_x)[:, None, :]) @ X
    H_bb = _gram(h_hi + 2.0 * h_x + h_lo, X)

    # alpha_m = a0 + sum_{r <= m} gap_r
    A = np.tril(np.ones((J - 1, J - 1))) * np.hstack([np.ones((k, 1)), gaps])[:, None, :]
    At = A.transpose(0, 2, 1)
    grad_t = (At @ grad_cut[:, :, None])[:, :, 0]
    H_tt = At @ H_cc @ A
    H_tt[:, i[1:], i[1:]] += grad_t[:, 1:]
    H_tb = At @ H_cb
    grad = np.hstack([grad_t, (g_hi + g_lo) @ X])
    hess = np.concatenate([np.concatenate([H_tt, H_tb], axis=2),
                           np.concatenate([H_tb.transpose(0, 2, 1), H_bb], axis=2)], axis=1)
    return ll, grad, hess


def _cumlogit_loglik_grad(theta, y, X, w, J):
    """Mean log-likelihood and gradient at one parameter vector."""
    ll, grad, _ = _cumlogit_derivs(theta[None], y, X, w[None], J)
    return float(ll[0]), grad[0]


def fit_cumulative_logit_rows(y, X, W, J):
    """Proportional-odds MLE for each weight row of W (B, n) on one data set:
    cutpoints (B, J-1), slopes (B, d) and the per-row failures of _newton.

    Every y must be below J; the caller checks categories and rank.  Without
    covariates the closed form is returned.
    """
    cum = W @ (y[:, None] <= np.arange(J - 1)) / W.sum(axis=1, keepdims=True)
    cum = np.clip(cum, 1e-9, 1 - 1e-9)
    tied = (np.diff(cum, axis=1) <= 0).any(axis=1)  # ties from empty categories
    cum[tied] = np.maximum.accumulate(cum[tied] + 1e-10 * np.arange(J - 1), axis=1)
    cuts = _logit(cum)
    d = X.shape[1]
    if d == 0:
        return cuts, np.empty((len(W), 0)), np.full(len(W), None, dtype=object)
    theta = np.hstack([cuts[:, :1], np.log(np.maximum(np.diff(cuts, axis=1), 1e-6)),
                       np.zeros((len(W), d))])
    theta, error = _newton(lambda t, rows: _cumlogit_derivs(t, y, X, W[rows], J), theta,
                           cap_slice=slice(J - 1, None))
    return _cumlogit_cuts(theta, J)[0], theta[:, J - 1 :], error


def fit_cumulative_logit(y, X=None, weights=None) -> CumulativeLogitModel:
    """Weighted proportional-odds MLE.

    y holds categories 0..J-1 (J inferred as max(y)+1); X holds covariate
    rows without an intercept column.
    """
    y = np.asarray(y, dtype=int)
    n = len(y)
    X = _as_design(X, n)
    w = _weights(weights, n)
    J = int(y.max()) + 1
    observed = np.unique(y[w > 0])
    if len(observed) < 2:
        raise TooFewCategories("need at least 2 observed outcome categories")
    _check_rank(X)
    cut, slope, error = fit_cumulative_logit_rows(y, X, w[None], J)
    _raise_failure(error)
    return CumulativeLogitModel(tuple(cut[0]), tuple(slope[0]))


# -- binary logit ------------------------------------------------------------

def _logit_derivs(theta, d, M, w):
    """Mean log-likelihood (k,), gradient (k, q) and Hessian (k, q, q) of the
    logit at coefficient rows theta (k, q) under weight rows w (k, n)."""
    p = _sigmoid(theta @ M.T)
    a = w / w.sum(axis=1, keepdims=True)
    ll = (a * (d * np.log(np.clip(p, 1e-300, None))
               + (1 - d) * np.log(np.clip(1 - p, 1e-300, None)))).sum(axis=1)
    grad = (a * (d - p)) @ M
    hess = -_gram(a * p * (1 - p), M)
    return ll, grad, hess


def _logit_loglik_grad(theta, d, M, w):
    """Mean log-likelihood and gradient at one parameter vector."""
    ll, grad, _ = _logit_derivs(theta[None], d, M, w[None])
    return float(ll[0]), grad[0]


def fit_logit_rows(d, M, W):
    """Binary-logit MLE for each weight row of W (B, n) on the design M
    (intercept column first): coefficient rows (B, q) and the per-row
    failures of _newton.  The caller checks rank."""
    return _newton(lambda t, rows: _logit_derivs(t, d, M, W[rows]),
                   np.zeros((len(W), M.shape[1])))


def fit_logit(d, X=None, weights=None) -> LogitModel:
    """Binary logistic MLE; intercept included automatically."""
    d = np.asarray(d, dtype=float)
    n = len(d)
    X = _as_design(X, n)
    w = _weights(weights, n)
    if X.shape[1] == 0:
        pbar = float(w @ d) / w.sum()
        if pbar <= 0 or pbar >= 1:
            raise SeparationDetected("all labels identical")
        return LogitModel((float(_logit(pbar)),))
    M = np.hstack([np.ones((n, 1)), X])
    _check_rank(M)
    theta, error = fit_logit_rows(d, M, w[None])
    _raise_failure(error)
    return LogitModel(tuple(theta[0]))


# -- multinomial logit -------------------------------------------------------

def _mnlogit_derivs(theta, gidx, M, w, G):
    """Mean log-likelihood (k,), gradient (k, p) and Hessian (k, p, p) of the
    multinomial logit at rows theta (k, p), p = (G-1) q, holding the
    coefficients of classes 1..G-1 in turn, under weight rows w (k, n)."""
    k = len(theta)
    n, q = M.shape
    B = theta.reshape(k, G - 1, q)
    scores = np.concatenate([np.zeros((k, 1, n)), B @ M.T], axis=1)   # (k, G, n)
    scores -= scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    P = e / e.sum(axis=1, keepdims=True)
    a = w / w.sum(axis=1, keepdims=True)
    ll = (a * np.log(np.clip(P[:, gidx, np.arange(n)], 1e-300, None))).sum(axis=1)
    resid = (gidx == np.arange(1, G)[:, None]) - P[:, 1:]
    grad = ((a[:, None, :] * resid) @ M).reshape(k, -1)
    hess = np.empty((k, G - 1, q, G - 1, q))
    for g in range(G - 1):
        for h in range(g, G - 1):
            block = -_gram(a * P[:, g + 1] * ((g == h) - P[:, h + 1]), M)
            hess[:, g, :, h, :] = hess[:, h, :, g, :] = block
    return ll, grad, hess.reshape(k, (G - 1) * q, (G - 1) * q)


def _mnlogit_loglik_grad(theta, gidx, M, w, G):
    """Mean log-likelihood and gradient at one parameter vector."""
    ll, grad, _ = _mnlogit_derivs(theta[None], gidx, M, w[None], G)
    return float(ll[0]), grad[0]


def fit_multinomial_logit(g, X=None, weights=None, classes=None) -> MultinomialLogitModel:
    """Multinomial-logit MLE; the first entry of ``classes`` is the reference
    class whose coefficients are fixed at zero."""
    g = list(g)
    n = len(g)
    X = _as_design(X, n)
    w = _weights(weights, n)
    if classes is None:
        classes = sorted(set(g))
    classes = tuple(classes)
    G = len(classes)
    if G < 2:
        raise TooFewCategories("need at least 2 classes")
    lookup = {c: i for i, c in enumerate(classes)}
    try:
        gidx = np.array([lookup[v] for v in g])
    except KeyError as e:
        raise ValueError(f"label {e.args[0]!r} not in classes {classes}") from None

    if X.shape[1] == 0:
        shares = np.array([w[gidx == i].sum() for i in range(G)]) / w.sum()
        shares = np.clip(shares, 1e-12, None)
        coef = tuple((float(np.log(shares[i] / shares[0])),) for i in range(1, G))
        return MultinomialLogitModel(classes, coef)

    M = np.hstack([np.ones((n, 1)), X])
    _check_rank(M)
    W = w[None]
    theta, error = _newton(lambda t, rows: _mnlogit_derivs(t, gidx, M, W[rows], G),
                           np.zeros((1, (G - 1) * M.shape[1])))
    _raise_failure(error)
    B = theta[0].reshape(G - 1, M.shape[1])
    return MultinomialLogitModel(classes, tuple(tuple(row) for row in B))
