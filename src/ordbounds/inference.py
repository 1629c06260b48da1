"""Bootstrap confidence intervals for (lower, upper) bound pairs.

One bootstrap serves every interval of a data set: bootstrap_replicates
resamples once and returns, for the full sample and for each replicate that
succeeded, the row (tau_L, tau_I, tau_U, eta_L, eta_I, eta_U).  An interval
is then a pure function of that array (interval_from_replicates), so the
intervals for (tau_L, tau_U), (tau_I, tau_U), (eta_L, eta_U) and
(eta_I, eta_U) all come from the same resamples.

The interval is the percentile-pair construction: the (1-level)/2 quantile of
the bootstrapped lower bound paired with the (1+level)/2 quantile of the
bootstrapped upper bound, so the resulting interval is designed to cover the
whole identified set.

Every estimator works on the UnitColumns that bootstrap_replicates converts
its data to once; a resample is an array of unit indices into them.

Resampling matches the design: arm-stratified with replacement (arm sizes
preserved) for every estimator but inverse-propensity weighting, which
resamples the whole sample and refits the propensity per replicate.  For the
randomized and complier estimators an arm-stratified resample is a
multinomial redraw of each arm's counts, and all replicates are evaluated as
one stack.  The ipw and adjusted estimators draw replicate r's unit indices
from a dedicated stream spawned from (seed, r), turn each resample into a
row of unit counts, and fit and evaluate all rows at once: one stacked
propensity logit (ipw), stacked per-arm proportional-odds fits grouped by
the top category each arm-resample observed (adjusted, strata="model"), or
per-stratum counts over the strata of estimate_adjusted (adjusted,
strata="discrete").  Each replicate's rows and failures equal those of
refitting it alone.  Only complier_adjusted still refits each replicate in a
loop (one covariate EM per replicate, on the indexed columns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import COLUMNS, bound_rows
from .distributions import _take, unit_columns
from .estimation import _strata, estimate_adjusted, estimate_ipw, estimate_randomized
from .exceptions import OrdBoundsError, ReplicateFailure
from .models import (
    _sigmoid,
    cumulative_logit_proba,
    fit_cumulative_logit_rows,
    fit_logit_rows,
)
from .noncompliance import (
    _checked_cells,
    _fit_counts,
    complier_bounds,
    complier_mle,
    em_fit_with_covariates,
)

@dataclass(frozen=True)
class IntervalReport:
    point_lower: float
    point_upper: float
    ci_low: float
    ci_high: float
    level: float
    n_boot: int
    seed: int
    n_failed: int = 0

    def __post_init__(self):
        if not self.ci_low <= self.ci_high + 1e-9:
            raise ValueError(f"inverted interval: ci_low {self.ci_low} > ci_high {self.ci_high}")


class Replicates(NamedTuple):
    """One bootstrap of one data set.

    point is the full-sample row and rows the (k, 6) array of the k
    replicates that succeeded, both with columns COLUMNS; n_failed counts
    the replicates that failed (an OrdBoundsError or no convergence) and
    failures names them as (replicate index, exception name) pairs in
    index order, so one failure can be replayed from its spawned stream.
    """

    point: np.ndarray
    rows: np.ndarray
    n_failed: int
    seed: int
    failures: tuple = ()

    @property
    def n_boot(self) -> int:
        return len(self.rows) + self.n_failed


def _columns(estimand, lower):
    """Column indices of the (lower, upper) pair of an estimand."""
    if estimand not in ("tau", "eta"):
        raise ValueError(f"unknown estimand {estimand!r}")
    upper = 2 if estimand == "tau" else 5
    return upper - (1 if lower == "independent" else 2), upper


def _report_row(report):
    return np.array([float(getattr(report, c)) for c in COLUMNS])


def _randomized(cols, n_boot, seed, J):
    """Resampling units within arms is a multinomial redraw of the
    within-arm counts."""
    point = _report_row(estimate_randomized(cols, J=J).report)
    y1, y0 = cols.y[cols.z == 1], cols.y[cols.z == 0]
    n1, n0 = len(y1), len(y0)
    f1 = np.bincount(y1, minlength=J or cols.J) / n1
    f0 = np.bincount(y0, minlength=J or cols.J) / n0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    p1 = rng.multinomial(n1, f1, size=n_boot) / n1
    p0 = rng.multinomial(n0, f0, size=n_boot) / n0
    return point, bound_rows(p1, p0), ()


def _complier(cols, n_boot, seed, J, monotonicity="standard"):
    """Complier bootstrap on (z, d, y) cell counts: arm-stratified unit
    resampling is a multinomial redraw of each arm's cell counts.  One
    full-sample fit gives the point row and the EM warm start of the
    boundary replicates; all replicates go through complier_mle at once."""
    counts = _checked_cells(cols, monotonicity, J)
    J = counts.shape[-1]
    fit, _ = _fit_counts(counts)
    point = _report_row(complier_bounds(fit).complier)
    n1, n0 = counts[1].sum(), counts[0].sum()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws1 = rng.multinomial(int(n1), counts[1].ravel() / n1, size=n_boot)
    draws0 = rng.multinomial(int(n0), counts[0].ravel() / n0, size=n_boot)
    stack = np.stack([draws0, draws1], axis=1).reshape(n_boot, 2, 2, J).astype(float)
    init = (np.array([fit.pi_a, fit.pi_c, fit.pi_n]), fit.a_marginal.as_array(),
            fit.n_marginal.as_array(), fit.c_treated.as_array(), fit.c_control.as_array())
    # near-boundary resamples can need many cheap iterations
    boot = complier_mle(stack, init=init, max_iter=20000)
    ok = boot.converged
    failures = tuple((int(i), "NonConvergence") for i in np.flatnonzero(~ok))
    return point, bound_rows(boot.c1[ok], boot.c0[ok]), failures


def _resampler(cols, scheme):
    """rng -> resample indices, whole-sample or within each arm."""
    n = len(cols.z)
    if scheme == "whole":
        return lambda rng: rng.integers(0, n, size=n)
    arms = (np.flatnonzero(cols.z == 1), np.flatnonzero(cols.z == 0))
    return lambda rng: np.concatenate([arm[rng.integers(0, len(arm), size=len(arm))]
                                       for arm in arms])


def _index_stack(cols, scheme, n_boot, seed):
    """(n_boot, n) resample indices; row r comes from the stream spawned
    from (seed, r)."""
    draw = _resampler(cols, scheme)
    return np.stack([draw(np.random.default_rng(ss))
                     for ss in np.random.SeedSequence(seed).spawn(n_boot)])


def _sums_by_label(w, labels, m):
    """(k, m) sums of the weight rows w (k, n) over units with each label
    0..m-1."""
    k = len(w)
    at = (labels + m * np.arange(k)[:, None]).ravel()
    return np.bincount(at, weights=w.ravel(), minlength=k * m).reshape(k, m)


def _drop(why, live, failed, names):
    """Record names as the failure of the replicates live[failed]; return
    the replicates still live."""
    why[live[failed]] = names
    return live[~failed]


def _drop_fit_failures(why, live, error):
    """_drop for the per-row failures of a stacked fit; also returns the
    mask of the rows that converged."""
    ok = np.array([e is None for e in error], dtype=bool)
    return _drop(why, live, ~ok, [type(e).__name__ for e in error[~ok]]), ok


def _weighted_rank(M, W):
    """Rank of the resampled design: M with each unit repeated W[k] times
    has the singular values of sqrt(W[k]) M."""
    return np.linalg.matrix_rank(np.sqrt(W)[:, :, None] * M)


def _ipw_rows(cols, J, propensity=None, trim=0.01):
    """W -> (rows, why) of the inverse-propensity estimator: one stacked
    propensity logit, the trim check on resampled units, Hajek marginals."""
    z, y = cols.z, cols.y
    inside = y < J
    n = len(z)
    if propensity is None:
        M = np.hstack([np.ones((n, 1)), cols.x])

    def rows_fn(W):
        why = np.full(len(W), None, dtype=object)
        live = np.arange(len(W))
        n1 = W @ z
        live = _drop(why, live, (n1 == 0) | (n1 == n), "EmptyArm")
        if propensity is None:
            live = _drop(why, live, _weighted_rank(M, W[live]) < M.shape[1], "RankDeficient")
            coef, error = fit_logit_rows(z, M, W[live])
            live, ok = _drop_fit_failures(why, live, error)
            e = _sigmoid(coef[ok] @ M.T)
        else:
            e = np.broadcast_to(np.asarray(propensity, dtype=float), (len(live), n))
        Wl = W[live]
        extreme = (((e < trim) | (e > 1 - trim)) & (Wl > 0)).any(axis=1)
        live = _drop(why, live, extreme, "ExtremePropensity")
        e, Wl = e[~extreme], Wl[~extreme]
        # units outside the resample may have e at 0 or 1
        w1 = np.divide(Wl * z, e, out=np.zeros_like(Wl), where=Wl > 0)
        w0 = np.divide(Wl * (1 - z), 1 - e, out=np.zeros_like(Wl), where=Wl > 0)
        # as ipw_marginals, outcomes outside 0..J-1 are left out
        p1, p0 = (_sums_by_label(w[:, inside], y[inside], J) for w in (w1, w0))
        rows = np.full((len(W), len(COLUMNS)), np.nan)
        rows[live] = bound_rows(p1 / p1.sum(axis=1, keepdims=True),
                                  p0 / p0.sum(axis=1, keepdims=True))
        return rows, why

    return rows_fn


def _model_rows(cols, J):
    """W -> (rows, why) of the adjusted estimator with per-arm
    proportional-odds fits.  A fit infers its J from the top category its
    arm-resample observed, so the rows of each arm are fitted in groups of
    equal J; cutpoints above a group's top are +inf (probability 0)."""
    z, y, X = cols.z, cols.y, cols.x
    n, d = X.shape
    arms = (np.flatnonzero(z == 1), np.flatnonzero(z == 0))

    def rows_fn(W):
        why = np.full(len(W), None, dtype=object)
        live = np.arange(len(W))
        cut = np.full((2, len(W), J - 1), np.inf)
        slope = np.zeros((2, len(W), d))
        for arm, units in enumerate(arms):
            ya, Xa = y[units], X[units]
            Wa = W[live][:, units]
            observed = (_sums_by_label(Wa, ya, J) > 0).sum(axis=1)
            live = _drop(why, live, observed < 2, "TooFewCategories")
            Wa = Wa[observed >= 2]
            if d:
                low = _weighted_rank(Xa, Wa) < d
                live = _drop(why, live, low, "RankDeficient")
                Wa = Wa[~low]
            Ja = np.where(Wa > 0, ya, -1).max(axis=1, initial=-1) + 1
            error = np.full(len(live), None, dtype=object)
            for Jg in np.unique(Ja):
                g = np.flatnonzero(Ja == Jg)
                c, s, error[g] = fit_cumulative_logit_rows(np.minimum(ya, Jg - 1), Xa, Wa[g], Jg)
                cut[arm, live[g], : Jg - 1] = c
                slope[arm, live[g]] = s
            live, _ = _drop_fit_failures(why, live, error)
        p1 = cumulative_logit_proba(cut[0, live], slope[0, live], X)
        p0 = cumulative_logit_proba(cut[1, live], slope[1, live], X)
        rows = np.full((len(W), len(COLUMNS)), np.nan)
        rows[live] = np.einsum("kn,kni->ki", W[live] / n, bound_rows(p1, p0))
        return rows, why

    return rows_fn


def _discrete_rows(cols, J):
    """W -> (rows, why) of the adjusted estimator with discrete strata (the
    strata of estimate_adjusted): per-stratum, per-arm outcome counts by one
    bincount."""
    s, keys = _strata(cols.x)
    S, n = len(keys), len(s)
    cells = (2 * s + cols.z) * J + cols.y

    def rows_fn(W):
        why = np.full(len(W), None, dtype=object)
        counts = _sums_by_label(W, cells, S * 2 * J).reshape(len(W), S, 2, J)
        size = counts.sum(axis=3)                                   # (k, S, 2)
        missing = ((size.sum(axis=2) > 0) & (size == 0).any(axis=2)).any(axis=1)
        live = _drop(why, np.arange(len(W)), missing, "StratumMissingArm")
        freq = counts[live] / np.maximum(size[live], 1)[..., None]
        share = size[live].sum(axis=2) / n
        rows = np.full((len(W), len(COLUMNS)), np.nan)
        rows[live] = np.einsum("ks,ksi->ki", share, bound_rows(freq[:, :, 1], freq[:, :, 0]))
        return rows, why

    return rows_fn


# elements of one (replicates x units x categories) block of a stacked bootstrap
_BLOCK = 2 ** 20


def _stacked(cols, scheme, n_boot, seed, J, rows_fn):
    """Rows and failures of every replicate, fitted and evaluated as stacks
    of resample counts, in blocks of replicates that bound memory."""
    n = len(cols.z)
    idx = _index_stack(cols, scheme, n_boot, seed)
    parts = [rows_fn(_sums_by_label(np.ones(b.shape), b, n))
             for b in np.array_split(idx, -(-n_boot * n * J // _BLOCK))]
    rows = np.concatenate([r for r, _ in parts])
    why = np.concatenate([w for _, w in parts])
    failed = np.flatnonzero([w is not None for w in why])
    return np.delete(rows, failed, axis=0), tuple((int(i), why[i]) for i in failed)


def _ipw(cols, n_boot, seed, J, propensity=None, trim=0.01):
    """Inverse-propensity weighting: whole-sample resamples, one stacked
    propensity fit."""
    point = _report_row(estimate_ipw(cols, propensity=propensity, J=J, trim=trim).report)
    Jr = J or cols.J
    return point, *_stacked(cols, "whole", n_boot, seed, Jr, _ipw_rows(cols, Jr, propensity, trim))


def _adjusted(cols, n_boot, seed, J, strata="discrete"):
    """Covariate adjustment: arm-stratified resamples, stacked per-arm
    fits (strata="model") or per-stratum counts."""
    point = _report_row(estimate_adjusted(cols, strata=strata, J=J).report)
    # the fits may see more categories than J; extra ones are padding
    Jr = max(J or 0, cols.J)
    make = _model_rows if strata == "model" else _discrete_rows
    return point, *_stacked(cols, "stratified", n_boot, seed, Jr, make(cols, Jr))


def _complier_adjusted(cols, n_boot, seed, J, monotonicity="standard", init=None):
    """The covariate complier estimator refits covariate EM per replicate."""
    def report(sample):
        fit = em_fit_with_covariates(sample, monotonicity=monotonicity, init=init, J=J)
        return fit.complier_report(sample.x)

    point = _report_row(report(cols))
    rows, failures = [], []
    for r, idx in enumerate(_index_stack(cols, "stratified", n_boot, seed)):
        try:
            rows.append(_report_row(report(_take(cols, idx))))
        except OrdBoundsError as e:
            failures.append((r, type(e).__name__))
    return point, np.array(rows).reshape(-1, len(COLUMNS)), tuple(failures)


# estimator -> (UnitColumns, n_boot, seed, J, **options) -> (point, rows, failures)
_ESTIMATORS = {
    "randomized": _randomized,
    "ipw": _ipw,
    "adjusted": _adjusted,
    "complier": _complier,
    "complier_adjusted": _complier_adjusted,
}


def bootstrap_replicates(records, estimator: str = "randomized", n_boot: int = 1000,
                         seed: int = 0, J: int | None = None, **options) -> Replicates:
    """Bootstrap the rows (tau_L, tau_I, tau_U, eta_L, eta_I, eta_U) of an
    estimator once; every interval of the data set is built from the result
    by interval_from_replicates.

    estimator is "randomized", "ipw", "adjusted", "complier" or
    "complier_adjusted"; options go to the estimator (propensity and trim
    for ipw, strata for adjusted, monotonicity for the complier estimators,
    init for complier_adjusted); TypeError for an option the estimator does
    not take.  A full-sample failure raises; a replicate failure is counted
    in n_failed and named in failures.
    """
    if n_boot < 100:
        raise ValueError("n_boot must be at least 100")
    if estimator not in _ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    point, rows, failures = _ESTIMATORS[estimator](unit_columns(records), n_boot, seed, J,
                                                   **options)
    return Replicates(point, rows, len(failures), seed, failures)


def interval_from_replicates(replicates: Replicates, estimand: str = "tau",
                             lower: str = "bound", level: float = 0.95,
                             method: str = "percentile") -> IntervalReport:
    """CI for the (lower, upper) pair of estimand from one bootstrap.

    ReplicateFailure if more than 5% of the replicates failed.
    method="percentile" pairs the lower quantile of the bootstrapped lower
    bound with the upper quantile of the bootstrapped upper bound;
    method="normal" widens the point bounds by z * bootstrap standard error.
    The interval is clipped to [0, 1].
    """
    return _intervals(replicates, [(estimand, lower)], level, method)[0]


def _intervals(replicates: Replicates, pairs, level: float, method: str) -> list:
    """The interval_from_replicates of each (estimand, lower) of pairs."""
    columns = [_columns(estimand, lower) for estimand, lower in pairs]
    n_boot, n_failed = replicates.n_boot, replicates.n_failed
    if n_failed > 0.05 * n_boot:
        raise ReplicateFailure(f"{n_failed} of {n_boot} bootstrap replicates failed")
    point, rows = replicates.point, replicates.rows
    if method == "percentile":
        alpha = (1 - level) / 2
        q = np.quantile(rows, [alpha, 1 - alpha], axis=0)
        ends = [(q[0, i], q[1, j]) for i, j in columns]
    elif method == "normal":
        from statistics import NormalDist

        zc = NormalDist().inv_cdf((1 + level) / 2)
        # one std per column: rows.std(axis=0) can differ in the last bit
        ends = [(point[i] - zc * rows[:, i].std(), point[j] + zc * rows[:, j].std())
                for i, j in columns]
    else:
        raise ValueError(f"unknown method {method!r}")
    return [IntervalReport(
        point_lower=float(point[i]), point_upper=float(point[j]),
        ci_low=max(float(lo), 0.0), ci_high=min(float(hi), 1.0),
        level=level, n_boot=n_boot, seed=replicates.seed, n_failed=n_failed,
    ) for (i, j), (lo, hi) in zip(columns, ends)]


def bootstrap_bounds_ci(records, estimator: str = "randomized", estimand: str = "tau",
                        n_boot: int = 1000, level: float = 0.95, seed: int = 0,
                        J: int | None = None, lower: str = "bound",
                        method: str = "percentile", **options) -> IntervalReport:
    """Bootstrap CI for the identified set of tau or eta: one interval of
    bootstrap_replicates (see interval_from_replicates for method).

    lower="independent" replaces the lower bound with the independent-coupling
    value, giving the CI for (tau_I, tau_U) or (eta_I, eta_U).
    """
    _columns(estimand, lower)
    reps = bootstrap_replicates(records, estimator=estimator, n_boot=n_boot, seed=seed,
                                J=J, **options)
    return interval_from_replicates(reps, estimand, lower, level=level, method=method)


def bootstrap_pair_ci_with_independent(records, estimator: str = "randomized",
                                       estimand: str = "tau", n_boot: int = 1000,
                                       level: float = 0.95, seed: int = 0,
                                       J: int | None = None, method: str = "percentile",
                                       **options) -> IntervalReport:
    """CI covering (tau_I, tau_U) or (eta_I, eta_U)."""
    return bootstrap_bounds_ci(records, estimator=estimator, estimand=estimand,
                               n_boot=n_boot, level=level, seed=seed, J=J,
                               lower="independent", method=method, **options)
