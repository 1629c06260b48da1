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

Each estimator is a (fit, replicates) pair of _ESTIMATORS on UnitColumns: fit
is its public full-sample estimator, and replicates, whose resamples index
the units, take the number of categories J from fit's result, which the CLI
passes on, and all but the randomized one their point row too.  Only the
fits decide J.

Resampling matches the design: arm-stratified with replacement (arm sizes
preserved) for every estimator but inverse-propensity weighting, which
resamples the whole sample and refits the propensity per replicate.  For the
randomized and complier estimators an arm-stratified resample is a
multinomial redraw of each arm's counts, and all replicates are evaluated as
one stack.  The randomized stack (_randomized_stack) takes many data sets at
once, as Monte Carlo study 1 runs it; one data set is its one-row case.  The
ipw and adjusted estimators draw replicate r's unit indices from a dedicated
stream spawned from (seed, r), turn each resample into a row of unit counts
and run all rows through the stacked kernel that estimation owns; their
public estimators are that kernel's one-row case.
_stacked averages the kernel's bounds with one einsum and names each
failure.  Only complier_adjusted still refits each replicate in a loop (one
covariate EM per replicate, on the indexed columns).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import COLUMNS, bound_rows
from .distributions import _arm_counts, _take, unit_columns
from .estimation import (
    _discrete_kernel,
    _ipw_kernel,
    _model_kernel,
    _sums_by_label,
    estimate_adjusted,
    estimate_ipw,
    estimate_randomized,
)
from .exceptions import OrdBoundsError, ReplicateFailure
from .noncompliance import (
    _checked_cells,
    _strata_params,
    complier_bounds,
    complier_mle,
    em_fit,
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


def _columns(pairs, level, method):
    """Column indices of the (lower, upper) pair of each (estimand, lower) of
    pairs, after the checks of every argument of their intervals."""
    if not 0 < level < 1:
        raise ValueError(f"level must be strictly between 0 and 1, got {level}")
    if method not in ("percentile", "normal"):
        raise ValueError(f"unknown method {method!r}")
    columns = []
    for estimand, lower in pairs:
        if estimand not in ("tau", "eta"):
            raise ValueError(f"unknown estimand {estimand!r}")
        if lower not in ("bound", "independent"):
            raise ValueError(f"unknown lower {lower!r}")
        upper = 2 if estimand == "tau" else 5
        columns.append((upper - (1 if lower == "independent" else 2), upper))
    return columns


def _report_row(report):
    return np.array([float(getattr(report, c)) for c in COLUMNS])


def _arm_redraws(counts, n_boot, seed):
    """Arm-stratified unit resampling: an (n_boot, 2, ...) stack of multinomial
    redraws of the arm counts (2, ...), from one stream, treated arm first."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n1, n0 = counts[1].sum(), counts[0].sum()
    draws1 = rng.multinomial(int(n1), counts[1].ravel() / n1, size=n_boot)
    draws0 = rng.multinomial(int(n0), counts[0].ravel() / n0, size=n_boot)
    return np.stack([draws0, draws1], axis=1).reshape(n_boot, *counts.shape)


# elements of one block of a stacked bootstrap: (replicates x units x
# categories), or (data sets x replicates x arms x categories) of redraws
_BLOCK = 2 ** 20


def _randomized_stack(counts, n_boot, seeds):
    """The randomized bootstrap of R data sets at once, from their within-arm
    outcome counts (R, 2, J): yields one Replicates per data set, in order.
    Data set r's point row is the bounds of its arm frequencies and its rows
    those of the _arm_redraws of counts[r] from seeds[r].  The data sets go
    in blocks of as many as fit in _BLOCK elements (at least one), and one
    bound_rows takes each block's point rows and redraws; a block is yielded
    before the next is drawn."""
    R, _, J = counts.shape
    per_block = max(1, _BLOCK // ((n_boot + 1) * 2 * J))
    for start in range(0, R, per_block):
        block = range(start, min(start + per_block, R))
        # per data set: row 0 its arm frequencies, rows 1..n_boot its redraws
        p = np.empty((len(block), n_boot + 1, 2, J))
        for i, r in enumerate(block):
            n = counts[r].sum(axis=1, keepdims=True)
            np.divide(counts[r], n, out=p[i, 0])
            np.divide(_arm_redraws(counts[r], n_boot, seeds[r]), n, out=p[i, 1:])
        rows = bound_rows(p[:, :, 1], p[:, :, 0])
        for i, r in enumerate(block):
            yield Replicates(rows[i, 0], rows[i, 1:], 0, seeds[r])


def _randomized(cols, est, n_boot, seed):
    """Within-arm outcome counts, redrawn: the one-data-set case of
    _randomized_stack."""
    (reps,) = _randomized_stack(_arm_counts(cols, len(est.report.deltas.deltas))[None],
                                n_boot, [seed])
    return reps.point, reps.rows, ()


def _complier(cols, mle, n_boot, seed, monotonicity="standard"):
    """Complier bootstrap on (z, d, y) cell counts, redrawn.  The full-sample
    StrataModel mle gives the point row and the EM warm start of the boundary
    replicates; all replicates go through complier_mle at once."""
    point = _report_row(complier_bounds(mle).complier)
    stack = _arm_redraws(_checked_cells(cols, monotonicity, mle.J), n_boot, seed).astype(float)
    boot = complier_mle(stack, init=_strata_params(mle))
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


def _stacked(cols, scheme, n_boot, seed, J, kernel):
    """Rows and failures of every replicate: the kernel's weighted marginal
    stacks of the resample counts, in blocks of replicates that bound
    memory, each evaluated by one bound_rows."""
    n = len(cols.z)
    idx = _index_stack(cols, scheme, n_boot, seed)
    rows, why = [], []
    for b in np.array_split(idx, -(-n_boot * n * J // _BLOCK)):
        w, p1, p0, why_b = kernel(_sums_by_label(np.ones(b.shape), b, n))
        rows.append(np.einsum("km,kmi->ki", w, bound_rows(p1, p0)))
        why.extend(why_b)
    return np.concatenate(rows), tuple((i, type(e).__name__) for i, e in enumerate(why)
                                       if e is not None)


def _ipw(cols, est, n_boot, seed, propensity=None, trim=0.01):
    """Inverse-propensity weighting: whole-sample resamples, one stacked
    propensity fit."""
    J = len(est.report.deltas.deltas)
    return (_report_row(est.report),
            *_stacked(cols, "whole", n_boot, seed, J, _ipw_kernel(cols, J, propensity, trim)))


def _adjusted(cols, est, n_boot, seed, strata="discrete"):
    """Covariate adjustment: arm-stratified resamples, stacked per-arm
    fits (strata="model") or per-stratum counts."""
    J = len(est.report.deltas.deltas)
    kernel = (_model_kernel if strata == "model" else _discrete_kernel)(cols, J)
    return _report_row(est.report), *_stacked(cols, "stratified", n_boot, seed, J, kernel)


def _complier_adjusted(cols, fit, n_boot, seed, monotonicity="standard"):
    """The covariate complier estimator refits covariate EM per replicate."""
    point = _report_row(fit.complier_report(cols.x))
    rows, failures = [], []
    for r, idx in enumerate(_index_stack(cols, "stratified", n_boot, seed)):
        sample = _take(cols, idx)
        try:
            refit = em_fit_with_covariates(sample, monotonicity=monotonicity, J=fit.c_treated_model.J)
            rows.append(_report_row(refit.complier_report(sample.x)))
        except OrdBoundsError as e:
            failures.append((r, type(e).__name__))
    return point, np.array(rows).reshape(-1, len(COLUMNS)), tuple(failures)


# estimator -> (fit(UnitColumns, J=J, **options), replicates(UnitColumns, fit
# result, n_boot, seed, **options) -> (point, rows, failures)), J from the fit
_ESTIMATORS = {
    "randomized": (estimate_randomized, _randomized),
    "ipw": (estimate_ipw, _ipw),
    "adjusted": (estimate_adjusted, _adjusted),
    "complier": (em_fit, _complier),
    "complier_adjusted": (em_fit_with_covariates, _complier_adjusted),
}


def _check_n_boot(n_boot):
    """ValueError for fewer than 100 bootstrap replicates."""
    if n_boot < 100:
        raise ValueError("n_boot must be at least 100")


def _estimator(estimator, n_boot, options):
    """The _ESTIMATORS pair of estimator, after the checks of its arguments."""
    _check_n_boot(n_boot)
    if estimator not in _ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    inspect.signature(_ESTIMATORS[estimator][1]).bind(None, None, n_boot, None, **options)
    return _ESTIMATORS[estimator]


def bootstrap_replicates(records, estimator: str = "randomized", n_boot: int = 1000,
                         seed: int = 0, J: int | None = None, **options) -> Replicates:
    """Bootstrap the rows (tau_L, tau_I, tau_U, eta_L, eta_I, eta_U) of an
    estimator once; every interval of the data set is built from the result
    by interval_from_replicates.

    estimator is "randomized", "ipw", "adjusted", "complier" or
    "complier_adjusted"; options go to the estimator (propensity and trim
    for ipw, strata for adjusted, monotonicity for the complier estimators);
    TypeError, before anything is fitted, for an option the estimator does
    not take.  The full sample is fitted once, by the estimator's public
    function; a failure there raises, and a replicate failure is counted in
    n_failed and named in failures.
    """
    fit, replicates = _estimator(estimator, n_boot, options)
    cols = unit_columns(records)
    point, rows, failures = replicates(cols, fit(cols, J=J, **options), n_boot, seed, **options)
    return Replicates(point, rows, len(failures), seed, failures)


def _bootstrap(cols, estimator, fit_result, n_boot, seed, **options) -> Replicates:
    """bootstrap_replicates of UnitColumns from their full-sample fit_result."""
    point, rows, failures = _estimator(estimator, n_boot, options)[1](
        cols, fit_result, n_boot, seed, **options)
    return Replicates(point, rows, len(failures), seed, failures)


def interval_from_replicates(replicates: Replicates, estimand: str = "tau",
                             lower: str = "bound", level: float = 0.95,
                             method: str = "percentile") -> IntervalReport:
    """CI for the (lower, upper) pair of estimand from one bootstrap.

    ReplicateFailure if more than 5% of the replicates failed.
    method="percentile" pairs the lower quantile of the bootstrapped lower
    bound with the upper quantile of the bootstrapped upper bound;
    method="normal" widens the point bounds by z * bootstrap standard error.
    The interval is clipped to [0, 1].  ValueError unless 0 < level < 1, and
    for an unknown estimand, lower or method.
    """
    return _intervals(replicates, [(estimand, lower)], level, method)[0]


def _intervals(replicates: Replicates, pairs, level: float, method: str) -> list:
    """The interval_from_replicates of each (estimand, lower) of pairs."""
    columns = _columns(pairs, level, method)
    n_boot, n_failed = replicates.n_boot, replicates.n_failed
    if n_failed > 0.05 * n_boot:
        raise ReplicateFailure(f"{n_failed} of {n_boot} bootstrap replicates failed")
    point, rows = replicates.point, replicates.rows
    if method == "percentile":
        alpha = (1 - level) / 2
        q = np.quantile(rows, [alpha, 1 - alpha], axis=0)
        ends = [(q[0, i], q[1, j]) for i, j in columns]
    else:
        from statistics import NormalDist

        zc = NormalDist().inv_cdf((1 + level) / 2)
        # one std per column: rows.std(axis=0) can differ in the last bit
        ends = [(point[i] - zc * rows[:, i].std(), point[j] + zc * rows[:, j].std())
                for i, j in columns]
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
    value, giving the CI for (tau_I, tau_U) or (eta_I, eta_U).  estimand,
    lower, level and method are checked before anything is fitted.
    """
    _columns([(estimand, lower)], level, method)
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
