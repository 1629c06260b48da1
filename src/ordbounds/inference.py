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

Resampling matches the design: arm-stratified with replacement (arm sizes
preserved) for every estimator but inverse-propensity weighting, which
resamples the whole sample and refits the propensity per replicate.  For the
randomized and complier estimators an arm-stratified resample is a
multinomial redraw of each arm's counts, and all replicates are evaluated as
one stack.  The other estimators refit each replicate; replicate r draws
from a dedicated stream spawned from (seed, r), so serial and parallel
execution give identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import (
    eta_bounds_array,
    independent_eta_array,
    independent_tau_array,
    tau_bounds_array,
)
from .estimation import estimate_adjusted, estimate_ipw, estimate_randomized
from .exceptions import OrdBoundsError, ReplicateFailure
from .noncompliance import (
    _cells,
    _fit_counts,
    complier_bounds,
    complier_mle,
    em_fit_with_covariates,
)

COLUMNS = ("tau_L", "tau_I", "tau_U", "eta_L", "eta_I", "eta_U")


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
    the replicates that raised an OrdBoundsError or did not converge.
    """

    point: np.ndarray
    rows: np.ndarray
    n_failed: int
    seed: int

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


def _kernel_rows(p1, p0):
    """COLUMNS of stacked marginal pairs (k, J) by the array kernels."""
    tl, tu = tau_bounds_array(p1, p0)
    el, eu = eta_bounds_array(p1, p0)
    return np.stack([tl, independent_tau_array(p1, p0), tu,
                     el, independent_eta_array(p1, p0), eu], axis=1)


def _randomized(records, n_boot, seed, J):
    """Resampling units within arms is a multinomial redraw of the
    within-arm counts."""
    point = _report_row(estimate_randomized(records, J=J).report)
    y1 = np.array([r.y for r in records if r.z == 1])
    y0 = np.array([r.y for r in records if r.z == 0])
    if J is None:
        J = int(max(y1.max(), y0.max())) + 1
    n1, n0 = len(y1), len(y0)
    f1 = np.bincount(y1, minlength=J) / n1
    f0 = np.bincount(y0, minlength=J) / n0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    p1 = rng.multinomial(n1, f1, size=n_boot) / n1
    p0 = rng.multinomial(n0, f0, size=n_boot) / n0
    return point, _kernel_rows(p1, p0), 0


def _complier(records, n_boot, seed, J, monotonicity):
    """Complier bootstrap on (z, d, y) cell counts: arm-stratified unit
    resampling is a multinomial redraw of each arm's cell counts.  One
    full-sample fit gives the point row and the EM warm start of the
    boundary replicates; all replicates go through complier_mle at once."""
    if J is None:
        J = max(r.y for r in records) + 1
    counts = _cells(records, J)
    fit, _ = _fit_counts(counts, monotonicity)
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
    return point, _kernel_rows(boot.c1[ok], boot.c0[ok]), int(n_boot - ok.sum())


def _report_fn(estimator, J, options):
    """records -> BoundsReport of the estimators refitted per replicate."""
    if estimator == "ipw":
        def fn(records):
            return estimate_ipw(records, propensity=options.get("propensity"), J=J,
                                trim=options.get("trim", 0.01)).report
    elif estimator == "adjusted":
        def fn(records):
            return estimate_adjusted(records, strata=options.get("strata", "discrete"), J=J).report
    elif estimator == "complier_adjusted":
        def fn(records):
            fit = em_fit_with_covariates(
                records, monotonicity=options.get("monotonicity", "standard"),
                init=options.get("init"), J=J,
            )
            return fit.complier_report(np.array([np.atleast_1d(r.x) for r in records], dtype=float))
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return fn


def _resampler(records, scheme):
    """rng -> resample indices, whole-sample or within each arm."""
    n = len(records)
    if scheme == "whole":
        return lambda rng: rng.integers(0, n, size=n)
    z = np.array([r.z for r in records])
    arms = (np.flatnonzero(z == 1), np.flatnonzero(z == 0))
    return lambda rng: np.concatenate([arm[rng.integers(0, len(arm), size=len(arm))]
                                       for arm in arms])


def _refitted(records, estimator, n_boot, seed, J, options):
    report_fn = _report_fn(estimator, J, options)
    point = _report_row(report_fn(records))
    draw = _resampler(records, "whole" if estimator == "ipw" else "stratified")
    rows = []
    for ss in np.random.SeedSequence(seed).spawn(n_boot):
        sample = [records[i] for i in draw(np.random.default_rng(ss))]
        try:
            rows.append(_report_row(report_fn(sample)))
        except OrdBoundsError:
            continue
    return point, np.array(rows).reshape(-1, len(COLUMNS)), n_boot - len(rows)


def bootstrap_replicates(records, estimator: str = "randomized", n_boot: int = 1000,
                         seed: int = 0, J: int | None = None, **options) -> Replicates:
    """Bootstrap the rows (tau_L, tau_I, tau_U, eta_L, eta_I, eta_U) of an
    estimator once; every interval of the data set is built from the result
    by interval_from_replicates.

    estimator is "randomized", "ipw", "adjusted", "complier" or
    "complier_adjusted"; options go to the estimator (propensity and trim
    for ipw, strata for adjusted, monotonicity for the complier estimators,
    init for complier_adjusted).  A full-sample failure raises; a replicate
    failure is counted in n_failed.
    """
    if n_boot < 100:
        raise ValueError("n_boot must be at least 100")
    if estimator == "randomized":
        point, rows, n_failed = _randomized(records, n_boot, seed, J)
    elif estimator == "complier":
        point, rows, n_failed = _complier(records, n_boot, seed, J,
                                          options.get("monotonicity", "standard"))
    else:
        point, rows, n_failed = _refitted(records, estimator, n_boot, seed, J, options)
    return Replicates(point, rows, n_failed, seed)


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
    i, j = _columns(estimand, lower)
    n_boot, n_failed = replicates.n_boot, replicates.n_failed
    if n_failed > 0.05 * n_boot:
        raise ReplicateFailure(f"{n_failed} of {n_boot} bootstrap replicates failed")
    point = replicates.point[[i, j]]
    lows, highs = replicates.rows[:, i], replicates.rows[:, j]
    if method == "percentile":
        alpha = (1 - level) / 2
        lo = float(np.quantile(lows, alpha))
        hi = float(np.quantile(highs, 1 - alpha))
    elif method == "normal":
        from statistics import NormalDist

        zc = NormalDist().inv_cdf((1 + level) / 2)
        lo = float(point[0] - zc * lows.std())
        hi = float(point[1] + zc * highs.std())
    else:
        raise ValueError(f"unknown method {method!r}")
    return IntervalReport(
        point_lower=float(point[0]), point_upper=float(point[1]),
        ci_low=max(lo, 0.0), ci_high=min(hi, 1.0),
        level=level, n_boot=n_boot, seed=replicates.seed, n_failed=n_failed,
    )


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
