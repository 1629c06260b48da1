"""Bootstrap confidence intervals for (lower, upper) bound pairs.

The interval is the percentile-pair construction: the (1-level)/2 quantile of
the bootstrapped lower bound paired with the (1+level)/2 quantile of the
bootstrapped upper bound, so the resulting interval is designed to cover the
whole identified set.

Resampling matches the design: arm-stratified with replacement for
randomized-experiment estimators (arm sizes preserved), whole-sample with a
propensity refit per replicate for the inverse-propensity estimator.
Replicate r draws from a dedicated stream spawned from (seed, r), so serial
and parallel execution give identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _pair_from_report(report, estimand, lower: str = "bound"):
    if estimand == "tau":
        lo = report.tau_I if lower == "independent" else report.tau_L
        return lo, report.tau_U
    if estimand == "eta":
        lo = report.eta_I if lower == "independent" else report.eta_L
        return lo, report.eta_U
    raise ValueError(f"unknown estimand {estimand!r}")


def _make_pair_fn(estimator, estimand, J, lower, options):
    """Returns records -> (lower, upper) for the requested estimator."""
    opts = dict(options)

    if estimator == "randomized":
        def fn(records):
            return _pair_from_report(estimate_randomized(records, J=J).report, estimand, lower)
    elif estimator == "ipw":
        def fn(records):
            est = estimate_ipw(records, propensity=opts.get("propensity"), J=J,
                               trim=opts.get("trim", 0.01))
            return _pair_from_report(est.report, estimand, lower)
    elif estimator == "adjusted":
        def fn(records):
            est = estimate_adjusted(records, strata=opts.get("strata", "discrete"), J=J)
            return _pair_from_report(est.report, estimand, lower)
    elif estimator == "complier":
        def fn(records):
            fit = em_fit(records, monotonicity=opts.get("monotonicity", "standard"), J=J)
            rep = complier_bounds(fit).complier
            return _pair_from_report(rep, estimand, lower)
    elif estimator == "complier_adjusted":
        def fn(records):
            fit = em_fit_with_covariates(
                records, monotonicity=opts.get("monotonicity", "standard"),
                init=opts.get("init"), J=J,
            )
            X = np.array([np.atleast_1d(r.x) for r in records], dtype=float)
            rep = fit.complier_report(X)
            return _pair_from_report(rep, estimand, lower)
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return fn


def _resample_indices(rng, records, scheme):
    n = len(records)
    if scheme == "whole":
        return rng.integers(0, n, size=n)
    arm1 = np.nonzero([r.z == 1 for r in records])[0]
    arm0 = np.nonzero([r.z == 0 for r in records])[0]
    return np.concatenate([
        arm1[rng.integers(0, len(arm1), size=len(arm1))],
        arm0[rng.integers(0, len(arm0), size=len(arm0))],
    ])


def _finish(point, lows, highs, n_boot, n_failed, level, seed, method):
    if n_failed > 0.05 * n_boot:
        raise ReplicateFailure(f"{n_failed} of {n_boot} bootstrap replicates failed")
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
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
        level=level, n_boot=n_boot, seed=seed, n_failed=n_failed,
    )


def _fast_randomized(records, estimand, lower, J, n_boot, level, seed, point, method):
    """Vectorized bootstrap for the randomized estimator: resampling units
    within arms is a multinomial redraw of the within-arm counts."""
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
    if estimand == "tau":
        tl, tu = tau_bounds_array(p1, p0)
        lows = independent_tau_array(p1, p0) if lower == "independent" else tl
        highs = tu
    else:
        el, eu = eta_bounds_array(p1, p0)
        lows = independent_eta_array(p1, p0) if lower == "independent" else el
        highs = eu
    return _finish(point, lows, highs, n_boot, 0, level, seed, method)


def _fast_complier(records, estimand, J, n_boot, level, seed, method, options):
    """Complier bootstrap on (d, y) cell counts: arm-stratified unit
    resampling equals a multinomial redraw of each arm's cell counts.  One
    full-sample fit gives the point bounds and the EM warm start of the
    boundary replicates; all replicates go through complier_mle at once."""
    if J is None:
        J = max(r.y for r in records) + 1
    counts = _cells(records, J)
    fit, _ = _fit_counts(counts, options.get("monotonicity", "standard"))
    point = _pair_from_report(complier_bounds(fit).complier, estimand)
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
    bounds = tau_bounds_array if estimand == "tau" else eta_bounds_array
    lows, highs = bounds(boot.c1[ok], boot.c0[ok])
    return _finish(point, lows, highs, n_boot, int(n_boot - ok.sum()), level, seed, method)


def bootstrap_bounds_ci(records, estimator: str = "randomized", estimand: str = "tau",
                        n_boot: int = 1000, level: float = 0.95, seed: int = 0,
                        J: int | None = None, lower: str = "bound",
                        method: str = "percentile", **options) -> IntervalReport:
    """Bootstrap CI for the identified set of tau or eta.

    method="percentile" pairs the lower quantile of the bootstrapped lower
    bound with the upper quantile of the bootstrapped upper bound;
    method="normal" widens the point bounds by z * bootstrap standard error.

    lower="independent" replaces the lower bound with the independent-coupling
    value, giving the CI for (tau_I, tau_U) or (eta_I, eta_U).
    """
    if n_boot < 100:
        raise ValueError("n_boot must be at least 100")
    if estimand not in ("tau", "eta"):
        raise ValueError(f"unknown estimand {estimand!r}")
    if estimator == "complier" and lower == "bound":
        return _fast_complier(records, estimand, J, n_boot, level, seed, method, options)
    pair_fn = _make_pair_fn(estimator, estimand, J, lower, options)
    point = pair_fn(records)

    if estimator == "randomized":
        return _fast_randomized(records, estimand, lower, J, n_boot, level, seed, point, method)

    scheme = "whole" if estimator == "ipw" else "stratified"
    streams = np.random.SeedSequence(seed).spawn(n_boot)
    lows, highs = [], []
    n_failed = 0
    for ss in streams:
        rng = np.random.default_rng(ss)
        idx = _resample_indices(rng, records, scheme)
        sample = [records[i] for i in idx]
        try:
            lo, hi = pair_fn(sample)
        except OrdBoundsError:
            n_failed += 1
            continue
        lows.append(lo)
        highs.append(hi)
    return _finish(point, lows, highs, n_boot, n_failed, level, seed, method)


def bootstrap_pair_ci_with_independent(records, estimator: str = "randomized",
                                       estimand: str = "tau", n_boot: int = 1000,
                                       level: float = 0.95, seed: int = 0,
                                       J: int | None = None, method: str = "percentile",
                                       **options) -> IntervalReport:
    """CI covering (tau_I, tau_U) or (eta_I, eta_U)."""
    return bootstrap_bounds_ci(records, estimator=estimator, estimand=estimand,
                               n_boot=n_boot, level=level, seed=seed, J=J,
                               lower="independent", method=method, **options)
