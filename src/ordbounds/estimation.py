"""Point estimation of the sharp bounds from unit-level data.

Three designs:

* randomized -- within-arm relative frequencies plugged into the closed
  forms;
* ipw -- unconfounded observational studies; marginals estimated by
  normalized (Hajek) inverse-propensity weighting so they are always valid
  distributions;
* adjusted -- covariate-adjusted bounds: conditional bounds computed per
  covariate level (discrete strata or per-arm proportional-odds fits) and
  averaged over the empirical covariate distribution of all units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import BoundsReport, full_report, weighted_report
from .distributions import (
    MarginalDistribution,
    MarginalPair,
    _is_exact,
    _take,
    empirical_marginals,
    unit_columns,
)
from .exceptions import EmptyArm, ExtremePropensity, StratumMissingArm
from .models import CumulativeLogitModel, fit_cumulative_logit, fit_logit


@dataclass(frozen=True)
class UnitRecord:
    """One experimental unit.

    z: treatment assignment (0/1); y: ordinal outcome in 0..J-1;
    d: treatment received (0/1), present for all units or none;
    x: covariate vector (tuple), optional.
    """

    z: int
    y: int
    d: int | None = None
    x: tuple | None = None


@dataclass(frozen=True)
class EstimatedBounds:
    report: BoundsReport
    design: str
    n_treated: int
    n_control: int


def adjusted_bounds_from_strata(strata) -> BoundsReport:
    """Population-level adjusted bounds from (weight, MarginalPair) strata.

    Exact when weights and marginals are Fractions.
    """
    weights = [w for w, _ in strata]
    pairs = [p for _, p in strata]
    total = sum(weights)
    if not (abs(total - 1) <= 1e-9):
        raise ValueError(f"stratum weights sum to {total}")
    dtype = object if _is_exact(weights) and all(p.exact for p in pairs) else float
    return weighted_report(np.array(weights, dtype=dtype),
                           np.array([p.treated.probs for p in pairs], dtype=dtype),
                           np.array([p.control.probs for p in pairs], dtype=dtype))


def _estimated(report, design, z) -> EstimatedBounds:
    n1 = int(z.sum())
    return EstimatedBounds(report, design, n1, len(z) - n1)


def estimate_randomized(records: Sequence[UnitRecord], J: int | None = None) -> EstimatedBounds:
    """Sample-analogue bounds for a completely randomized experiment."""
    cols = unit_columns(records)
    return _estimated(full_report(empirical_marginals(cols, J=J)), "randomized", cols.z)


def ipw_marginals(records, propensity=None, J: int | None = None, trim: float = 0.01) -> MarginalPair:
    """Hajek-weighted marginal estimates under unconfoundedness.

    propensity: a float (known constant), a per-unit array, or None to fit a
    logistic model of z on x.
    """
    cols = unit_columns(records)
    z, y = cols.z, cols.y
    J = cols.J if J is None else J
    if z.sum() == 0 or z.sum() == len(z):
        raise EmptyArm("both arms required")
    if propensity is None:
        e = fit_logit(z, cols.x).predict_proba(cols.x)
    elif np.isscalar(propensity):
        e = np.full(len(z), float(propensity))
    else:
        e = np.asarray(propensity, dtype=float)
    bad = np.nonzero((e < trim) | (e > 1 - trim))[0]
    if bad.size:
        raise ExtremePropensity(bad.tolist())
    w1 = z / e
    w0 = (1 - z) / (1 - e)
    p1 = np.array([w1[y == k].sum() for k in range(J)])
    p0 = np.array([w0[y == l].sum() for l in range(J)])
    return MarginalPair(
        MarginalDistribution(tuple(p1 / p1.sum())),
        MarginalDistribution(tuple(p0 / p0.sum())),
    )


def estimate_ipw(records: Sequence[UnitRecord], propensity=None, J: int | None = None,
                 trim: float = 0.01) -> EstimatedBounds:
    cols = unit_columns(records)
    m = ipw_marginals(cols, propensity=propensity, J=J, trim=trim)
    return _estimated(full_report(m), "ipw", cols.z)


def estimate_adjusted(records: Sequence[UnitRecord], strata: str = "discrete",
                      J: int | None = None) -> EstimatedBounds:
    """Covariate-adjusted bounds.

    strata="discrete": each distinct x is a stratum; every stratum must
    contain both arms; conditional bounds are weighted by stratum size.

    strata="model": per-arm proportional-odds fits on x; conditional bounds
    are averaged over all N units' covariates.
    """
    cols = unit_columns(records)
    z, y, X = cols.z, cols.y, cols.x
    if z.all() or not z.any():
        raise EmptyArm("both arms required")
    J = cols.J if J is None else J

    if strata == "discrete":
        s, keys = _strata(X)
        weighted = []
        for k, key in enumerate(keys):
            members = s == k
            try:
                weighted.append((np.count_nonzero(members) / len(s),
                                 empirical_marginals(_take(cols, members), J=J)))
            except EmptyArm:
                raise StratumMissingArm(f"stratum {key!r} lacks one arm") from None
        report = adjusted_bounds_from_strata(weighted)
    elif strata == "model":
        fit1 = fit_cumulative_logit(y[z == 1], X[z == 1])
        fit0 = fit_cumulative_logit(y[z == 0], X[z == 0])
        report = conditional_report_from_models(fit1, fit0, X, J=J)
    else:
        raise ValueError(f"unknown strata mode {strata!r}")
    return _estimated(report, "adjusted", z)


def _strata(x):
    """Each unit's stratum index and the discrete strata: the distinct rows
    of x (n, p) as tuples of plain values, sorted by their text."""
    rows = [tuple(r) for r in x.tolist()]
    keys = sorted(set(rows), key=str)
    at = {k: i for i, k in enumerate(keys)}
    return np.array([at[r] for r in rows], dtype=np.int64), keys


def conditional_report_from_models(fit1: CumulativeLogitModel, fit0: CumulativeLogitModel,
                                   X: np.ndarray, J: int | None = None,
                                   weights=None) -> BoundsReport:
    """Adjusted bounds from per-arm outcome models evaluated at rows of X."""
    p1 = fit1.predict_proba(X)
    p0 = fit0.predict_proba(X)
    Jm = max(p1.shape[1], p0.shape[1], J or 0)
    if weights is None:
        w = np.full(len(p1), 1.0 / len(p1))
    else:
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
    return weighted_report(w, _pad(p1, Jm), _pad(p0, Jm))


def _pad(p: np.ndarray, J: int) -> np.ndarray:
    if p.shape[1] == J:
        return p
    out = np.zeros((p.shape[0], J))
    out[:, : p.shape[1]] = p
    return out
