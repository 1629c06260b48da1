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

The ipw and adjusted estimators are each one stacked kernel, owned here: on
weight rows W (k, n) over the units it returns the weights w (k', m) and
marginal pairs p1, p0 (k', m, J) of the k' rows that succeeded, and why,
each failed row's exception.  A row's bounds average those of its m pairs
(m = 1 for ipw, S for discrete strata, n for model strata) with weights w.
The public estimators run the kernel on one all-ones row and raise its
exception; the bootstrap (inference) runs it on the resample counts.
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
    empirical_marginals,
    unit_columns,
)
from .exceptions import (
    DimensionMismatch,
    EmptyArm,
    ExtremePropensity,
    RankDeficient,
    StratumMissingArm,
    TooFewCategories,
    ValidationError,
)
from .models import (
    _as_design,
    _sigmoid,
    cumulative_logit_proba,
    fit_cumulative_logit_rows,
    fit_logit_rows,
)


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
    logistic model of z on x.  J is UnitColumns.categories, which raises
    OutOfRangeOutcome for an outcome at or above J.
    """
    cols = unit_columns(records)
    J = cols.categories(J)
    kernel = _ipw_kernel(cols, J, propensity, trim)
    _, p1, p0 = _full_sample(kernel, len(cols.z))
    return MarginalPair(MarginalDistribution(tuple(p1[0])), MarginalDistribution(tuple(p0[0])))


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
    z = cols.z
    if z.all() or not z.any():
        raise EmptyArm("both arms required")
    if strata == "discrete":
        kernel = _discrete_kernel(cols, cols.categories(J))
    elif strata == "model":
        # the fits keep outcomes above a given J: J widens to the observed top
        kernel = _model_kernel(cols, cols.categories(max(J or 0, cols.J)))
    else:
        raise ValueError(f"unknown strata mode {strata!r}")
    return _estimated(weighted_report(*_full_sample(kernel, len(z))), "adjusted", z)


def _strata(x):
    """Each unit's stratum index and the discrete strata: the distinct rows
    of x (n, p) as tuples of plain values, sorted by their text."""
    rows = [tuple(r) for r in x.tolist()]
    keys = sorted(set(rows), key=str)
    at = {k: i for i, k in enumerate(keys)}
    return np.array([at[r] for r in rows], dtype=np.int64), keys


# -- stacked kernels ---------------------------------------------------------

def _full_sample(kernel, n):
    """The weights (m,) and marginal pairs (m, J) of the full sample: the
    kernel on one all-ones weight row.  Its failure raises."""
    w, p1, p0, why = kernel(np.ones((1, n)))
    if why[0] is not None:
        raise why[0]
    return w[0], p1[0], p0[0]


def _sums_by_label(w, labels, m):
    """(k, m) sums of the weight rows w (k, n) over units with each label
    0..m-1."""
    k = len(w)
    at = (labels + m * np.arange(k)[:, None]).ravel()
    return np.bincount(at, weights=w.ravel(), minlength=k * m).reshape(k, m)


def _drop(why, live, failed, error):
    """Record error(i) as the failure of the row live[i] for each i with
    failed[i]; return the rows still live."""
    for i in np.flatnonzero(failed):
        why[live[i]] = error(i)
    return live[~failed]


def _weighted_rank(M, W):
    """Rank of the resampled design: M with each unit repeated W[k] times
    has the singular values of sqrt(W[k]) M."""
    return np.linalg.matrix_rank(np.sqrt(W)[:, :, None] * M)


def _rank_deficient(i):
    return RankDeficient("design matrix is rank deficient")


def _ipw_kernel(cols, J, propensity=None, trim=0.01):
    """The stacked kernel of the inverse-propensity estimator: one stacked
    propensity logit, or the given propensity (a scalar or a finite value
    per unit, checked here, before any fit), the trim check on the weighted
    units and Hajek marginals (m = 1) of the outcomes, every one below J."""
    z, y = cols.z, cols.y
    n = len(z)
    if propensity is not None:
        given = np.asarray(propensity, dtype=float)
        if given.shape not in ((), (n,)):
            raise DimensionMismatch(f"propensity of shape {given.shape} for {n} units")
        if not np.isfinite(given).all():
            raise ValidationError(
                f"propensity must be finite, got {given[~np.isfinite(given)][0]}")

    def kernel(W):
        why = np.full(len(W), None, dtype=object)
        live = np.arange(len(W))
        n1 = W @ z
        live = _drop(why, live, (n1 == 0) | (n1 == n), lambda i: EmptyArm("both arms required"))
        if propensity is None:
            M = np.hstack([np.ones((n, 1)), _as_design(cols.x, n)])
            live = _drop(why, live, _weighted_rank(M, W[live]) < M.shape[1], _rank_deficient)
            coef, error = fit_logit_rows(z, M, W[live])
            ok = np.equal(error, None)
            live = _drop(why, live, ~ok, error.__getitem__)
            e = _sigmoid(coef[ok] @ M.T)
        else:
            e = np.broadcast_to(given, (len(live), n))
        Wl = W[live]
        outside = ((e < trim) | (e > 1 - trim)) & (Wl > 0)
        extreme = outside.any(axis=1)
        live = _drop(why, live, extreme,
                     lambda i: ExtremePropensity(np.flatnonzero(outside[i]).tolist()))
        e, Wl = e[~extreme], Wl[~extreme]
        # units outside the resample may have e at 0 or 1
        w1 = np.divide(Wl * z, e, out=np.zeros_like(Wl), where=Wl > 0)
        w0 = np.divide(Wl * (1 - z), 1 - e, out=np.zeros_like(Wl), where=Wl > 0)
        p1, p0 = (_sums_by_label(w, y, J)[:, None] for w in (w1, w0))
        return (np.ones((len(live), 1)), p1 / p1.sum(axis=2, keepdims=True),
                p0 / p0.sum(axis=2, keepdims=True), why)

    return kernel


def _model_kernel(cols, J):
    """The stacked kernel of the adjusted estimator with per-arm
    proportional-odds fits, evaluated at every unit (m = n, weights W / n).
    A fit infers its J from the top category its arm observed, so the rows
    of each arm are fitted in groups of equal J; cutpoints above a group's
    top are +inf (probability 0)."""
    z, y = cols.z, cols.y
    n = len(z)
    X = _as_design(cols.x, n)
    d = X.shape[1]
    arms = (np.flatnonzero(z == 1), np.flatnonzero(z == 0))

    def kernel(W):
        why = np.full(len(W), None, dtype=object)
        live = np.arange(len(W))
        cut = np.full((2, len(W), J - 1), np.inf)
        slope = np.zeros((2, len(W), d))
        for arm, units in enumerate(arms):
            ya, Xa = y[units], X[units]
            Wa = W[live][:, units]
            few = (_sums_by_label(Wa, ya, J) > 0).sum(axis=1) < 2
            live = _drop(why, live, few,
                         lambda i: TooFewCategories("need at least 2 observed outcome categories"))
            Wa = Wa[~few]
            if d:
                low = _weighted_rank(Xa, Wa) < d
                live = _drop(why, live, low, _rank_deficient)
                Wa = Wa[~low]
            Ja = np.where(Wa > 0, ya, -1).max(axis=1, initial=-1) + 1
            error = np.full(len(live), None, dtype=object)
            for Jg in np.unique(Ja):
                g = np.flatnonzero(Ja == Jg)
                c, s, error[g] = fit_cumulative_logit_rows(np.minimum(ya, Jg - 1), Xa, Wa[g], Jg)
                cut[arm, live[g], : Jg - 1] = c
                slope[arm, live[g]] = s
            live = _drop(why, live, ~np.equal(error, None), error.__getitem__)
        p1 = cumulative_logit_proba(cut[0, live], slope[0, live], X)
        p0 = cumulative_logit_proba(cut[1, live], slope[1, live], X)
        return W[live] / n, p1, p0, why

    return kernel


def _discrete_kernel(cols, J):
    """The stacked kernel of the adjusted estimator with discrete strata
    (m = S, weighted by stratum size): per-stratum, per-arm outcome counts
    by one bincount.  Every y must be below J."""
    s, keys = _strata(cols.x)
    S, n = len(keys), len(s)
    cells = (2 * s + cols.z) * J + cols.y

    def kernel(W):
        why = np.full(len(W), None, dtype=object)
        counts = _sums_by_label(W, cells, S * 2 * J).reshape(len(W), S, 2, J)
        size = counts.sum(axis=3)                                     # (k, S, 2)
        missing = (size.sum(axis=2) > 0) & (size == 0).any(axis=2)   # (k, S)
        live = _drop(why, np.arange(len(W)), missing.any(axis=1),
                     lambda i: StratumMissingArm(f"stratum {keys[missing[i].argmax()]!r} "
                                                 "lacks one arm"))
        freq = counts[live] / np.maximum(size[live], 1)[..., None]
        return size[live].sum(axis=2) / n, freq[:, :, 1], freq[:, :, 0], why

    return kernel
