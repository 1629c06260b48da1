"""Closed-form sharp bounds on tau = pr{Y(1) >= Y(0)} and eta = pr{Y(1) > Y(0)}.

The bounds are functions of the marginal distributions only:

    tau_L = max_j (p0[j] + delta_j)        tau_U = 1 + min_j delta_j
    eta_L = max_j delta_j                  eta_U = 1 + min_j (delta_j - p1[j])

where delta_j = pr{Y(1) >= j} - pr{Y(0) >= j}, together with the values under
independent potential outcomes, tau_I = sum_k p1[k] F0[k] and
eta_I = sum_k p1[k] (F0[k] - p0[k]), F0 the control CDF.

One kernel, bound_rows, computes these six numbers (columns COLUMNS) for
stacked marginal pairs of shape (..., J); exact marginals (Fraction or int)
go through it as object arrays and come back exact.  One function,
weighted_report, makes every BoundsReport: a weighted average of kernel rows
(covariate strata or model rows; one row of weight 1 in full_report) plus the
deltas, dominance and construction indices of the pooled marginals.  It flags
point identification by the bound gap, U - L <= 0 exact and <= 1e-12 float.
point_identified is the theorem's support-set criterion, kept as the oracle
that tests check the gap rule against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DeltaVector, MarginalPair

COLUMNS = ("tau_L", "tau_I", "tau_U", "eta_L", "eta_I", "eta_U")


@dataclass(frozen=True)
class BoundsReport:
    deltas: DeltaVector
    tau_L: object
    tau_I: object
    tau_U: object
    eta_L: object
    eta_I: object
    eta_U: object
    dominance: bool
    tau_point_identified: bool
    eta_point_identified: bool
    argmin_delta_index: int   # j1 of the upper-bound construction
    argmax_lower_index: int   # j2 of the lower-bound construction


def _deltas(p1, p0):
    """Deltas of stacked marginals (..., J) from upper-tail sums; delta_0 is
    0 (int in exact mode) since both full tail sums are the total mass."""
    d = np.cumsum(p1[..., ::-1], axis=-1)[..., ::-1]
    d -= np.cumsum(p0[..., ::-1], axis=-1)[..., ::-1]
    d[..., 0] = 0
    return d


def bound_rows(p1, p0) -> np.ndarray:
    """Rows (..., 6) in the order COLUMNS of stacked marginal pairs (..., J)."""
    p1, p0 = np.asarray(p1), np.asarray(p0)
    dtype = np.result_type(p1, p0)
    p1, p0 = p1.astype(dtype, copy=False), p0.astype(dtype, copy=False)
    # filled column by column, with d and F0 never alive together, so a large
    # stack needs about one (..., J) temporary beyond its inputs
    d = _deltas(p1, p0)
    rows = np.empty(d.shape[:-1] + (len(COLUMNS),), dtype=dtype)
    rows[..., 0] = (p0 + d).max(axis=-1)
    rows[..., 2] = 1 + d.min(axis=-1)
    rows[..., 3] = d.max(axis=-1)
    d -= p1
    rows[..., 5] = 1 + d.min(axis=-1)
    del d
    F0 = np.cumsum(p0, axis=-1)
    rows[..., 1] = (p1 * F0).sum(axis=-1)
    F0 -= p0
    rows[..., 4] = (p1 * F0).sum(axis=-1)
    return _clipped(rows)


def _clipped(rows):
    """Float rows (..., 6) clipped into [0, 1], each lower bound capped at
    its upper bound, in place: rounding can push them out or across.  Exact
    rows are returned untouched."""
    if rows.dtype.kind == "f":
        np.clip(rows, 0.0, 1.0, out=rows)
        np.minimum(rows[..., 0::3], rows[..., 2::3], out=rows[..., 0::3])
    return rows


def construction_indices(p0, deltas):
    """(j1, j2): the first index of the smallest delta (where the tau-upper
    construction splits) and the first index of the largest p0[j] + delta_j
    (where the tau-lower construction splits)."""
    d = list(deltas)
    lower = [p + dj for p, dj in zip(p0, d)]
    return d.index(min(d)), lower.index(max(lower))


def weighted_report(w, p1, p0) -> BoundsReport:
    """Bounds averaged over stacked marginal pairs p1, p0 (n, J) with weights
    w (n,) summing to 1.  The deltas, dominance and construction indices
    describe the pooled marginals w @ p1 and w @ p0.  All three arrays are
    float, or all are object arrays of exact numbers for an exact report."""
    tau_l, tau_i, tau_u, eta_l, eta_i, eta_u = _clipped(w @ bound_rows(p1, p0)).tolist()
    pooled0 = w @ p0
    d = _deltas(w @ p1, pooled0)
    tol = 0 if d.dtype == object else 1e-12
    d = d.tolist()
    j1, j2 = construction_indices(pooled0.tolist(), d)
    return BoundsReport(
        deltas=DeltaVector(d),
        tau_L=tau_l, tau_I=tau_i, tau_U=tau_u,
        eta_L=eta_l, eta_I=eta_i, eta_U=eta_u,
        dominance=all(dj >= -tol for dj in d),
        tau_point_identified=tau_u - tau_l <= tol,
        eta_point_identified=eta_u - eta_l <= tol,
        argmin_delta_index=j1,
        argmax_lower_index=j2,
    )


def _arrays(m: MarginalPair):
    """(p1, p0) of a pair as arrays: object dtype for exact marginals."""
    dtype = object if m.exact else float
    return np.array(m.treated.probs, dtype=dtype), np.array(m.control.probs, dtype=dtype)


def tau_bounds(m: MarginalPair):
    return tuple(bound_rows(*_arrays(m))[[0, 2]].tolist())


def eta_bounds(m: MarginalPair):
    return tuple(bound_rows(*_arrays(m))[[3, 5]].tolist())


def independent_estimands(m: MarginalPair):
    """(tau, eta) under independent potential outcomes."""
    return tuple(bound_rows(*_arrays(m))[[1, 4]].tolist())


def full_report(m: MarginalPair) -> BoundsReport:
    p1, p0 = _arrays(m)
    return weighted_report(np.ones(1, dtype=p1.dtype), p1[None], p0[None])


def _support(probs, tol):
    return [j for j, p in enumerate(probs) if p > tol]


def point_identified(m: MarginalPair, estimand: str = "tau") -> bool:
    """Support-set criterion for the lower and upper bounds to coincide.

    For tau the bounds differ iff some k1,k2 in supp(p1) and l1,l2 in supp(p0)
    satisfy k2 >= l2 > k1 >= l1 or l2 > k2 >= l1 > k1; for eta the two
    patterns have the roles of the k's and l's swapped.
    """
    if estimand not in ("tau", "eta"):
        raise ValueError(f"unknown estimand {estimand!r}")
    tol = 0 if m.exact else 1e-12
    K = _support(m.treated.probs, tol)
    L = _support(m.control.probs, tol)
    for k1 in K:
        for k2 in K:
            for l1 in L:
                for l2 in L:
                    if estimand == "tau":
                        if k2 >= l2 > k1 >= l1 or l2 > k2 >= l1 > k1:
                            return False
                    else:
                        if l2 >= k2 > l1 >= k1 or k2 > l2 >= k1 > l1:
                            return False
    return True
