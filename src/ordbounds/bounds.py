"""Closed-form sharp bounds on tau = pr{Y(1) >= Y(0)} and eta = pr{Y(1) > Y(0)}.

The bounds are functions of the marginal distributions only:

    tau_L = max_j (p0[j] + delta_j)        tau_U = 1 + min_j delta_j
    eta_L = max_j delta_j                  eta_U = 1 + min_j (delta_j - p1[j])

where delta_j = pr{Y(1) >= j} - pr{Y(0) >= j}, together with the values under
independent potential outcomes, tau_I = sum_k p1[k] F0[k] and
eta_I = sum_k p1[k] (F0[k] - p0[k]), F0 the control CDF.

One kernel, _rows behind bound_rows, computes these six numbers (columns
COLUMNS) for stacked marginal pairs of shape (..., J).  It copies J to a
leading axis once and does every cumulative sum and reduction over that
axis, in whole-array steps over the stack (numpy is slow at reducing a
trailing axis of a few entries); for J <= 7 its rows equal, bit for bit,
those of reductions over the trailing axis.  Exact marginals
(object arrays of Fractions or ints) go through the same kernel as Python-int
numerators over one common denominator D, with 1 written as D: the deltas and
the four bound columns come out over D, tau_I and eta_I over D^2, and each
becomes a Fraction once, at the end.  One function, weighted_report, makes
every BoundsReport: a weighted average of kernel rows (covariate strata or
model rows; one row of weight 1 in full_report) plus the deltas, dominance
and construction indices of the pooled marginals.  An exact report does all
of it on numerators over one D of the weights and both stacks, and makes its
Fractions at the end.  It flags point identification by the bound gap,
U - L <= 0 exact and <= 1e-12 float.
point_identified is the theorem's support-set criterion, kept as the oracle
that tests check the gap rule against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import DeltaVector, MarginalPair, _arrays, _common_denominator, _deltas

COLUMNS = ("tau_L", "tau_I", "tau_U", "eta_L", "eta_I", "eta_U")
_over = np.frompyfunc(Fraction, 2, 1)


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


def bound_rows(p1, p0) -> np.ndarray:
    """Rows (..., 6) in the order COLUMNS of stacked marginal pairs (..., J)."""
    p1, p0 = np.asarray(p1), np.asarray(p0)
    dtype = np.result_type(p1, p0)
    if dtype == object:   # exact: numerators over D, and one is D
        p1, p0, D = _numerator_arrays(p1, p0)
        return _over(_rows(p1, p0, D), _row_denominators(D))
    return _clipped(_rows(p1.astype(dtype, copy=False), p0.astype(dtype, copy=False), 1))


def _numerator_arrays(*arrays):
    """Exact object arrays as object arrays of Python-int numerators over
    one common denominator D: (*arrays, D)."""
    nums, D = _common_denominator(np.concatenate([a.ravel() for a in arrays]).tolist())
    nums, out = np.array(nums, dtype=object), []
    for a in arrays:
        out.append(nums[:a.size].reshape(a.shape))
        nums = nums[a.size:]
    return (*out, D)


def _row_denominators(D):
    """The denominators of the kernel rows of numerators over D: D for the
    deltas and the four bounds, D^2 for tau_I and eta_I."""
    return np.array([D, D * D, D, D, D * D, D], dtype=object)


def _rows(p1, p0, one):
    """The kernel: rows (..., 6) of p1, p0 (..., J) of one shape and dtype,
    in which the total mass is one."""
    # J moves to a leading contiguous axis once, so that every reduction is
    # over axis 0: J - 1 whole-array steps over (...) slabs rather than one
    # short reduction per row.  The kernel holds these two (J, ...) copies of
    # its inputs, d, and one (J, ...) temporary at a time; d and F0 are never
    # alive together.  transpose rather than moveaxis, whose argument
    # handling costs about 10 us, a third of the kernel on one pair.
    order = (p1.ndim - 1, *range(p1.ndim - 1))
    p1 = np.ascontiguousarray(p1.transpose(order))
    p0 = np.ascontiguousarray(p0.transpose(order))
    d = np.cumsum(p1[::-1], axis=0)[::-1]   # tail sums, as _deltas
    d -= np.cumsum(p0[::-1], axis=0)[::-1]
    d[0] = 0
    rows = np.empty(d.shape[1:] + (len(COLUMNS),), dtype=d.dtype)
    rows[..., 0] = np.maximum.reduce(p0 + d, axis=0)
    rows[..., 2] = one + np.minimum.reduce(d, axis=0)
    rows[..., 3] = np.maximum.reduce(d, axis=0)
    d -= p1
    rows[..., 5] = one + np.minimum.reduce(d, axis=0)
    del d
    F0 = np.cumsum(p0, axis=0)
    rows[..., 1] = np.add.reduce(p1 * F0, axis=0)
    F0 -= p0
    rows[..., 4] = np.add.reduce(p1 * F0, axis=0)
    return rows


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
    float, or all are object arrays of exact numbers for an exact report,
    which is computed on integer numerators over one common denominator D:
    the pooled marginals and the deltas are over D^2, and the weighted rows
    over D times the kernel's denominators."""
    exact = w.dtype == object
    if exact:
        w, p1, p0, D = _numerator_arrays(w, p1, p0)
        rows = w @ _rows(p1, p0, D)
    else:
        rows = _clipped(w @ bound_rows(p1, p0))
    pooled0 = w @ p0
    d = _deltas(w @ p1, pooled0).tolist()
    j1, j2 = construction_indices(pooled0.tolist(), d)
    tol = 0 if exact else 1e-12
    # a lower bound and its upper bound share their denominator
    tau_l, _, tau_u, eta_l, _, eta_u = rows.tolist()
    identified = tau_u - tau_l <= tol, eta_u - eta_l <= tol
    dominance = all(dj >= -tol for dj in d)
    if exact:   # Fractions once, at the end; delta_0 stays the int 0
        rows = _over(rows, D * _row_denominators(D))
        d[1:] = _over(d[1:], D * D)
    tau_l, tau_i, tau_u, eta_l, eta_i, eta_u = rows.tolist()
    return BoundsReport(
        deltas=DeltaVector(d),
        tau_L=tau_l, tau_I=tau_i, tau_U=tau_u,
        eta_L=eta_l, eta_I=eta_i, eta_U=eta_u,
        dominance=dominance,
        tau_point_identified=identified[0],
        eta_point_identified=identified[1],
        argmin_delta_index=j1,
        argmax_lower_index=j2,
    )


def tau_bounds(m: MarginalPair):
    return tuple(bound_rows(*_arrays(m.treated.probs, m.control.probs))[[0, 2]].tolist())


def eta_bounds(m: MarginalPair):
    return tuple(bound_rows(*_arrays(m.treated.probs, m.control.probs))[[3, 5]].tolist())


def independent_estimands(m: MarginalPair):
    """(tau, eta) under independent potential outcomes."""
    return tuple(bound_rows(*_arrays(m.treated.probs, m.control.probs))[[1, 4]].tolist())


def full_report(m: MarginalPair) -> BoundsReport:
    p1, p0 = _arrays(m.treated.probs, m.control.probs)
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
