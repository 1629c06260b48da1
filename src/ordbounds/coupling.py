"""Explicit joint distributions with given margins.

Two layers:

* triangular allocations of one nonnegative vector against another under a
  tail-sum or head-sum dominance condition (four variants a/b/c/d related by
  transposition and index reversal);
* extremal couplings: joint distributions with the given treated/control
  margins attaining each sharp bound of tau and eta, plus the independent
  (outer-product) coupling.

All routines work in exact arithmetic when fed Fractions and in double
precision otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import construction_indices
from .distributions import JointDistribution, MarginalPair, _is_exact, delta_effects
from .exceptions import DominanceViolated, LengthMismatch

_FLOAT_TOL = 1e-9
_CLAMP = 1e-13


@dataclass(frozen=True)
class TriangularMatrix:
    matrix: tuple
    orientation: str  # "lower" or "upper"

    def __post_init__(self):
        object.__setattr__(self, "matrix", tuple(tuple(r) for r in self.matrix))
        n = len(self.matrix)
        for k, row in enumerate(self.matrix):
            if len(row) != n:
                raise LengthMismatch("triangular matrix must be square")
            for l, v in enumerate(row):
                if v < 0:
                    raise ValueError(f"negative entry at ({k},{l})")
                outside = l > k if self.orientation == "lower" else l < k
                if outside and v != 0:
                    raise ValueError(f"nonzero entry outside {self.orientation} triangle")

    @property
    def n(self) -> int:
        return len(self.matrix)


def _clamp(v):
    if isinstance(v, float) and -_CLAMP <= v < 0.0:
        return 0.0
    return v


def _check_tail_dominance(x, y):
    """Require sum_{r>=s} x_r >= sum_{r>=s} y_r for every s."""
    tol = 0 if _is_exact(x) and _is_exact(y) else _FLOAT_TOL
    tx = ty = 0
    slack = [None] * len(x)
    for s in reversed(range(len(x))):
        tx += x[s]
        ty += y[s]
        slack[s] = tx - ty
    for s, g in enumerate(slack):
        if g < -tol:
            raise DominanceViolated(s)


def _alloc_lower(x, y):
    """Lower triangular allocation with column sums exactly y, row sums <= x.

    Follows the inductive construction: peel index 0, branch on y0 < x0 versus
    y0 >= x0, fill the first column proportionally to the row residuals of the
    sub-allocation, recurse.
    """
    n = len(x)
    zero = 0 if _is_exact(x) and _is_exact(y) else 0.0
    if n == 1:
        return [[_clamp(y[0])]]
    sub = _alloc_lower(x[1:], y[1:])
    A = [[zero] * n for _ in range(n)]
    for k in range(1, n):
        for l in range(1, n):
            A[k][l] = sub[k - 1][l - 1]
    if y[0] < x[0]:
        A[0][0] = y[0]
    else:
        A[0][0] = x[0]
        resid = [x[k] - sum(A[k][1:]) for k in range(1, n)]
        resid = [max(r, zero) for r in resid]
        denom = sum(resid)
        need = y[0] - x[0]
        if denom > 0:
            for k in range(1, n):
                A[k][0] = _clamp(need * resid[k - 1] / denom)
        # denom == 0 forces need == 0 (up to float noise): leave zeros
    return A


def _reverse(mat):
    n = len(mat)
    return [[mat[n - 1 - k][n - 1 - l] for l in range(n)] for k in range(n)]


def _transpose(mat):
    n = len(mat)
    return [[mat[l][k] for l in range(n)] for k in range(n)]


def triangular_transport(x, y, variant: str) -> TriangularMatrix:
    """Triangular allocation of vector y against vector x.

    variant a: tail dominance of x over y; lower triangular; column sums == y,
               row sums <= x.
    variant b: transpose-dual of a (tail dominance of y over x; upper
               triangular; row sums == x, column sums <= y).
    variant c: index reversal of a (head dominance of y over x; lower
               triangular; row sums == x, column sums <= y).
    variant d: transpose of c (head dominance of x over y; upper triangular;
               column sums == y, row sums <= x).

    All inequalities become equalities when sum(x) == sum(y).
    """
    x, y = list(x), list(y)
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} and {len(y)} differ")
    if variant == "a":
        _check_tail_dominance(x, y)
        return TriangularMatrix(_alloc_lower(x, y), "lower")
    if variant == "b":
        _check_tail_dominance(y, x)
        return TriangularMatrix(_transpose(_alloc_lower(y, x)), "upper")
    if variant == "c":
        _check_tail_dominance(list(reversed(y)), list(reversed(x)))
        inner = _alloc_lower(list(reversed(y)), list(reversed(x)))
        return TriangularMatrix(_reverse(_transpose(inner)), "lower")
    if variant == "d":
        _check_tail_dominance(list(reversed(x)), list(reversed(y)))
        inner = _alloc_lower(list(reversed(x)), list(reversed(y)))
        return TriangularMatrix(_transpose(_reverse(_transpose(inner))), "upper")
    raise ValueError(f"unknown variant {variant!r}")


def _product_fill(r, c, zero):
    """Rank-one fill of residual row masses r against residual column masses c."""
    r = [max(v, zero) for v in r]
    c = [max(v, zero) for v in c]
    m = sum(r)
    if m <= 0:
        return [[zero] * len(c) for _ in r]
    return [[_clamp(rk * cl / m) for cl in c] for rk in r]


def _tau_max_matrix(p1, p0, deltas, J, zero):
    j1, _ = construction_indices(p0, deltas)
    if j1 == 0:
        # stochastic dominance: a single lower triangular allocation works
        return triangular_transport(p1, p0, "a").matrix
    P = [[zero] * J for _ in range(J)]
    tl = triangular_transport(p1[:j1], p0[:j1], "a").matrix
    br = triangular_transport(p1[j1:], p0[j1:], "c").matrix
    for k in range(j1):
        for l in range(j1):
            P[k][l] = tl[k][l]
    for k in range(J - j1):
        for l in range(J - j1):
            P[j1 + k][j1 + l] = br[k][l]
    r = [p1[k] - sum(P[k][:j1]) for k in range(j1)]
    c = [p0[l] - sum(P[k][l] for k in range(j1, J)) for l in range(j1, J)]
    tr = _product_fill(r, c, zero)
    for k in range(j1):
        for l in range(J - j1):
            P[k][j1 + l] = tr[k][l]
    return P


def _tau_min_matrix(p1, p0, deltas, J, zero):
    _, j2 = construction_indices(p0, deltas)
    P = [[zero] * J for _ in range(J)]
    if j2 == 0:
        tr = triangular_transport(p1[: J - 1], p0[1:], "d").matrix
        for k in range(J - 1):
            for l in range(J - 1):
                P[k][l + 1] = tr[k][l]
        P[J - 1][0] = p1[J - 1]
        for k in range(J - 1):
            P[k][0] = _clamp(p1[k] - sum(P[k][1:]))
        return P
    if j2 == J - 1:
        tr = triangular_transport(p1[: J - 1], p0[1:], "b").matrix
        for k in range(J - 1):
            for l in range(J - 1):
                P[k][l + 1] = tr[k][l]
        for l in range(J):
            P[J - 1][l] = _clamp(p0[l] - sum(P[k][l] for k in range(J - 1)))
        return P
    tl = triangular_transport(p1[:j2], p0[1 : j2 + 1], "b").matrix
    br = triangular_transport(p1[j2 : J - 1], p0[j2 + 1 :], "d").matrix
    for k in range(j2):
        for l in range(j2):
            P[k][l + 1] = tl[k][l]
    for k in range(J - 1 - j2):
        for l in range(J - 1 - j2):
            P[j2 + k][j2 + 1 + l] = br[k][l]
    r = [p1[k] - sum(P[k][j2 + 1 :]) for k in range(j2, J)]
    c = [p0[l] - sum(P[k][l] for k in range(j2)) for l in range(j2 + 1)]
    bl = _product_fill(r, c, zero)
    for k in range(J - j2):
        for l in range(j2 + 1):
            P[j2 + k][l] = bl[k][l]
    return P


def extremal_coupling(m: MarginalPair, target: str) -> JointDistribution:
    """Joint distribution with the given margins attaining the named bound.

    target is one of tau_min, tau_max, eta_min, eta_max, independent.  The eta
    targets are obtained from the tau constructions by switching the treatment
    and control labels and transposing.
    """
    p1 = list(m.treated.probs)
    p0 = list(m.control.probs)
    J = m.J
    zero = 0 if m.exact else 0.0
    if target == "independent":
        mat = [[p1[k] * p0[l] for l in range(J)] for k in range(J)]
        return JointDistribution(tuple(tuple(r) for r in mat))
    deltas = list(delta_effects(m).deltas)
    if target == "tau_max":
        mat = _tau_max_matrix(p1, p0, deltas, J, zero)
    elif target == "tau_min":
        mat = _tau_min_matrix(p1, p0, deltas, J, zero)
    elif target in ("eta_min", "eta_max"):
        swapped = MarginalPair(m.control, m.treated)
        d_sw = list(delta_effects(swapped).deltas)
        if target == "eta_max":
            mat = _tau_min_matrix(p0, p1, d_sw, J, zero)
        else:
            mat = _tau_max_matrix(p0, p1, d_sw, J, zero)
        mat = _transpose(mat)
    else:
        raise ValueError(f"unknown target {target!r}")
    mat = [[_clamp(v) for v in row] for row in mat]
    return JointDistribution(tuple(tuple(r) for r in mat))
