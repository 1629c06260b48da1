"""Explicit joint distributions with given margins.

Two layers:

* triangular allocations of one nonnegative vector against another under a
  tail-sum or head-sum dominance condition: _alloc_lower fills a lower
  triangular one column by column from the last index down, in one pass;
  variants b, c, d are its transpose, transposed reversal and reversal;
* extremal couplings: joint distributions with the given treated/control
  margins attaining each sharp bound of tau and eta, plus the independent
  (outer-product) coupling.  One block construction, the tau_min one, which
  splits at the construction index j2, serves all four bounds: tau_max is
  the tau_min construction of the shifted pair (Y(0), Y(1) + 1), which
  splits at j1, and the eta targets are tau constructions of the swapped
  margins, whose deltas are the negated deltas of the pair.

Both public entry points, triangular_transport and extremal_coupling, put
their input on one number type once, on entry (_one_type), which also picks
the leaf arithmetic that the block layout runs on (_Leaves):

* exact input (every entry a Fraction, int or numpy int) runs on normalized
  (numerator, denominator) Python-int pairs, as in Knuth, TAOCP vol. 2,
  section 4.5.1: a sum takes the gcd of the denominators and then of the
  result with it, a product cancels the cross gcds before it multiplies, and
  the allocation takes the shortfall's share need / denom once per column.
  No Fraction is made until the end, once per entry: a coupling goes to
  JointDistribution._from_ratios, which validates it on the numerators over
  the lcm of the denominators;
* float input runs on floats, float noise in [-_CLAMP, 0) set to 0.

Below that no step clamps or detects types: every entry made is an input
entry, or a product or quotient of nonnegative numbers.  The split indices
and the dominance check read keys that order as the values do: the floats
themselves, or the exact values as numerators over one common denominator.
The dominance check (on the tail sums of distributions._tail_sums, the
kernel behind the bounds) and the validated TriangularMatrix belong to
triangular_transport, where outside input arrives; the construction calls
the allocation directly, its blocks dominated by the split j2 (exactly on
exact input, within the margins' own float tolerance otherwise).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from math import gcd
from typing import Callable, NamedTuple

from .bounds import construction_indices
from .distributions import (
    JointDistribution,
    MarginalPair,
    _arrays,
    _deltas,
    _fractions,
    _is_exact,
    _over_lcm,
    _ratios,
    _tail_sums,
)
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


def _clamp(v):
    if isinstance(v, float) and -_CLAMP <= v < 0.0:
        return 0.0
    return v


def _check_tail_dominance(x, y):
    """Require sum_{r>=s} x_r >= sum_{r>=s} y_r for every s."""
    x, y = _arrays(x, y)
    tol = 0 if x.dtype == object else _FLOAT_TOL
    for s, g in enumerate((_tail_sums(x) - _tail_sums(y)).tolist()):
        if g < -tol:
            raise DominanceViolated(s)


def _alloc_lower(x, y):
    """Lower triangular allocation with column sums y and row sums <= x when
    x tail-dominates y; x, y floats (_alloc_pairs is the exact twin).

    One pass over the columns from the last index down.  The last diagonal
    entry is y's last entry.  Column j then takes y[j] on the diagonal when
    y[j] < x[j]; otherwise x[j], with the shortfall y[j] - x[j] spread over
    the rows below in proportion to their residuals, x[k] less the mass that
    row k already holds in columns j+1 onwards (the running sums held),
    floored at zero.
    """
    n = len(x)
    A = [[0.0] * n for _ in range(n)]
    held = [0.0] * n
    for j in reversed(range(n)):
        if j == n - 1 or y[j] < x[j]:
            A[j][j] = y[j]
        else:
            A[j][j] = x[j]
            resid = [max(x[k] - held[k], 0.0) for k in range(j + 1, n)]
            denom = sum(resid)
            need = y[j] - x[j]
            if denom > 0:
                for k, r in enumerate(resid, j + 1):
                    A[k][j] = need * r / denom
                    held[k] += A[k][j]
            # denom == 0 forces need == 0 (up to float noise): leave zeros
        held[j] += A[j][j]
    return A


def _product_fill(r, c):
    """Rank-one fill of residual row masses r against residual column masses
    c, each floored at zero."""
    r = [max(v, 0.0) for v in r]
    c = [max(v, 0.0) for v in c]
    m = sum(r)
    if m <= 0:   # every residual is 0: fill with them, in the margins' number type
        return [[rk] * len(c) for rk in r]
    return [[rk * cl / m for cl in c] for rk in r]


# -- exact leaves: normalized (numerator, denominator) int pairs, d > 0 ------

_ZERO = (0, 1)
_numerator = operator.itemgetter(0)


def _add(a, b):
    """a + b: one gcd of the denominators, one of the sum with it."""
    n1, d1 = a
    n2, d2 = b
    if not n1:
        return b
    if not n2:
        return a
    g = gcd(d1, d2)
    if g == 1:
        return n1 * d2 + n2 * d1, d1 * d2
    s = d1 // g
    t = n1 * (d2 // g) + n2 * s
    g = gcd(t, g)   # t == 0 only when d1 == d2 == g: the pair (0, 1)
    return t // g, s * (d2 // g)


def _sub(a, b):
    return _add(a, (-b[0], b[1]))


def _mul(a, b):
    """a * b, the cross gcds cancelled before multiplying."""
    n1, d1 = a
    n2, d2 = b
    if not n1 or not n2:
        return _ZERO
    g1, g2 = gcd(n1, d2), gcd(n2, d1)
    return (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)


def _over(a, b):
    """a / b for b > 0."""
    return _mul(a, (b[1], b[0]))


def _below(a, b):
    """a < b."""
    return a[0] * b[1] < b[0] * a[1]


def _positive_part(a):
    """max(a, 0)."""
    return a if a[0] > 0 else _ZERO


def _sum(pairs):
    return reduce(_add, filter(_numerator, pairs), _ZERO)   # zeros skipped in C


def _alloc_pairs(x, y):
    """_alloc_lower on int pairs.  It keeps each row's residual
    x[k] less the mass the row holds, which exact dominance keeps
    nonnegative, instead of the mass: the shortfall's share need / denom is
    taken once per column, and row k's entry share * r leaves it the residual
    r less that entry."""
    n = len(x)
    A = [[_ZERO] * n for _ in range(n)]
    resid = list(x)
    for j in reversed(range(n)):
        if j == n - 1 or _below(y[j], x[j]):
            A[j][j] = y[j]
        else:
            A[j][j] = x[j]
            denom = _sum(resid[j + 1 :])
            if denom[0]:
                share = _over(_sub(y[j], x[j]), denom)
                for k in range(j + 1, n):
                    if resid[k][0]:
                        A[k][j] = _mul(share, resid[k])
                        resid[k] = _sub(resid[k], A[k][j])
        resid[j] = _sub(resid[j], A[j][j])
    return A


def _fill_pairs(r, c):
    """_product_fill on int pairs: each row's share r[k] / m taken once."""
    r = [_positive_part(v) for v in r]
    c = [_positive_part(v) for v in c]
    m = _sum(r)
    if not m[0]:
        return [[rk] * len(c) for rk in r]
    return [[_mul(share, cl) for cl in c] for share in (_over(rk, m) for rk in r)]


def _keys(*vectors):
    """Vectors of int pairs as numerators over one common denominator."""
    nums = iter(_over_lcm([v for vec in vectors for v in vec])[0])
    return [[next(nums) for _ in vec] for vec in vectors]


class _Leaves(NamedTuple):
    """The arithmetic of one number type under the block layout."""

    zero: object
    alloc: Callable     # (x, y) -> the lower triangular allocation
    fill: Callable      # (r, c) -> the rank-one fill
    less: Callable      # (p, parts) -> p less the sum of parts
    mul: Callable
    keys: Callable      # (*vectors) -> numbers that order as the values do
    numbers: Callable   # matrix -> the matrix in public numbers
    joint: Callable     # matrix -> JointDistribution


_FLOATS = _Leaves(0.0, _alloc_lower, _product_fill, lambda p, parts: p - sum(parts),
                  operator.mul, lambda *vectors: vectors, lambda mat: mat, JointDistribution)
_PAIRS = _Leaves(_ZERO, _alloc_pairs, _fill_pairs, lambda p, parts: _sub(p, _sum(parts)),
                 _mul, _keys, _fractions, JointDistribution._from_ratios)


def _one_type(*vectors):
    """The vectors as lists of one number type, and its leaves: int pairs
    when every entry is exact (Fraction, int or numpy int), floats otherwise,
    float noise in [-_CLAMP, 0) set to 0."""
    if all(map(_is_exact, vectors)):
        return [_ratios(vec) for vec in vectors], _PAIRS
    return [[_clamp(float(v)) for v in vec] for vec in vectors], _FLOATS


def _reverse(mat):
    return [row[::-1] for row in mat[::-1]]


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


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
    DominanceViolated at the first index where the condition fails.
    """
    (x, y), leaf = _one_type(x, y)
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} and {len(y)} differ")

    def alloc(a, b):
        _check_tail_dominance(*leaf.keys(a, b))
        return leaf.alloc(a, b)

    if variant == "a":
        mat, orientation = alloc(x, y), "lower"
    elif variant == "b":
        mat, orientation = _transpose(alloc(y, x)), "upper"
    elif variant == "c":
        mat, orientation = _reverse(_transpose(alloc(y[::-1], x[::-1]))), "lower"
    elif variant == "d":
        mat, orientation = _reverse(alloc(x[::-1], y[::-1])), "upper"
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return TriangularMatrix(leaf.numbers(mat), orientation)


def _tau_min_matrix(p1, p0, j2, J, leaf):
    """The tau_min construction, split at j2: the allocations of variants b
    (rows above j2, columns 1..j2) and d (rows j2..J-2, columns right of
    j2), and a rank-one fill of the residual bottom-left block."""
    P = [[leaf.zero] * J for _ in range(J)]
    tl = _transpose(leaf.alloc(p0[1 : j2 + 1], p1[:j2]))
    br = _reverse(leaf.alloc(p1[j2 : J - 1][::-1], p0[j2 + 1 :][::-1]))
    for k in range(j2):
        P[k][1 : j2 + 1] = tl[k]
    for k in range(J - 1 - j2):
        P[j2 + k][j2 + 1 :] = br[k]
    r = [leaf.less(p1[k], P[k][j2 + 1 :]) for k in range(j2, J)]
    c = [leaf.less(p0[l], (P[k][l] for k in range(j2))) for l in range(j2 + 1)]
    bl = leaf.fill(r, c)
    for k in range(J - j2):
        P[j2 + k][: j2 + 1] = bl[k]
    return P


def extremal_coupling(m: MarginalPair, target: str) -> JointDistribution:
    """Joint distribution with the given margins attaining the named bound.

    target is one of tau_min, tau_max, eta_min, eta_max, independent.  One
    block construction, the tau_min one, serves all four bounds.  Y(1) >= Y(0)
    fails exactly when Y(0) >= Y(1) + 1, so max pr{Y(1) >= Y(0)} = 1 -
    min pr{Y(0) >= Y(1) + 1}: tau_max is the tau_min construction Q of the
    pair (Y(0), Y(1) + 1) over J + 1 categories, whose deltas are 0 and then
    -(p0[j] + delta_j), read back as P[k][l] = Q[l][k + 1].  The eta targets
    are the tau constructions of the swapped margins, whose deltas are the
    negated deltas, transposed.
    """
    (p1, p0), leaf = _one_type(m.treated.probs, m.control.probs)
    J = m.J
    if target == "independent":
        return leaf.joint([[leaf.mul(a, b) for b in p0] for a in p1])
    if target not in ("tau_min", "tau_max", "eta_min", "eta_max"):
        raise ValueError(f"unknown target {target!r}")
    k1, k0 = leaf.keys(p1, p0)
    d = _deltas(*_arrays(k1, k0)).tolist()
    if target.startswith("eta"):   # the swapped pair's deltas are -d
        p1, p0, k1, k0, d = p0, p1, k0, k1, [-v for v in d]
    if target in ("tau_min", "eta_max"):
        mat = _tau_min_matrix(p1, p0, construction_indices(k0, d)[1], J, leaf)
    else:
        shifted = [0] + [-(p + dj) for p, dj in zip(k0, d)]
        j2 = construction_indices([0] + k1, shifted)[1]
        Q = _tau_min_matrix(p0 + [leaf.zero], [leaf.zero] + p1, j2, J + 1, leaf)
        mat = [[Q[l][k + 1] for l in range(J)] for k in range(J)]
    if target.startswith("eta"):
        mat = _transpose(mat)
    return leaf.joint(mat)
