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
their input on one number type once, on entry (_one_type): Fractions with
zero 0 when every entry is exact (Fraction, int or numpy int), floats with
zero 0.0 otherwise, float noise in [-_CLAMP, 0) set to 0.  Below that no
step clamps or detects types: every entry made is an input entry, or a
product or quotient of nonnegative numbers.  The dominance check (on the
tail sums of distributions._tail_sums, the kernel behind the bounds) and the
validated TriangularMatrix belong to triangular_transport, where outside
input arrives; the construction calls _alloc_lower directly, its blocks
dominated by the split j2 (exactly on exact input, within the margins' own
float tolerance otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bounds import construction_indices
from .distributions import JointDistribution, MarginalPair, _arrays, _deltas, _is_exact, _tail_sums
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


def _one_type(*vectors):
    """The vectors as lists of one number type, and its zero: Fractions and 0
    when every entry is exact (Fraction, int or numpy int), floats and 0.0
    otherwise, float noise in [-_CLAMP, 0) set to 0."""
    if all(map(_is_exact, vectors)):
        return [[v if isinstance(v, Fraction) else Fraction(int(v)) for v in vec]
                for vec in vectors], 0
    return [[_clamp(float(v)) for v in vec] for vec in vectors], 0.0


def _check_tail_dominance(x, y):
    """Require sum_{r>=s} x_r >= sum_{r>=s} y_r for every s."""
    x, y = _arrays(x, y)
    tol = 0 if x.dtype == object else _FLOAT_TOL
    for s, g in enumerate((_tail_sums(x) - _tail_sums(y)).tolist()):
        if g < -tol:
            raise DominanceViolated(s)


def _alloc_lower(x, y, zero):
    """Lower triangular allocation with column sums y and row sums <= x when
    x tail-dominates y; x, y of the number type of zero (_one_type).

    One pass over the columns from the last index down.  The last diagonal
    entry is y's last entry.  Column j then takes y[j] on the diagonal when
    y[j] < x[j]; otherwise x[j], with the shortfall y[j] - x[j] spread over
    the rows below in proportion to their residuals, x[k] less the mass that
    row k already holds in columns j+1 onwards (the running sums held),
    floored at zero.
    """
    n = len(x)
    A = [[zero] * n for _ in range(n)]
    held = [zero] * n
    for j in reversed(range(n)):
        if j == n - 1 or y[j] < x[j]:
            A[j][j] = y[j]
        else:
            A[j][j] = x[j]
            resid = [max(x[k] - held[k], zero) for k in range(j + 1, n)]
            denom = sum(resid)
            need = y[j] - x[j]
            if denom > 0:
                for k, r in enumerate(resid, j + 1):
                    A[k][j] = need * r / denom
                    held[k] += A[k][j]
            # denom == 0 forces need == 0 (up to float noise): leave zeros
        held[j] += A[j][j]
    return A


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
    (x, y), zero = _one_type(x, y)
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} and {len(y)} differ")

    def alloc(a, b):
        _check_tail_dominance(a, b)
        return _alloc_lower(a, b, zero)

    if variant == "a":
        return TriangularMatrix(alloc(x, y), "lower")
    if variant == "b":
        return TriangularMatrix(_transpose(alloc(y, x)), "upper")
    if variant == "c":
        return TriangularMatrix(_reverse(_transpose(alloc(y[::-1], x[::-1]))), "lower")
    if variant == "d":
        return TriangularMatrix(_reverse(alloc(x[::-1], y[::-1])), "upper")
    raise ValueError(f"unknown variant {variant!r}")


def _product_fill(r, c, zero):
    """Rank-one fill of residual row masses r against residual column masses
    c, each floored at zero."""
    r = [max(v, zero) for v in r]
    c = [max(v, zero) for v in c]
    m = sum(r)
    if m <= 0:   # every residual is 0: fill with them, in the margins' number type
        return [[rk] * len(c) for rk in r]
    return [[rk * cl / m for cl in c] for rk in r]


def _tau_min_matrix(p1, p0, deltas, J, zero):
    """The tau_min construction, split at j2: the allocations of variants b
    (rows above j2, columns 1..j2) and d (rows j2..J-2, columns right of
    j2), and a rank-one fill of the residual bottom-left block."""
    _, j2 = construction_indices(p0, deltas)
    P = [[zero] * J for _ in range(J)]
    tl = _transpose(_alloc_lower(p0[1 : j2 + 1], p1[:j2], zero))
    br = _reverse(_alloc_lower(p1[j2 : J - 1][::-1], p0[j2 + 1 :][::-1], zero))
    for k in range(j2):
        P[k][1 : j2 + 1] = tl[k]
    for k in range(J - 1 - j2):
        P[j2 + k][j2 + 1 :] = br[k]
    r = [p1[k] - sum(P[k][j2 + 1 :]) for k in range(j2, J)]
    c = [p0[l] - sum(P[k][l] for k in range(j2)) for l in range(j2 + 1)]
    bl = _product_fill(r, c, zero)
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
    (p1, p0), zero = _one_type(m.treated.probs, m.control.probs)
    J = m.J
    if target == "independent":
        mat = [[p1[k] * p0[l] for l in range(J)] for k in range(J)]
        return JointDistribution(tuple(tuple(r) for r in mat))
    if target not in ("tau_min", "tau_max", "eta_min", "eta_max"):
        raise ValueError(f"unknown target {target!r}")
    d = _deltas(*_arrays(p1, p0)).tolist()
    if target.startswith("eta"):   # the swapped pair's deltas are -d
        p1, p0, d = p0, p1, [-v for v in d]
    if target in ("tau_min", "eta_max"):
        mat = _tau_min_matrix(p1, p0, d, J, zero)
    else:
        shifted = [zero] + [-(p + dj) for p, dj in zip(p0, d)]
        Q = _tau_min_matrix(p0 + [zero], [zero] + p1, shifted, J + 1, zero)
        mat = [[Q[l][k + 1] for l in range(J)] for k in range(J)]
    if target.startswith("eta"):
        mat = _transpose(mat)
    return JointDistribution(tuple(tuple(r) for r in mat))
