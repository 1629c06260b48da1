"""Core probability types over ordered categories 0..J-1 (0 worst, J-1 best).

All types are immutable and support two arithmetic modes:

* exact mode -- entries are ``fractions.Fraction`` (or int); validation and
  all derived quantities are exact.  Validation, the margins of a joint
  distribution and estimands_of_joint work on Python-int numerators over one
  common denominator D, the lcm of the entries' denominators
  (_common_denominator), and make Fractions once, at the end: a vector sums
  to one when its numerators sum to D, and an entry is negative when its
  numerator is.  A joint distribution keeps the numerators of its
  validation, one pass over its J^2 entries, for its margins and estimands
  (an exact coupling hands over its entries as int pairs instead, and is
  validated on their numerators: JointDistribution._from_ratios);
* float mode -- entries are finite floats; sum-to-one is checked within 1e-9
  and nonnegativity with slack 1e-12.

Validation never renormalizes.  Callers wanting renormalization must do it
explicitly.

_tail_sums forms every upper-tail sum in the package: those of a marginal,
the deltas of delta_effects and the bounds kernel, and the dominance check
of the triangular allocations.

UnitColumns is the one form of unit data below the public entry points,
which convert records with unit_columns once; _checked_columns validates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .exceptions import (
    DimensionMismatch,
    EmptyArm,
    LengthTooShort,
    NegativeEntry,
    OutOfRangeOutcome,
    SumNotOne,
    ValidationError,
)

SUM_TOL = 1e-9
NEG_TOL = 1e-12


def _is_exact(values) -> bool:
    return all(isinstance(v, (Fraction, int, np.integer)) for v in values)


def _ratios(values):
    """Exact values (Fraction, int or numpy int) as normalized (numerator,
    denominator) Python-int pairs."""
    try:
        return [v.as_integer_ratio() for v in values]
    except AttributeError:   # numpy integers have no as_integer_ratio
        return [(int(v.numerator), int(v.denominator)) for v in values]


def _over_lcm(ratios):
    """(numerator, denominator) int pairs as numerators over one common
    denominator D, the lcm of theirs: (numerators, D)."""
    D = math.lcm(*{d for _, d in ratios})   # each distinct denominator once
    return [n * (D // d) if n else 0 for n, d in ratios], D


_FRACTION_ZERO = Fraction(0)


def _fractions(rows):
    """Rows of normalized (numerator, denominator) int pairs as row tuples
    of Fractions, every zero one shared Fraction(0)."""
    return tuple(tuple(Fraction(n, d) if n else _FRACTION_ZERO for n, d in r) for r in rows)


def _common_denominator(values):
    """Exact values (Fraction or int) as Python-int numerators over one common
    denominator D, the lcm of their denominators: (numerators, D)."""
    return _over_lcm(_ratios(values))


def _check_probs(values, what: str):
    """Nonnegativity and sum-to-one checks shared by marginal and joint types:
    the (numerators, D) of _common_denominator that they decide on for exact
    values, None for float ones."""
    if _is_exact(values):
        return _checked_numerators(*_common_denominator(values), what)
    for v in values:
        if v < -NEG_TOL:
            raise NegativeEntry(f"{what} has negative entry {v}")
    total = sum(values)
    if not math.isfinite(total):   # a NaN entry passes every comparison above
        raise ValidationError(f"{what} has a non-finite entry: sum {total}")
    if abs(total - 1.0) > SUM_TOL:
        raise SumNotOne(f"{what} sums to {total}, deviation {total - 1.0}")
    return None


def _checked_numerators(nums, D, what: str):
    """(nums, D) once the exact values nums / D pass the checks: every
    numerator nonnegative, and their sum D."""
    for n in nums:
        if n < 0:
            raise NegativeEntry(f"{what} has negative entry {Fraction(n, D)}")
    total = sum(nums)
    if total != D:
        raise SumNotOne(f"{what} sums to {Fraction(total, D)}, "
                        f"deviation {Fraction(total - D, D)}")
    return nums, D


def _arrays(*vectors):
    """The vectors as numpy arrays: object dtype when every entry is exact
    (Fraction or int), so that arithmetic on them stays exact; float
    otherwise."""
    dtype = object if all(map(_is_exact, vectors)) else float
    return tuple(np.array(v, dtype=dtype) for v in vectors)


def _tail_sums(p):
    """Upper-tail sums of stacked vectors p (..., J): element j is
    sum_{k >= j} p[k], accumulated from the last entry down."""
    return np.cumsum(p[..., ::-1], axis=-1)[..., ::-1]


def _deltas(p1, p0):
    """Deltas of stacked marginals (..., J); delta_0 is 0 (int in exact
    mode) since both full tail sums are the total mass."""
    d = _tail_sums(p1)
    d -= _tail_sums(p0)
    d[..., 0] = 0
    return d


@dataclass(frozen=True)
class MarginalDistribution:
    """Probability vector over J >= 2 ordered categories."""

    probs: tuple

    def __post_init__(self):
        if len(self.probs) < 2:
            raise LengthTooShort(f"need at least 2 categories, got {len(self.probs)}")
        object.__setattr__(self, "probs", tuple(self.probs))
        _check_probs(self.probs, "marginal distribution")

    @property
    def J(self) -> int:
        return len(self.probs)

    @property
    def exact(self) -> bool:
        return _is_exact(self.probs)

    def as_array(self) -> np.ndarray:
        return np.array([float(p) for p in self.probs])

    def tail_sums(self) -> tuple:
        """Upper-tail sums: element j is sum_{k >= j} probs[k]."""
        return tuple(_tail_sums(*_arrays(self.probs)).tolist())


@dataclass(frozen=True)
class MarginalPair:
    """Treated and control marginal distributions over the same categories."""

    treated: MarginalDistribution
    control: MarginalDistribution

    def __post_init__(self):
        if self.treated.J != self.control.J:
            raise DimensionMismatch(
                f"treated has J={self.treated.J} but control has J={self.control.J}"
            )

    @property
    def J(self) -> int:
        return self.treated.J

    @property
    def exact(self) -> bool:
        return self.treated.exact and self.control.exact


@dataclass(frozen=True)
class JointDistribution:
    """J x J probability matrix; rows index the treatment outcome, columns the
    control outcome."""

    matrix: tuple  # tuple of row tuples
    # set by the validation: whether every entry is exact, and then the
    # matrix as rows of integer numerators over one common denominator D,
    # (rows, D), which the margins and estimands_of_joint reuse.  An exact
    # coupling arrives as int pairs (_from_ratios) and is validated on their
    # numerators, its Fractions made once from the pairs.
    exact: bool = field(init=False, repr=False, compare=False)
    _numerators: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.matrix)
        J = len(rows)
        if J < 2:
            raise LengthTooShort("joint distribution needs J >= 2")
        for r in rows:
            if len(r) != J:
                raise DimensionMismatch("joint distribution matrix must be square")
        self._set(rows, _check_probs([v for r in rows for v in r], "joint distribution"))

    @classmethod
    def _from_ratios(cls, rows) -> JointDistribution:
        """The exact joint distribution of a square matrix (J >= 2) of
        normalized (numerator, denominator) int pairs, validated on their
        numerators over the lcm D of the denominators; entry n/d is
        Fraction(n, d)."""
        common = _checked_numerators(*_over_lcm([v for r in rows for v in r]),
                                     "joint distribution")
        self = object.__new__(cls)
        self._set(_fractions(rows), common)
        return self

    def _set(self, rows, common):
        """Set the fields from the row tuples and their (numerators, D), None
        for floats."""
        J = len(rows)
        if common is not None:
            nums, D = common
            common = [nums[k * J:(k + 1) * J] for k in range(J)], D
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "exact", common is not None)
        object.__setattr__(self, "_numerators", common)

    @property
    def J(self) -> int:
        return len(self.matrix)

    def row_margin(self) -> MarginalDistribution:
        return self._margin(False)

    def col_margin(self) -> MarginalDistribution:
        return self._margin(True)

    def _margin(self, columns: bool) -> MarginalDistribution:
        """The row or column sums: exact ones from the numerators over D,
        float ones clamped at 0."""
        if self.exact:
            rows, D = self._numerators
            sums = (Fraction(sum(r), D) for r in (zip(*rows) if columns else rows))
        else:
            rows = self.matrix
            sums = (max(sum(r), 0.0) for r in (zip(*rows) if columns else rows))
        return MarginalDistribution(tuple(sums))

    def margins(self) -> MarginalPair:
        return MarginalPair(self.row_margin(), self.col_margin())

    def _float_rows(self) -> list:
        """The matrix as rows of floats: an exact entry as its numerator over
        D, which int division rounds correctly, as float() of the entry
        does."""
        if self.exact:
            rows, D = self._numerators
            return [[n / D for n in r] for r in rows]
        return [[float(v) for v in r] for r in self.matrix]


@dataclass(frozen=True)
class DeltaVector:
    """Distributional effects: deltas[j] = pr{Y(1) >= j} - pr{Y(0) >= j}.

    Float deltas may leave [-1, 1] by the sum-to-one tolerance SUM_TOL (a
    tail sum of valid float marginals can round above 1); exact ones may not.
    """

    deltas: tuple

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(self.deltas))
        if self.deltas[0] != 0:
            raise ValidationError(f"delta at j=0 must be 0, got {self.deltas[0]}")
        tol = 0 if _is_exact(self.deltas) else SUM_TOL
        for d in self.deltas:
            if not -1 - tol <= d <= 1 + tol:   # NaN fails too
                raise ValidationError(f"delta {d} outside [-1, 1]")


def validate_marginal(probs: Sequence) -> MarginalDistribution:
    """Validate a raw numeric vector as a probability distribution.

    Accepts floats, ints and Fractions; never renormalizes.
    """
    return MarginalDistribution(tuple(probs))


def delta_effects(m: MarginalPair) -> DeltaVector:
    return DeltaVector(tuple(_deltas(*_arrays(m.treated.probs, m.control.probs)).tolist()))


def stochastically_dominates(m: MarginalPair) -> bool:
    """True iff the treated marginal stochastically dominates the control one."""
    tol = 0 if m.exact else 1e-12
    return all(d >= -tol for d in delta_effects(m).deltas)


def estimands_of_joint(P: JointDistribution):
    """Return (tau, eta, alpha) of a joint distribution.

    tau = pr{Y(1) >= Y(0)}, eta = pr{Y(1) > Y(0)}, alpha = tau + eta - 1.
    """
    if P.exact:
        rows, D = P._numerators
        eta = sum(v for k, r in enumerate(rows) for v in r[:k])
        tau = eta + sum(r[k] for k, r in enumerate(rows))
        return Fraction(tau, D), Fraction(eta, D), Fraction(tau + eta - D, D)
    tau = sum(P.matrix[k][l] for k in range(P.J) for l in range(P.J) if k >= l)
    eta = sum(P.matrix[k][l] for k in range(P.J) for l in range(P.J) if k > l)
    return tau, eta, tau + eta - 1


class UnitColumns(NamedTuple):
    """Validated unit data: int arrays z, y and d (None when the units carry
    no d) and the (n, p) covariate array x.  J is max(y) + 1 of the units
    held, so a subset (_take) has its own."""

    z: np.ndarray
    y: np.ndarray
    d: np.ndarray | None
    x: np.ndarray

    @property
    def J(self) -> int:
        return int(self.y.max(initial=0)) + 1

    def categories(self, J: int | None = None) -> int:
        """The J of every fit of these units: J, else self.J, and at least 2.
        OutOfRangeOutcome when an outcome is at or above it."""
        fit_J = max(self.J if J is None else J, 2)
        if self.J > fit_J:
            raise OutOfRangeOutcome(f"outcome {self.y.max()} outside 0..{fit_J - 1}")
        return fit_J


def unit_columns(data) -> UnitColumns:
    """The UnitColumns of unit records (see
    :class:`ordbounds.estimation.UnitRecord`); a UnitColumns is returned
    unchanged.

    d is None and x has no columns when no record carries them; ValueError
    when only some do.  Numeric x is float; other x (discrete stratum labels
    such as strings) is kept as given.
    """
    if isinstance(data, UnitColumns):
        return data
    xs = _all_or_none([r.x for r in data], "covariates x") or np.empty((len(data), 0))
    try:
        x = np.array(xs, dtype=float)
    except (TypeError, ValueError):
        x = np.array(xs)
    return _checked_columns([r.z for r in data], [r.y for r in data],
                            _all_or_none([r.d for r in data], "treatment received d"),
                            x[:, None] if x.ndim == 1 else x)


def _checked_columns(z, y, d, x) -> UnitColumns:
    """The one validator of unit data.  OutOfRangeOutcome when a z, d or y
    is not an integer, z or d is outside {0, 1} or y is negative;
    ValidationError for a non-finite float covariate."""
    z, y = _integers(z, "assignment z"), _integers(y, "outcome y")
    d = None if d is None else _integers(d, "treatment received d")
    for name, v in (("assignment z", z), ("treatment received d", d)):
        if v is not None and ((v != 0) & (v != 1)).any():
            raise OutOfRangeOutcome(f"{name} must be 0 or 1, got {v[(v != 0) & (v != 1)][0]}")
    if (y < 0).any():
        raise OutOfRangeOutcome(f"outcome y must be a nonnegative integer, got {y.min()}")
    if x.dtype.kind == "f" and not np.isfinite(x).all():
        raise ValidationError(f"covariates x must be finite, got {x[~np.isfinite(x)][0]}")
    return UnitColumns(z, y, d, x)


def _integers(values, what) -> np.ndarray:
    """values as int64; OutOfRangeOutcome for one that is not an integer."""
    v = np.asarray(values)
    if v.dtype.kind not in "biu":
        v = v.astype(float)
        bad = ~np.isfinite(v) | (v != np.trunc(v))
        if bad.any():
            raise OutOfRangeOutcome(f"{what} must be an integer, got {v[bad][0]}")
    return v.astype(np.int64)


def _arm_counts(cols: UnitColumns, J: int) -> np.ndarray:
    """Within-arm outcome counts (2, J) of the units, control arm first."""
    return np.bincount(cols.z * J + cols.y, minlength=2 * J).reshape(2, J)


def _take(cols: UnitColumns, idx) -> UnitColumns:
    """The units of cols at idx; J follows their own outcomes."""
    return UnitColumns(*(None if v is None else v[idx] for v in cols))


def _all_or_none(values, what):
    """values, or None when every one is None; ValueError when some are."""
    missing = sum(v is None for v in values)
    if missing and missing < len(values):
        raise ValueError(f"{what} must be given for all units or none")
    return None if missing else values


def empirical_marginals(records, J: int | None = None) -> MarginalPair:
    """Within-arm relative frequencies of the observed outcomes.

    ``records`` is unit data as :func:`unit_columns` takes it.  J is
    UnitColumns.categories: max(y)+1 unless supplied, and at least 2, and
    OutOfRangeOutcome for an outcome at or above it.
    """
    cols = unit_columns(records)
    counts = _arm_counts(cols, cols.categories(J))
    n1, n0 = counts[1].sum(), counts[0].sum()
    if n1 == 0 or n0 == 0:
        raise EmptyArm("both treated and control units are required")
    return MarginalPair(
        MarginalDistribution(tuple(counts[1] / n1)),
        MarginalDistribution(tuple(counts[0] / n0)),
    )
