"""Core probability types over ordered categories 0..J-1 (0 worst, J-1 best).

All types are immutable and support two arithmetic modes:

* exact mode -- entries are ``fractions.Fraction`` (or int); validation and
  all derived quantities are exact;
* float mode -- entries are floats; sum-to-one is checked within 1e-9 and
  nonnegativity with slack 1e-12.

Validation never renormalizes.  Callers wanting renormalization must do it
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _check_probs(values, what: str):
    """Nonnegativity and sum-to-one checks shared by marginal and joint types."""
    exact = _is_exact(values)
    for v in values:
        if v < (0 if exact else -NEG_TOL):
            raise NegativeEntry(f"{what} has negative entry {v}")
    total = sum(values)
    if exact:
        if total != 1:
            raise SumNotOne(f"{what} sums to {total}, deviation {total - 1}")
    else:
        if abs(total - 1.0) > SUM_TOL:
            raise SumNotOne(f"{what} sums to {total}, deviation {total - 1.0}")
    return exact


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
        out = []
        acc = 0
        for p in reversed(self.probs):
            acc = acc + p
            out.append(acc)
        return tuple(reversed(out))


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

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.matrix)
        object.__setattr__(self, "matrix", rows)
        J = len(rows)
        if J < 2:
            raise LengthTooShort("joint distribution needs J >= 2")
        for r in rows:
            if len(r) != J:
                raise DimensionMismatch("joint distribution matrix must be square")
        _check_probs([v for r in rows for v in r], "joint distribution")

    @property
    def J(self) -> int:
        return len(self.matrix)

    @property
    def exact(self) -> bool:
        return _is_exact([v for r in self.matrix for v in r])

    def as_array(self) -> np.ndarray:
        return np.array([[float(v) for v in r] for r in self.matrix])

    def row_margin(self) -> MarginalDistribution:
        clamp = (lambda v: v) if self.exact else (lambda v: max(v, 0.0))
        return MarginalDistribution(tuple(clamp(sum(r)) for r in self.matrix))

    def col_margin(self) -> MarginalDistribution:
        clamp = (lambda v: v) if self.exact else (lambda v: max(v, 0.0))
        return MarginalDistribution(
            tuple(clamp(sum(r[l] for r in self.matrix)) for l in range(self.J))
        )

    def margins(self) -> MarginalPair:
        return MarginalPair(self.row_margin(), self.col_margin())


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
            if d < -1 - tol or d > 1 + tol:
                raise ValidationError(f"delta {d} outside [-1, 1]")

    @property
    def J(self) -> int:
        return len(self.deltas)


def validate_marginal(probs: Sequence) -> MarginalDistribution:
    """Validate a raw numeric vector as a probability distribution.

    Accepts floats, ints and Fractions; never renormalizes.
    """
    return MarginalDistribution(tuple(probs))


def delta_effects(m: MarginalPair) -> DeltaVector:
    t1 = m.treated.tail_sums()
    t0 = m.control.tail_sums()
    deltas = [a - b for a, b in zip(t1, t0)]
    # both full tail sums equal the total mass, so delta_0 is identically 0
    deltas[0] = 0 if m.exact else 0.0
    return DeltaVector(tuple(deltas))


def stochastically_dominates(m: MarginalPair) -> bool:
    """True iff the treated marginal stochastically dominates the control one."""
    tol = 0 if m.exact else 1e-12
    return all(d >= -tol for d in delta_effects(m).deltas)


def estimands_of_joint(P: JointDistribution):
    """Return (tau, eta, alpha) of a joint distribution.

    tau = pr{Y(1) >= Y(0)}, eta = pr{Y(1) > Y(0)}, alpha = tau + eta - 1.
    """
    tau = sum(P.matrix[k][l] for k in range(P.J) for l in range(P.J) if k >= l)
    eta = sum(P.matrix[k][l] for k in range(P.J) for l in range(P.J) if k > l)
    return tau, eta, tau + eta - 1


class UnitColumns(NamedTuple):
    z: np.ndarray
    y: np.ndarray
    d: np.ndarray | None
    J: int


def unit_columns(records) -> UnitColumns:
    """The int arrays z, y and d of unit records (see
    :class:`ordbounds.estimation.UnitRecord`) and J = max(y) + 1.

    d is None when no record carries it; ValueError when only some do.
    OutOfRangeOutcome when z or d is outside {0, 1} or y is negative.
    """
    z = np.array([r.z for r in records], dtype=np.int64)
    y = np.array([r.y for r in records], dtype=np.int64)
    d = _all_or_none([r.d for r in records], "treatment received d")
    d = None if d is None else np.array(d, dtype=np.int64)
    for name, v in (("assignment z", z), ("treatment received d", d)):
        if v is not None and ((v != 0) & (v != 1)).any():
            raise OutOfRangeOutcome(f"{name} must be 0 or 1, got {v[(v != 0) & (v != 1)][0]}")
    if (y < 0).any():
        raise OutOfRangeOutcome(f"outcome y must be a nonnegative integer, got {y.min()}")
    return UnitColumns(z, y, d, int(y.max(initial=0)) + 1)


def covariate_matrix(records) -> np.ndarray:
    """The (n, p) float matrix of the records' covariate vectors x; p = 0
    when no record carries x, ValueError when only some do."""
    xs = _all_or_none([r.x for r in records], "covariates x")
    if xs is None:
        return np.empty((len(records), 0))
    return np.array(xs, dtype=float).reshape(len(xs), -1)


def _all_or_none(values, what):
    """values, or None when every one is None; ValueError when some are."""
    missing = sum(v is None for v in values)
    if missing and missing < len(values):
        raise ValueError(f"{what} must be given for all units or none")
    return None if missing else values


def empirical_marginals(records, J: int | None = None) -> MarginalPair:
    """Within-arm relative frequencies of the observed outcomes.

    ``records`` is a sequence of objects with fields ``z`` and ``y`` (see
    :func:`unit_columns`).  J is inferred as max(y)+1 unless supplied.
    """
    z, y, _, Jy = unit_columns(records)
    J = max(Jy if J is None else J, 2)
    if (y >= J).any():
        raise OutOfRangeOutcome(f"outcome {y.max()} outside 0..{J - 1}")
    counts = np.bincount(z * J + y, minlength=2 * J).reshape(2, J)
    n1, n0 = counts[1].sum(), counts[0].sum()
    if n1 == 0 or n0 == 0:
        raise EmptyArm("both treated and control units are required")
    return MarginalPair(
        MarginalDistribution(tuple(counts[1] / n1)),
        MarginalDistribution(tuple(counts[0] / n0)),
    )
