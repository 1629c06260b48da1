"""Exception hierarchy shared across the package."""


class OrdBoundsError(Exception):
    """Base class for all package-specific errors."""


# -- probability-vector validation ------------------------------------------

class ValidationError(OrdBoundsError):
    pass


class NegativeEntry(ValidationError):
    pass


class SumNotOne(ValidationError):
    pass


class LengthTooShort(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


# -- data ingestion ----------------------------------------------------------

class EmptyArm(OrdBoundsError):
    pass


class OutOfRangeOutcome(OrdBoundsError, ValueError):
    """A unit's z or d outside {0, 1}, or its y outside 0..J-1."""


# -- coupling constructions --------------------------------------------------

class DominanceViolated(OrdBoundsError):
    """Tail/head-sum dominance precondition of a triangular construction fails.

    ``index`` is the first offending position s.
    """

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"dominance condition violated at s={index}")


# -- model fitting -----------------------------------------------------------

class FitError(OrdBoundsError):
    pass


class SeparationDetected(FitError):
    pass


class RankDeficient(FitError):
    pass


class TooFewCategories(FitError):
    pass


class NonConvergence(FitError):
    pass


class DegenerateInit(FitError):
    pass


# -- estimation --------------------------------------------------------------

class ExtremePropensity(OrdBoundsError):
    def __init__(self, units, message=None):
        self.units = list(units)
        super().__init__(message or f"propensity outside trim range for units {self.units}")


class StratumMissingArm(OrdBoundsError):
    pass


# -- noncompliance -----------------------------------------------------------

class DefiersObserved(OrdBoundsError):
    pass


class NoCompliers(OrdBoundsError):
    pass


class InconsistentInputs(OrdBoundsError):
    pass


# -- inference / simulation --------------------------------------------------

class ReplicateFailure(OrdBoundsError):
    pass


class OddN(OrdBoundsError):
    pass
