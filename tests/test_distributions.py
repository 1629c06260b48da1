from fractions import Fraction

import numpy as np
import pytest

from ordbounds import (
    JointDistribution,
    MarginalDistribution,
    MarginalPair,
    UnitRecord,
    delta_effects,
    empirical_marginals,
    estimands_of_joint,
    stochastically_dominates,
    validate_marginal,
)
from ordbounds.distributions import DeltaVector, _take, unit_columns
from ordbounds.exceptions import (
    EmptyArm,
    DimensionMismatch,
    LengthMismatch,
    LengthTooShort,
    NegativeEntry,
    OutOfRangeOutcome,
    SumNotOne,
    ValidationError,
)

F = Fraction


class TestMarginalDistribution:
    def test_valid_float(self):
        m = validate_marginal((0.2, 0.6, 0.2))
        assert m.J == 3
        assert not m.exact

    def test_valid_exact(self):
        m = validate_marginal((F(1, 5), F(3, 5), F(1, 5)))
        assert m.exact
        assert sum(m.probs) == 1

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            validate_marginal((0.5, 0.6, -0.1))

    def test_sum_not_one(self):
        with pytest.raises(SumNotOne):
            validate_marginal((0.5, 0.6))

    def test_too_short(self):
        with pytest.raises(LengthTooShort):
            validate_marginal((1.0,))

    def test_float_tolerance(self):
        # tiny accumulation error is accepted
        p = np.full(7, 1 / 7)
        validate_marginal(tuple(p))

    def test_tail_sums(self):
        m = validate_marginal((F(1, 5), F(3, 5), F(1, 5)))
        assert m.tail_sums() == (1, F(4, 5), F(1, 5))


class TestMarginalPair:
    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            MarginalPair(validate_marginal((0.5, 0.5)), validate_marginal((0.2, 0.3, 0.5)))

    def test_exact_only_if_both(self):
        m = MarginalPair(
            validate_marginal((F(1, 2), F(1, 2))), validate_marginal((0.5, 0.5))
        )
        assert not m.exact


class TestJointDistribution:
    def test_margins(self):
        P = JointDistribution(((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4))))
        assert P.row_margin().probs == (F(1, 2), F(1, 2))
        assert P.col_margin().probs == (F(1, 2), F(1, 2))

    def test_invalid_sum(self):
        with pytest.raises(ValidationError):
            JointDistribution(((0.5, 0.5), (0.5, 0.5)))

    @pytest.mark.parametrize("matrix, error", [
        (((1.0,),), LengthTooShort), ((), LengthTooShort),
        (((0.5, 0.25), (0.25,)), DimensionMismatch),
    ], ids=["J=1", "empty", "not square"])
    def test_invalid_shape(self, matrix, error):
        with pytest.raises(error):
            JointDistribution(matrix)

    def test_estimands_perfect_positive(self):
        P = JointDistribution(((F(1, 2), 0), (0, F(1, 2))))
        tau, eta, alpha = estimands_of_joint(P)
        assert (tau, eta, alpha) == (1, 0, 0)

    def test_estimands_worked_example(self):
        # 2x2 joint with known tau = 2/3, eta = 1/3
        P = JointDistribution(((F(1, 3), F(1, 3)), (F(1, 3), 0)))
        tau, eta, alpha = estimands_of_joint(P)
        assert tau == F(2, 3)
        assert eta == F(1, 3)
        assert alpha == tau + eta - 1


class TestDeltaEffects:
    def test_first_entry_zero(self, taste_pair):
        dv = delta_effects(taste_pair)
        assert dv.deltas[0] == 0

    def test_values(self, taste_pair):
        assert delta_effects(taste_pair).deltas == (0, F(1, 5), F(-1, 5))

    def test_delta_vector_validation(self):
        with pytest.raises(ValidationError):
            DeltaVector((0.1, 0.2))  # first entry must be 0
        with pytest.raises(ValidationError):
            DeltaVector((0, 1.5))  # out of range

    def test_identical_margins(self):
        m = MarginalPair(validate_marginal((0.3, 0.7)), validate_marginal((0.3, 0.7)))
        assert delta_effects(m).deltas == (0, 0.0)


class TestDominance:
    def test_not_dominated(self, taste_pair):
        assert not stochastically_dominates(taste_pair)

    def test_dominated(self, dominated_pair):
        assert stochastically_dominates(dominated_pair)

    def test_equal_margins_dominate(self):
        m = MarginalPair(validate_marginal((0.3, 0.7)), validate_marginal((0.3, 0.7)))
        assert stochastically_dominates(m)


class TestEmpiricalMarginals:
    def test_counts(self):
        records = [UnitRecord(z=1, y=0)] * 2 + [UnitRecord(z=1, y=1)] * 2 + [
            UnitRecord(z=0, y=1)
        ] * 4
        m = empirical_marginals(records)
        assert m.treated.probs == (0.5, 0.5)
        assert m.control.probs == (0.0, 1.0)

    def test_empty_arm(self):
        with pytest.raises(EmptyArm):
            empirical_marginals([UnitRecord(z=1, y=0), UnitRecord(z=1, y=1)])

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeOutcome):
            empirical_marginals(
                [UnitRecord(z=1, y=3), UnitRecord(z=0, y=0)], J=2
            )

    def test_matches_loop_count(self):
        rng = np.random.default_rng(5)
        records = [UnitRecord(z=int(z), y=int(y))
                   for z, y in zip(rng.integers(0, 2, 200), rng.integers(0, 6, 200))]
        counts = np.zeros((2, 7))
        for r in records:
            counts[r.z, r.y] += 1
        m = empirical_marginals(records, J=7)
        assert m.treated.probs == tuple(counts[1] / counts[1].sum())
        assert m.control.probs == tuple(counts[0] / counts[0].sum())

    def test_explicit_categories(self):
        records = [UnitRecord(z=1, y=0), UnitRecord(z=0, y=0)]
        m = empirical_marginals(records, J=3)
        assert m.J == 3


class TestUnitColumns:
    def test_columns_and_categories(self):
        recs = [UnitRecord(z=1, y=0, d=1), UnitRecord(z=0, y=4, d=0), UnitRecord(z=1, y=2, d=0)]
        cols = unit_columns(recs)
        z, y, d, J = cols.z, cols.y, cols.d, cols.J
        assert z.tolist() == [1, 0, 1] and y.tolist() == [0, 4, 2] and d.tolist() == [1, 0, 0]
        assert J == 5 and z.dtype == y.dtype == d.dtype == np.int64

    def test_d_absent(self):
        assert unit_columns([UnitRecord(z=1, y=0), UnitRecord(z=0, y=1)]).d is None

    def test_d_on_some_records_rejected(self):
        with pytest.raises(ValueError):
            unit_columns([UnitRecord(z=1, y=0, d=1), UnitRecord(z=0, y=1)])

    @pytest.mark.parametrize("z, d, y", [(2, 0, 0), (-1, 0, 0), (0, 2, 0), (0, -1, 0), (1, 1, -1),
                                         (0.5, 0, 0), (0, 0.5, 0), (1, 1, 1.7),
                                         (1, 1, float("nan"))])
    def test_out_of_range_rejected(self, z, d, y):
        with pytest.raises(OutOfRangeOutcome) as err:
            unit_columns([UnitRecord(z=0, y=0, d=0), UnitRecord(z=z, y=y, d=d)])
        assert isinstance(err.value, ValueError)

    def test_integer_valued_floats_accepted(self):
        cols = unit_columns([UnitRecord(z=1.0, y=2.0, d=0.0), UnitRecord(z=0, y=0, d=1)])
        assert cols.z.tolist() == [1, 0] and cols.y.tolist() == [2, 0] and cols.d.tolist() == [0, 1]

    def test_subset_categories_follow_its_outcomes(self):
        recs = [UnitRecord(z=k % 2, y=k % 5) for k in range(20)]
        cols = unit_columns(recs)
        low = _take(cols, cols.y < 3)
        assert cols.J == 5 and low.J == 3
        assert unit_columns(low) is low
        assert empirical_marginals(low) == empirical_marginals([r for r in recs if r.y < 3])

    def test_covariate_matrix(self):
        X = unit_columns([UnitRecord(z=1, y=0, x=(1.0, 2.0)), UnitRecord(z=0, y=1, x=(3, 4))]).x
        assert X.dtype == float and X.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_scalar_covariates_are_one_column(self):
        X = unit_columns([UnitRecord(z=1, y=0, x=0.5), UnitRecord(z=0, y=1, x=1.5)]).x
        assert X.shape == (2, 1)

    def test_no_covariates_give_zero_columns(self):
        assert unit_columns([UnitRecord(z=1, y=0), UnitRecord(z=0, y=1)]).x.shape == (2, 0)

    def test_covariates_on_some_records_rejected(self):
        with pytest.raises(ValueError):
            unit_columns([UnitRecord(z=1, y=0, x=(1.0,)), UnitRecord(z=0, y=1)])


class TestNonFinite:
    """NaN passes every comparison of the range checks, so they reject it
    by name."""

    def test_marginal(self):
        with pytest.raises(ValidationError, match="non-finite"):
            validate_marginal((0.5, float("nan"), 0.5))

    def test_joint(self):
        with pytest.raises(ValidationError, match="non-finite"):
            JointDistribution(((0.5, 0.0), (float("nan"), 0.5)))

    def test_delta_vector(self):
        with pytest.raises(ValidationError):
            DeltaVector((0.0, float("nan")))


class TestDeltaTolerance:
    """Float deltas may leave [-1, 1] by the sum-to-one tolerance, exact ones
    not at all."""

    # valid float marginals whose treated tail sum at j=1 rounds to 1 + 2**-52
    P1 = (0.0, 0.42461092968301356, 0.5376463087320363, 0.03774276158495021)
    P0 = (1.0, 0.0, 0.0, 0.0)

    def test_rounded_tail_sum_is_accepted(self):
        m = MarginalPair(validate_marginal(self.P1), validate_marginal(self.P0))
        assert delta_effects(m).deltas[1] == 1 + 2 ** -52

    @pytest.mark.parametrize("d", [1 + 1e-10, -1 - 1e-10])
    def test_float_within_tolerance_is_accepted(self, d):
        assert DeltaVector((0.0, d)).deltas == (0.0, d)

    @pytest.mark.parametrize("d", [1 + 1e-6, -1 - 1e-6])
    def test_float_beyond_tolerance_is_rejected(self, d):
        with pytest.raises(ValidationError):
            DeltaVector((0.0, d))

    @pytest.mark.parametrize("d", [F(3, 2), F(-3, 2), 1 + F(1, 10 ** 30), -1 - F(1, 10 ** 30), 2])
    def test_exact_outside_is_rejected(self, d):
        with pytest.raises(ValidationError):
            DeltaVector((0, d))
