from fractions import Fraction

import numpy as np
import pytest

from ordbounds import (
    LinearObjective,
    alpha_bounds,
    eta_bounds,
    extremal_coupling,
    indicator_objective,
    optimize,
    sign_objective,
    tau_bounds,
)
from ordbounds.distributions import MarginalDistribution, MarginalPair
from ordbounds.exceptions import DimensionMismatch, ValidationError

from conftest import random_pair

F = Fraction


class TestObjectives:
    def test_indicator_weak(self):
        obj = indicator_objective(3)
        assert obj.coeffs == ((1, 0, 0), (1, 1, 0), (1, 1, 1))

    def test_indicator_strict(self):
        obj = indicator_objective(3, strict=True)
        assert obj.coeffs == ((0, 0, 0), (1, 0, 0), (1, 1, 0))

    def test_sign(self):
        obj = sign_objective(3)
        assert obj.coeffs == ((0, -1, -1), (1, 0, -1), (1, 1, 0))

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            LinearObjective(((1, 2), (3,)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError):
            LinearObjective(((0, bad), (1, 0)))

    def test_huge_exact_coefficient_accepted(self, taste_pair):
        big = 10**400
        obj = LinearObjective(((big, 0, 0), (0, 0, 0), (0, 0, 0)))
        assert optimize(taste_pair, obj, "max")[0] == big * F(1, 5)


class TestOptimize:
    def test_exact_tau_range(self, taste_pair):
        obj = indicator_objective(3)
        lo, _ = optimize(taste_pair, obj, "min")
        hi, _ = optimize(taste_pair, obj, "max")
        assert (lo, hi) == (F(2, 5), F(4, 5))

    def test_exact_eta_range(self, taste_pair):
        obj = indicator_objective(3, strict=True)
        lo, _ = optimize(taste_pair, obj, "min")
        hi, _ = optimize(taste_pair, obj, "max")
        assert (lo, hi) == (F(1, 5), F(3, 5))

    def test_argmatrix_is_feasible(self, taste_pair):
        _, P = optimize(taste_pair, indicator_objective(3), "max")
        assert P.margins().treated.probs == taste_pair.treated.probs
        assert P.margins().control.probs == taste_pair.control.probs

    def test_all_ones_objective(self, taste_pair):
        obj = LinearObjective(tuple(tuple(1 for _ in range(3)) for _ in range(3)))
        v, _ = optimize(taste_pair, obj, "max")
        assert v == 1

    def test_dimension_mismatch(self, taste_pair):
        with pytest.raises(DimensionMismatch):
            optimize(taste_pair, indicator_objective(4), "max")

    def test_bad_sense(self, taste_pair):
        with pytest.raises(ValueError):
            optimize(taste_pair, indicator_objective(3), "maximize")

    def test_construct_output_evaluates_to_bound(self, taste_pair):
        # round-trip: extremal coupling scored by the LP objective gives the
        # same value the LP reports as the optimum
        P = extremal_coupling(taste_pair, "tau_max")
        obj = indicator_objective(3)
        score = sum(
            obj.coeffs[k][l] * P.matrix[k][l] for k in range(3) for l in range(3)
        )
        hi, _ = optimize(taste_pair, obj, "max")
        assert score == hi


    @pytest.mark.parametrize("scale", [1.0, 1e-13, 1e13])
    def test_pricing_tolerance_follows_the_objective_scale(self, scale):
        m = MarginalPair(MarginalDistribution((0.2, 0.3, 0.5)),
                         MarginalDistribution((0.5, 0.3, 0.2)))
        obj = LinearObjective(tuple(tuple(scale * v for v in r) for r in sign_objective(3).coeffs))
        lo, _ = optimize(m, obj, "min")
        hi, _ = optimize(m, obj, "max")
        assert abs(lo - 0.1 * scale) <= 1e-9 * scale
        assert abs(hi - 0.6 * scale) <= 1e-9 * scale


class TestAlphaBounds:
    def test_known_range(self, taste_pair):
        assert alpha_bounds(taste_pair) == (F(-1, 5), F(1, 5))

    def test_dominated_range(self, dominated_pair):
        assert alpha_bounds(dominated_pair) == (F(1, 5), F(3, 5))

    def test_within_tau_eta_implied_range(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = random_pair(rng, int(rng.integers(2, 6)))
            lo, hi = alpha_bounds(m)
            tl, tu = tau_bounds(m)
            el, eu = eta_bounds(m)
            assert tl + el - 1 - 1e-9 <= lo <= hi <= tu + eu - 1 + 1e-9


class TestOracleAgreement:
    def test_matches_closed_forms(self):
        rng = np.random.default_rng(21)
        for i in range(300):
            J = int(rng.integers(2, 9))
            m = random_pair(rng, J, sparse=(i % 5 == 0))
            tl, tu = tau_bounds(m)
            el, eu = eta_bounds(m)
            w = indicator_objective(J)
            s = indicator_objective(J, strict=True)
            assert optimize(m, w, "min")[0] == pytest.approx(tl, abs=1e-9)
            assert optimize(m, w, "max")[0] == pytest.approx(tu, abs=1e-9)
            assert optimize(m, s, "min")[0] == pytest.approx(el, abs=1e-9)
            assert optimize(m, s, "max")[0] == pytest.approx(eu, abs=1e-9)


OBJECTIVES = {
    "tau": indicator_objective,
    "eta": lambda J: indicator_objective(J, strict=True),
    "sign": sign_objective,
}


def _pairs(J):
    """Seeded dense, sparse and tied pairs at J, each exact and float."""
    rng = np.random.default_rng(100 + J)
    pairs = []
    for exact in (True, False):
        pairs.append(random_pair(rng, J, exact=exact))
        pairs.append(random_pair(rng, J, exact=exact, sparse=True))
        m = random_pair(rng, J, exact=exact)
        pairs.append(MarginalPair(m.treated, m.treated))
    return pairs


def _is_forest(cells, J):
    """No cycle among the cells as edges between row nodes and column nodes."""
    root = list(range(2 * J))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for k, l in cells:
        a, b = find(k), find(J + l)
        if a == b:
            return False
        root[a] = b
    return True


class TestSecondOracle:
    @pytest.mark.parametrize("J", range(2, 21))
    def test_matches_highs(self, J):
        optimize_lp = pytest.importorskip("scipy.optimize")
        # row sums, then column sums, of the row-major J*J variables
        A_eq = np.vstack([np.kron(np.eye(J), np.ones(J)), np.kron(np.ones(J), np.eye(J))])
        for m in _pairs(J):
            b = np.array([float(v) for v in m.treated.probs + m.control.probs])
            for name, make in OBJECTIVES.items():
                obj = make(J)
                c = np.array(obj.coeffs, dtype=float).ravel()
                for sense, flip in (("min", 1), ("max", -1)):
                    value, _ = optimize(m, obj, sense)
                    ref = optimize_lp.linprog(flip * c, A_eq=A_eq, b_eq=b, bounds=(0, None),
                                              method="highs")
                    assert ref.status == 0
                    assert float(value) == pytest.approx(flip * ref.fun, abs=1e-9), (name, sense)

    @pytest.mark.parametrize("J", [2, 3, 5, 8, 12, 20])
    def test_argmatrix_is_a_vertex(self, J):
        for m in _pairs(J):
            for make in OBJECTIVES.values():
                for sense in ("min", "max"):
                    _, P = optimize(m, make(J), sense)
                    cells = [(k, l) for k in range(J) for l in range(J) if P.matrix[k][l] != 0]
                    assert len(cells) <= 2 * J - 1
                    assert _is_forest(cells, J)


class TestDegenerateInput:
    J = 20

    def _check(self, m):
        tl, tu = tau_bounds(m)
        el, eu = eta_bounds(m)
        want = {"tau": (tl, tu), "eta": (el, eu)}
        for name, make in OBJECTIVES.items():
            lo, P_lo = optimize(m, make(self.J), "min")
            hi, P_hi = optimize(m, make(self.J), "max")
            assert P_lo.margins() == m and P_hi.margins() == m
            if name in want:
                assert (lo, hi) == want[name]
        return alpha_bounds(m)

    def test_tied_margins_exact(self):
        rng = np.random.default_rng(7)
        p = random_pair(rng, self.J, exact=True).treated
        lo, hi = self._check(MarginalPair(p, p))
        assert lo < 0 < hi

    def test_point_identified_halves_exact(self):
        # treated on the upper half, control on the lower half, touching in
        # one category: tau = 1 is point identified
        J, h = self.J, self.J // 2
        p1 = MarginalDistribution(tuple(F(1, J - h) if k >= h else F(0) for k in range(J)))
        p0 = MarginalDistribution(tuple(F(1, h + 1) if k <= h else F(0) for k in range(J)))
        m = MarginalPair(p1, p0)
        assert tau_bounds(m) == (1, 1)
        lo, hi = self._check(m)
        assert lo <= hi == 1
