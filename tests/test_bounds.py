from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordbounds import (
    MarginalDistribution,
    MarginalPair,
    eta_bounds,
    full_report,
    independent_estimands,
    point_identified,
    stochastically_dominates,
    study2_truth,
    tau_bounds,
)
from ordbounds import bounds
from ordbounds.bounds import COLUMNS, bound_rows, weighted_report
from ordbounds.estimation import adjusted_bounds_from_strata

from conftest import frac_pair, random_pair

F = Fraction


class TestGoldenValues:
    def test_tau_no_dominance(self, taste_pair):
        assert tau_bounds(taste_pair) == (F(2, 5), F(4, 5))

    def test_eta_no_dominance(self, taste_pair):
        assert eta_bounds(taste_pair) == (F(1, 5), F(3, 5))

    def test_independent_no_dominance(self, taste_pair):
        assert independent_estimands(taste_pair) == (F(16, 25), F(9, 25))

    def test_tau_with_dominance(self, dominated_pair):
        assert tau_bounds(dominated_pair) == (F(3, 5), 1)

    def test_eta_with_dominance(self, dominated_pair):
        assert eta_bounds(dominated_pair) == (F(2, 5), F(4, 5))

    def test_independent_with_dominance(self, dominated_pair):
        assert independent_estimands(dominated_pair) == (F(22, 25), F(3, 5))

    def test_full_report(self, taste_pair):
        rep = full_report(taste_pair)
        assert (rep.tau_L, rep.tau_I, rep.tau_U) == (F(2, 5), F(16, 25), F(4, 5))
        assert (rep.eta_L, rep.eta_I, rep.eta_U) == (F(1, 5), F(9, 25), F(3, 5))
        assert not rep.dominance
        assert not rep.tau_point_identified
        assert not rep.eta_point_identified

    def test_degenerate_point_mass(self):
        m = frac_pair([(1, 1), (0, 1)], [(1, 1), (0, 1)])
        assert tau_bounds(m) == (1, 1)
        assert eta_bounds(m) == (0, 0)


class TestPointIdentification:
    def test_not_identified(self, taste_pair):
        assert not point_identified(taste_pair, "tau")
        assert not point_identified(taste_pair, "eta")

    def test_unknown_estimand(self, taste_pair):
        with pytest.raises(ValueError, match="unknown estimand 'alpha'"):
            point_identified(taste_pair, "alpha")

    def test_identical_point_masses(self):
        m = frac_pair([(1, 1), (0, 1), (0, 1)], [(1, 1), (0, 1), (0, 1)])
        assert point_identified(m, "tau")
        assert point_identified(m, "eta")

    def test_disjoint_supports(self):
        # all treated mass above all control mass: tau and eta identified at 1
        m = frac_pair([(0, 1), (0, 1), (1, 1)], [(1, 2), (1, 2), (0, 1)])
        assert point_identified(m, "tau")
        assert point_identified(m, "eta")
        assert tau_bounds(m) == (1, 1)
        assert eta_bounds(m) == (1, 1)

    def test_agrees_with_bound_equality_on_sparse_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            m = random_pair(rng, int(rng.integers(2, 6)), exact=True, sparse=True)
            tl, tu = tau_bounds(m)
            el, eu = eta_bounds(m)
            assert point_identified(m, "tau") == (tl == tu)
            assert point_identified(m, "eta") == (el == eu)


def float_pair(J, draw):
    p1 = np.array(draw, dtype=float)[:J]
    p1 = p1 / p1.sum()
    p0 = np.array(draw, dtype=float)[J:]
    p0 = p0 / p0.sum()
    return MarginalPair(
        MarginalDistribution(tuple(p1)), MarginalDistribution(tuple(p0))
    )


positive_lists = st.integers(2, 7).flatmap(
    lambda J: st.lists(
        st.floats(0.01, 1.0, allow_nan=False), min_size=2 * J, max_size=2 * J
    ).map(lambda xs: (J, xs))
)


class TestProperties:
    @given(positive_lists)
    @settings(max_examples=300, deadline=None)
    def test_sandwich_and_range(self, Jxs):
        J, xs = Jxs
        m = float_pair(J, xs)
        tl, tu = tau_bounds(m)
        el, eu = eta_bounds(m)
        ti, ei = independent_estimands(m)
        eps = 1e-12
        assert -eps <= tl <= ti + eps <= tu + 2 * eps <= 1 + 3 * eps
        assert -eps <= el <= ei + eps <= eu + 2 * eps <= 1 + 3 * eps

    @given(positive_lists)
    @settings(max_examples=300, deadline=None)
    def test_label_switch_duality(self, Jxs):
        # reversing category order and swapping arms maps tau to itself
        J, xs = Jxs
        m = float_pair(J, xs)
        sw = MarginalPair(
            MarginalDistribution(m.control.probs[::-1]),
            MarginalDistribution(m.treated.probs[::-1]),
        )
        tl, tu = tau_bounds(m)
        sl, su = tau_bounds(sw)
        assert tl == pytest.approx(sl, abs=1e-12)
        assert tu == pytest.approx(su, abs=1e-12)

    @given(positive_lists)
    @settings(max_examples=300, deadline=None)
    def test_upper_is_one_iff_dominance(self, Jxs):
        J, xs = Jxs
        m = float_pair(J, xs)
        _, tu = tau_bounds(m)
        if stochastically_dominates(m):
            assert tu == pytest.approx(1.0, abs=1e-12)
        else:
            assert tu < 1

    @given(positive_lists)
    @settings(max_examples=200, deadline=None)
    def test_alpha_consistency(self, Jxs):
        # tau + eta - 1 of the independent coupling stays within the sharp
        # alpha range implied by the tau/eta bounds
        J, xs = Jxs
        m = float_pair(J, xs)
        ti, ei = independent_estimands(m)
        tl, tu = tau_bounds(m)
        el, eu = eta_bounds(m)
        assert tl + el - 1 <= ti + ei - 1 + 1e-9 <= tu + eu - 1 + 2e-9


class TestVectorized:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(3)
        J = 4
        p1 = rng.dirichlet(np.ones(J), size=50)
        p0 = rng.dirichlet(np.ones(J), size=50)
        rows = bound_rows(p1, p0)
        for i in range(50):
            m = MarginalPair(
                MarginalDistribution(tuple(p1[i])), MarginalDistribution(tuple(p0[i]))
            )
            a, b = tau_bounds(m)
            c, d = eta_bounds(m)
            e, f = independent_estimands(m)
            assert np.allclose(rows[i], [a, e, b, c, f, d], atol=1e-12)

    def test_broadcast_shape(self):
        rng = np.random.default_rng(4)
        p1 = rng.dirichlet(np.ones(3), size=(5, 7))
        p0 = rng.dirichlet(np.ones(3), size=(5, 7))
        rows = bound_rows(p1, p0)
        assert rows.shape == (5, 7, len(COLUMNS))
        assert (rows[..., 0] <= rows[..., 2] + 1e-12).all()


def scalar_rows(p1, p0):
    """COLUMNS of one pair by the textbook formulas, written as loops."""
    J = len(p1)
    d = [sum(p1[j:]) - sum(p0[j:]) for j in range(J)]
    return [
        max(p0[j] + d[j] for j in range(J)),
        sum(p1[k] * p0[l] for k in range(J) for l in range(k + 1)),
        1 + min(d),
        max(d),
        sum(p1[k] * p0[l] for k in range(J) for l in range(k)),
        1 + min(d[j] - p1[j] for j in range(J)),
    ]


class TestKernel:
    def test_object_arrays_equal_fraction_formulas(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            m = random_pair(rng, int(rng.integers(2, 9)), exact=True,
                            sparse=bool(rng.integers(2)))
            p1, p0 = m.treated.probs, m.control.probs
            rows = bound_rows(np.array(p1, dtype=object), np.array(p0, dtype=object))
            got = rows.tolist()
            assert got == scalar_rows(p1, p0)
            assert all(isinstance(v, (Fraction, int)) for v in got)

    def test_gap_rule_agrees_with_support_criterion(self):
        rng = np.random.default_rng(6)
        for exact in (False, True):
            for _ in range(400):
                m = random_pair(rng, int(rng.integers(2, 9)), exact=exact, sparse=True)
                rep = full_report(m)
                assert rep.tau_point_identified == point_identified(m, "tau")
                assert rep.eta_point_identified == point_identified(m, "eta")

    def test_float_strata_match_exact_twin(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            J = int(rng.integers(2, 7))
            pairs = [random_pair(rng, J, exact=True, sparse=True) for _ in range(3)]
            raw = rng.integers(1, 10, size=3)
            weights = [Fraction(int(r), int(raw.sum())) for r in raw]
            exact = adjusted_bounds_from_strata(list(zip(weights, pairs)))
            floats = adjusted_bounds_from_strata([
                (float(w), MarginalPair(
                    MarginalDistribution(tuple(float(p) for p in m.treated.probs)),
                    MarginalDistribution(tuple(float(p) for p in m.control.probs))))
                for w, m in zip(weights, pairs)
            ])
            assert isinstance(exact.tau_L, Fraction) and isinstance(floats.tau_L, float)
            assert np.allclose([float(getattr(floats, c)) for c in COLUMNS],
                               [float(getattr(exact, c)) for c in COLUMNS], atol=1e-12, rtol=0)
            assert np.allclose(floats.deltas.deltas, [float(d) for d in exact.deltas.deltas],
                               atol=1e-12, rtol=0)
            flags = ("dominance", "tau_point_identified", "eta_point_identified",
                     "argmin_delta_index", "argmax_lower_index")
            assert [getattr(floats, f) for f in flags] == [getattr(exact, f) for f in flags]


def trailing_rows(p1, p0, one):
    """The kernel as it was before J moved to a leading axis: every
    reduction over the trailing axis of p1, p0 (..., J)."""
    d = np.cumsum(p1[..., ::-1], axis=-1)[..., ::-1]
    d -= np.cumsum(p0[..., ::-1], axis=-1)[..., ::-1]
    d[..., 0] = 0
    rows = np.empty(d.shape[:-1] + (len(COLUMNS),), dtype=d.dtype)
    rows[..., 0] = (p0 + d).max(axis=-1)
    rows[..., 2] = one + d.min(axis=-1)
    rows[..., 3] = d.max(axis=-1)
    d -= p1
    rows[..., 5] = one + d.min(axis=-1)
    F0 = np.cumsum(p0, axis=-1)
    rows[..., 1] = (p1 * F0).sum(axis=-1)
    F0 -= p0
    rows[..., 4] = (p1 * F0).sum(axis=-1)
    return rows


def stacks(rng, shape, J):
    """Dirichlet marginal pairs (*shape, J), with a quarter of them sparse."""
    p1 = rng.dirichlet(np.ones(J), size=shape)
    p0 = rng.dirichlet(np.ones(J), size=shape)
    kill = rng.random(p1.shape) < 0.25
    kill[..., 0] = False
    p1 = np.where(kill, 0.0, p1)
    return p1 / p1.sum(axis=-1, keepdims=True), p0


class TestJLeadingKernel:
    """The kernel's J-leading reductions give the trailing-axis kernel's rows:
    bit for bit for J <= 7, where both sum J terms in order."""

    @pytest.mark.parametrize("J", range(2, 8))
    @pytest.mark.parametrize("shape", [(4, 101), (9, 5), (1001,), ()],
                             ids=["R,B+1", "k,m", "n", "one"])
    def test_floats_equal_the_trailing_kernel(self, J, shape):
        rng = np.random.default_rng([J, len(shape)])
        p1, p0 = stacks(rng, shape, J)
        assert np.array_equal(bounds._rows(p1, p0, 1), trailing_rows(p1, p0, 1))

    @pytest.mark.parametrize("J", range(2, 8))
    def test_strided_views_equal_the_trailing_kernel(self, J, monkeypatch):
        # the randomized stack's layout: arms on the axis before J
        rng = np.random.default_rng(J)
        p = np.stack(stacks(rng, (3, 101), J)[::-1], axis=2)   # (R, B+1, 2, J)
        p1, p0 = p[:, :, 1], p[:, :, 0]
        assert not p1.flags.c_contiguous
        views = [(p1, p0), (p1.transpose(1, 0, 2), p0.transpose(1, 0, 2)),
                 (p1[:, ::-2], p0[:, ::-2])]
        got = [bound_rows(a, b) for a, b in views]
        monkeypatch.setattr(bounds, "_rows", trailing_rows)
        for g, (a, b) in zip(got, views):
            assert np.array_equal(g, bound_rows(a, b))

    def test_exact_arrays_equal_the_trailing_kernel(self, monkeypatch):
        # Fractions, with a point-mass control of Python or numpy ints in half
        # the pairs, one pair at a time and stacked (k, J)
        rng = np.random.default_rng(11)
        cases = []
        for trial in range(60):
            J = int(rng.integers(2, 8))
            m = random_pair(rng, J, exact=True, sparse=True)
            p1 = np.array(m.treated.probs, dtype=object)
            p0 = np.array(m.control.probs, dtype=object)
            if trial % 2:
                p0 = np.array([0] * J, dtype=object)
                p0[int(rng.integers(J))] = np.int64(1) if trial % 4 == 1 else 1
            cases.append((p1, p0))
        for J in range(2, 8):
            same = [c for c in cases if len(c[0]) == J]
            if same:
                cases.append((np.array([c[0] for c in same]),
                              np.array([c[1] for c in same])))
        got = [bound_rows(*c) for c in cases]
        monkeypatch.setattr(bounds, "_rows", trailing_rows)
        want = [bound_rows(*c) for c in cases]
        for g, w in zip(got, want):
            assert g.dtype == object and g.shape == w.shape
            assert g.tolist() == w.tolist()
            assert all(isinstance(v, (Fraction, int)) for v in g.ravel())

    @pytest.mark.parametrize("J", [8, 13, 20, 50])
    def test_long_j_floats_within_1e_15(self, J):
        # past 7 terms numpy's trailing-axis sum is pairwise, the J-leading
        # one sequential, so tau_I and eta_I may differ in the last bits
        rng = np.random.default_rng(J)
        p1, p0 = stacks(rng, (2000,), J)
        got, want = bounds._rows(p1, p0, 1), trailing_rows(p1, p0, 1)
        assert np.array_equal(got[:, [0, 2, 3, 5]], want[:, [0, 2, 3, 5]])
        assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("case", range(1, 7))
    def test_study2_truth_is_bit_identical(self, case, monkeypatch):
        got = study2_truth(case, n_draws=10**6)
        monkeypatch.setattr(bounds, "_rows", trailing_rows)
        assert got == study2_truth(case, n_draws=10**6)


class TestFloatRange:
    """Float rounding must not carry a bound outside [0, 1] or a lower bound
    above its upper bound."""

    @staticmethod
    def assert_in_range(values):
        tl, _, tu, el, _, eu = values
        assert all(0.0 <= v <= 1.0 for v in values)
        assert tl <= tu and el <= eu

    def test_seeded_random_tied_and_dominated_pairs(self):
        rng = np.random.default_rng(9)
        for trial in range(600):
            J = int(rng.integers(2, 51))
            k = int(rng.integers(1, 5))
            pairs = [random_pair(rng, J, sparse=bool(rng.integers(2))) for _ in range(k)]
            p1 = np.array([m.treated.probs for m in pairs])
            p0 = np.array([m.control.probs for m in pairs])
            kind = trial % 4
            if kind == 1:     # tied arms
                p0 = p1.copy()
            elif kind == 2:   # treated mass sorted up, control mass sorted down
                p1, p0 = np.sort(p1, axis=1), np.sort(p0, axis=1)[:, ::-1]
            elif kind == 3:   # control a point mass at the bottom category
                p0 = np.zeros_like(p0)
                p0[:, 0] = 1.0
            for row in bound_rows(p1, p0):
                self.assert_in_range(row.tolist())
            rep = weighted_report(rng.dirichlet(np.ones(k)), p1, p0)
            self.assert_in_range([getattr(rep, c) for c in COLUMNS])
