from fractions import Fraction

import numpy as np
import pytest

from ordbounds import (
    JointDistribution,
    estimands_of_joint,
    eta_bounds,
    extremal_coupling,
    triangular_transport,
    stochastically_dominates,
    tau_bounds,
)
from ordbounds.bounds import construction_indices
from ordbounds.distributions import MarginalPair, delta_effects
from ordbounds.exceptions import DominanceViolated, LengthMismatch

from conftest import frac_pair, random_pair

F = Fraction


class TestTriangularTransport:
    def test_single_entry_base_case(self):
        t = triangular_transport((0.7,), (0.5,), "a")
        assert t.orientation == "lower"
        assert t.matrix == ((0.5,),)

    def test_variant_a_contract(self):
        x = (F(2, 5), F(1, 5), F(2, 5))
        y = (F(1, 5), F(1, 5), F(1, 5))
        t = triangular_transport(x, y, "a")
        mat = t.matrix
        # lower triangular
        for i in range(3):
            for j in range(i + 1, 3):
                assert mat[i][j] == 0
        # column sums equal y, row sums at most x
        for j in range(3):
            assert sum(mat[i][j] for i in range(3)) == y[j]
        for i in range(3):
            assert sum(mat[i]) <= x[i]

    def test_equal_totals_gives_equalities(self):
        # when the totals match, all inequalities tighten to equalities
        x = (F(1, 5), F(3, 5), F(1, 5))
        y = (F(1, 5), F(1, 5), F(3, 5))
        for variant in "abcd":
            try:
                t = triangular_transport(x, y, variant)
            except DominanceViolated:
                continue
            mat = t.matrix
            rows = tuple(sum(r) for r in mat)
            cols = tuple(sum(mat[i][j] for i in range(3)) for j in range(3))
            if variant in ("a", "c"):
                assert rows == x and cols == y
            else:
                assert rows == x and cols == y

    def test_dominance_violated_reports_index(self):
        with pytest.raises(DominanceViolated) as err:
            triangular_transport((0.2, 0.2), (0.5, 0.4), "a")
        assert err.value.index == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            triangular_transport((0.5, 0.5), (0.5,), "a")

    def test_random_equal_total_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            x = rng.dirichlet(np.ones(n))
            # y = reversed cumulative-compatible vector: use a permutation of x
            y = x[rng.permutation(n)]
            for variant in "abcd":
                try:
                    t = triangular_transport(tuple(x), tuple(y), variant)
                except DominanceViolated:
                    continue
                mat = np.array(t.matrix)
                assert (mat >= 0).all()
                assert np.allclose(mat.sum(axis=1), x, atol=1e-9)
                assert np.allclose(mat.sum(axis=0), y, atol=1e-9)


class TestExtremalCouplings:
    def test_independent_matches_outer_product(self, taste_pair):
        P = extremal_coupling(taste_pair, "independent")
        expected = (
            (F(2, 25), F(1, 25), F(2, 25)),
            (F(6, 25), F(3, 25), F(6, 25)),
            (F(2, 25), F(1, 25), F(2, 25)),
        )
        assert P.matrix == expected

    def test_tau_max_attains_upper(self, taste_pair):
        P = extremal_coupling(taste_pair, "tau_max")
        tau, _, _ = estimands_of_joint(P)
        assert tau == tau_bounds(taste_pair)[1]

    def test_tau_min_attains_lower(self, taste_pair):
        P = extremal_coupling(taste_pair, "tau_min")
        tau, _, _ = estimands_of_joint(P)
        assert tau == tau_bounds(taste_pair)[0] == F(2, 5)
        assert P.margins().treated.probs == taste_pair.treated.probs
        assert P.margins().control.probs == taste_pair.control.probs

    def test_tau_max_dominated_matches_printed_matrix(self, dominated_pair):
        P = extremal_coupling(dominated_pair, "tau_max")
        expected = (
            (F(1, 5), 0, 0),
            (0, F(1, 5), 0),
            (F(2, 5), 0, F(1, 5)),
        )
        assert tuple(tuple(v for v in r) for r in P.matrix) == expected

    def test_eta_targets(self, taste_pair):
        el, eu = eta_bounds(taste_pair)
        Pl = extremal_coupling(taste_pair, "eta_min")
        Pu = extremal_coupling(taste_pair, "eta_max")
        assert estimands_of_joint(Pl)[1] == el
        assert estimands_of_joint(Pu)[1] == eu

    def test_unknown_target(self, taste_pair):
        with pytest.raises(ValueError):
            extremal_coupling(taste_pair, "tau_mid")

    def test_attainment_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            J = int(rng.integers(2, 9))
            m = random_pair(rng, J)
            tl, tu = tau_bounds(m)
            el, eu = eta_bounds(m)
            for target, want in (
                ("tau_min", tl), ("tau_max", tu), ("eta_min", el), ("eta_max", eu)
            ):
                P = extremal_coupling(m, target)
                mat = np.array(P.matrix, dtype=float)
                assert (mat >= 0).all()
                assert np.allclose(mat.sum(axis=1), m.treated.probs, atol=1e-12)
                assert np.allclose(mat.sum(axis=0), m.control.probs, atol=1e-12)
                tau, eta, _ = estimands_of_joint(P)
                got = tau if target.startswith("tau") else eta
                assert got == pytest.approx(want, abs=1e-12)

    def test_monotone_coupling_under_dominance(self):
        # when the treated arm dominates, the tau_max coupling concentrates
        # on {Y(1) >= Y(0)}: lower triangular
        rng = np.random.default_rng(13)
        found = 0
        while found < 50:
            m = random_pair(rng, int(rng.integers(2, 6)))
            if not stochastically_dominates(m):
                continue
            found += 1
            P = extremal_coupling(m, "tau_max")
            mat = np.array(P.matrix, dtype=float)
            assert np.allclose(np.triu(mat, 1), 0, atol=1e-12)


def edge_tau_min(p1, p0, j2):
    """tau_min coupling by the dedicated constructions for a lower-bound
    split at j2 = 0 or j2 = J - 1 (the general construction covers both)."""
    J = len(p1)
    P = [[0] * J for _ in range(J)]
    tr = triangular_transport(p1[: J - 1], p0[1:], "d" if j2 == 0 else "b").matrix
    for k in range(J - 1):
        for l in range(J - 1):
            P[k][l + 1] = tr[k][l]
    if j2 == 0:
        P[J - 1][0] = p1[J - 1]
        for k in range(J - 1):
            P[k][0] = p1[k] - sum(P[k][1:])
    else:
        for l in range(J):
            P[J - 1][l] = p0[l] - sum(P[k][l] for k in range(J - 1))
    return tuple(tuple(r) for r in P)


class TestEdgeSplits:
    """The general tau_min construction reproduces the edge constructions
    exactly, for tau_min and for eta_max (tau_min of the swapped pair)."""

    @staticmethod
    def split(m):
        return construction_indices(m.control.probs, delta_effects(m).deltas)[1]

    def test_forced_edges(self):
        bottom = frac_pair([(1, 5), (3, 5), (1, 5)], [(1, 1), (0, 1), (0, 1)])
        top = frac_pair([(0, 1), (0, 1), (1, 1)], [(1, 3), (1, 3), (1, 3)])
        # tau_L = 0: the split at 0 leaves no residual mass to fill
        empty = frac_pair([(1, 1), (0, 1), (0, 1)], [(0, 1), (0, 1), (1, 1)])
        assert [self.split(m) for m in (bottom, top, empty)] == [0, 2, 0]
        for m in (bottom, top, empty):
            got = extremal_coupling(m, "tau_min").matrix
            want = edge_tau_min(m.treated.probs, m.control.probs, self.split(m))
            assert got == want
            assert [type(v) for row in got for v in row] == [type(v) for row in want for v in row]

    def test_random_exact_pairs(self):
        rng = np.random.default_rng(31)
        seen = {"tau_min": set(), "eta_max": set()}
        for _ in range(400):
            J = int(rng.integers(2, 8))
            m = random_pair(rng, J, exact=True, sparse=bool(rng.integers(2)))
            sw = MarginalPair(m.control, m.treated)
            for target, pair in (("tau_min", m), ("eta_max", sw)):
                j2 = self.split(pair)
                if j2 not in (0, J - 1):
                    continue
                seen[target].add(j2 == 0)
                want = edge_tau_min(pair.treated.probs, pair.control.probs, j2)
                got = extremal_coupling(m, target).matrix
                assert got == (want if target == "tau_min" else tuple(zip(*want)))
        assert seen == {"tau_min": {True, False}, "eta_max": {True, False}}
