from fractions import Fraction

import numpy as np
import pytest

from ordbounds import (
    JointDistribution,
    TriangularMatrix,
    estimands_of_joint,
    eta_bounds,
    extremal_coupling,
    triangular_transport,
    stochastically_dominates,
    tau_bounds,
)
from ordbounds.bounds import construction_indices
from ordbounds.coupling import _check_tail_dominance, _clamp, _product_fill
from ordbounds.distributions import (
    MarginalDistribution,
    MarginalPair,
    _arrays,
    _deltas,
    _is_exact,
    delta_effects,
)
from ordbounds.exceptions import DominanceViolated, LengthMismatch

from conftest import frac_pair, random_pair

F = Fraction


class TestTriangularMatrix:
    @pytest.mark.parametrize("matrix, orientation, error, message", [
        (((1.0, 0.0),), "lower", LengthMismatch, "must be square"),
        (((0.5, 0.0), (-0.1, 0.6)), "lower", ValueError, r"negative entry at \(1,0\)"),
        (((0.5, 0.5), (0.0, 0.0)), "lower", ValueError, "outside lower triangle"),
        (((0.5, 0.0), (0.5, 0.0)), "upper", ValueError, "outside upper triangle"),
    ], ids=["not square", "negative", "above lower", "below upper"])
    def test_invalid_matrix_rejected(self, matrix, orientation, error, message):
        with pytest.raises(error, match=message):
            TriangularMatrix(matrix, orientation)


class TestTriangularTransport:
    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant 'e'"):
            triangular_transport((0.5, 0.5), (0.5, 0.5), "e")

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
            assert all(type(v) is F for row in got for v in row)

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


# -- references for the one-pass allocation and the tail-sum kernel ---------

def ref_alloc_lower(x, y):
    """The recursive allocation that the one-pass _alloc_lower replaced: peel
    index 0, allocate the rest, fill column 0 from the re-summed row
    residuals of the sub-allocation."""
    n = len(x)
    zero = 0 if _is_exact(x) and _is_exact(y) else 0.0
    if n <= 1:
        return [[_clamp(v)] for v in y]
    sub = ref_alloc_lower(x[1:], y[1:])
    A = [[zero] * n for _ in range(n)]
    for k in range(1, n):
        for l in range(1, n):
            A[k][l] = sub[k - 1][l - 1]
    if y[0] < x[0]:
        A[0][0] = y[0]
    else:
        A[0][0] = x[0]
        resid = [max(x[k] - sum(A[k][1:]), zero) for k in range(1, n)]
        denom = sum(resid)
        if denom > 0:
            for k in range(1, n):
                A[k][0] = _clamp((y[0] - x[0]) * resid[k - 1] / denom)
    return A


def ref_transport(x, y, variant):
    """Variants a-d from the reference allocation, d as the transpose of
    the reversal of the transpose."""
    x, y = list(x), list(y)
    T = lambda m: [list(c) for c in zip(*m)]
    R = lambda m: [r[::-1] for r in m[::-1]]
    if variant == "a":
        mat = ref_alloc_lower(x, y)
    elif variant == "b":
        mat = T(ref_alloc_lower(y, x))
    elif variant == "c":
        mat = R(T(ref_alloc_lower(y[::-1], x[::-1])))
    else:
        mat = T(R(T(ref_alloc_lower(x[::-1], y[::-1]))))
    return tuple(tuple(r) for r in mat)


def ref_tail_sums(v):
    out, acc = [], 0
    for p in reversed(v):
        acc = acc + p
        out.append(acc)
    return out[::-1]


def ref_first_violation(x, y):
    """First s with sum_{r>=s} x_r < sum_{r>=s} y_r beyond the tolerance of
    the allocations, or None."""
    tol = 0 if _is_exact(x) and _is_exact(y) else 1e-9
    slack = [a - b for a, b in zip(ref_tail_sums(x), ref_tail_sums(y))]
    return next((s for s, g in enumerate(slack) if g < -tol), None)


def draw(rng, J, kind):
    """Exact probability vector of length J: dense, sparse (zeroed cells) or
    tied (few distinct values)."""
    if J == 0:
        return []
    if kind == "tied":
        w = rng.integers(0, 3, J)
    else:
        w = rng.integers(1, 60, J) * (rng.random(J) > (0.4 if kind == "sparse" else 0))
    if w.sum() == 0:
        w[rng.integers(J)] = 1
    return [F(int(v), int(w.sum())) for v in w]


def shifted_up(rng, v):
    """v with some of each entry's mass moved to a higher index: its tail
    sums dominate those of v."""
    v = list(v)
    for i in range(len(v)):
        k = int(rng.integers(i, len(v)))
        move = v[i] * F(int(rng.integers(0, 3)), 2)
        v[i] -= move
        v[k] += move
    return v


def types(mat):
    return [type(v) for row in mat for v in row]


class TestOnePassAllocation:
    """The one-pass allocation gives the recursive reference's matrices: the
    same numbers in exact mode, every entry a Fraction, and within one
    rounding in float."""

    @staticmethod
    def cases(seed):
        """(x, y, variant) meeting each variant's dominance condition, with
        equal totals and with surplus mass on the dominating side."""
        rng = np.random.default_rng(seed)
        for J in range(31):
            for kind in ("dense", "sparse", "tied"):
                lo = draw(rng, J, kind)
                hi = shifted_up(rng, lo)
                extra = [v * F(int(rng.integers(0, 2)), 3) for v in draw(rng, J, kind)]
                more = lambda v: [a + b for a, b in zip(v, extra)]
                yield from ((more(hi), lo, "a"), (lo, more(hi), "b"),
                            (hi, more(lo), "c"), (more(lo), hi, "d"))

    def test_exact_variants_equal_reference(self):
        for x, y, variant in self.cases(41):
            got = triangular_transport(x, y, variant).matrix
            want = ref_transport(x, y, variant)
            assert got == want
            assert set(types(got)) <= {F}

    def test_float_variants_within_one_rounding(self):
        for x, y, variant in self.cases(42):
            x, y = [float(v) for v in x], [float(v) for v in y]
            got = np.array(triangular_transport(x, y, variant).matrix, dtype=float)
            want = np.array(ref_transport(x, y, variant), dtype=float)
            assert got.shape == want.shape
            assert np.abs(got - want).max(initial=0.0) <= 2.2e-16


class TestTailSumKernel:
    """tail_sums, delta_effects and the dominance check read one kernel and
    give the values of the loops they replaced."""

    @staticmethod
    def pairs(seed):
        rng = np.random.default_rng(seed)
        for J in range(2, 31):
            for kind in ("dense", "sparse", "tied"):
                a, b = draw(rng, J, kind), draw(rng, J, kind)
                yield a, b
                yield [float(v) for v in a], [float(v) for v in b]

    def test_tail_sums_and_deltas_equal_loops(self):
        for a, b in self.pairs(43):
            m = MarginalPair(MarginalDistribution(a), MarginalDistribution(b))
            t1, t0 = ref_tail_sums(a), ref_tail_sums(b)
            assert m.treated.tail_sums() == tuple(t1)
            assert types([m.treated.tail_sums()]) == types([t1])
            want = [0 if m.exact else 0.0] + [u - v for u, v in zip(t1[1:], t0[1:])]
            assert delta_effects(m).deltas == tuple(want)
            assert types([delta_effects(m).deltas]) == types([want])

    def test_dominance_check_reports_the_loops_first_violation(self):
        rng = np.random.default_rng(44)
        seen = set()
        for a, b in self.pairs(45):
            b = [v * F(int(rng.integers(2, 5)), 3) for v in b]   # unequal totals
            if not isinstance(a[0], F):
                b = [float(v) for v in b]
            for x, y in ((a, b), (b, a)):
                try:
                    _check_tail_dominance(x, y)
                    got = None
                except DominanceViolated as err:
                    got = err.index
                assert got == ref_first_violation(x, y)
                seen.add(got is None)
        assert seen == {True, False}


class TestEtaFromNegatedDeltas:
    def test_eta_targets_equal_swapped_pair_construction(self):
        # eta_max is tau_min and eta_min is tau_max of the swapped pair,
        # transposed, in exact and float mode alike
        rng = np.random.default_rng(46)
        for J in range(2, 31):
            for kind in ("dense", "sparse", "tied"):
                a, b = draw(rng, J, kind), draw(rng, J, kind)
                for p1, p0 in ((a, b), ([float(v) for v in a], [float(v) for v in b])):
                    m = MarginalPair(MarginalDistribution(p1), MarginalDistribution(p0))
                    sw = MarginalPair(m.control, m.treated)
                    for eta, tau in (("eta_max", "tau_min"), ("eta_min", "tau_max")):
                        got = extremal_coupling(m, eta).matrix
                        want = tuple(zip(*extremal_coupling(sw, tau).matrix))
                        assert got == want
                        assert types(got) == types(want)


def ref_tau_max(p1, p0):
    """The tau_max construction that the shifted-pair reading replaced: split
    at j1, a lower triangular allocation above the split, a reversed one
    below and a rank-one fill of the top-right block; one lower triangular
    allocation under stochastic dominance (j1 = 0)."""
    J = len(p1)
    zero = 0 if _is_exact(p1) and _is_exact(p0) else 0.0
    j1, _ = construction_indices(p0, _deltas(*_arrays(p1, p0)).tolist())
    if j1 == 0:
        P = [list(r) for r in triangular_transport(p1, p0, "a").matrix]
    else:
        P = [[zero] * J for _ in range(J)]
        tl = triangular_transport(p1[:j1], p0[:j1], "a").matrix
        br = triangular_transport(p1[j1:], p0[j1:], "c").matrix
        for k in range(j1):
            P[k][:j1] = tl[k]
        for k in range(J - j1):
            P[j1 + k][j1:] = br[k]
        r = [p1[k] - sum(P[k][:j1]) for k in range(j1)]
        c = [p0[l] - sum(P[k][l] for k in range(j1, J)) for l in range(j1, J)]
        tr = _product_fill(r, c)
        for k in range(j1):
            P[k][j1:] = tr[k]
    return tuple(tuple(_clamp(v) for v in row) for row in P)


class TestTauMaxFromShiftedPair:
    """tau_max is the tau_min construction of (Y(0), Y(1) + 1), and eta_min
    that of the swapped pair: the matrices of the dedicated split-at-j1
    construction, equal as Fractions on exact input and within 1e-15 on float
    input."""

    @staticmethod
    def pairs(seed):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            for J in range(2, 13):
                for kind in ("dense", "sparse", "tied"):
                    a, b = draw(rng, J, kind), draw(rng, J, kind)
                    yield a, b
                    yield shifted_up(rng, a), a   # the treated arm dominates
                    yield a, shifted_up(rng, a)   # the control arm dominates

    @staticmethod
    def both(m):
        p1, p0 = list(m.treated.probs), list(m.control.probs)
        return ((extremal_coupling(m, "tau_max").matrix, ref_tau_max(p1, p0)),
                (extremal_coupling(m, "eta_min").matrix, tuple(zip(*ref_tau_max(p0, p1)))))

    def test_exact_pairs_equal_reference(self):
        splits = set()
        for a, b in self.pairs(47):
            m = MarginalPair(MarginalDistribution(a), MarginalDistribution(b))
            splits.add(construction_indices(b, delta_effects(m).deltas)[0] == 0)
            for got, want in self.both(m):
                assert got == want
        assert splits == {True, False}

    def test_float_pairs_within_1e15(self):
        for a, b in self.pairs(48):
            m = MarginalPair(MarginalDistribution([float(v) for v in a]),
                             MarginalDistribution([float(v) for v in b]))
            for got, want in self.both(m):
                got, want = np.array(got, dtype=float), np.array(want, dtype=float)
                assert np.abs(got - want).max() <= 1e-15

    def test_shifted_deltas_and_split(self):
        # the deltas of (p0 + [0], [0] + p1) are 0 and then -(p0[j] + delta_j),
        # and that pair's lower-bound split is the upper-bound split j1
        for a, b in self.pairs(49):
            d = _deltas(*_arrays(a, b)).tolist()
            shifted = [0] + [-(p + dj) for p, dj in zip(b, d)]
            want = _deltas(*_arrays(b + [0], [0] + a)).tolist()
            assert shifted == want
            assert (construction_indices([0] + a, shifted)[1]
                    == construction_indices(b, d)[0])


TARGET_BOUND = {"tau_min": (0, 0), "tau_max": (0, 1), "eta_min": (1, 0), "eta_max": (1, 1)}


def check_construction(m, target, tol):
    """The target's coupling has the margins of m and attains its bound,
    both within tol, and no entry below the smallest input entry."""
    P = np.array(extremal_coupling(m, target).matrix, dtype=float)
    p1, p0 = np.array(m.treated.probs, dtype=float), np.array(m.control.probs, dtype=float)
    assert np.abs(P.sum(axis=1) - p1).max() <= tol
    assert np.abs(P.sum(axis=0) - p0).max() <= tol
    estimand, side = TARGET_BOUND[target]
    attained = estimands_of_joint(JointDistribution(P.tolist()))[estimand]
    assert abs(attained - (tau_bounds, eta_bounds)[estimand](m)[side]) <= tol
    assert P.min() >= min(0.0, p1.min(), p0.min())


class TestValidatedFloatMarginsConstruct:
    """Every margin pair that validation accepts constructs: the blocks of
    the construction are dominated by the split j2 only within the margins'
    own float tolerance, and an entry may be negative within NEG_TOL."""

    def test_arms_off_one_within_sum_tol(self):
        rng = np.random.default_rng(50)
        for _ in range(1500):
            J = int(rng.integers(2, 8))
            arms = [rng.dirichlet(np.ones(J)) * (1 + 9e-10 * rng.choice([-1, 1])) for _ in "10"]
            m = MarginalPair(*(MarginalDistribution(tuple(a.tolist())) for a in arms))
            for target in TARGET_BOUND:
                check_construction(m, target, 2e-9)

    def test_negative_entry_within_neg_tol(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            J = int(rng.integers(2, 8))
            p1, p0 = rng.dirichlet(np.ones(J)), rng.dirichlet(np.ones(J))
            i = int(rng.integers(J))
            k = i + 1 if i + 1 < J and (i == 0 or rng.integers(2)) else i - 1
            eps = float(rng.choice([5e-14, 5e-13]))
            p1[k] += p1[i] + eps
            p1[i] = -eps
            m = MarginalPair(MarginalDistribution(tuple(p1.tolist())),
                             MarginalDistribution(tuple(p0.tolist())))
            for target in TARGET_BOUND:
                check_construction(m, target, 1e-12)


class TestExactIntMargins:
    """Int and numpy-int margins go through the construction as Fractions."""

    TARGETS = ("tau_min", "tau_max", "eta_min", "eta_max", "independent")

    @staticmethod
    def pairs():
        rng = np.random.default_rng(52)
        for J in range(2, 5):
            for i in range(J):
                one_hot = [int(l == i) for l in range(J)]
                yield one_hot, [int(l == J - 1 - i) for l in range(J)]
                yield one_hot, draw(rng, J, "dense")   # ints and Fractions mixed

    def test_exact_joints_equal_fraction_joints(self):
        for a, b in self.pairs():
            want_pair = MarginalPair(MarginalDistribution([F(v) for v in a]),
                                     MarginalDistribution([F(v) for v in b]))
            for cast in (int, np.int64):
                m = MarginalPair(MarginalDistribution([cast(v) if type(v) is int else v for v in a]),
                                 MarginalDistribution([cast(v) if type(v) is int else v for v in b]))
                for target in self.TARGETS:
                    got = extremal_coupling(m, target)
                    assert got.exact
                    assert all(isinstance(v, (F, int)) for row in got.matrix for v in row)
                    assert got.matrix == extremal_coupling(want_pair, target).matrix

    def test_triangular_transport_on_ints_gives_fractions(self):
        for x, y in (((0, 1), (1, 0)), ((0, 0, 1), (1, 0, 0)), ((0, 1, 0), (1, 0, 0))):
            for cast in (int, np.int64):
                for variant, (u, v) in zip("abcd", ((x, y), (y, x), (y[::-1], x[::-1]),
                                                    (x[::-1], y[::-1]))):
                    got = triangular_transport([cast(t) for t in u], [cast(t) for t in v], variant)
                    assert all(type(t) in (F, int) for row in got.matrix for t in row)
                    assert any(type(t) is F for row in got.matrix for t in row)
                    assert got.matrix == triangular_transport([F(t) for t in u], [F(t) for t in v],
                                                              variant).matrix
