"""Exact mode on integer numerators over one common denominator.

Every exact result must equal, as Fractions, the result of plain Fraction
arithmetic.  The references below are that arithmetic, written out here: the
bounds kernel on object arrays of Fractions, the weighted report of a stack
of marginal pairs, the transportation simplex with Fraction flows and costs,
and the sum and sign checks of a probability vector.  The draws cover J 2-50 and denominators up to 10^6, among them
vectors whose denominators are distinct primes (so D is their product).
"""

from fractions import Fraction

import numpy as np
import pytest

from ordbounds import (
    JointDistribution,
    MarginalDistribution,
    MarginalPair,
    estimands_of_joint,
    extremal_coupling,
    full_report,
    indicator_objective,
    optimize,
    sign_objective,
    triangular_transport,
)
import ordbounds.distributions as distributions
from ordbounds.bounds import bound_rows, weighted_report
from ordbounds.distributions import _arrays, _check_probs, _common_denominator
from ordbounds.exceptions import NegativeEntry, SumNotOne
from ordbounds.lp_oracle import LinearObjective, _cycle, _northwest_basis, _potentials, _tree

F = Fraction
KINDS = ("common", "coprime", "sparse", "int")


# -- references: plain Fraction arithmetic -----------------------------------

def ref_bound_rows(p1, p0):
    """The bounds kernel on object arrays of Fractions: (..., 6) rows."""
    p1, p0 = np.array(p1, dtype=object), np.array(p0, dtype=object)
    tail = lambda p: np.cumsum(p[..., ::-1], axis=-1)[..., ::-1]
    d = tail(p1) - tail(p0)
    d[..., 0] = 0
    F0 = np.cumsum(p0, axis=-1)
    return np.stack([(p0 + d).max(axis=-1), (p1 * F0).sum(axis=-1), 1 + d.min(axis=-1),
                     d.max(axis=-1), (p1 * (F0 - p0)).sum(axis=-1),
                     1 + (d - p1).min(axis=-1)], axis=-1)


def ref_weighted_report(w, p1, p0):
    """weighted_report in Fraction arithmetic on object arrays w (n,), p1 and
    p0 (n, J): (deltas, j1, j2, dominance, tau and eta point identified, the
    six weighted bounds)."""
    rows = (w @ ref_bound_rows(p1, p0)).tolist()
    tail = lambda p: np.cumsum(p[::-1])[::-1]
    pooled0 = (w @ p0).tolist()
    d = tail(w @ p1) - tail(w @ p0)
    d[0] = 0
    d = d.tolist()
    lower = [p + dj for p, dj in zip(pooled0, d)]
    return (d, d.index(min(d)), lower.index(max(lower)), all(dj >= 0 for dj in d),
            rows[2] - rows[0] <= 0, rows[5] - rows[3] <= 0, rows)


def ref_optimize(m, obj, sense):
    """The transportation simplex on Fraction flows and costs, pricing with
    tolerance 0 and Bland's rule."""
    J = m.J
    cvals = [[F(v) for v in r] for r in obj.coeffs]
    flip = -1 if sense == "max" else 1
    c = [[flip * v for v in r] for r in cvals]
    flow = _northwest_basis([F(v) for v in m.treated.probs],
                            [F(v) for v in m.control.probs], J, F(0))
    while True:
        parent, up, depth, order = _tree(flow, J)
        pot = _potentials(c, parent, up, order, F(0))
        entering = next(((i, j) for i in range(J) for j in range(J)
                         if (i, j) not in flow and c[i][j] - pot[i] - pot[J + j] < 0), None)
        if entering is None:
            break
        i, j = entering
        path = _cycle(parent, up, depth, J + j, i)
        leaving = min(path[0::2], key=lambda cell: (flow[cell], cell))
        theta = flow[leaving]
        for cell in path[0::2]:
            flow[cell] -= theta
        for cell in path[1::2]:
            flow[cell] += theta
        del flow[leaving]
        flow[entering] = theta
    x = [[flow.get((k, l), F(0)) for l in range(J)] for k in range(J)]
    return sum(cvals[k][l] * x[k][l] for k in range(J) for l in range(J)), x


def ref_check_probs(values, what):
    """The sign and sum checks of an exact probability vector."""
    for v in values:
        if v < 0:
            raise NegativeEntry(f"{what} has negative entry {v}")
    total = sum(values)
    if total != 1:
        raise SumNotOne(f"{what} sums to {total}, deviation {total - 1}")


def outcome(check, values):
    try:
        check(values, "vector")
    except (NegativeEntry, SumNotOne) as e:
        return type(e), str(e)
    return None


# -- draws -------------------------------------------------------------------

def primes(rng, k, lo=2, hi=10**6):
    """k distinct primes in [lo, hi)."""
    found = set()
    while len(found) < k:
        q = int(rng.integers(lo, hi))
        if q > 1 and all(q % f for f in range(2, int(q ** 0.5) + 1)):
            found.add(q)
    return sorted(found)


def draw(rng, J, kind):
    """An exact probability vector over J categories.

    common: weights over one denominator n up to 10^6 (reduced entry by
    entry); coprime: the first J-1 entries over distinct primes, the last the
    remainder; sparse: common with about half the entries the int 0; int: a
    unit vector of ints."""
    if kind == "int":
        v = [0] * J
        v[int(rng.integers(J))] = 1
        return v
    if kind == "coprime":
        v = [F(int(rng.integers(q // J)), q) for q in primes(rng, J - 1, lo=J)]
        return v + [1 - sum(v)]
    n = int(rng.integers(J, 10**6))
    w = rng.multinomial(n, rng.dirichlet(np.ones(J)))
    v = [F(int(x), n) for x in w]
    if kind == "sparse":
        keep = rng.random(J) < 0.5
        keep[int(rng.integers(J))] = True
        w = np.where(keep, w, 0)
        v = [F(int(x), int(w.sum())) if x else 0 for x in w]
    return v


def pairs(seed, Js, per_kind=2):
    rng = np.random.default_rng(seed)
    for J in Js:
        for k1 in KINDS:
            for k0 in KINDS:
                for _ in range(per_kind):
                    yield draw(rng, J, k1), draw(rng, J, k0)


def pair(p1, p0):
    return MarginalPair(MarginalDistribution(p1), MarginalDistribution(p0))


# -- tests -------------------------------------------------------------------

class TestBoundRows:
    JS = (2, 3, 4, 5, 7, 10, 15, 20, 30, 40, 50)

    def test_equal_reference(self):
        for p1, p0 in pairs(171, self.JS, per_kind=1):
            got = bound_rows(*_arrays(p1, p0))
            assert got.tolist() == ref_bound_rows(p1, p0).tolist()
            assert all(type(v) is F for v in got.tolist())

    def test_stacked_input(self):
        # one common denominator for the whole stack, rows as computed alone
        rng = np.random.default_rng(172)
        for J in (2, 5, 12, 50):
            p1 = [[draw(rng, J, KINDS[(i + j) % 4]) for j in range(3)] for i in range(2)]
            p0 = [[draw(rng, J, KINDS[(i * j) % 4]) for j in range(3)] for i in range(2)]
            got = bound_rows(np.array(p1, dtype=object), np.array(p0, dtype=object))
            assert got.shape == (2, 3, 6)
            assert got.tolist() == ref_bound_rows(p1, p0).tolist()

    def test_report_from_numerators(self):
        for p1, p0 in pairs(173, (2, 6, 25), per_kind=1):
            rep = full_report(pair(p1, p0))
            want = ref_bound_rows(p1, p0).tolist()
            assert [rep.tau_L, rep.tau_I, rep.tau_U, rep.eta_L, rep.eta_I, rep.eta_U] == want


class TestWeightedReport:
    """The exact report of a stack, computed on integer numerators, against
    Fraction arithmetic on the same stack."""

    @staticmethod
    def stacks(seed):
        rng = np.random.default_rng(seed)
        for J in (2, 3, 5, 8, 13, 21, 34, 50):
            for n in (2, 3, 5):
                for k in range(4):
                    yield (np.array(draw(rng, n, KINDS[k]), dtype=object),
                           np.array([draw(rng, J, KINDS[(k + i) % 4]) for i in range(n)],
                                    dtype=object),
                           np.array([draw(rng, J, KINDS[(k + 2 * i + 1) % 4]) for i in range(n)],
                                    dtype=object))

    @staticmethod
    def summary(rep):
        return (list(rep.deltas.deltas), rep.argmin_delta_index, rep.argmax_lower_index,
                rep.dominance, rep.tau_point_identified, rep.eta_point_identified,
                [rep.tau_L, rep.tau_I, rep.tau_U, rep.eta_L, rep.eta_I, rep.eta_U])

    def test_equal_reference(self):
        for w, p1, p0 in self.stacks(179):
            got = self.summary(weighted_report(w, p1, p0))
            want = ref_weighted_report(w, p1, p0)
            assert got == want
            assert [type(v) for v in got[3:6]] == [bool] * 3
            # delta_0 is the int 0, every other delta and bound a Fraction;
            # Fraction arithmetic gives the same types unless all the
            # numbers it adds up are ints
            assert [type(v) for v in got[0]] == [int] + [F] * (len(got[0]) - 1)
            assert all(type(v) is F for v in got[6])
            if not any(type(v) is int for a in (w, p1, p0) for v in a.ravel()):
                assert [type(v) for v in want[0]] == [type(v) for v in got[0]]

    def test_identified_and_dominated_stacks(self):
        # every row the same pair: the pooled report is the pair's own
        seen = set()
        for p1, p0 in [([F(1, 2), F(1, 2), 0], [0, F(1, 2), F(1, 2)]),
                       ([0, F(1, 3), F(2, 3)], [F(1, 3), F(2, 3), 0]),
                       ([F(1, 4)] * 4, [F(1, 4)] * 4)]:
            w = np.array([F(1, 6), F(1, 3), F(1, 2)], dtype=object)
            stack = [np.array([v] * 3, dtype=object) for v in (p1, p0)]
            got = self.summary(weighted_report(w, *stack))
            assert got == ref_weighted_report(w, *stack)
            assert got == self.summary(full_report(pair(p1, p0)))
            seen.add(got[3:6])
        assert {s[0] for s in seen} == {True, False}
        assert {s[1] for s in seen} == {True, False} and {s[2] for s in seen} == {True, False}


class TestOracle:
    OBJECTIVES = [(name, sense) for name in ("tau", "eta", "sign") for sense in ("min", "max")]

    @staticmethod
    def objective(name, J):
        return {"tau": indicator_objective(J), "eta": indicator_objective(J, strict=True),
                "sign": sign_objective(J)}[name]

    @pytest.mark.parametrize("name, sense", OBJECTIVES)
    def test_equal_reference(self, name, sense):
        for p1, p0 in pairs(174, (2, 3, 5, 8, 12), per_kind=1):
            m = pair(p1, p0)
            obj = self.objective(name, m.J)
            value, mat = optimize(m, obj, sense)
            want, x = ref_optimize(m, obj, sense)
            assert type(value) is F and value == want
            assert [list(r) for r in mat.matrix] == x

    def test_fraction_coefficients(self):
        # an objective over its own denominators (Dc > 1)
        rng = np.random.default_rng(175)
        for p1, p0 in pairs(176, (2, 4, 9), per_kind=1):
            J = len(p1)
            obj = LinearObjective(tuple(
                tuple(F(int(rng.integers(-20, 21)), int(rng.choice([1, 2, 3, 7, 999983])))
                      for _ in range(J)) for _ in range(J)))
            assert _common_denominator([v for r in obj.coeffs for v in r])[1] > 1
            for sense in ("min", "max"):
                value, mat = optimize(pair(p1, p0), obj, sense)
                want, x = ref_optimize(pair(p1, p0), obj, sense)
                assert value == want
                assert [list(r) for r in mat.matrix] == x


class TestValidation:
    def test_same_decisions_as_fraction_checks(self):
        D = 999983 * 999979   # about 10^12
        rng = np.random.default_rng(177)
        cases = [draw(rng, J, kind) for J in (2, 7, 50) for kind in KINDS]
        cases += [
            [F(1, 999983), F(1, 999979), 1 - F(1, 999983) - F(1, 999979) + F(1, D)],  # off by 1/D
            [F(1, 999983), F(1, 999979), 1 - F(1, 999983) - F(1, 999979) - F(1, D)],
            [F(-1, 7), F(8, 7)],   # negative entry, sum one
            [F(1, 2), F(-1, 999983), F(1, 2) + F(1, 999983)],
            [0, 1], [1, 0, 0], [1, 1], [0, 0], [-1, 2], [2, -1, 0],   # int only
            [np.int64(0), np.int64(1)], [np.int64(1), np.int64(1)],
            [F(1, 3), F(1, 3), 0, F(1, 3)],
        ]
        seen = set()
        for values in cases:
            want = outcome(ref_check_probs, values)
            assert outcome(_check_probs, values) == want
            seen.add(None if want is None else want[0])
        assert seen == {None, NegativeEntry, SumNotOne}

    def test_sum_off_by_one_over_D(self):
        D = 999983 * 999979
        values = [F(1, 999983), F(1, 999979), 1 - F(1, 999983) - F(1, 999979) + F(1, D)]
        with pytest.raises(SumNotOne, match=f"deviation 1/{D}"):
            MarginalDistribution(values)


class TestJoint:
    def joints(self, seed):
        # the couplings run on Fractions: at J = 50, only denominators up to 10^6
        rng = np.random.default_rng(seed)
        large = [(draw(rng, 50, k1), draw(rng, 50, k0)) for k1 in KINDS[::2] for k0 in KINDS[::2]]
        for p1, p0 in [*pairs(seed, (2, 3, 6, 13), per_kind=1), *large]:
            m = pair(p1, p0)
            for target in ("tau_min", "tau_max", "eta_min", "eta_max", "independent"):
                yield extremal_coupling(m, target)

    def test_margins_and_estimands_equal_reference(self):
        for P in self.joints(178):
            rows = [list(r) for r in P.matrix]
            J = P.J
            assert P.row_margin().probs == tuple(sum(r) for r in rows)
            assert P.col_margin().probs == tuple(sum(c) for c in zip(*rows))
            tau = sum(rows[k][l] for k in range(J) for l in range(k + 1))
            eta = sum(rows[k][l] for k in range(J) for l in range(k))
            assert estimands_of_joint(P) == (tau, eta, tau + eta - 1)

    def test_int_joint(self):
        P = JointDistribution(((0, 1), (0, 0)))
        assert P.row_margin().probs == (1, 0)
        assert P.col_margin().probs == (0, 1)
        assert estimands_of_joint(P) == (0, 0, -1)

    def test_exact_is_computed_once(self):
        P = JointDistribution(((F(1, 2), 0), (0, F(1, 2))))
        Q = JointDistribution(((F(1, 2), 0), (0, F(1, 2))))
        before = repr(P)
        assert P.exact and "exact" in vars(P)
        assert P == Q and repr(P) == before == repr(Q)
        assert not JointDistribution(((0.5, 0.0), (0.0, 0.5))).exact

    def test_one_common_denominator_pass(self, monkeypatch):
        # validation, margins and estimands share one lcm over the J^2 entries
        sizes = []
        inner = distributions._common_denominator

        def counted(values):
            sizes.append(len(values))
            return inner(values)

        monkeypatch.setattr(distributions, "_common_denominator", counted)
        exact = [P.matrix for P in self.joints(180) if P.exact]
        assert len(exact) > 100
        for matrix in exact:
            sizes.clear()
            P = JointDistribution(matrix)
            P.margins()
            estimands_of_joint(P)
            P.row_margin()
            assert sizes.count(P.J ** 2) == 1


# -- the exact coupling construction on int pairs -----------------------------

def ref_alloc(x, y):
    """The one-pass lower triangular allocation in Fraction arithmetic, as
    the construction ran before int pairs."""
    n = len(x)
    A = [[0] * n for _ in range(n)]
    held = [0] * n
    for j in reversed(range(n)):
        if j == n - 1 or y[j] < x[j]:
            A[j][j] = y[j]
        else:
            A[j][j] = x[j]
            resid = [max(x[k] - held[k], 0) for k in range(j + 1, n)]
            denom = sum(resid)
            if denom > 0:
                for k, r in enumerate(resid, j + 1):
                    A[k][j] = (y[j] - x[j]) * r / denom
                    held[k] += A[k][j]
        held[j] += A[j][j]
    return A


def transpose(mat):
    return [list(c) for c in zip(*mat)]


def reverse(mat):
    return [r[::-1] for r in mat[::-1]]


def ref_transport(x, y, variant):
    x, y = ([F(int(v)) if not isinstance(v, F) else v for v in p] for p in (x, y))
    if variant == "a":
        return ref_alloc(x, y)
    if variant == "b":
        return transpose(ref_alloc(y, x))
    if variant == "c":
        return reverse(transpose(ref_alloc(y[::-1], x[::-1])))
    return reverse(ref_alloc(x[::-1], y[::-1]))


def ref_tau_min(p1, p0, d, J):
    """The tau_min block construction in Fraction arithmetic, split at the
    first index of the largest p0[j] + d[j]."""
    lower = [p + dj for p, dj in zip(p0, d)]
    j2 = lower.index(max(lower))
    P = [[0] * J for _ in range(J)]
    tl = transpose(ref_alloc(p0[1 : j2 + 1], p1[:j2]))
    br = reverse(ref_alloc(p1[j2 : J - 1][::-1], p0[j2 + 1 :][::-1]))
    for k in range(j2):
        P[k][1 : j2 + 1] = tl[k]
    for k in range(J - 1 - j2):
        P[j2 + k][j2 + 1 :] = br[k]
    r = [max(p1[k] - sum(P[k][j2 + 1 :]), 0) for k in range(j2, J)]
    c = [max(p0[l] - sum(P[k][l] for k in range(j2)), 0) for l in range(j2 + 1)]
    m = sum(r)
    for k, rk in enumerate(r):
        P[j2 + k][: j2 + 1] = [rk * cl / m for cl in c] if m > 0 else [rk] * len(c)
    return P


def ref_coupling(p1, p0, target):
    """extremal_coupling's matrix in Fraction arithmetic: tau_max from the
    shifted pair, the eta targets from the swapped pair, transposed."""
    p1, p0 = ([F(int(v)) if not isinstance(v, F) else v for v in p] for p in (p1, p0))
    J = len(p1)
    if target == "independent":
        return [[a * b for b in p0] for a in p1]
    d = [0] + [sum(p1[j:]) - sum(p0[j:]) for j in range(1, J)]
    if target.startswith("eta"):
        p1, p0, d = p0, p1, [-v for v in d]
    if target in ("tau_min", "eta_max"):
        P = ref_tau_min(p1, p0, d, J)
    else:
        Q = ref_tau_min(p0 + [0], [0] + p1, [0] + [-(p + dj) for p, dj in zip(p0, d)], J + 1)
        P = [[Q[l][k + 1] for l in range(J)] for k in range(J)]
    return transpose(P) if target.startswith("eta") else P


COUPLING_KINDS = ("dense", "sparse", "tied", "dominated", "identified", "coprime")


def coupling_weights(rng, J, kind):
    """Treated and control margins as Fractions: dense, sparse (about half
    the cells 0), tied (equal arms), dominated (the treated arm the control
    arm moved up one category), identified (treated on the upper half,
    control on the lower half, touching in one category) or coprime (the
    coprime draw above, so large denominators)."""
    if kind == "coprime":
        return draw(rng, J, "coprime"), draw(rng, J, "coprime")
    w = rng.integers(1, 60, (2, J))
    if kind == "sparse":
        w *= rng.random((2, J)) < 0.5
        w[:, rng.integers(J)] += 1
    elif kind == "tied":
        w[0] = w[1]
    elif kind == "dominated":
        w[0] = np.roll(w[1], 1)
        w[0, 0], w[0, -1] = 0, w[0, -1] + w[1, -1]
    elif kind == "identified":
        w[0, : J // 2] = 0
        w[1, J // 2 + 1 :] = 0
    return tuple([F(int(v), int(r.sum())) for v in r] for r in w)


def mixed(rng, v):
    """v with its integral entries as ints or numpy ints."""
    return [e if e.denominator != 1 else rng.choice([int, np.int64])(int(e)) for e in v]


def unit(J, i, cast):
    return [cast(int(l == i)) for l in range(J)]


def coupling_pairs(seed, Js=(2, 3, 4, 5, 7, 10, 16, 25, 50)):
    """Exact margin pairs of every kind: Fraction entries, and the same pairs
    with mixed entries; unit vectors of ints and of numpy ints."""
    rng = np.random.default_rng(seed)
    for J in Js:
        for kind in COUPLING_KINDS:
            p1, p0 = coupling_weights(rng, J, kind)
            yield p1, p0
            if kind in ("sparse", "identified"):
                yield mixed(rng, p1), mixed(rng, p0)
        for cast in (int, np.int64):
            yield unit(J, int(rng.integers(J)), cast), unit(J, int(rng.integers(J)), cast)
        yield unit(J, 0, int), coupling_weights(rng, J, "dense")[0]


def moved_up(rng, v):
    """v with some of each entry's mass moved to a higher index: its tail
    sums dominate those of v."""
    v = list(v)
    for i in range(len(v)):
        k = int(rng.integers(i, len(v)))
        move = v[i] * F(int(rng.integers(0, 3)), 2)
        v[i] -= move
        v[k] += move
    return v


TARGETS = ("tau_min", "tau_max", "eta_min", "eta_max", "independent")


class TestCouplingOnPairs:
    """The construction on int pairs gives the Fraction construction's
    couplings: equal matrices of Fractions, validated on the same numerators
    over the same D (whose quotients are the entries' floats), with the input
    margins, attaining the target bound."""

    def test_couplings_equal_reference(self):
        seen = set()
        for p1, p0 in coupling_pairs(190):
            m = pair(p1, p0)
            rows = bound_rows(*_arrays(p1, p0)).tolist()
            attained = {"tau_min": (0, rows[0]), "tau_max": (0, rows[2]),
                        "eta_min": (1, rows[3]), "eta_max": (1, rows[5])}
            for target in TARGETS:
                got = extremal_coupling(m, target)
                want = JointDistribution(ref_coupling(p1, p0, target))
                assert got.matrix == want.matrix
                assert all(type(v) is F for r in got.matrix for v in r)
                assert got.exact and got._numerators == want._numerators
                assert got._float_rows() == [[float(v) for v in r] for r in want.matrix]
                assert got.row_margin().probs == tuple(p1)
                assert got.col_margin().probs == tuple(p0)
                tau_eta = estimands_of_joint(got)[:2]
                if target == "independent":
                    assert tau_eta == (rows[1], rows[4])
                else:
                    estimand, bound = attained[target]
                    assert tau_eta[estimand] == bound
                seen.add(type(p1[0]))
        assert seen == {F, int, np.int64}

    def test_transport_variants_equal_reference(self):
        rng = np.random.default_rng(191)
        for J in (1, 2, 3, 5, 8, 13, 21, 34, 50):
            for kind in COUPLING_KINDS:
                lo = coupling_weights(rng, J, kind)[0]
                hi = moved_up(rng, lo)
                extra = [v * F(int(rng.integers(0, 2)), 3) for v in coupling_weights(rng, J, kind)[1]]
                more = lambda v: [a + b for a, b in zip(v, extra)]
                for x, y, variant in ((more(hi), lo, "a"), (lo, more(hi), "b"),
                                      (hi, more(lo), "c"), (more(lo), hi, "d")):
                    for x_, y_ in ((x, y), (mixed(rng, x), mixed(rng, y))):
                        got = triangular_transport(x_, y_, variant).matrix
                        assert got == tuple(map(tuple, ref_transport(x, y, variant)))
                        assert all(type(v) is F for r in got for v in r)

    def test_joint_from_ratios_equals_joint_from_fractions(self):
        for p1, p0 in coupling_pairs(192, Js=(2, 5, 13)):
            for target in TARGETS:
                fractions = ref_coupling(p1, p0, target)
                ratios = [[F(v).as_integer_ratio() for v in r] for r in fractions]
                got = JointDistribution._from_ratios(ratios)
                want = JointDistribution(fractions)
                assert got == want and hash(got) == hash(want)
                assert got.exact and got._numerators == want._numerators
                assert all(type(v) is F for r in got.matrix for v in r)

    @pytest.mark.parametrize("ratios, error", [
        ([[(1, 2), (-1, 6)], [(1, 3), (1, 3)]], NegativeEntry),
        ([[(1, 2), (0, 1)], [(0, 1), (-1, 2)]], NegativeEntry),
        ([[(1, 2), (1, 6)], [(1, 3), (1, 3)]], SumNotOne),
        ([[(1, 2), (1, 6)], [(1, 3), (1, 999983)]], SumNotOne),
        ([[(1, 4), (1, 4)], [(1, 4), (1, 4)]], None),
    ])
    def test_from_ratios_still_validates(self, ratios, error):
        fractions = [[F(*v) for v in r] for r in ratios]
        if error is None:
            assert JointDistribution._from_ratios(ratios) == JointDistribution(fractions)
            return
        with pytest.raises(error) as want:
            JointDistribution(fractions)
        with pytest.raises(error) as got:
            JointDistribution._from_ratios(ratios)
        assert str(got.value) == str(want.value)
