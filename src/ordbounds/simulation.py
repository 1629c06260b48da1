"""Monte Carlo study generators and runners.

Study 1: completely randomized experiments drawn from four known joint
distributions of the potential outcomes (independent and positively
associated couplings of two marginal pairs).

Study 2: randomized encouragement designs with noncompliance, generated from
the package's own covariate models on x = (x1, x2), x1 standard normal and
x2 a fair coin: a MultinomialLogitModel for the stratum (complier,
always-taker, never-taker) and a CumulativeLogitModel for each stratum's
outcome (two for the compliers, treated and control, whose slopes set the
case), the model family that em_fit_with_covariates fits.  Inference
deliberately omits the binary covariate, exercising robustness to mild
misspecification.

Study 2's true values are integrals over x: study2_truth_quadrature
computes them by Gauss-Legendre quadrature in x1 for each value of x2, and
study2_truth estimates the same keys by Monte Carlo over covariate draws.

run_study summarises the replicates that succeeded against the true bounds.
Both studies draw each replicate's columns without records (_study1_columns,
_study2_columns; generate_study1 and generate_study2 are their record
wrappers), and each replicate's row is the tau interval of one bootstrap's
Replicates (_tau_row), the pieces the CLI uses.  Study 1 runs as one stack:
the randomized bootstraps of all replicates with the same number of
categories are one inference._randomized_stack, each replicate redrawn from
its own seed.  Study 2 runs one replicate at a time: fit its columns without
x2 and bootstrap that fit (inference._bootstrap).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import bound_rows, full_report
from .coupling import extremal_coupling
from .distributions import (
    JointDistribution,
    MarginalDistribution,
    MarginalPair,
    UnitColumns,
    _arm_counts,
    estimands_of_joint,
)
from .estimation import UnitRecord
from .exceptions import OddN, OrdBoundsError, ReplicateFailure
from .inference import _ESTIMATORS, _bootstrap, _check_n_boot, _intervals, _randomized_stack
from .models import CumulativeLogitModel, MultinomialLogitModel


@dataclass(frozen=True)
class StudySpec:
    study: int
    case_id: int
    n_units: int = 200
    n_reps: int = 1000
    n_boot: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.study not in (1, 2):
            raise ValueError(f"study must be 1 or 2, got {self.study}")
        limit = 4 if self.study == 1 else 6
        if not 1 <= self.case_id <= limit:
            raise ValueError(f"case_id must be 1..{limit} for study {self.study}")
        if self.n_units < 2 or self.n_units % 2:
            raise ValueError(f"n_units must be positive and even, got {self.n_units}")
        if self.n_reps < 2:
            raise ValueError(f"n_reps must be at least 2 (standard errors), got {self.n_reps}")
        _check_n_boot(self.n_boot)


# -- study 1 -----------------------------------------------------------------

_F = Fraction
_PAIR_A = MarginalPair(
    MarginalDistribution((_F(1, 5), _F(3, 5), _F(1, 5))),
    MarginalDistribution((_F(2, 5), _F(1, 5), _F(2, 5))),
)
_PAIR_B = MarginalPair(
    MarginalDistribution((_F(1, 5), _F(1, 5), _F(3, 5))),
    MarginalDistribution((_F(3, 5), _F(1, 5), _F(1, 5))),
)


@functools.cache
def study1_joint(case: int) -> JointDistribution:
    """The case's true joint distribution of (Y(1), Y(0)), built once per
    case (a JointDistribution is immutable)."""
    pair = _PAIR_A if case in (1, 2) else _PAIR_B
    target = "independent" if case in (1, 3) else "tau_max"
    return extremal_coupling(pair, target)


def study1_truth(case: int) -> dict:
    """True tau and its sharp bounds for the case."""
    joint = study1_joint(case)
    tau, eta, alpha = estimands_of_joint(joint)
    rep = full_report(joint.margins())
    return {
        "tau": float(tau), "eta": float(eta),
        "tau_L": float(rep.tau_L), "tau_U": float(rep.tau_U),
        "eta_L": float(rep.eta_L), "eta_U": float(rep.eta_U),
    }


def _balanced_assignment(n, rng):
    if n % 2:
        raise OddN(f"balanced assignment needs an even sample size, got {n}")
    z = np.zeros(n, dtype=int)
    z[: n // 2] = 1
    rng.shuffle(z)
    return z


def _proportional_counts(flat, n):
    """Integer cell counts summing to n, proportional to flat (largest
    remainder rounding)."""
    exact = flat * n
    base = np.floor(exact).astype(int)
    short = n - base.sum()
    order = np.argsort(-(exact - base))
    base[order[:short]] += 1
    return base


@functools.lru_cache(maxsize=8)
def _study1_population(case: int, n: int):
    """The potential outcomes (y1, y0) of the case's n units: a finite
    population proportional to its joint distribution, built once per
    (case, n) and read-only."""
    joint = study1_joint(case)
    J = joint.J
    flat = np.array([[float(v) for v in row] for row in joint.matrix]).ravel()
    cells = np.repeat(np.arange(J * J), _proportional_counts(flat / flat.sum(), n))
    y1, y0 = cells // J, cells % J
    y1.flags.writeable = y0.flags.writeable = False
    return y1, y0


def _study1_columns(case: int, n: int, seed: int) -> UnitColumns:
    """The UnitColumns of generate_study1(case, n, seed), drawn without
    records."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    y1, y0 = _study1_population(case, n)
    z = _balanced_assignment(n, rng)
    return UnitColumns(z, np.where(z == 1, y1, y0), None, np.empty((n, 0)))


def generate_study1(case: int, n: int, seed: int = 0) -> list:
    """n units with potential outcomes forming a finite population
    proportional to the case's joint distribution, with a balanced completely
    randomized assignment.

    The fixed-population design (only the assignment is random) is what makes
    the per-case standard errors differ between couplings that share
    marginals.
    """
    cols = _study1_columns(case, n, seed)
    return [UnitRecord(z=zi, y=yi) for zi, yi in zip(cols.z.tolist(), cols.y.tolist())]


# -- study 2 -----------------------------------------------------------------

# strata on x = (x1, x2): complier the reference, then always- and never-takers
_STRATA = MultinomialLogitModel(("c", "a", "n"), ((0.5, 1.0, 0.0), (-0.5, 1.0, 0.0)))
# outcome models of the always- and never-takers, shared by both arms
_ALWAYS = CumulativeLogitModel((-0.5, 1.0), (-2.0, 0.0))
_NEVER = CumulativeLogitModel((-1.5, 0.0), (0.0, 0.0))


def _complier_models(case: int):
    """Complier treated and control outcome models of the case."""
    if case not in range(1, 7):
        raise ValueError("case must be 1..6")
    if case <= 3:
        beta = {1: 1.0, 2: 0.5, 3: 0.0}[case]
        s1, s0 = (-2 * beta, 0.0), (beta, 0.0)
    else:
        xi = {4: 1.0, 5: 0.5, 6: 0.0}[case]
        s1, s0 = (-2.0, -xi), (1.0, xi)
    return CumulativeLogitModel((-1.0, 0.5), s1), CumulativeLogitModel((0.5, 2.0), s0)


def _draw_categorical(rng, probs):
    """One draw per row of the (n, J) probability matrix."""
    cum = np.cumsum(probs, axis=1)
    u = rng.random(len(probs))
    return (u[:, None] > cum).sum(axis=1)


def _study2_columns(case: int, n: int, seed: int) -> UnitColumns:
    """The UnitColumns of generate_study2(case, n, seed), drawn without
    records."""
    c1, c0 = _complier_models(case)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x1 = rng.standard_normal(n)
    x2 = rng.integers(0, 2, size=n).astype(float)
    X = np.stack([x1, x2], axis=1)
    g = _draw_categorical(rng, _STRATA.predict_proba(X))  # 0=c, 1=a, 2=n
    z = _balanced_assignment(n, rng)
    d = np.where(g == 1, 1, np.where(g == 2, 0, z))

    y = np.empty(n, dtype=int)
    for mask, model in ((g == 1, _ALWAYS), (g == 2, _NEVER),
                        ((g == 0) & (z == 1), c1), ((g == 0) & (z == 0), c0)):
        if mask.any():
            y[mask] = _draw_categorical(rng, model.predict_proba(X[mask]))
    return UnitColumns(z, y, d, X)


def generate_study2(case: int, n: int, seed: int = 0) -> list:
    """Noncompliance study records with x = (x1, x2)."""
    cols = _study2_columns(case, n, seed)
    return [UnitRecord(z=zi, y=yi, d=di, x=tuple(xi))
            for zi, yi, di, xi in zip(cols.z.tolist(), cols.y.tolist(), cols.d.tolist(),
                                      cols.x.tolist())]


def _truth_sums(c1, c0, X, weights) -> np.ndarray:
    """Weighted sums over the covariate rows X (n, 2), with w = weights *
    pi_c(x): one vector (W, sum w p1, sum w p0, sum w bound_rows(p1, p0)) of
    length 1 + 2J + 6, p1 and p0 the complier outcome laws of c1 and c0."""
    # scaled in place: a contiguous copy of the strided column would change the
    # matmuls' summation order, and with it study2_truth's last bits
    w = _STRATA.predict_proba(X)[:, 0]
    w *= weights
    p1 = c1.predict_proba(X)
    p0 = c0.predict_proba(X)
    return np.concatenate(([w.sum()], w @ p1, w @ p0, w @ bound_rows(p1, p0)))


def _truth_summary(sums, total) -> dict:
    """The truth dict of _truth_sums over rows of total weight total.

    Unadjusted bounds apply the closed forms to the marginal complier
    distributions, and tau_c/eta_c are the independent couplings of those
    marginals (the convention behind the published true values; integrating
    conditional independence over the covariates instead gives a smaller
    tau_c).  Adjusted bounds average the conditional bounds given the full
    covariate vector with pi_c(x) weights; the estimators that omit x2
    target a slightly wider interval in the cases where x2 matters.
    """
    J = (len(sums) - 7) // 2
    W, p1_sum, p0_sum, w_rows = np.split(sums, [1, 1 + J, 1 + 2 * J])
    W = float(W[0])
    out = {"pi_c": float(W / total)}
    marg = MarginalPair(
        MarginalDistribution(tuple(p1_sum / p1_sum.sum())),
        MarginalDistribution(tuple(p0_sum / p0_sum.sum())),
    )
    rep = full_report(marg)
    out["tau_c"], out["eta_c"] = float(rep.tau_I), float(rep.eta_I)
    out["tau_c_L"], out["tau_c_U"] = float(rep.tau_L), float(rep.tau_U)
    out["eta_c_L"], out["eta_c_U"] = float(rep.eta_L), float(rep.eta_U)
    tau_l, _, tau_u, eta_l, _, eta_u = (w_rows / W).tolist()
    out["tau_c_L_adj"], out["tau_c_U_adj"] = tau_l, tau_u
    out["eta_c_L_adj"], out["eta_c_U_adj"] = eta_l, eta_u
    return out


def study2_truth(case: int, n_draws: int = 10_000_000, seed: int = 0) -> dict:
    """Monte Carlo oracle for the complier estimands and bounds: the keys of
    study2_truth_quadrature, averaged over n_draws covariate draws."""
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    c1, c0 = _complier_models(case)
    chunk = 1_000_000
    sums = 0.0
    for start in range(0, n_draws, chunk):
        m = min(chunk, n_draws - start)
        x1 = rng.standard_normal(m)
        x2 = rng.integers(0, 2, size=m).astype(float)
        sums += _truth_sums(c1, c0, np.stack([x1, x2], axis=1), 1.0)
    return _truth_summary(sums, n_draws)


# composite Gauss-Legendre rule in x1 ~ N(0, 1): _QUAD_POINTS nodes on each of
# _QUAD_PANELS equal panels over [-_QUAD_RANGE, _QUAD_RANGE], outside which the
# normal mass is below 1e-32
_QUAD_RANGE = 12.0
_QUAD_PANELS = 500
_QUAD_POINTS = 20


def study2_truth_quadrature(case: int) -> dict:
    """The true complier estimands and bounds of the case (the keys of
    study2_truth), integrated over x1 ~ N(0, 1) by a fixed composite
    Gauss-Legendre rule, once for each value of the fair coin x2.

    Deterministic, and within about 2e-7 of the integrals on every key (the
    smooth ones far closer; the *_adj integrands have kinks)."""
    # imported here: numpy.polynomial would add milliseconds to every import
    from numpy.polynomial.legendre import leggauss

    c1, c0 = _complier_models(case)
    t, v = leggauss(_QUAD_POINTS)
    h = 2 * _QUAD_RANGE / _QUAD_PANELS
    mids = -_QUAD_RANGE + h * (np.arange(_QUAD_PANELS) + 0.5)
    x1 = (mids[:, None] + 0.5 * h * t).ravel()
    w1 = np.tile(0.5 * h * v, _QUAD_PANELS) * np.exp(-0.5 * x1 ** 2) / np.sqrt(2 * np.pi)
    X = np.column_stack([np.tile(x1, 2), np.repeat([0.0, 1.0], len(x1))])
    weights = np.tile(0.5 * w1, 2)
    return _truth_summary(_truth_sums(c1, c0, X, weights), weights.sum())


# -- study runner ------------------------------------------------------------

@dataclass(frozen=True)
class StudyResult:
    spec: StudySpec
    truth: dict
    bias_L: float
    bias_U: float
    se_L: float
    se_U: float
    ci_length: float
    coverage_bounds: float
    coverage_estimand: float
    n_failed: int


def run_study(spec: StudySpec, adjusted: bool = False,
              truth: dict | None = None, ci_method: str = "normal") -> StudyResult:
    """Replicated estimation with bootstrap CIs, aggregated into the usual
    summary row.

    coverage_bounds is the fraction of CIs containing both true bounds;
    coverage_estimand the fraction containing the true estimand.  Study 1
    runs as one stack (_study1_rows).  For study 2 the estimand is tau_c;
    adjusted=True switches to the covariate-adjusted complier estimator
    (slow: one covariate EM per bootstrap replicate), and ValueError for
    study 1, which has none.  truth defaults to study1_truth or
    study2_truth_quadrature of the case; ValueError, before any draw, when
    it lacks a key the study reads.  Study 2 runs one replicate at a time
    (_study2_rows).  A replicate whose estimation fails is counted in
    n_failed; ReplicateFailure if fewer than two replicates succeed.
    """
    if spec.study == 1:
        if adjusted:
            raise ValueError("adjusted is for study 2: study 1 has no covariates")
        truth = study1_truth(spec.case_id) if truth is None else truth
        keys = ("tau_L", "tau_U", "tau")
    else:
        if truth is None:
            truth = study2_truth_quadrature(spec.case_id)
        adj = "_adj" if adjusted else ""
        keys = ("tau_c_L" + adj, "tau_c_U" + adj, "tau_c")
    for k in keys:
        if k not in truth:
            raise ValueError(f"truth has no key {k!r}")
    true_L, true_U, true_val = (truth[k] for k in keys)
    rows = (_study1_rows(spec, ci_method) if spec.study == 1 else
            _study2_rows(spec, "complier_adjusted" if adjusted else "complier", ci_method))
    if len(rows) < 2:
        raise ReplicateFailure(f"{len(rows)} of {spec.n_reps} replicates succeeded, need 2")

    Ls, Us, ci_los, ci_his = np.array(rows).T
    cover_b = (ci_los <= true_L) & (true_U <= ci_his)
    cover_v = (ci_los <= true_val) & (true_val <= ci_his)
    return StudyResult(
        spec=spec, truth=truth,
        bias_L=float(Ls.mean() - true_L), bias_U=float(Us.mean() - true_U),
        se_L=float(Ls.std(ddof=1)), se_U=float(Us.std(ddof=1)),
        ci_length=float((ci_his - ci_los).mean()),
        coverage_bounds=float(cover_b.mean()),
        coverage_estimand=float(cover_v.mean()),
        n_failed=spec.n_reps - len(rows),
    )


def _rep_seeds(spec: StudySpec) -> list:
    """The seed of each replicate's draw and bootstrap."""
    return [int(ss.generate_state(1)[0] % (2**31))
            for ss in np.random.SeedSequence(spec.seed).spawn(spec.n_reps)]


def _tau_row(reps, ci_method: str) -> tuple:
    """(L, U, ci_low, ci_high) of the tau bounds from one bootstrap."""
    ir = _intervals(reps, [("tau", "bound")], 0.95, ci_method)[0]
    return ir.point_lower, ir.point_upper, ir.ci_low, ir.ci_high


def _study1_rows(spec: StudySpec, ci_method: str) -> list:
    """(L, U, ci_low, ci_high) of every study-1 replicate, in replicate
    order: the columns of each replicate's draw, then one randomized
    bootstrap stack per number of categories J among them (at small n some
    draws miss a category), each replicate redrawn from its own seed, and
    each interval from its own Replicates.  No replicate can fail: both arms
    hold n / 2 units."""
    seeds = _rep_seeds(spec)
    cols = [_study1_columns(spec.case_id, spec.n_units, s) for s in seeds]
    by_J = {}
    for r, c in enumerate(cols):
        by_J.setdefault(c.categories(), []).append(r)
    rows = [None] * spec.n_reps
    for J, members in by_J.items():
        counts = np.stack([_arm_counts(cols[r], J) for r in members])
        stack = _randomized_stack(counts, spec.n_boot, [seeds[r] for r in members])
        for r, reps in zip(members, stack):
            rows[r] = _tau_row(reps, ci_method)
    return rows


def _study2_rows(spec: StudySpec, estimator: str, ci_method: str) -> list:
    """(L, U, ci_low, ci_high) of each study-2 replicate that succeeded:
    one fit and one bootstrap per replicate, on its columns without x2."""
    rows = []
    for rep_seed in _rep_seeds(spec):
        try:
            cols = _study2_columns(spec.case_id, spec.n_units, rep_seed)
            cols = cols._replace(x=cols.x[:, :1])
            reps = _bootstrap(cols, estimator, _ESTIMATORS[estimator][0](cols), spec.n_boot,
                              rep_seed)
            rows.append(_tau_row(reps, ci_method))
        except OrdBoundsError:
            pass
    return rows
