"""Principal-strata analysis for randomized experiments with noncompliance.

Assumptions throughout: complete randomization, exclusion restriction, and
either monotonicity (no defiers) or strong monotonicity (no defiers and no
always-takers).  Under these, always-takers and never-takers have equal
potential outcomes across arms, so the causal question reduces to the
compliers, whose treated/control marginals are identified as mixtures.

Estimation is by moments (direct mixture subtraction) or maximum likelihood.
Without covariates the model is just-identified (4J - 2 parameters for
4J - 2 free cells), so wherever mixture subtraction leaves no negative cell
the moment solution is the MLE and is used in closed form; EM runs only on
the tables at that finite-sample boundary, batched over a stack of count
tables (complier_mle).  With covariates (multinomial logit for the stratum,
proportional odds for the outcomes) the MLE is always fitted by EM, whose
E-step posteriors are one (n, G) matrix over the strata each (z, d) cell
admits.  Each M-step is two stacked Newton fits, one for the stratum model
and one for the four outcome models, started from the previous iterate's
parameters; a fit whose warm start fails is refitted cold, and an outcome
fit that still fails falls back to an intercept-only model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bounds import BoundsReport, full_report, weighted_report
from .distributions import MarginalDistribution, MarginalPair, unit_columns
from .exceptions import (
    DefiersObserved,
    DegenerateInit,
    EmptyArm,
    InconsistentInputs,
    NoCompliers,
    NonConvergence,
)
from .models import (
    CumulativeLogitModel,
    MultinomialLogitModel,
    _check_rank,
    _full_rank,
    _logit,
    _mnlogit_model,
    _raise_failure,
    fit_cumulative_logit_rows,
    fit_multinomial_logit_rows,
)


@dataclass(frozen=True)
class StrataModel:
    """Stratum proportions and per-stratum outcome marginals.

    a_marginal / n_marginal are shared across arms (exclusion restriction);
    pi_a is identically 0 under strong monotonicity.
    """

    pi_a: float
    pi_c: float
    pi_n: float
    a_marginal: MarginalDistribution
    n_marginal: MarginalDistribution
    c_treated: MarginalDistribution
    c_control: MarginalDistribution
    negative_cells_clipped: bool = False

    def __post_init__(self):
        if min(self.pi_a, self.pi_c, self.pi_n) < -1e-9:
            raise ValueError("stratum probabilities must be nonnegative")
        if abs(self.pi_a + self.pi_c + self.pi_n - 1) > 1e-9:
            raise ValueError("stratum probabilities must sum to 1")

    @property
    def J(self) -> int:
        return self.c_treated.J

    def complier_pair(self) -> MarginalPair:
        return MarginalPair(self.c_treated, self.c_control)

    def mixture_pair(self) -> MarginalPair:
        """Whole-population marginals implied by the mixture."""
        a = self.a_marginal.probs
        n = self.n_marginal.probs
        c1 = self.c_treated.probs
        c0 = self.c_control.probs
        p1 = tuple(self.pi_a * a[j] + self.pi_c * c1[j] + self.pi_n * n[j] for j in range(self.J))
        p0 = tuple(self.pi_a * a[j] + self.pi_c * c0[j] + self.pi_n * n[j] for j in range(self.J))
        return MarginalPair(MarginalDistribution(p1), MarginalDistribution(p0))


@dataclass(frozen=True)
class ComplierBoundsReport:
    complier: BoundsReport
    pi_c: float
    tau_sharpened: tuple  # (tau_L'', tau_U'')
    eta_sharpened: tuple  # (eta_L'', eta_U'')


def complier_bounds(s: StrataModel) -> ComplierBoundsReport:
    """Sharp bounds for the complier estimands plus the sharpened population
    bounds they imply."""
    if s.pi_c <= 0:
        raise NoCompliers("pi_c must be positive")
    rep = full_report(s.complier_pair())
    pc = s.pi_c
    return ComplierBoundsReport(
        complier=rep,
        pi_c=pc,
        tau_sharpened=(pc * rep.tau_L + 1 - pc, pc * rep.tau_U + 1 - pc),
        eta_sharpened=(pc * rep.eta_L, pc * rep.eta_U),
    )


def estimands_relation(population_value, pi_c, estimand: str = "tau"):
    """Map a population estimand to its complier counterpart.

    tau_c = tau/pi_c - (1 - pi_c)/pi_c; eta_c = eta/pi_c.
    """
    if pi_c <= 0:
        raise NoCompliers("pi_c must be positive")
    if estimand == "tau":
        value = population_value / pi_c - (1 - pi_c) / pi_c
    elif estimand == "eta":
        value = population_value / pi_c
    else:
        raise ValueError(f"unknown estimand {estimand!r}")
    if value < -1e-9 or value > 1 + 1e-9:
        raise InconsistentInputs(
            f"{estimand}_c = {value} outside [0, 1]; inputs are incompatible"
        )
    return min(max(value, 0 * value), 1)


def _cells(cols, J=None):
    """Counts n[z][d][y] of UnitColumns as a (2, 2, J) array, J =
    cols.categories(J), which rejects an outcome at or above J; EmptyArm if
    either assignment arm has no units (the mixture subtraction divides by
    the arm sizes)."""
    z, y, d, _ = cols
    if d is None:
        raise ValueError("records must carry the treatment-received field d")
    J = cols.categories(J)
    counts = np.bincount((2 * z + d) * J + y, minlength=4 * J).reshape(2, 2, J).astype(float)
    if not counts[0].any() or not counts[1].any():
        raise EmptyArm("both assignment arms (z=0 and z=1) are required")
    return counts


def _checked_cells(cols, monotonicity: str, J=None):
    """_cells of UnitColumns to be fitted under monotonicity: ValueError for
    an unknown mode, DefiersObserved for z=0, d=1 units under strong
    monotonicity."""
    if monotonicity not in ("standard", "strong"):
        raise ValueError(f"unknown monotonicity mode {monotonicity!r}")
    counts = _cells(cols, J)
    if monotonicity == "strong" and counts[0, 1].sum() > 0:
        raise DefiersObserved("z=0, d=1 units are impossible under strong monotonicity")
    return counts


def _freq(v):
    """Normalise along the last axis; an all-zero vector becomes uniform."""
    t = v.sum(axis=-1, keepdims=True)
    return np.where(t > 0, v / np.where(t > 0, t, 1.0), 1.0 / v.shape[-1])


def _moments(counts):
    """Mixture-subtraction solution on a stack of count tables (B, 2, 2, J).

    Returns pi (B, 3) ordered (pi_a, pi_c, pi_n); the marginals a, n, c1, c0
    (B, J), with negative complier cells clipped to 0 and renormalised; and
    the per-table flag of tables that had a complier cell below -1e-12.
    """
    n1 = counts[:, 1].sum(axis=(1, 2))
    n0 = counts[:, 0].sum(axis=(1, 2))
    pi_a = counts[:, 0, 1].sum(axis=1) / n0
    pi_n = counts[:, 1, 0].sum(axis=1) / n1
    a = _freq(counts[:, 0, 1])
    n = _freq(counts[:, 1, 0])
    # mixture subtraction in the two mixed cells
    c1 = counts[:, 1, 1] / n1[:, None] - pi_a[:, None] * a
    c0 = counts[:, 0, 0] / n0[:, None] - pi_n[:, None] * n
    clipped = (c1 < -1e-12).any(axis=1) | (c0 < -1e-12).any(axis=1)
    pi = np.stack([pi_a, 1 - pi_a - pi_n, pi_n], axis=1)
    return pi, a, n, _freq(np.clip(c1, 0.0, None)), _freq(np.clip(c0, 0.0, None)), clipped


def _strata_model(pi, a, n, c1, c0, negative_cells_clipped=False) -> StrataModel:
    return StrataModel(
        pi_a=float(pi[0]), pi_c=float(pi[1]), pi_n=float(pi[2]),
        a_marginal=MarginalDistribution(tuple(a)),
        n_marginal=MarginalDistribution(tuple(n)),
        c_treated=MarginalDistribution(tuple(c1)),
        c_control=MarginalDistribution(tuple(c0)),
        negative_cells_clipped=negative_cells_clipped,
    )


def _strata_params(s: StrataModel):
    """The float arrays (pi, a, n, c1, c0) of s; the inverse of _strata_model."""
    return (np.array([s.pi_a, s.pi_c, s.pi_n], dtype=float),
            *(m.as_array() for m in (s.a_marginal, s.n_marginal, s.c_treated, s.c_control)))


def moment_identify(records, monotonicity: str = "standard", J: int | None = None) -> StrataModel:
    """Method-of-moments strata identification.

    Complier marginals obtained by mixture subtraction can be negative in
    finite samples; they are then clipped, renormalized, and flagged via
    negative_cells_clipped.
    """
    counts = _checked_cells(unit_columns(records), monotonicity, J)
    pi, a, n, c1, c0, clipped = (v[0] for v in _moments(counts[None]))
    if pi[1] <= 0:
        raise NoCompliers(f"moment estimate pi_c = {pi[1]} <= 0")
    return _strata_model(pi, a, n, c1, c0, negative_cells_clipped=bool(clipped))


def _mixture(pi, a, n, c1, c0):
    """Cell probabilities of a stack of parameters: always-taker (z=0, d=1),
    never-taker (z=1, d=0) and the two mixed cells (z=1, d=1), (z=0, d=0)."""
    pa = pi[:, :1] * a
    pn = pi[:, 2:] * n
    return pa, pn, pa + pi[:, 1:2] * c1, pn + pi[:, 1:2] * c0


def _loglik(counts, pa, pn, mix1, mix0):
    """Observed-data log-likelihood of each table of a (B, 2, 2, J) stack
    from its _mixture cell probabilities."""
    cells = np.stack([mix0, pa, pn, mix1], axis=1)   # (z, d) = 00, 01, 10, 11
    logp = np.log(np.maximum(cells, 1e-300))
    return (counts.reshape(logp.shape) * logp).sum(axis=(1, 2))


def em_loglik(counts: np.ndarray, pi, a, n, c1, c0) -> float:
    """Observed-data log-likelihood of the cell parameters (up to the
    assignment-probability constant)."""
    counts, *params = (np.asarray(v, dtype=float)[None] for v in (counts, pi, a, n, c1, c0))
    return float(_loglik(counts, *_mixture(*params))[0])


class CellFit(NamedTuple):
    """Complier MLE of a stack of B count tables.

    pi is (B, 3) ordered (pi_a, pi_c, pi_n); a, n, c1, c0 are (B, J).
    interior marks the tables solved in closed form, converged the tables
    with an MLE (all interior ones and the boundary ones whose EM met its
    stopping rule), and trace is the EM log-likelihood trace of the boundary
    tables in stack order (see _em_from_counts).
    """

    pi: np.ndarray
    a: np.ndarray
    n: np.ndarray
    c1: np.ndarray
    c0: np.ndarray
    interior: np.ndarray
    converged: np.ndarray
    trace: list


def complier_mle(counts, init=None, max_iter: int = 20000) -> CellFit:
    """Maximum-likelihood strata fit of a stack of (z, d, y) count tables,
    shape (B, 2, 2, J).

    Without covariates the strata model is just-identified: it has 4J - 2
    parameters for 4J - 2 free cells.  Wherever mixture subtraction leaves
    pi_c > 0 and no complier cell below -1e-12 (an interior table), the
    moment solution reproduces the observed cell frequencies and so is the
    MLE; it is returned without iterating.  The other (boundary) tables run
    through one vectorised EM, started from init, a tuple (pi, a, n, c1, c0)
    broadcast over the stack, or by default from the moment proportions and
    uniform marginals, until its log-likelihood changes by less than 1e-8.
    """
    counts = np.asarray(counts, dtype=float)
    pi, a, n, c1, c0, clipped = _moments(counts)
    interior = (pi[:, 1] > 0) & ~clipped
    converged = interior.copy()
    trace = []
    edge = np.flatnonzero(~interior)
    if edge.size:
        if init is None:
            start = _default_init(counts[edge], pi[edge])
        else:
            start = [np.broadcast_to(np.asarray(v, dtype=float), (len(counts), np.shape(v)[-1]))[edge]
                     for v in init]
        *fitted, trace, ok = _em_from_counts(counts[edge], *start, max_iter=max_iter, tol=1e-8)
        for p, q in zip((pi, a, n, c1, c0), fitted):
            p[edge] = q
        converged[edge] = ok
    return CellFit(pi, a, n, c1, c0, interior, converged, trace)


def _default_init(counts, pi):
    """EM start from the moment proportions and uniform marginals."""
    if (pi[:, 1] <= 0).any():
        raise NoCompliers(f"moment estimate pi_c = {pi[:, 1].min()} <= 0")
    pi = pi.copy()
    # clip interior zeros away, but keep structurally absent strata at 0
    for g, cell in ((0, counts[:, 0, 1]), (2, counts[:, 1, 0])):
        pi[:, g] = np.where((pi[:, g] < 0.01) & (cell.sum(axis=1) > 0), 0.01, pi[:, g])
    pi /= pi.sum(axis=1, keepdims=True)
    uniform = np.full((len(counts), counts.shape[-1]), 1.0 / counts.shape[-1])
    return pi, uniform, uniform, uniform, uniform


def em_fit(records, monotonicity: str = "standard", max_iter: int = 20000,
           J: int | None = None, track_loglik: bool = False):
    """Maximum-likelihood strata fit on the four (z, d) cells.

    The MLE is the moment solution whenever that is interior (pi_c > 0 and
    no negative complier cell); it is then returned in closed form, and the
    log-likelihood trace is the single value at the solution.  Only a
    boundary table runs EM (complier_mle), from the moment proportions and
    uniform marginals, until the log-likelihood changes by less than 1e-8;
    NonConvergence if that takes more than max_iter iterations.

    Returns the fitted StrataModel (and the log-likelihood trace when
    track_loglik is True).
    """
    counts = _checked_cells(unit_columns(records), monotonicity, J)
    fit = complier_mle(counts[None], max_iter=max_iter)
    if not fit.converged[0]:
        raise NonConvergence(f"EM did not converge in {max_iter} iterations")
    params = [v[0] for v in fit[:5]]
    if not track_loglik:
        return _strata_model(*params)
    trace = [em_loglik(counts, *params)] if fit.interior[0] else [float(r[0]) for r in fit.trace]
    return _strata_model(*params), trace


def _em_from_counts(counts, pi, a, n, c1, c0, max_iter, tol):
    """EM on a stack of (z, d, y) count tables, shape (B, 2, 2, J).

    Each table stops, its parameters frozen, once its log-likelihood changes
    by less than tol.  Returns the final parameters, the log-likelihood trace
    (one length-B array per iteration, nan for tables that have stopped) and
    the per-table convergence mask; a table still moving after max_iter
    iterations is returned at its last iterate with the mask False.
    """
    params = [np.array(v, dtype=float) for v in (pi, a, n, c1, c0)]
    N = counts.sum(axis=(1, 2, 3))[:, None]
    x00, x01, x10, x11 = counts[:, 0, 0], counts[:, 0, 1], counts[:, 1, 0], counts[:, 1, 1]
    probs = _mixture(*params)
    ll_old = _loglik(counts, *probs)
    live = np.ones(len(counts), dtype=bool)
    trace = []
    for _ in range(max_iter):
        # E-step: posterior stratum weights in the two mixed cells
        pa, pn, mix1, mix0 = probs
        w_a = pa / np.maximum(mix1, 1e-300)
        w_n = pn / np.maximum(mix0, 1e-300)
        # expected counts of a, n, c1, c0
        ex = np.stack([x01 + x11 * w_a, x10 + x00 * w_n, x11 * (1 - w_a), x00 * (1 - w_n)], axis=1)

        # M-step: weighted-frequency updates, applied to the live tables only
        tot = ex.sum(axis=2)
        pi = np.stack([tot[:, 0], tot[:, 2] + tot[:, 3], tot[:, 1]], axis=1) / N
        step = [pi, *_freq(ex).transpose(1, 0, 2)]
        params = [np.where(live[:, None], q, p) for p, q in zip(params, step)]

        probs = _mixture(*params)
        ll = _loglik(counts, *probs)
        trace.append(np.where(live, ll, np.nan))
        live &= ~(np.abs(ll - ll_old) < tol)   # a nan log-likelihood keeps going
        if not live.any():
            break
        ll_old = ll
    return (*params, trace, ~live)


# -- EM with covariates ------------------------------------------------------

@dataclass
class CovariateStrataFit:
    """Fitted covariate models for the strata and per-stratum outcomes."""

    g_model: MultinomialLogitModel           # classes ('c', 'a', 'n') or ('c', 'n')
    a_model: CumulativeLogitModel | None
    n_model: CumulativeLogitModel
    c_treated_model: CumulativeLogitModel
    c_control_model: CumulativeLogitModel
    loglik: float
    n_iter: int
    loglik_trace: list = field(default_factory=list)

    def pi(self, X) -> np.ndarray:
        """Stratum probabilities per row of X, columns ordered as g_model.classes."""
        return self.g_model.predict_proba(np.asarray(X, dtype=float))

    def pi_c(self, X) -> np.ndarray:
        return self.pi(X)[:, 0]

    def complier_report(self, X) -> BoundsReport:
        """Covariate-adjusted complier bounds: the conditional bounds of the
        two complier outcome models (of equal J) averaged with pi_c(x)
        weights."""
        w = self.pi_c(X)
        return weighted_report(w / w.sum(), self.c_treated_model.predict_proba(X),
                               self.c_control_model.predict_proba(X))


def _strata_terms(fit, X, y, z):
    """Each unit's joint terms pi_g(x) p_g(y | x), shape (n, G) with columns
    ordered as fit.g_model.classes: ('c', 'a', 'n'), or ('c', 'n') when fit
    has no a_model.  Compliers take the treated or the control outcome model
    as z is 1 or 0."""
    rows = np.arange(len(y))

    def at(model):
        return model.predict_proba(X)[rows, y]

    c = np.where(z == 1, at(fit.c_treated_model), at(fit.c_control_model))
    others = [at(m) for m in (fit.a_model, fit.n_model) if m is not None]
    return fit.g_model.predict_proba(X) * np.column_stack([c, *others])


def em_fit_with_covariates(records, monotonicity: str = "standard",
                           max_iter: int = 500, tol: float = 1e-7,
                           J: int | None = None) -> CovariateStrataFit:
    """EM alternating posterior stratum weights with weighted multinomial-logit
    and proportional-odds fits, on one (n, G) posterior matrix.

    A unit admits compliers where z = d, always-takers where d = 1 (standard
    monotonicity only) and never-takers where d = 0: the mask allowed.  The
    E-step normalises each unit's admitted joint terms pi_g(x) p_g(y | x)
    into its posterior row.  The M-step is two stacked Newton fits: the
    stratum model on the admitted (unit, stratum) pairs, and every outcome
    model at once on all units, one weight row per model (its stratum's
    posteriors on its units, 0 elsewhere).  The observed-data log-likelihood,
    the sum of the logs of the row sums, is non-decreasing across iterations
    (each M-step maximizes the weighted fits to convergence).  Each fit's
    joint terms serve both its log-likelihood and the next E-step; the first
    E-step uses those of the covariate-free fit (em_fit).

    The first M-step starts every fit cold, as a fit on its own would; later
    ones start from the previous iterate's parameters.  A fit whose warm
    start fails is refitted cold; an outcome fit that still fails, or whose
    weights leave fewer than two categories or whose units' design is rank
    deficient, becomes an intercept-only model, and a stratum fit that still
    fails raises.
    """
    cols = unit_columns(records)
    J = _checked_cells(cols, monotonicity, J).shape[-1]
    z, y, d, X = cols
    classes = ("c", "a", "n") if monotonicity == "standard" else ("c", "n")
    admits = {"c": z == d, "a": d == 1, "n": d == 0}
    allowed = np.column_stack([admits[g] for g in classes])
    if "a" in classes and not admits["a"].any():
        raise DegenerateInit("no units with d=1")
    # the fitted outcome models: name, stratum column and the units whose
    # outcomes it fits (a_model stays None under strong monotonicity)
    outcomes = [(name, classes.index(g), mask) for name, g, mask in (
        ("a_model", "a", admits["a"]), ("n_model", "n", admits["n"]),
        ("c_treated_model", "c", admits["c"] & (z == 1)),
        ("c_control_model", "c", admits["c"] & (z == 0))) if g in classes]
    names, strata, units = zip(*outcomes)
    units = np.array(units)

    pi, a, n, c1, c0 = _strata_params(em_fit(cols, monotonicity=monotonicity, J=J))
    t = {"c": pi[1] * np.where(z == 1, c1[y], c0[y]), "a": pi[0] * a[y], "n": pi[2] * n[y]}
    joint = np.column_stack([t[g] for g in classes]) * allowed

    # the stratum fit's (unit, stratum) pairs and design
    M = np.hstack([np.ones((len(y), 1)), X])
    _check_rank(M)
    pair_i, pair_g = np.nonzero(allowed)
    M = M[pair_i]
    full_rank = [_full_rank(X[u]) for u in units]

    trace = []
    g_theta = outcome_start = None
    for it_num in range(1, max_iter + 1):
        post = joint / np.maximum(joint.sum(axis=1, keepdims=True), 1e-300)
        W = np.where(post > 1e-12, post, 0.0)[pair_i, pair_g][None]
        warm = g_theta
        g_theta, error = fit_multinomial_logit_rows(pair_g, M, W, len(classes), warm)
        if warm is not None and error[0] is not None:
            g_theta, error = fit_multinomial_logit_rows(pair_g, M, W, len(classes))
        _raise_failure(error)
        models, outcome_start = _safe_cumlogit_rows(y, X, post[:, strata].T * units, units, J,
                                                    full_rank, outcome_start)
        fit = CovariateStrataFit(g_model=_mnlogit_model(classes, g_theta[0]),
                                 **{"a_model": None, **dict(zip(names, models))},
                                 loglik=np.nan, n_iter=it_num, loglik_trace=trace)
        joint = _strata_terms(fit, X, y, z) * allowed
        fit.loglik = float(np.log(np.maximum(joint.sum(axis=1), 1e-300)).sum())
        trace.append(fit.loglik)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol:
            return fit
    raise NonConvergence(f"covariate EM did not converge in {max_iter} iterations")


def _safe_cumlogit_rows(y, X, W, units, J, full_rank, start=None):
    """Weighted J-category proportional-odds fits of the weight rows W (k, n),
    each row zero outside its units (its row of the mask units), tolerant of
    degenerate weights.

    The rows whose weights leave two categories and whose units' design has
    full rank (full_rank, one flag per row) are fitted in one stack from
    start, a (cutpoints, slopes) pair as returned; a row whose warm start
    fails is refitted from the cold start.  Every other row, and a row whose
    fit still fails, gets a near-degenerate intercept-only model.

    Returns the k models and their (cutpoints, slopes) rows.
    """
    k, d = len(W), X.shape[1]
    cut, slope = np.empty((k, J - 1)), np.zeros((k, d))
    seen = (W > 1e-12) @ (y[:, None] == np.arange(J))
    valid = (W.sum(axis=1) > 1e-10) & (seen.sum(axis=1) >= 2)
    fitted = valid & np.asarray(full_rank, dtype=bool)
    rows = np.flatnonzero(fitted)
    if rows.size:
        warm = None if start is None else (start[0][rows], start[1][rows])
        cut[rows], slope[rows], error = fit_cumulative_logit_rows(y, X, W[rows], J, warm)
        bad = np.array([e is not None for e in error], dtype=bool)
        if warm is not None and bad.any():
            cut[rows[bad]], slope[rows[bad]], error[bad] = fit_cumulative_logit_rows(
                y, X, W[rows[bad]], J)
        fitted[rows] = [e is None for e in error]
    for r in np.flatnonzero(~fitted):
        w = W[r, units[r]]
        counts = (np.bincount(y[units[r]], weights=w, minlength=J) + 1e-9 if valid[r]
                  else np.bincount(y[units[r]], weights=np.maximum(w, 1e-12), minlength=J))
        cut[r], slope[r] = _intercept_only(counts, d).cutpoints, 0.0
    models = [CumulativeLogitModel(tuple(c), tuple(b)) for c, b in zip(cut, slope)]
    return models, (cut, slope)


def _intercept_only(counts, n_slopes):
    """Near-degenerate intercept-only proportional-odds model of the
    weighted category counts, with n_slopes zero slopes."""
    J = len(counts)
    # clipped below 1 - (J - 1) eps so that the spacing keeps every
    # cumulative probability strictly inside (0, 1): finite, increasing cuts
    eps = 1e-9
    cum = np.clip(np.cumsum(counts)[:-1] / counts.sum(), eps, 1 - (J - 1) * eps)
    cum = cum + eps * np.arange(J - 1)
    return CumulativeLogitModel(tuple(_logit(cum)), tuple(0.0 for _ in range(n_slopes)))

