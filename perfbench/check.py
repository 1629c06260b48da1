"""Output checker, independent of the package under test.

Every expected value is recomputed here with numpy from the job's own input
vectors or CSV columns.  ``check(job, payload)`` returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

CLOSED_TOL = 1e-12     # closed forms and randomized point bounds
ORACLE_TOL = 1e-9      # LP optima against closed forms (float simplex pivots at 1e-12)
MOMENT_TOL = 1e-3      # EM complier bounds against the moment solution, interior draws
RANGE_TOL = 1e-9       # 0 <= L <= I <= U <= 1 and CI ordering


def closed_forms(p1, p0) -> dict:
    """Sharp bounds, independent-coupling values and deltas of a margin pair."""
    p1 = np.asarray(p1, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    t1 = np.cumsum(p1[::-1])[::-1]
    t0 = np.cumsum(p0[::-1])[::-1]
    d = t1 - t0
    d[0] = 0.0
    ge = np.tril(np.ones((len(p1), len(p1))))      # k >= l
    gt = np.tril(np.ones((len(p1), len(p1))), -1)  # k > l
    return {
        "delta": d,
        "tau": (float((p0 + d).max()), float(p1 @ ge @ p0), float(1 + d.min())),
        "eta": (float(d.max()), float(p1 @ gt @ p0), float(1 + (d - p1).min())),
    }


def _triple(block) -> tuple:
    return block["lower"], block["independent"], block["upper"]


def _close(got, want, tol) -> bool:
    return got is not None and abs(got - want) <= tol


class _Problems(list):
    def expect(self, ok: bool, what: str):
        if not ok:
            self.append(what)

    def near(self, got, want, tol, what: str):
        self.expect(_close(got, want, tol), f"{what}: got {got!r}, want {want!r}")


def _check_ranges(problems, block, what: str):
    """0 <= L <= I <= U <= 1 for a tau or eta block."""
    lo, ind, hi = _triple(block)
    ok = all(isinstance(v, (int, float)) and math.isfinite(v) for v in (lo, ind, hi))
    ok = ok and -RANGE_TOL <= lo <= ind + RANGE_TOL and ind <= hi + RANGE_TOL <= 1 + 2 * RANGE_TOL
    problems.expect(ok, f"{what}: bounds out of order or range {lo, ind, hi}")


def _check_ci(problems, ci, what: str):
    low, high = ci["low"], ci["high"]
    ok = -RANGE_TOL <= low <= high + RANGE_TOL and high <= 1 + RANGE_TOL
    problems.expect(ok, f"{what}: CI out of order or range {low, high}")


def _check_report(problems, rep: dict, p1, p0, tol, what: str):
    """A bounds report payload against the closed forms of (p1, p0)."""
    cf = closed_forms(p1, p0)
    problems.expect(rep["j"] == len(p1), f"{what}: j = {rep['j']}, want {len(p1)}")
    for name in ("tau", "eta"):
        for got, want, part in zip(_triple(rep[name]), cf[name], ("lower", "independent", "upper")):
            problems.near(got, want, tol, f"{what}: {name} {part}")
        _check_ranges(problems, rep[name], f"{what}: {name}")
    problems.expect(np.allclose(rep["delta"], cf["delta"], rtol=0, atol=tol),
                    f"{what}: delta vector differs")
    dmin = cf["delta"][1:].min()   # delta_0 is 0 by definition
    if abs(dmin) > 1e-9:
        problems.expect(rep["dominance"] == (dmin > 0), f"{what}: dominance flag")
    for name in ("tau", "eta"):
        gap = cf[name][2] - cf[name][0]
        flag = rep["point_identified"][name]
        if flag:
            problems.expect(gap <= 1e-9, f"{what}: {name} flagged point identified, gap {gap}")
        elif gap <= 1e-15:
            problems.append(f"{what}: {name} bounds coincide but not flagged point identified")


# -- closed-form jobs -------------------------------------------------------------

def _joint_estimands(M: np.ndarray):
    ge = np.tril(np.ones_like(M))
    gt = np.tril(np.ones_like(M), -1)
    tau = float((M * ge).sum())
    eta = float((M * gt).sum())
    return tau, eta


def _check_coupling(problems, M, p1, p0, what):
    problems.expect(M.shape == (len(p1), len(p1)), f"{what}: matrix shape {M.shape}")
    if M.shape != (len(p1), len(p1)):
        return False
    problems.expect(M.min() >= -CLOSED_TOL, f"{what}: negative cell {M.min()}")
    problems.expect(np.allclose(M.sum(axis=1), p1, rtol=0, atol=CLOSED_TOL),
                    f"{what}: row sums differ from the treated margin")
    problems.expect(np.allclose(M.sum(axis=0), p0, rtol=0, atol=CLOSED_TOL),
                    f"{what}: column sums differ from the control margin")
    return True


_TARGET = {"tau_min": ("tau", 0), "tau_max": ("tau", 2), "eta_min": ("eta", 0),
           "eta_max": ("eta", 2)}


def _check_construct(problems, data, out):
    p1, p0 = data["p1"], data["p0"]
    M = np.asarray(out["matrix"], dtype=float)
    if not _check_coupling(problems, M, p1, p0, "construct"):
        return
    tau, eta = _joint_estimands(M)
    problems.near(out["tau"], tau, CLOSED_TOL, "construct: reported tau")
    problems.near(out["eta"], eta, CLOSED_TOL, "construct: reported eta")
    problems.near(out["alpha"], tau + eta - 1, CLOSED_TOL, "construct: reported alpha")
    problems.expect(np.allclose(out["row_margin"], p1, rtol=0, atol=CLOSED_TOL)
                    and np.allclose(out["col_margin"], p0, rtol=0, atol=CLOSED_TOL),
                    "construct: reported margins")
    target = data["target"]
    if target == "independent":
        problems.expect(np.allclose(M, np.outer(p1, p0), rtol=0, atol=CLOSED_TOL),
                        "construct: independent coupling is not the product")
        return
    name, pos = _TARGET[target]
    want = closed_forms(p1, p0)[name][pos]
    got = tau if name == "tau" else eta
    problems.near(got, want, CLOSED_TOL, f"construct {target}: bound not attained")


def _sign_optimum(p1, p0, sense):
    """alpha optimum by scipy's HiGHS, or None when scipy is unavailable."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    J = len(p1)
    c = np.sign(np.subtract.outer(np.arange(J), np.arange(J))).ravel()
    A = np.vstack([np.kron(np.eye(J), np.ones(J)), np.kron(np.ones(J), np.eye(J))])
    res = linprog(c if sense == "min" else -c, A_eq=A, b_eq=np.concatenate([p1, p0]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        return None
    return float(res.fun) if sense == "min" else -float(res.fun)


def _check_oracle(problems, data, out):
    p1, p0 = data["p1"], data["p0"]
    tol = CLOSED_TOL if data["exact"] else ORACLE_TOL
    M = np.asarray(out["matrix"], dtype=float)
    if not _check_coupling(problems, M, p1, p0, "oracle"):
        return
    J = len(p1)
    obj, sense = data["objective"], data["sense"]
    k, l = np.meshgrid(np.arange(J), np.arange(J), indexing="ij")
    coeff = {"tau": k >= l, "eta": k > l, "sign": np.sign(k - l)}[obj].astype(float)
    problems.near(out["value"], float((coeff * M).sum()), tol, "oracle: value of the matrix")
    if obj in ("tau", "eta"):
        want = closed_forms(p1, p0)[obj][0 if sense == "min" else 2]
        problems.near(out["value"], want, tol, f"oracle {obj} {sense}: optimum vs closed form")
    else:
        want = _sign_optimum(p1, p0, sense)
        if want is not None:
            problems.near(out["value"], want, 1e-7, f"oracle sign {sense}: optimum vs HiGHS")


# -- unit_analysis jobs ------------------------------------------------------------

def _arm_marginals(z, y, J):
    p1 = np.bincount(y[z == 1], minlength=J) / (z == 1).sum()
    p0 = np.bincount(y[z == 0], minlength=J) / (z == 0).sum()
    return p1, p0


def _discrete_adjusted(z, y, x, J) -> dict:
    acc = {"tau": np.zeros(3), "eta": np.zeros(3)}
    for level in np.unique(x):
        m = x == level
        cf = closed_forms(*_arm_marginals(z[m], y[m], J))
        for name in acc:
            acc[name] += m.mean() * np.asarray(cf[name])
    return acc


def _check_analyze(problems, data, out):
    z, y, J, design = data["z"], data["y"], data["J"], data["design"]
    problems.expect(out["n_treated"] == int((z == 1).sum()) and out["n_control"] == int((z == 0).sum()),
                    "analyze: arm sizes")
    if design == "randomized":
        _check_report(problems, out, *_arm_marginals(z, y, J), CLOSED_TOL, "analyze randomized")
    else:
        for name in ("tau", "eta"):
            _check_ranges(problems, out[name], f"analyze {design}: {name}")
    if design == "discrete":
        want = _discrete_adjusted(z, y, data["x"], J)
        for name in ("tau", "eta"):
            for got, w, part in zip(_triple(out[name]), want[name], ("lower", "independent", "upper")):
                problems.near(got, w, CLOSED_TOL, f"analyze discrete: {name} {part}")
    for label in ("tau", "tau_independent", "eta", "eta_independent"):
        _check_ci(problems, out["ci"][label], f"analyze {design}: ci {label}")


# -- iv_analysis jobs -----------------------------------------------------------------

def moment_solution(z, d, y, J):
    """Mixture-subtraction strata: (pi_a, pi_c, pi_n, c1, c0, interior)."""
    cells = np.zeros((2, 2, J))
    np.add.at(cells, (z, d, y), 1)
    n1, n0 = cells[1].sum(), cells[0].sum()
    pi_a = cells[0, 1].sum() / n0
    pi_n = cells[1, 0].sum() / n1
    pi_c = 1 - pi_a - pi_n

    def freq(v):
        return v / v.sum() if v.sum() > 0 else np.full(J, 1 / J)

    c1 = cells[1, 1] / n1 - pi_a * freq(cells[0, 1])
    c0 = cells[0, 0] / n0 - pi_n * freq(cells[1, 0])
    interior = pi_c > 0 and bool((c1 >= 0).all() and (c0 >= 0).all())
    return pi_a, pi_c, pi_n, freq(np.clip(c1, 0, None)), freq(np.clip(c0, 0, None)), interior


def _check_analyze_iv(problems, data, out):
    z, d, y = data["z"], data["d"], data["y"]
    J = int(y.max()) + 1
    pi = out["pi"]
    pis = (pi["always_taker"], pi["complier"], pi["never_taker"])
    problems.expect(min(pis) >= -RANGE_TOL and abs(sum(pis) - 1) <= RANGE_TOL,
                    f"analyze-iv: strata proportions {pis}")
    rep = out["complier"]
    for name in ("tau", "eta"):
        _check_ranges(problems, rep[name], f"analyze-iv: complier {name}")
    pc = pi["complier"]
    sharp = out["population_sharpened"]
    problems.near(sharp["tau"]["lower"], pc * rep["tau"]["lower"] + 1 - pc, CLOSED_TOL,
                  "analyze-iv: sharpened tau lower")
    problems.near(sharp["tau"]["upper"], pc * rep["tau"]["upper"] + 1 - pc, CLOSED_TOL,
                  "analyze-iv: sharpened tau upper")
    problems.near(sharp["eta"]["lower"], pc * rep["eta"]["lower"], CLOSED_TOL,
                  "analyze-iv: sharpened eta lower")
    problems.near(sharp["eta"]["upper"], pc * rep["eta"]["upper"], CLOSED_TOL,
                  "analyze-iv: sharpened eta upper")
    pi_a, pi_c, pi_n, c1, c0, interior = moment_solution(z, d, y, J)
    if interior:
        for got, want, what in zip(pis, (pi_a, pi_c, pi_n), ("pi_a", "pi_c", "pi_n")):
            problems.near(got, want, MOMENT_TOL, f"analyze-iv: EM {what} vs moments")
        cf = closed_forms(c1, c0)
        for name in ("tau", "eta"):
            for got, want, part in zip(_triple(rep[name]), cf[name], ("lower", "independent", "upper")):
                problems.near(got, want, MOMENT_TOL, f"analyze-iv: complier {name} {part} vs moments")
    if "complier_adjusted" in out:
        for name in ("tau", "eta"):
            _check_ranges(problems, out["complier_adjusted"][name], f"analyze-iv: adjusted {name}")
    if "ci" in out:
        for name in ("tau", "eta"):
            _check_ci(problems, out["ci"][name], f"analyze-iv: ci {name}")


def _check_simulate(problems, data, out):
    t = out["truth"]
    if data["study"] == 1:
        lo, val, hi = t["tau_L"], t["tau"], t["tau_U"]
    else:
        lo, val, hi = t["tau_c_L"], t["tau_c"], t["tau_c_U"]
    problems.expect(-RANGE_TOL <= lo <= val + RANGE_TOL and val <= hi + RANGE_TOL <= 1 + 2 * RANGE_TOL,
                    f"simulate: true bounds out of order {lo, val, hi}")
    problems.expect(out["n_reps"] == data["reps"] and 0 <= out["n_failed"] < data["reps"],
                    "simulate: replication counts")
    for key in ("coverage_bounds", "coverage_estimand"):
        problems.expect(0 <= out[key] <= 1, f"simulate: {key} = {out[key]}")
    for key in ("se_lower", "se_upper", "ci_length"):
        problems.expect(math.isfinite(out[key]) and out[key] >= 0, f"simulate: {key} = {out[key]}")
    for key in ("bias_lower", "bias_upper"):
        problems.expect(math.isfinite(out[key]) and abs(out[key]) <= 1, f"simulate: {key} = {out[key]}")


_CHECKS = {
    "bounds": lambda p, data, out: _check_report(p, out, data["p1"], data["p0"], CLOSED_TOL, "bounds"),
    "construct": _check_construct,
    "oracle": _check_oracle,
    "analyze": _check_analyze,
    "analyze-iv": _check_analyze_iv,
    "simulate": _check_simulate,
}


def check(job, payload: dict) -> list:
    """Problems found in one job's parsed JSON output (empty when correct)."""
    problems = _Problems()
    try:
        _CHECKS[job.argv[0]](problems, job.data, payload)
    except (KeyError, TypeError, ValueError) as e:
        problems.append(f"{job.argv[0]}: malformed output ({type(e).__name__}: {e})")
    return list(problems)
