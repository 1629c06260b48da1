"""Command-line interface.

Subcommands:

* bounds      closed-form sharp bounds from a pair of marginal vectors
* construct   extremal coupling matrices attaining the bounds
* analyze     estimation and bootstrap CIs from unit-level CSV data
* analyze-iv  complier analysis for encouragement designs with noncompliance
* simulate    Monte Carlo study summary rows
* oracle      linear programming over couplings with fixed margins

Unit-data CSV format: header row with columns ``z`` (0/1 assignment),
optional ``d`` (0/1 receipt), ``y`` (nonnegative integer category), and any
remaining columns treated as numeric covariates.  Numbers are read as numpy
parses them (``1.0`` is 1), every row has exactly the header's fields and
blank lines are skipped.  A structural error (a row of another width, a
non-numeric cell) exits 2 naming its line; a value error (z or d not 0 or 1,
y not a nonnegative integer, a non-finite covariate) or a repeated column
name exits 2 naming its column.  The file is parsed as one table into the
validated columns (distributions.UnitColumns) that every command works on.

Exit codes: 0 success, 2 input or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .bounds import full_report
from .distributions import MarginalDistribution, MarginalPair, _checked_columns
from .exceptions import (
    FitError,
    NonConvergence,
    OrdBoundsError,
    ReplicateFailure,
)

_NUMERICAL_ERRORS = (NonConvergence, FitError, ReplicateFailure)


def _jsonify(obj):
    """JSON-safe copy with floats at 17 significant digits."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (Fraction, float, np.floating)):
        return float(f"{float(obj):.17g}")
    return obj


def _write(text: str, args):
    """text and a newline to --out, or to stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _emit(payload, args):
    _write(json.dumps(_jsonify(payload), indent=2), args)


def _parse_vector(text: str) -> tuple:
    toks = [t.strip() for t in text.split(",") if t.strip()]
    if not toks:
        raise OrdBoundsError(f"empty probability vector: {text!r}")
    exact = all("/" in t for t in toks)
    try:
        return tuple(Fraction(t) if exact else float(t) for t in toks)
    except (ValueError, ZeroDivisionError) as e:
        raise OrdBoundsError(f"cannot parse probability vector {text!r}: {e}") from None


def _marginal_pair(args) -> MarginalPair:
    return MarginalPair(
        MarginalDistribution(_parse_vector(args.p1)),
        MarginalDistribution(_parse_vector(args.p0)),
    )


def _report_payload(report) -> dict:
    return {
        "j": len(report.deltas.deltas),
        "delta": list(report.deltas.deltas),
        "tau": {"lower": report.tau_L, "independent": report.tau_I, "upper": report.tau_U},
        "eta": {"lower": report.eta_L, "independent": report.eta_I, "upper": report.eta_U},
        "dominance": report.dominance,
        "point_identified": {
            "tau": report.tau_point_identified,
            "eta": report.eta_point_identified,
        },
    }


_parse_rows = functools.partial(np.loadtxt, delimiter=",", quotechar='"', comments=None, ndmin=2)


def _read_unit_csv(path: str, J: int | None):
    """The validated UnitColumns of a unit-data CSV and the names of its
    covariate columns."""
    try:
        f = open(path, newline="")
    except OSError as e:
        raise OrdBoundsError(f"cannot open {path}: {e}") from None
    with f:
        reader = csv.reader(f)
        cols = next(reader, [])
        if "z" not in cols or "y" not in cols:
            raise OrdBoundsError(f"{path}: CSV must have 'z' and 'y' columns, found {cols}")
        repeated = [c for i, c in enumerate(cols) if c in cols[:i]]
        if repeated:
            raise OrdBoundsError(f"{path}: column {repeated[0]!r} appears more than once")
        lines = [(n, line) for n, line in enumerate(f, reader.line_num + 1) if line.strip("\r\n")]
    if not lines:   # before the parse, which warns on no input
        raise OrdBoundsError(f"{path}: no data rows")
    try:
        table = _parse_rows([line for _, line in lines])
    except ValueError:
        table = None
    if table is None or table.shape != (len(lines), len(cols)):
        # the first bad line by the same parse; an unclosed quote runs on into the next lines
        for num, line in lines:
            try:
                width = _parse_rows([line]).shape[1]
                if line.count('"') % 2:
                    raise ValueError("unclosed quote")
                if width != len(cols):
                    raise ValueError(f"{width} fields, header has {len(cols)}")
            except ValueError as e:
                raise OrdBoundsError(f"{path}:{num}: bad row: {e}") from None
    col = dict(zip(cols, table.T))
    covs = [c for c in cols if c not in ("z", "d", "y")]
    # _checked_columns judges every value: z, d and y must be valid for every command
    units = _checked_columns(col["z"], col["y"], col.get("d"),
                             np.ascontiguousarray(table[:, [cols.index(c) for c in covs]]))
    if J is not None and units.J > J:
        raise OrdBoundsError(f"{path}: outcome exceeds --categories {J}")
    return units, covs


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ORDBOUNDS_SEED")
    return int(env) if env else 0


def _bootstrap_payload(args, units, estimator, lowers, **options) -> dict:
    """The ci, n_boot, level and seed entries of one bootstrap of units: an
    interval for tau and eta with each (lower, label suffix) of lowers."""
    from .inference import _intervals, bootstrap_replicates

    reps = bootstrap_replicates(units, estimator=estimator, n_boot=args.bootstrap,
                                seed=_seed(args), J=args.categories, **options)
    keys = [(estimand, lower, suffix) for estimand in ("tau", "eta") for lower, suffix in lowers]
    irs = _intervals(reps, [(e, lower) for e, lower, _ in keys], args.alpha_level, args.ci_method)
    ci = {e + s: {"low": ir.ci_low, "high": ir.ci_high} for (e, _, s), ir in zip(keys, irs)}
    return {"ci": ci, "n_boot": args.bootstrap, "level": args.alpha_level, "seed": reps.seed}


# -- subcommands -------------------------------------------------------------

def cmd_bounds(args):
    report = full_report(_marginal_pair(args))
    _emit(_report_payload(report), args)


def cmd_construct(args):
    from .coupling import extremal_coupling
    from .distributions import estimands_of_joint

    joint = extremal_coupling(_marginal_pair(args), args.target)
    tau, eta, alpha = estimands_of_joint(joint)
    if args.format == "csv":
        J = joint.J
        lines = ["," + ",".join(f"y0={l}" for l in range(J))]
        for k, row in enumerate(joint.matrix):
            lines.append(f"y1={k}," + ",".join(f"{float(v):.17g}" for v in row))
        _write("\n".join(lines), args)
        return
    _emit({
        "target": args.target,
        "matrix": [list(r) for r in joint.matrix],
        "row_margin": list(joint.row_margin().probs),
        "col_margin": list(joint.col_margin().probs),
        "tau": tau, "eta": eta, "alpha": alpha,
    }, args)


def cmd_analyze(args):
    from .estimation import estimate_adjusted, estimate_ipw, estimate_randomized

    units, covs = _read_unit_csv(args.data, args.categories)
    if args.design == "randomized":
        est = estimate_randomized(units, J=args.categories)
    elif args.design == "ipw":
        if not covs:
            raise OrdBoundsError("--design ipw needs covariate columns")
        est = estimate_ipw(units, J=args.categories)
    else:
        est = estimate_adjusted(units, strata=args.strata, J=args.categories)

    payload = {
        "design": est.design,
        "n_treated": est.n_treated,
        "n_control": est.n_control,
        **_report_payload(est.report),
    }
    if args.bootstrap:
        payload.update(_bootstrap_payload(
            args, units, args.design, (("bound", ""), ("independent", "_independent")),
            **({"strata": args.strata} if args.design == "adjusted" else {}),
        ))
    _emit(payload, args)


def cmd_analyze_iv(args):
    from .noncompliance import (
        complier_bounds,
        em_fit,
        em_fit_with_covariates,
        moment_identify,
    )

    units, covs = _read_unit_csv(args.data, args.categories)
    if units.d is None:
        raise OrdBoundsError("analyze-iv needs a 'd' column")

    if args.moment:
        strata = moment_identify(units, monotonicity=args.monotonicity, J=args.categories)
    else:
        strata = em_fit(units, monotonicity=args.monotonicity, J=args.categories)
    cb = complier_bounds(strata)
    payload = {
        "monotonicity": args.monotonicity,
        "method": "moment" if args.moment else "em",
        "pi": {"always_taker": strata.pi_a, "complier": strata.pi_c,
               "never_taker": strata.pi_n},
        "complier": _report_payload(cb.complier),
        "population_sharpened": {
            "tau": {"lower": cb.tau_sharpened[0], "upper": cb.tau_sharpened[1]},
            "eta": {"lower": cb.eta_sharpened[0], "upper": cb.eta_sharpened[1]},
        },
    }
    if args.covariates:
        if not covs:
            raise OrdBoundsError("--covariates requires covariate columns in the CSV")
        fit = em_fit_with_covariates(units, monotonicity=args.monotonicity,
                                     J=args.categories)
        rep = fit.complier_report(units.x)
        payload["complier_adjusted"] = _report_payload(rep)
    if args.bootstrap:
        payload.update(_bootstrap_payload(args, units, "complier", (("bound", ""),),
                                          monotonicity=args.monotonicity))
    _emit(payload, args)


def cmd_simulate(args):
    from .simulation import StudySpec, run_study

    try:
        spec = StudySpec(study=args.study, case_id=args.case, n_units=args.n,
                         n_reps=args.reps, n_boot=args.boot, seed=_seed(args))
    except ValueError as e:
        raise OrdBoundsError(str(e)) from None
    res = run_study(spec, adjusted=args.adjusted)
    _emit({
        "study": spec.study, "case": spec.case_id, "n_units": spec.n_units,
        "n_reps": spec.n_reps, "n_boot": spec.n_boot, "seed": spec.seed,
        "adjusted": args.adjusted,
        "truth": res.truth,
        "bias_lower": res.bias_L, "bias_upper": res.bias_U,
        "se_lower": res.se_L, "se_upper": res.se_U,
        "ci_length": res.ci_length,
        "coverage_bounds": res.coverage_bounds,
        "coverage_estimand": res.coverage_estimand,
        "n_failed": res.n_failed,
    }, args)


def _load_objective(spec: str, J: int):
    from .lp_oracle import LinearObjective, indicator_objective, sign_objective

    if spec == "tau":
        return indicator_objective(J, strict=False)
    if spec == "eta":
        return indicator_objective(J, strict=True)
    if spec == "sign":
        return sign_objective(J)
    if spec == "ones":
        return LinearObjective(tuple(tuple(1 for _ in range(J)) for _ in range(J)))
    try:
        with open(spec) as f:
            rows = [[float(v) for v in line.split(",")] for line in f if line.strip()]
    except OSError as e:
        raise OrdBoundsError(f"cannot read objective {spec!r}: {e}") from None
    return LinearObjective(tuple(tuple(r) for r in rows))


def cmd_oracle(args):
    from .lp_oracle import optimize

    m = _marginal_pair(args)
    obj = _load_objective(args.objective, m.J)
    value, mat = optimize(m, obj, sense=args.sense)
    _emit({
        "objective": args.objective,
        "sense": args.sense,
        "value": value,
        "matrix": [list(r) for r in mat.matrix],
    }, args)


# -- wiring ------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--out", help="write JSON to this file instead of stdout")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: ORDBOUNDS_SEED env var, then 0)")


def _add_unit_analysis(p):
    """Flags shared by the unit-data commands, added after their own."""
    p.add_argument("--categories", type=int, default=None,
                   help="number of outcome categories (default max(y)+1)")
    p.add_argument("--bootstrap", type=int, default=0, metavar="N_BOOT",
                   help="bootstrap replicates for CIs (0 disables)")
    p.add_argument("--alpha-level", type=float, default=0.95,
                   help="nominal CI coverage")
    p.add_argument("--ci-method", choices=["percentile", "normal"], default="percentile")


def _add_margins(p):
    p.add_argument("--p1", required=True, help="treated marginal, e.g. 0.2,0.6,0.2 or 1/5,3/5,1/5")
    p.add_argument("--p0", required=True, help="control marginal")


# built once per process: parsing leaves no state in the parser
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ordbounds", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("bounds", help="sharp bounds from marginal vectors")
    _add_margins(p)
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("construct", help="extremal coupling attaining a bound")
    _add_margins(p)
    p.add_argument("--target", required=True,
                   choices=["tau_min", "tau_max", "eta_min", "eta_max", "independent"])
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="estimate bounds from unit-level CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--design", choices=["randomized", "ipw", "adjusted"],
                   default="randomized")
    p.add_argument("--strata", choices=["discrete", "model"], default="model",
                   help="covariate handling for --design adjusted")
    _add_unit_analysis(p)
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("analyze-iv", help="complier bounds under noncompliance")
    p.add_argument("--data", required=True)
    p.add_argument("--monotonicity", choices=["standard", "strong"], default="standard")
    p.add_argument("--moment", action="store_true",
                   help="method-of-moments strata instead of EM")
    p.add_argument("--covariates", action="store_true",
                   help="also fit the covariate EM and report adjusted bounds")
    _add_unit_analysis(p)
    _add_common(p)
    p.set_defaults(func=cmd_analyze_iv)

    p = sub.add_parser("simulate", help="Monte Carlo study summary row")
    p.add_argument("--study", type=int, required=True)
    p.add_argument("--case", type=int, required=True)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--boot", type=int, default=500)
    p.add_argument("--adjusted", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="LP optimum over couplings")
    _add_margins(p)
    p.add_argument("--objective", required=True,
                   help="tau | eta | sign | ones | path to a CSV coefficient matrix")
    p.add_argument("--sense", choices=["min", "max"], default="max")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except _NUMERICAL_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except (OrdBoundsError, ValueError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
