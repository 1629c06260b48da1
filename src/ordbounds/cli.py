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
non-numeric cell) exits 2 naming its line, and a non-numeric cell's column
too; a value error (z or d not 0 or 1, y not a nonnegative integer, a
non-finite covariate) or a repeated column name exits 2 naming its column.
The file is parsed as one table into the validated columns
(distributions.UnitColumns) that every command works on.

The tokens of --p1 and --p0 and the cells of an oracle objective CSV are
read by one rule: an integer or a/b is exact, anything else is a float.  A
probability vector is exact (Fractions) when every token is, and floats
otherwise.  An objective CSV holds one row of J comma-separated coefficients
per outcome of Y(1), each kept as read, and the optimum is exact when the
margins and every cell are.

Output is JSON with a 2-space indent: the count fields (j, n_treated,
n_control, n_boot, seed, n_failed, study, case, n_units, n_reps) are
integers, every other number is a float (an exact 1/5 prints as 0.2), and a
non-finite value prints as json's NaN, Infinity or -Infinity.

Exit codes: 0 success, 2 input or validation error (a rejected command line
too), 3 numerical failure.  An output that cannot be written (a --out path
that cannot be opened, a full device) exits 2 with one error line; a stdout
closed by its reader (as ``head`` does) exits 0 with nothing on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .bounds import full_report
from .distributions import (
    MarginalDistribution,
    MarginalPair,
    _checked_columns,
    _is_exact,
    estimands_of_joint,
)
from .exceptions import FitError, OrdBoundsError, ReplicateFailure

_NUMERICAL_ERRORS = (FitError, ReplicateFailure)


# the integer-valued fields of the payloads; every other number is written as a float
_COUNT_FIELDS = frozenset({"j", "n_treated", "n_control", "n_boot", "seed", "n_failed",
                           "study", "case", "n_units", "n_reps"})


# the number types of a list written in one pass, each item as float(item)
_PLAIN_NUMBERS = frozenset({float, int, Fraction, np.float64})


def _json(obj, key=None, indent="\n"):
    """The JSON text of a payload, as json.dumps(obj, indent=2) spells it,
    with the _COUNT_FIELDS (and lists under them) as ints and every other
    number as a float, so that an exact run spells each value as the float
    run does (0.0, not 0).  key is the field obj belongs to; a dict key
    that is not a string raises TypeError."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [f"{encode_basestring_ascii(k)}: {_json(v, k, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        if key not in _COUNT_FIELDS and _PLAIN_NUMBERS.issuperset(map(type, obj)):
            body = _floats(obj, "," + inner)
        else:
            body = ("," + inner).join([_json(v, key, inner) for v in obj])
        return "[" + inner + body + indent + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)) and key in _COUNT_FIELDS:
        return repr(int(obj))
    if isinstance(obj, (int, np.integer, Fraction, float, np.floating)):
        return _floats((obj,), "")
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _floats(values, sep):
    """The numbers as floats joined by sep, non-finite ones as json spells
    them (no finite float's repr holds an "n")."""
    text = sep.join(map(repr, map(float, values)))
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def _write(text: str, args):
    """text and a newline to --out, or to stdout (which main flushes)."""
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as f:
                f.write(text + "\n")
        except BrokenPipeError:   # a reader that closed early (--out /dev/stdout): main's case
            raise
        except OSError as e:
            raise OrdBoundsError(f"cannot write {args.out}: {e}") from None
    else:
        print(text)


def _emit(payload, args):
    _write(_json(payload), args)


_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")   # the strings int() reads in base 10


def _number(text: str):
    """A --p1/--p0 token or an objective CSV cell, stripped: int for an
    integer, Fraction for a/b, float otherwise."""
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    return int(text) if _INTEGER.fullmatch(text) else float(text)


def _parse_vector(text: str) -> tuple:
    """A probability vector: Fractions when every token is exact (an integer
    or a/b), floats otherwise."""
    toks = [t for t in text.split(",") if t.strip()]
    if not toks:
        raise OrdBoundsError(f"empty probability vector: {text!r}")
    try:
        values = tuple(map(_number, toks))
    except (ValueError, ZeroDivisionError) as e:
        raise OrdBoundsError(f"cannot parse probability vector {text!r}: {e}") from None
    if not _is_exact(values):
        return tuple(map(float, values))
    # ints as Fractions too, so that an exact vector holds one number type
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


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


def _numbered_lines(body, first):
    """The non-blank lines of body, split as a file opened with newline="",
    each with its line number counted from first."""
    return [(n, line) for n, line in enumerate(io.StringIO(body, newline=""), first)
            if line.strip("\r\n")]


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
        first, body = reader.line_num + 1, f.read()
    if not body.strip("\r\n"):   # before the parse, which warns on no input
        raise OrdBoundsError(f"{path}: no data rows")
    # an unclosed quote runs on into the next lines, so quoted text is parsed line by line
    lines = _numbered_lines(body, first) if '"' in body else None
    try:
        table = _parse_rows(io.StringIO(body, newline="") if lines is None
                            else [line for _, line in lines])
    except ValueError:
        table = None
    if (table is None or table.shape[1] != len(cols)
            or lines is not None and len(table) != len(lines)):
        # the first bad line by the same parse
        for num, line in lines or _numbered_lines(body, first):
            k = None   # the field being parsed, once the line has the header's width
            try:
                fields = _parse_rows([line], dtype=str)[0].tolist()
                if line.count('"') % 2:
                    raise ValueError("unclosed quote")
                if len(fields) != len(cols):
                    raise ValueError(f"{len(fields)} fields, header has {len(cols)}")
                for k in range(len(cols)):
                    _parse_rows([line], usecols=k)
            except ValueError as e:
                why = e if k is None else f"column {cols[k]!r} is not a number: {fields[k]!r}"
                raise OrdBoundsError(f"{path}:{num}: bad row: {why}") from None
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


def _bootstrap_payload(args, units, estimator, fit, lowers, **options) -> dict:
    """The ci, n_boot, level and seed entries of one bootstrap of units from
    their fit: an interval for tau and eta with each (lower, label suffix) of lowers."""
    from .inference import _bootstrap, _intervals

    reps = _bootstrap(units, estimator, fit, args.bootstrap, _seed(args), **options)
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

    joint = extremal_coupling(_marginal_pair(args), args.target)
    tau, eta, alpha = estimands_of_joint(joint)
    matrix = joint._float_rows()
    if args.format == "csv":
        J = joint.J
        lines = ["," + ",".join(f"y0={l}" for l in range(J))]
        for k, row in enumerate(matrix):
            lines.append(f"y1={k}," + ",".join(f"{v:.17g}" for v in row))
        _write("\n".join(lines), args)
        return
    _emit({
        "target": args.target,
        "matrix": matrix,
        "row_margin": list(joint.row_margin().probs),
        "col_margin": list(joint.col_margin().probs),
        "tau": tau, "eta": eta, "alpha": alpha,
    }, args)


def cmd_analyze(args):
    from .inference import _ESTIMATORS

    units, covs = _read_unit_csv(args.data, args.categories)
    if args.design == "ipw" and not covs:
        raise OrdBoundsError("--design ipw needs covariate columns")
    options = {"strata": args.strata} if args.design == "adjusted" else {}
    est = _ESTIMATORS[args.design][0](units, J=args.categories, **options)
    payload = {
        "design": est.design,
        "n_treated": est.n_treated,
        "n_control": est.n_control,
        **_report_payload(est.report),
    }
    if args.bootstrap:
        payload.update(_bootstrap_payload(
            args, units, args.design, est, (("bound", ""), ("independent", "_independent")),
            **options))
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

    fit_args = {"monotonicity": args.monotonicity, "J": args.categories}
    strata = (moment_identify if args.moment else em_fit)(units, **fit_args)
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
        fit = em_fit_with_covariates(units, **fit_args)
        payload["complier_adjusted"] = _report_payload(fit.complier_report(units.x))
    if args.bootstrap:
        # the bootstrap resamples the MLE, also under --moment
        mle = em_fit(units, **fit_args) if args.moment else strata
        payload.update(_bootstrap_payload(args, units, "complier", mle, (("bound", ""),),
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
            rows = [[_objective_cell(v) for v in line.split(",")] for line in f if line.strip()]
    except OSError as e:
        raise OrdBoundsError(f"cannot read objective {spec!r}: {e}") from None
    return LinearObjective(tuple(tuple(r) for r in rows))


def _objective_cell(text: str):
    """An objective CSV cell read by _number, so that an objective of
    integers and a/b cells stays exact."""
    try:
        return _number(text)
    except ZeroDivisionError as e:
        raise OrdBoundsError(f"objective cell {text.strip()!r}: {e}") from None


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


def _add_unit_analysis(p):
    """Flags shared by the unit-data commands, added after their own."""
    p.add_argument("--categories", type=int, default=None,
                   help="number of outcome categories (default max(y)+1; at least 2)")
    p.add_argument("--bootstrap", type=int, default=0, metavar="N_BOOT",
                   help="bootstrap replicates for CIs (0 disables)")
    p.add_argument("--alpha-level", type=float, default=0.95,
                   help="nominal CI coverage, strictly between 0 and 1")
    p.add_argument("--ci-method", choices=["percentile", "normal"], default="percentile")
    p.add_argument("--seed", type=int, default=None,
                   help="bootstrap seed (default: ORDBOUNDS_SEED env var, then 0)")


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
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the data draws and bootstraps (default: ORDBOUNDS_SEED, then 0)")
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


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:   # argparse's exit: 2 for a rejected argv, 0 for --help
        return e.code
    try:
        args.func(args)
    except _NUMERICAL_ERRORS as e:
        return _fail(e, 3)
    except (OrdBoundsError, ValueError) as e:
        return _fail(e, 2)
    return 0


def _fail(e: Exception, code: int) -> int:
    print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()   # so that a closed or full stdout fails here, not at exit
        return code
    except BrokenPipeError:   # the reader stopped reading, as head does: nothing failed
        code = 0
    except OSError as e:      # commands report their own files' errors: this is stdout
        code = _fail(OrdBoundsError(f"cannot write stdout: {e}"), 2)
    # The output left in stdout's buffer would fail again when the interpreter
    # flushes it at exit: send it to os.devnull, as the signal module's note on
    # SIGPIPE does.  An in-process caller's stdout may have no descriptor.
    try:
        fd = sys.stdout.fileno()
    except OSError:
        return code
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
