import csv
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import ordbounds
from ordbounds import bootstrap_bounds_ci
from ordbounds.cli import _COUNT_FIELDS, _json, _parse_vector, _read_unit_csv, build_parser, main
from ordbounds.distributions import MarginalDistribution, MarginalPair, unit_columns
from ordbounds.estimation import UnitRecord


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_cli_err(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


def write_csv(path, rows, header):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


class TestBounds:
    def test_float_vectors(self, capsys):
        code, out = run_cli(
            capsys, "bounds", "--p1", "0.2,0.6,0.2", "--p0", "0.4,0.2,0.4"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tau"]["lower"] == pytest.approx(0.4)
        assert payload["tau"]["upper"] == pytest.approx(0.8)
        assert payload["eta"]["lower"] == pytest.approx(0.2)
        assert not payload["dominance"]

    def test_fraction_vectors(self, capsys):
        code, out = run_cli(
            capsys, "bounds", "--p1", "1/5,1/5,3/5", "--p0", "3/5,1/5,1/5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tau"]["upper"] == 1
        assert payload["dominance"]

    def test_float_rounding_stays_in_unit_interval(self, capsys):
        # the upper-tail sums of p1 round to 1.0000000000000002
        code, out = run_cli(
            capsys, "bounds",
            "--p1", "0,0.42461092968301356,0.5376463087320363,0.03774276158495021",
            "--p0", "1,0,0,0",
        )
        assert code == 0
        payload = json.loads(out)
        for estimand in ("tau", "eta"):
            b = payload[estimand]
            assert 0 <= b["lower"] <= b["upper"] <= 1
            assert 0 <= b["independent"] <= 1

    def test_invalid_sum_exits_2(self, capsys):
        code, _ = run_cli(capsys, "bounds", "--p1", "0.5,0.6", "--p0", "0.5,0.5")
        assert code == 2

    def test_unparsable_vector_exits_2(self, capsys):
        code, _ = run_cli(capsys, "bounds", "--p1", "a,b", "--p0", "0.5,0.5")
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "res.json"
        code, out = run_cli(
            capsys, "bounds", "--p1", "0.5,0.5", "--p0", "0.5,0.5",
            "--out", str(dest),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(dest.read_text())
        assert payload["tau"]["upper"] == 1


class TestConstruct:
    def test_attains_bound(self, capsys):
        code, out = run_cli(
            capsys, "construct", "--p1", "1/5,1/5,3/5", "--p0", "3/5,1/5,1/5",
            "--target", "tau_max",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tau"] == 1
        assert payload["matrix"][0][0] == pytest.approx(0.2)
        assert payload["row_margin"] == [pytest.approx(v) for v in (0.2, 0.2, 0.6)]

    def test_csv_format(self, capsys):
        code, out = run_cli(
            capsys, "construct", "--p1", "0.5,0.5", "--p0", "0.5,0.5",
            "--target", "independent", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",y0=0,y0=1"
        assert lines[1].startswith("y1=0,0.25,0.25")

    @pytest.mark.parametrize("p1, p0, target", [
        # each arm sums to 1 within SUM_TOL, and the tail dominance of a
        # block holds only within that float tolerance
        ("0.46,0.5099999991,0.03", "0.38,0.51,0.1100000009", "eta_min"),
        # a negative entry within NEG_TOL
        ("0.5,-5e-13,0.5000000000005", "0.3333333333333333,0.3333333333333333,0.3333333333333333",
         "tau_min"),
    ])
    def test_validated_float_margins_construct(self, capsys, p1, p0, target):
        code, out = run_cli(capsys, "construct", "--p1", p1, "--p0", p0, "--target", target)
        assert code == 0
        payload = json.loads(out)
        bounds = json.loads(run_cli(capsys, "bounds", "--p1", p1, "--p0", p0)[1])
        estimand, side = target.split("_")
        assert payload[estimand] == pytest.approx(
            bounds[estimand]["lower" if side == "min" else "upper"], abs=2e-9)
        assert payload["row_margin"] == pytest.approx([float(v) for v in p1.split(",")], abs=2e-9)
        assert payload["col_margin"] == pytest.approx([float(v) for v in p0.split(",")], abs=2e-9)

    def test_bad_target_exits_2(self, capsys):
        # argparse validates the --target choices itself; main returns its code
        code = main(["construct", "--p1", "0.5,0.5", "--p0", "0.5,0.5",
                     "--target", "tau_mid"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "argument --target: invalid choice: 'tau_mid'" in captured.err


class TestAnalyze:
    def make_data(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = []
        for _ in range(200):
            z = int(rng.integers(0, 2))
            y = int(rng.integers(0, 3 - z))  # treated shifted down slightly
            rows.append((z, y))
        path = tmp_path / "units.csv"
        write_csv(path, rows, ("z", "y"))
        return path

    def test_randomized(self, capsys, tmp_path):
        path = self.make_data(tmp_path)
        code, out = run_cli(capsys, "analyze", "--data", str(path))
        assert code == 0
        payload = json.loads(out)
        assert 0 <= payload["tau"]["lower"] <= payload["tau"]["upper"] <= 1

    def test_bootstrap_ci(self, capsys, tmp_path):
        path = self.make_data(tmp_path)
        code, out = run_cli(
            capsys, "analyze", "--data", str(path),
            "--bootstrap", "150", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        ci = payload["ci"]["tau"]
        assert ci["low"] <= payload["tau"]["lower"] + 1e-9
        assert ci["high"] >= payload["tau"]["upper"] - 1e-9

    def test_seed_env(self, capsys, tmp_path, monkeypatch):
        path = self.make_data(tmp_path)
        monkeypatch.setenv("ORDBOUNDS_SEED", "11")
        _, out1 = run_cli(
            capsys, "analyze", "--data", str(path), "--bootstrap", "120"
        )
        _, out2 = run_cli(
            capsys, "analyze", "--data", str(path), "--bootstrap", "120"
        )
        assert json.loads(out1) == json.loads(out2)

    def test_missing_column_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, [(1, 0)], ("z", "outcome"))
        code, _ = run_cli(capsys, "analyze", "--data", str(path))
        assert code == 2

    def test_repeated_column_name_exits_2(self, capsys, tmp_path):
        path = tmp_path / "units.csv"
        path.write_text("z,y,x,x\n1,0,0.5,1.5\n0,1,0.25,2.5\n1,1,0.75,0.5\n0,0,1.0,2.0\n")
        code, err = run_cli_err(capsys, "analyze", "--data", str(path), "--design", "ipw")
        assert code == 2
        assert "column 'x' appears more than once" in err

    def test_malformed_row_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, [(1, "high")], ("z", "y"))
        code, _ = run_cli(capsys, "analyze", "--data", str(path))
        assert code == 2

    def test_categories_override(self, capsys, tmp_path):
        path = tmp_path / "units.csv"
        write_csv(path, [(1, 0), (1, 1), (0, 0), (0, 1)], ("z", "y"))
        code, out = run_cli(
            capsys, "analyze", "--data", str(path), "--categories", "4"
        )
        assert code == 0
        assert json.loads(out)["j"] == 4

    @pytest.mark.parametrize("text, line", [
        ("z,y,x\n1,0,0.5\n0,1\n", 3),               # fewer fields than the header
        ("z,y,x\n1,0,0.5,99\n0,1,0.25\n", 2),      # more fields than the header
        ("z,y,x\n1,0,0.5\n0,1,0.25,\n", 3),        # a trailing comma
        ("z,y,x\n1,0,0.5,99\n0,1,0.25,4\n", 2),    # every row too wide
        ("z,y,x\n1,0,0.5\n \t \n0,1,0.25\n", 3),  # a whitespace-only line
        ('z,y,x\n1,0,"0.5\n0,1,0.25\n', 2),        # an unclosed quote
    ], ids=["short row", "extra field", "trailing comma", "all too wide", "whitespace",
            "unclosed quote"])
    def test_row_shape_error_exits_2_with_its_line(self, capsys, tmp_path, text, line):
        path = tmp_path / "rows.csv"
        path.write_text(text)
        code, err = run_cli_err(capsys, "analyze", "--data", str(path))
        assert code == 2
        assert f"{path}:{line}: bad row" in err

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_bad_row_line_counts_every_line_ending(self, capsys, tmp_path, end):
        path = tmp_path / "ends.csv"
        rows = ["z,y,x", "1,0,0.5", "", "0,1,0.25", "1,1,n/a", "0,0,1", ""]
        path.write_bytes(end.join(rows).encode())
        code, err = run_cli_err(capsys, "analyze", "--data", str(path))
        assert code == 2
        assert f"{path}:5: bad row" in err and "column 'x'" in err

    def test_header_only_exits_2_without_warning(self, capsys, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("z,y,x\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = run_cli_err(capsys, "analyze", "--data", str(path))
        assert code == 2
        assert "no data rows" in err

    def test_integer_valued_floats_read_as_records(self, tmp_path):
        path = tmp_path / "units.csv"
        path.write_text("z,d,y,x\n1.0,0.0,2.0,0.5\n0,1.0,0,1\n")
        units, _ = _read_unit_csv(str(path), None)
        want = unit_columns([UnitRecord(z=1.0, d=0.0, y=2.0, x=(0.5,)),
                             UnitRecord(z=0, d=1.0, y=0, x=(1.0,))])
        for a, b in zip(units, want):
            assert np.array_equal(a, b) and a.dtype == b.dtype

    def test_non_numeric_cell_exits_2_with_its_line(self, capsys, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("z,y,x\n1,0,0.5\n0,1,0.25\n1,1,n/a\n")
        code, err = run_cli_err(capsys, "analyze", "--data", str(path))
        assert code == 2
        assert f"{path}:4: bad row" in err
        # the cell's header column, not the position inside a one-line parse
        assert "column 'x'" in err and "'n/a'" in err
        assert "row 0" not in err

    def test_reader_matches_dict_reader(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = [(int(z), float(a), int(d), int(y), float(b))
                for z, a, d, y, b in zip(rng.integers(0, 2, 50), rng.random(50),
                                         rng.integers(0, 2, 50), rng.integers(0, 4, 50),
                                         rng.normal(size=50))]
        path = tmp_path / "units.csv"
        write_csv(path, rows, ("z", "a", "d", "y", "b"))
        with open(path, "a") as f:
            # CRLF rows above; a blank line is skipped; a quoted number is read
            f.write('\n1,0.5,1,2,-1.5\n0,"0.25",1,3,2.5\n')
        with open(path, newline="") as f:
            want = [UnitRecord(z=int(r["z"]), y=int(r["y"]), d=int(r["d"]),
                               x=(float(r["a"]), float(r["b"])))
                    for r in csv.DictReader(f)]
        units, covs = _read_unit_csv(str(path), None)
        assert covs == ["a", "b"]
        want = unit_columns(want)
        assert all(np.array_equal(a, b) for a, b in zip(units, want)) and len(units.z) == 52
        assert units.x.flags.c_contiguous and want.x.flags.c_contiguous

    def test_categories_too_small_exits_2(self, capsys, tmp_path):
        path = tmp_path / "units.csv"
        write_csv(path, [(1, 3), (0, 0)], ("z", "y"))
        code, _ = run_cli(
            capsys, "analyze", "--data", str(path), "--categories", "2"
        )
        assert code == 2


def covariate_csv(tmp_path, rows):
    path = tmp_path / "cov.csv"
    write_csv(path, [(r.z, r.y, r.x[0]) for r in rows], ("z", "y", "x"))
    return path


class TestAnalyzeBootstrap:
    """One bootstrap per job: the four intervals of the ci block are the
    four separate bootstrap_bounds_ci calls on the same resamples."""

    @pytest.mark.parametrize("design, options", [
        ("randomized", {}), ("ipw", {}), ("adjusted", {"strata": "model"}),
    ])
    @pytest.mark.parametrize("method", ["percentile", "normal"])
    def test_ci_block_equals_separate_calls(self, capsys, tmp_path, design, options, method):
        from test_inference import covariate_records

        path = covariate_csv(tmp_path, covariate_records(41, n=200))
        code, out = run_cli(capsys, "analyze", "--data", str(path), "--design", design,
                            "--bootstrap", "100", "--seed", "6", "--ci-method", method,
                            "--alpha-level", "0.9")
        assert code == 0
        ci = json.loads(out)["ci"]
        records, _ = _read_unit_csv(str(path), None)
        for estimand in ("tau", "eta"):
            for lower, label in (("bound", estimand), ("independent", estimand + "_independent")):
                ir = bootstrap_bounds_ci(records, estimator=design, estimand=estimand,
                                         n_boot=100, level=0.9, seed=6, lower=lower,
                                         method=method, **options)
                assert ci[label] == {"low": ir.ci_low, "high": ir.ci_high}

    def test_replicate_failures_exit_3(self, capsys, tmp_path):
        from test_inference import rare_stratum_records

        path = covariate_csv(tmp_path, rare_stratum_records())
        code, err = run_cli_err(capsys, "analyze", "--data", str(path), "--design", "adjusted",
                                "--strata", "discrete", "--bootstrap", "100", "--seed", "3")
        assert code == 3
        assert "ReplicateFailure" in err

    def test_separated_model_resamples_exit_3_without_warnings(self, capsys, tmp_path):
        # most resamples of these 16 units separate; some put a unit's outcome
        # probability at the 1e-300 floor, where its squared score overflows
        path = tmp_path / "units.csv"
        path.write_text('z,d,y,x\n1,1,2,"0.5"\n\n1,1,1,-0.2\n1,1,2,1.1\n1,1,0,-0.7\n1,1,1,0.3\n'
                        "1,0,0,-1.0\n1,0,1,0.8\n1,1,2,0.1\n0,0,0,0.4\n0,0,1,-0.5\n0,0,0,0.9\n"
                        "0,1,2,-0.1\n0,0,1,0.2\n0,0,2,-0.9\n0,0,0,0.6\n0,1,1,-0.3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, err = run_cli_err(capsys, "analyze", "--data", str(path), "--design",
                                    "adjusted", "--strata", "model", "--bootstrap", "100")
        assert code == 3
        assert err.startswith("error: ReplicateFailure")


class TestAlphaLevel:
    """--alpha-level outside (0, 1) exits 2 with one error line and no
    output, for both CI methods and both unit commands."""

    @pytest.mark.parametrize("level", ["-0.2", "0", "1", "1.5", "nan"])
    @pytest.mark.parametrize("method", ["percentile", "normal"])
    @pytest.mark.parametrize("cmd", ["analyze", "analyze-iv"])
    def test_outside_the_unit_interval_exits_2(self, capsys, tmp_path, level, method, cmd):
        path = tmp_path / "units.csv"
        path.write_text("z,d,y\n1,1,2\n1,1,1\n1,1,2\n1,1,0\n1,1,1\n1,0,0\n1,0,1\n1,1,2\n"
                        "0,0,0\n0,0,1\n0,0,0\n0,1,2\n0,0,1\n0,0,2\n0,0,0\n0,1,1\n")
        code = main([cmd, "--data", str(path), "--bootstrap", "100", "--alpha-level", level,
                     "--ci-method", method])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: ValueError: level must be strictly between 0 and 1, "
                                f"got {float(level)}\n")


class TestAnalyzeIV:
    def make_iv_data(self, tmp_path, with_defier=False):
        from test_noncompliance import TRUTH, draw_iv_records

        rng = np.random.default_rng(7)
        recs = draw_iv_records(TRUTH, 2000, rng)
        rows = [(r.z, r.d, r.y) for r in recs]
        if with_defier:
            rows.append((0, 1, 0))
        path = tmp_path / "iv.csv"
        write_csv(path, rows, ("z", "d", "y"))
        return path

    def test_reports_complier_bounds(self, capsys, tmp_path):
        path = self.make_iv_data(tmp_path)
        code, out = run_cli(capsys, "analyze-iv", "--data", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["pi"]["complier"] == pytest.approx(0.5, abs=0.05)
        cb = payload["complier"]["tau"]
        assert 0 <= cb["lower"] <= cb["upper"] <= 1

    def test_moment_flag(self, capsys, tmp_path):
        path = self.make_iv_data(tmp_path)
        code, out = run_cli(capsys, "analyze-iv", "--data", str(path), "--moment")
        assert code == 0
        payload = json.loads(out)
        assert payload["pi"]["complier"] == pytest.approx(0.5, abs=0.05)

    def test_interior_fit_is_the_moment_solution(self, capsys, tmp_path):
        path = self.make_iv_data(tmp_path)
        _, em = run_cli(capsys, "analyze-iv", "--data", str(path))
        _, mom = run_cli(capsys, "analyze-iv", "--data", str(path), "--moment")
        em, mom = json.loads(em), json.loads(mom)
        for key in ("always_taker", "complier", "never_taker"):
            assert em["pi"][key] == pytest.approx(mom["pi"][key], abs=1e-12)
        for name in ("tau", "eta"):
            for part in ("lower", "independent", "upper"):
                assert em["complier"][name][part] == pytest.approx(
                    mom["complier"][name][part], abs=1e-12)

    def test_assignment_out_of_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "iv.csv"
        write_csv(path, [(0, 0, 0), (1, 1, 1), (2, 1, 0), (0, 1, 1)], ("z", "d", "y"))
        code, _ = run_cli(capsys, "analyze-iv", "--data", str(path))
        assert code == 2

    @pytest.mark.parametrize("method", ["percentile", "normal"])
    def test_ci_block_equals_separate_calls(self, capsys, tmp_path, method):
        # --moment on a draw whose moment solution is clipped: the bootstrap
        # still resamples the MLE
        boundary = tmp_path / "boundary.csv"
        write_csv(boundary, [(r.z, r.d, r.y) for r in ordbounds.generate_study2(1, 200, seed=0)],
                  ("z", "d", "y"))
        for path, extra in ((self.make_iv_data(tmp_path), []), (boundary, ["--moment"])):
            code, out = run_cli(capsys, "analyze-iv", "--data", str(path), "--bootstrap", "100",
                                "--seed", "8", "--ci-method", method, *extra)
            assert code == 0
            ci = json.loads(out)["ci"]
            records, _ = _read_unit_csv(str(path), None)
            for estimand in ("tau", "eta"):
                ir = bootstrap_bounds_ci(records, estimator="complier", estimand=estimand,
                                         n_boot=100, seed=8, method=method)
                assert ci[estimand] == {"low": ir.ci_low, "high": ir.ci_high}

    @pytest.mark.parametrize("cmd", ["analyze", "analyze-iv"])
    def test_too_few_replicates_exits_2(self, capsys, tmp_path, cmd):
        path = self.make_iv_data(tmp_path)
        code, _ = run_cli(capsys, cmd, "--data", str(path), "--bootstrap", "50")
        assert code == 2

    @pytest.mark.parametrize("extra", [[], ["--moment"], ["--bootstrap", "100"]])
    def test_empty_arm_exits_2(self, capsys, tmp_path, extra):
        path = tmp_path / "iv.csv"
        write_csv(path, [(1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 0, 0)], ("z", "d", "y"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, "analyze-iv", "--data", str(path), *extra)
        assert code == 2
        assert out == ""

    def test_strong_monotonicity_with_always_takers_exits_2(self, capsys, tmp_path):
        path = self.make_iv_data(tmp_path)
        code, _ = run_cli(
            capsys, "analyze-iv", "--data", str(path), "--monotonicity", "strong"
        )
        assert code == 2


class TestAnalyzeIVCovariates:
    def test_reports_the_covariate_fit(self, capsys, tmp_path):
        from ordbounds import em_fit_with_covariates
        from ordbounds.cli import _report_payload

        path = tmp_path / "cov.csv"
        write_csv(path, [(r.z, r.d, r.y, *r.x) for r in ordbounds.generate_study2(4, 400, seed=0)],
                  ("z", "d", "y", "x1", "x2"))
        code, out = run_cli(capsys, "analyze-iv", "--data", str(path), "--covariates")
        assert code == 0
        units, _ = _read_unit_csv(str(path), None)
        fit = em_fit_with_covariates(units)
        want = json.loads(_json(_report_payload(fit.complier_report(units.x))))
        assert json.loads(out)["complier_adjusted"] == want


class TestSingleCategory:
    """Outcomes that are all 0 fit J = 2 in every design, where tau is 1."""

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["analyze", "--design", "ipw"],
        ["analyze", "--design", "adjusted", "--strata", "discrete"],
        ["analyze-iv"], ["analyze-iv", "--moment"],
    ], ids=" ".join)
    @pytest.mark.parametrize("categories", [[], ["--categories", "1"]], ids=["", "J=1"])
    def test_fits_two_categories(self, capsys, tmp_path, argv, categories):
        path = tmp_path / "units.csv"
        write_csv(path, [(i % 2, int(i % 5 == 0) ^ (i % 2), 0, i % 3 // 2) for i in range(60)],
                  ("z", "d", "y", "x"))
        code, out = run_cli(capsys, argv[0], "--data", str(path), *argv[1:], *categories,
                            "--bootstrap", "100")
        assert code == 0
        payload = json.loads(out)
        report = payload["complier"] if argv[0] == "analyze-iv" else payload
        assert report["j"] == 2
        assert report["tau"]["lower"] == report["tau"]["upper"] == 1
        assert payload["ci"]["tau"] == {"low": 1.0, "high": 1.0}


class TestInputErrors:
    """Each input error the commands check themselves exits 2 with its message."""

    @pytest.mark.parametrize("argv, message", [
        (["bounds", "--p1", ",", "--p0", "1/2,1/2"], "empty probability vector: ','"),
        (["analyze", "--data", "{missing}"], "cannot open {missing}: [Errno "),
        (["analyze", "--data", "{zy}", "--design", "ipw"], "--design ipw needs covariate columns"),
        (["analyze-iv", "--data", "{zy}"], "analyze-iv needs a 'd' column"),
        (["analyze-iv", "--data", "{zdy}", "--covariates"],
         "--covariates requires covariate columns in the CSV"),
        (["oracle", "--p1", "1/2,1/2", "--p0", "1/2,1/2", "--objective", "{missing}"],
         "cannot read objective '{missing}': [Errno "),
    ], ids=["empty-vector", "missing-data", "ipw-no-covariates", "iv-no-d",
            "iv-covariates-none", "missing-objective"])
    def test_exits_2(self, capsys, tmp_path, argv, message):
        files = {"missing": str(tmp_path / "missing.csv"), "zy": str(tmp_path / "zy.csv"),
                 "zdy": str(tmp_path / "zdy.csv")}
        write_csv(files["zy"], [(0, 0), (1, 1), (0, 1), (1, 2)], ("z", "y"))
        write_csv(files["zdy"], [(0, 0, 0), (1, 1, 1), (0, 0, 1), (1, 0, 2)], ("z", "d", "y"))
        code = main([a.format(**files) for a in argv])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: OrdBoundsError: " + message.format(**files))


ANALYZE_ARGS = [["analyze", "--design", design, "--strata", strata, *boot]
                for design, strata in (("randomized", "model"), ("ipw", "model"),
                                       ("adjusted", "model"), ("adjusted", "discrete"))
                for boot in ([], ["--bootstrap", "100"])]
IV_ARGS = [["analyze-iv", *extra]
           for extra in ([], ["--moment"], ["--covariates"], ["--bootstrap", "100"])]


class TestInvalidUnits:
    """A unit with z or d outside {0, 1} or a y that is not a nonnegative
    integer exits 2 with empty stdout, whatever the command goes on to fit."""

    @pytest.mark.parametrize("field, value", [("z", 2), ("d", 2), ("y", -1), ("y", 1.5)])
    @pytest.mark.parametrize("argv", ANALYZE_ARGS + IV_ARGS, ids=" ".join)
    def test_exits_2(self, capsys, tmp_path, argv, field, value):
        from test_noncompliance import invalid_records

        path = tmp_path / "units.csv"
        write_csv(path, [(r.z, r.d, r.y, *r.x) for r in invalid_records(field, value)],
                  ("z", "d", "y", "x1", "x2"))
        code = main([argv[0], "--data", str(path), *argv[1:]])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: OutOfRangeOutcome") and "Traceback" not in err


class TestNonFiniteCovariates:
    """A nan or inf covariate exits 2 with empty stdout, before any fit."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("design", [["ipw"], ["adjusted", "--strata", "model"],
                                        ["adjusted", "--strata", "discrete"]], ids=" ".join)
    def test_exits_2(self, capsys, tmp_path, design, value):
        from test_inference import covariate_records

        rows = [(r.z, r.y, r.x[0]) for r in covariate_records(41, n=60)]
        rows[5] = (*rows[5][:2], value)
        path = tmp_path / "cov.csv"
        write_csv(path, rows, ("z", "y", "x"))
        code = main(["analyze", "--data", str(path), "--design", *design])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: ValidationError: covariates x must be finite")


class TestOracle:
    def test_tau_max(self, capsys):
        code, out = run_cli(
            capsys, "oracle", "--p1", "1/5,3/5,1/5", "--p0", "2/5,1/5,2/5",
            "--objective", "tau", "--sense", "max",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.8)

    def test_sign_min(self, capsys):
        code, out = run_cli(
            capsys, "oracle", "--p1", "1/5,3/5,1/5", "--p0", "2/5,1/5,2/5",
            "--objective", "sign", "--sense", "min",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(-0.2)

    def test_round_trip_with_construct(self, capsys):
        # the oracle's maximum equals the tau value of the constructed
        # extremal coupling
        _, out1 = run_cli(
            capsys, "construct", "--p1", "0.2,0.6,0.2", "--p0", "0.4,0.2,0.4",
            "--target", "tau_max",
        )
        _, out2 = run_cli(
            capsys, "oracle", "--p1", "0.2,0.6,0.2", "--p0", "0.4,0.2,0.4",
            "--objective", "tau", "--sense", "max",
        )
        assert json.loads(out1)["tau"] == pytest.approx(json.loads(out2)["value"])

    def test_integer_csv_objective_equals_named(self, capsys, tmp_path):
        # an integer CSV copy of the tau indicator gives --objective tau's output
        path = tmp_path / "tau.csv"
        path.write_text("1,0,0\n1,1,0\n1,1,1\n")
        margins = ["--p1", "1/5,3/5,1/5", "--p0", "2/5,1/5,2/5"]
        outs = [run_cli(capsys, "oracle", *margins, "--objective", spec, "--sense", sense)
                for sense in ("min", "max") for spec in (str(path), "tau")]
        assert all(code == 0 for code, _ in outs)
        for (_, from_csv), (_, named) in zip(outs[0::2], outs[1::2]):
            got, want = json.loads(from_csv), json.loads(named)
            assert (got.pop("objective"), want.pop("objective")) == (str(path), "tau")
            assert got == want
        assert [json.loads(out)["value"] for _, out in outs[1::2]] == [0.4, 0.8]

    def test_csv_objective_cells(self, tmp_path):
        from ordbounds.cli import _load_objective
        from ordbounds.lp_oracle import optimize

        path = tmp_path / "half.csv"
        path.write_text("1/2,0,-1\n 2 ,0.5,0\n0,0,1e0\n")
        obj = _load_objective(str(path), 3)
        assert obj.coeffs == ((Fraction(1, 2), 0, -1), (2, 0.5, 0), (0, 0, 1.0))
        assert [type(v) for v in obj.coeffs[0] + obj.coeffs[1][:1]] == [Fraction, int, int, int]
        # integer and a/b cells only: the optimum is exact
        path.write_text("1/2,0,-1\n2,1/3,0\n0,0,1\n")
        m = MarginalPair(MarginalDistribution((Fraction(1, 5), Fraction(3, 5), Fraction(1, 5))),
                         MarginalDistribution((Fraction(2, 5), Fraction(1, 5), Fraction(2, 5))))
        value, _ = optimize(m, _load_objective(str(path), 3), "min")
        assert type(value) is Fraction
        assert value == Fraction(1, 6)

    def test_zero_denominator_objective_cell_exits_2(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0,1/0\n0,0\n")
        code = main(["oracle", "--p1", "1/2,1/2", "--p0", "1/2,1/2", "--objective", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "objective cell '1/0'" in captured.err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_objective_file_exits_2(self, capsys, tmp_path, bad):
        path = tmp_path / "f.csv"
        path.write_text(f"0,{bad},1\n-1,0,1\n-1,-1,0\n")
        code = main(["oracle", "--p1", "0.2,0.3,0.5", "--p0", "0.5,0.3,0.2",
                     "--objective", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "ValidationError" in captured.err


class TestNonFiniteMargins:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--p1", "nan,0.5,0.5", "--p0", "0.2,0.3,0.5"],
        ["construct", "--p1", "0.5,nan,0.5", "--p0", "0.2,0.3,0.5", "--target", "tau_max"],
        ["oracle", "--p1", "0.5,nan,0.5", "--p0", "0.2,0.3,0.5", "--objective", "tau"],
    ], ids=["bounds", "construct", "oracle"])
    def test_nan_entry_exits_2(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "ValidationError" in captured.err


class TestOneFitPerJob:
    """A bootstrap job fits the full sample once: the bootstrap's point row
    comes from the estimate the command reports."""

    @pytest.mark.parametrize("argv, name", [
        (["--design", "randomized"], "empirical_marginals"),
        (["--design", "ipw"], "_full_sample"),
        (["--design", "adjusted", "--strata", "model"], "_full_sample"),
    ], ids=["randomized", "ipw", "adjusted model"])
    def test_analyze(self, capsys, tmp_path, monkeypatch, argv, name):
        # each counted function is what the estimator calls from the estimation
        # module; _full_sample is the one-row kernel evaluation of ipw and adjusted
        from ordbounds import estimation
        from test_inference import covariate_records

        path = covariate_csv(tmp_path, covariate_records(41, n=200))
        seen = []
        fit = getattr(estimation, name)
        monkeypatch.setattr(estimation, name, lambda *a, **k: seen.append(1) or fit(*a, **k))
        code, _ = run_cli(capsys, "analyze", "--data", str(path), *argv, "--bootstrap", "100")
        assert code == 0
        assert len(seen) == 1

    @pytest.mark.parametrize("extra", [[], ["--moment"]], ids=["em", "moment"])
    def test_analyze_iv(self, capsys, tmp_path, monkeypatch, extra):
        from ordbounds import inference, noncompliance

        path = TestAnalyzeIV().make_iv_data(tmp_path)
        tables = []
        mle = noncompliance.complier_mle

        def spy(counts, **options):
            tables.append(len(counts))
            return mle(counts, **options)

        monkeypatch.setattr(noncompliance, "complier_mle", spy)
        monkeypatch.setattr(inference, "complier_mle", spy)
        code, _ = run_cli(capsys, "analyze-iv", "--data", str(path), "--bootstrap", "100",
                          *extra)
        assert code == 0
        assert tables == [1, 100]


def json_types(obj):
    """obj with every JSON scalar replaced by its Python type name."""
    if isinstance(obj, dict):
        return {k: json_types(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [json_types(v) for v in obj]
    return type(obj).__name__


class TestExactJsonSpelling:
    """An exact run spells every probability as a float, as the float run
    of the same margins does; counts stay ints."""

    EXACT = ["--p1", "1/5,3/5,1/5", "--p0", "2/5,1/5,2/5"]
    FLOAT = ["--p1", "0.2,0.6,0.2", "--p0", "0.4,0.2,0.4"]

    @pytest.mark.parametrize("argv", [
        ["bounds"],
        *[["construct", "--target", t]
          for t in ("tau_min", "tau_max", "eta_min", "eta_max", "independent")],
        *[["oracle", "--objective", o, "--sense", s]
          for o in ("tau", "eta", "sign", "ones") for s in ("min", "max")],
    ], ids=lambda argv: "-".join(a for a in argv if not a.startswith("--")))
    def test_same_token_types(self, capsys, argv):
        code, exact = run_cli(capsys, *argv, *self.EXACT)
        assert code == 0
        code, floats = run_cli(capsys, *argv, *self.FLOAT)
        assert code == 0
        assert json_types(json.loads(exact)) == json_types(json.loads(floats))

    def test_bounds_spelling(self, capsys):
        _, out = run_cli(capsys, "bounds", *self.EXACT)
        assert '"delta": [\n    0.0,\n    0.2,\n    -0.2\n  ]' in out
        assert json.loads(out)["j"] == 3 and '"j": 3,' in out


def reference_jsonify(obj, key=None):
    """A JSON-safe copy of a payload: the count fields as ints, every other
    number as a float; json.dumps(reference_jsonify(obj), indent=2) is the
    text the writer must produce."""
    if isinstance(obj, dict):
        return {k: reference_jsonify(v, k) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonify(v, key) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)) and key in _COUNT_FIELDS:
        return int(obj)
    if isinstance(obj, (int, np.integer, Fraction, float, np.floating)):
        return float(obj)
    return obj


def reference_json(payload):
    return json.dumps(reference_jsonify(payload), indent=2)


class TestJsonWriter:
    """The one JSON writer against json.dumps(..., indent=2) of the JSON-safe
    copy."""

    HUGE = Fraction(3**700 + 1, 3**701 - 2)

    @pytest.mark.parametrize("payload", [
        {"x": [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 2.2e-308,
               1.7976931348623157e308, 0.1, 1 / 3]},
        {"x": float("nan"), "y": -float("inf"), "z": -0.0, "w": 5e-324, "f": HUGE},
        {"x": [HUGE, -HUGE, Fraction(1, 3), Fraction(0), 0, 7, -2]},
        {"x": [np.float64(0.1), np.float64("nan")], "y": np.float64(-0.0)},
        {"x": [np.int64(3), np.float32(0.5), np.int32(-1)], "j": np.int64(4), "seed": [np.int64(5)]},
        {"flag": np.bool_(True), "off": np.bool_(False), "x": [np.bool_(False), 1.0]},
        {"x": [1.0, True, 0.5], "y": [False, Fraction(1, 2), 2], "n_boot": [True, 3]},
        {"x": None, "y": [None, 1.0, None], "z": [[None]]},
        {}, [], {"a": {}, "b": [], "c": [[]], "d": [{}], "e": [[], [[]], {}]},
        {"s": 'say "hi"', "t": "back\\slash", "u": "naïve — ü 日本 \U0001F600", "v": "\n\t\x00"},
        {'key "quoted"\\': 1.0, "ключ": ["é", "\u2028"]},
        {"j": [1, 2, np.int64(3)], "seed": [[1, 2], [3]], "n_failed": [1.5, 2], "study": (1, 2)},
        {"j": 3, "case": np.int64(2), "n_units": 2.5, "seed": Fraction(1, 2), "n_reps": True},
        {"matrix": [[Fraction(1, 3), 0, 0.5], (0.25, Fraction(2, 3), np.float64(1e-300))]},
        [1.0, [2, [Fraction(3, 4), [np.int64(5)]]], {"j": [6]}],
        0.5, 3, "text", None, True,
    ], ids=lambda p: None)
    def test_equal_reference(self, payload):
        assert _json(payload) == reference_json(payload)

    def test_random_payloads(self):
        rng = np.random.default_rng(181)
        leaves = [lambda: float(rng.normal()), lambda: Fraction(int(rng.integers(-9, 9)), 7),
                  lambda: int(rng.integers(-5, 5)), lambda: np.float64(rng.random()),
                  lambda: np.int64(rng.integers(9)), lambda: bool(rng.random() < 0.5),
                  lambda: None, lambda: "s", lambda: float(rng.choice([np.nan, np.inf, -np.inf]))]
        keys = ["j", "seed", "delta", "tau", "n_boot", "a"]

        def build(depth):
            kind = rng.integers(4 if depth < 4 else 1)
            if kind == 0:
                return leaves[rng.integers(len(leaves))]()
            if kind == 1:   # a list of numbers only
                return [leaves[rng.integers(5)]() for _ in range(rng.integers(4))]
            if kind == 2:
                return [build(depth + 1) for _ in range(rng.integers(4))]
            return {keys[rng.integers(len(keys))] + str(i) * int(rng.integers(2)): build(depth + 1)
                    for i in range(rng.integers(4))}

        for _ in range(400):
            payload = build(0)
            assert _json(payload) == reference_json(payload)

    @pytest.mark.parametrize("payload", [
        {"x": object()}, {"x": [1.0, object()]}, {"x": {1, 2}}, {"x": complex(1, 2)},
        {"x": [b"bytes"]}, [Fraction(1, 2), 1j],
    ], ids=lambda p: None)
    def test_unsupported_type(self, payload):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            reference_json(payload)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _json(payload)

    def test_non_string_key(self):
        # json.dumps would write 1 as "1"; no payload has a key that is not a string
        with pytest.raises(TypeError, match="must be a string"):
            _json({"a": {1: 0.5}})

    @pytest.mark.parametrize("argv", [
        ["bounds"], ["construct", "--target", "tau_max"], ["construct", "--target", "independent"],
        ["oracle", "--objective", "sign", "--sense", "min"],
    ], ids=lambda argv: "-".join(a for a in argv if not a.startswith("--")))
    @pytest.mark.parametrize("margins", [
        ["--p1", "1/7,0,2/7,4/7", "--p0", "3/7,1/7,0,3/7"],
        ["--p1", "0.1,0.2,0.3,0.4", "--p0", "0.4,0.3,0.2,0.1"],
    ], ids=["exact", "float"])
    def test_command_payloads(self, capsys, monkeypatch, argv, margins):
        # each command's output is the reference text of its payload
        import ordbounds.cli as cli

        payloads, emit = [], cli._emit
        monkeypatch.setattr(cli, "_emit", lambda p, args: payloads.append(p) or emit(p, args))
        code, out = run_cli(capsys, *argv, *margins)
        assert code == 0
        assert out == reference_json(payloads[0]) + "\n"


class TestVectorTokens:
    """--p1/--p0 tokens are read as objective cells are: an integer or a/b is
    exact, anything else a float; a vector is exact when every token is."""

    def test_integer_and_fraction_tokens_are_exact(self, capsys):
        code, out = run_cli(capsys, "bounds", "--p1", "1/2,1/2,0", "--p0", "0,1/2,1/2")
        assert code == 0
        code, want = run_cli(capsys, "bounds", "--p1", "1/2,1/2,0/1", "--p0", "0/1,1/2,1/2")
        assert code == 0 and out == want
        assert json.loads(out)["tau"] == {"lower": 0.0, "independent": 0.25, "upper": 0.5}

    def test_parsed_values(self):
        assert _parse_vector(" 1/2 , 1/2, 0 ") == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
        assert all(type(v) is Fraction for v in _parse_vector("1,0,0"))
        assert _parse_vector("1/2,0.5,0") == (0.5, 0.5, 0.0)
        assert all(type(v) is float for v in _parse_vector("1/4,0.5,1/4"))
        assert _parse_vector("0.25,0.75") == (0.25, 0.75)

    @pytest.mark.parametrize("p1, token", [("1/2,x\n", "'x'"), ("1/2,1/0", "Fraction(1, 0)"),
                                           ("1/2, 1//2", "'1//2'")])
    def test_bad_token_exits_2(self, capsys, p1, token):
        code, err = run_cli_err(capsys, "bounds", "--p1", p1, "--p0", "1/2,1/2")
        assert code == 2
        assert err.startswith(f"error: OrdBoundsError: cannot parse probability vector {p1!r}")
        assert err.rstrip().endswith(token)

    def test_objective_cell_message_is_stripped(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0,1\n1,x\n")
        code, err = run_cli_err(capsys, "oracle", "--p1", "1/2,1/2", "--p0", "1/2,1/2",
                                "--objective", str(path))
        assert code == 2
        assert err == "error: ValueError: could not convert string to float: 'x'\n"


class TestSeedOption:
    """--seed belongs to the commands that draw random numbers."""

    @pytest.mark.parametrize("argv", [
        ["bounds", "--p1", "0.5,0.5", "--p0", "0.5,0.5"],
        ["construct", "--p1", "0.5,0.5", "--p0", "0.5,0.5", "--target", "tau_max"],
        ["oracle", "--p1", "0.5,0.5", "--p0", "0.5,0.5", "--objective", "tau"],
    ], ids=["bounds", "construct", "oracle"])
    def test_rejected_without_random_draws(self, capsys, argv):
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--seed", "1"]) == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestSimulate:
    def test_small_run(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--study", "1", "--case", "2",
            "--reps", "20", "--boot", "120", "--seed", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["bias_lower"]) < 0.06
        assert payload["n_failed"] == 0


class TestParser:
    CALLS = (
        ("bounds", "--p1", "1/5,3/5,1/5", "--p0", "2/5,1/5,2/5"),
        ("construct", "--p1", "0.5,0.5", "--p0", "0.5,0.5", "--target", "tau_mid"),
        ("construct", "--p1", "0.2,0.6,0.2", "--p0", "0.4,0.2,0.4",
         "--target", "tau_max", "--format", "csv"),
    )

    def test_one_parser_serves_calls_as_fresh_processes_do(self, capsys, monkeypatch):
        # the parser is built once per process; a rejected argv between two
        # calls of different subcommands must leave nothing behind in it
        monkeypatch.setenv("COLUMNS", "80")   # argparse wraps usage to this width
        assert build_parser() is build_parser()
        in_process = []
        for argv in self.CALLS:
            code = main(list(argv))
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        src = os.path.dirname(os.path.dirname(ordbounds.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        fresh = [subprocess.run([sys.executable, "-m", "ordbounds.cli", *argv],
                                capture_output=True, text=True, env=env, timeout=120)
                 for argv in self.CALLS]
        assert [c for c, _, _ in in_process] == [0, 2, 0]
        assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh]


class TestRoundedDeltas:
    """Valid float marginals whose treated tail sum rounds to 1 + 2**-52:
    treated always at least control, so tau is 1."""

    P1 = "0,0.42461092968301356,0.5376463087320363,0.03774276158495021"

    def test_bounds(self, capsys):
        code, out = run_cli(capsys, "bounds", "--p1", self.P1, "--p0", "1,0,0,0")
        assert code == 0
        tau = json.loads(out)["tau"]
        assert tau["lower"] == pytest.approx(1, abs=1e-15)
        assert tau["upper"] == pytest.approx(1, abs=1e-15)

    @pytest.mark.parametrize("target", ["tau_min", "tau_max", "eta_min", "eta_max", "independent"])
    def test_construct(self, capsys, target):
        code, out = run_cli(capsys, "construct", "--p1", self.P1, "--p0", "1,0,0,0",
                            "--target", target)
        assert code == 0
        assert json.loads(out)["tau"] == pytest.approx(1, abs=1e-15)

    def test_analyze(self, capsys, tmp_path):
        # 28 controls at y=0; 28 treated with y counts (0, 1, 9, 18)
        y1 = [1] * 1 + [2] * 9 + [3] * 18
        path = tmp_path / "d.csv"
        write_csv(path, [(0, 0)] * 28 + [(1, y) for y in y1], ["z", "y"])
        code, out = run_cli(capsys, "analyze", "--data", str(path))
        assert code == 0
        tau = json.loads(out)["tau"]
        assert tau["lower"] == pytest.approx(1, abs=1e-15)
        assert tau["upper"] == pytest.approx(1, abs=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSimulateChecks:
    """simulate exits 2 on a study that cannot give a standard error and 3
    when fewer than two replicates succeed, never printing NaN."""

    @pytest.mark.parametrize("extra, why", [
        (("--n", "3"), "even"), (("--n", "0"), "even"), (("--n", "-2"), "even"),
        (("--reps", "1"), "at least 2"), (("--boot", "99"), "n_boot must be at least 100"),
        (("--adjusted",), "adjusted is for study 2"),
    ])
    def test_invalid_spec_exits_2(self, capsys, extra, why):
        code = main(["simulate", "--study", "1", "--case", "1", "--reps", "2",
                     "--boot", "100", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert why in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_too_few_bootstrap_replicates_exit_2_before_the_truth(self, capsys, monkeypatch):
        from ordbounds import simulation

        def no_truth(case):
            raise AssertionError("the truth ran before the spec was checked")

        monkeypatch.setattr(simulation, "study2_truth_quadrature", no_truth)
        code = main(["simulate", "--study", "2", "--case", "1", "--reps", "2", "--boot", "50"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "n_boot must be at least 100" in captured.err

    def test_too_few_replicates_exit_3(self, capsys):
        # n=2: one of the two replicates has no compliers to estimate from
        code = main(["simulate", "--study", "2", "--case", "1", "--n", "2", "--reps", "2",
                     "--boot", "100", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "ReplicateFailure" in captured.err


class TestOutputContract:
    """A closed stdout exits 0 with nothing on stderr; an unwritable output
    exits 2 with one error line.  Each case runs in a fresh interpreter, with
    stdout buffered and unbuffered, since either can raise first."""

    BOUNDS = ("bounds", "--p1", "0.5,0.5", "--p0", "0.5,0.5")
    J20 = ",".join(["1/20"] * 20)

    @staticmethod
    def run(argv, stdout, unbuffered):
        src = os.path.dirname(os.path.dirname(ordbounds.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run([sys.executable, "-m", "ordbounds.cli", *argv], stdout=stdout,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [
        BOUNDS,
        ("construct", "--p1", J20, "--p0", J20, "--target", "tau_max"),
        ("bounds", "--help"),
        BOUNDS + ("--out", "/dev/stdout"),
    ], ids=["bounds", "construct", "help", "out-dev-stdout"])
    def test_closed_stdout_exits_0(self, argv, unbuffered):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self.run(argv, write, unbuffered)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize("out", ["missing", "directory"])
    def test_unwritable_out_exits_2(self, tmp_path, out):
        path = str(tmp_path / "missing" / "x.json") if out == "missing" else str(tmp_path)
        proc = self.run(self.BOUNDS + ("--out", path), subprocess.PIPE, False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith(f"error: OrdBoundsError: cannot write {path}: [Errno ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_stdout_exits_2(self, unbuffered):
        with open("/dev/full", "w") as full:
            proc = self.run(self.BOUNDS, full, unbuffered)
        assert proc.returncode == 2
        assert proc.stderr == ("error: OrdBoundsError: cannot write stdout: "
                               "[Errno 28] No space left on device\n")

    def test_unwritable_out_in_process(self, capsys, tmp_path):
        assert main([*self.BOUNDS, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: OrdBoundsError: cannot write {tmp_path}")
