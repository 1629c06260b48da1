import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ordbounds
from ordbounds import bootstrap_bounds_ci
from ordbounds.cli import _read_unit_csv, build_parser, main
from ordbounds.distributions import unit_columns
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

    def test_bad_target_exits_2(self, capsys):
        # argparse validates the --target choices itself
        with pytest.raises(SystemExit) as err:
            main(["construct", "--p1", "0.5,0.5", "--p0", "0.5,0.5",
                  "--target", "tau_mid"])
        assert err.value.code == 2


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
        path = self.make_iv_data(tmp_path)
        code, out = run_cli(capsys, "analyze-iv", "--data", str(path), "--bootstrap", "100",
                            "--seed", "8", "--ci-method", method)
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
            try:
                code = main(list(argv))
            except SystemExit as e:
                code = e.code
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
        (("--reps", "1"), "at least 2"),
    ])
    def test_invalid_spec_exits_2(self, capsys, extra, why):
        code = main(["simulate", "--study", "1", "--case", "1", "--reps", "2",
                     "--boot", "100", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert why in captured.err

    def test_too_few_replicates_exit_3(self, capsys):
        # n=2: one of the two replicates has no compliers to estimate from
        code = main(["simulate", "--study", "2", "--case", "1", "--n", "2", "--reps", "2",
                     "--boot", "100", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "ReplicateFailure" in captured.err
