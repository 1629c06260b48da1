"""The package namespace: every name resolves as an eager import would give
it, and a command line loads only the modules its command runs."""

import importlib
import os
import subprocess
import sys

import pytest

import ordbounds

# each submodule and the public names it defines, written out here so that a
# name dropped from the package's own table fails a test
EXPORTS = {
    "bounds": ["BoundsReport", "eta_bounds", "full_report", "independent_estimands",
               "point_identified", "tau_bounds"],
    "coupling": ["TriangularMatrix", "extremal_coupling", "triangular_transport"],
    "datasets": ["bradley_counts", "bradley_records"],
    "distributions": ["DeltaVector", "JointDistribution", "MarginalDistribution", "MarginalPair",
                      "delta_effects", "empirical_marginals", "estimands_of_joint",
                      "stochastically_dominates", "validate_marginal"],
    "estimation": ["EstimatedBounds", "UnitRecord", "adjusted_bounds_from_strata",
                   "estimate_adjusted", "estimate_ipw", "estimate_randomized", "ipw_marginals"],
    "exceptions": [],
    "inference": ["IntervalReport", "Replicates", "bootstrap_bounds_ci",
                  "bootstrap_pair_ci_with_independent", "bootstrap_replicates",
                  "interval_from_replicates"],
    "lp_oracle": ["LinearObjective", "alpha_bounds", "indicator_objective", "optimize",
                  "sign_objective"],
    "models": ["CumulativeLogitModel", "LogitModel", "MultinomialLogitModel",
               "fit_cumulative_logit", "fit_logit", "fit_multinomial_logit", "predict_marginal"],
    "noncompliance": ["ComplierBoundsReport", "StrataModel", "complier_bounds", "em_fit",
                      "em_fit_with_covariates", "estimands_relation", "moment_identify"],
    "simulation": ["StudyResult", "StudySpec", "generate_study1", "generate_study2", "run_study",
                   "study1_truth", "study2_truth", "study2_truth_quadrature"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_lists_the_exports():
    assert (len(EXPORTS), len(NAMES)) == (11, 60)
    assert sorted(ordbounds.__all__) == sorted(name for _, name in NAMES)


def _fresh(code, *args):
    """The stdout of code run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(ordbounds.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Importing one submodule binds it, and the submodules it imports, as package
# attributes, so each submodule is looked up first in a package loaded afresh.
_SUBMODULES = """
import importlib, sys
for name in sys.argv[1:]:
    for m in [m for m in sys.modules if m.split(".")[0] == "ordbounds"]:
        del sys.modules[m]
    package = importlib.import_module("ordbounds")
    print(getattr(package, name) is importlib.import_module(f"ordbounds.{name}"))
"""


def test_each_submodule_is_an_attribute_of_a_fresh_package():
    assert _fresh(_SUBMODULES, *EXPORTS).split() == ["True"] * len(EXPORTS)


def test_each_export_is_its_modules_object():
    assert [(m, name) for m, name in NAMES if getattr(ordbounds, name)
            is not getattr(importlib.import_module(f"ordbounds.{m}"), name)] == []


def test_star_import_binds_all():
    namespace = {}
    exec("from ordbounds import *", namespace)
    assert {name: namespace[name] for name in ordbounds.__all__} == {
        name: getattr(ordbounds, name) for name in ordbounds.__all__}


def test_dir_lists_exports_and_submodules():
    assert set(ordbounds.__all__) | set(EXPORTS) <= set(dir(ordbounds))


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        ordbounds.no_such_name


# runs bounds, then construct, then oracle through cli.main in one
# interpreter, printing the ordbounds submodules loaded after each
_LOADS = """
import contextlib, io, sys
from ordbounds.cli import main

def loaded():
    return ",".join(sorted(m[10:] for m in sys.modules if m.startswith("ordbounds.")))

margins = ["--p1", "1/5,3/5,1/5", "--p0", "2/5,1/5,2/5"]
for argv in (["bounds"], ["construct", "--target", "tau_max"], ["oracle", "--objective", "sign"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + margins) == 0
    print(loaded())
"""


def test_each_command_loads_only_what_it_runs():
    after = [set(line.split(",")) for line in _fresh(_LOADS).split()]
    assert after[0] == {"bounds", "cli", "distributions", "exceptions"}
    assert after[1] - after[0] == {"coupling"}
    assert after[2] - after[1] == {"lp_oracle"}
