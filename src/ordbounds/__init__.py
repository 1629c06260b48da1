"""Sharp partial-identification bounds for treatment effects on ordinal outcomes.

Each submodule, and each public name below, is imported on first use (PEP
562), so ``import ordbounds`` loads none of them and a command line loads only
the modules its command runs.
"""

from importlib import import_module as _import_module

# each submodule and the public names it defines
_MODULES = {
    "bounds": ("BoundsReport", "eta_bounds", "full_report", "independent_estimands",
               "point_identified", "tau_bounds"),
    "coupling": ("TriangularMatrix", "extremal_coupling", "triangular_transport"),
    "datasets": ("bradley_counts", "bradley_records"),
    "distributions": ("DeltaVector", "JointDistribution", "MarginalDistribution", "MarginalPair",
                      "delta_effects", "empirical_marginals", "estimands_of_joint",
                      "stochastically_dominates", "validate_marginal"),
    "estimation": ("EstimatedBounds", "UnitRecord", "adjusted_bounds_from_strata",
                   "estimate_adjusted", "estimate_ipw", "estimate_randomized", "ipw_marginals"),
    "exceptions": (),
    "inference": ("IntervalReport", "Replicates", "bootstrap_bounds_ci",
                  "bootstrap_pair_ci_with_independent", "bootstrap_replicates",
                  "interval_from_replicates"),
    "lp_oracle": ("LinearObjective", "alpha_bounds", "indicator_objective", "optimize",
                  "sign_objective"),
    "models": ("CumulativeLogitModel", "LogitModel", "MultinomialLogitModel",
               "fit_cumulative_logit", "fit_logit", "fit_multinomial_logit", "predict_marginal"),
    "noncompliance": ("ComplierBoundsReport", "StrataModel", "complier_bounds", "em_fit",
                      "em_fit_with_covariates", "estimands_relation", "moment_identify"),
    "simulation": ("StudyResult", "StudySpec", "generate_study1", "generate_study2", "run_study",
                   "study1_truth", "study2_truth", "study2_truth_quadrature"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULES:   # importing a submodule binds it here, so this runs once per module
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:      # read from its module on every access, so both always agree
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULES, *__all__})
