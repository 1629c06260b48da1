"""Monte Carlo evaluation of the estimators and confidence intervals.

The package ships the two simulation designs used to validate the
methodology: a completely randomized experiment on a fixed finite population
(study 1, four cases that vary the dependence between the potential
outcomes while keeping the marginals fixed), and a noncompliance design with
covariates (study 2, six cases that vary how strongly the covariates drive
the complier outcomes).

This demo runs small desk-scale versions (the full replication lives in the
acceptance test suite) and prints the usual bias / coverage summary rows.

Run:  python3 demos/06_monte_carlo_studies.py        (a few seconds)
"""

from ordbounds import StudySpec, run_study, study1_truth, study2_truth_quadrature


def main():
    print("study 1: randomized experiment, fixed finite population, n=200")
    print("case  true tau  bounds          bias_L   bias_U   coverage")
    for case in (1, 2, 3, 4):
        t = study1_truth(case)
        spec = StudySpec(study=1, case_id=case, n_units=200,
                         n_reps=200, n_boot=300, seed=7)
        r = run_study(spec, ci_method="normal")
        print(f"  {case}    {t['tau']:.3f}   [{t['tau_L']:.1f}, {t['tau_U']:.1f}]"
              f"     {r.bias_L:+.3f}   {r.bias_U:+.3f}    {r.coverage_bounds:.3f}")
    print()

    print("study 2: noncompliance with covariates, n=1000, case 2")
    truth = study2_truth_quadrature(2)
    print(f"  true tau_c={truth['tau_c']:.3f}  unadjusted bounds "
          f"[{truth['tau_c_L']:.3f}, {truth['tau_c_U']:.3f}]  adjusted "
          f"[{truth['tau_c_L_adj']:.3f}, {truth['tau_c_U_adj']:.3f}]")
    spec = StudySpec(study=2, case_id=2, n_units=1000,
                     n_reps=40, n_boot=200, seed=9)
    r = run_study(spec, truth=truth, ci_method="normal")
    print(f"  unadjusted estimator: bias=({r.bias_L:+.3f}, {r.bias_U:+.3f})"
          f"  ci_length={r.ci_length:.3f}  coverage={r.coverage_bounds:.3f}")


if __name__ == "__main__":
    main()
