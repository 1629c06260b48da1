"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import json
import os
import re
import sys
from collections import Counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ordbounds  # noqa: E402
import ordbounds.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from check import check  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _first_of_each(jobs, key, limit=1):
    seen, out = Counter(), []
    for job in jobs:
        k = key(job)
        if seen[k] < limit:
            seen[k] += 1
            out.append(job)
    return out


def _read(path):
    with open(path) as f:
        return f.read()


def _run(jobs):
    _, _, codes, errs = run.run_pass(jobs, ordbounds.cli)
    assert codes == [0] * len(jobs), errs
    outputs = []
    for job in jobs:
        with open(job.out) as f:
            outputs.append(json.load(f))
    return outputs


@pytest.fixture
def closed_jobs(tmp_path):
    jobs = workloads.closed_forms_jobs(0, str(tmp_path))
    small = [j for j in jobs if j.data["J"] <= 8]
    return _first_of_each(small, lambda j: (j.argv[0], j.data.get("target"), j.data.get("objective")))


def _perturbations(payload):
    """Copies of the payload, each with one number moved by 1e-6."""
    def numbers(obj, path=()):
        if isinstance(obj, dict):
            for k, v in obj.items():
                yield from numbers(v, path + (k,))
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                yield from numbers(v, path + (i,))
        elif isinstance(obj, float):
            yield path

    for path in numbers(payload):
        bad = copy.deepcopy(payload)
        ref = bad
        for k in path[:-1]:
            ref = ref[k]
        ref[path[-1]] += 1e-6
        yield path, bad


def test_checker_accepts_and_rejects_perturbed_closed_form_outputs(closed_jobs):
    assert {j.argv[0] for j in closed_jobs} == {"bounds", "construct", "oracle"}
    for job, payload in zip(closed_jobs, _run(closed_jobs)):
        assert check(job, payload) == []
        for path, bad in _perturbations(payload):
            assert check(job, bad), f"{job.argv[:1]} perturbed at {path} passed the check"


def test_checker_rejects_perturbed_unit_and_iv_outputs(tmp_path):
    (tmp_path / "unit").mkdir()
    (tmp_path / "iv").mkdir()
    unit = workloads.unit_analysis_jobs(0, str(tmp_path / "unit"))
    rand = next(j for j in unit if j.cls == "randomized")
    iv = workloads.iv_analysis_jobs(0, str(tmp_path / "iv"))
    from check import moment_solution

    point = next(j for j in iv if j.cls == "point"
                 and moment_solution(j.data["z"], j.data["d"], j.data["y"], 3)[5])
    (rand_out, iv_out) = _run([rand, point])
    assert check(rand, rand_out) == [] and check(point, iv_out) == []
    for block in ("tau", "eta"):
        for part in ("lower", "independent", "upper"):
            bad = copy.deepcopy(rand_out)
            bad[block][part] += 1e-9
            assert check(rand, bad)
    bad = copy.deepcopy(rand_out)
    bad["ci"]["tau"]["low"] = bad["ci"]["tau"]["high"] + 0.01
    assert check(rand, bad)
    bad = copy.deepcopy(iv_out)
    bad["complier"]["tau"]["upper"] += 0.01
    assert check(point, bad)
    bad = copy.deepcopy(iv_out)
    bad["population_sharpened"]["eta"]["lower"] += 1e-6
    assert check(point, bad)


def test_tracer_restores_every_binding(closed_jobs, tmp_path):
    def snapshot():
        return {(name, attr): value for name, mod in list(sys.modules.items())
                if name == "ordbounds" or name.startswith("ordbounds.")
                for attr, value in vars(mod).items()}

    before = snapshot()
    tracer = spans.Tracer()
    with tracer:
        # a name imported with "from .bounds import full_report" is re-bound too
        assert ordbounds.cli.full_report is not before[("ordbounds.cli", "full_report")]
        assert ordbounds.estimation.full_report is ordbounds.bounds.full_report
        ipw = next(j for j in workloads.unit_analysis_jobs(0, str(tmp_path)) if j.cls == "ipw")
        _, walls, codes, _ = run.run_pass(closed_jobs + [ipw], ordbounds.cli, tracer)
    assert tracer.restored()
    after = snapshot()
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert changed == []
    assert codes == [0] * len(codes)
    assert tracer.absent == []

    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "bounds.full_report", "coupling.extremal_coupling", "lp_oracle.optimize",
            "inference.bootstrap_bounds_ci", "models.fit_logit"} <= names
    roots = [s for s in tracer.spans if s[1] == -1]
    assert [s[0] for s in roots] == ["cli.main"] * len(walls)
    # self times add up to each job's traced wall time, within the wrapper overhead
    gaps = spans.job_self_gaps(tracer.spans, walls)
    assert all(0 <= g < 1e-3 for g in gaps), gaps
    metrics, _ = spans.layer_metrics(tracer.spans)
    assert metrics["inference.bootstrap_bounds_ci.calls_per_job"] == 4
    assert metrics["inference.bootstrap_bounds_ci.replicates"] == 400


def test_metric_names_and_benchmark_json_agree():
    e2e = [name for name, _ in run.E2E_SPECS]
    layer = [name for name, _, _ in spans.metric_specs()]
    for name in e2e + layer:
        assert NAME.fullmatch(name), name
    assert len(set(layer)) == len(layer) <= 128
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [m["name"] for m in bench["end_to_end"]] == e2e
    assert [m["unit"] for m in bench["end_to_end"]] == [u for _, u in run.E2E_SPECS]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == spans.metric_specs()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", [0, 13, 107])
def test_study2_draw_matches_generate_study2(seed):
    case = 1 + seed % 6
    draw = workloads.study2_draw(case, 400, seed)
    recs = ordbounds.generate_study2(case, 400, seed=seed)
    assert np.array_equal(draw["z"], [r.z for r in recs])
    assert np.array_equal(draw["d"], [r.d for r in recs])
    assert np.array_equal(draw["y"], [r.y for r in recs])
    assert np.array_equal(np.stack([draw["x1"], draw["x2"]], 1), [r.x for r in recs])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_workload_and_seed(workload, tmp_path):
    build = workloads.JOB_LISTS[workload]

    def inputs(seed):
        d = tmp_path / f"s{seed}"
        d.mkdir(exist_ok=True)
        jobs = build(seed, str(d))
        files = [_read(j.argv[j.argv.index("--data") + 1]) if "--data" in j.argv else ""
                 for j in jobs]
        argv = [[a for a in j.argv if str(d) not in a] for j in jobs]
        return [j.cls for j in jobs], argv, files

    a, b, c = inputs(1), inputs(1), inputs(2)
    assert a == b
    assert a[0] == c[0]                       # same job-class mix and order
    assert a[1:] != c[1:]                     # other data
    assert len(a[0]) >= 100


def test_em_probe_counts_the_known_nonconvergent_draws():
    # at seed 0 count EM does not converge on these n=400 draws
    assert run.em_probe(0)["nonconvergence"] == [13, 37, 59, 98, 107]
