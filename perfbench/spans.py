"""Span tracer for the traced run.

``Tracer`` wraps the public functions of each ``ordbounds`` layer and re-binds
every module attribute that refers to one of them, including the names other
modules took with ``from .x import f``.  Each call records a span (name,
parent, start, end, job, error type, extras) in memory; ``layer_metrics``
turns the spans into per-layer counts and times.  ``uninstall`` puts every
original function back.

Wrapper cost is about a microsecond per call and lands in the self time of
the caller's span, so self times add up to the job's traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

# layer module -> wrapped functions
TARGETS = {
    "cli": ("main",),
    "inference": ("bootstrap_bounds_ci",),
    "noncompliance": ("em_fit", "_em_from_counts", "em_fit_with_covariates",
                      "moment_identify", "complier_bounds"),
    "models": ("fit_cumulative_logit", "fit_logit", "fit_multinomial_logit"),
    "estimation": ("estimate_randomized", "estimate_ipw", "estimate_adjusted"),
    "distributions": ("empirical_marginals",),
    "bounds": ("full_report", "point_identified", "tau_bounds_array", "eta_bounds_array",
               "independent_tau_array", "independent_eta_array"),
    "coupling": ("extremal_coupling",),
    "lp_oracle": ("optimize", "alpha_bounds"),
    "simulation": ("run_study", "study2_truth", "generate_study1", "generate_study2"),
}

# the four stacked-array kernels are reported together as one layer
_ARRAY_KERNELS = {f"bounds.{f}" for f in ("tau_bounds_array", "eta_bounds_array",
                                          "independent_tau_array", "independent_eta_array")}
ARRAY_LAYER = "bounds.array"
_EM = ("noncompliance.em_fit", "noncompliance._em_from_counts",
       "noncompliance.em_fit_with_covariates")


# metrics the harness fills in from its own timings, not from the spans
HARNESS_METRICS = {"trace.jobs_per_s", "trace.jobs_per_s_untraced", "trace.overhead",
                   "trace.self_gap_max_s"}


def layer_names() -> list:
    names, seen = [], set()
    for mod, fns in TARGETS.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            name = ARRAY_LAYER if name in _ARRAY_KERNELS else name
            if name not in seen:
                seen.add(name)
                names.append(name)
    return names


def metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for layer in layer_names():
        specs += [(f"{layer}.calls", "count", "lower"), (f"{layer}.busy_s", "s", "lower"),
                  (f"{layer}.self_s", "s", "lower"), (f"{layer}.errors", "count", "lower")]
        if layer == "cli.main":
            specs += [("cli.main.in_bytes", "B", "lower"), ("cli.main.out_bytes", "B", "lower"),
                      ("cli.main.exit2", "count", "lower"), ("cli.main.exit3", "count", "lower")]
        elif layer == "inference.bootstrap_bounds_ci":
            specs += [(f"{layer}.replicates", "count", "lower"),
                      (f"{layer}.replicates_failed", "count", "lower"),
                      (f"{layer}.replicate_ok_ratio", "ratio", "higher"),
                      (f"{layer}.calls_per_job", "count", "lower")]
        elif layer in _EM:
            specs += [(f"{layer}.iters", "count", "lower"),
                      (f"{layer}.nonconvergence", "count", "lower")]
        elif layer == ARRAY_LAYER:
            specs.append((f"{layer}.rows", "count", "lower"))
        elif layer == "simulation.study2_truth":
            specs.append((f"{layer}.draws", "count", "lower"))
    specs += [("em_probe.draws", "count", "lower"),
              ("em_probe.nonconvergence", "count", "lower")]
    specs += [("trace.jobs_per_s", "1/s", "higher"),
              ("trace.jobs_per_s_untraced", "1/s", "higher"),
              ("trace.overhead", "ratio", "lower"),
              ("trace.self_gap_max_s", "s", "lower")]
    return specs


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _flag_value(argv, flag):
    if flag in argv:
        i = argv.index(flag)
        return argv[i + 1] if i + 1 < len(argv) else None
    return None


def _main_extras(args, result):
    argv = list(args["argv"] or sys.argv[1:])
    data = _flag_value(argv, "--data")
    in_bytes = _file_size(data) if data else sum(len(a) for a in argv)
    return {"in_bytes": in_bytes, "out_bytes": _file_size(_flag_value(argv, "--out")),
            "exit": result}


def _boot_extras(args, result):
    return {"replicates": args["n_boot"],
            "failed": result.n_failed if result is not None else args["n_boot"]}


def _em_counts_extras(args, result):
    return {"iters": len(result[5]) if result is not None else args["max_iter"]}


def _em_cov_extras(args, result):
    return {"iters": result.n_iter if result is not None else args["max_iter"]}


def _rows_extras(args, result):
    shape = getattr(args["p1"], "shape", (1,))
    rows = 1
    for s in shape[:-1]:
        rows *= s
    return {"rows": rows}


def _truth_extras(args, result):
    return {"draws": args["n_draws"]}


_EXTRAS = {
    "cli.main": _main_extras,
    "inference.bootstrap_bounds_ci": _boot_extras,
    "noncompliance._em_from_counts": _em_counts_extras,
    "noncompliance.em_fit_with_covariates": _em_cov_extras,
    "simulation.study2_truth": _truth_extras,
    **{k: _rows_extras for k in _ARRAY_KERNELS},
}


class Tracer:
    """Wraps the TARGETS functions of an imported ``ordbounds`` while installed."""

    def __init__(self):
        self.spans = []      # [name, parent, start, end, job, error, extras]
        self.job = -1
        self.absent = []
        self._stack = []
        self._bindings = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extras = _EXTRAS.get(name)
        sig = inspect.signature(fn) if extras else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, self.job, None, None]
            spans.append(span)
            stack.append(sid)
            result = None
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                span[5] = type(e).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if extras:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[6] = extras(bound.arguments, result)
        return wrapper

    def install(self):
        modules = {m: importlib.import_module(f"ordbounds.{m}") for m in TARGETS}
        loaded = [m for n, m in sys.modules.items() if n == "ordbounds" or n.startswith("ordbounds.")]
        for mod, fns in TARGETS.items():
            for fn in fns:
                name = f"{mod}.{fn}"
                orig = getattr(modules[mod], fn, None)
                if orig is None:
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, orig)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._bindings.append((m, attr, orig))
        return self

    def uninstall(self):
        for m, attr, orig in reversed(self._bindings):
            setattr(m, attr, orig)

    def restored(self) -> bool:
        """Every attribute the tracer re-bound holds its original again."""
        return all(getattr(m, attr) is orig for m, attr, orig in self._bindings)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> list:
    """Per span: duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[3] - s[2]
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def layer_metrics(spans) -> dict:
    """Per-layer metric values (names as in metric_specs) and errors by type."""
    selfs = self_times(spans)
    calls, busy, self_s = Counter(), defaultdict(float), defaultdict(float)
    errors = defaultdict(Counter)
    extra = defaultdict(float)
    jobs_calling = defaultdict(set)
    for i, (s, st) in enumerate(zip(spans, selfs)):
        name = ARRAY_LAYER if s[0] in _ARRAY_KERNELS else s[0]
        calls[name] += 1
        jobs_calling[name].add(s[4])
        busy[name] += s[3] - s[2]
        self_s[name] += st
        if s[5]:
            errors[name][s[5]] += 1
            if s[5] == "NonConvergence" and name in _EM:
                extra[f"{name}.nonconvergence"] += 1
        ex = s[6] or {}
        if name == "cli.main":
            extra["cli.main.in_bytes"] += ex.get("in_bytes", 0)
            extra["cli.main.out_bytes"] += ex.get("out_bytes", 0)
            if ex.get("exit") in (2, 3):
                extra[f"cli.main.exit{ex['exit']}"] += 1
        elif name == "inference.bootstrap_bounds_ci" and ex:
            extra[f"{name}.replicates"] += ex["replicates"]
            extra[f"{name}.replicates_failed"] += ex["failed"]
        elif name == ARRAY_LAYER:
            extra[f"{name}.rows"] += ex.get("rows", 0)
        elif name == "simulation.study2_truth" and ex:
            extra[f"{name}.draws"] += ex["draws"]
        elif "iters" in ex:
            extra[f"{name}.iters"] += ex["iters"]
            parent = spans[s[1]] if s[1] >= 0 else None
            if name == "noncompliance._em_from_counts" and parent and parent[0] == "noncompliance.em_fit":
                extra["noncompliance.em_fit.iters"] += ex["iters"]
    out = {}
    for name in layer_names():
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.errors"] = sum(errors[name].values())
    boot = "inference.bootstrap_bounds_ci"
    reps = extra[f"{boot}.replicates"]
    extra[f"{boot}.replicate_ok_ratio"] = (reps - extra[f"{boot}.replicates_failed"]) / reps if reps else 0.0
    extra[f"{boot}.calls_per_job"] = calls[boot] / len(jobs_calling[boot]) if calls[boot] else 0.0
    for name, _, _ in metric_specs():
        if name not in out and name not in HARNESS_METRICS:
            out[name] = extra[name]
    return out, {k: dict(v) for k, v in errors.items() if v}


def job_self_gaps(spans, walls) -> list:
    """Per job: traced wall time minus the summed self times of its spans."""
    total = defaultdict(float)
    for s, st in zip(spans, self_times(spans)):
        total[s[4]] += st
    return [w - total[j] for j, w in enumerate(walls)]
