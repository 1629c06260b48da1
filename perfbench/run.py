"""ordbounds benchmark: CLI workloads driven in-process by one closed-loop client.

Usage (from the repository root):

    python3 perfbench/run.py --workload closed_forms --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

A run builds its workload's fixed job list from --seed, then runs whole passes
over the list through ``ordbounds.cli.main(argv)`` while another pass still
fits in --seconds (always at least one), and checks every output.  With
--trace 0 it prints the end-to-end metrics; with --trace 1 it runs one
untraced and one traced pass and prints the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Each run also writes its full record to perfbench/results/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "_work")

SETUP_SPAWNS = 7
SETUP_ARGV = ["bounds", "--p1", "1/5,3/5,1/5", "--p0", "2/5,1/5,2/5"]
_SETUP_CODE = "import sys; from ordbounds.cli import main; sys.exit(main(sys.argv[1:]))"
_BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

E2E_SPECS = [("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_s.p50", "s"), ("job_s.p90", "s"),
             ("ok_ratio", "ratio"), ("peak_rss_mb", "MB")]

# A shared host switches between fast and slow CPU states, often several times
# a second, and the share of time spent slow drifts over minutes; the same work
# can take 1.8 times as long.  Times are therefore scaled to a fixed CPU speed:
# the reference loop is timed at most every SAMPLE_S seconds between jobs (and
# between set-up spawns), and each job's time is multiplied by the mean of
# REF_S / (loop time) over the samples within WINDOW_S of the job.  REF_S is
# the loop's time in the fast state of a 2-vCPU Intel Xeon host.  Raw
# wall-clock values are printed beside the scaled ones and saved.
REF_S = 0.0029
SAMPLE_S = 0.1
WINDOW_S = 0.5


def _import_package():
    """Import ordbounds.cli from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "ordbounds", "cli.py")):
        raise SystemExit(f"perfbench: no ordbounds sources under {SRC}")
    sys.path.insert(0, SRC)
    import ordbounds.cli

    found = os.path.realpath(ordbounds.cli.__file__)
    if not found.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: imported ordbounds from {found}, not from {SRC}")
    return ordbounds.cli


# -- measurement ------------------------------------------------------------------

def _reference_loop() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work."""
    import numpy as np

    t0 = time.perf_counter()
    x = 0
    for i in range(20000):
        x += i * i
    a = np.arange(64.0)
    for _ in range(300):
        a = np.cumsum(a[::-1]) / 64.0
    return time.perf_counter() - t0


class Speed:
    """Durations measured with ``record``, scaled to the reference CPU speed
    by reference-loop samples taken with ``tick`` before each of them."""

    def __init__(self):
        self.samples = []   # (time, loop seconds)
        self.spans = []     # (start, seconds)
        self._last = -1.0

    def tick(self):
        if time.perf_counter() - self._last >= SAMPLE_S:
            self.samples.append((time.perf_counter(), _reference_loop()))
            self._last = time.perf_counter()

    def record(self, start, seconds):
        self.spans.append((start, seconds))

    def scaled(self) -> list:
        """Every recorded duration times the mean speed of the samples within
        WINDOW_S of it; call once, after the last span."""
        self.samples.append((time.perf_counter(), _reference_loop()))
        times = [t for t, _ in self.samples]
        speeds = [REF_S / r for _, r in self.samples]
        out = []
        for start, seconds in self.spans:
            lo = bisect.bisect_left(times, start - WINDOW_S)
            hi = bisect.bisect_right(times, start + seconds + WINDOW_S)
            out.append(seconds * statistics.fmean(speeds[lo:hi]))
        return out


def measure_setup(speed) -> list:
    """Wall times of fresh interpreters importing ordbounds and finishing one
    J=3 bounds call, each output checked and recorded in ``speed``."""
    from check import check
    from workloads import Job

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    job = Job("setup", SETUP_ARGV, "", {"p1": [0.2, 0.6, 0.2], "p0": [0.4, 0.2, 0.4]})
    times = []
    for _ in range(SETUP_SPAWNS):
        for _ in range(3):
            speed.tick()
            time.sleep(SAMPLE_S)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, *SETUP_ARGV], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        speed.record(t0, times[-1])
        try:
            problems = check(job, json.loads(proc.stdout)) if proc.returncode == 0 else [proc.stderr]
        except ValueError as e:
            problems = [f"unparsable output: {e}"]
        if problems:
            raise SystemExit(f"perfbench: set-up call failed: {problems[0][:300]}")
    return times


def run_pass(jobs, cli, tracer=None, speed=None):
    """Run every job once through ``cli.main``, looked up per call so that a
    traced run goes through the tracer's wrapper, and record each job's time
    in ``speed``; returns (wall, latencies, codes, stderr)."""
    lat, codes, errs = [], [], []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        if speed is not None:
            speed.tick()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = cli.main(job.argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
            except Exception as e:  # an uncaught error fails this job, not the batch
                rc = -1
                print(f"uncaught {type(e).__name__}: {e}")
            lat.append(time.perf_counter() - t0)
        if speed is not None:
            speed.record(t0, lat[-1])
        codes.append(rc)
        errs.append(sink.getvalue())
    return time.perf_counter() - start, lat, codes, errs


def check_pass(jobs, codes, errs) -> dict:
    """job index -> failure record, for jobs that exited non-zero or whose
    output failed the check.  Output files are removed once read."""
    from check import check

    failures = {}
    for i, job in enumerate(jobs):
        if codes[i] != 0:
            first = (errs[i].strip().splitlines() or ["(no message)"])[-1]
            kind = first.split(":")[1].strip() if first.startswith("error:") else f"exit {codes[i]}"
            failures[i] = {"class": job.cls, "exit": codes[i], "reason": kind, "message": first[:300]}
            continue
        try:
            with open(job.out) as f:
                payload = json.load(f)
            problems = check(job, payload)
        except (OSError, ValueError) as e:
            problems = [f"unreadable output: {e}"]
        if problems:
            failures[i] = {"class": job.cls, "exit": 0, "reason": "check", "message": problems[:5]}
    for job in jobs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(job.out)
    return failures


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _class_at(lat, classes, q):
    """Class of the job at the q-th percentile rank, and the share of that
    class among the jobs within 5 percentile ranks of it."""
    order = sorted(range(len(lat)), key=lat.__getitem__)
    n = len(order)
    at = order[round(q / 100 * (n - 1))]
    lo, hi = round((q - 5) / 100 * (n - 1)), round(min(q + 5, 100) / 100 * (n - 1))
    window = [classes[order[k]] for k in range(lo, hi + 1)]
    return classes[at], window.count(classes[at]) / len(window)


# -- reporting ----------------------------------------------------------------------

def meta(workload, seed, jobs) -> dict:
    import numpy as np

    sha = "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    blas = {k: os.environ.get(k) for k in _BLAS_ENV}
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas["numpy_blas"] = f"{info.get('name')} {info.get('version')}"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "workload": workload,
        "seed": seed,
        "jobs_by_class": dict(Counter(j.cls for j in jobs)),
    }


def _result_line(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def _save(name, record):
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump(record, f, default=str)


def run_workload(workload, seed, seconds, trace) -> int:
    cli = _import_package()
    import workloads

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
    try:
        setup_speed = Speed()
        setup = None if trace else measure_setup(setup_speed)
        jobs = workloads.JOB_LISTS[workload](seed, workdir)
        info = meta(workload, seed, jobs)
        if trace:
            return _traced(workload, seed, jobs, cli, info)
        return _untraced(workload, seed, seconds, jobs, cli, info, setup, setup_speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(workload, seed, seconds, jobs, cli, info, setup, setup_speed) -> int:
    speed = Speed()
    walls, raw, classes, failures = [], [], [], []
    while True:
        wall, l, codes, errs = run_pass(jobs, cli, speed=speed)
        walls.append(wall)
        raw += l
        classes += [j.cls for j in jobs]
        failures.append(check_pass(jobs, codes, errs))
        if sum(walls) + wall > seconds:
            break
    lat = speed.scaled()
    attempted = len(lat)
    failed = sum(len(f) for f in failures)
    wrong = sum(1 for f in failures for r in f.values() if r["reason"] == "check")
    metrics = {
        "setup_s": statistics.median(setup_speed.scaled()),
        "jobs_per_s": attempted / sum(lat),
        "job_s.p50": statistics.median(lat),
        "job_s.p90": _quantile(lat, 90),
        "ok_ratio": 1 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    raw_metrics = {"setup_s": statistics.median(setup),
                   "jobs_per_s": attempted / sum(raw), "job_s.p50": statistics.median(raw),
                   "job_s.p90": _quantile(raw, 90)}
    units = dict(E2E_SPECS)
    p50_cls, p50_share = _class_at(lat, classes, 50)
    p90_cls, p90_share = _class_at(lat, classes, 90)
    reasons = Counter(r["reason"] for f in failures for r in f.values())
    samples = {"setup_s": f"median of {len(setup)} spawns",
               "jobs_per_s": f"{attempted} jobs in {len(walls)} pass(es), {sum(walls):.2f} s wall",
               "job_s.p50": f"{attempted} jobs; class {p50_cls} ({p50_share:.0%} of neighbours)",
               "job_s.p90": f"{attempted} jobs; class {p90_cls} ({p90_share:.0%} of neighbours)",
               "ok_ratio": f"fail_ratio {failed / attempted:.4f} = {failed} of {attempted}",
               "peak_rss_mb": "ru_maxrss of the job process"}
    print(f"perfbench {workload} seed={seed} trace=0 passes={len(walls)} "
          f"jobs={info['jobs_by_class']} failures={dict(reasons)}")
    print(f"  times scaled to the reference CPU speed, by {sum(lat) / sum(raw):.3f} on average for jobs "
          f"({len(speed.samples)} reference samples) and {metrics['setup_s'] / raw_metrics['setup_s']:.3f} "
          f"for set-up ({len(setup_speed.samples)}); raw values in brackets")
    for name, unit in E2E_SPECS:
        raw_note = f" [raw {raw_metrics[name]:.6g}]" if name in raw_metrics else ""
        print(f"  {name:<12} {metrics[name]:>12.6g} {unit:<6} {samples[name]}{raw_note}")
    print("meta " + json.dumps(info))
    _save(f"{workload}-seed{seed}-trace0.json", {
        "meta": info, "metrics": metrics, "raw_metrics": raw_metrics, "samples": samples,
        "pass_walls": walls, "latencies": lat, "raw_latencies": raw, "classes": classes,
        "reference_samples": speed.samples, "setup_reference_samples": setup_speed.samples,
        "setup_times": setup,
        "failures": [dict(r, job=i, pass_=p) for p, f in enumerate(failures) for i, r in f.items()],
    })
    print(_result_line(wrong == 0, attempted, failed, metrics, units))
    return 0


def em_probe(seed) -> dict:
    """Count ``em_fit`` calls that raise NonConvergence on the n=400 study-2
    draws of ``workloads.em_probe_draws``: EM robustness, measured outside the
    job list so that no job of the workload fails."""
    from ordbounds.estimation import UnitRecord
    from ordbounds.exceptions import NonConvergence
    from ordbounds.noncompliance import em_fit
    import workloads

    draws = workloads.em_probe_draws(seed)
    nonconvergence = []
    for s, d in draws:
        records = [UnitRecord(z=int(z), y=int(y), d=int(t), x=(float(a), float(b)))
                   for z, t, y, a, b in zip(d["z"], d["d"], d["y"], d["x1"], d["x2"])]
        try:
            em_fit(records)
        except NonConvergence:
            nonconvergence.append(s)
    return {"draws": len(draws), "nonconvergence": nonconvergence}


def _traced(workload, seed, jobs, cli, info) -> int:
    import spans as sp
    import workloads

    probe = em_probe(seed) if workload == "iv_analysis" else {"draws": 0, "nonconvergence": []}
    plain_wall, _, codes, errs = run_pass(jobs, cli)
    plain_fail = check_pass(jobs, codes, errs)
    tracer = sp.Tracer()
    with tracer:
        wall, lat, codes, errs = run_pass(jobs, cli, tracer)
    restored = tracer.restored()
    traced_fail = check_pass(jobs, codes, errs)
    layer, errors = sp.layer_metrics(tracer.spans)
    gaps = sp.job_self_gaps(tracer.spans, lat)
    layer.update({
        "trace.jobs_per_s": len(jobs) / wall,
        "trace.jobs_per_s_untraced": len(jobs) / plain_wall,
        "trace.overhead": wall / plain_wall - 1,
        "trace.self_gap_max_s": max(gaps),
        "em_probe.draws": probe["draws"],
        "em_probe.nonconvergence": len(probe["nonconvergence"]),
    })
    units = {name: unit for name, unit, _ in sp.metric_specs()}
    attempted = 2 * len(jobs)
    failed = len(plain_fail) + len(traced_fail)
    wrong = sum(1 for f in (plain_fail, traced_fail) for r in f.values() if r["reason"] == "check")
    print(f"perfbench {workload} seed={seed} trace=1 jobs={info['jobs_by_class']} "
          f"spans={len(tracer.spans)} absent={tracer.absent or 'none'} restored={restored}")
    print(f"  traced {layer['trace.jobs_per_s']:.4g} jobs/s, untraced "
          f"{layer['trace.jobs_per_s_untraced']:.4g} jobs/s, overhead {layer['trace.overhead']:+.2%}, "
          f"largest per-job gap between wall time and summed self times {max(gaps) * 1e3:.3f} ms")
    print(f"  EM probe: NonConvergence on {len(probe['nonconvergence'])} of {probe['draws']} "
          f"n={workloads.EM_PROBE_N} draws, s = {probe['nonconvergence']}")
    print("  errors by type: " + json.dumps(errors))
    print("meta " + json.dumps(info))
    _save(f"{workload}-seed{seed}-trace1.json", {
        "meta": info, "metrics": layer, "errors_by_type": errors, "absent": tracer.absent,
        "span_fields": ["name", "parent", "start", "end", "job", "error", "extras"],
        "spans": tracer.spans, "job_walls": lat, "self_gaps": gaps, "em_probe": probe,
    })
    print(_result_line(wrong == 0 and restored, attempted, failed, layer, units))
    return 0 if restored else 1


def run_all(seed, seconds, trace) -> int:
    """Each workload in its own process (peak RSS is per process), then a table."""
    import workloads

    rows, merged, correct, attempted, failed = [], {}, True, 0, 0
    for w in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for k, v in res["metrics"].items():
            merged[f"{w}.{k}"] = v
        rows.append((w, res))
    if not trace:
        print(f"\n{'workload':<14}" + "".join(f"{n:>13}" for n, _ in E2E_SPECS) + f"{'fail_ratio':>12}")
        for w, res in rows:
            with open(os.path.join(RESULTS, f"{w}-seed{seed}-trace0.json")) as f:
                m = json.load(f)["metrics"]
            print(f"{w:<14}" + "".join(f"{m[n]:>13.5g}" for n, _ in E2E_SPECS)
                  + f"{res['failed'] / res['attempted']:>12.4f}")
        print(f"{'unit':<14}" + "".join(f"{u:>13}" for _, u in E2E_SPECS) + f"{'ratio':>12}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
