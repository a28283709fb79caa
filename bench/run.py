"""wsnpower benchmark: closed-loop scenario jobs, end-to-end and per-module metrics.

    python3 bench/run.py --workload default-80 --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seconds 60

One client runs one job, waits for it, checks its outputs, then starts the
next, until ``--seconds`` have passed.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` wraps the package's public functions (see tracing.py)
and reports per-module metrics instead.  ``--workload all`` runs every
workload untraced and traced, each in a fresh process, and prints every
metric plus the tracing overhead.  The last line of standard output is one
JSON object.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads: the runs must not depend on how
# many cores the machine lends to library thread pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402,F401  (a dependency: its import is not the program's set-up)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
EQ_RESIDUAL_SCENARIOS = 8


def _import_package():
    """Import wsnpower from scratch; returns its traced modules by short name."""
    for name in [n for n in sys.modules if n == "wsnpower" or n.startswith("wsnpower.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"wsnpower.{m}") for m in tracing.MODULES})


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def run(workload, seed, seconds, trace, jobs=None, log=print):
    """One benchmark run in this process; returns (result, tracer or None, modules)."""
    wl = WORKLOADS[workload]
    tag = f"{workload}-seed{seed}-{'traced' if trace else 'untraced'}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    try:
        # Set-up is import plus input generation; done several times, median kept.
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wsn = _import_package()
            scenarios = wl.generate(wsn, seed, workdir)
            setup.append(perf_counter() - t0)

        digests = {}
        outcomes = {}
        failures = []

        def attempt(label, scenario):
            out_dir = os.path.join(workdir, label)
            error = None
            t0 = perf_counter()
            try:
                value = wl.run(wsn, scenario, out_dir)
            except Exception as exc:  # a job that raises counts as failed; the loop goes on
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.end_job()
            if error is None:
                try:
                    outcome = wl.check(wsn, scenario, out_dir, value)
                except Exception as exc:
                    error = f"check: {type(exc).__name__}: {exc}"
            if error is None:
                first = digests.setdefault(scenario.index, outcome.digest)
                if outcome.digest != first:
                    error = "outputs differ from an earlier run of the same scenario"
                outcomes.setdefault(scenario.index, outcome)
            if error is not None:
                failures.append(f"{label} (scenario seed {scenario.seed}): {error}")
            shutil.rmtree(out_dir, ignore_errors=True)
            return elapsed

        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install(vars(wsn))
        times, order = [], []
        try:
            loop_start = perf_counter()
            while perf_counter() - loop_start < seconds and (jobs is None or len(times) < jobs):
                j = len(times)
                # Job 1 repeats scenario 0, so every run with two or more jobs
                # checks that a scenario's outputs reproduce byte for byte.
                scenario = scenarios[max(j - 1, 0) % len(scenarios)]
                if tracer is not None:
                    tracer.begin_job(j)
                times.append(attempt(f"job-{j}", scenario))
                order.append(scenario)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        for line in failures:
            log(f"FAILED {line}", file=sys.stderr)
        attempted = len(times)
        summary = f"{workload} seed {seed}: {attempted} jobs, failed {len(failures)}"
        if trace:
            metrics = _per_layer(wl, wsn, tracer, times, order, outcomes, log)
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(OUT_DIR, f"spans-{tag}.csv.gz")
            tracer.write(spans)
            with open(os.path.join(OUT_DIR, f"functions-{tag}.json"), "w") as fh:
                json.dump({func: dict(zip(("self_s", "incl_s", "calls", "exceptions"),
                                          (float(v) / len(times) for v in row)))
                           for func, row in sorted(tracer.per_function().items())},
                          fh, indent=1)
            log(f"{summary}; spans and per-function totals in {os.path.relpath(OUT_DIR, ROOT)}")
        else:
            metrics = {
                "job_s_p50": _metric(statistics.median(times), "s"),
                "jobs_per_s": _metric(len(times) / sum(times), "1/s"),
                "setup_s": _metric(statistics.median(setup), "s"),
                "peak_rss_mb": _metric(rss_mb, "MB"),
            }
            log(f"{summary}; failed_ratio {len(failures) / attempted:.4g}; "
                f"job_s_p50 is the median of {len(times)} jobs, setup_s of {SETUP_REPEATS} set-ups")
            log("job s: " + " ".join(f"{t:.4f}" for t in times))
        result = {"correct": not failures, "attempted": attempted,
                  "failed": len(failures), "metrics": metrics}
        return result, tracer, wsn
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _per_layer(wl, wsn, tracer, times, order, outcomes, log):
    jobs = len(times)
    funcs = tracer.per_function()
    metrics = {"trace.job_s_p50": _metric(statistics.median(times), "s")}

    def func(name, field, unit="s"):
        self_s, incl_s, calls, _ = funcs.get(name, (0.0, 0.0, 0, 0))
        value = {"s": self_s, "incl_s": incl_s, "calls": calls}[field]
        metrics[f"{name}.{field}"] = _metric(value / jobs, unit)

    def stat(key, unit, reduce=sum):
        values = tracer.stats.get(key, [])
        value = (reduce(values) / (jobs if reduce is sum else 1)) if values else 0.0
        metrics[key] = _metric(value, unit)

    for name in ("game.solve", "quantize.solve_discrete"):
        func(name, "s")
        func(name, "incl_s")
        stat(f"{name}.sweeps", "count")
    stat("game.solve.nonunimodal_events", "count")
    metrics["game.utility_evals"] = _metric(
        sum(tracer.job_count(j, "game.prr") for j in range(jobs)) / jobs, "count")
    for name in ("topology.min_power_for_degree", "topology.degree_at_power",
                 "game.potential", "channel.prr_matrix", "game.verify_equilibrium"):
        func(name, "calls", "count")
        func(name, "s")
    # Self times that leave out traced children doing the real work.
    func("game.potential", "incl_s")
    func("packetsim.build_metrics", "incl_s")
    stat("game.verify_equilibrium.residual", "1", statistics.median)
    for name in ("quantize.discrete_best_response", "quantize.discretize_profile",
                 "channel.build_gain_matrix",
                 "topology.adjacency", "topology.is_connected_spectral",
                 "topology.is_connected_bfs", "packetsim.simulate",
                 "packetsim.build_metrics", "packetsim.best_prr_receivers",
                 "packetsim.round_robin_receivers", "experiment.run_scenario",
                 "experiment.emit", "cli.main"):
        func(name, "s")
    stat("packetsim.simulate.messages", "count")
    stat("packetsim.simulate.attempts", "count")
    stat("experiment.emit.bytes", "B")
    metrics["trace.exceptions"] = _metric(
        sum(errors for _, _, _, errors in funcs.values()) / jobs, "count")

    # Once per distinct scenario, untimed and with the wrappers removed.  A
    # default-80 check costs about as much as a job, so at most
    # EQ_RESIDUAL_SCENARIOS of them keep the traced run's length bounded.
    residuals = {}
    for j, scenario in enumerate(order):
        if (scenario.index not in residuals and scenario.index in outcomes
                and len(residuals) < EQ_RESIDUAL_SCENARIOS):
            residuals[scenario.index] = wl.eq_residual(wsn, scenario, outcomes[scenario.index])
        residual = residuals.get(scenario.index)
        log(f"  job {j} scenario seed {scenario.seed}: {times[j]:.4f} s, "
            f"degree_at_power calls {tracer.job_count(j, 'topology.degree_at_power')}, "
            f"utility evals {tracer.job_count(j, 'game.prr')}, "
            f"eq_residual {'n/a' if residual is None else f'{residual:.6g}'}")
    known = [r for r in residuals.values() if r is not None]
    metrics["eq_residual"] = _metric(statistics.median(known) if known else 0.0, "1")
    return metrics


def _run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    report = {}
    for name in WORKLOADS:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} (trace {trace}) exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            results.append(json.loads(lines[-1]))
        untraced, traced = results
        overhead = (traced["metrics"]["trace.job_s_p50"]["value"]
                    / untraced["metrics"]["job_s_p50"]["value"] - 1.0)
        for result in results:
            for key, m in result["metrics"].items():
                print(f"{name:20s} {key:40s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:20s} {'tracing overhead (job_s_p50)':40s} {overhead:14.2%}")
        report[name] = {"untraced": untraced, "traced": traced, "trace_overhead": overhead}
    print(json.dumps(report))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="stop after this many timed jobs (default: only --seconds)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return _run_all(args)
    result, _, _ = run(args.workload, args.seed, args.seconds, bool(args.trace), args.jobs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
