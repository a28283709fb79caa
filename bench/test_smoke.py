"""Smoke test of the benchmark: every workload at two jobs, untraced and traced.

Two jobs are the fewest that exercise the repeat check: job 1 reruns job 0's
scenario and must reproduce its outputs byte for byte.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import os
import types

import numpy as np
import pytest

import run
import tracing
from workloads import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _quiet(*args, **kwargs):
    pass


def _check_metrics(result, declared):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
        assert np.isfinite(metric["value"]), name


def _wrapped(wsn):
    return [f"{short}.{attr}" for short, mod in vars(wsn).items()
            for attr, fn in vars(mod).items()
            if isinstance(fn, types.FunctionType) and tracing.is_traced(fn)]


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_reports_end_to_end_and_installs_no_wrappers(workload):
    result, tracer, wsn = run.run(workload, seed=0, seconds=600, trace=False, jobs=2, log=_quiet)
    _check_metrics(result, SPEC["end_to_end"])
    assert tracer is None
    assert _wrapped(wsn) == []


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_per_layer_with_nested_spans(workload):
    result, tracer, wsn = run.run(workload, seed=0, seconds=600, trace=True, jobs=2, log=_quiet)
    _check_metrics(result, SPEC["per_layer"])
    assert _wrapped(wsn) == [], "wrappers must be removed when the run ends"

    name_id, start, end, parent, job = tracer.arrays()
    assert len(start) > 1 and np.all(end >= start)
    roots = parent < 0
    assert [tracer.names[i] for i in name_id[roots]] == [tracing.JOB_SPAN] * 2
    assert list(job[roots]) == [0, 1]
    child = ~roots
    p = parent[child]
    assert np.all(start[p] <= start[child]) and np.all(end[child] <= end[p])
    assert np.all(job[child] == job[p])
