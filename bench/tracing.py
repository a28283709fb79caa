"""Per-module tracing for the benchmark's traced run.

The wrappers are installed from outside the package: nothing under ``src/``
knows about them.  Every public module-level name of the traced modules that
refers to a package function is replaced, in the namespace where callers look
it up, by a wrapper.  A name imported by value (``from .topology import
min_power_for_degree`` in ``game``) is a separate binding, so it gets its own
wrapper and its own span name (``game.min_power_for_degree``); metrics are then
summed per defining function (``topology.min_power_for_degree``).

Spans carry name, start, end, parent and job id.  They are kept in memory in
flat arrays and written out once, when the run ends.
"""

import functools
import gzip
import math
import os
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("channel", "topology", "game", "quantize", "packetsim", "experiment", "cli")

# Per-element channel kernels run 10^4 to 10^5 times per job.  A span per call
# would dominate the traced run's overhead and memory, so these are counted
# only; their time stays in the caller's self time.
COUNT_ONLY = frozenset({
    "ber", "prr", "sinr", "gain", "link_prr", "sinr_for_prr", "strategy_to_dbm",
    "dbm_to_strategy", "dbm_to_mw", "mw_to_dbm", "strategy_to_mw",
})

JOB_SPAN = "bench.job"


def _emit_bytes(stats, created):
    stats["experiment.emit.bytes"].append(sum(os.path.getsize(p) for p in created))


def _solve(key):
    def hook(stats, result):
        stats[f"{key}.sweeps"].append(result.sweeps_used)
        stats[f"{key}.nonunimodal_events"].append(result.nonunimodal_events)
    return hook


def _verify(stats, out):
    stats["game.verify_equilibrium.residual"].append(out[1])


def _simulate(stats, log):
    stats["packetsim.simulate.messages"].append(len(log.records))
    stats["packetsim.simulate.attempts"].append(sum(r.attempts_used for r in log.records))


# Counts read off a traced function's return value, keyed by defining function.
HOOKS = {
    "experiment.emit": _emit_bytes,
    "game.solve": _solve("game.solve"),
    "quantize.solve_discrete": _solve("quantize.solve_discrete"),
    "game.verify_equilibrium": _verify,
    "packetsim.simulate": _simulate,
}


def is_traced(fn) -> bool:
    return getattr(fn, "bench_traced", False)


class Tracer:
    """Span and call recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.names = []          # name id -> span name, e.g. "game.prr"
        self.funcs = []          # name id -> defining function, e.g. "channel.prr"
        self.calls = []          # name id -> calls in the current job
        self.errors = []         # name id -> exceptions raised through the wrapper
        self.job_calls = []      # one copy of ``calls`` per finished job
        self.stats = defaultdict(list)
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("q")
        self.parent = array("q")
        self.job = array("q")
        self._stack = [-1]
        self._job_id = -1
        self._job_idx = -1
        self._installed = []
        self._job_span = self._new_name(JOB_SPAN, JOB_SPAN)

    def _new_name(self, name, func):
        self.names.append(name)
        self.funcs.append(func)
        self.calls.append(0)
        self.errors.append(0)
        return len(self.names) - 1

    def _open(self, nid):
        idx = len(self.start)
        self.start.append(perf_counter())
        self.end.append(math.nan)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self._job_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, nid, fn, hook):
        calls, errors = self.calls, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.stats, out)
            return out

        wrapper.bench_traced = True
        return wrapper

    def _count_wrapper(self, nid, fn):
        calls, errors = self.calls, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise

        wrapper.bench_traced = True
        return wrapper

    def install(self, modules: dict):
        """Wrap every public package function bound in each module's namespace."""
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith("wsnpower.")):
                    continue
                defining = fn.__module__.rsplit(".", 1)[1]
                func = f"{defining}.{fn.__name__}"
                nid = self._new_name(f"{short}.{attr}", func)
                if defining == "channel" and fn.__name__ in COUNT_ONLY:
                    wrapper = self._count_wrapper(nid, fn)
                else:
                    wrapper = self._span_wrapper(nid, fn, HOOKS.get(func))
                self._installed.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def begin_job(self, job_id: int):
        self._job_id = job_id
        self.calls[self._job_span] += 1
        self._job_idx = self._open(self._job_span)

    def end_job(self):
        self._close(self._job_idx)
        self._job_id = -1
        self.job_calls.append(list(self.calls))
        self.calls[:] = [0] * len(self.calls)

    def job_count(self, job: int, name: str) -> int:
        """Calls of one span name (namespace-qualified) in one finished job."""
        return self.job_calls[job][self.names.index(name)]

    def arrays(self):
        """(name_id, start, end, parent, job) as numpy arrays."""
        return (np.frombuffer(self.name_id, dtype=np.int64),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.job, dtype=np.int64))

    def per_function(self):
        """{defining function: (self_s, incl_s, calls, errors)} summed over jobs.

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread nest, so children never overlap.
        """
        name_id, start, end, parent, _ = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        n = len(self.names)
        self_by_name = np.bincount(name_id, weights=dur - child, minlength=n)
        incl_by_name = np.bincount(name_id, weights=dur, minlength=n)
        calls_by_name = np.sum(self.job_calls, axis=0) if self.job_calls else np.zeros(n)
        out = {}
        for nid, func in enumerate(self.funcs):
            s, incl, calls, errors = out.get(func, (0.0, 0.0, 0, 0))
            out[func] = (s + self_by_name[nid], incl + incl_by_name[nid],
                         calls + int(calls_by_name[nid]), errors + self.errors[nid])
        return out

    def write(self, path):
        """Write the spans as gzipped CSV: span, name, start_s, end_s, parent, job."""
        name_id, start, end, parent, job = self.arrays()
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,start_s,end_s,parent,job\n")
            for idx in range(len(start)):
                fh.write(f"{idx},{self.names[name_id[idx]]},{start[idx]!r},{end[idx]!r},"
                         f"{parent[idx]},{job[idx]}\n")
