"""Outside-in layer tracing for the benchmark.

Spans are recorded around calls into latzeta's public functions by replacing
each function, on every module that binds it, with a timing wrapper.  Nothing
in ``src/`` is edited.  A span is ``(name, start, end, parent, task)``; spans
stay in memory and are written out once, when the run ends.  A layer's self
time is the sum over its spans of the span's duration minus the durations of
its direct children (single-threaded, so children never overlap).

A wrapped function or cache that the program no longer has is reported as an
absent layer metric, never as a failure.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from collections import defaultdict

# Layers reported as "<layer>.self_s", the summed self time of their spans.
SELF_TIME = [
    "arith.ensure_sieve",
    "lattice.ball",
    "lattice.pairing_phases",
    "ruelle.g_direct",
    "ruelle.log_G",
    "ruelle.log_L_routes",
    "ruelle.log_deriv_L",
    "ruelle.g_poisson",
    "quad",
    "special.bessel_K_array",
    "detlap.log_det",
    "detlap.ladder_pure",
    "detlap.spectral_sum",
    "arith.primes_upto",
    "boundary.R_coeff_series",
    "boundary.exact",
    "boundary.certify_nonvanishing",
    "boundary.to_json",
    "arith.r_table",
    "tauber.partial_sum_M",
    "special.zeta",
    "tauber.asymptotic_constant",
]

# Layers reported as "<layer>.calls", their number of spans.
CALLS = ["ruelle.g_direct", "quad", "detlap.log_det"]

# Counters filled by the wrappers' hooks.
COUNTERS = [
    "arith.ensure_sieve.builds",
    "lattice.ball.rows",
    "lattice.pairing_phases.rows",
    "special.bessel_K_array.points",
    "arith.r_table.entries",
]


class NullTracer:
    """Tracing off: nothing is wrapped and nothing is recorded."""

    def span(self, name):
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def active(self, task):
        yield


class Tracer:
    def __init__(self):
        # spans as parallel flat arrays, so the garbage collector has no
        # per-span objects to walk
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.span_task = array("l")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.on = False
        self.task = -1
        self.absent: set[str] = set()
        self.installed: set[str] = set()

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.span_task.append(self.task)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _inside(self, name_id: int) -> bool:
        """True when the innermost open span is already this layer."""
        return bool(self.stack) and self.span_name[self.stack[-1]] == name_id

    @contextlib.contextmanager
    def span(self, name):
        if not self.on:
            yield
            return
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def active(self, task):
        """Record spans for ``task`` (-1 is set-up) while the block runs."""
        self.on, self.task = True, task
        try:
            with self.span("bench.task"):
                yield
        finally:
            self.on = False

    # -- wrappers ---------------------------------------------------------

    def wrap(self, func, name, pre=None, post=None):
        """A timing wrapper; ``post(state, result, args)`` updates counters,
        ``state`` being what ``pre(args)`` returned before the call.  A call
        made from inside a span of the same layer adds no span: its time is
        already that layer's self time."""
        tracer = self
        name_id = self._id(name)

        def wrapper(*args, **kwargs):
            if not tracer.on or tracer._inside(name_id):
                return func(*args, **kwargs)
            state = pre(args) if pre else None
            idx = tracer._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post:
                post(state, result, args)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    def wrap_generator(self, func, name, rows_counter):
        """Each ``next()`` on the returned generator is one span."""
        tracer = self
        name_id = self._id(name)

        def wrapper(*args, **kwargs):
            gen = func(*args, **kwargs)
            if not tracer.on:
                return gen

            def traced():
                while True:
                    idx = tracer._open(name_id)
                    try:
                        chunk = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.counts[rows_counter] += chunk.shape[0]
                    yield chunk

            return traced()

        wrapper.__wrapped__ = func
        return wrapper

    def install(self, module, attr, name, pre=None, post=None, generator_rows=None):
        """Replace ``module.attr`` and every latzeta/scipy binding of the same
        object with one wrapper, so each caller resolves the traced name.
        A function the program no longer has is skipped; its layer then
        counts as absent unless another function feeds it."""
        func = getattr(module, attr, None)
        if func is None:
            return
        if generator_rows:
            wrapper = self.wrap_generator(func, name, generator_rows)
        else:
            wrapper = self.wrap(func, name, pre, post)
        for mod in list(sys.modules.values()):
            mname = getattr(mod, "__name__", "") or ""
            if not (mname.startswith("latzeta") or mname.startswith("scipy.integrate")):
                continue
            for key, val in list(vars(mod).items()):
                if val is func:
                    setattr(mod, key, wrapper)
        self.installed.add(name)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i, name_id in enumerate(self.span_name):
            out[self.names[name_id]] += (self.end[i] - self.start[i]) - child[i]
        return out

    def span_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name_id in self.span_name:
            out[self.names[name_id]] += 1
        return out

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent index, task."""
        with open(path, "w") as fh:
            for i, name_id in enumerate(self.span_name):
                span = [self.names[name_id], self.start[i], self.end[i], self.parent[i], self.span_task[i]]
                fh.write(json.dumps(span) + "\n")


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions of each layer named in the README's table."""
    import numpy as np
    from latzeta import arith, boundary, detlap, lattice, ruelle, special, tauber

    def count(counter, size):
        def post(state, result, args):
            tracer.counts[counter] += size(result, args)

        return post

    # a build is a call after which the shared sieve table is another object
    def sieve_post(before, result, args):
        if arith._SIEVE is not before:
            tracer.counts["arith.ensure_sieve.builds"] += 1

    if hasattr(arith, "_SIEVE"):
        tracer.install(arith, "ensure_sieve", "arith.ensure_sieve", lambda a: arith._SIEVE, sieve_post)
    else:
        tracer.install(arith, "ensure_sieve", "arith.ensure_sieve")
        tracer.absent.add("arith.ensure_sieve.builds")

    cache = getattr(lattice, "_BALL_CACHE", None)

    def hit_pre(args):
        tracer.counts["lattice.ball_array.calls"] += 1
        tracer.counts["lattice.ball_array.hits"] += (args[0], args[1]) in cache

    if cache is None:
        tracer.absent.add("lattice.ball_array.hit_ratio")
    rows = count("lattice.ball.rows", lambda result, args: result.shape[0])
    tracer.install(lattice, "ball_array", "lattice.ball", hit_pre if cache is not None else None, rows)
    tracer.install(lattice, "ball_chunks", "lattice.ball", generator_rows="lattice.ball.rows")
    tracer.install(lattice, "shell_array", "lattice.ball", None, rows)
    tracer.install(lattice, "pairing_phases", "lattice.pairing_phases", None,
                   count("lattice.pairing_phases.rows", lambda result, args: args[0].shape[0]))

    for attr in ("g_direct", "log_G", "log_L_routes", "log_deriv_L", "g_poisson"):
        tracer.install(ruelle, attr, f"ruelle.{attr}")
    integrate = sys.modules.get("scipy.integrate")
    if integrate is not None:
        tracer.install(integrate, "quad", "quad")

    tracer.install(special, "bessel_K_array", "special.bessel_K_array", None,
                   count("special.bessel_K_array.points", lambda result, args: np.asarray(args[1]).size))
    for attr in ("riemann_zeta", "hurwitz_zeta", "dirichlet_L4"):
        tracer.install(special, attr, "special.zeta")
    for attr in ("log_det_odd", "log_det_even"):
        tracer.install(detlap, attr, "detlap.log_det")
    for attr in ("ladder_pure", "spectral_sum"):
        tracer.install(detlap, attr, f"detlap.{attr}")

    tracer.install(arith, "primes_upto", "arith.primes_upto")
    tracer.install(boundary, "R_coeff_series", "boundary.R_coeff_series")
    for attr in ("key_lhs", "local_E", "local_F", "local_G"):
        tracer.install(boundary, attr, "boundary.exact")
    tracer.install(boundary, "certify_nonvanishing", "boundary.certify_nonvanishing")
    tracer.installed.add("boundary.to_json")  # a span around the task's own call
    if not hasattr(boundary, "_SIEVE_CACHE"):
        tracer.absent.add("boundary.sieve_cache_mb")

    # r_table is an lru_cache: count the entries of tables built, not hits
    r_table = getattr(arith, "r_table", None)
    lru = hasattr(r_table, "cache_info")

    def r_pre(args):
        return r_table.cache_info().misses if lru else None

    def r_post(misses, result, args):
        if not lru or r_table.cache_info().misses > misses:
            tracer.counts["arith.r_table.entries"] += len(result)

    tracer.install(arith, "r_table", "arith.r_table", r_pre, r_post)
    for attr in ("partial_sum_M", "asymptotic_constant"):
        tracer.install(tauber, attr, f"tauber.{attr}")


def layer_metrics(tracer: Tracer, import_s: float, traced_tasks_per_s: float) -> dict[str, float]:
    """Every per-layer metric of the run, absent ones left out."""
    selfs = tracer.self_times()
    calls = tracer.span_counts()
    out: dict[str, float] = {"import.latzeta_s": import_s, "trace.tasks_per_s": traced_tasks_per_s}
    for name in SELF_TIME:
        out[f"{name}.self_s"] = selfs.get(name, 0.0)
    for name in CALLS:
        out[f"{name}.calls"] = float(calls.get(name, 0))
    for metric in COUNTERS:
        out[metric] = float(tracer.counts.get(metric, 0.0))
    n_ball = tracer.counts.get("lattice.ball_array.calls", 0.0)
    out["lattice.ball_array.hit_ratio"] = tracer.counts.get("lattice.ball_array.hits", 0.0) / n_ball if n_ball else 0.0
    from latzeta import boundary

    cache = getattr(boundary, "_SIEVE_CACHE", None)
    if cache is not None:
        out["boundary.sieve_cache_mb"] = sum(getattr(v, "nbytes", 0) for v in cache.values()) / 1e6
    for metric in list(out):
        layer = metric.rsplit(".", 1)[0]
        if metric in tracer.absent or (layer in SELF_TIME and layer not in tracer.installed):
            del out[metric]
    return out
