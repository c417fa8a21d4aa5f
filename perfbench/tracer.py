"""Span tracer for the traced runs of the benchmark.

The tracer lives entirely in the benchmark: it replaces the package's public
functions at the module attributes through which one layer calls another (and
the model callables, through ``dataclasses.replace``), records one span per
call and aggregates count, inclusive time and self time per span name.  Self
time is a span's duration minus the time covered by its child spans on the
same thread.  The first ``MAX_SPANS`` spans are kept in memory and written as
JSON lines when the run ends; the aggregates cover every span.

Untraced runs never construct a tracer, so they run the package unmodified.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

MAX_SPANS = 100_000

LAYERS = (
    "models", "quadrature", "lambda_surface", "rates", "moderate",
    "conditional", "simulate", "acceptance", "cli",
)

# public functions that get a span, by layer; calls into them from any module
# of the package (their own module included) go through the wrapper
SPANNED = {
    "models": ("phi_star",),
    "quadrature": ("adaptive_gauss_legendre",),
    "lambda_surface": ("lambda_eval", "lambda_grad", "lambda_hessian", "hessian_origin"),
    "rates": ("rate_ld", "rate_ld_poisson", "marginal_I1", "marginal_I2", "conditional_rate_J"),
    "moderate": ("psi", "psi_star", "md_event_rate", "exact_moments", "passage_weights"),
    "conditional": ("kappa_star", "sample_area_given_tau", "nested_integral", "conditional_mgf"),
    "simulate": ("estimate_tail", "empirical_clt", "empirical_moments", "map_blocks",
                 "ld_event_rate"),
    "acceptance": ("criterion_",),  # a name prefix: every criterion
    "cli": ("emit_json", "emit_plot_data"),
}

CGF_FIELDS = ("cgf", "cgf_d1", "cgf_d2", "cgf_d3")


class Tracer:
    """In-memory spans plus per-name aggregates; thread safe."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += amount

    def wrap(self, name: str, fn, observe=None):
        """Wrap ``fn`` in a span; ``observe(args, result, exc, dur, self_dur)`` sees each call."""
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [next(tracer._ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            exc = result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self_dur = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                with tracer._lock:
                    tracer.count[name] += 1
                    tracer.total[name] += dur
                    tracer.self_time[name] += self_dur
                    if exc is not None:
                        tracer.errors[f"{name}:{type(exc).__name__}"] += 1
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append(
                            (frame[0], name, t0, t1, parent, threading.get_ident()))
                    else:
                        tracer.dropped += 1
                if observe is not None:
                    observe(args, result, exc, dur, self_dur)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, package: str = "renewal_ldp") -> None:
        """Replace every package-module reference to a spanned function."""
        homes = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, home in homes.items():
            for attr, obj in list(vars(home).items()):
                if getattr(obj, "__module__", None) != home.__name__ or not callable(obj):
                    continue
                names = SPANNED[layer]
                if attr.startswith(names) if layer == "acceptance" else attr in names:
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj,
                                                  self._observer(layer, attr))
        make_model = homes["models"].make_model
        wrappers[id(make_model)] = self._wrap_make_model(make_model)
        block_rng = homes["simulate"].block_rng
        wrappers[id(block_rng)] = self._wrap_block_rng(block_rng)
        for module in (importlib.import_module(package), *homes.values()):
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def instrument_model(self, model):
        """Copy of ``model`` whose CGF callables are counted and whose sampler is spanned."""
        if getattr(model._sampler, "tracer", None) is self:
            return model  # already instrumented (built through the wrapped make_model)
        counters = self.counters

        def counted(fn):
            def call(a):
                counters["models.cgf_calls"] += 1  # CGFs are only evaluated on the calling thread
                return fn(a)
            return call

        def observe_sample(args, result, exc, dur, self_dur):
            if result is not None:
                self.add("simulate.draws", getattr(result, "size", 1))

        changes = {name: counted(getattr(model, name)) for name in CGF_FIELDS}
        changes["_sampler"] = self.wrap("models.sample", model._sampler, observe_sample)
        changes["_sampler"].tracer = self
        return dataclasses.replace(model, **changes)

    def _wrap_make_model(self, make_model):
        def wrapper(*args, **kwargs):
            return self.instrument_model(make_model(*args, **kwargs))
        return wrapper

    def _wrap_block_rng(self, block_rng):
        def wrapper(*args, **kwargs):
            self.add("simulate.blocks")
            return block_rng(*args, **kwargs)
        return wrapper

    def _observer(self, layer: str, attr: str):
        if layer == "rates" and attr in ("rate_ld", "rate_ld_poisson"):
            def observe(args, result, exc, dur, self_dur):
                if attr == "rate_ld":
                    self.add(f"rates.rate_ld_s.{args[0].kind}", dur)
                if exc is not None:
                    self.add("rates.raised")
                    return
                if result.method == "newton":
                    self.add("rates.newton_iters", result.iterations)
                if result.method == "ascent":
                    self.add("rates.ascent_calls")
                self.add("rates.converged" if result.converged else "rates.nonconverged")
            return observe
        if layer == "simulate" and attr == "map_blocks":
            def observe(args, result, exc, dur, self_dur):
                if args[0].workers <= 1:
                    self.add("simulate.single_worker_reduce_s", self_dur)
            return observe
        if layer == "simulate" and attr == "estimate_tail":
            def observe(args, result, exc, dur, self_dur):
                if result is not None:
                    self.add("simulate.hits", result.hit_count)
                    self.add("simulate.samples", result.n_samples)
            return observe
        return None

    # -- output -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates as plain data, mergeable across processes with :func:`merge`."""
        with self._lock:
            return {
                "count": dict(self.count),
                "total": dict(self.total),
                "self": dict(self.self_time),
                "errors": dict(self.errors),
                "counters": dict(self.counters),
                "spans": len(self.spans),
                "dropped": self.dropped,
            }

    def write_spans(self, path, origin: str) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, thread in self.spans:
                fh.write(json.dumps({"origin": origin, "id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "thread": thread}) + "\n")


def merge(snapshots) -> dict:
    """Sum aggregate snapshots of several processes."""
    out = {"count": defaultdict(int), "total": defaultdict(float), "self": defaultdict(float),
           "errors": defaultdict(int), "counters": defaultdict(float), "spans": 0, "dropped": 0}
    for snap in snapshots:
        for key in ("count", "total", "self", "errors", "counters"):
            for name, value in snap[key].items():
                out[key][name] += value
        out["spans"] += snap["spans"]
        out["dropped"] += snap["dropped"]
    return out
