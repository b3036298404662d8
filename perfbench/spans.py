"""Span recording around the public functions of every ``cld`` module.

A traced run wraps each public function of each ``cld.<module>`` (plus the
operator, projector and network methods that carry the heavy work) from
here, without editing the library. Every call records a span: its name,
start, end and the span that was open when it began. Spans stay in memory
and are written out once, at the end of the run.

A module that imports a function by name (``from .linops import pcg_solve``)
holds its own reference to it, so a wrapper is bound under every name, in
every ``cld`` module, that refers to the original function; patching only
the defining module would miss those calls.

Self time of a span is its duration minus the time covered by its child
spans. Counters read from return values (PCG iterations and cap hits,
projector cap hits, oracle iterations, model size) are collected at the same
boundaries.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from collections import Counter, defaultdict

# In cli only ``main`` is wrapped: its subcommands and helpers run inside the
# main span, so the CLI's own Python work (per-row loops, per-row JSON log
# records) lands in cli.main's self time.
_ONLY = {"cli": {"main"}}

# (module, class, method, span name)
_METHODS = (
    ("linops", "GatedOperator", "apply", "linops.apply"),
    ("linops", "GatedOperator", "adjoint", "linops.adjoint"),
    ("linops", "NystromPreconditioner", "__call__", "linops.nystrom_apply"),
    ("admm", "ConeProjectorBatch", "project", "admm.cone_project"),
    ("head", "ReluNetwork", "apply", "head.relu_apply"),
)


class Tracer:
    """In-memory span store with per-name call counts, self times and counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[list] = []   # [span index, seconds covered by children]

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.spans[frame[0]] = (name, start, end, parent)
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    def total_self_s(self) -> float:
        return float(sum(self.self_s.values()))

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


# --- counters read from arguments and return values ------------------------

def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _observe_apply(counts, args, kwargs, result):
    op = args[0]
    n, B, d, K = op.n, op.B, op.d, op.K
    counts["linops.apply.gflop"] += 2.0 * n * B * d * K / 1e9


def _observe_pcg(counts, args, kwargs, result):
    cfg = _arg(args, kwargs, 2, "cfg")
    counts["linops.pcg.iters"] += getattr(result, "iters", 0)
    rel_tol = getattr(cfg, "rel_tol", None)
    if rel_tol is not None and getattr(result, "rel_residual", 0.0) > rel_tol:
        counts["linops.pcg.capped"] += 1


def _observe_admm_solve(counts, args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    history = getattr(result, "history", ())
    stop_tol = getattr(cfg, "stop_tol", None)
    converged = stop_tol is not None and history and max(
        history[-1].primal, history[-1].dual) <= stop_tol
    if not converged:
        counts["admm.solves_on_cap"] += 1


def _observe_cone_project(counts, args, kwargs, result):
    if isinstance(result, tuple) and len(result) == 2 and not result[1]:
        counts["admm.cone_project.cap_hits"] += 1


def _observe_fista(counts, args, kwargs, result):
    counts["oracle.fista.iters"] += max(len(getattr(result, "objective_history", ())) - 1, 0)
    if not getattr(result, "converged", True):
        counts["oracle.fista.capped"] += 1


def _observe_dense(counts, args, kwargs, result):
    counts["oracle.dense.iters"] += getattr(result, "iters", 0)


def _observe_save(counts, args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    counts["head.model_bytes"] = float(os.path.getsize(path))


_OBSERVERS = {
    "linops.apply": _observe_apply,
    "linops.pcg_solve": _observe_pcg,
    "admm.admm_solve": _observe_admm_solve,
    "admm.cone_project": _observe_cone_project,
    "oracle.fista_solve": _observe_fista,
    "oracle.dense_solve_smallest": _observe_dense,
    "head.save_model": _observe_save,
}


def _cld_modules() -> dict[str, types.ModuleType]:
    return {name: mod for name, mod in sys.modules.items()
            if (name == "cld" or name.startswith("cld.")) and mod is not None}


def install(tracer: Tracer) -> None:
    """Wrap the public functions and heavy methods of every loaded cld module.

    Names absent from the library (a method that a later version removes)
    are skipped, so their metrics read zero.
    """
    modules = _cld_modules()
    wrappers: dict[int, tuple] = {}   # id(original) -> (original, wrapper)
    for modname, mod in modules.items():
        layer = modname.split(".")[-1]
        if modname == "cld" or layer == "__main__":
            continue
        only = _ONLY.get(layer)
        for attr, obj in list(vars(mod).items()):
            if (not isinstance(obj, types.FunctionType) or attr.startswith("_")
                    or obj.__module__ != modname or (only is not None and attr not in only)):
                continue
            name = f"{layer}.{obj.__name__}"
            wrappers[id(obj)] = (obj, tracer.wrap(name, obj, _OBSERVERS.get(name)))
    # rebind under every name that refers to a wrapped function, in every module
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
    for modname, cls_name, method, name in _METHODS:
        cls = getattr(modules.get(f"cld.{modname}"), cls_name, None)
        fn = getattr(cls, method, None) if cls is not None else None
        if fn is None:
            continue
        setattr(cls, method, tracer.wrap(name, fn, _OBSERVERS.get(name)))


def calibrate_span_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call: best of 3, wrapped no-op against bare."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    best_bare = best_wrapped = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best_bare = min(best_bare, t1 - t0)
        best_wrapped = min(best_wrapped, t2 - t1)
    return max(best_wrapped - best_bare, 0.0) / calls


# --- per-layer metrics ---------------------------------------------------------
# (metric, unit, kind, key): kind "calls" and "self_s" read a span name,
# "count" a counter, "share" a ratio of two counters / span calls.
LAYER_METRICS = (
    ("linops.apply.calls", "count", "calls", "linops.apply"),
    ("linops.apply.self_s", "s", "self_s", "linops.apply"),
    ("linops.apply.gflop", "GFLOP", "count", "linops.apply.gflop"),
    ("linops.adjoint.calls", "count", "calls", "linops.adjoint"),
    ("linops.adjoint.self_s", "s", "self_s", "linops.adjoint"),
    ("linops.pcg_solve.calls", "count", "calls", "linops.pcg_solve"),
    ("linops.pcg_solve.self_s", "s", "self_s", "linops.pcg_solve"),
    ("linops.pcg.iters", "count", "count", "linops.pcg.iters"),
    ("linops.pcg.cap_share", "1", "share", ("linops.pcg.capped", "linops.pcg_solve")),
    ("linops.nystrom_precond.self_s", "s", "self_s", "linops.nystrom_precond"),
    ("linops.nystrom_apply.self_s", "s", "self_s", "linops.nystrom_apply"),
    ("linops.power_iteration.self_s", "s", "self_s", "linops.power_iteration"),
    ("admm.admm_step.calls", "count", "calls", "admm.admm_step"),
    ("admm.admm_step.self_s", "s", "self_s", "admm.admm_step"),
    ("admm.build_preconditioner.self_s", "s", "self_s", "admm.build_preconditioner"),
    ("admm.stop_on_cap", "1", "share", ("admm.solves_on_cap", "admm.admm_solve")),
    ("admm.cone_project.calls", "count", "calls", "admm.cone_project"),
    ("admm.cone_project.self_s", "s", "self_s", "admm.cone_project"),
    ("admm.cone_project.cap_hits", "count", "count", "admm.cone_project.cap_hits"),
    ("admm.train.self_s", "s", "self_s", "admm.train"),
    ("cvxprog.group_prox.calls", "count", "calls", "cvxprog.group_prox"),
    ("cvxprog.group_prox.self_s", "s", "self_s", "cvxprog.group_prox"),
    ("cvxprog.objective.calls", "count", "calls", "cvxprog.objective"),
    ("cvxprog.objective.self_s", "s", "self_s", "cvxprog.objective"),
    ("cvxprog.max_cone_violation.self_s", "s", "self_s", "cvxprog.max_cone_violation"),
    ("gates.sample_gates.self_s", "s", "self_s", "gates.sample_gates"),
    ("gates.enumerate_patterns.self_s", "s", "self_s", "gates.enumerate_patterns"),
    ("gates.exact_cone_project.calls", "count", "calls", "gates.exact_cone_project"),
    ("gates.exact_cone_project.self_s", "s", "self_s", "gates.exact_cone_project"),
    ("gates.cone_violation.calls", "count", "calls", "gates.cone_violation"),
    ("oracle.fista_solve.self_s", "s", "self_s", "oracle.fista_solve"),
    ("oracle.fista.iters", "count", "count", "oracle.fista.iters"),
    ("oracle.fista.cap_share", "1", "share", ("oracle.fista.capped", "oracle.fista_solve")),
    ("oracle.dense_solve_smallest.self_s", "s", "self_s", "oracle.dense_solve_smallest"),
    ("oracle.dense.iters", "count", "count", "oracle.dense.iters"),
    ("head.to_relu.calls", "count", "calls", "head.to_relu"),
    ("head.to_relu.self_s", "s", "self_s", "head.to_relu"),
    ("head.predict_batch.calls", "count", "calls", "head.predict_batch"),
    ("head.predict_batch.self_s", "s", "self_s", "head.predict_batch"),
    ("head.relu_apply.self_s", "s", "self_s", "head.relu_apply"),
    ("head.load_model.self_s", "s", "self_s", "head.load_model"),
    ("head.save_model.self_s", "s", "self_s", "head.save_model"),
    ("head.model_bytes", "bytes", "count", "head.model_bytes"),
    ("cert.certify_batch.calls", "count", "calls", "cert.certify_batch"),
    ("cert.certify_batch.self_s", "s", "self_s", "cert.certify_batch"),
    ("cert.certified_accuracy.self_s", "s", "self_s", "cert.certified_accuracy"),
    ("cert.bundle_from_weights.self_s", "s", "self_s", "cert.bundle_from_weights"),
    ("dataio.read_features.self_s", "s", "self_s", "dataio.read_features"),
    ("dataio.load_manifest.self_s", "s", "self_s", "dataio.load_manifest"),
    ("dataio.write_features.self_s", "s", "self_s", "dataio.write_features"),
    ("synth.generate.self_s", "s", "self_s", "synth.generate"),
    ("metrics.evaluate.self_s", "s", "self_s", "metrics.evaluate"),
    ("cli.main.calls", "count", "calls", "cli.main"),
    ("cli.main.self_s", "s", "self_s", "cli.main"),
)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    out = {}
    for metric, unit, kind, key in LAYER_METRICS:
        if kind == "calls":
            value = float(tracer.calls[key])
        elif kind == "self_s":
            value = tracer.self_s.get(key, 0.0)
        elif kind == "count":
            value = tracer.counts.get(key, 0.0)
        else:
            num, den = key
            den_value = tracer.calls[den]
            value = tracer.counts.get(num, 0.0) / den_value if den_value else 0.0
        out[metric] = (float(value), unit)
    return out
