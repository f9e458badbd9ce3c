"""Span recording around framelab's public functions, from outside `src/`.

`install(tracer)` replaces each traced function with a wrapper on every
binding of the name in the loaded framelab modules (a `from .curvature
import geodesic_between` in another module is rebound too) and on the class
for methods.  A wrapper records one span: name, start, end, parent span and
operation id.  Spans live in flat arrays in memory and are written out once,
when the run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

#: (span name, module, attribute); an attribute "Class.method" patches the class
TARGETS = [
    ("metric.evaluate", "framelab.metric", "MetricSpec.evaluate"),
    ("curvature.geodesic_ivp", "framelab.curvature", "geodesic_ivp"),
    ("curvature.geodesic_between", "framelab.curvature", "geodesic_between"),
    ("curvature.jet", "framelab.curvature", "christoffel"),
    ("curvature.jet", "framelab.curvature", "riemann"),
    ("curvature.jet", "framelab.curvature", "ricci"),
    ("curvature.jet", "framelab.curvature", "curvature_gradient"),
    ("curvature.fd_ricci", "framelab.curvature", "NumericMetric.ricci"),
    ("ortho.group_distance", "framelab.ortho", "group_distance"),
    ("ortho.classify_subgroup", "framelab.ortho", "classify_subgroup"),
    ("bundle.metric_matrix", "framelab.bundle", "LiftedMetricChart.metric_matrix"),
    ("oneill.context", "framelab.oneill", "ONeillContext.__post_init__"),
    ("oneill.ricci_oneill", "framelab.oneill", "ricci_oneill"),
    ("oneill.ricci_direct", "framelab.oneill", "ricci_direct"),
    ("holonomy.holonomy_samples", "framelab.holonomy", "holonomy_samples"),
    ("holonomy.holonomy_element", "framelab.holonomy", "holonomy_element"),
    ("holonomy.fiber_distance", "framelab.holonomy", "fiber_distance"),
    ("holonomy.circle_power_samples", "framelab.holonomy", "circle_power_samples"),
    ("ghlab.sample_space", "framelab.ghlab", "sample_space"),
    ("ghlab.eguchi_hanson_gh_comparison", "framelab.ghlab", "eguchi_hanson_gh_comparison"),
    ("ghlab.gh_upper", "framelab.ghlab", "gh_upper"),
    ("cli.main", "framelab.cli", "main"),
]

#: spans whose result length is recorded per operation
KEPT = ("holonomy.holonomy_samples", "holonomy.circle_power_samples")


class Tracer:
    """In-memory span store.  `op` is the id of the running operation
    (-1 during set-up)."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op = -1
        self.failures = Counter()
        self.counters = Counter()
        self.kept = {name: [] for name in KEPT}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, post=None):
        """`fn` recording a span per call; `post(result)` may replace the result."""
        nid = self._id(name)
        names, parents, ops = self.name, self.parent, self.op_of
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                self.failures[name] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            return result if post is None else post(result)

        return traced

    # -- post hooks -----------------------------------------------------------

    def _count_nfev(self, sol):
        self.counters["curvature.geodesic_ivp.nfev"] += int(sol.nfev)
        return sol

    def _count_exit(self, code):
        if code:
            self.counters["cli.main.nonzero_exits"] += 1
        return code

    def _keep(self, name):
        def post(samples):
            self.kept[name].append((self.op, len(samples)))
            return samples
        return post

    # -- analysis -------------------------------------------------------------

    def arrays(self):
        # copies, so the arrays export no buffer and can still grow
        return {"name": np.array(self.name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "op": np.array(self.op_of, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def summary(self):
        """Per span name: calls, self seconds, inclusive seconds, failures."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=dur - child, minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                       "incl_s": float(incl[i]), "failures": self.failures[name]}
                for i, name in enumerate(self.names)}

    def calls_within(self, outer, inner):
        """Number of `inner` spans nested in `outer` spans."""
        if outer not in self._ids or inner not in self._ids:
            return 0
        a = self.arrays()
        outer_idx = np.flatnonzero(a["name"] == self._ids[outer])
        inner_start = a["start"][a["name"] == self._ids[inner]]
        total = 0
        for i in outer_idx:
            total += int(np.count_nonzero((inner_start >= a["start"][i])
                                          & (inner_start <= a["end"][i])))
        return total

    def save(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def _resolve(module, attr):
    owner = sys.modules[module]
    *cls_path, leaf = attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner, leaf


def _rebind(original, replacement):
    """Point every framelab module-level binding of `original` at `replacement`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "framelab" or mod_name.startswith("framelab.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install(tracer):
    """Wrap every target; raises if a target no longer exists."""
    import framelab.cli  # noqa: F401  (loads every module that binds a target)
    import framelab.expr as ex
    import framelab.metric as mt

    hooks = {"curvature.geodesic_ivp": tracer._count_nfev,
             "cli.main": tracer._count_exit}
    hooks.update({name: tracer._keep(name) for name in KEPT})
    for name, module, attr in TARGETS:
        owner, leaf = _resolve(module, attr)
        original = getattr(owner, leaf)
        wrapped = tracer.wrap(name, original, hooks.get(name))
        if isinstance(owner, type):
            setattr(owner, leaf, wrapped)
        else:
            _rebind(original, wrapped)

    # compiled expression evaluators: time compilation, and return a timed
    # evaluator so every evaluation of the compiled code is a span too
    compile_exprs = ex.compile_exprs
    _rebind(compile_exprs, tracer.wrap("expr.compile", compile_exprs,
                                       lambda fn: tracer.wrap("expr.eval", fn)))

    # derivative evaluators are built (and cached) per order; time their calls
    derivative_fn = mt.MetricSpec.derivative_fn

    def timed_derivative_fn(self, order):
        return tracer.wrap("metric.derivative", derivative_fn(self, order))

    mt.MetricSpec.derivative_fn = timed_derivative_fn
