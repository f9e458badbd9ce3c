"""Every function the benchmark's tracer wraps still exists, and the layers
traced oneill-direct and geodesic-shooting runs must see still record
calls, so a change that would break a traced benchmark run fails here
first.  `bench/` is read, never changed."""

import importlib
import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _bench_module("tracing").TARGETS


def _resolve(module, attr):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@pytest.mark.parametrize("name,module,attr", _targets())
def test_traced_target_importable(name, module, attr):
    owner, leaf = _resolve(module, attr)
    assert callable(getattr(owner, leaf)), f"{name}: {module}.{attr} is not callable"


def _rebind(monkeypatch, original, replacement):
    """Point every framelab module-level binding of `original` at
    `replacement`, as the tracer does."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.split(".")[0] == "framelab":
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, replacement)


def _count_layers(monkeypatch, workload):
    """Counters where the tracer's wrappers sit: on the class for methods,
    on every framelab binding of a function, and on the evaluators that
    `expr.compile_exprs` and `MetricSpec.derivative_fn` return.  Returns
    the workload's required layers and the Counter of calls."""
    import framelab.cli  # noqa: F401  (loads every module that binds a target)
    import framelab.expr as ex
    import framelab.metric as mt

    expected = _bench_module("worker").EXPECTED_CALLS[workload]
    targets = _targets()
    assert set(expected) <= {name for name, _, _ in targets} | {
        "expr.compile", "expr.eval", "metric.derivative"}
    calls = Counter()

    def counting(name, original, post=None):
        def counted(*args, **kwargs):
            calls[name] += 1
            out = original(*args, **kwargs)
            return out if post is None else post(out)
        return counted

    for name, module, attr in targets:
        owner, leaf = _resolve(module, attr)
        original = getattr(owner, leaf)
        if isinstance(owner, type):
            monkeypatch.setattr(owner, leaf, counting(name, original))
        else:
            _rebind(monkeypatch, original, counting(name, original))
    compile_exprs = ex.compile_exprs
    _rebind(monkeypatch, compile_exprs,
            counting("expr.compile", compile_exprs, lambda fn: counting("expr.eval", fn)))
    derivative_fn = mt.MetricSpec.derivative_fn
    monkeypatch.setattr(mt.MetricSpec, "derivative_fn",
                        lambda self, order: counting("metric.derivative",
                                                     derivative_fn(self, order)))
    return expected, calls


def test_oneill_direct_expected_layers_record_calls(monkeypatch, tmp_path):
    """One n = 2 `oneill-check --pairs 1` records a call on every layer the
    traced oneill-direct run requires."""
    import framelab.cli as cli

    expected, calls = _count_layers(monkeypatch, "oneill-direct")
    code = cli.main(["oneill-check", "--metric", "builtin:smoothed-cone:a=0.7,eps=0.15",
                     "--metric2", "builtin:smoothed-cone:a=0.7,eps=0.3", "--pairs", "1",
                     "--jobs", "1", "--out", str(tmp_path)])
    assert code == 0
    assert [name for name in expected if calls[name] == 0] == []


def test_geodesic_shooting_expected_layers_record_calls(monkeypatch):
    """A small refined exact-cone `sample_space` and one three-point
    Eguchi-Hanson GH comparison record a call on every layer the traced
    geodesic-shooting run requires, the compiled evaluators and the
    derivative evaluators included."""
    from framelab import ghlab as gh
    from framelab import metric as mt

    expected, calls = _count_layers(monkeypatch, "geodesic-shooting")
    gh.sample_space(mt.exact_cone(0.7), [(0.3, 1.6), (0.0, 2 * math.pi)], 4,
                    rng=np.random.default_rng(3), refine_pairs=True)
    gh.eguchi_hanson_gh_comparison(count=3)
    assert [name for name in expected if calls[name] == 0] == []
