"""Every function the benchmark's tracer wraps still exists, and the layers
a traced oneill-direct run must see still record calls, so a change that
would break a traced benchmark run fails here first.  `bench/` is read,
never changed."""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

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


def test_oneill_direct_expected_layers_record_calls(monkeypatch, tmp_path):
    """One n = 2 `oneill-check --pairs 1` records a call on every layer the
    traced oneill-direct run requires; the counters sit where the tracer's
    wrappers do, on the class for methods and on every framelab binding of
    a function."""
    import framelab.cli as cli

    expected = _bench_module("worker").EXPECTED_CALLS["oneill-direct"]
    targets = _targets()
    assert set(expected) <= {name for name, _, _ in targets}
    calls = Counter()
    for name, module, attr in targets:
        owner, leaf = _resolve(module, attr)
        original = getattr(owner, leaf)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        if isinstance(owner, type):
            monkeypatch.setattr(owner, leaf, counted)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and mod_name.split(".")[0] == "framelab":
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)

    code = cli.main(["oneill-check", "--metric", "builtin:smoothed-cone:a=0.7,eps=0.15",
                     "--metric2", "builtin:smoothed-cone:a=0.7,eps=0.3", "--pairs", "1",
                     "--jobs", "1", "--out", str(tmp_path)])
    assert code == 0
    assert [name for name in expected if calls[name] == 0] == []
