"""Every library option has a caller: each defaulted parameter of a public
function or method in `src/framelab`, and each defaulted field of a public
dataclass, is set, by keyword or by position, by some call in `src/` or
`bench/`, unless it is one of the named exemptions below.  An option that
nothing sets is a branch that only tests reach.

Calls are matched to definitions by the called name alone (`f(...)`,
`mod.f(...)` and `obj.f(...)` all match every `def f`), a public class's
`__init__` and a public dataclass's fields by the class name.  A call with
`*args` sets every positional parameter, one with `**kwargs` every
parameter.  `bench/` is read, never changed."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "framelab").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))

#: (module, qualified name, parameter) -> why nothing in src/ or bench/ sets it
EXEMPT = {
    ("metric", "flat_euclidean", "dim"):
        "builtin family parameter, set from outside through builtin:NAME:k=v URIs",
    ("metric", "flat_torus", "dim"):
        "builtin family parameter, set from outside through builtin:NAME:k=v URIs",
    ("metric", "flat_torus", "side"):
        "builtin family parameter, set from outside through builtin:NAME:k=v URIs",
    ("metric", "smoothed_cone", "r_max"):
        "builtin family parameter, set from outside through builtin:NAME:k=v URIs",
    ("metric", "exact_cone", "r_min"):
        "builtin family parameter, set from outside through builtin:NAME:k=v URIs",
    ("metric", "exact_cone", "r_max"):
        "builtin family parameter, set from outside through builtin:NAME:k=v URIs",
    ("metric", "eguchi_hanson", "margin"):
        "builtin family parameter, set from outside through builtin:NAME:k=v URIs",
    ("metric", "eguchi_hanson", "angle_margin"):
        "builtin family parameter, set from outside through builtin:NAME:k=v URIs",
    ("ghlab", "sample_frame_bundle", "fiber_count"):
        "the frame-bundle GH experiment (ROADMAP item 5) decides its sampling",
    ("ghlab", "sample_frame_bundle", "loops_at"):
        "the frame-bundle GH experiment (ROADMAP item 5) decides its sampling",
    ("holonomy", "coordinate_circle_loop", "turns"):
        "the frame-bundle GH experiment (ROADMAP item 5) may sweep several turns",
    ("curvature", "geodesic_energy_drift", "samples"):
        "run telemetry (ROADMAP item 6) records energy drift through it",
    ("holonomy", "geodesic_triangle_loops", "max_tries"):
        "ROADMAP item 7 wires the geodesic triangles in or deletes them",
    ("curvature", "fd_gradient", "h1"):
        "an A-tensor test differentiates a non-metric function at other steps",
    ("curvature", "fd_gradient", "h2"):
        "an A-tensor test differentiates a non-metric function at other steps",
    ("curvature", "fd_hessian", "h1"):
        "an A-tensor test differentiates a non-metric function at other steps",
    ("curvature", "fd_hessian", "h2"):
        "an A-tensor test differentiates a non-metric function at other steps",
}


def _is_public(name):
    return not name.startswith("_")


def _defaulted(fn, is_method):
    """(parameter name, positional index or None) of each parameter of fn
    with a default; the index counts from the first argument a call passes."""
    positional = fn.args.posonlyargs + fn.args.args
    if is_method:
        positional = positional[1:]
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass"
               for d in cls.decorator_list)


def _init_false(value):
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords))


def _defaulted_fields(cls):
    """(field name, positional index) of each defaulted constructor field
    of a dataclass; a field(init=False) is no constructor parameter."""
    fields = [node for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and not _init_false(node.value)]
    return [(node.target.id, i) for i, node in enumerate(fields) if node.value is not None]


def _definitions():
    """(module, qualified name, called name, parameter, positional index)
    for every defaulted parameter of a public function or method, and for
    every defaulted field of a public dataclass (qualified by its class)."""
    out = []
    for path in SOURCES:
        mod = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and _is_public(node.name):
                out += [(mod, node.name, node.name, p, i) for p, i in _defaulted(node, False)]
            elif isinstance(node, ast.ClassDef) and _is_public(node.name):
                if _is_dataclass(node):
                    out += [(mod, node.name, node.name, p, i) for p, i in _defaulted_fields(node)]
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    if fn.name == "__init__":
                        called = node.name
                    elif _is_public(fn.name):
                        called = fn.name
                    else:
                        continue
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in fn.decorator_list)
                    out += [(mod, f"{node.name}.{fn.name}", called, p, i)
                            for p, i in _defaulted(fn, not static)]
    return out


def _self_attr(node):
    """x for an argument `self.x`, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _calls():
    """called name -> list of (positional count, keyword names, copies),
    with count inf after *args and keyword names None after **kwargs.
    copies maps a position or keyword of a call to the enclosing class to
    the `self.x` it passes: a copy such as `Space(..., self.basepoint)`
    in a method of `Space` does not set the field."""
    out = {}
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        enclosing = {id(node): cls.name for cls in ast.walk(tree)
                     if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                name = f.id
            elif isinstance(f, ast.Attribute):
                name = f.attr
            else:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = float("inf") if starred else len(node.args)
            keywords = {k.arg for k in node.keywords}
            copies = {}
            if enclosing.get(id(node)) == name:
                for i, a in enumerate(node.args):
                    if isinstance(a, ast.Starred):
                        break
                    copies[i] = _self_attr(a)
                copies.update({k.arg: _self_attr(k.value) for k in node.keywords})
            out.setdefault(name, []).append(
                (count, None if None in keywords else keywords, copies))
    return out


def _sets(call, param, index):
    count, keywords, copies = call
    if keywords is None:
        return True
    if index is not None and count > index:
        return copies.get(index) != param
    return param in keywords and copies.get(param) != param


def _unset():
    calls = _calls()
    unset = []
    for mod, qualname, called, param, index in _definitions():
        if not any(_sets(call, param, index) for call in calls.get(called, [])):
            unset.append((mod, qualname, param))
    return unset


def test_every_library_option_has_a_caller():
    unset = [key for key in _unset() if key not in EXEMPT]
    assert not unset, ("defaulted parameters that no call in src/ or bench/ sets "
                       "(make each a constant, or give it a caller):\n"
                       + "\n".join(f"  {m}.{q}: {p}" for m, q, p in unset))


def test_every_exemption_is_still_needed():
    stale = sorted(set(EXEMPT) - set(_unset()))
    assert not stale, f"exemptions for parameters that are set or gone: {stale}"


def test_the_scan_sees_positional_keyword_and_starred_calls():
    calls = _calls()
    assert (3, {"rng", "refine_pairs"}, {}) in calls["sample_space"]  # bench/ops.py
    assert any(k is None for _, k, _ in calls["builtin"])             # builtin(f, **params)
    defs = {(m, q, p): i for m, q, _, p, i in _definitions()}
    assert defs[("ghlab", "FiniteMetricSpace.validate", "tol")] == 0  # self is dropped
    assert ("cli", "main", "argv") in defs
    # dataclass fields: a defaulted one by its place among the init fields
    assert defs[("metric", "MetricSpec", "domain")] == 3
    assert defs[("ghlab", "GraphLayout", "edge_shifts")] == 3
    assert ("ghlab", "GraphLayout", "fill_radius") not in defs        # field(init=False)
