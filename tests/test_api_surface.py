"""Every library name and option has a caller, in `src/` or `bench/`,
unless it is one of the named exemptions below.  A name or an option that
only tests reach is code that no command, experiment or benchmark needs.

Names: every public module-level function or class of `src/framelab`, and
every public method of a public class, is referred to somewhere in `src/`
or `bench/` outside its own definition.  A function or class counts as
referred to by name (`f`, `from .m import f`, `mod.f`), a method by
attribute (`obj.f`).  Names are matched by identifier alone, so a shared
identifier counts as a reference: a method `m` that nothing calls passes
while some other `obj.m` exists, and a function `f` while some other `f`
is used.

Options: each defaulted parameter of a public function or method, and
each defaulted field of a public dataclass, is set, by keyword or by
position, by some call in `src/` or `bench/`.  Calls are matched to
definitions by the called name alone (`f(...)`, `mod.f(...)` and
`obj.f(...)` all match every `def f`), a public class's `__init__` and a
public dataclass's fields by the class name.  A call with `*args` sets
every positional parameter, one with `**kwargs` every parameter, so a
parameter that only such a call could set escapes the scan: `base` of
`metric.builtin`, which only `builtin(family, **params)` passed on, was one.

`bench/` is read, never changed."""

import ast
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "framelab").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
ROADMAP = ROOT / "ROADMAP.md"

#: (module, qualified name) -> why nothing in src/ or bench/ refers to it;
#: each reason names an acceptance test that uses the name, or an open
#: ROADMAP item
NAME_EXEMPT = {
    ("curvature", "sectional"):
        "test_acceptance_10_property_suites checks its scaling law on Eguchi-Hanson",
    ("expr", "differentiate"):
        "test_acceptance_10_property_suites checks a symbolic derivative against FD",
    ("holonomy", "transport_matrix"):
        "test_acceptance_10_property_suites checks transport against the bundle lift",
    ("oneill", "covariant_a_vertical_residual"):
        "test_acceptance_02_oneill_cross_validation checks the vertical A identity",
    ("curvature", "sup_sectional_coordinate_planes"):
        "test_acceptance_08_theorem_4_2_boundedness_shadow fits the cap slope with it "
        "(ROADMAP item 11 replaces it)",
    ("curvature", "geodesic_energy_drift"):
        "run telemetry (ROADMAP item 6) records energy drift through it",
    ("ghlab", "sample_frame_bundle"):
        "the frame-bundle GH experiment (ROADMAP item 5) decides its fate",
}

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
}


def _is_public(name):
    return not name.startswith("_")


@lru_cache(maxsize=None)
def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# names

def _public_names(modules):
    """(module, qualified name, identifier, node) of every public
    module-level function or class of the {module: tree} map, and of every
    public method of a public class."""
    out = []
    for mod, tree in modules.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _is_public(node.name)):
                continue
            out.append((mod, node.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [(mod, f"{node.name}.{fn.name}", fn.name, fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef) and _is_public(fn.name)]
    return out


def _unreferenced(modules, trees):
    """(module, qualified name) of each public name of `modules` that no
    node of `trees` outside its own definition refers to: by name, import or
    attribute for a function or class, by attribute for a method."""
    by_name, by_attr = {}, {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                by_name.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.alias):
                by_name.setdefault(node.name.rpartition(".")[2], []).append(node)
            elif isinstance(node, ast.Attribute):
                by_attr.setdefault(node.attr, []).append(node)
    out = []
    for mod, qualname, name, node in _public_names(modules):
        refs = by_attr.get(name, [])
        if "." not in qualname:
            refs = refs + by_name.get(name, [])
        own = {id(n) for n in ast.walk(node)}
        if all(id(r) in own for r in refs):
            out.append((mod, qualname))
    return out


def _unreferenced_library():
    return _unreferenced({path.stem: _tree(path) for path in SOURCES},
                         [_tree(path) for path in CALLERS])


def test_every_public_name_has_a_caller():
    missing = [key for key in _unreferenced_library() if key not in NAME_EXEMPT]
    assert not missing, ("public names that nothing in src/ or bench/ refers to "
                         "(delete each, or give it a caller):\n"
                         + "\n".join(f"  {m}.{q}" for m, q in missing))


def test_every_name_exemption_is_still_needed():
    stale = sorted(set(NAME_EXEMPT) - set(_unreferenced_library()))
    assert not stale, f"exemptions for names that have a caller or are gone: {stale}"


def test_every_name_exemption_names_an_acceptance_test_or_a_roadmap_item():
    acceptance = {node.name: node for node in _tree(ACCEPTANCE).body
                  if isinstance(node, ast.FunctionDef)}
    items = set(re.findall(r"^### (\d+)\. ", ROADMAP.read_text(encoding="utf-8"), re.M))
    for (mod, qualname), reason in NAME_EXEMPT.items():
        tests = re.findall(r"\btest_acceptance_\w+", reason)
        cited = re.findall(r"\bROADMAP item (\d+)\b", reason)
        assert tests or cited, f"{mod}.{qualname}: the reason names no acceptance test or item"
        for name in tests:
            assert name in acceptance, f"{mod}.{qualname}: no acceptance test {name}"
            used = {n.attr for n in ast.walk(acceptance[name]) if isinstance(n, ast.Attribute)}
            assert qualname.rpartition(".")[2] in used, f"{name} does not use {qualname}"
        for item in cited:
            assert item in items, f"{mod}.{qualname}: ROADMAP has no open item {item}"


def test_the_name_scan_sees_names_attributes_and_own_definitions():
    code = ast.parse("def f():\n    return f()\n\n"
                     "class C:\n    def m(self):\n        return m\n"
                     "    def k(self):\n        return self.k\n\n"
                     "def g():\n    return C().k\n\n"
                     "def _private():\n    pass\n")
    # f calls only itself, m is a bare name, and nothing outside g refers to g
    assert _unreferenced({"toy": code}, [code]) == [("toy", "f"), ("toy", "C.m"), ("toy", "g")]


# ---------------------------------------------------------------------------
# options

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
        for node in _tree(path).body:
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
        tree = _tree(path)
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
