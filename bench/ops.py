"""The operations of each workload, their correctness checks, and the
metrics each workload builds during set-up.

An operation is a `run` callable, the part that is timed, and a `check`
callable that judges its output afterwards, outside the timed region.
Operations call framelab through module attributes (`cli.main`,
`gh.sample_space`), so the tracing wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import framelab.cli as cli
from framelab import ghlab as gh
from framelab import metric as mt

EH_URI = "builtin:eguchi-hanson"
N2_PAIR = ("builtin:smoothed-cone:a=0.7,eps=0.15", "builtin:smoothed-cone:a=0.7,eps=0.3")
CONE_A = 0.7
CONE_REGION = [(0.3, 1.6), (0.0, 2 * math.pi)]
CONE_COUNT = 10
CONE_LOWER_SLACK = 1e-6     # refined distance >= closed form * (1 - slack)
CONE_FAR_TOL = 0.03         # far pairs within 3% of the closed form
ANNULUS_LAM = 8.0
ANNULUS_COUNT = 5
ANNULUS_GH_MAX = 0.05
ONEILL_PAIRS = 10
ONEILL_TOL = 1e-5
FIBER_SAMPLES = 256


@dataclass
class Op:
    kind: str
    run: Callable
    check: Callable         # output of run -> dict of check values; raises on failure


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _cli(argv):
    """framelab's CLI in-process; its `wrote ...` lines are discarded, its
    error text is kept for the failure message."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _artifact(out_dir, name, code, err):
    _require(code == 0, f"exit {code}: {err.strip()[:200]}")
    return json.loads((Path(out_dir) / f"{name}.json").read_text(encoding="utf-8"))["result"]


def _cli_op(kind, argv, out_dir, name, judge):
    """`framelab ARGV --jobs 1 --out OUT_DIR`; `judge` checks artifact `name`."""
    argv = argv + ["--jobs", "1", "--out", str(out_dir)]
    return Op(kind, lambda: _cli(argv), lambda res: judge(_artifact(out_dir, name, *res)))


# ---------------------------------------------------------------------------
# holonomy-closure

def _holonomy_ops(inputs, out, metrics):
    def judge(result):
        label = result["classification"]["class"]
        _require(label == "SU(2)-in-SO(4)", f"classification {label}")
        return {}

    ops = []
    for k, p in enumerate(inputs["basepoints"]):
        argv = ["holonomy", "--metric", EH_URI, "--loops", "0", "--word-length", "2",
                "--at", ",".join(repr(v) for v in p)]
        ops.append(_cli_op("holonomy", argv, out / f"op{k:02d}", "holonomy", judge))
    return ops


# ---------------------------------------------------------------------------
# geodesic-shooting

def _cone_op(cone, seed):
    def run():
        return gh.sample_space(cone, CONE_REGION, CONE_COUNT,
                               rng=np.random.default_rng(seed), refine_pairs=True)

    def check(res):
        pts = res.layout.points[res.layout.chosen]
        excess = -math.inf
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                exact = gh.cone_distance(CONE_A, pts[i], pts[j])
                rel = (res.space.d[i, j] - exact) / exact
                _require(rel >= -CONE_LOWER_SLACK,
                         f"pair ({i},{j}) below the closed form by {-rel:.3e}")
                dphi = abs(pts[i, 1] - pts[j, 1]) % (2 * math.pi)
                dphi = min(dphi, 2 * math.pi - dphi)
                if pts[i, 0] > 1.0 and pts[j, 0] > 1.0 and dphi > 0.8 * math.pi:
                    _require(abs(rel) <= CONE_FAR_TOL,
                             f"far pair ({i},{j}) off the closed form by {rel:.3e}")
                excess = max(excess, rel)
        return {"cone_max_excess": excess}

    return Op("cone", run, check)


def _annulus_op(seed):
    def run():
        return gh.eguchi_hanson_gh_comparison(lam=ANNULUS_LAM, count=ANNULUS_COUNT, seed=seed)

    def check(res):
        upper, A, _ = res
        _require(upper <= ANNULUS_GH_MAX, f"gh_upper {upper:.3e} > {ANNULUS_GH_MAX}")
        A.validate(tol=1e-6)
        return {"eh_gh_upper": upper}

    return Op("annulus", run, check)


def _geodesic_ops(inputs, out, metrics):
    cone = metrics[0]       # built and compiled in set-up, like a library user would
    return ([_cone_op(cone, s) for s in inputs["cone_seeds"]]
            + [_annulus_op(s) for s in inputs["annulus_seeds"]])


# ---------------------------------------------------------------------------
# oneill-direct

def _oneill_judge(result):
    worst = result["worst_rel_err"]
    _require(worst <= ONEILL_TOL, f"worst_rel_err {worst:.3e}")
    return {"oneill_worst_rel_err": worst}


def _oneill_ops(inputs, out, metrics):
    jobs = [("n2", N2_PAIR[0], N2_PAIR[1], s) for s in inputs["n2_seeds"]]
    jobs += [("n3", p["metric"], p["metric2"], p["seed"]) for p in inputs["n3"]]
    ops = []
    for k, (kind, g, gp, seed) in enumerate(jobs):
        argv = ["oneill-check", "--metric", g, "--metric2", gp,
                "--pairs", str(ONEILL_PAIRS), "--seed", str(seed)]
        ops.append(_cli_op(kind, argv, out / f"op{k:02d}", "oneill-check", _oneill_judge))
    return ops


# ---------------------------------------------------------------------------
# fiber-query

def _cone_uri(c):
    return f"builtin:smoothed-cone:a={c['a']!r},eps={c['eps']!r}"


def _fiber_judge(result):
    _require(result["reflection"] == "inf", f"reflection distance {result['reflection']}")
    _require(len(result["rows"]) == FIBER_SAMPLES, "wrong number of rows")
    for row in result["rows"]:
        th = row["theta"]
        bound = math.sqrt(2.0) * min(th, 2 * math.pi - th)     # d_b(I, rot th)
        _require(row["distance"] <= bound + 1e-9 * (1.0 + bound),
                 f"distance {row['distance']} above d_b(I, rot {th})")
    return {}


def _fiber_ops(inputs, out, metrics):
    ops = []
    for k, c in enumerate(inputs["cones"]):
        argv = ["fiber-dist", "--metric", _cone_uri(c), "--loops", str(inputs["loops"]),
                "--samples", str(FIBER_SAMPLES), "--at", f"{2.5 * c['eps']!r},0"]
        ops.append(_cli_op("fiber", argv, out / f"op{k:02d}", "fiber-dist", _fiber_judge))
    return ops


OPERATIONS = {
    "holonomy-closure": _holonomy_ops,
    "geodesic-shooting": _geodesic_ops,
    "oneill-direct": _oneill_ops,
    "fiber-query": _fiber_ops,
}


def operations(workload, inputs, out, metrics):
    """The fixed batch of the workload; CLI artifacts go under `out`,
    `metrics` is what `setup` returned."""
    return OPERATIONS[workload](inputs, Path(out), metrics)


# ---------------------------------------------------------------------------
# set-up: every metric a workload uses, built once

def _setup_metrics(workload, inputs):
    if workload == "holonomy-closure":
        return [mt.metric_from_uri(EH_URI)]
    if workload == "geodesic-shooting":
        eh = mt.eguchi_hanson(1.0, r_max=4.0 * ANNULUS_LAM)
        return [mt.exact_cone(CONE_A), mt.rescaled(eh, 1.0 / ANNULUS_LAM)]
    if workload == "oneill-direct":
        uris = list(N2_PAIR) + [u for p in inputs["n3"] for u in (p["metric"], p["metric2"])]
        return [mt.metric_from_uri(u) for u in uris]
    if workload == "fiber-query":
        return [mt.metric_from_uri(_cone_uri(c)) for c in inputs["cones"]]
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload, inputs):
    """Build each metric once and compile it with a first evaluate and
    derivative_fn(1) at the middle of its chart; returns the metrics."""
    metrics = _setup_metrics(workload, inputs)
    for m in metrics:
        p = np.array([0.5 * (lo + hi) for lo, hi in m.domain])
        m.evaluate(p)
        m.derivative_fn(1)(p)
    return metrics
