"""Seeded input generation for the four benchmark workloads.

Everything here depends on numpy only, never on framelab: the program under
test receives nothing but the generated inputs.  The same seed gives the
same inputs.  Continuous inputs are drawn by Latin-hypercube sampling, so
every run covers each input range evenly and the batch cost varies less
between seeds than with independent draws.
"""

from __future__ import annotations

import math

import numpy as np

#: operations per batch, sized so that one batch takes 15-25 s on a 2-core
#: x86-64 VM (Python 3.11, numpy 2.4, scipy 1.17) at the first benchmarked
#: commit, which leaves room for set-up inside a 26 s run
BATCH = {
    "holonomy-closure": {"basepoints": 9},
    "geodesic-shooting": {"cone": 2, "annulus": 1},
    "oneill-direct": {"n2": 12, "n3": 12},
    "fiber-query": {"cones": 10},
}

FIBER_LOOPS = 40
#: a cone angle a is rejected when a*m lies this close to an integer for
#: some m <= 2*FIBER_LOOPS: the circle holonomy then has small finite order
#: and the sample set collapses under dedup
FINITE_ORDER_MARGIN = 1e-4


def latin_hypercube(rng, count, ranges):
    """`count` points, one in each of `count` equal strata of every range."""
    out = np.empty((count, len(ranges)))
    for a, (lo, hi) in enumerate(ranges):
        strata = (rng.permutation(count) + rng.uniform(size=count)) / count
        out[:, a] = lo + (hi - lo) * strata
    return out


def _op_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def holonomy_closure(rng, workdir):
    pts = latin_hypercube(rng, BATCH["holonomy-closure"]["basepoints"],
                          [(1.6, 3.0), (0.8, math.pi - 0.8), (0.5, 2.5), (0.5, 2.5)])
    return {"basepoints": pts.tolist()}


def geodesic_shooting(rng, workdir):
    sizes = BATCH["geodesic-shooting"]
    return {"cone_seeds": [_op_seed(rng) for _ in range(sizes["cone"])],
            "annulus_seeds": [_op_seed(rng) for _ in range(sizes["annulus"])]}


def _gmet_n3(rng):
    """A generic non-diagonal 3-metric: diagonally dominant, so positive
    definite on the whole box, with every component depending on a
    coordinate."""
    c = ("x", "y", "z")
    rows = [[None] * 3 for _ in range(3)]
    for i in range(3):
        j = (i + 1 + int(rng.integers(2))) % 3
        rows[i][i] = (f"{rng.uniform(1.2, 1.6):.6f} + {rng.uniform(0.1, 0.2):.6f}"
                      f"*sin({rng.uniform(0.5, 1.5):.6f}*{c[j]} + {rng.uniform(0, 3):.6f})")
    for i in range(3):
        for j in range(i + 1, 3):
            k = 3 - i - j
            amp = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.15)
            rows[i][j] = rows[j][i] = (f"{amp:.6f}*cos({rng.uniform(0.5, 1.5):.6f}*{c[k]}"
                                       f" + {rng.uniform(0, 3):.6f})")
    body = ", ".join("[" + ", ".join(r) + "]" for r in rows)
    domain = "".join(f"domain {v} in [0.0, 1.5];\n" for v in c)
    return f"dim 3; coords x y z;\n{domain}g = [{body}];\n"


def oneill_direct(rng, workdir):
    sizes = BATCH["oneill-direct"]
    n3 = []
    for k in range(sizes["n3"]):
        pair = []
        for tag in ("g", "gp"):
            path = workdir / f"n3-{k:02d}-{tag}.gmet"
            path.write_text(_gmet_n3(rng), encoding="utf-8")
            pair.append(str(path))
        n3.append({"metric": pair[0], "metric2": pair[1], "seed": _op_seed(rng)})
    return {"n2_seeds": [_op_seed(rng) for _ in range(sizes["n2"])], "n3": n3}


def _finite_order(a, max_power):
    m = np.arange(1, max_power + 1)
    return bool(np.min(np.abs(a * m - np.round(a * m))) < FINITE_ORDER_MARGIN)


def fiber_query(rng, workdir):
    count = BATCH["fiber-query"]["cones"]
    ranges = [(0.3, 0.8), (0.03, 0.1)]
    pts = latin_hypercube(rng, count, ranges)
    cones = []
    for a, eps in pts:
        lo, hi = ranges[0]
        width = (hi - lo) / count
        stratum = min(int((a - lo) / width), count - 1)
        while _finite_order(a, 2 * FIBER_LOOPS):
            a = lo + width * (stratum + rng.uniform())
        cones.append({"a": float(a), "eps": float(eps)})
    return {"cones": cones, "loops": FIBER_LOOPS}


GENERATORS = {
    "holonomy-closure": holonomy_closure,
    "geodesic-shooting": geodesic_shooting,
    "oneill-direct": oneill_direct,
    "fiber-query": fiber_query,
}


def generate(workload, seed, workdir):
    """Inputs of one workload as a JSON-ready dict; files go into workdir."""
    rng = np.random.default_rng([seed, list(GENERATORS).index(workload)])
    return GENERATORS[workload](rng, workdir)
