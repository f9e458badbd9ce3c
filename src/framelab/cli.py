"""Command-line orchestration: curvature evaluations, lifted-metric
checks, holonomy studies, bound reports, GH estimates and the named
experiments.  Artifacts are JSON/CSV/plot-ready .dat files; every artifact
embeds the resolved configuration (with the seed, where the command draws
random numbers) and the tool version, and a fixed seed yields
byte-identical JSON on the same platform.

Exit codes: 0 ok; 2 config/parse error; 3 domain or precondition error;
4 invariant violation in strict mode.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import bundle as bd
from . import ghlab as gh
from . import holonomy as hl
from . import metric as mt
from . import oneill as on
from . import ortho
from .curvature import DomainExitError, curvature_gradient, riemann
from .expr import ParseError
from .metric import MetricError, NotSPDError

EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_INVARIANT = 4


class InvariantViolation(RuntimeError):
    pass


def _parse_floats(flag, text):
    """The comma-separated numbers of option `flag`; a piece that is not a
    number is a config error naming the option and the piece."""
    out = []
    for piece in text.split(","):
        if piece != "":
            try:
                out.append(float(piece))
            except ValueError:
                raise ValueError(f"{flag} takes comma-separated numbers, "
                                 f"got {piece!r}") from None
    return out


def _parse_region(text):
    """'r:0.5:2.0,phi:0:6.28' -> list of (name, lo, hi).  A piece that is
    not name:lo:hi with finite numbers lo <= hi, or that names a coordinate
    again, is a config error naming --region and the piece."""
    out = []
    for piece in text.split(","):
        name, *bounds = piece.split(":")
        try:
            lo, hi = map(float, bounds)
        except ValueError:
            lo = hi = math.nan
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"--region takes name:lo:hi with finite numbers lo <= hi, "
                             f"got {piece!r}")
        if name in (named for named, _, _ in out):
            raise ValueError(f"--region names {name} twice, again in {piece!r}")
        out.append((name, lo, hi))
    return out


def _metric_pair(args):
    """The --metric g and the --metric2 g' (g itself without --metric2); a
    g' of another dimension is a config error."""
    g = mt.metric_from_uri(args.metric)
    if not args.metric2:
        return g, g
    gp = mt.metric_from_uri(args.metric2)
    if gp.dim != g.dim:
        raise ValueError("base and connection metrics must share the chart")
    return g, gp


def _basepoint(args, m):
    """The --at point; a coordinate count other than m.dim is a config error,
    and a point that is not finite or lies outside the chart a domain error."""
    p = np.array(_parse_floats("--at", args.at))
    if p.shape != (m.dim,):
        raise ValueError(f"--at gives {p.size} coordinates; the chart "
                         f"({', '.join(m.coords)}) has {m.dim}")
    if not (np.isfinite(p).all() and m.in_domain(p)):
        raise DomainExitError(None, p)
    return p


def _region_for(m, spec_text):
    """The sampling box: the --region bounds by coordinate name, the chart's
    domain for the coordinates it leaves out (and for all of them without
    --region), which must then be bounded."""
    named = _parse_region(spec_text) if spec_text else []
    by_name = {name: (lo, hi) for name, lo, hi in named}
    region = []
    for c, dom in zip(m.coords, m.domain):
        if c in by_name:
            region.append(by_name.pop(c))
        else:
            lo, hi = dom
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"region must bound coordinate {c}")
            region.append((lo, hi))
    if by_name:
        raise ValueError(f"region names {sorted(by_name)} not in the chart")
    return region


def _write_artifact(args, name, payload):
    payload = {
        "tool": "framelab",
        "version": __version__,
        "command": args.command,
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("func",) and not callable(v)},
        "result": payload,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    text = json.dumps(payload, sort_keys=True, indent=1)
    path.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return payload


def _write_dat(args, name, rows, header):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.dat"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + " ".join(header) + "\n")
        for row in rows:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote {path}")


def _require_count(flag, value, least=1):
    if value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_parse_check(args):
    m = mt.metric_from_uri(args.metric)
    _require_count("--grid", args.grid)
    try:
        m.validate_spd_on_grid(per_axis=args.grid)
    except NotSPDError as err:
        # here the definition itself is at fault, not a point asked about
        raise MetricError(str(err)) from None
    text = mt.print_metric(m)
    round_trip = mt.parse_metric(text)
    rng = np.random.default_rng(args.seed)
    ok = not any(np.abs(m.evaluate(p) - round_trip.evaluate(p)).max() > 1e-14
                 for p in m.sample_interior(rng, 20))
    _write_artifact(args, "parse-check", {"ok": ok, "dim": m.dim,
                                          "coords": list(m.coords),
                                          "canonical": text})
    if args.strict and not ok:
        raise InvariantViolation("pretty-print round trip mismatch")
    return 0


def cmd_curvature(args):
    m, m2 = _metric_pair(args)
    p = _basepoint(args, m)
    jet = riemann(m, p)
    payload = {
        "point": p.tolist(),
        "metric": jet.G.tolist(),
        "ricci": jet.ricci().tolist(),
    }
    if args.metric2:
        payload["hypothesis"] = on.hypothesis_measurements(jet, curvature_gradient(m2, p))
    _write_artifact(args, "curvature", payload)
    return 0


def cmd_lift(args):
    g, gp = _metric_pair(args)
    p = _basepoint(args, g)
    fp = bd.FramePoint.anchor(p, g.dim)
    chart = bd.LiftedMetricChart(g, gp, fp)
    y = chart.chart_point()
    adapted = chart.metric_in_adapted_frame(y)
    vertical = chart.vertical_block_fundamental(y)
    dev = float(np.abs(adapted - np.eye(chart.dim)).max())
    payload = {
        "total_dim": chart.dim,
        "metric_coordinates": chart.metric_matrix(y).tolist(),
        "adapted_frame_deviation": dev,
        "vertical_block_fundamental": vertical.tolist(),
    }
    if args.grid_out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        bounds = [(v - 0.05, v + 0.05) for v in p] + [(-0.1, 0.1)] * chart.m
        chart.export_grid(Path(args.out) / args.grid_out, bounds, [3] * chart.dim)
    _write_artifact(args, "lift", payload)
    if args.strict and dev > 1e-9:
        raise InvariantViolation(f"adapted frame deviation {dev:.3e}")
    return 0


def cmd_oneill_check(args):
    g, gp = _metric_pair(args)
    _require_count("--pairs", args.pairs)
    rng = np.random.default_rng(args.seed)
    points = g.sample_interior(rng, args.pairs, margin=0.2)
    n = g.dim
    # per pair, the n components of v, then the n(n-1)/2 of xi
    W = rng.normal(size=(args.pairs, n + n * (n - 1) // 2))
    V, XI = W[:, :n].copy(), ortho.unvec_skew(W[:, n:], n)
    # every pair's formula from one stacked context, and its
    # finite-difference Ricci in one stacked pass
    ctx = on.ONeillContext(g, gp, bd.FramePoint.anchor(points, n))
    rep = on.ricci_oneill(ctx, V, XI)
    direct = on.ricci_direct(ctx, V, XI)
    terms = [dict(zip(rep.terms, row)) for row in zip(*(t.tolist() for t in rep.terms.values()))]
    rows = [{"point": p, "formula": f, "direct": d, "rel_err": abs(f - d) / (1 + abs(d)),
             "terms": t}
            for p, f, d, t in zip(points.tolist(), rep.ricci_formula.tolist(),
                                  direct.tolist(), terms)]
    worst = max(r["rel_err"] for r in rows)
    _write_artifact(args, "oneill-check", {"worst_rel_err": worst, "rows": rows})
    if args.strict and worst > 1e-5:
        raise InvariantViolation(f"formula vs direct mismatch {worst:.3e}")
    return 0


def cmd_holonomy(args):
    g, gp = _metric_pair(args)
    p = _basepoint(args, g)
    _require_count("--loops", args.loops, 0)
    if not 0 < args.delta < math.inf:
        raise ValueError(f"--delta must be positive and finite, got {args.delta:g}")
    if args.resume:
        try:
            saved = Path(args.resume).read_text(encoding="utf-8")
        except OSError as err:
            raise ValueError(f"cannot read --resume file: {err}") from None
        previous = hl.samples_from_jsonl(saved, g.dim)
    rng = np.random.default_rng(args.seed)
    loops = hl.plaquette_loops(p, args.delta, g.dim)
    loops += hl.coordinate_triangle_loops(p, args.delta, args.loops, rng, g.dim)
    samples = hl.holonomy_samples(gp, loops, g, word_length=args.word_length)
    if args.resume:
        samples = hl._dedup(previous + samples)
    est = ortho.classify_subgroup([s.element for s in samples])
    payload = {"samples": [s.to_json_obj() for s in samples],
               "classification": json.loads(est.to_json())}
    _write_artifact(args, "holonomy", payload)
    out_dir = Path(args.out)
    (out_dir / "holonomy-samples.jsonl").write_text(
        hl.samples_to_jsonl(samples) + "\n", encoding="utf-8")
    print(f"wrote {out_dir / 'holonomy-samples.jsonl'}")
    return 0


def cmd_fiber_dist(args):
    g, gp = _metric_pair(args)
    p = _basepoint(args, g)
    if g.dim != 2:
        raise ValueError("fiber-dist demo is defined for surfaces")
    _require_count("--loops", args.loops, 0)
    _require_count("--samples", args.samples)
    samples = hl.circle_power_samples(gp, p, axis=1, period=2 * math.pi,
                                      length_metric=g, max_power=args.loops)
    thetas = np.linspace(0.0, 2 * math.pi, args.samples, endpoint=False)
    targets = np.array([ortho.rotation2(th) for th in thetas] + [np.diag([1.0, -1.0])])
    *dists, refl = hl.fiber_distance(samples, np.eye(2), targets).tolist()
    rows = [{"theta": float(th), "distance": d} for th, d in zip(thetas, dists)]
    _write_artifact(args, "fiber-dist", {
        "rows": rows, "reflection": "inf" if math.isinf(refl) else refl})
    _write_dat(args, "fiber-dist", [(r["theta"], r["distance"]) for r in rows],
               ["theta", "distance"])
    return 0


def cmd_bound_report(args):
    g, gp = _metric_pair(args)
    _require_count("--samples", args.samples)
    region = _region_for(g, args.region)
    rng = np.random.default_rng(args.seed)
    lo, hi = np.array(region, dtype=float).T
    rep = on.ricci_bound_report(g, gp, rng.uniform(lo, hi, size=(args.samples, g.dim)))
    _write_artifact(args, "bound-report", rep.to_json_obj())
    if args.format == "csv":
        path = Path(args.out) / "bound-report.csv"
        path.write_text(rep.to_csv(), encoding="utf-8")
        print(f"wrote {path}")
    if args.strict and rep.flags:
        print("\n".join(rep.flags), file=sys.stderr)
    return 0


def cmd_gh(args):
    g, m2 = _metric_pair(args)
    _require_count("--samples", args.samples)
    region = _region_for(g, args.region)
    rng = np.random.default_rng(args.seed)
    res1 = gh.sample_space(g, region, args.samples, rng=rng)
    res2 = gh.sample_space(m2, region, args.samples, layout=res1.layout)
    corr = gh.natural_correspondence(args.samples)
    upper = gh.gh_upper(res1.space, res2.space, corr)
    lower = gh.gh_lower(res1.space, res2.space)
    payload = {"gh_upper": upper, "gh_lower": lower,
               "fill_radius": res1.fill_radius,
               "diam_a": res1.space.diam(), "diam_b": res2.space.diam()}
    _write_artifact(args, "gh", payload)
    if args.format == "csv":
        for tag, space in (("a", res1.space), ("b", res2.space)):
            path = Path(args.out) / f"gh-space-{tag}.csv"
            path.write_text(space.to_csv(), encoding="utf-8")
            print(f"wrote {path}")
    if args.strict and lower > upper + 1e-12:
        raise InvariantViolation("gh_lower exceeds gh_upper")
    return 0


def cmd_experiment(args):
    _require_count("--samples", args.samples)
    _require_count("--loops", args.loops, 0)
    if args.name == "cone-collapse":
        caps = _parse_floats("--caps", args.caps)
        if not caps:
            raise ValueError("--caps lists no cap")
        for eps in caps:
            try:
                mt.cap_coefficients(eps)
            except MetricError as err:
                raise ValueError(f"--caps: {err}") from None
            r, r_max = gh.COLLAPSE_RADIUS * eps, mt.smoothed_cone(args.a, eps).domain[0][1]
            if not r < r_max:
                raise ValueError(f"--caps: cap {eps:g} puts the base point r = {r:g} "
                                 f"outside the chart r < {r_max:g}")
        rep = gh.fiber_collapse_experiment(args.a, caps, max_power=args.loops)
        payload = rep.to_json_obj()
        _write_artifact(args, "cone-collapse", payload)
        _write_dat(args, "cone-collapse", rep.dat_rows(), ["eps", "D"])
        if args.strict and not rep.monotone:
            raise InvariantViolation("collapse ladder not monotone")
        if args.strict and not rep.reflection_disconnected:
            raise InvariantViolation("reflection component unexpectedly connected")
    elif args.name == "eguchi-hanson":
        lams = _parse_floats("--scales", args.scales) if args.scales else (4.0, 16.0, 64.0)
        if not lams:
            raise ValueError("--scales lists no scale")
        for lam in lams:
            if not 0 < lam < math.inf:
                raise ValueError(f"--scales must be positive and finite, got {lam:g}")
        rep = gh.eguchi_hanson_experiment(
            lams=tuple(lams), seed=args.seed, gh_count=args.samples,
            quotient_samples=args.loops)
        payload = rep.to_json_obj()
        _write_artifact(args, "eguchi-hanson", payload)
        _write_dat(args, "eguchi-hanson",
                   [(row["lambda"], row["max_length"], row["chirality_residual"])
                    for row in rep.holonomy_ladder],
                   ["lambda", "max_loop_length", "chirality_residual"])
        if args.strict and rep.classification != "SU(2)-in-SO(4)":
            raise InvariantViolation(f"classification {rep.classification}")
        # with no quotient samples the sampled diameters and the gap are null
        diams = rep.quotient_diameters
        if args.strict and diams["gap"] is not None and diams["gap"] <= 0:
            raise InvariantViolation("quotient diameter gap not positive")
        over = [k for k, exact in diams["exact"].items()
                if k != "gap" and diams[k] is not None and diams[k] > exact + 1e-12]
        if args.strict and over:
            raise InvariantViolation(f"sampled {', '.join(over)} exceed the exact diameters")
    elif args.name == "canonical-recovery":
        rep = canonical_recovery_report(args.samples, args.seed)
        _write_artifact(args, "canonical-recovery", rep)
        if args.strict and rep["max_rel_err"] > 1e-9:
            raise InvariantViolation(
                f"canonical recovery error {rep['max_rel_err']:.3e}")
    else:
        raise ValueError(f"unknown experiment {args.name!r}")
    return 0


def canonical_recovery_report(samples, seed):
    """Lifted metric with g' = g on the round sphere versus the canonical
    lifting metric assembled independently from the sphere's connection:
    gtilde = dth^2 + sin^2 th dph^2 + 2 (dt - cos th dph)^2."""
    sph = mt.round_sphere()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        th = rng.uniform(0.35, math.pi - 0.35)
        ph = rng.uniform(0.0, 2 * math.pi)
        t = rng.uniform(-0.6, 0.6)
        A0 = ortho.rotation2(rng.uniform(0.0, 2 * math.pi))
        fp = bd.FramePoint([th, ph], A0)
        chart = bd.LiftedMetricChart(sph, sph, fp)
        got = chart.metric_matrix(chart.chart_point(t=[t]))
        c = math.cos(th)
        want = np.array([
            [1.0, 0.0, 0.0],
            [0.0, math.sin(th) ** 2 + 2 * c * c, -2.0 * c],
            [0.0, -2.0 * c, 2.0],
        ])
        err = np.abs(got - want).max() / max(1.0, np.abs(want).max())
        worst = max(worst, float(err))
    return {"samples": samples, "max_rel_err": worst}


# ---------------------------------------------------------------------------
# argument parsing

def build_parser():
    ap = argparse.ArgumentParser(
        prog="framelab",
        description="curvature, holonomy and GH experiments for lifting "
                    "metrics on orthonormal frame bundles")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, metric=True, metric2=True, seed=True, strict=True):
        """--jobs and --out, and the shared options the command reads;
        --jobs is accepted and ignored."""
        if metric:
            p.add_argument("--metric", required=True,
                           help="builtin:NAME[:k=v,...] or a .gmet path")
        if metric2:
            p.add_argument("--metric2", default=None,
                           help="the smoothed-metric slot (defaults to --metric)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
        p.add_argument("--out", default="out")
        if strict:
            group = p.add_mutually_exclusive_group()
            group.add_argument("--strict", dest="strict", action="store_true", default=True)
            group.add_argument("--no-strict", dest="strict", action="store_false")

    p = sub.add_parser("parse-check", help="validate a metric definition")
    common(p, metric2=False)
    p.add_argument("--grid", type=int, default=6)
    p.set_defaults(func=cmd_parse_check)

    p = sub.add_parser("curvature", help="Ricci and metric at a point")
    common(p, seed=False, strict=False)
    p.add_argument("--at", required=True, help="comma-separated coordinates")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("lift", help="evaluate the lifting metric at a frame point")
    common(p, seed=False)
    p.add_argument("--at", required=True)
    p.add_argument("--grid-out", default=None, help="also export a sampled grid file")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("oneill-check", help="Ricci formula vs direct computation")
    common(p)
    p.add_argument("--pairs", type=int, default=20)
    p.set_defaults(func=cmd_oneill_check)

    p = sub.add_parser("holonomy", help="sample holonomy and classify the subgroup")
    common(p, strict=False)
    p.add_argument("--at", required=True)
    p.add_argument("--loops", type=int, default=8)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--word-length", type=int, default=2)
    p.add_argument("--resume", default=None,
                   help="merge a previously saved holonomy-samples.jsonl")
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("fiber-dist", help="restricted fiber distance profile")
    common(p, seed=False, strict=False)
    p.add_argument("--at", required=True)
    p.add_argument("--loops", type=int, default=40)
    p.add_argument("--samples", type=int, default=32)
    p.set_defaults(func=cmd_fiber_dist)

    p = sub.add_parser("bound-report", help="Ricci bound and hypothesis numbers")
    common(p)
    p.add_argument("--region", default=None, help="name:lo:hi,...")
    p.add_argument("--samples", type=int, default=12)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_bound_report)

    p = sub.add_parser("gh", help="GH bounds between two metrics on one chart")
    common(p)
    p.add_argument("--region", default=None)
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_gh)

    p = sub.add_parser("experiment", help="named experiments")
    p.add_argument("name", choices=["cone-collapse", "eguchi-hanson",
                                    "canonical-recovery"])
    common(p, metric=False, metric2=False)
    p.add_argument("--a", type=float, default=math.sqrt(2) - 1)
    p.add_argument("--caps", default="0.1,0.05,0.02")
    p.add_argument("--scales", default=None)
    p.add_argument("--samples", type=int, default=12)
    p.add_argument("--loops", type=int, default=40)
    p.set_defaults(func=cmd_experiment)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except InvariantViolation as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return EXIT_INVARIANT
    except (DomainExitError, NotSPDError) as err:
        # NotSPDError is a MetricError, so it is caught first
        print(f"domain error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ParseError, MetricError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
