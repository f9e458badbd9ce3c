"""One workload in a fresh process.

    python3 bench/worker.py setup RUN_DIR/inputs.json
    python3 bench/worker.py run RUN_DIR/inputs.json

`setup` measures set-up only: importing framelab (including framelab.cli)
and building and compiling every metric the workload uses.  `run` measures
set-up, then times the workload's fixed batch, repeated while the run's
seconds last, and checks every operation.  With tracing on it then installs
the span wrappers, builds the metrics again and times one traced batch.
Either mode prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

EXIT_WRONG_SOURCE = 3

#: layers that must record calls on a workload, else the traced run fails
EXPECTED_CALLS = {
    "holonomy-closure": ["cli.main", "holonomy.holonomy_samples",
                         "holonomy.holonomy_element", "ortho.group_distance",
                         "ortho.classify_subgroup"],
    "geodesic-shooting": ["expr.eval", "metric.evaluate", "metric.derivative",
                          "curvature.geodesic_ivp", "curvature.geodesic_between",
                          "ghlab.sample_space", "ghlab.eguchi_hanson_gh_comparison",
                          "ghlab.gh_upper"],
    "oneill-direct": ["cli.main", "bundle.metric_matrix", "curvature.fd_ricci",
                      "curvature.jet", "oneill.context", "oneill.ricci_oneill",
                      "oneill.ricci_direct"],
    "fiber-query": ["cli.main", "holonomy.circle_power_samples",
                    "holonomy.fiber_distance", "ortho.group_distance"],
}

#: calibration kernel samples per batch, spread evenly over its operations
KERNEL_SAMPLES = 24

#: the layer expected to take most of each workload's traced wall time
DOMINANT = {
    "holonomy-closure": "ortho.group_distance",
    "geodesic-shooting": "curvature.geodesic_ivp",
    "oneill-direct": "bundle.metric_matrix",
    "fiber-query": "ortho.group_distance",
}

CHECKS = ("oneill_worst_rel_err", "cone_max_excess", "eh_gh_upper")


def measure(ops, seconds, max_reps=None, tracer=None):
    """Run the batch until `seconds` would be exceeded (at least once, at
    most `max_reps` times).  Only `op.run` is timed; its check and a
    calibration kernel run after it.  `wall_s` is the median batch time
    rescaled to the kernel's reference speed, `raw_wall_s` the measured one."""
    import calibration
    calibration.kernel_s()      # warm-up, not a sample
    per_op = -(-KERNEL_SAMPLES // len(ops))
    kernels = []
    batches = []
    op_s = [[] for _ in ops]
    attempted = 0
    errors = []
    checks = {}
    begin = time.perf_counter()
    while True:
        total = 0.0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            error = None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as err:    # counted as a failed operation
                error = err
            op_s[i].append(time.perf_counter() - t0)
            total += op_s[i][-1]
            if tracer is not None:
                tracer.op = -1
            attempted += 1
            try:
                if error is not None:
                    raise error
                for key, value in op.check(out).items():
                    checks[key] = max(checks.get(key, value), value)
            except Exception as err:    # counted as a failed operation
                errors.append(f"op {i} ({op.kind}): {type(err).__name__}: {err}")
            kernels.extend(calibration.kernel_s() for _ in range(per_op))
        batches.append(total)
        if max_reps is not None and len(batches) >= max_reps:
            break
        if time.perf_counter() - begin + statistics.median(batches) > seconds:
            break
    raw = statistics.median(batches)
    slowdown = calibration.slowdown(kernels)
    return {"wall_s": raw / slowdown, "raw_wall_s": raw, "slowdown": slowdown,
            "batches": batches,
            "op_s": [statistics.median(t) for t in op_s],
            "attempted": attempted, "failed": len(errors), "errors": errors,
            "checks": checks}


def layer_metrics(tracer, tracing):
    """Per-layer numbers from the spans and counters of one traced batch."""
    summary = tracer.summary()
    spans = sorted({name for name, _, _ in tracing.TARGETS}
                   | {"expr.compile", "expr.eval", "metric.derivative"})
    out = {}
    for name in spans:
        row = summary.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "failures": 0})
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.incl_s"] = row["incl_s"]
    between = summary.get("curvature.geodesic_between")
    out["curvature.geodesic_between.fail_ratio"] = (
        between["failures"] / between["calls"] if between and between["calls"] else 0.0)
    out["curvature.geodesic_ivp.nfev"] = tracer.counters["curvature.geodesic_ivp.nfev"]
    out["cli.main.nonzero_exits"] = tracer.counters["cli.main.nonzero_exits"]
    for name, rows in tracer.kept.items():
        out[f"{name}.kept"] = sum(k for _, k in rows)
    kept = out["holonomy.holonomy_samples.kept"]
    compares = tracer.calls_within("holonomy.holonomy_samples", "ortho.group_distance")
    out["holonomy.holonomy_samples.compares_per_kept"] = compares / kept if kept else 0.0
    return out


def traced_failures(tracer, workload, inputs, layers, n_ops):
    """Failures only a traced batch can see."""
    errors = []
    if workload == "fiber-query":
        want = 2 * inputs["loops"] + 1
        got = {op: k for op, k in tracer.kept["holonomy.circle_power_samples"]}
        for i in range(n_ops):
            if got.get(i) != want:
                errors.append(f"op {i} (fiber): kept {got.get(i)} circle samples, want {want}")
    for name in EXPECTED_CALLS[workload]:
        if layers[f"{name}.calls"] == 0:
            errors.append(f"layer {name} recorded no calls: its wrapper is not on the "
                          f"binding the workload uses")
    return errors


def main(argv):
    mode, inputs_path = argv[1], Path(argv[2])
    spec = json.loads(inputs_path.read_text(encoding="utf-8"))
    workload, inputs = spec["workload"], spec["inputs"]

    t0 = time.perf_counter()
    import framelab.cli  # noqa: F401
    src = Path(spec["src"]).resolve()
    if src not in Path(sys.modules["framelab"].__file__).resolve().parents:
        print(f"framelab was imported from outside {src}", file=sys.stderr)
        return EXIT_WRONG_SOURCE
    import ops
    metrics = ops.setup(workload, inputs)
    setup_raw_s = time.perf_counter() - t0
    import calibration          # after the timer: it imports numpy
    calibration.kernel_s()      # warm-up, not a sample
    setup_s = setup_raw_s / calibration.slowdown([calibration.kernel_s() for _ in range(3)])
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    out_dir = inputs_path.parent / "out"
    batch = ops.operations(workload, inputs, out_dir, metrics)
    trace = bool(spec["trace"])
    untraced = measure(batch, spec["seconds"], max_reps=1 if trace else None)
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "ops": len(batch), **untraced}
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        metrics = ops.setup(workload, inputs)
        traced = measure(ops.operations(workload, inputs, out_dir, metrics), 0.0,
                         max_reps=1, tracer=tracer)
        layers = layer_metrics(tracer, tracing)
        for key in CHECKS:
            layers[f"check.{key}"] = traced["checks"].get(key, 0.0)
        layers["trace.wall_s"] = traced["raw_wall_s"]
        layers["trace.overhead_s"] = traced["raw_wall_s"] - untraced["raw_wall_s"]
        layers["trace.dominant_share"] = (
            layers[f"{DOMINANT[workload]}.incl_s"] / traced["raw_wall_s"])
        errors = traced["errors"] + traced_failures(tracer, workload, inputs, layers,
                                                    len(batch))
        result["attempted"] += traced["attempted"]
        result["failed"] += len(errors)
        result["errors"] += errors
        result["layers"] = layers
        tracer.save(Path(spec["trace_file"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
