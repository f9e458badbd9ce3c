"""framelab benchmark: time to solution on four seeded workloads.

    python3 bench/run.py                                  # all four workloads
    python3 bench/run.py --workload fiber-query --seed 3 --seconds 26 --trace 0

Run from the root of a source checkout; framelab is imported from its
`src/`.  Each workload runs serially in fresh processes with
OPENBLAS_NUM_THREADS=1, and every CLI call passes `--jobs 1`.  Set-up time
is the median over several fresh processes.  With `--trace 0` the metrics
are the end-to-end ones of BENCHMARK.json; with `--trace 1` they are the
per-layer ones, from a traced batch after an untraced one.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The line before it records
the environment.  Each result is also written to
`.bench_run/results/<workload>-seed<seed>-trace<t>.json`, and a traced
run's spans to `.bench_run/trace/<workload>-seed<seed>.npz`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs as gen

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_run"
SETUP_SAMPLES = 3           # fresh processes measuring set-up, the worker included
RUN_TIMEOUT = 170           # seconds for all processes of one workload run


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def worker_env():
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path))


def environment(seed):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": worker_env()["OPENBLAS_NUM_THREADS"],
            "seed": seed, "machine": platform.machine()}


def _worker(mode, inputs_path, env, deadline):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), mode, str(inputs_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace):
    """Generate inputs, measure set-up in fresh processes, run the worker."""
    deadline = time.monotonic() + RUN_TIMEOUT
    run_dir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        spec = {"workload": workload, "seconds": seconds, "trace": trace,
                "src": str(ROOT / "src"),
                "trace_file": str(WORK / "trace" / f"{workload}-seed{seed}.npz"),
                "inputs": gen.generate(workload, seed, run_dir)}
        inputs_path = run_dir / "inputs.json"
        inputs_path.write_text(json.dumps(spec), encoding="utf-8")
        env = worker_env()
        setups = [_worker("setup", inputs_path, env, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        result = _worker("run", inputs_path, env, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["setup_samples"] = [r["setup_s"] for r in setups] + [result["setup_s"]]
    result["setup_raw_samples"] = [r["setup_raw_s"] for r in setups] + [result["setup_raw_s"]]
    result["setup_s"] = statistics.median(result["setup_samples"])
    return result


def metrics_for(result, spec, trace):
    """The metrics BENCHMARK.json names, with their units."""
    attempted = result["attempted"]
    values = {"wall_s": result["wall_s"], "setup_s": result["setup_s"],
              "peak_rss_mb": result["peak_rss_mb"],
              "pass_ratio": (attempted - result["failed"]) / attempted}
    if trace:
        values = result["layers"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"no value for metric(s) {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def one(args, spec):
    env_info = environment(args.seed)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    metrics = metrics_for(result, spec, args.trace)
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    for err in result["errors"]:
        print(f"FAILED {args.workload}: {err}", file=sys.stderr)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": env_info, "batches": result["batches"], "ops": result["ops"],
              "op_s": result["op_s"], "raw_wall_s": result["raw_wall_s"],
              "slowdown": result["slowdown"], "setup_samples": result["setup_samples"],
              "setup_raw_samples": result["setup_raw_samples"], "errors": result["errors"],
              **line}
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("environment " + json.dumps(env_info, sort_keys=True))
    print(json.dumps(line))
    return 0


def all_workloads(args, spec):
    """Every workload in turn, as a table and one combined JSON line."""
    env_info = environment(args.seed)
    print("environment " + json.dumps(env_info, sort_keys=True))
    print(f"{'workload':<18} {'wall_s':>8} {'raw_wall_s':>10} {'setup_s':>8} "
          f"{'peak_rss_mb':>11} {'fail_ratio':>10} {'attempted':>9} {'failed':>6} {'ops':>4}")
    print(f"{'':<18} {'s':>8} {'s':>10} {'s':>8} {'MB':>11} {'ratio':>10} {'count':>9} "
          f"{'count':>6} {'count':>4}")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        r = run_workload(w["name"], args.seed, args.seconds, 0)
        fail_ratio = r["failed"] / r["attempted"]
        print(f"{w['name']:<18} {r['wall_s']:>8.3f} {r['raw_wall_s']:>10.3f} "
              f"{r['setup_s']:>8.3f} {r['peak_rss_mb']:>11.1f} {fail_ratio:>10.4f} "
              f"{r['attempted']:>9d} {r['failed']:>6d} {r['ops']:>4d}", flush=True)
        for err in r["errors"]:
            print(f"FAILED {w['name']}: {err}", file=sys.stderr)
        combined["correct"] &= r["failed"] == 0
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        for name, m in metrics_for(r, spec, 0).items():
            combined["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all"] + [w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "framelab" / "__init__.py").is_file():
        print(f"no framelab source under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return all_workloads(args, spec)
    return one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
