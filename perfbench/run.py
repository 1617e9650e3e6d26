"""Benchmark of the learnedbp pipeline: one workload per process.

    python3 perfbench/run.py --workload gen-data|train|reconstruct|all \
        --seed N --seconds S --trace 0|1

Run from the repository root: the package is imported from ./src, and
metric names and units come from ./BENCHMARK.json.  With --trace 0 the
last line of standard output is a JSON object with the end-to-end
metrics; with --trace 1 the public functions of every learnedbp module
are wrapped with timing spans and it carries the per-layer metrics
instead.  Each run also writes a result file with a machine block, and
for traced runs the spans, under ./.perfbench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("gen-data", "train", "reconstruct")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Put ./src first on the path and import learnedbp from it; exit
    without a result when the checkout does not hold the package."""
    src = ROOT / "src"
    if not (src / "learnedbp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no learnedbp package under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import learnedbp

    return learnedbp


def metric_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def machine_block(args):
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line and line.endswith(".so")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def end_to_end_values(run):
    return {
        "setup_s": run.setup_s,
        "items_per_s": sum(run.call_items) / sum(run.call_s),
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer_values(workload, run, tracer, span_cost_s):
    from tracing import LAYER_OF_SPAN, TRACE

    own = tracer.self_times()

    values = {metric: 0.0 for metric in LAYER_OF_SPAN.values()}
    for index, span in enumerate(tracer.spans):
        values[LAYER_OF_SPAN[span[0]]] += own[index]
    attributed = sum(own[i] for first, end in run.call_spans for i in range(first, end) if tracer.spans[i][0] != TRACE)

    counts = tracer.counts
    values["forward.images"] = counts.get("forward.images", 0)
    values["forward.interp_samples"] = counts.get("forward.interp_samples", 0)
    values["forward.ns_per_interp_sample"] = (
        1e9 * values["forward.simulate_s"] / values["forward.interp_samples"] if values["forward.interp_samples"] else 0.0
    )
    calls = counts.get("recon.contrib_calls", 0)
    distinct = counts.get("recon.contrib_distinct_inputs", 0)
    values["recon.contrib_calls"] = calls
    values["recon.contrib_distinct_inputs"] = distinct
    values["recon.contrib_per_input"] = calls / distinct if distinct else 0.0
    values["recon.apply_calls"] = counts.get("recon.apply_calls", 0)
    # on reconstruct every timed call is one apply; a tail needs ten samples beyond it
    latencies = run.call_s if workload == "reconstruct" else []
    values["recon.apply_ms_p50"] = 1000.0 * float(np.percentile(latencies, 50)) if latencies else 0.0
    values["recon.apply_ms_p95"] = 1000.0 * float(np.percentile(latencies, 95)) if len(latencies) >= 200 else 0.0
    values["training.steps"] = counts.get("training.steps", 0)
    values["training.loss_gap"] = run.facts.get("train.loss_gap", 0.0)
    values["metrics.heldout_rel_error"] = run.facts.get("train.heldout_rel_error", 0.0)
    values["fileio.bytes_written"] = counts.get("fileio.bytes_written", 0)
    values["fileio.bytes_read"] = counts.get("fileio.bytes_read", 0)
    values["trace.spans"] = len(tracer.spans)
    values["trace.overhead_s"] = len(tracer.spans) * span_cost_s + values.pop("trace.hook_s")
    values["trace.unattributed_s"] = sum(run.call_s) - attributed
    return values


def run_one(args, sizes=None):
    import tracing
    import workloads

    learnedbp = import_package()
    end_to_end, per_layer = metric_spec()
    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = None
    span_cost_s = 0.0
    if args.trace:
        span_cost_s = tracing.span_cost()
        tracer = tracing.Tracer()
        tracer.install()
    run = workloads.Run(seed=args.seed % 2**31, seconds=args.seconds, workdir=workdir, tracer=tracer,
                        sizes=sizes or workloads.FULL)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        computed, wanted = end_to_end_values(run), end_to_end
    else:
        computed, wanted = per_layer_values(args.workload, run, tracer, span_cost_s), per_layer
    metrics = {m["name"]: {"value": float(computed[m["name"]]), "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, machine=machine_block(args), package=learnedbp.__version__,
                  calls=len(run.call_s), call_s=run.call_s, call_items=run.call_items,
                  checks=run.facts, failures=run.failures, all_values=computed)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    if tracer is not None:
        tracer.write(results / f"{stem}-spans.jsonl")
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))


def run_all(args):
    """Every workload, each in a process of its own, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, entry in results[name]["metrics"].items():
            print(f"{name:12s} {metric:32s} {entry['value']:14.6g} {entry['unit']}")
        print(f"{name:12s} attempted {results[name]['attempted']}, failed {results[name]['failed']}, "
              f"correct {results[name]['correct']}")
    print(json.dumps(results))


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"perfbench: no BENCHMARK.json in {ROOT}; run from the repository root")
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
