"""Fast self-test of the benchmark: every workload at a tiny size, then
each correctness check shown to fail on a deliberately corrupted output.

    python3 perfbench/selftest.py        # from the repository root

Exits 0 when every case behaves as stated, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run as bench

import oracles
import workloads

ROOT = bench.ROOT
SCRATCH = bench.OUT / "selftest"
SEED = 424242
results = []


def case(name, ok):
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}")


def tiny_run(name):
    workdir = SCRATCH / name
    workdir.mkdir(parents=True)
    run = workloads.Run(seed=SEED, seconds=0.0, workdir=workdir, sizes=workloads.TINY)
    workloads.WORKLOADS[name](run)
    return run


def fresh(run):
    """A run context with no failures recorded, for re-checking."""
    return workloads.Run(seed=run.seed, seconds=0.0, workdir=run.workdir, sizes=run.sizes)


def entry_point():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in bench.WORKLOAD_NAMES:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            args = bench.parse_args(["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)])
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                bench.run_one(args, sizes=workloads.TINY)
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            keys_ok = set(result) == {"correct", "attempted", "failed", "metrics"}
            names_ok = set(result["metrics"]) == {m["name"] for m in wanted}
            case(f"{name} trace={trace}: result line carries every metric, correct={result['correct']}",
                 keys_ok and names_ok and result["correct"] and result["attempted"] >= 1)
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                case(f"{name}: layer self times add up to the timed wall within the tracing overhead",
                     abs(m["trace.unattributed_s"]) <= m["trace.overhead_s"])


def gen_data_checks():
    run = tiny_run("gen-data")
    case("gen-data: clean output passes, only the provenance rebuild fails",
         not run.failures and run.failed == 1 and run.attempted == run.sizes.gen_count + 1)
    out = run.workdir / "gen0"
    data_path = out / "data_00000.patb"
    clean = oracles.read_patb(data_path)

    def recheck():
        again = fresh(run)
        workloads.check_gen_data(again, out, np.random.default_rng(0))
        return again.failures

    from learnedbp.fileio import write_patb

    perturbed = clean.copy()
    middle = clean.shape[0] // 2
    perturbed[middle : middle + 5] += 0.3 * abs(clean).max()
    write_patb(data_path, perturbed)
    case("gen-data: perturbed sensor data fails the waveform check", any("waveform" in f for f in recheck()))
    early = clean.copy()
    early[0] = abs(clean).max()
    write_patb(data_path, early)
    case("gen-data: a signal before the first arrival fails the silence check",
         any("before first arrival" in f for f in recheck()))
    write_patb(data_path, clean)
    manifest = out / "manifest.txt"
    text = manifest.read_text()
    manifest.unlink()
    case("gen-data: a directory Dataset.open refuses fails the check", any("Dataset.open" in f for f in recheck()))
    manifest.write_text(text)
    case("gen-data: clean output passes again", not recheck())
    first = 1000 + 7919 * SEED
    manifest.write_text(text + f"seed={first}\n")
    case("gen-data: the rebuild passes once the manifest records the effective seed",
         workloads.rebuild_from_own_files(out))


def train_checks():
    run = tiny_run("train")
    case("train: clean output passes", not run.failures and run.failed == 0)
    s = run.sizes
    out = run.workdir / "run0"
    weights_path = out / f"weights_epoch{s.train_epochs:04d}.patb"
    clean = oracles.read_patb(weights_path)
    from learnedbp.fileio import write_patb

    def recheck(reference=None):
        again = fresh(run)
        (reference or run.reference).check_round(again, out, weights_path)
        return again.failures

    write_patb(weights_path, 1.5 * clean)
    case("train: a scaled weight tensor fails the held-out loss and report checks",
         any("held-out loss" in f for f in recheck()) and any("errors differ" in f for f in recheck()))
    write_patb(weights_path, clean)

    def evaluate():
        from learnedbp import cli

        argv = ["evaluate", "--data", str(run.workdir / "test"), "--weights", str(weights_path),
                "--out", str(out / "report.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    write_patb(weights_path, np.full_like(clean, 3.0))
    evaluate()
    case("train: weights that do not beat the unweighted method fail",
         any("do not beat" in f for f in recheck()))
    write_patb(weights_path, clean)
    evaluate()

    heldout = run.workdir / "test"
    a, b = heldout / "phantom_00000.patb", heldout / "phantom_00001.patb"
    a_bytes, b_bytes = a.read_bytes(), b.read_bytes()
    a.write_bytes(b_bytes)
    b.write_bytes(a_bytes)
    from learnedbp.geometry import make_scenario

    scenario = make_scenario("C_limited_sparse", n=s.train_n, n_s=s.train_detectors, n_t=s.train_n_t)
    swapped = workloads.TrainReference(run, run.workdir / "train", heldout, scenario)
    case("train: swapped held-out truth images fail the held-out loss check",
         any("held-out loss" in f for f in recheck(swapped)))
    a.write_bytes(a_bytes)
    b.write_bytes(b_bytes)

    run.reference.certified_min *= 1e6
    case("train: a loss below the certified minimum fails", any("certified minimum" in f for f in recheck()))
    run.reference.certified_min /= 1e6
    case("train: clean output passes again", not recheck())


def reconstruct_checks():
    from learnedbp.forward import SensorData
    from learnedbp.recon import WeightTensor

    run = tiny_run("reconstruct")
    case("reconstruct: clean output passes", not run.failures and run.failed == 0)
    ref = run.reference
    rng = np.random.default_rng(1)
    coef, other = rng.uniform(0.0, 1.0, (2, ref.basis.shape[0]))
    data = np.tensordot(coef, ref.basis, axes=1)
    sensor = SensorData(data, ref.op.time, ref.op.detectors)
    pixels = rng.integers(0, run.sizes.recon_n, (run.sizes.recon_checked_pixels, 2))

    lin, quad = ref.errors(coef, data, ref.op.apply(ref.weights, sensor).values, pixels)
    case("reconstruct: a clean image passes both checks",
         lin <= workloads.LINEARITY_TOL and quad <= workloads.QUADRATURE_TOL)
    lin, _ = ref.errors(coef, data, ref.op.apply(ref.weights, SensorData(
        np.tensordot(other, ref.basis, axes=1), ref.op.time, ref.op.detectors)).values)
    case("reconstruct: another measurement's image fails the linearity check", lin > workloads.LINEARITY_TOL)
    scaled = WeightTensor(1.5 * ref.weights.values, ref.weights.grid)
    lin, quad = ref.errors(coef, data, ref.op.apply(scaled, sensor).values, pixels)
    case("reconstruct: an image made with scaled weights fails both checks",
         lin > workloads.LINEARITY_TOL and quad > workloads.QUADRATURE_TOL)


def bare_directory():
    """In a directory holding only BENCHMARK.json and perfbench/, the
    benchmark must exit non-zero without printing a result."""
    bare = SCRATCH / "bare"
    shutil.copytree(Path(__file__).resolve().parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=170)
    case("bare directory: exits non-zero with no result line",
         proc.returncode != 0 and '"correct"' not in proc.stdout)


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        bench.import_package()
        entry_point()
        gen_data_checks()
        train_checks()
        reconstruct_checks()
        bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} self-test cases behave as stated")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
