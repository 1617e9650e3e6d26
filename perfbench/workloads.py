"""The three benchmark workloads: gen-data, train and reconstruct.

Each workload sets up its inputs from the workload seed, then calls into
learnedbp in whole rounds until ``seconds`` have passed, timing each
call, and finally checks the outputs against the references in
``oracles``.  Checks run with tracing paused and after the peak memory
reading, so neither their time nor their memory counts.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

# gen-data: per-detector relative l2 error of the program's waveform
# against the brute-force one.  The program's default quadrature (4n
# angles) under-samples the sharp edges of a 64-pixel phantom at long
# radii: over all 300 traces of three phantoms the error measured median
# 2.1 %, p99 6.3 %, max 7.2 %.
WAVEFORM_TOL = 0.15
# gen-data: largest pre-arrival sample, as a share of the data's peak
SILENCE_TOL = 1e-6
# reconstruct: the program's table lookup of the singular integral
# differs from its own exact mode by up to 7.7e-3 of the image peak over
# whole 256-pixel images, next to sharp phantom edges; the direct
# quadrature agrees with the exact mode to 6e-6
QUADRATURE_TOL = 2e-2
# reconstruct: combination of reconstructions against reconstruction of
# the combination, as a share of the image peak (rounding only)
LINEARITY_TOL = 1e-9
# train: held-out loss recomputed from the stored float32 weights against
# the float64 value in the program's log
LOG_LOSS_TOL = 1e-4
# train: per-sample errors recomputed against the evaluate report, which
# prints ten significant digits
CSV_TOL = 1e-6


@dataclass(frozen=True)
class Sizes:
    gen_n: int = 64
    gen_detectors: int = 100
    gen_n_t: int = 400
    gen_count: int = 1
    gen_checked_detectors: int = 3
    train_n: int = 64
    train_detectors: int = 20
    train_n_t: int = 400
    train_samples: int = 20
    heldout_samples: int = 10
    train_epochs: int = 40
    train_checkpoint_every: int = 10
    recon_n: int = 256
    recon_detectors: int = 20
    recon_n_t: int = 400
    recon_basis: int = 3
    recon_checked_pixels: int = 8
    recon_quadrature_every: int = 50


FULL = Sizes()
# the self-test's size: every path runs, in seconds
TINY = Sizes(
    gen_n=24, gen_detectors=6, gen_n_t=60, gen_checked_detectors=2,
    train_n=24, train_detectors=6, train_n_t=60, train_samples=6, heldout_samples=3,
    train_epochs=6, train_checkpoint_every=3,
    recon_n=32, recon_detectors=6, recon_n_t=80, recon_basis=2, recon_quadrature_every=5,
)

# the seed= line every generated scenario file carries; gen-data passes
# the workload's own seed as --seed, which must override it
CONFIG_SEED = 5
# the scenario files leave the time window at the program's default
T_FINAL = 3.0


@dataclass
class Run:
    """Context and outcome of one workload run."""

    seed: int
    seconds: float
    workdir: Path
    sizes: Sizes = FULL
    tracer: object = None
    setup_s: float = 0.0
    call_s: list = field(default_factory=list)
    call_items: list = field(default_factory=list)
    call_spans: list = field(default_factory=list)  # (first, end) span index per timed call
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    facts: dict = field(default_factory=dict)
    reference: object = None  # what the checks compared against, for the self-test

    def paused(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def timed(self, items, fn, *args):
        """Call ``fn(*args)`` with its standard output captured, timing it
        as one call that completes ``items`` units of work."""
        if self.tracer is not None:
            self.tracer.new_call()
            first = len(self.tracer.spans)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - start
        self.call_s.append(elapsed)
        self.call_items.append(items)
        if self.tracer is not None:
            self.call_spans.append((first, len(self.tracer.spans)))
        return result

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok

    def mark_peak_memory(self):
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_config(path, label, n, n_s, n_t):
    Path(path).write_text(f"label={label}\nn_x={n}\nn_s={n_s}\nn_t={n_t}\nseed={CONFIG_SEED}\n")


# ---------------------------------------------------------------------------
# gen-data


def gen_data(run: Run):
    """The gen-data verb, one call per round; then the rebuild of each
    round's phantoms from the dataset's own files."""
    from learnedbp import cli, fileio
    from learnedbp.forward import ForwardOperator

    s = run.sizes
    cfg = run.workdir / "scenario.cfg"
    write_config(cfg, "A_limited_view", s.gen_n, s.gen_detectors, s.gen_n_t)

    # set-up: the scenario parse and operator build the verb pays before
    # its first image, repeated for a steady median
    builds = []
    for _ in range(9):
        start = time.perf_counter()
        scenario, _ = fileio.load_scenario_cfg(cfg)
        ForwardOperator(scenario)
        builds.append(time.perf_counter() - start)
    run.setup_s = statistics.median(builds)

    base = 1000 + 7919 * run.seed  # never the config's seed
    rounds = []
    loop_start = time.perf_counter()
    while not rounds or time.perf_counter() - loop_start < run.seconds:
        r = len(rounds)
        out = run.workdir / f"gen{r}"
        first = base + r * s.gen_count
        argv = ["gen-data", "--scenario", str(cfg), "--out", str(out),
                "--count", str(s.gen_count), "--seed", str(first)]
        code = run.timed(s.gen_count, cli.main, argv)
        rounds.append((out, first, code))
    run.mark_peak_memory()

    with run.paused():
        for r, (out, first, code) in enumerate(rounds):
            run.attempted += s.gen_count + 1
            if not run.check(code == 0, f"gen-data round {r} exited {code}"):
                run.failed += s.gen_count + 1
                continue
            check_gen_data(run, out, np.random.default_rng([run.seed, r]))
            if not rebuild_from_own_files(out):
                run.failed += 1


def check_gen_data(run: Run, out, rng):
    """Sampled detectors against the brute-force waveform, silence before
    the first arrival, and that Dataset.open accepts the directory."""
    from learnedbp import fileio
    from learnedbp.errors import LearnedBpError

    s = run.sizes
    try:
        dataset = fileio.Dataset.open(out)
        run.check(len(dataset) == s.gen_count, f"{out}: {len(dataset)} samples, expected {s.gen_count}")
    except (LearnedBpError, OSError) as exc:
        run.check(False, f"{out}: Dataset.open refused it: {exc!r}")
    positions, normals, _ = oracles.detector_layout("A_limited_view", s.gen_detectors)
    worst = run.facts.get("gen.worst_waveform_error", 0.0)
    for i in range(s.gen_count):
        phantom = oracles.read_patb(out / f"phantom_{i:05d}.patb")
        data = oracles.read_patb(out / f"data_{i:05d}.patb")
        worst = max(worst, waveform_errors(run, phantom, data, positions, normals, rng, f"{out} sample {i}"))
    run.facts["gen.worst_waveform_error"] = worst


def waveform_errors(run, phantom, data, positions, normals, rng, where):
    n_t = data.shape[0]
    t = np.arange(1, n_t + 1) * (T_FINAL / n_t)
    peak = np.abs(data).max()
    run.check(peak > 0.0, f"{where}: all-zero data")
    worst = 0.0
    for j in rng.choice(positions.shape[0], run.sizes.gen_checked_detectors, replace=False):
        reference = oracles.waveform(phantom, 1.0, positions[j], normals[j], n_t, T_FINAL,
                                     angle_factor=2, radial_factor=2)
        err = np.linalg.norm(data[:, j] - reference) / np.linalg.norm(reference)
        worst = max(worst, err)
        run.check(err <= WAVEFORM_TOL, f"{where} detector {j}: waveform rel error {err:.3g} > {WAVEFORM_TOL}")
        early = t < oracles.first_arrival(phantom, 1.0, positions[j]) - T_FINAL / n_t
        if early.any():
            pre = np.abs(data[early, j]).max() / peak
            run.check(pre <= SILENCE_TOL, f"{where} detector {j}: {pre:.3g} of peak before first arrival")
    return worst


def rebuild_from_own_files(out) -> bool:
    """Regenerate the phantoms from the dataset's scenario.cfg and
    manifest.txt alone: the seed comes from a seed= line of the manifest,
    else of the config.  True when every phantom matches bitwise."""
    from learnedbp.geometry import ImageGrid
    from learnedbp.phantoms import PhantomParams, generate_phantom

    def keys(path):
        pairs = (line.split("=", 1) for line in Path(path).read_text().splitlines() if "=" in line)
        return {k.strip(): v.strip() for k, v in pairs}

    manifest = keys(out / "manifest.txt")
    config = keys(out / "scenario.cfg")
    seed = int(manifest.get("seed", config.get("seed", 0)))
    grid = ImageGrid(n=int(config.get("n_x", 256)), extent=float(config.get("extent", 1.0)))
    for i in range(int(manifest["count"])):
        stored = oracles.read_patb(out / f"phantom_{i:05d}.patb")
        rebuilt = generate_phantom(PhantomParams(seed=seed + i), grid).values
        if not np.array_equal(rebuilt.astype(np.float32).astype(np.float64), stored):
            return False
    return True


# ---------------------------------------------------------------------------
# train


def train(run: Run):
    """The train verb (held-out set, pre-scanned rate, checkpoints) and
    the evaluate verb, once per round, on data written in set-up."""
    from learnedbp import cli

    s = run.sizes
    start = time.perf_counter()
    train_dir, heldout_dir, scenario = write_datasets(run)
    run.setup_s = time.perf_counter() - start

    rounds = []
    loop_start = time.perf_counter()
    while not rounds or time.perf_counter() - loop_start < run.seconds:
        out = run.workdir / f"run{len(rounds)}"
        weights = out / f"weights_epoch{s.train_epochs:04d}.patb"
        train_argv = ["train", "--data", str(train_dir), "--heldout", str(heldout_dir), "--out", str(out),
                      "--epochs", str(s.train_epochs), "--checkpoint-every", str(s.train_checkpoint_every)]
        eval_argv = ["evaluate", "--data", str(heldout_dir), "--weights", str(weights),
                     "--out", str(out / "report.csv")]

        def train_then_evaluate():
            return cli.main(train_argv), cli.main(eval_argv)

        codes = run.timed(s.train_epochs * s.train_samples, train_then_evaluate)
        rounds.append((out, weights, codes))
    run.mark_peak_memory()

    with run.paused():
        reference = run.reference = TrainReference(run, train_dir, heldout_dir, scenario)
        for r, (out, weights, codes) in enumerate(rounds):
            run.attempted += 2
            bad = sum(code != 0 for code in codes)
            run.failed += bad
            if run.check(bad == 0, f"train round {r}: exit codes {codes}"):
                reference.check_round(run, out, weights)


def write_datasets(run: Run):
    """Training and held-out sets on disk, through simulate_batch and the
    public fileio writers; phantom seeds drawn from the workload seed."""
    from learnedbp import fileio
    from learnedbp.forward import ForwardOperator
    from learnedbp.geometry import make_scenario
    from learnedbp.phantoms import PhantomParams, generate_phantom

    s = run.sizes
    scenario = make_scenario("C_limited_sparse", n=s.train_n, n_s=s.train_detectors, n_t=s.train_n_t)
    seeds = np.random.default_rng([run.seed, 1]).choice(2**31, s.train_samples + s.heldout_samples, replace=False)
    op = ForwardOperator(scenario)
    dirs = []
    for split, chunk in (("train", seeds[: s.train_samples]), ("test", seeds[s.train_samples :])):
        root = run.workdir / split
        root.mkdir()
        phantoms = [generate_phantom(PhantomParams(seed=int(x)), scenario.grid) for x in chunk]
        data = []
        for lo in range(0, len(phantoms), 25):
            data.extend(op.simulate_batch(phantoms[lo : lo + 25]))
        for i, (phantom, sensor) in enumerate(zip(phantoms, data)):
            fileio.write_sample(root, i, phantom, sensor)
        fileio.save_scenario_cfg(root / fileio.Dataset.SCENARIO, scenario, seed=CONFIG_SEED)
        fileio.Dataset(root, scenario, split, [fileio.Dataset.stem(i) for i in range(len(chunk))]).write_manifest()
        dirs.append(root)
    return dirs[0], dirs[1], scenario


class TrainReference:
    """What a correct training run must satisfy, computed from the data
    on disk: contributions b of every sample, and the certified minimum
    of the training loss over all weights."""

    def __init__(self, run, train_dir, heldout_dir, scenario):
        from learnedbp.forward import SensorData
        from learnedbp.recon import BackprojectionOperator

        op = BackprojectionOperator.from_scenario(scenario)

        def load(root, count):
            contribs, truths = [], []
            for i in range(count):
                data = oracles.read_patb(root / f"data_{i:05d}.patb")
                contribs.append(op.contrib(SensorData(data, scenario.time, scenario.detectors)).values)
                truths.append(oracles.read_patb(root / f"phantom_{i:05d}.patb"))
            return np.stack(contribs), np.stack(truths)

        s = run.sizes
        self.train_b, self.train_f = load(train_dir, s.train_samples)
        self.heldout_b, self.heldout_f = load(heldout_dir, s.heldout_samples)
        self.certified_min = oracles.certified_min_loss(self.train_b, self.train_f)

    def check_round(self, run, out, weights_path):
        s = run.sizes
        weights = oracles.read_patb(weights_path)
        final = oracles.weighted_loss(weights, self.train_b, self.train_f)
        gap = final / self.certified_min
        run.facts["train.loss_gap"] = gap
        run.check(gap >= 1.0 - 1e-9, f"{out}: training loss {final:.6g} below the certified minimum {self.certified_min:.6g}")

        last = (out / "train.log").read_text().strip().splitlines()[-1].split(",")
        logged = float(last[2])
        recomputed = oracles.weighted_loss(weights, self.heldout_b, self.heldout_f)
        run.check(abs(recomputed - logged) <= LOG_LOSS_TOL * logged,
                  f"{out}: held-out loss {recomputed:.8g} at the final weights, log says {logged:.8g}")

        errors = {}
        for line in (out / "report.csv").read_text().splitlines()[1:]:
            _, method, sample, value = line.split(",")
            errors.setdefault(method, {})[int(sample)] = float(value)
        plain = errors.get("UBP", {})
        learned = errors.get("weighted-UBP", {})
        full = set(range(s.heldout_samples))
        if not run.check(set(plain) == full and set(learned) == full, f"{out}: report rows do not cover the held-out set"):
            return
        for method, w in (("UBP", np.ones_like(weights)), ("weighted-UBP", weights)):
            recon = np.einsum("ijs,nijs->nij", w**2, self.heldout_b)
            ours = np.linalg.norm(recon - self.heldout_f, axis=(1, 2)) / np.linalg.norm(self.heldout_f, axis=(1, 2))
            theirs = np.array([errors[method][k] for k in range(s.heldout_samples)])
            run.check(np.allclose(ours, theirs, rtol=CSV_TOL, atol=0.0), f"{out}: {method} errors differ from the recomputed ones")
        mean_plain = float(np.mean(list(plain.values())))
        mean_learned = float(np.mean(list(learned.values())))
        run.facts["train.heldout_rel_error"] = mean_learned
        run.facts["train.heldout_rel_error_unweighted"] = mean_plain
        run.check(mean_learned < mean_plain, f"{out}: learned weights {mean_learned:.4f} do not beat unweighted {mean_plain:.4f}")


# ---------------------------------------------------------------------------
# reconstruct


def reconstruct(run: Run):
    """BackprojectionOperator.apply on a stream of distinct measurements,
    each a random nonnegative combination of simulated basis phantoms."""
    from learnedbp import fileio
    from learnedbp.forward import ForwardOperator, SensorData
    from learnedbp.geometry import make_scenario
    from learnedbp.phantoms import PhantomParams, generate_phantom
    from learnedbp.recon import BackprojectionOperator, WeightTensor

    s = run.sizes
    rng = np.random.default_rng([run.seed, 2])
    start = time.perf_counter()
    scenario = make_scenario("B_sparse", n=s.recon_n, n_s=s.recon_detectors, n_t=s.recon_n_t)
    seeds = rng.choice(2**31, s.recon_basis, replace=False)
    phantoms = [generate_phantom(PhantomParams(seed=int(x)), scenario.grid) for x in seeds]
    basis = np.stack([d.values for d in ForwardOperator(scenario).simulate_batch(phantoms)])
    op = BackprojectionOperator.from_scenario(scenario)
    weights_path = run.workdir / "weights.patb"
    fileio.write_patb(weights_path, rng.uniform(0.5, 1.5, (s.recon_n, s.recon_n, s.recon_detectors)))
    weights = WeightTensor(fileio.read_patb(weights_path), scenario.grid)
    run.setup_s = time.perf_counter() - start

    with run.paused():
        reference = ReconReference(op, weights, basis, weights_path, s)
    run.reference = reference
    linearity = quadrature = 0.0

    loop_start = time.perf_counter()
    while not run.call_s or time.perf_counter() - loop_start < run.seconds:
        coef = rng.uniform(0.0, 1.0, s.recon_basis)
        data = SensorData(np.tensordot(coef, basis, axes=1), scenario.time, scenario.detectors)
        image = run.timed(1, op.apply, weights, data).values
        run.attempted += 1
        pixels = None
        if (len(run.call_s) - 1) % s.recon_quadrature_every == 0:
            pixels = rng.integers(0, s.recon_n, (s.recon_checked_pixels, 2))
        lin, quad = reference.errors(coef, data.values, image, pixels)
        linearity, quadrature = max(linearity, lin), max(quadrature, quad)
    run.mark_peak_memory()

    run.facts["reconstruct.linearity_error"] = linearity
    run.facts["reconstruct.quadrature_error"] = quadrature
    run.check(linearity <= LINEARITY_TOL, f"reconstruction is not linear in the data: {linearity:.3g} of peak")
    run.check(quadrature <= QUADRATURE_TOL, f"pixels differ from the direct quadrature by {quadrature:.3g} of peak")


class ReconReference:
    """Reconstructions of the basis measurements, which every combined
    measurement's reconstruction must combine like its data, and the
    direct quadrature of sum_j W^2 b at chosen pixels."""

    def __init__(self, op, weights, basis, weights_path, sizes):
        from learnedbp.forward import SensorData

        time_grid, detectors = op.time, op.detectors
        self.op, self.weights, self.basis = op, weights, basis
        self.basis_recon = np.stack([op.apply(weights, SensorData(g, time_grid, detectors)).values for g in basis])
        self.layout = oracles.detector_layout("B_sparse", sizes.recon_detectors)
        self.x, self.y = oracles.pixel_centers(sizes.recon_n, 1.0)
        self.weights_sq = oracles.read_patb(weights_path) ** 2
        self.t_final = time_grid.t_final

    def errors(self, coef, data, image, pixels=None):
        """(linearity error, quadrature error at ``pixels``), each as a
        share of the expected image's peak."""
        expected = np.tensordot(coef, self.basis_recon, axes=1)
        peak = np.abs(expected).max()
        linearity = np.abs(image - expected).max() / peak
        quadrature = 0.0
        for i, j in pixels if pixels is not None else ():
            ref = oracles.backprojection_pixel(data, self.weights_sq[i, j], self.x[i, j], self.y[i, j],
                                               *self.layout, self.t_final)
            quadrature = max(quadrature, abs(image[i, j] - ref) / peak)
        return linearity, quadrature


WORKLOADS = {"gen-data": gen_data, "train": train, "reconstruct": reconstruct}
