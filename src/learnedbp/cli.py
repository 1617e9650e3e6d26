"""Command-line front end.

Verbs: gen-data, train, reconstruct, evaluate, export-weights, phantom.
Exit codes: 0 success, 1 usage error, 2 data or shape error, 3 I/O
error, 4 training divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__, fileio, metrics, training
from .errors import ConfigError, DivergenceError, FormatError, ShapeMismatchError
from .forward import DEFAULT_N_R_PER_DT, GEN_CHUNK, ForwardOperator, SensorData
from .phantoms import PhantomParams, generate_phantom
from .recon import BackprojectionOperator, WeightTensor

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3
EXIT_DIVERGENCE = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the interface here
    reserves 2 for data errors, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _nonnegative(kind):
    """argparse type: ``kind``, rejecting values below 0 (and NaN and inf)."""

    def parse(text):
        value = kind(text)
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be nonnegative and finite, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _resolve_scenario(args, *datasets):
    """Scenario from --scenario, falling back to the first dataset's own
    config, cross-checked against every dataset's, and the base seed:
    --seed (on the verbs that take it), else the config's seed, else 0."""
    scenario = cfg_seed = None
    if args.scenario is not None:
        scenario, cfg_seed = fileio.load_scenario_cfg(args.scenario)
    for dataset in datasets:
        scenario = scenario or dataset.scenario
        if scenario != dataset.scenario:
            differ = [f.name for f in dataclasses.fields(scenario)
                      if getattr(scenario, f.name) != getattr(dataset.scenario, f.name)]
            raise ShapeMismatchError(f"scenario of {args.scenario or datasets[0].root} does not match "
                                     f"dataset {dataset.root} in {', '.join(differ)}")
    if scenario is None:
        raise ConfigError("--scenario is required for this command")
    seed = getattr(args, "seed", None)
    seed = seed if seed is not None else (cfg_seed if cfg_seed is not None else 0)
    return scenario, seed


def _load_weights(path, scenario) -> WeightTensor:
    values = fileio.read_patb(path)
    expected = (scenario.grid.n, scenario.grid.n, scenario.detectors.n_s)
    if values.shape != expected:
        raise ShapeMismatchError(f"weights shape {values.shape} does not match scenario {expected}")
    return WeightTensor(values, scenario.grid)


def _file_hashes(root: Path, names) -> dict:
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


def cmd_gen_data(args) -> int:
    scenario, base_seed = _resolve_scenario(args)
    # the operator's arguments and the base seed are validated before --out is created
    op = ForwardOperator(scenario, n_angles=args.n_angles, n_r_per_dt=args.n_r_per_dt)
    PhantomParams(seed=base_seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stems = [fileio.Dataset.stem(i) for i in range(args.count)]
    written = []
    try:
        for lo in range(0, args.count, GEN_CHUNK):
            chunk = range(lo, min(lo + GEN_CHUNK, args.count))
            phantoms = [generate_phantom(PhantomParams(seed=base_seed + i), scenario.grid) for i in chunk]
            for i, phantom, data in zip(chunk, phantoms, op.simulate_batch(phantoms)):
                if args.noise > 0:
                    rng = np.random.default_rng([base_seed + i, 0x6E])
                    scale = args.noise * np.abs(data.values).max()
                    noisy = data.values + rng.normal(0.0, scale, data.values.shape)
                    data = SensorData(noisy, scenario.time, scenario.detectors)
                written.extend(fileio.Dataset.sample_paths(out, stems[i]))
                fileio.write_sample(out, i, phantom, data)
        written.append(out / fileio.Dataset.SCENARIO)
        fileio.atomic_write_bytes(out / fileio.Dataset.SCENARIO, Path(args.scenario).read_bytes())
        written.append(out / fileio.Dataset.MANIFEST)
        provenance = {
            "seed": base_seed,
            "noise": args.noise,
            "n_angles": op.n_angles,
            "n_r_per_dt": op.n_r_per_dt,
            "version": __version__,
            "numpy": np.__version__,
        }
        dataset = fileio.Dataset(out, scenario, args.split, stems, provenance)
        dataset.write_manifest()
        dataset.validate()
    except BaseException:
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise
    # a re-run with a smaller --count leaves no sample the manifest does not list
    fileio.Dataset.remove_samples_from(out, args.count)
    print(f"wrote {args.count} sample pairs to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    datasets = {"train": fileio.Dataset.open(args.data)}
    if args.heldout:
        datasets["heldout"] = fileio.Dataset.open(args.heldout)
    # both sets are checked against one scenario before --out is touched
    scenario, _ = _resolve_scenario(args, *datasets.values())
    heldout_pairs = datasets["heldout"].pairs() if args.heldout else []

    op = BackprojectionOperator.from_scenario(scenario)
    cfg = training.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        init=args.init,
        shuffle_seed=args.seed if args.seed is not None else training.TrainConfig.shuffle_seed,
        checkpoint_every=args.checkpoint_every,
        weight_grid=args.weight_grid,
    )
    out = Path(args.out)
    log_path = out / "train.log"
    run_path = out / "run.json"

    def checkpoint(epoch, weights):
        if epoch == 0:
            # fired once the initial weights and the learning rate are known;
            # a re-run into the same directory starts a fresh log, record and
            # set of checkpoints
            out.mkdir(parents=True, exist_ok=True)
            log_path.unlink(missing_ok=True)
            run_path.unlink(missing_ok=True)
            for path in out.glob("weights_epoch*.patb"):
                path.unlink()
        fileio.write_patb(out / f"weights_epoch{epoch:04d}.patb", weights.values)

    def log(epoch, train_loss, heldout_loss, lr, wall):
        with open(log_path, "a") as fh:
            fh.write(f"{epoch}, {train_loss!r}, {heldout_loss!r}, {lr!r}, {wall:.3f}\n")

    state = training.sgd_train(
        datasets["train"].pairs(),
        heldout_pairs,
        cfg,
        op,
        checkpoint=checkpoint,
        log=log,
        weight_reader=fileio.read_patb,
    )
    if state.epoch:  # like train.log, the record describes epochs that ran
        run = {
            "config": dataclasses.asdict(cfg),
            "learning_rate": state.learning_rate,
            # JSON has no inf or nan: a non-finite probe loss is written null
            "prescan": [{"learning_rate": rate, "losses": [loss if np.isfinite(loss) else None for loss in losses]}
                        for rate, losses in state.prescan],
            "epochs": state.epoch,
            "train_loss": state.train_losses[-1],
            "heldout_loss": state.heldout_losses[-1] if heldout_pairs else None,
            "datasets": {role: _file_hashes(ds.root, (ds.MANIFEST, ds.SCENARIO)) for role, ds in datasets.items()},
            "training_dtype": np.dtype(training.DTYPE).name,
            "version": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
        fileio.atomic_write_bytes(run_path, (json.dumps(run, indent=2) + "\n").encode("ascii"))
    print(f"trained {state.epoch} epochs, lr={state.learning_rate!r}, checkpoints in {out}")
    if heldout_pairs and state.heldout_losses:
        print(f"final held-out loss {state.heldout_losses[-1]!r}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    scenario, _ = _resolve_scenario(args)
    values = fileio.read_patb(args.data)
    data = SensorData(values, scenario.time, scenario.detectors)
    weights = None if args.ones else _load_weights(args.weights, scenario)
    op = BackprojectionOperator.from_scenario(scenario, exact=args.exact)
    image = op.standard(data) if args.ones else op.apply(weights, data)
    base = Path(args.out)
    fileio.write_patb(base.with_suffix(".patb"), image.values)
    fileio.write_pgm(base.with_suffix(".pgm"), image.values)
    print(f"wrote {base.with_suffix('.patb')} and {base.with_suffix('.pgm')}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    dataset = fileio.Dataset.open(args.data)
    scenario, _ = _resolve_scenario(args, dataset)
    weights = _load_weights(args.weights, scenario) if args.weights else None
    op = BackprojectionOperator.from_scenario(scenario, exact=args.exact)
    report = metrics.evaluate(weights, dataset.pairs(), op, scenario.label, squared=args.squared)
    fileio.atomic_write_bytes(args.out, metrics.report_csv(report).encode("ascii"))
    print(metrics.format_report(report))
    return EXIT_OK


def cmd_export_weights(args) -> int:
    values = fileio.read_patb(args.weights)
    if values.ndim != 3:
        raise ShapeMismatchError(f"weight files hold 3-d tensors, got ndim={values.ndim}")
    if not 0 <= args.detector < values.shape[2]:
        raise ConfigError(f"detector index {args.detector} out of range [0, {values.shape[2]})")
    fileio.write_pgm(args.out, values[:, :, args.detector])
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_phantom(args) -> int:
    scenario, seed = _resolve_scenario(args)
    phantom = generate_phantom(PhantomParams(seed=seed), scenario.grid)
    base = Path(args.out)
    fileio.write_patb(base.with_suffix(".patb"), phantom.values)
    fileio.write_pgm(base.with_suffix(".pgm"), phantom.values)
    print(f"wrote {base.with_suffix('.patb')} and {base.with_suffix('.pgm')}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="learnedbp", description="backprojection toolkit with trainable weights")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, scenario_required=True, seed_help=None):
        p.add_argument("--scenario", required=scenario_required, help="scenario config file")
        if seed_help is not None:  # only the verbs that draw random numbers
            p.add_argument("--seed", type=int, default=None, help=seed_help)
        p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("gen-data", help="generate a paired phantom/sensor-data set")
    common(p, seed_help="base random seed (overrides config)")
    p.add_argument("--count", type=_nonnegative(int), required=True, help="number of sample pairs")
    p.add_argument("--split", choices=("train", "test"), default="train")
    p.add_argument("--noise", type=_nonnegative(float), default=0.0, help="relative Gaussian noise level")
    p.add_argument("--n-angles", type=int, default=None, help="angular quadrature nodes")
    p.add_argument("--n-r-per-dt", type=int, default=DEFAULT_N_R_PER_DT, help="radial nodes per time step")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="learn backprojection weights by SGD")
    defaults = training.TrainConfig
    common(p, scenario_required=False,
           seed_help=f"shuffle seed (default {defaults.shuffle_seed}; a config's seed sets phantom seeds only)")
    p.add_argument("--data", required=True, help="training dataset directory")
    p.add_argument("--heldout", default=None, help="held-out dataset directory")
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--lr", type=float, default=defaults.learning_rate, help="learning rate (default: pre-scan)")
    p.add_argument("--init", default=defaults.init, help="ones | constant:<v> | <weights.patb>")
    p.add_argument("--checkpoint-every", type=int, default=defaults.checkpoint_every, help="checkpoint cadence in epochs")
    p.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--weight-grid", type=int, default=defaults.weight_grid, help="train weights on a coarser m x m grid")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reconstruct", help="backproject one sensor-data file")
    common(p)
    p.add_argument("--data", required=True, help="sensor data (.patb)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--weights", help="weight tensor (.patb)")
    group.add_argument("--ones", action="store_true", help="use the unweighted backprojection")
    p.add_argument("--exact", action="store_true", help="per-pixel quadrature instead of table lookup")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("evaluate", help="relative errors over a test set")
    common(p, scenario_required=False)
    p.add_argument("--data", required=True, help="test dataset directory")
    p.add_argument("--weights", default=None, help="weight tensor (.patb)")
    p.add_argument("--squared", action="store_true", help="report squared relative errors")
    p.add_argument("--exact", action="store_true", help="per-pixel quadrature instead of table lookup")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-weights", help="export one detector's weight slice as PGM")
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--weights", required=True, help="weight tensor (.patb)")
    p.add_argument("--detector", type=int, required=True, help="detector index")
    p.set_defaults(func=cmd_export_weights)

    p = sub.add_parser("phantom", help="emit one random phantom")
    common(p, seed_help="base random seed (overrides config)")
    p.set_defaults(func=cmd_phantom)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ShapeMismatchError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
