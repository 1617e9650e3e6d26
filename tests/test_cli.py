"""End-to-end tests for the command-line front end.

Every command is driven through main(argv) in-process so exit codes and
stdout/stderr can be asserted directly.  Exit code contract: 0 success,
1 usage error, 2 data/shape/format error, 3 I/O error, 4 divergence.
"""

import dataclasses
import hashlib
import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import learnedbp
from learnedbp import cli, fileio, forward, recon, training
from learnedbp.cli import main
from learnedbp.forward import ForwardOperator, SensorData
from learnedbp.geometry import make_scenario
from learnedbp.phantoms import PhantomParams, generate_phantom
from learnedbp.recon import BackprojectionOperator, WeightTensor
from learnedbp.training import TrainConfig

# Small enough to run every command in well under a second, large enough
# to clear the phantom generator's minimum grid size.
N = 16
N_S = 4
N_T = 30
CFG_SEED = 7
# two custom detector arcs of N_S detectors each, of one span
ARC = (0.5, 2.5)
OTHER_ARC = (1.0, 3.0)


def f32(values):
    """Round-trip through the on-disk float32 representation."""
    return np.asarray(values).astype(np.float32).astype(np.float64)


@pytest.fixture(scope="module")
def scenario():
    return make_scenario("B_sparse", n=N, n_s=N_S, n_t=N_T)


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory, scenario):
    path = tmp_path_factory.mktemp("cfg") / "scenario.cfg"
    fileio.save_scenario_cfg(path, scenario, seed=CFG_SEED)
    return path


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, cfg_path):
    out = tmp_path_factory.mktemp("data") / "train"
    rc = main(["gen-data", "--scenario", str(cfg_path), "--out", str(out), "--count", "3"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def test_dir(tmp_path_factory, cfg_path):
    out = tmp_path_factory.mktemp("data") / "test"
    rc = main(
        ["gen-data", "--scenario", str(cfg_path), "--out", str(out), "--count", "1",
         "--split", "test", "--seed", "100"]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def arc_dir(tmp_path_factory):
    """A training set on the custom detector arc ARC."""
    root = tmp_path_factory.mktemp("arc")
    cfg = root / "scenario.cfg"
    fileio.save_scenario_cfg(cfg, make_scenario("custom", n=N, n_s=N_S, n_t=N_T, arc=ARC), arc=ARC)
    rc = main(["gen-data", "--scenario", str(cfg), "--out", str(root / "train"), "--count", "2"])
    assert rc == 0
    return root / "train"


@pytest.fixture(scope="module")
def ones_weights(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "ones.patb"
    fileio.write_patb(path, np.ones((N, N, N_S)))
    return path


def read_lines(path):
    return path.read_text().splitlines()


# ---------------------------------------------------------------------------
# usage errors (exit 1)


def test_no_command_is_usage_error():
    assert main([]) == 1


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "gen-data" in capsys.readouterr().out


def test_bad_flag_value_writes_nothing(tmp_path, cfg_path):
    out = tmp_path / "set"
    rc = main(["gen-data", "--scenario", str(cfg_path), "--out", str(out), "--count", "three"])
    assert rc == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value", [("--count", "-1"), ("--noise", "-0.5"), ("--noise", "nan"), ("--noise", "inf")]
)
def test_negative_count_or_noise_leaves_a_dataset_untouched(tmp_path, cfg_path, flag, value):
    out = tmp_path / "set"
    argv = ["gen-data", "--scenario", str(cfg_path), "--out", str(out), "--count", "2"]
    assert main(argv) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert main(argv + [flag, value]) == 1
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_missing_required_flag_is_usage_error(tmp_path, cfg_path):
    rc = main(["reconstruct", "--scenario", str(cfg_path), "--data", "x.patb"])
    assert rc == 1


def test_reconstruct_weight_sources_are_exclusive(tmp_path, cfg_path):
    data = tmp_path / "d.patb"
    fileio.write_patb(data, np.zeros((N_T, N_S)))
    base = ["reconstruct", "--scenario", str(cfg_path), "--data", str(data),
            "--out", str(tmp_path / "r")]
    assert main(base + ["--ones", "--weights", "w.patb"]) == 1
    assert main(base) == 1


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "learnedbp.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "reconstruct" in proc.stdout


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # the traced benchmark run wraps package functions by name, so deleting
    # one of them breaks every traced run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
        sys.modules.pop("tracing", None)
    assert [name for name in learnedbp.__all__ if not hasattr(learnedbp, name)] == []


# ---------------------------------------------------------------------------
# re-running a verb into the same --out


@pytest.mark.parametrize("verb", ["reconstruct", "evaluate", "export-weights"])
def test_verbs_without_randomness_reject_seed(tmp_path, cfg_path, train_dir, ones_weights, verb, capsys):
    argv = {
        "reconstruct": ["reconstruct", "--scenario", str(cfg_path), "--ones",
                        "--data", str(train_dir / "data_00000.patb"), "--out", str(tmp_path / "r")],
        "evaluate": ["evaluate", "--data", str(train_dir), "--weights", str(ones_weights),
                     "--out", str(tmp_path / "report.csv")],
        "export-weights": ["export-weights", "--weights", str(ones_weights), "--detector", "1",
                           "--out", str(tmp_path / "slice.pgm")],
    }[verb]
    assert main(argv + ["--seed", "5"]) == 1
    assert "--seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(argv) == 0


def _same_bytes_as_fresh(rerun_dir, fresh_dir):
    fresh = sorted(p.relative_to(fresh_dir) for p in fresh_dir.rglob("*") if p.is_file())
    assert fresh
    for name in fresh:
        assert (rerun_dir / name).read_bytes() == (fresh_dir / name).read_bytes(), name


@pytest.mark.parametrize("verb", ["gen-data", "reconstruct", "evaluate", "export-weights", "phantom"])
def test_rerun_into_same_out_matches_a_fresh_run(tmp_path, cfg_path, train_dir, ones_weights, verb):
    argv = {
        "gen-data": lambda d: ["gen-data", "--scenario", str(cfg_path), "--count", "2", "--out", str(d / "set")],
        "reconstruct": lambda d: ["reconstruct", "--scenario", str(cfg_path), "--ones",
                                  "--data", str(train_dir / "data_00000.patb"), "--out", str(d / "r")],
        "evaluate": lambda d: ["evaluate", "--data", str(train_dir), "--weights", str(ones_weights),
                               "--out", str(d / "report.csv")],
        "export-weights": lambda d: ["export-weights", "--weights", str(ones_weights), "--detector", "1",
                                     "--out", str(d / "slice.pgm")],
        "phantom": lambda d: ["phantom", "--scenario", str(cfg_path), "--out", str(d / "ph")],
    }[verb]
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    rerun.mkdir()
    fresh.mkdir()
    assert main(argv(rerun)) == 0
    assert main(argv(rerun)) == 0
    assert main(argv(fresh)) == 0
    _same_bytes_as_fresh(rerun, fresh)


def test_gen_data_rerun_with_smaller_count(tmp_path, cfg_path):
    args = ["gen-data", "--scenario", str(cfg_path)]
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    assert main(args + ["--count", "3", "--out", str(rerun)]) == 0
    assert main(args + ["--count", "2", "--out", str(rerun)]) == 0
    assert main(args + ["--count", "2", "--out", str(fresh)]) == 0
    _same_bytes_as_fresh(rerun, fresh)
    # the third sample's files of the first run are gone too
    assert sorted(p.name for p in rerun.iterdir()) == sorted(p.name for p in fresh.iterdir())
    assert len(fileio.Dataset.open(rerun)) == 2


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_writes_expected_tree(train_dir, scenario, capsys):
    names = sorted(p.name for p in train_dir.iterdir())
    expected = sorted(
        [f"phantom_{i:05d}.patb" for i in range(3)]
        + [f"data_{i:05d}.patb" for i in range(3)]
        + ["manifest.txt", "scenario.cfg"]
    )
    assert names == expected

    dataset = fileio.Dataset.open(train_dir)
    assert dataset.split == "train"
    assert len(dataset.stems) == 3
    for data, phantom in dataset.pairs():
        assert phantom.values.shape == (N, N)
        assert data.values.shape == (N_T, N_S)


def test_gen_data_phantoms_use_sequential_seeds(train_dir, scenario):
    # The config seed is 7, so sample i holds the seed 7+i phantom.
    for i in range(3):
        expected = generate_phantom(PhantomParams(seed=CFG_SEED + i), scenario.grid)
        got = fileio.read_patb(train_dir / f"phantom_{i:05d}.patb")
        np.testing.assert_array_equal(got, f32(expected.values))


def test_gen_data_copies_config_verbatim(train_dir, cfg_path):
    assert (train_dir / "scenario.cfg").read_bytes() == cfg_path.read_bytes()


def test_gen_data_count_zero(tmp_path, cfg_path):
    out = tmp_path / "empty"
    rc = main(["gen-data", "--scenario", str(cfg_path), "--out", str(out), "--count", "0"])
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.txt", "scenario.cfg"]
    dataset = fileio.Dataset.open(out)
    assert dataset.stems == []
    assert dataset.pairs() == []


def test_gen_data_is_deterministic(tmp_path, cfg_path, train_dir):
    out = tmp_path / "again"
    rc = main(["gen-data", "--scenario", str(cfg_path), "--out", str(out), "--count", "3"])
    assert rc == 0
    for path in sorted(train_dir.iterdir()):
        assert (out / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("noise", ["0", "0.1"])
def test_gen_data_files_do_not_depend_on_the_chunk(tmp_path, cfg_path, monkeypatch, noise):
    args = ["gen-data", "--scenario", str(cfg_path), "--count", "5", "--noise", noise]
    simulate_batch = ForwardOperator.simulate_batch
    sizes, trees = [], []

    def counting(op, images):
        sizes.append(len(images))
        return simulate_batch(op, images)

    monkeypatch.setattr(ForwardOperator, "simulate_batch", counting)
    for chunk in (1, 2, 5):
        monkeypatch.setattr(cli, "GEN_CHUNK", chunk)
        out = tmp_path / f"chunk{chunk}"
        assert main(args + ["--out", str(out)]) == 0
        trees.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert sizes == [1] * 5 + [2, 2, 1] + [5]
    assert len(trees[0]) == 12
    assert trees[1] == trees[0] and trees[2] == trees[0]


def test_gen_data_noise_is_seeded_and_nonzero(tmp_path, cfg_path):
    args = ["gen-data", "--scenario", str(cfg_path), "--count", "1", "--noise", "0.1"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    noisy = fileio.read_patb(out_a / "data_00000.patb")
    np.testing.assert_array_equal(noisy, fileio.read_patb(out_b / "data_00000.patb"))
    assert fileio.Dataset.open(out_a).provenance["noise"] == 0.1

    out_c = tmp_path / "clean"
    rc = main(["gen-data", "--scenario", str(cfg_path), "--count", "1", "--out", str(out_c)])
    assert rc == 0
    clean = fileio.read_patb(out_c / "data_00000.patb")
    assert not np.array_equal(noisy, clean)


def test_gen_data_manifest_rebuilds_the_dataset(tmp_path, cfg_path):
    # --seed overrides the config's seed=7; the manifest alone must say so
    out = tmp_path / "seeded"
    rc = main(["gen-data", "--scenario", str(cfg_path), "--out", str(out), "--count", "2", "--seed", "900"])
    assert rc == 0
    dataset = fileio.Dataset.open(out)
    assert dataset.provenance == {
        "seed": 900,
        "noise": 0.0,
        "n_angles": 4 * N,
        "n_r_per_dt": 4,
        "version": learnedbp.__version__,
        "numpy": np.__version__,
    }
    op = ForwardOperator(
        dataset.scenario,
        n_angles=dataset.provenance["n_angles"],
        n_r_per_dt=dataset.provenance["n_r_per_dt"],
    )
    for i, (data, phantom) in enumerate(dataset.pairs()):
        rebuilt = generate_phantom(PhantomParams(seed=dataset.provenance["seed"] + i), dataset.scenario.grid)
        np.testing.assert_array_equal(phantom.values, f32(rebuilt.values))
        np.testing.assert_array_equal(data.values, f32(op.simulate(rebuilt).values))


def test_gen_data_removes_partial_output_on_failure(tmp_path, cfg_path, monkeypatch):
    real_write = fileio.write_sample
    calls = []

    def failing_write(root, index, phantom, data):
        calls.append(index)
        if index == 1:
            raise OSError("disk full")
        real_write(root, index, phantom, data)

    monkeypatch.setattr(fileio, "write_sample", failing_write)
    out = tmp_path / "partial"
    rc = main(["gen-data", "--scenario", str(cfg_path), "--out", str(out), "--count", "3"])
    assert rc == 3
    assert calls == [0, 1]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flag, value", [("--n-angles", "4"), ("--n-r-per-dt", "0")])
def test_gen_data_bad_operator_argument_creates_no_out(tmp_path, cfg_path, flag, value):
    out = tmp_path / "new" / "set"
    rc = main(["gen-data", "--scenario", str(cfg_path), "--out", str(out), "--count", "1", flag, value])
    assert rc == 2
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("line", ["extent=inf", "arc_end=inf", "t_final=inf", "sound_speed=inf", "radius=inf"])
def test_gen_data_non_finite_scenario_value_creates_no_out(tmp_path, line, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(f"label=custom\nn_x={N}\nn_s={N_S}\nn_t={N_T}\n{line}\n")
    out = tmp_path / "set"
    assert main(["gen-data", "--scenario", str(cfg), "--out", str(out), "--count", "1"]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train


def test_train_epochs_zero_writes_initial_checkpoint_only(tmp_path, train_dir):
    out = tmp_path / "run"
    rc = main(["train", "--data", str(train_dir), "--out", str(out), "--epochs", "0"])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["weights_epoch0000.patb"]
    weights = fileio.read_patb(out / "weights_epoch0000.patb")
    np.testing.assert_array_equal(weights, np.ones((N, N, N_S)))


def test_train_checkpoints_and_log(tmp_path, train_dir, capsys):
    out = tmp_path / "run"
    rc = main(
        ["train", "--data", str(train_dir), "--out", str(out),
         "--epochs", "3", "--checkpoint-every", "2", "--lr", "1e-4"]
    )
    assert rc == 0
    checkpoints = sorted(p.name for p in out.iterdir() if p.suffix == ".patb")
    assert checkpoints == [
        "weights_epoch0000.patb",
        "weights_epoch0002.patb",
        "weights_epoch0003.patb",
    ]
    lines = read_lines(out / "train.log")
    assert len(lines) == 3
    for expected_epoch, line in enumerate(lines, start=1):
        epoch, train_loss, heldout, lr, wall = [field.strip() for field in line.split(",")]
        assert int(epoch) == expected_epoch
        assert np.isfinite(float(train_loss))
        assert np.isnan(float(heldout))
        assert float(lr) == 1e-4
        assert float(wall) >= 0.0
    assert "trained 3 epochs" in capsys.readouterr().out


def test_train_heldout_loss_is_logged(tmp_path, train_dir, test_dir, capsys):
    out = tmp_path / "run"
    rc = main(
        ["train", "--data", str(train_dir), "--heldout", str(test_dir),
         "--out", str(out), "--epochs", "1", "--lr", "1e-4"]
    )
    assert rc == 0
    (line,) = read_lines(out / "train.log")
    heldout = line.split(",")[2].strip()
    assert np.isfinite(float(heldout))
    assert "final held-out loss" in capsys.readouterr().out


def test_train_without_heldout_prints_no_heldout_loss(tmp_path, train_dir, capsys):
    rc = main(["train", "--data", str(train_dir), "--out", str(tmp_path / "run"),
               "--epochs", "1", "--lr", "1e-4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trained 1 epochs" in out
    assert "held-out" not in out


def test_train_rerun_into_same_directory_starts_a_fresh_log(tmp_path, train_dir):
    args = ["train", "--data", str(train_dir), "--out", str(tmp_path / "run"), "--epochs", "2", "--lr", "1e-4"]
    assert main(args) == 0
    first = read_lines(tmp_path / "run" / "train.log")
    assert main(args) == 0
    second = read_lines(tmp_path / "run" / "train.log")
    assert len(second) == 2
    assert strip_wall_column(second) == strip_wall_column(first)


def test_train_rerun_with_fewer_epochs_leaves_only_its_own_checkpoints(tmp_path, train_dir):
    args = ["train", "--data", str(train_dir), "--lr", "1e-4", "--checkpoint-every", "1", "--out"]
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    assert main(args + [str(rerun), "--epochs", "4"]) == 0
    assert main(args + [str(rerun), "--epochs", "2"]) == 0
    assert main(args + [str(fresh), "--epochs", "2"]) == 0
    names = sorted(path.name for path in fresh.iterdir())
    assert sorted(path.name for path in rerun.iterdir()) == names
    for name in names:
        if name != "train.log":  # its last column is wall time
            assert (rerun / name).read_bytes() == (fresh / name).read_bytes(), name


def test_train_run_json_records_the_run(tmp_path, train_dir, test_dir):
    out = tmp_path / "run"
    args = ["train", "--data", str(train_dir), "--heldout", str(test_dir), "--out", str(out), "--epochs", "2"]
    assert main(args) == 0
    assert main(args) == 0
    run = json.loads((out / "run.json").read_text())
    epoch, train_loss, heldout_loss, lr, _ = read_lines(out / "train.log")[-1].split(", ")
    assert run["epochs"] == int(epoch) == 2
    assert run["learning_rate"] == float(lr)
    assert run["train_loss"] == float(train_loss)
    assert run["heldout_loss"] == float(heldout_loss)
    assert run["config"] == dataclasses.asdict(TrainConfig(epochs=2))
    for role, root in (("train", train_dir), ("heldout", test_dir)):
        assert run["datasets"][role] == {
            name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in ("manifest.txt", "scenario.cfg")
        }
    assert (run["version"], run["numpy"]) == (learnedbp.__version__, np.__version__)
    assert (run["training_dtype"], run["scipy"]) == ("float32", scipy.__version__)
    # the pre-scan's probe losses, per rate tried, as training reports them
    train_set, heldout_set = fileio.Dataset.open(train_dir), fileio.Dataset.open(test_dir)
    state = training.sgd_train(train_set.pairs(), heldout_set.pairs(), TrainConfig(epochs=0),
                               BackprojectionOperator.from_scenario(train_set.scenario))
    assert run["prescan"] == [{"learning_rate": rate, "losses": losses} for rate, losses in state.prescan]
    assert run["prescan"][-1]["learning_rate"] == 10 * run["learning_rate"]
    assert len(run["prescan"][-1]["losses"]) == training.PROBE_STEPS + 1

    assert main(["train", "--data", str(train_dir), "--out", str(out), "--epochs", "1", "--lr", "1e-4"]) == 0
    run = json.loads((out / "run.json").read_text())
    assert run["heldout_loss"] is None
    assert list(run["datasets"]) == ["train"]
    assert run["learning_rate"] == 1e-4
    assert run["prescan"] == []


def strip_wall_column(lines):
    return [line.rsplit(",", 1)[0] for line in lines]


def test_train_is_deterministic(tmp_path, train_dir):
    args = ["train", "--data", str(train_dir), "--epochs", "2", "--checkpoint-every", "1"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for path in sorted(out_a.glob("*.patb")):
        assert (out_b / path.name).read_bytes() == path.read_bytes()
    # Wall-clock seconds are the one nondeterministic log field.
    lines_a = strip_wall_column(read_lines(out_a / "train.log"))
    lines_b = strip_wall_column(read_lines(out_b / "train.log"))
    assert lines_a == lines_b


def test_train_resume_from_checkpoint_is_idempotent(tmp_path, train_dir):
    out_a = tmp_path / "a"
    rc = main(["train", "--data", str(train_dir), "--out", str(out_a),
               "--epochs", "2", "--lr", "1e-4"])
    assert rc == 0
    final = out_a / "weights_epoch0002.patb"

    out_b = tmp_path / "b"
    rc = main(["train", "--data", str(train_dir), "--out", str(out_b),
               "--epochs", "0", "--init", str(final)])
    assert rc == 0
    assert (out_b / "weights_epoch0000.patb").read_bytes() == final.read_bytes()


def test_train_touches_out_only_once_training_starts(tmp_path, train_dir):
    out = tmp_path / "new"
    assert main(["train", "--data", str(train_dir), "--out", str(out), "--batch-size", "0"]) == 2
    assert not out.exists()

    run = tmp_path / "run"
    assert main(["train", "--data", str(train_dir), "--out", str(run), "--epochs", "1", "--lr", "1e-4"]) == 0
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    assert {"train.log", "run.json"} <= set(before)
    base = ["train", "--data", str(train_dir), "--out", str(run), "--epochs", "1", "--init"]
    assert main(base + ["constant:abc"]) == 2
    assert main(base + [str(tmp_path / "missing.patb")]) == 3
    assert {path.name: path.read_bytes() for path in run.iterdir()} == before


def _assert_heldout_rejected(tmp_path, train_dir, scenario, rate, capsys, arc=None):
    """A train run with a held-out set made under ``scenario`` (on the
    detector ``arc`` of a custom one) exits 2, naming that set, before
    epoch 0's checkpoint clears --out; returns the error text."""
    cfg = tmp_path / "heldout.cfg"
    fileio.save_scenario_cfg(cfg, scenario, arc=arc)
    heldout = tmp_path / "heldout"
    assert main(["gen-data", "--scenario", str(cfg), "--out", str(heldout), "--count", "1", "--split", "test"]) == 0
    run = tmp_path / "run"
    assert main(["train", "--data", str(train_dir), "--out", str(run), "--epochs", "1", "--lr", "1e-4"]) == 0
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    capsys.readouterr()
    argv = ["train", "--data", str(train_dir), "--heldout", str(heldout), "--out", str(run), "--epochs", "2"]
    assert main(argv + rate) == 2
    err = capsys.readouterr().err
    assert f"does not match dataset {heldout}" in err
    assert {path.name: path.read_bytes() for path in run.iterdir()} == before
    return err


@pytest.mark.parametrize("rate", [["--lr", "1e-4"], []], ids=["given-rate", "prescan"])
def test_train_heldout_of_another_shape_leaves_out_untouched(tmp_path, train_dir, rate, capsys):
    _assert_heldout_rejected(tmp_path, train_dir, make_scenario("B_sparse", n=N, n_s=N_S, n_t=N_T + 10), rate, capsys)


@pytest.mark.parametrize(
    "label, n", [("C_limited_sparse", N), ("B_sparse", N + 4)], ids=["other-label", "other-grid"]
)
def test_train_heldout_of_another_scenario_exits_2_and_leaves_out_untouched(tmp_path, train_dir, label, n, capsys):
    # the same data shapes but another geometry would score a different
    # problem; another image grid would fail mid-run
    _assert_heldout_rejected(tmp_path, train_dir, make_scenario(label, n=n, n_s=N_S, n_t=N_T), [], capsys)


def test_train_heldout_on_another_arc_exits_2_and_leaves_out_untouched(tmp_path, arc_dir, capsys):
    # same label and shapes, another detector layout
    other = make_scenario("custom", n=N, n_s=N_S, n_t=N_T, arc=OTHER_ARC)
    err = _assert_heldout_rejected(tmp_path, arc_dir, other, [], capsys, arc=OTHER_ARC)
    assert err.rstrip().endswith("in detectors")


@pytest.mark.parametrize("verb", ["train", "reconstruct"])
def test_operator_larger_than_memory_exits_2_and_leaves_out_untouched(
    tmp_path, cfg_path, train_dir, verb, monkeypatch, capsys
):
    if verb == "train":
        args = ["train", "--data", str(train_dir), "--epochs", "1", "--lr", "1e-4", "--out"]
    else:
        args = ["reconstruct", "--scenario", str(cfg_path), "--data", str(train_dir / "data_00000.patb"),
                "--ones", "--out"]
    assert main(args + [str(tmp_path / "done")]) == 0

    def tree():
        return {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}

    before = tree()
    capsys.readouterr()
    # far below the operator's 0.12 MB footprint at 16^2 with 4 detectors
    monkeypatch.setattr(recon, "available_memory", lambda: 4000)
    for out in ("done", "fresh"):
        assert main(args + [str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert f"n={N}, n_s={N_S} in table mode needs" in err and "0.0 MB available" in err
    assert tree() == before
    assert sorted(path.name for path in tmp_path.iterdir() if path.name.startswith("fresh")) == []


def test_train_larger_than_memory_exits_2_without_creating_out(tmp_path, train_dir, monkeypatch, capsys):
    # the operator fits; training's own arrays, counted before tabulating, do not
    monkeypatch.setattr(training, "available_memory", lambda: 4000)
    out = tmp_path / "fresh"
    assert main(["train", "--data", str(train_dir), "--epochs", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"training on 3 samples at n={N}, n_s={N_S} needs" in err and "0.0 MB available" in err
    assert not out.exists()


def test_gen_data_larger_than_memory_exits_2_without_creating_out(tmp_path, cfg_path, monkeypatch, capsys):
    # far below the simulator's footprint at 16^2 with 4 detectors
    monkeypatch.setattr(forward, "available_memory", lambda: 4000)
    out = tmp_path / "fresh"
    assert main(["gen-data", "--scenario", str(cfg_path), "--out", str(out), "--count", "2"]) == 2
    err = capsys.readouterr().err
    assert f"simulating {forward.GEN_CHUNK} images at once at n={N}, n_s={N_S} needs" in err
    assert "0.0 MB available" in err
    assert not out.exists()


def test_train_flag_defaults_are_the_config_defaults(tmp_path, train_dir, scenario, monkeypatch):
    configs = []

    def capturing(train_pairs, heldout_pairs, cfg, op, **callbacks):
        configs.append(cfg)
        return training.TrainState(WeightTensor.ones(scenario.grid, scenario.detectors.n_s))

    monkeypatch.setattr(training, "sgd_train", capturing)
    assert main(["train", "--data", str(train_dir), "--out", str(tmp_path / "run")]) == 0
    assert configs == [TrainConfig()]


def test_train_shuffles_with_seed_flag_not_config_seed(tmp_path, train_dir, scenario):
    cfg = tmp_path / "seed5.cfg"
    fileio.save_scenario_cfg(cfg, scenario, seed=5)
    args = ["train", "--data", str(train_dir), "--epochs", "2", "--checkpoint-every", "1", "--lr", "1e-4"]
    with_cfg, without = tmp_path / "with_cfg", tmp_path / "without"
    assert main(args + ["--scenario", str(cfg), "--out", str(with_cfg)]) == 0
    assert main(args + ["--out", str(without)]) == 0
    names = sorted(path.name for path in without.glob("*.patb"))
    assert names == sorted(path.name for path in with_cfg.glob("*.patb"))
    for name in names:
        assert (with_cfg / name).read_bytes() == (without / name).read_bytes(), name


def test_train_divergence_exit_code(tmp_path, train_dir, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--data", str(train_dir), "--out", str(out),
               "--epochs", "2", "--lr", "1e12"])
    assert rc == 4
    assert "diverged" in capsys.readouterr().err


def test_train_non_finite_init_is_a_data_error_before_the_prescan(tmp_path, train_dir, capsys):
    # without --lr the pre-scan would run first and report no stable rate
    out = tmp_path / "run"
    rc = main(["train", "--data", str(train_dir), "--out", str(out), "--epochs", "1", "--init", "constant:nan"])
    assert rc == 2
    assert "weights must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["nan", "inf", "-1"])
def test_train_rejects_a_non_finite_or_negative_rate_before_writing(tmp_path, train_dir, rate, capsys):
    out = tmp_path / "run"
    assert main(["train", "--data", str(train_dir), "--out", str(out), "--epochs", "1", "--lr", rate]) == 2
    assert "learning_rate must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["train", "evaluate"])
@pytest.mark.parametrize(
    "count_lines, lineno", [("count=two", 2), ("count=3\ncount=3", 3)], ids=["bad-count", "duplicate-key"]
)
def test_malformed_manifest_is_a_data_error_naming_the_line(tmp_path, train_dir, verb, count_lines, lineno, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for path in train_dir.iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    manifest = data / fileio.Dataset.MANIFEST
    text = manifest.read_text()
    assert text.startswith("split=train\ncount=3\n")
    manifest.write_text(text.replace("count=3", count_lines, 1))
    argv = [verb, "--data", str(data), "--out", str(tmp_path / "out")] + (["--epochs", "0"] if verb == "train" else [])
    assert main(argv) == 2
    assert f"{manifest}:{lineno}: " in capsys.readouterr().err


def test_train_scenario_mismatch(tmp_path, train_dir):
    other_cfg = tmp_path / "other.cfg"
    fileio.save_scenario_cfg(other_cfg, make_scenario("B_sparse", n=N, n_s=5, n_t=N_T))
    rc = main(["train", "--data", str(train_dir), "--scenario", str(other_cfg),
               "--out", str(tmp_path / "run"), "--epochs", "0"])
    assert rc == 2


def test_train_missing_dataset_is_io_error(tmp_path):
    rc = main(["train", "--data", str(tmp_path / "nowhere"),
               "--out", str(tmp_path / "run"), "--epochs", "0"])
    assert rc == 3


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_ones_zero_data(tmp_path, cfg_path):
    data_path = tmp_path / "zero.patb"
    fileio.write_patb(data_path, np.zeros((N_T, N_S)))
    out = tmp_path / "recon"
    rc = main(["reconstruct", "--scenario", str(cfg_path), "--data", str(data_path),
               "--ones", "--out", str(out)])
    assert rc == 0
    np.testing.assert_array_equal(fileio.read_patb(tmp_path / "recon.patb"), np.zeros((N, N)))
    np.testing.assert_array_equal(fileio.read_pgm(tmp_path / "recon.pgm"), np.zeros((N, N)))


def test_reconstruct_ones_matches_library(tmp_path, cfg_path, train_dir, scenario):
    out = tmp_path / "recon"
    rc = main(["reconstruct", "--scenario", str(cfg_path),
               "--data", str(train_dir / "data_00000.patb"), "--ones", "--out", str(out)])
    assert rc == 0

    values = fileio.read_patb(train_dir / "data_00000.patb")
    data = SensorData(values, scenario.time, scenario.detectors)
    expected = BackprojectionOperator.from_scenario(scenario).standard(data)
    np.testing.assert_array_equal(
        fileio.read_patb(tmp_path / "recon.patb"), f32(expected.values)
    )


def test_reconstruct_ones_builds_no_weight_tensor(tmp_path, cfg_path, train_dir, scenario, monkeypatch):
    values = fileio.read_patb(train_dir / "data_00000.patb")
    expected = BackprojectionOperator.from_scenario(scenario).standard(
        SensorData(values, scenario.time, scenario.detectors))
    fileio.write_patb(tmp_path / "expected.patb", expected.values)

    def refuse(*args):
        raise AssertionError("--ones built a weight tensor")

    monkeypatch.setattr(WeightTensor, "ones", refuse)
    rc = main(["reconstruct", "--scenario", str(cfg_path),
               "--data", str(train_dir / "data_00000.patb"), "--ones", "--out", str(tmp_path / "recon")])
    assert rc == 0
    assert (tmp_path / "recon.patb").read_bytes() == (tmp_path / "expected.patb").read_bytes()


def test_reconstruct_with_weights_file(tmp_path, cfg_path, train_dir, ones_weights):
    out = tmp_path / "weighted"
    rc = main(["reconstruct", "--scenario", str(cfg_path),
               "--data", str(train_dir / "data_00000.patb"),
               "--weights", str(ones_weights), "--out", str(out)])
    assert rc == 0
    assert (tmp_path / "weighted.patb").exists()
    assert (tmp_path / "weighted.pgm").exists()


def test_reconstruct_exact_mode_agrees_with_table(tmp_path, cfg_path, train_dir):
    base = ["reconstruct", "--scenario", str(cfg_path),
            "--data", str(train_dir / "data_00000.patb"), "--ones"]
    assert main(base + ["--out", str(tmp_path / "table")]) == 0
    assert main(base + ["--out", str(tmp_path / "exact"), "--exact"]) == 0
    table = fileio.read_patb(tmp_path / "table.patb")
    exact = fileio.read_patb(tmp_path / "exact.patb")
    # The flag must actually change the quadrature path; close agreement at
    # this deliberately coarse grid is all the wiring check needs (the
    # quadrature accuracy itself is pinned down in test_recon).
    assert not np.array_equal(table, exact)
    scale = np.abs(exact).max()
    np.testing.assert_allclose(table, exact, atol=5e-2 * scale)


def test_reconstruct_wrong_weight_shape_names_both(tmp_path, cfg_path, train_dir, capsys):
    bad = tmp_path / "bad.patb"
    fileio.write_patb(bad, np.ones((N, N, N_S - 1)))
    rc = main(["reconstruct", "--scenario", str(cfg_path),
               "--data", str(train_dir / "data_00000.patb"),
               "--weights", str(bad), "--out", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"({N}, {N}, {N_S - 1})" in err
    assert f"({N}, {N}, {N_S})" in err


def test_reconstruct_missing_data_is_io_error(tmp_path, cfg_path):
    rc = main(["reconstruct", "--scenario", str(cfg_path),
               "--data", str(tmp_path / "missing.patb"), "--ones",
               "--out", str(tmp_path / "r")])
    assert rc == 3


def test_reconstruct_garbage_data_is_format_error(tmp_path, cfg_path):
    garbage = tmp_path / "garbage.patb"
    garbage.write_bytes(b"this is not a tensor")
    rc = main(["reconstruct", "--scenario", str(cfg_path), "--data", str(garbage),
               "--ones", "--out", str(tmp_path / "r")])
    assert rc == 2


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_writes_csv_and_prints_table(tmp_path, train_dir, ones_weights, capsys):
    csv_path = tmp_path / "report.csv"
    rc = main(["evaluate", "--data", str(train_dir), "--weights", str(ones_weights),
               "--out", str(csv_path)])
    assert rc == 0

    lines = read_lines(csv_path)
    assert lines[0] == "scenario,method,sample,rel_error"
    assert len(lines) == 1 + 2 * 3
    for line in lines[1:]:
        label, method, sample, value = line.split(",")
        assert label == "B_sparse"
        assert method in ("UBP", "weighted-UBP")
        assert 0 <= int(sample) < 3
        assert np.isfinite(float(value))

    # All-ones weights reproduce the unweighted method, column for column.
    ubp = [line for line in lines[1:] if line.split(",")[1] == "UBP"]
    weighted = [line.replace("weighted-UBP", "UBP") for line in lines[1:] if "weighted" in line]
    assert ubp == weighted

    out = capsys.readouterr().out
    assert "B_sparse" in out
    assert "mean rel l2 error" in out


def test_evaluate_without_weights_reports_ubp_only(tmp_path, train_dir):
    csv_path = tmp_path / "report.csv"
    rc = main(["evaluate", "--data", str(train_dir), "--out", str(csv_path)])
    assert rc == 0
    lines = read_lines(csv_path)
    assert len(lines) == 1 + 3
    assert all(line.split(",")[1] == "UBP" for line in lines[1:])


def test_evaluate_scenario_mismatch(tmp_path, train_dir):
    other_cfg = tmp_path / "other.cfg"
    fileio.save_scenario_cfg(other_cfg, make_scenario("B_sparse", n=N, n_s=5, n_t=N_T))
    rc = main(["evaluate", "--data", str(train_dir), "--scenario", str(other_cfg),
               "--out", str(tmp_path / "report.csv")])
    assert rc == 2


def test_evaluate_scenario_of_another_arc_exits_2_and_leaves_out_untouched(tmp_path, arc_dir, capsys):
    other_cfg = tmp_path / "other.cfg"
    fileio.save_scenario_cfg(other_cfg, make_scenario("custom", n=N, n_s=N_S, n_t=N_T, arc=OTHER_ARC), arc=OTHER_ARC)
    report = tmp_path / "report.csv"
    report.write_text("earlier report\n")
    rc = main(["evaluate", "--data", str(arc_dir), "--scenario", str(other_cfg), "--out", str(report)])
    assert rc == 2
    assert capsys.readouterr().err.rstrip().endswith("in detectors")
    assert report.read_text() == "earlier report\n"


def test_evaluate_missing_dataset_is_io_error(tmp_path):
    rc = main(["evaluate", "--data", str(tmp_path / "nowhere"),
               "--out", str(tmp_path / "report.csv")])
    assert rc == 3


# ---------------------------------------------------------------------------
# export-weights


def test_export_uniform_slice_round_trips(tmp_path, ones_weights):
    out = tmp_path / "slice.pgm"
    rc = main(["export-weights", "--weights", str(ones_weights), "--detector", "2",
               "--out", str(out)])
    assert rc == 0
    np.testing.assert_array_equal(fileio.read_pgm(out), np.ones((N, N)))


def test_export_weights_index_out_of_range(tmp_path, ones_weights, capsys):
    rc = main(["export-weights", "--weights", str(ones_weights),
               "--detector", str(N_S), "--out", str(tmp_path / "s.pgm")])
    assert rc == 2
    assert f"[0, {N_S})" in capsys.readouterr().err

    rc = main(["export-weights", "--weights", str(ones_weights),
               "--detector", "-1", "--out", str(tmp_path / "s.pgm")])
    assert rc == 2


def test_export_weights_takes_no_scenario(tmp_path, ones_weights, capsys):
    rc = main(["export-weights", "--weights", str(ones_weights), "--detector", "0",
               "--scenario", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "s.pgm")])
    assert rc == 1
    assert "--scenario" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_export_weights_rejects_2d_tensor(tmp_path):
    flat = tmp_path / "flat.patb"
    fileio.write_patb(flat, np.ones((N, N)))
    rc = main(["export-weights", "--weights", str(flat), "--detector", "0",
               "--out", str(tmp_path / "s.pgm")])
    assert rc == 2


# ---------------------------------------------------------------------------
# phantom


def test_phantom_uses_config_seed(tmp_path, cfg_path, scenario):
    out = tmp_path / "ph"
    rc = main(["phantom", "--scenario", str(cfg_path), "--out", str(out)])
    assert rc == 0
    expected = generate_phantom(PhantomParams(seed=CFG_SEED), scenario.grid)
    np.testing.assert_array_equal(fileio.read_patb(tmp_path / "ph.patb"), f32(expected.values))
    assert (tmp_path / "ph.pgm").exists()


def test_phantom_seed_flag_overrides_config(tmp_path, cfg_path, scenario):
    out = tmp_path / "ph"
    rc = main(["phantom", "--scenario", str(cfg_path), "--seed", "9", "--out", str(out)])
    assert rc == 0
    expected = generate_phantom(PhantomParams(seed=9), scenario.grid)
    np.testing.assert_array_equal(fileio.read_patb(tmp_path / "ph.patb"), f32(expected.values))
