"""Smoke tests of the demo scripts, run as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

from learnedbp import fileio

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(script, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_quickstart(tmp_path):
    result = _run_demo("quickstart.py", "--n", "32", "--out", "q", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    for name in ("q.phantom.pgm", "q.recon.pgm"):
        assert (tmp_path / name).read_bytes().startswith(b"P5")
        assert (tmp_path / (name + ".txt")).is_file()
    out = result.stdout
    assert "scenario C_limited_sparse: " in out
    assert "simulated data: " in out
    assert "plain backprojection rel l2 error: " in out
    assert "wrote q.phantom.pgm and q.recon.pgm" in out


def test_train_demo(tmp_path):
    result = _run_demo("train_demo.py", "--epochs", "2", "--train-count", "6", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    out = result.stdout
    assert "simulating 6 training and 5 held-out phantoms..." in out
    assert "  epoch   1  train loss " in out
    assert "scenario A_limited_view: 5 samples" in out
    rows = [line.split() for line in out.splitlines()]
    for method in ("UBP", "weighted-UBP"):
        assert [method, "mean", "rel", "l2", "error"] in [row[:5] for row in rows]
    assert "improvement: " in out


def test_cli_walkthrough(tmp_path):
    # the script calls the installed `learnedbp` command; a shim on PATH
    # runs the source tree's module instead
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "learnedbp"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m learnedbp.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    result = subprocess.run(
        ["sh", str(ROOT / "demos" / "cli_walkthrough.sh")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    out = tmp_path / "walkthrough_out"
    methods = [line.split(",")[1] for line in (out / "report.csv").read_text().splitlines()]
    assert "UBP" in methods and "weighted-UBP" in methods
    for name in ("recon_plain.pgm", "recon_weighted.pgm", "weights_det0.pgm"):
        assert (out / name).read_bytes().startswith(b"P5")
        assert (out / (name + ".txt")).is_file()


def test_paper_scale_writes_the_scenario_of_its_label(tmp_path):
    # the scenario file is written before the first stage, which a failing
    # interpreter stops: A_limited_view with 100 detectors by default, and
    # a label given keeps its own default detector count
    for args, expected in (
        ((), "label=A_limited_view\nn_s=100\nn_x=256\nn_t=400\nseed=5\n"),
        (("B_sparse",), "label=B_sparse\nn_x=256\nn_t=400\nseed=5\n"),
    ):
        out = tmp_path / f"out{len(args)}"
        result = subprocess.run(
            ["sh", str(ROOT / "demos" / "paper_scale.sh"), str(out), *args],
            cwd=tmp_path, env=dict(os.environ, PYTHON="false"), capture_output=True, text=True, timeout=60,
        )
        assert result.returncode != 0
        assert (out / "scenario.cfg").read_text() == expected
        scenario, seed = fileio.load_scenario_cfg(out / "scenario.cfg")
        assert (scenario.grid.n, scenario.detectors.n_s, seed) == (256, 100 if not args else 20, 5)
