import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from learnedbp.errors import ConfigError, FormatError, ShapeMismatchError, checked_array
from learnedbp.fileio import (
    Dataset,
    PGM_MAXVAL,
    load_scenario_cfg,
    read_patb,
    read_pgm,
    save_scenario_cfg,
    write_patb,
    write_pgm,
    write_sample,
)
from learnedbp.forward import SensorData
from learnedbp.geometry import (
    HALF_CIRCLE_END,
    SCENARIO_LABELS,
    ImageGrid,
    Scenario,
    TimeGrid,
    make_detectors,
    make_scenario,
)
from learnedbp.phantoms import Image


class TestPatbRoundTrip:
    def test_exact_for_float32_values(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "a.patb"
        write_patb(path, values)
        got = read_patb(path)
        assert got.dtype == np.float64
        assert np.array_equal(got, values)

    def test_three_dimensional(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((4, 3, 6)).astype(np.float32).astype(np.float64)
        path = tmp_path / "w.patb"
        write_patb(path, values)
        assert np.array_equal(read_patb(path), values)

    def test_special_values_preserved(self, tmp_path):
        # signed zeros, subnormals and near-overflow magnitudes, all taken
        # through float32 first so they are exactly representable
        values = np.array(
            [[0.0, -0.0, 1e-42, -1e-42], [3e38, -3e38, 1.0, np.pi]], dtype=np.float32
        ).astype(np.float64)
        path = tmp_path / "s.patb"
        write_patb(path, values)
        got = read_patb(path)
        assert np.array_equal(got, values)
        assert np.array_equal(np.signbit(got), np.signbit(values))

    def test_float64_payload_quantizes_to_float32(self, tmp_path):
        path = tmp_path / "q.patb"
        write_patb(path, np.full((2, 2), np.pi))
        got = read_patb(path)
        assert got[0, 0] == np.float64(np.float32(np.pi))
        assert got[0, 0] != np.pi

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float32,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
        )
    )
    def test_any_finite_float32_array_roundtrips(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("patb") / "h.patb"
        write_patb(path, values.astype(np.float64))
        assert np.array_equal(read_patb(path), values.astype(np.float64))

    def test_rejects_bad_rank(self, tmp_path):
        with pytest.raises(ShapeMismatchError):
            write_patb(tmp_path / "r.patb", np.zeros(5))
        with pytest.raises(ShapeMismatchError):
            write_patb(tmp_path / "r.patb", np.zeros((2, 2, 2, 2)))

    def test_rejects_empty_dims(self, tmp_path):
        with pytest.raises(ShapeMismatchError):
            write_patb(tmp_path / "e.patb", np.zeros((0, 3)))


class TestPatbParsing:
    def _valid_bytes(self):
        values = np.arange(6, dtype="<f4").reshape(2, 3)
        return b"PATB" + struct.pack("<IIII", 1, 2, 2, 3) + values.tobytes()

    def test_crafted_file_parses(self, tmp_path):
        path = tmp_path / "ok.patb"
        path.write_bytes(self._valid_bytes())
        got = read_patb(path)
        assert np.array_equal(got, np.arange(6, dtype=np.float64).reshape(2, 3))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda raw: b"XXXX" + raw[4:],
            lambda raw: raw[:4] + struct.pack("<I", 9) + raw[8:],
            lambda raw: raw[:8] + struct.pack("<I", 4) + raw[12:],
            lambda raw: raw[:10],
            lambda raw: raw[:-4],
            lambda raw: raw + b"\x00" * 4,
            lambda raw: raw[:12] + struct.pack("<I", 0) + raw[16:],
        ],
        ids=[
            "bad-magic",
            "bad-version",
            "bad-rank",
            "truncated-header",
            "short-payload",
            "long-payload",
            "zero-dim",
        ],
    )
    def test_malformed_rejected(self, tmp_path, mutate):
        path = tmp_path / "bad.patb"
        path.write_bytes(mutate(self._valid_bytes()))
        with pytest.raises(FormatError):
            read_patb(path)


def _parse_pgm_by_hand(path):
    """Minimal independent P5 reader used to audit the writer."""
    raw = path.read_bytes()
    header, rest = raw.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    cols, rows = (int(tok) for tok in dims.split())
    maxval_line, payload = rest.split(b"\n", 1)
    maxval = int(maxval_line)
    pixels = struct.unpack(f">{rows * cols}H", payload)
    return cols, rows, maxval, list(pixels)


class TestPgm:
    def test_known_pixel_values(self, tmp_path):
        values = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        path = tmp_path / "img.pgm"
        write_pgm(path, values)
        cols, rows, maxval, pixels = _parse_pgm_by_hand(path)
        assert (cols, rows, maxval) == (3, 2, 65535)
        assert pixels == [0, 13107, 26214, 39321, 52428, 65535]

    def test_sidecar_records_exact_range(self, tmp_path):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((5, 4))
        path = tmp_path / "img.pgm"
        write_pgm(path, values)
        meta = dict(
            line.split("=", 1) for line in (tmp_path / "img.pgm.txt").read_text().splitlines()
        )
        assert float(meta["vmin"]) == values.min()
        assert float(meta["vmax"]) == values.max()

    def test_roundtrip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(3)
        values = 10.0 * rng.standard_normal((12, 9)) - 4.0
        path = tmp_path / "img.pgm"
        write_pgm(path, values)
        got = read_pgm(path)
        step = (values.max() - values.min()) / PGM_MAXVAL
        assert got.shape == values.shape
        assert np.abs(got - values).max() <= 0.5000001 * step

    def test_constant_image(self, tmp_path):
        values = np.full((4, 4), 2.5)
        path = tmp_path / "flat.pgm"
        write_pgm(path, values)
        assert np.array_equal(read_pgm(path), values)

    def test_rejects_bad_input(self, tmp_path):
        with pytest.raises(ShapeMismatchError):
            write_pgm(tmp_path / "x.pgm", np.zeros(4))
        bad = np.zeros((3, 3))
        bad[0, 0] = np.nan
        with pytest.raises(ShapeMismatchError):
            write_pgm(tmp_path / "x.pgm", bad)

    def test_rejects_foreign_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        (tmp_path / "m.pgm.txt").write_text("vmin=0.0\nvmax=1.0\n")
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2")
        with pytest.raises(FormatError):
            read_pgm(path)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"P5\nab 2\n65535\n", "non-integer PGM header field"),
            (b"P5\n2 2\n# no newline ends this comment", "truncated PGM header"),
            (b"P5\n2 2\n65535\n" + bytes(6), "fewer than 2 x 2 16-bit pixels"),
        ],
        ids=["non-integer-field", "unended-comment", "short-payload"],
    )
    def test_malformed_pgm_is_a_format_error(self, tmp_path, raw, message):
        # each once escaped as a bare ValueError from int, bytes.index or np.frombuffer
        path = tmp_path / "f.pgm"
        path.write_bytes(raw)
        (tmp_path / "f.pgm.txt").write_text("vmin=0.0\nvmax=1.0\n")
        with pytest.raises(FormatError, match=message):
            read_pgm(path)

    @pytest.mark.parametrize(
        "sidecar",
        ["vmin=abc\nvmax=1.0\n", "vmin=0.0\n", "vmin=0.0\nvmin=0.5\nvmax=1.0\n", "vmin 0.0\nvmax=1.0\n", "vmid=0.5\n"],
        ids=["bad-float", "missing-key", "duplicate-key", "not-key-value", "unknown-key"],
    )
    def test_malformed_sidecar_is_a_format_error(self, tmp_path, sidecar):
        path = tmp_path / "s.pgm"
        write_pgm(path, np.array([[0.0, 1.0], [2.0, 3.0]]))
        (tmp_path / "s.pgm.txt").write_text(sidecar)
        with pytest.raises(FormatError, match="s.pgm.txt"):
            read_pgm(path)

    def test_reads_comment_lines(self, tmp_path):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "c.pgm"
        write_pgm(path, values)
        raw = path.read_bytes()
        head, payload = raw.split(b"\n", 1)
        commented = head + b"\n# a comment\n" + payload
        path.write_bytes(commented)
        assert np.allclose(read_pgm(path), values, atol=(4.0 - 1.0) / PGM_MAXVAL)


class TestAtomicity:
    def test_failed_replace_leaves_no_residue(self, tmp_path, monkeypatch):
        target = tmp_path / "out.patb"
        write_patb(target, np.ones((2, 2)))
        before = target.read_bytes()

        def boom(src, dst):
            raise OSError("simulated full disk")

        monkeypatch.setattr("learnedbp.fileio.os.replace", boom)
        with pytest.raises(OSError):
            write_patb(target, np.zeros((3, 3)))
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.patb"]
        assert target.read_bytes() == before


class TestCheckedArray:
    def test_returns_c_contiguous_float64(self):
        values = checked_array(np.arange(6, dtype=np.int32).reshape(3, 2).T, (2, None), "grid")
        assert values.dtype == np.float64 and values.flags.c_contiguous
        assert values.tolist() == [[0, 2, 4], [1, 3, 5]]

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.zeros((2, 3)), r"grid shape \(2, 3\) does not match \(3, \*\)"),
            (np.zeros((3, 0)), r"grid shape \(3, 0\) does not match \(3, \*\)"),
            (np.zeros(3), r"grid shape \(3,\) does not match"),
            (np.array([[0.0], [np.inf], [0.0]]), "grid must be finite"),
        ],
        ids=["wrong-length", "empty-free-axis", "wrong-rank", "non-finite"],
    )
    def test_rejects(self, values, message):
        with pytest.raises(ShapeMismatchError, match=message):
            checked_array(values, (3, None), "grid")


class TestScenarioCfg:
    def test_roundtrip_canonical(self, tmp_path):
        sc = make_scenario("A_limited_view", n=64, n_t=120, t_final=2.5, sound_speed=1.5)
        path = tmp_path / "scenario.cfg"
        save_scenario_cfg(path, sc, seed=7)
        loaded, seed = load_scenario_cfg(path)
        assert seed == 7
        assert loaded.label == sc.label
        assert loaded.grid == sc.grid
        assert loaded.time == sc.time
        assert loaded.sound_speed == sc.sound_speed
        assert loaded.directivity_enabled == sc.directivity_enabled
        assert np.array_equal(loaded.detectors.positions, sc.detectors.positions)
        assert loaded.detectors.arc_weight == sc.detectors.arc_weight

    def test_roundtrip_custom_arc(self, tmp_path):
        det = make_detectors("custom", 5, 2.0, 0.3, 1.1)
        sc = Scenario(
            grid=ImageGrid(n=32),
            detectors=det,
            time=TimeGrid(n_t=50, t_final=6.0),
            directivity_enabled=False,
            label="custom",
        )
        path = tmp_path / "scenario.cfg"
        save_scenario_cfg(path, sc, arc=(0.3, 1.1))
        loaded, seed = load_scenario_cfg(path)
        assert seed is None
        assert loaded.label == "custom"
        assert not loaded.directivity_enabled
        assert np.array_equal(loaded.detectors.positions, det.positions)

    def test_custom_requires_arc_to_save(self, tmp_path):
        det = make_detectors("custom", 5, 2.0, 0.3, 1.1)
        sc = Scenario(
            grid=ImageGrid(n=32),
            detectors=det,
            time=TimeGrid(n_t=50, t_final=6.0),
            label="custom",
        )
        with pytest.raises(ConfigError):
            save_scenario_cfg(tmp_path / "x.cfg", sc)

    def test_defaults_from_minimal_file(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text("label=B_sparse\n")
        sc, seed = load_scenario_cfg(path)
        assert seed is None
        assert sc.grid.n == 256
        assert sc.grid.extent == 1.0
        assert sc.detectors.n_s == 20
        assert sc.time.n_t == 400
        assert sc.time.t_final == 3.0
        assert sc.directivity_enabled
        assert sc.sound_speed == 1.0

    @pytest.mark.parametrize("label", SCENARIO_LABELS)
    def test_label_only_file_matches_make_scenario(self, tmp_path, label):
        path = tmp_path / "min.cfg"
        path.write_text(f"label={label}\n")
        loaded, _ = load_scenario_cfg(path)
        expected = make_scenario(label)
        assert loaded == expected
        assert loaded.detectors.positions.tobytes() == expected.detectors.positions.tobytes()
        assert loaded.detectors.normals.tobytes() == expected.detectors.normals.tobytes()

    def test_one_arc_end_keeps_the_other_default(self, tmp_path):
        path = tmp_path / "arc.cfg"
        path.write_text("label=custom\narc_start=0.3\n")
        loaded, _ = load_scenario_cfg(path)
        expected = make_scenario("custom", arc=(0.3, HALF_CIRCLE_END))
        assert loaded.detectors.positions.tobytes() == expected.detectors.positions.tobytes()

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# hello\n\nlabel=B_sparse\nn_x=32\n  # again\nn_t=50\n")
        sc, _ = load_scenario_cfg(path)
        assert sc.grid.n == 32
        assert sc.time.n_t == 50

    @pytest.mark.parametrize(
        "body",
        [
            "n_x=32\n",
            "label=B_sparse\nbogus_key=1\n",
            "label=B_sparse\nn_x=32\nn_x=64\n",
            "label=B_sparse\nn_x=abc\n",
            "label=B_sparse\ndirectivity=perhaps\n",
            "label=B_sparse\narc_start=0.0\n",
            "label=B_sparse\njust a line\n",
            "label=B_sparse\n=32\n",
        ],
        ids=[
            "missing-label",
            "unknown-key",
            "duplicate-key",
            "bad-int",
            "bad-bool",
            "arc-on-canonical",
            "not-key-value",
            "empty-key",
        ],
    )
    def test_malformed_rejected(self, tmp_path, body):
        path = tmp_path / "bad.cfg"
        path.write_text(body)
        with pytest.raises(ConfigError):
            load_scenario_cfg(path)


def _make_dataset(tmp_path, count=3, split="train"):
    sc = Scenario(
        grid=ImageGrid(n=16),
        detectors=make_detectors("B_sparse", 4, 1.0),
        time=TimeGrid(n_t=20, t_final=3.0),
        directivity_enabled=False,
        label="B_sparse",
    )
    save_scenario_cfg(tmp_path / Dataset.SCENARIO, sc, seed=0)
    rng = np.random.default_rng(5)
    originals = []
    for k in range(count):
        phantom = Image(sc.grid, np.abs(rng.standard_normal((16, 16))))
        data = SensorData(rng.standard_normal((20, 4)), sc.time, sc.detectors)
        write_sample(tmp_path, k, phantom, data)
        originals.append((phantom, data))
    ds = Dataset(tmp_path, sc, split, [Dataset.stem(k) for k in range(count)])
    ds.write_manifest()
    return sc, originals


class TestDataset:
    def test_stem_format(self):
        assert Dataset.stem(12) == "phantom_00012"
        assert Dataset.stem(0) == "phantom_00000"
        assert Dataset.sample_paths("root", "phantom_00012") == (
            Path("root", "phantom_00012.patb"),
            Path("root", "data_00012.patb"),
        )

    def test_write_sample_file_names(self, tmp_path):
        _make_dataset(tmp_path, count=1)
        assert (tmp_path / "phantom_00000.patb").is_file()
        assert (tmp_path / "data_00000.patb").is_file()

    def test_open_roundtrip(self, tmp_path):
        sc, originals = _make_dataset(tmp_path, count=3)
        ds = Dataset.open(tmp_path)
        assert len(ds) == 3
        assert ds.split == "train"
        assert ds.scenario.label == "B_sparse"
        sensor, image = ds.load_pair(1)
        phantom, data = originals[1]
        assert np.array_equal(image.values, phantom.values.astype(np.float32).astype(np.float64))
        assert np.array_equal(sensor.values, data.values.astype(np.float32).astype(np.float64))
        assert len(ds.pairs()) == 3

    def test_missing_data_file_detected(self, tmp_path):
        _make_dataset(tmp_path, count=2)
        (tmp_path / "data_00001.patb").unlink()
        with pytest.raises(FileNotFoundError):
            Dataset.open(tmp_path)

    def test_count_mismatch_detected(self, tmp_path):
        _make_dataset(tmp_path, count=2)
        manifest = tmp_path / Dataset.MANIFEST
        manifest.write_text(manifest.read_text().replace("count=2", "count=5"))
        with pytest.raises(ConfigError):
            Dataset.open(tmp_path)

    def test_bad_split_detected(self, tmp_path):
        _make_dataset(tmp_path, count=1)
        manifest = tmp_path / Dataset.MANIFEST
        manifest.write_text(manifest.read_text().replace("split=train", "split=validation"))
        with pytest.raises(ConfigError):
            Dataset.open(tmp_path)

    def test_unsorted_stems_detected(self, tmp_path):
        _make_dataset(tmp_path, count=2)
        manifest = tmp_path / Dataset.MANIFEST
        text = manifest.read_text()
        text = text.replace("phantom_00000\nphantom_00001", "phantom_00001\nphantom_00000")
        manifest.write_text(text)
        with pytest.raises(ConfigError):
            Dataset.open(tmp_path)

    def test_unknown_manifest_key_detected(self, tmp_path):
        _make_dataset(tmp_path, count=1)
        manifest = tmp_path / Dataset.MANIFEST
        manifest.write_text("mystery=1\n" + manifest.read_text())
        with pytest.raises(ConfigError):
            Dataset.open(tmp_path)

    def test_provenance_roundtrip(self, tmp_path):
        sc, _ = _make_dataset(tmp_path, count=2)
        provenance = {"seed": 900, "noise": 0.01, "n_angles": 64, "n_r_per_dt": 4}
        Dataset(tmp_path, sc, "train", [Dataset.stem(k) for k in range(2)], provenance).write_manifest()
        assert Dataset.open(tmp_path).provenance == provenance

    def test_versions_roundtrip(self, tmp_path):
        sc, _ = _make_dataset(tmp_path, count=1)
        provenance = {"seed": 3, "version": "0.1.0", "numpy": "2.1.3rc1"}
        Dataset(tmp_path, sc, "train", [Dataset.stem(0)], provenance).write_manifest()
        assert "numpy=2.1.3rc1\n" in (tmp_path / Dataset.MANIFEST).read_text()
        assert Dataset.open(tmp_path).provenance == provenance

    def test_workers_and_scipy_roundtrip(self, tmp_path):
        sc, _ = _make_dataset(tmp_path, count=1)
        provenance = {"seed": 3, "workers": 2, "numpy": "2.4.6", "scipy": "1.17.1"}
        Dataset(tmp_path, sc, "train", [Dataset.stem(0)], provenance).write_manifest()
        text = (tmp_path / Dataset.MANIFEST).read_text()
        assert "workers=2\n" in text and "scipy=1.17.1\n" in text
        assert Dataset.open(tmp_path).provenance == provenance

    def test_manifest_without_workers_and_scipy_opens(self, tmp_path):
        # a manifest written before the two keys were recorded
        sc, _ = _make_dataset(tmp_path, count=1)
        provenance = {"seed": 3, "noise": 0.0, "n_angles": 64, "n_r_per_dt": 4, "version": "0.1.0", "numpy": "2.4.6"}
        Dataset(tmp_path, sc, "train", [Dataset.stem(0)], provenance).write_manifest()
        assert Dataset.open(tmp_path).provenance == provenance

    def test_manifest_without_provenance_opens(self, tmp_path):
        _make_dataset(tmp_path, count=1)
        assert Dataset.open(tmp_path).provenance == {}

    def test_spaces_around_manifest_equals_signs_are_stripped(self, tmp_path):
        _make_dataset(tmp_path, count=1, split="test")
        manifest = tmp_path / Dataset.MANIFEST
        manifest.write_text(manifest.read_text().replace("split=test", "split = test").replace("count=", " count= "))
        assert Dataset.open(tmp_path).split == "test"

    def test_remove_samples_from_keeps_the_lower_indices_and_other_files(self, tmp_path):
        _make_dataset(tmp_path, count=3)
        (tmp_path / "data_7.patb").write_bytes(b"")  # not a sample name: too few digits
        Dataset.remove_samples_from(tmp_path, 1)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "data_00000.patb", "data_7.patb", Dataset.MANIFEST, "phantom_00000.patb", Dataset.SCENARIO]

    def test_bad_provenance_value_detected(self, tmp_path):
        _make_dataset(tmp_path, count=1)
        manifest = tmp_path / Dataset.MANIFEST
        manifest.write_text("seed=five\n" + manifest.read_text())
        with pytest.raises(ConfigError):
            Dataset.open(tmp_path)
