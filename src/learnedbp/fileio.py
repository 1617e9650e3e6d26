"""On-disk formats: tensors, figure exports, configs, datasets.

Tensors travel in a small binary container ("PATB"): a 4-byte magic,
version, rank and dimensions as unsigned 32-bit little-endian integers,
then the row-major float32 payload.  Figure exports are 16-bit binary
PGM with the min-max normalization written to a sidecar text file so
pixel values stay convertible back to physical units.  Scenarios,
dataset manifests and sidecars are key=value text, all read by
:func:`read_key_values`; a malformed scenario or manifest raises
ConfigError and a malformed sidecar FormatError, naming file and line.

All writes go through a temp-file-plus-rename so a crash never leaves a
half-written file under the final name.
"""

from __future__ import annotations

import os
import re
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, ShapeMismatchError, checked_array
from .forward import SensorData
from .geometry import HALF_CIRCLE_END, HALF_CIRCLE_START, Scenario, make_scenario
from .phantoms import Image

PATB_MAGIC = b"PATB"
PATB_VERSION = 1
PGM_MAXVAL = 65535


def atomic_write_bytes(path, payload: bytes):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_patb(path, values: np.ndarray):
    """Serialize a 2-d or 3-d float array; the payload is float32."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim not in (2, 3):
        raise ShapeMismatchError(f"tensor files hold 2-d or 3-d arrays, got ndim={values.ndim}")
    if any(dim < 1 for dim in values.shape):
        raise ShapeMismatchError(f"all dims must be at least 1, got {values.shape}")
    header = PATB_MAGIC + struct.pack(
        f"<II{values.ndim}I", PATB_VERSION, values.ndim, *values.shape
    )
    atomic_write_bytes(path, header + values.astype("<f4").tobytes())


def read_patb(path) -> np.ndarray:
    """Read a tensor file back as float64 (exact image of the stored float32)."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != PATB_MAGIC:
        raise FormatError(f"{path}: not a tensor file (bad magic)")
    version, ndim = struct.unpack_from("<II", raw, 4)
    if version != PATB_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if ndim not in (2, 3):
        raise FormatError(f"{path}: rank {ndim} out of range")
    if len(raw) < 12 + 4 * ndim:
        raise FormatError(f"{path}: truncated header")
    dims = struct.unpack_from(f"<{ndim}I", raw, 12)
    if any(dim < 1 for dim in dims):
        raise FormatError(f"{path}: zero dimension in header")
    count = int(np.prod(dims, dtype=np.int64))
    offset = 12 + 4 * ndim
    if len(raw) != offset + 4 * count:
        raise FormatError(
            f"{path}: payload is {len(raw) - offset} bytes, header promises {4 * count}"
        )
    flat = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
    return flat.astype(np.float64).reshape(dims)


def write_pgm(path, values: np.ndarray):
    """Export a 2-d array as binary 16-bit PGM plus a normalization sidecar.

    Pixels are the affine min-max rescaling of the values to 0..65535;
    the sidecar (same name + ".txt") records vmin and vmax so
    :func:`read_pgm` can undo the normalization up to quantization.
    """
    values = checked_array(values, (None, None), "PGM export")
    vmin = float(values.min())
    vmax = float(values.max())
    if vmax > vmin:
        scaled = (values - vmin) * (PGM_MAXVAL / (vmax - vmin))
    else:
        scaled = np.zeros_like(values)
    pixels = np.rint(scaled).astype("<u4").clip(0, PGM_MAXVAL).astype(">u2")
    rows, cols = values.shape
    header = f"P5\n{cols} {rows}\n{PGM_MAXVAL}\n".encode("ascii")
    atomic_write_bytes(path, header + pixels.tobytes())
    sidecar = f"vmin={vmin!r}\nvmax={vmax!r}\n".encode("ascii")
    atomic_write_bytes(str(path) + ".txt", sidecar)


def read_pgm(path) -> np.ndarray:
    """Read a 16-bit binary PGM written by :func:`write_pgm` and map the
    pixels back to physical values via the sidecar."""
    raw = Path(path).read_bytes()
    fields = []
    pos = 0
    while len(fields) < 4:
        if pos >= len(raw):
            raise FormatError(f"{path}: truncated PGM header")
        if raw[pos : pos + 1] == b"#":
            newline = raw.find(b"\n", pos)
            pos = len(raw) if newline < 0 else newline + 1  # an unended comment ends the header
            continue
        if raw[pos : pos + 1].isspace():
            pos += 1
            continue
        end = pos
        while end < len(raw) and not raw[end : end + 1].isspace():
            end += 1
        fields.append(raw[pos:end])
        pos = end
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P5":
        raise FormatError(f"{path}: not a binary PGM")
    try:
        cols, rows, maxval = (int(f) for f in fields[1:])
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer PGM header field in {fields[1:]}") from exc
    if maxval != PGM_MAXVAL:
        raise FormatError(f"{path}: expected 16-bit data, maxval is {maxval}")
    if min(cols, rows) < 0 or len(raw) - pos < 2 * rows * cols:
        raise FormatError(f"{path}: payload holds fewer than {cols} x {rows} 16-bit pixels")
    pixels = np.frombuffer(raw, dtype=">u2", count=rows * cols, offset=pos)
    sidecar = str(path) + ".txt"
    try:
        meta = read_key_values(sidecar, {"vmin": float, "vmax": float})
    except ConfigError as exc:
        raise FormatError(str(exc)) from exc
    if meta.keys() != {"vmin", "vmax"}:
        raise FormatError(f"{sidecar}: needs vmin and vmax, got {sorted(meta)}")
    vmin, vmax = meta["vmin"], meta["vmax"]
    values = vmin + pixels.astype(np.float64).reshape(rows, cols) * ((vmax - vmin) / PGM_MAXVAL)
    return values


def read_key_values(path, parsers: dict, bare: list | None = None) -> dict:
    """The key=value lines of the text file ``path``, each value passed
    through ``parsers[key]``, in file order.

    Blank lines and lines starting with '#' are skipped; keys and values
    are stripped.  A line without '=' is appended to ``bare`` when the
    caller passes that list and is an error otherwise.  Every error (such
    a line, a key not in ``parsers``, a repeated key, a parser's
    ValueError) is a ConfigError naming ``path:line``.
    """
    entries = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = stripped.partition("=")
        key = key.strip()
        if not eq and bare is not None:
            bare.append(stripped)
        elif not eq:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        elif key not in parsers:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        elif key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            try:
                entries[key] = parsers[key](value.strip())
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from exc
    return entries


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "on", "yes"):
        return True
    if lowered in ("0", "false", "off", "no"):
        return False
    raise ValueError(f"cannot parse boolean value {text!r}")


# scenario-file key -> (name it goes by, parser); make_scenario holds the defaults
_SCENARIO_KEYS = {
    "n_x": ("n", int),
    "extent": ("extent", float),
    "n_s": ("n_s", int),
    "radius": ("radius", float),
    "n_t": ("n_t", int),
    "t_final": ("t_final", float),
    "sound_speed": ("sound_speed", float),
    "arc_start": ("arc_start", float),
    "arc_end": ("arc_end", float),
    "seed": ("seed", int),
    "directivity": ("directivity_enabled", _parse_bool),
}
_CUSTOM_KEYS = ("arc_start", "arc_end")
_SCENARIO_PARSERS = {"label": str, **{key: parse for key, (_, parse) in _SCENARIO_KEYS.items()}}


def load_scenario_cfg(path):
    """Parse a key=value scenario file; returns (Scenario, seed or None).

    Lines starting with '#' (and blank lines) are ignored.  Unknown keys
    are rejected so typos do not silently fall back to defaults; keys
    left out take the defaults of :func:`make_scenario`.
    """
    entries = read_key_values(path, _SCENARIO_PARSERS)
    label = entries.pop("label", None)
    if label is None:
        raise ConfigError(f"{path}: missing required key 'label'")
    if label != "custom" and not entries.keys().isdisjoint(_CUSTOM_KEYS):
        raise ConfigError(f"{path}: {' and '.join(_CUSTOM_KEYS)} need label=custom")
    args = {name: entries[key] for key, (name, _) in _SCENARIO_KEYS.items() if key in entries}
    seed = args.pop("seed", None)
    args["arc"] = (args.pop("arc_start", HALF_CIRCLE_START), args.pop("arc_end", HALF_CIRCLE_END))
    return make_scenario(label, **args), seed


def save_scenario_cfg(path, scenario: Scenario, seed: int | None = None, arc=None):
    """Write a scenario back out as key=value text.

    Custom-arc scenarios must pass ``arc`` = (start, end) in radians since
    the detector array alone does not pin down the original arc bounds.
    """
    lines = [
        "# measurement configuration",
        f"label={scenario.label}",
        f"n_x={scenario.grid.n}",
        f"extent={scenario.grid.extent!r}",
        f"n_s={scenario.detectors.n_s}",
        f"radius={scenario.detectors.radius!r}",
        f"n_t={scenario.time.n_t}",
        f"t_final={scenario.time.t_final!r}",
        f"directivity={'true' if scenario.directivity_enabled else 'false'}",
        f"sound_speed={scenario.sound_speed!r}",
    ]
    if scenario.label == "custom":
        if arc is None:
            raise ConfigError("custom scenarios need explicit arc=(start, end) to be saved")
        lines.append(f"arc_start={float(arc[0])!r}")
        lines.append(f"arc_end={float(arc[1])!r}")
    if seed is not None:
        lines.append(f"seed={int(seed)}")
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


class Dataset:
    """A directory of paired phantom/data tensors plus scenario and manifest.

    Layout: `scenario.cfg`, `manifest.txt`, and per sample
    `phantom_%05d.patb` + `data_%05d.patb`.  The manifest pins the split
    tag and the ordered sample stems; :meth:`validate` cross-checks it
    against the actual listing.  ``provenance`` holds what produced the
    samples, any of: the effective base seed (sample i is the phantom of
    seed + i), the relative noise level, the simulator's quadrature
    (``n_angles``, ``n_r_per_dt``), the threads that gathered its detector
    units (``workers``, which does not change the data) and the package,
    numpy and scipy versions.  Every key is optional, so a manifest
    written before a key was added still opens.
    """

    MANIFEST = "manifest.txt"
    SCENARIO = "scenario.cfg"
    PROVENANCE = {"seed": int, "noise": float, "n_angles": int, "n_r_per_dt": int, "workers": int,
                  "version": str, "numpy": str, "scipy": str}
    _MANIFEST_KEYS = {"split": str, "count": int, "scenario": str, **PROVENANCE}
    _SAMPLE_FILE = re.compile(r"(?:phantom|data)_(\d{5,})\.patb")

    def __init__(self, root, scenario: Scenario, split: str, stems: list, provenance: dict | None = None):
        self.root = Path(root)
        self.scenario = scenario
        self.split = split
        self.stems = list(stems)
        self.provenance = dict(provenance or {})

    def __len__(self):
        return len(self.stems)

    @staticmethod
    def stem(index: int) -> str:
        return f"phantom_{index:05d}"

    @staticmethod
    def sample_paths(root, stem: str) -> tuple[Path, Path]:
        """The phantom and data files of the sample ``stem`` under ``root``."""
        root = Path(root)
        return root / f"{stem}.patb", root / f"{stem.replace('phantom', 'data')}.patb"

    @classmethod
    def remove_samples_from(cls, root, count: int):
        """Delete the sample files under ``root`` numbered ``count`` or more."""
        for path in Path(root).glob("*.patb"):
            match = cls._SAMPLE_FILE.fullmatch(path.name)
            if match and int(match.group(1)) >= count:
                path.unlink()

    @classmethod
    def open(cls, root) -> "Dataset":
        root = Path(root)
        scenario, _ = load_scenario_cfg(root / cls.SCENARIO)
        stems = []
        entries = read_key_values(root / cls.MANIFEST, cls._MANIFEST_KEYS, bare=stems)
        split, count = entries.get("split"), entries.get("count")
        provenance = {key: value for key, value in entries.items() if key in cls.PROVENANCE}
        if split not in ("train", "test"):
            raise ConfigError(f"{root / cls.MANIFEST}: missing or bad split tag")
        if count != len(stems):
            raise ConfigError(f"{root / cls.MANIFEST}: count={count} but {len(stems)} stems listed")
        dataset = cls(root, scenario, split, stems, provenance)
        dataset.validate()
        return dataset

    def validate(self):
        if self.stems != sorted(self.stems):
            raise ConfigError(f"{self.root}: manifest stems out of order")
        for stem in self.stems:
            for path in self.sample_paths(self.root, stem):
                if not path.is_file():
                    raise FileNotFoundError(path)

    def write_manifest(self):
        lines = [f"split={self.split}", f"count={len(self.stems)}", f"scenario={self.SCENARIO}"]
        lines.extend(f"{key}={value}" for key, value in self.provenance.items())
        lines.extend(self.stems)
        atomic_write_bytes(self.root / self.MANIFEST, ("\n".join(lines) + "\n").encode("ascii"))

    def load_pair(self, index: int):
        """(SensorData, Image) for one sample, validated against the scenario."""
        phantom_path, data_path = self.sample_paths(self.root, self.stems[index])
        phantom = read_patb(phantom_path)
        data = read_patb(data_path)
        image = Image(self.scenario.grid, phantom)
        sensor = SensorData(data, self.scenario.time, self.scenario.detectors)
        return sensor, image

    def pairs(self):
        return [self.load_pair(i) for i in range(len(self))]


def write_sample(root, index: int, phantom: Image, data: SensorData):
    """Write one phantom/data pair; each file lands atomically."""
    phantom_path, data_path = Dataset.sample_paths(root, Dataset.stem(index))
    write_patb(phantom_path, phantom.values)
    write_patb(data_path, data.values)
