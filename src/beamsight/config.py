"""Configuration objects and the INI loader used by every pipeline stage.

All stage inputs are plain dataclasses with defaults; the INI files only
need to list the values they override.  One file may carry all sections,
so a single experiment config also serves as the scenario config for the
``simulate`` stage.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError

BBOX_FEATURE_SIZE = 6     # [x_cent, y_cent, x1, y1, x2, y2] per detection box
MAX_BEAMS = 2**15 - 1     # the largest 1-based beam index the dataset's <i2 beam column holds
MAX_FRAMES = 2**32        # the most frames of a trace: frames.cols numbers them 0..2**32 - 1


def cpu_workers() -> int:
    """2 where a second worker, the seed pass's forked process, can run beside
    this one with CPUs of its own for its BLAS threads, else 1.  OpenBLAS runs
    OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else one thread per CPU, and
    its idle threads spin: two workers with more threads than CPUs run slower
    than one.  No option sets it: ``taskset -c 0`` leaves one CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or ""
    return 2 if cpus >= 2 * (int(blas) if blas.isdigit() and int(blas) > 0 else cpus) else 1


def _check_numbers(config) -> None:
    """DataError naming a float field that is NaN (which every range check lets pass)
    or inf, or an int field that a signed 64-bit integer cannot hold."""
    for f in dataclasses.fields(config):
        if isinstance(value := getattr(config, f.name), float) and not math.isfinite(value):
            raise DataError(f"{f.name} = {value} is not a finite number")
        if isinstance(value, int) and not -2**63 <= value < 2**63:
            raise DataError(f"{f.name} = {value} does not fit a signed 64-bit integer")


@dataclass
class ScenarioConfig:
    # [street]
    lanes: int = 6
    lane_width: float = 3.5
    street_length: float = 200.0
    wall_setback: float = 10.0  # building faces, measured from the street edges
    # [vehicles]
    cars: int = 50
    buses: int = 8
    trucks: int = 2
    min_speed: float = 6.0
    max_speed: float = 14.0
    # [basestations]
    bs_separation: float = 80.0
    bs_setback: float = 6.0
    bs_height: float = 4.5
    # [cameras]
    image_width: int = 1280
    image_height: int = 720
    hfov_deg: float = 70.0
    vfov_deg: float = 42.0
    pitch_deg: float = -10.0
    side_yaw_deg: float = 50.0
    # [phy]
    elements: int = 32
    beams: int = 64
    subcarriers: int = 64
    cyclic_prefix: int = 16
    sample_time: float = 1e-7
    carrier_hz: float = 28e9
    spacing_wavelengths: float = 0.5
    reflection_loss_db: float = 10.0
    # [detector]
    p_miss: float = 0.0
    jitter_sigma: float = 0.0
    p_false_positive: float = 0.0
    min_visible_fraction: float = 0.3
    # [simulation]
    seed: int = 1
    dt: float = 0.1

    def __post_init__(self):
        _check_numbers(self)
        if self.lanes < 1 or self.street_length <= 0 or self.lane_width <= 0:
            raise DataError("street geometry must be positive")
        if self.dt <= 0:
            raise DataError("frame period dt must be > 0")
        width = self.lanes * self.lane_width
        if self.bs_separation <= width + 2 * self.bs_setback:
            raise DataError(
                "basestation separation must exceed the cross-street distance "
                f"({width + 2 * self.bs_setback:.1f} m)"
            )
        for name in ("cars", "buses", "trucks", "seed"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")
        for name in ("elements", "beams", "subcarriers", "cyclic_prefix", "image_width",
                     "image_height"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")
        if self.beams > MAX_BEAMS:
            raise DataError(f"beams must be <= {MAX_BEAMS}, the dataset's largest beam index")
        if not (0 < self.hfov_deg < 180 and 0 < self.vfov_deg < 180):
            raise DataError("hfov_deg and vfov_deg must lie in (0, 180)")
        if self.spacing_wavelengths <= 0:
            raise DataError("spacing_wavelengths must be > 0")
        if not 0 <= self.min_speed <= self.max_speed:
            raise DataError("min_speed and max_speed must satisfy 0 <= min_speed <= max_speed")
        if self.sample_time <= 0 or self.carrier_hz <= 0:
            raise DataError("sample_time and carrier_hz must be > 0")
        for name in ("p_miss", "p_false_positive", "min_visible_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise DataError(f"{name} must be in [0, 1]")
        if self.jitter_sigma < 0:
            raise DataError("jitter_sigma must be >= 0")


@dataclass
class DatasetConfig:
    # [dataset]
    quota: int = 300          # pivotal and non-pivotal sequences per camera
    seed: int = 7
    observed: int = 8         # observation interval length
    future: int = 5           # future window length
    split_fraction: float = 0.5
    overlap_cameras: tuple[int, int] = (3, 4)

    def __post_init__(self):
        _check_numbers(self)
        if self.observed < 1 or self.future < 1:
            raise DataError("observed and future window lengths must be >= 1")
        if not 0.0 < self.split_fraction < 1.0:
            raise DataError("split_fraction must be in (0, 1)")
        for name in ("quota", "seed"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")
        if [(c - 1) // 3 for c in self.overlap_cameras] != [0, 1]:
            raise DataError(f"overlap_cameras {self.overlap_cameras} must be a camera "
                            "of basestation 1 (1-3), then one of basestation 2 (4-6)")


@dataclass
class TrainConfig:
    # [train]
    hidden: int = 64
    embed_dim: int = 256
    layers: int = 2
    learning_rate: float = 1e-3
    batch_size: int = 200
    epochs: int = 100
    dropout: float = 0.3
    seed: int = 3
    table_seed: int = 11      # beam embedding lookup table

    def __post_init__(self):
        _check_numbers(self)
        if self.hidden < 1 or self.layers < 1:
            raise DataError("hidden and layers must be >= 1")
        if self.embed_dim < BBOX_FEATURE_SIZE:
            raise DataError(f"embed_dim must be >= {BBOX_FEATURE_SIZE} to hold "
                            "one detection box")
        if self.learning_rate <= 0:
            raise DataError("learning rate must be > 0")
        if not 0.0 <= self.dropout < 1.0:
            raise DataError("dropout must be in [0, 1)")
        if self.batch_size < 1 or self.epochs < 1:
            raise DataError("batch_size and epochs must be >= 1")
        for name in ("seed", "table_seed"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")


@dataclass
class ExperimentConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    # [experiment]
    frames: int = 700

    def __post_init__(self):
        _check_numbers(self)
        if not 1 <= self.frames <= MAX_FRAMES:
            raise DataError(f"frames must be in 1..{MAX_FRAMES}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        import hashlib

        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# The scenario spreads over these INI sections; every other config reads its
# plain fields from one section named after it.
_SCENARIO_SECTIONS = {
    "street": ("lanes", "lane_width", "street_length", "wall_setback"),
    "vehicles": ("cars", "buses", "trucks", "min_speed", "max_speed"),
    "basestations": ("bs_separation", "bs_setback", "bs_height"),
    "cameras": ("image_width", "image_height", "hfov_deg", "vfov_deg",
                "pitch_deg", "side_yaw_deg"),
    "phy": ("elements", "beams", "subcarriers", "cyclic_prefix", "sample_time",
            "carrier_hz", "spacing_wavelengths", "reflection_loss_db"),
    "detector": ("p_miss", "jitter_sigma", "p_false_positive", "min_visible_fraction"),
    "simulation": ("seed", "dt"),
}


def _convert(value: str, target_type):
    if target_type is int:
        return int(value)
    if target_type is float:
        return float(value)
    if target_type is tuple:
        return tuple(int(v) for v in value.replace(",", " ").split())
    return value


def _read_ini(path: str | Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    path = Path(path)
    if not path.is_file():
        raise DataError(f"config file not found: {path}")
    try:
        with path.open() as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise DataError(f"malformed config file {path}: {exc}") from exc
    return parser


def _plain_fields(cls) -> dict[str, type]:
    """Option name -> type for every field of ``cls`` with a plain default."""
    return {f.name: type(f.default) for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


def _construct(path, cls, fields: dict):
    try:
        return cls(**fields)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _load(path, cls, sections: dict[str, tuple[str, ...]] | str, **fields):
    """Build ``cls`` from INI sections; every error names the file.

    ``sections`` maps section names to their options, or names the one
    section that holds every field of ``cls`` with a plain default.
    """
    parser = _read_ini(path)
    types = _plain_fields(cls)
    if isinstance(sections, str):
        sections = {sections: tuple(types)}
    for section, options in sections.items():
        if not parser.has_section(section):
            continue
        for option in parser.options(section):
            if option not in options:
                raise DataError(f"{path}: unknown option [{section}] {option}")
            raw = parser.get(section, option)
            try:
                fields[option] = _convert(raw, types[option])
            except ValueError as exc:
                raise DataError(f"{path}: [{section}] {option} = {raw!r} is not "
                                f"a valid {types[option].__name__}") from exc
    return _construct(path, cls, fields)


def load_scenario_config(path: str | Path) -> ScenarioConfig:
    return _load(path, ScenarioConfig, _SCENARIO_SECTIONS)


def load_dataset_config(path: str | Path) -> DatasetConfig:
    return _load(path, DatasetConfig, "dataset")


def load_train_config(path: str | Path) -> TrainConfig:
    return _load(path, TrainConfig, "train")


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    return _load(path, ExperimentConfig, "experiment",
                 scenario=load_scenario_config(path),
                 dataset=load_dataset_config(path),
                 train=load_train_config(path))


def scenario_from_json(path, data) -> ScenarioConfig:
    """The scenario echoed in a trace manifest: every option, no other key.

    ``path`` names the manifest in every error.
    """
    types = _plain_fields(ScenarioConfig)
    if not isinstance(data, dict) or data.keys() != types.keys():
        known = data.keys() if isinstance(data, dict) else set()
        raise DataError(f"{path}: scenario keys differ from the scenario config: "
                        f"unknown {sorted(known - types.keys())}, "
                        f"missing {sorted(types.keys() - known)}")
    for key, value in data.items():
        if type(value) not in ((int,) if types[key] is int else (int, float)):
            raise DataError(f"{path}: scenario {key} = {value!r} is not "
                            f"a valid {types[key].__name__}")
    return _construct(path, ScenarioConfig, data)
