"""Run configuration: presets, config-file parsing and merging.

Config files are plain text, one ``dotted.key = value`` per line with
``#`` comments. Values are parsed as JSON when possible (numbers,
lists, booleans) and fall back to bare strings. Presets populate the
published defaults; explicit keys override presets; command-line flags
override both.

Each setting is declared once, as a field with a default of the
dataclass that reads it: ``hot.HotConfig``, ``EvalSettings`` (here),
``NetworkConfig`` and ``TrainConfig`` (the ``SECTIONS``). Its config key
is ``<section>.<field>`` unless the field's metadata names another
``key`` (``None``: no key of its own), and values are converted to the
type of its default (``coerce``).
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, make_dataclass, replace

from .errors import ConfigError, DataError
from .hot import HotConfig
from .pagcn import NetworkConfig
from .pose_io import PROTOCOLS
from .train import TrainConfig

METRICS = ("euclidean", "cosine")


@dataclass(frozen=True)
class EvalSettings:
    """How ``gpgait eval`` scores retrieval."""
    metric: str = "euclidean"
    protocol: str = None  # default: the manifest's protocol

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ConfigError(f"eval.metric must be one of {', '.join(METRICS)}, "
                              f"got {self.metric!r}")
        if self.protocol is not None and self.protocol not in PROTOCOLS:
            raise ConfigError(f"eval.protocol must be one of {', '.join(PROTOCOLS)}, "
                              f"got {self.protocol!r}")


SECTIONS = {"hot": HotConfig, "eval": EvalSettings,
            "network": NetworkConfig, "train": TrainConfig}


def _settings(cls) -> list:
    """The fields of a section dataclass that are settings: those with a
    default (``NetworkConfig.num_classes`` comes from the data)."""
    return [f for f in fields(cls) if f.default is not MISSING]


# setting name -> (config key or None, its field)
_DECLARED = {f.name: (f.metadata.get("key", f"{section}.{f.name}"), f)
             for section, cls in SECTIONS.items() for f in _settings(cls)}
# dotted config keys -> RunConfig fields
KEY_MAP = {key: name for name, (key, _f) in _DECLARED.items() if key}

_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def coerce(default, value):
    """``value`` converted to the type of a setting's declared ``default``;
    ``TypeError``/``ValueError`` if it does not fit.

    A tuple takes a list or a comma-separated string, each item converted
    like the default's first one (an empty default holds names and
    nested lists of integers: partition groups). A bool takes
    true/false, 1/yes/on or 0/no/off; an int takes integral values only;
    a float any number but a bool; a string (or a ``None`` default) any
    value, ``None`` kept.
    """
    if isinstance(default, tuple):
        if isinstance(value, str):
            value = [v.strip() for v in value.split(",") if v.strip()]
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        if default:
            return tuple(coerce(default[0], v) for v in value)
        # partition_overrides: scheme names and nested joint-index lists
        return tuple(v if isinstance(v, str) else
                     coerce((), v) if isinstance(v, (list, tuple)) else coerce(0, v)
                     for v in value)
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, str)) and str(value).lower() in _TRUE + _FALSE:
            return str(value).lower() in _TRUE
        raise ValueError(f"expected true or false, got {value!r}")
    if isinstance(default, (int, float)) and isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    if isinstance(default, int):
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
        return int(value)
    if isinstance(default, float):
        return float(value)
    return None if value is None else str(value)


def build_section(cls, values: dict, **given):
    """``cls`` from ``values``, a mapping of setting name to value (a
    checkpoint header's section or a ``RunConfig``'s fields), each
    converted by ``coerce``; settings ``values`` lacks keep their
    defaults, and ``given`` supplies the fields that are not settings."""
    return cls(**given, **{f.name: coerce(f.default, values[f.name])
                           for f in _settings(cls) if f.name in values})


@dataclass
class RunConfig(make_dataclass(
        "Settings", [("preset", str, "casiab")]
        + [(name, f.type, field(default=f.default))
           for name, (_key, f) in _DECLARED.items()])):
    """Every setting of a run as one flat record, plus the preset it
    started from. Building one checks the ``hot`` and ``eval`` values."""

    def __post_init__(self):
        self.hot_config()
        self.section(EvalSettings)

    def section(self, cls, **given):
        return build_section(cls, vars(self), **given)

    def hot_config(self) -> HotConfig:
        return self.section(HotConfig)

    def network_config(self, num_classes: int) -> NetworkConfig:
        return self.section(NetworkConfig, num_classes=num_classes)

    def train_config(self) -> TrainConfig:
        return self.section(TrainConfig)

    def echo(self) -> dict:
        """The leading entries of every checkpoint header."""
        return {"preset": self.preset, "seed": self.seed,
                **vars(self.hot_config()), "metric": self.metric}


# published training setups; the toy preset is sized to finish in
# minutes on one CPU core
PRESETS = {
    "casiab": dict(
        parts5_channels=(64, 64, 128), sequence_length=60, iterations=40000,
        subjects_per_batch=4, samples_per_subject=32,
    ),
    "gait3d": dict(
        parts5_channels=(64, 64, 128), sequence_length=60, iterations=60000,
        subjects_per_batch=32, samples_per_subject=4,
    ),
    "oumvlp": dict(
        parts5_channels=(64, 128, 128, 128), sequence_length=30,
        iterations=150000, subjects_per_batch=32, samples_per_subject=16,
    ),
    "grew": dict(
        parts5_channels=(64, 128, 128, 128), sequence_length=60,
        iterations=150000, subjects_per_batch=32, samples_per_subject=8,
    ),
    "toy": dict(
        parts5_channels=(16, 32), larger_schemes=("global",),
        larger_channels=32, embed_dim=32, sequence_length=20,
        iterations=300, subjects_per_batch=4, samples_per_subject=2,
        log_interval=25, checkpoint_interval=150, noise_sigma=1.0,
    ),
}

def _converted(name: str, value, where: str = ""):
    """A setting's value by its field name; ``ConfigError`` naming its
    key when the value does not fit the declared type."""
    key, f = _DECLARED[name]
    try:
        return coerce(f.default, value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}bad value for {key}: {value!r} ({e})") from e


def parse_config_file(path) -> dict:
    """Dotted-key config text -> {RunConfig field: value}.

    Keys of the form ``graph.partition.<scheme> = [[...], ...]`` replace
    the named partition scheme's joint groups.
    """
    out = {}
    overrides = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{line_no}: "
            if "=" not in line:
                raise ConfigError(f"{where}expected 'key = value'")
            key, raw = (s.strip() for s in line.split("=", 1))
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            if key.startswith("graph.partition."):
                try:
                    groups = tuple(tuple(coerce(0, j) for j in g) for g in value)
                except (TypeError, ValueError) as e:
                    raise ConfigError(
                        f"{where}{key} needs a list of joint-index lists") from e
                overrides.append((key[len("graph.partition."):], groups))
                continue
            if key not in KEY_MAP:
                hint = "; choose a preset with --preset" if key == "run.preset" else ""
                raise ConfigError(f"{where}unknown config key {key!r}{hint}")
            out[KEY_MAP[key]] = _converted(KEY_MAP[key], value, where)
    if overrides:
        out["partition_overrides"] = tuple(overrides)
    return out


def build_run_config(preset: str = None, config_file=None,
                     overrides: dict = None) -> RunConfig:
    """The defaults, then the preset, the config file and the
    ``overrides`` (setting names to values; ``None`` reads as unset), each
    over the one before."""
    cfg = RunConfig()
    if preset:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        cfg = replace(cfg, preset=preset, **PRESETS[preset])
    if config_file:
        cfg = replace(cfg, **parse_config_file(config_file))
    if overrides:
        cfg = replace(cfg, **{name: _converted(name, value)
                              for name, value in overrides.items()
                              if value is not None})
    return cfg


def read_header(header: dict, path) -> tuple:
    """(RunConfig, NetworkConfig) a checkpoint header was written from.

    The settings come from the header's ``RunConfig.echo`` entries and
    its ``network`` and ``train`` sections, each value converted and
    checked as a config file's is; an entry the header lacks keeps its
    default. The network section, with the classifier's ``num_classes``,
    is required. Anything that does not fit is a ``DataError`` naming
    ``path``.
    """
    network, train = header.get("network"), header.get("train", {})
    try:
        if not isinstance(network, dict) or "num_classes" not in network:
            raise ValueError("no network section with its num_classes")
        if not isinstance(train, dict):
            raise ValueError(f"train section {train!r} is not an object")
        values = {name: _converted(name, value) for section in (header, network, train)
                  for name, value in section.items() if name in _DECLARED}
        if "preset" in header:
            values["preset"] = coerce("", header["preset"])
        run_cfg = RunConfig(**values)
        net_cfg = run_cfg.network_config(coerce(0, network["num_classes"]))
        run_cfg.train_config()
    except (ConfigError, TypeError, ValueError) as e:
        raise DataError(f"{path}: malformed header: {e}") from e
    return run_cfg, net_cfg
