"""Run configuration: presets, config-file parsing and merging.

Config files are plain text, one ``dotted.key = value`` per line with
``#`` comments. Values are parsed as JSON when possible (numbers,
lists, booleans) and fall back to bare strings. Presets populate the
published defaults; explicit keys override presets; command-line flags
override both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .errors import ConfigError
from .pagcn import NetworkConfig
from .train import TrainConfig


@dataclass
class RunConfig:
    preset: str = "casiab"
    seed: int = 0
    use_hot: bool = True
    normalization: str = "hot"
    h_unif: float = 225.0
    phi: float = 0.1
    branches: tuple = ("joint", "angle", "bone")
    parts5_channels: tuple = (64, 64, 128)
    larger_schemes: tuple = ("upper_lower", "three_groups", "left_right", "global")
    larger_channels: int = 128
    embed_dim: int = 128
    temporal_kernel: int = 3
    attention: bool = True
    use_masks: bool = True
    subjects_per_batch: int = 4
    samples_per_subject: int = 32
    sequence_length: int = 60
    margin: float = 0.2
    ce_weight: float = 1.0
    iterations: int = 40000
    lr_init: float = 1e-5
    lr_max: float = 1e-3
    lr_final: float = 1e-8
    phase_fractions: tuple = (0.3, 0.6, 0.1)
    flip_probability: float = 0.01
    noise_probability: float = 0.3
    noise_sigma: float = 2.0
    log_interval: int = 50
    checkpoint_interval: int = 1000
    metric: str = "euclidean"
    protocol: str = None  # default: the manifest's protocol
    partition_overrides: tuple = ()  # (name, groups) pairs, see graph module

    def network_config(self, num_classes: int) -> NetworkConfig:
        return NetworkConfig(
            num_classes=num_classes,
            branches=tuple(self.branches),
            parts5_channels=tuple(self.parts5_channels),
            larger_schemes=tuple(self.larger_schemes),
            larger_channels=self.larger_channels,
            embed_dim=self.embed_dim,
            temporal_kernel=self.temporal_kernel,
            attention=self.attention,
            use_masks=self.use_masks,
            partition_overrides=tuple(self.partition_overrides),
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            subjects_per_batch=self.subjects_per_batch,
            samples_per_subject=self.samples_per_subject,
            sequence_length=self.sequence_length,
            margin=self.margin,
            ce_weight=self.ce_weight,
            iterations=self.iterations,
            lr_init=self.lr_init,
            lr_max=self.lr_max,
            lr_final=self.lr_final,
            phase_fractions=tuple(self.phase_fractions),
            flip_probability=self.flip_probability,
            noise_probability=self.noise_probability,
            noise_sigma=self.noise_sigma,
            seed=self.seed,
            log_interval=self.log_interval,
            checkpoint_interval=self.checkpoint_interval,
        )

    def echo(self) -> dict:
        return {
            "preset": self.preset,
            "seed": self.seed,
            "use_hot": self.use_hot,
            "normalization": self.normalization,
            "h_unif": self.h_unif,
            "phi": self.phi,
            "metric": self.metric,
        }


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

_TUPLE_KEYS = {"branches", "parts5_channels", "larger_schemes", "phase_fractions"}
_INT_KEYS = {
    "seed", "larger_channels", "embed_dim", "temporal_kernel",
    "subjects_per_batch", "samples_per_subject", "sequence_length",
    "iterations", "log_interval", "checkpoint_interval",
}
_FLOAT_KEYS = {
    "h_unif", "phi", "margin", "ce_weight", "lr_init", "lr_max", "lr_final",
    "flip_probability", "noise_probability", "noise_sigma",
}
_BOOL_KEYS = {"use_hot", "attention", "use_masks"}
_STR_KEYS = {"preset", "metric", "protocol", "normalization"}

# dotted config keys -> RunConfig fields
KEY_MAP = {}
for _f in (_TUPLE_KEYS | _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _STR_KEYS):
    _section = ("hot" if _f in {"use_hot", "h_unif", "phi"} else
                "network" if _f in {"branches", "parts5_channels",
                                    "larger_schemes", "larger_channels",
                                    "embed_dim", "temporal_kernel",
                                    "attention", "use_masks"} else
                "train" if _f in {"subjects_per_batch", "samples_per_subject",
                                  "sequence_length", "margin", "ce_weight",
                                  "iterations", "lr_init", "lr_max",
                                  "lr_final", "phase_fractions",
                                  "flip_probability", "noise_probability",
                                  "noise_sigma", "log_interval",
                                  "checkpoint_interval"} else
                "eval" if _f in {"metric", "protocol"} else
                "run")
    KEY_MAP[f"{_section}.{_f}"] = _f


def _coerce(fieldname: str, value):
    try:
        if fieldname in _TUPLE_KEYS:
            if isinstance(value, str):
                value = [v.strip() for v in value.split(",") if v.strip()]
            if fieldname in ("parts5_channels",):
                return tuple(int(v) for v in value)
            if fieldname == "phase_fractions":
                return tuple(float(v) for v in value)
            return tuple(str(v) for v in value)
        if fieldname in _INT_KEYS:
            return int(value)
        if fieldname in _FLOAT_KEYS:
            return float(value)
        if fieldname in _BOOL_KEYS:
            if isinstance(value, bool):
                return value
            return str(value).lower() in ("1", "true", "yes", "on")
        return str(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad value for {fieldname}: {value!r}") from e


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
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
            key, raw = (s.strip() for s in line.split("=", 1))
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            if key.startswith("graph.partition."):
                name = key[len("graph.partition."):]
                try:
                    groups = tuple(tuple(int(j) for j in g) for g in value)
                except (TypeError, ValueError) as e:
                    raise ConfigError(
                        f"{path}:{line_no}: {key} needs a list of joint-index "
                        f"lists") from e
                overrides.append((name, groups))
                continue
            if key not in KEY_MAP:
                raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
            fieldname = KEY_MAP[key]
            out[fieldname] = _coerce(fieldname, value)
    if overrides:
        out["partition_overrides"] = tuple(overrides)
    return out


def build_run_config(preset: str = None, config_file=None,
                     overrides: dict = None) -> RunConfig:
    cfg = RunConfig()
    if preset:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        cfg = replace(cfg, preset=preset, **PRESETS[preset])
    if config_file:
        cfg = replace(cfg, **parse_config_file(config_file))
    if overrides:
        clean = {k: _coerce(k, v) for k, v in overrides.items() if v is not None}
        cfg = replace(cfg, **clean)
    if cfg.normalization not in ("hot", "spine_unit", "dataset_independent"):
        raise ConfigError(f"unknown normalization {cfg.normalization!r}")
    if cfg.normalization != "hot":
        raise ConfigError(
            f"normalization {cfg.normalization!r} is a documented stub: not implemented")
    return cfg
