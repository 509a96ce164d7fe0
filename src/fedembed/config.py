"""Experiment configuration: dataclasses, flat key=value config files,
validation against the supported hyperparameter grids."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from .backbones import BACKBONE_KINDS
from .data import FEATURE_SOURCES, LOG_SOURCES
from .privacy import DP_MODES, DpConfig
from .strategies import STRATEGY_INITS, STRATEGY_KINDS, StrategyConfig

# Values outside these grids are rejected unless the config is marked unsafe.
GRIDS = {
    "strategy.rank": {2, 3, 4, 5, 6},
    "strategy.levels": {2, 3, 4, 5, 6},
    "strategy.d_r": {32, 64, 128, 256, 512},
    "strategy.d_h": {256, 512, 1024},
    "strategy.n_hashes": {1, 2, 3, 4},
}


class ConfigError(ValueError):
    pass


@dataclass
class DataConfig:
    source: str = "synthetic"          # synthetic | ml1m | amazon_csv
    path: str = ""
    users: int = 200                   # synthetic source only
    items: int = 100
    user_clusters: int = 8
    item_clusters: int = 8
    min_interactions: int = 8
    max_interactions: int = 40
    affinity: float = 0.85
    feature_source: str = "synthetic"  # synthetic | file
    feature_path: str = ""
    feature_dim: int = 768


@dataclass
class FederationConfig:
    sample_ratio: float = 0.10
    local_epochs: int = 2
    rounds: int = 1000
    warmup_rounds: int = 10
    lr: float = 0.01
    batch_size: int = 256
    neg_per_pos: int = 4
    aggregation: str = "mean"          # mean | weighted
    checkpoint_every: int = 0


@dataclass
class EvalConfig:
    ks: tuple[int, ...] = (10, 20)
    negatives: int = 99                # -1 ranks against all non-train items
    every: int = 50


@dataclass
class PretrainSection:
    enabled: bool = True
    hidden: tuple[int, ...] = (512, 256, 128)
    steps: int = 10_000
    lr: float = 1e-3
    batch_size: int = 256
    rq_steps: int = 2_000
    beta: float = 0.25


@dataclass
class ExperimentConfig:
    backbone: str = "fedmf"
    k: int = 32
    user_scale: float = 0.1    # init range of local user embeddings
    seed: int = 0
    out_dir: str = "runs/default"
    unsafe: bool = False
    data: DataConfig = field(default_factory=DataConfig)
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    federation: FederationConfig = field(default_factory=FederationConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    dp: DpConfig = field(default_factory=DpConfig)
    pretrain: PretrainSection = field(default_factory=PretrainSection)

    def validate(self) -> None:
        for key, allowed in (("backbone", BACKBONE_KINDS), ("strategy.kind", STRATEGY_KINDS),
                             ("strategy.init", STRATEGY_INITS), ("dp.mode", DP_MODES),
                             ("federation.aggregation", ("mean", "weighted")),
                             ("data.source", LOG_SOURCES),
                             ("data.feature_source", FEATURE_SOURCES)):
            _require(self, key, lambda v: v in allowed, f"one of {', '.join(allowed)}")
        # the files a run reads; features are read only to pre-train
        _require(self, "data.path", lambda v: v or self.data.source == "synthetic",
                 f"a file path when data.source is {self.data.source}")
        _require(self, "data.feature_path", lambda v: v or self.data.feature_source != "file"
                 or not self.pretrain.enabled,
                 "a file path when data.feature_source is file and pretrain.enabled")
        self._validate_numbers()
        if self.unsafe:
            return
        for key, allowed in GRIDS.items():
            section, name = key.split(".")
            value = getattr(getattr(self, section), name)
            if value not in allowed:
                raise ConfigError(f"{key}: {value} outside supported grid "
                                  f"{sorted(allowed)} (use unsafe=true to override)")

    def _validate_numbers(self) -> None:
        """Numeric fields must be in range before anything runs, whatever
        `unsafe` says; a bad one raises a `ConfigError` naming its key."""
        for key in ("k", "data.users", "data.items", "data.user_clusters",
                    "data.item_clusters", "data.feature_dim", "strategy.rank",
                    "strategy.d_h", "strategy.n_hashes", "strategy.expansion",
                    "strategy.levels", "strategy.d_r", "federation.batch_size",
                    "pretrain.batch_size", "eval.every"):
            _require(self, key, lambda v: v >= 1, ">= 1")
        for key in ("user_scale", "data.min_interactions", "federation.rounds",
                    "federation.warmup_rounds", "federation.local_epochs",
                    "federation.neg_per_pos", "federation.checkpoint_every", "dp.delta",
                    "pretrain.steps", "pretrain.rq_steps", "pretrain.beta"):
            _require(self, key, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
        for key in ("federation.lr", "pretrain.lr"):
            _require(self, key, lambda v: math.isfinite(v) and v > 0, "finite and > 0")
        # the checkpoint stores p and the hash parameters as u32
        _require(self, "strategy.p", lambda v: self.strategy.d_h <= v < 2**32,
                 f">= strategy.d_h ({self.strategy.d_h}) and < 2**32")
        _require(self, "data.affinity", lambda v: 0 <= v <= 1, "in [0, 1]")
        _require(self, "federation.sample_ratio", lambda v: 0 < v <= 1, "in (0, 1]")
        _require(self, "dp.clip", lambda v: v is None or v > 0, "> 0, or empty for none")
        _require(self, "data.min_interactions", lambda v: v <= self.data.max_interactions,
                 f"<= data.max_interactions ({self.data.max_interactions})")
        _require(self, "data.item_clusters", lambda v: v <= self.data.items,
                 f"<= data.items ({self.data.items})")
        _require(self, "eval.ks", lambda ks: ks and len(set(ks)) == len(ks) and min(ks) >= 1,
                 "a non-empty list of distinct cutoffs >= 1")
        _require(self, "eval.negatives", lambda v: v >= -1, ">= 0, or -1 for all items")
        _require(self, "pretrain.hidden", lambda v: all(h >= 1 for h in v), "layer sizes >= 1")

    def to_text(self) -> str:
        """Canonical flat key=value dump (sorted); input format and hash basis.

        `out_dir` is excluded: it never affects results, so neither artifacts
        nor the config hash should depend on it.
        """
        lines = []
        for key, obj, attr in _iter_items(self):
            if key == "out_dir":
                continue
            v = getattr(obj, attr)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            elif isinstance(v, bool):
                v = str(v).lower()
            elif v is None:
                v = ""
            lines.append(f"{key} = {v}")
        return "\n".join(sorted(lines)) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


def _require(cfg: ExperimentConfig, key: str, ok, need: str) -> None:
    value = cfg
    for name in key.split("."):
        value = getattr(value, name)
    if not ok(value):
        raise ConfigError(f"{key}: must be {need}, got {value!r}")


def _iter_items(cfg: ExperimentConfig):
    """`(key, object, attribute)` for each top-level field and each `section.name`."""
    for f in fields(cfg):
        section = getattr(cfg, f.name)
        if not is_dataclass(section):
            yield f.name, cfg, f.name
            continue
        for g in fields(section):
            yield f"{f.name}.{g.name}", section, g.name


def _coerce(default, raw: str):
    """Parse `raw` to the type of the field's declared default. A None
    default marks an optional float, unset when `raw` is empty."""
    if default is None:
        return None if raw == "" else float(raw)
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected boolean, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, tuple):
        return tuple(int(x) for x in raw.split(",") if x.strip())
    if isinstance(default, str):
        return raw
    raise ValueError(f"unsupported config value type {type(default)}")


def apply_setting(cfg: ExperimentConfig, key: str, raw: str) -> None:
    for full_key, obj, attr in _iter_items(cfg):
        if full_key == key:
            default = next(f.default for f in fields(obj) if f.name == attr)
            try:
                setattr(obj, attr, _coerce(default, raw.strip()))
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
            return
    raise ConfigError(f"unknown config key {key!r}")


def load_config(path: str | Path | None = None,
                overrides: list[str] | None = None) -> ExperimentConfig:
    """Build a config from an optional key=value file plus override strings.

    Overrides use the same `section.key=value` syntax and win over the file.
    """
    cfg = ExperimentConfig()
    entries: list[tuple[str, str]] = []
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            entries.append((key.strip(), raw.strip()))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        entries.append((key.strip(), raw.strip()))
    for key, raw in entries:
        apply_setting(cfg, key, raw)
    cfg.validate()
    return cfg
