"""Experiment configuration: JSON file plus flag overrides, validated with
field-path diagnostics and echoed back in canonical form.

The dataclasses below are the one statement of every setting's name, type
and default (a default the domain object already holds is taken from it);
`from_dict` walks their fields. Ranges are checked where the values are used:
each section builds the domain object it feeds (a loss spec, the SGD and
schedule settings, the search settings, the random schedule's factor range,
a synthetic-data recipe), and the few
settings no such object takes are checked in their config dataclass.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Literal, get_args, get_origin, get_type_hints

from .contracts import ContractViolation, require
from .datasets import SyntheticSpec
from .margin_losses import MarginKind, MarginSpec
from .numerics import RngStream
from .sgd_trainer import LrSchedule, SgdConfig
# The search choices are checked by SearchSettings; the command line offers
# them from here.
from .search_engine import (FACTOR_TRANSFORMS, OUTER_OPTIMIZERS, SCORE_GRAD_MODES,
                            FactorRange, SearchDistribution, SearchSettings)

LOSS_KINDS = tuple(kind.value for kind in MarginKind)
LOSS_ALIASES = {"am": "additive", "arc": "additive-angular"}
# The knobs each loss kind takes; the rest of the loss section is unused.
LOSS_KNOBS = {MarginKind.PLAIN: (), MarginKind.ANGULAR: ("m1",),
              MarginKind.ADDITIVE_ANGULAR: ("m2",), MarginKind.ADDITIVE: ("m3",),
              MarginKind.COMBINED: ("m1", "m2", "m3"), MarginKind.UNIFIED: ("a",)}
Reward = Literal["verification", "classification"]
REWARD_KINDS = get_args(Reward)


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class DatasetConfig:
    path: str | None = None
    classes: int = 50
    dim: int = 32
    samples_per_class: int = 40
    noise_sigma: float = 0.35
    train_frac: float = 0.8
    n_pairs: int = 2000

    def __post_init__(self):
        require(0.0 < self.train_frac < 1.0, "train_frac must lie in (0, 1)")
        require(self.n_pairs >= 2 and self.n_pairs % 2 == 0, "n_pairs must be even and >= 2")


@dataclass(frozen=True)
class ModelConfig:
    hidden: tuple[int, ...] = (128,)
    embedding: int = 64
    scale: float = 32.0

    def __post_init__(self):
        require(all(width >= 1 for width in self.hidden), "hidden widths must be >= 1")
        require(self.embedding >= 1, "embedding must be >= 1")
        require(self.scale > 0, "scale must be > 0")


@dataclass(frozen=True)
class ScheduleConfig:
    epochs: int = 30
    drop_epochs: tuple[int, ...] = (15, 25)
    drop_factor: float = LrSchedule.drop_factor


@dataclass(frozen=True)
class LossConfig:
    kind: Literal[LOSS_KINDS] = field(default="plain", metadata={"aliases": LOSS_ALIASES})
    m1: int = 2
    m2: float = 0.5
    m3: float = 0.35
    a: float = 0.0


@dataclass(frozen=True)
class SearchConfig:
    mu: float = -10.0
    sigma: float = SearchDistribution.sigma
    eta: float = SearchDistribution.eta
    population: int = SearchDistribution.population
    score_grad: str = SearchSettings.score_grad
    outer: str = SearchSettings.outer
    transform: str = SearchSettings.transform

    def __post_init__(self):
        require(self.transform != "identity" or self.mu <= 0,
                "mu must be <= 0 when sampling the factor directly")


@dataclass(frozen=True)
class RandomConfig:
    mag_lo: float = FactorRange.mag_lo
    mag_hi: float = FactorRange.mag_hi


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    reward: Reward = SearchSettings.reward_kind
    dataset: DatasetConfig = DatasetConfig()
    model: ModelConfig = ModelConfig()
    sgd: SgdConfig = SgdConfig()
    schedule: ScheduleConfig = ScheduleConfig()
    loss: LossConfig = LossConfig()
    search: SearchConfig = SearchConfig()
    random: RandomConfig = RandomConfig()

    def to_dict(self) -> dict:
        """Canonical echo of the experiment-defining settings."""
        return asdict(self)


def _leaf(kind, spec, value, path: str):
    """One setting checked against its annotation: int, float (finite; an
    integer is taken as a float), str, None-able, a Literal choice or a tuple."""
    if get_origin(kind) is Literal:
        aliases = spec.metadata.get("aliases", {})
        value = aliases.get(value, value) if isinstance(value, str) else value
        if value not in get_args(kind):
            also = f" (aliases {list(aliases)})" if aliases else ""
            raise ConfigError(f"{path}: must be one of {list(get_args(kind))}{also}, "
                              f"got {value!r}")
        return value
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: must be a list, got {value!r}")
        return tuple(_leaf(get_args(kind)[0], spec, item, path) for item in value)
    if value is None and type(None) in get_args(kind):
        return None
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: must be an integer, got {value!r}")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path}: must be finite, got {number!r}")
        return number
    if not isinstance(value, str):
        raise ConfigError(f"{path}: must be a string, got {value!r}")
    return value


def _section(cls, tree, path: str):
    """Build a config dataclass from a settings table; absent keys keep the
    dataclass default, unknown keys are refused."""
    if not isinstance(tree, dict):
        raise ConfigError(f"{path}: must be a table of settings"
                          if path != "config" else "config root must be a JSON object")
    known = {spec.name: spec for spec in fields(cls)}
    unknown = next((key for key in tree if key not in known), None)
    if unknown is not None:
        raise ConfigError(f"{path}.{unknown}: unknown setting")
    hints = get_type_hints(cls)
    values = {}
    for name, value in tree.items():
        if is_dataclass(hints[name]):
            values[name] = _section(hints[name], value, name)
        else:
            values[name] = _leaf(hints[name], known[name], value, f"{path}.{name}")
    return cls(**values)


def _field_paths() -> dict:
    """Dotted path of every setting by its bare name; the names are unique."""
    paths = {}
    for spec in fields(ExperimentConfig):
        if is_dataclass(spec.default):
            paths.update({leaf.name: f"{spec.name}.{leaf.name}"
                          for leaf in fields(spec.default)})
        else:
            paths[spec.name] = f"config.{spec.name}"
    return paths


_FIELD_PATHS = _field_paths()


def _config_error(exc: ContractViolation) -> ConfigError:
    """Name the setting a range check refused: the first setting its message
    names, as every check's message does."""
    message = str(exc)
    path = next((_FIELD_PATHS[word] for word in re.findall(r"\w+", message)
                 if word in _FIELD_PATHS), "config")
    return ConfigError(f"{path}: {message}")


def from_dict(data: dict) -> ExperimentConfig:
    """Validate a settings tree; unknown keys and bad ranges are refused."""
    try:
        config = _section(ExperimentConfig, data, "config")
        if config.loss.kind == "unified" and config.loss.a == 0.0:
            # The zero factor is plain softmax; canonicalize so equivalent runs
            # resolve to identical configs and identical metric files.
            config = replace(config, loss=replace(config.loss, kind="plain", a=0.0))
        RngStream(config.seed)
        SyntheticSpec(classes=config.dataset.classes, dim=config.dataset.dim,
                      samples_per_class=config.dataset.samples_per_class,
                      noise_sigma=config.dataset.noise_sigma, seed=config.seed)
        margin_spec(config.loss)
        search_settings(config)
        factor_range(config)
    except ContractViolation as exc:
        raise _config_error(exc) from None
    return config


def load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None


def set_path(tree: dict, dotted_key: str, value) -> None:
    """Plant a value at a dotted key path, creating tables along the way."""
    parts = dotted_key.split(".")
    node = tree
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{dotted_key}: {part} is not a table")
    node[parts[-1]] = value


def margin_spec(loss: LossConfig) -> MarginSpec:
    """Build the loss from its config section: the kind and its own knobs."""
    try:
        kind = MarginKind(loss.kind)
    except ValueError:
        raise ConfigError(f"loss.kind: unknown kind {loss.kind!r}") from None
    return MarginSpec(kind, **{knob: getattr(loss, knob) for knob in LOSS_KNOBS[kind]})


def schedule_of(config: ExperimentConfig) -> LrSchedule:
    return LrSchedule(initial=config.sgd.learning_rate,
                      drop_epochs=config.schedule.drop_epochs,
                      drop_factor=config.schedule.drop_factor)


def distribution_of(config: ExperimentConfig) -> SearchDistribution:
    return SearchDistribution(mu=config.search.mu, sigma=config.search.sigma,
                              eta=config.search.eta, population=config.search.population)


def factor_range(config: ExperimentConfig) -> FactorRange:
    return FactorRange(mag_lo=config.random.mag_lo, mag_hi=config.random.mag_hi)


def search_settings(config: ExperimentConfig) -> SearchSettings:
    return SearchSettings(distribution=distribution_of(config), epochs=config.schedule.epochs,
                          sgd=config.sgd, schedule=schedule_of(config),
                          reward_kind=config.reward, score_grad=config.search.score_grad,
                          outer=config.search.outer, transform=config.search.transform)
