"""Experiment configuration: JSON file plus flag overrides, validated with
field-path diagnostics and echoed back in canonical form.

The dataclasses below are the one statement of every setting's name, type,
default and range check; `from_dict` walks their fields. Two sections are
domain objects of their own modules: `loss` is margin_losses.MarginSpec and
`sgd` is sgd_trainer.SgdConfig. The seed and the synthetic-data recipe are
checked by building the objects they feed.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from typing import Literal, get_args, get_origin, get_type_hints

from .contracts import ContractViolation, require
from .datasets import SyntheticSpec
from .eval_protocols import VERIFICATION_FOLDS
from .margin_losses import MarginKind, MarginSpec
from .numerics import RngStream
from .sgd_trainer import SgdConfig

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
        require(self.n_pairs >= VERIFICATION_FOLDS and self.n_pairs % 2 == 0,
                f"n_pairs must be even and >= {VERIFICATION_FOLDS}, one per verification fold")


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
    """Step schedule: divide the learning rate by drop_factor at each drop epoch."""

    epochs: int = 30
    drop_epochs: tuple[int, ...] = (15, 25)
    drop_factor: float = 10.0

    def __post_init__(self):
        require(self.epochs >= 0, "epochs must be >= 0")
        require(self.drop_factor > 1, "drop_factor must be > 1")
        require(all(e >= 1 for e in self.drop_epochs), "drop_epochs are 1-based")
        require(all(a < b for a, b in zip(self.drop_epochs, self.drop_epochs[1:])),
                "drop_epochs must be strictly increasing")

    def lr_at(self, initial: float, epoch: int) -> float:
        """Learning rate in force during a 1-based epoch, from the initial rate."""
        require(epoch >= 1, "epochs are 1-based")
        drops = sum(1 for e in self.drop_epochs if e <= epoch)
        return initial / self.drop_factor ** drops


@dataclass(frozen=True)
class SearchConfig:
    """Gaussian proposal over the factor: initial mean mu, fixed sigma, step
    eta, and the number of candidates drawn per epoch."""

    mu: float = -10.0
    sigma: float = 0.2
    eta: float = 0.05
    population: int = 4

    def __post_init__(self):
        # Only the initial mean is checked: mu may step above 0 after
        # clipped draws.
        require(self.mu <= 0, "mu must be <= 0")
        require(self.sigma > 0, "sigma must be > 0")
        require(self.eta > 0, "eta must be > 0")
        require(self.population >= 1, "population must be >= 1")


@dataclass(frozen=True)
class RandomConfig:
    """The random schedule's factor magnitudes: log-uniform over
    [mag_lo, mag_hi], negated; both ends 0 pin the factor to 0 (plain
    softmax)."""

    mag_lo: float = 1.0
    mag_hi: float = 1e4

    def __post_init__(self):
        require(self.collapsed or 0.0 < self.mag_lo <= self.mag_hi,
                "need 0 < mag_lo <= mag_hi, or both 0")

    @property
    def collapsed(self) -> bool:
        return self.mag_lo == 0.0 and self.mag_hi == 0.0

    def draw(self, stream: RngStream) -> float:
        """One factor from `stream`'s generator; a collapsed range draws
        nothing and gives 0."""
        if self.collapsed:
            return 0.0
        magnitude = stream.generator().uniform(math.log(self.mag_lo), math.log(self.mag_hi))
        return -math.exp(magnitude)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    reward: Reward = "verification"
    dataset: DatasetConfig = DatasetConfig()
    model: ModelConfig = ModelConfig()
    sgd: SgdConfig = SgdConfig()
    schedule: ScheduleConfig = ScheduleConfig()
    loss: MarginSpec = MarginSpec()
    search: SearchConfig = SearchConfig()
    random: RandomConfig = RandomConfig()

    def to_dict(self) -> dict:
        """Canonical echo of the experiment-defining settings."""
        return asdict(self)


def _leaf(kind, spec, value, path: str):
    """One setting checked against its annotation: int, float (finite; an
    integer is taken as a float), str, None-able, a Literal or Enum choice
    (an Enum setting holds its member) or a tuple."""
    is_enum = isinstance(kind, enum.EnumMeta)
    if is_enum or get_origin(kind) is Literal:
        choices = [member.value for member in kind] if is_enum else list(get_args(kind))
        aliases = spec.metadata.get("aliases", {})
        value = aliases.get(value, value) if isinstance(value, str) else value
        if value not in choices:
            also = f" (aliases {list(aliases)})" if aliases else ""
            raise ConfigError(f"{path}: must be one of {choices}{also}, got {value!r}")
        return kind(value) if is_enum else value
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
        if config.loss.kind is MarginKind.UNIFIED and config.loss.a == 0.0:
            # The zero factor is plain softmax; canonicalize so equivalent runs
            # resolve to identical configs and identical metric files.
            config = replace(config, loss=replace(config.loss, kind=MarginKind.PLAIN, a=0.0))
        RngStream(config.seed)
        SyntheticSpec(classes=config.dataset.classes, dim=config.dataset.dim,
                      samples_per_class=config.dataset.samples_per_class,
                      noise_sigma=config.dataset.noise_sigma, seed=config.seed)
    except ContractViolation as exc:
        raise _config_error(exc) from None
    return config


def load_config_file(path) -> dict:
    """The settings tree of a JSON file, whose root must be an object."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            tree = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a JSON object")
    return tree


def set_path(tree: dict, dotted_key: str, value) -> None:
    """Plant a value at a dotted key path, creating tables along the way."""
    parts = dotted_key.split(".")
    node = tree
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{part}: must be a table of settings")
    node[parts[-1]] = value

