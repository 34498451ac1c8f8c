"""Experiment configuration: JSON file plus flag overrides, validated with
field-path diagnostics and echoed back in canonical form.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .margin_losses import MarginSpec
from .sgd_trainer import LrSchedule, SgdConfig
from .search_engine import (FACTOR_TRANSFORMS, OUTER_OPTIMIZERS, SCORE_GRAD_MODES,
                            SearchDistribution)

LOSS_KINDS = ("plain", "angular", "additive-angular", "additive", "combined", "unified")
LOSS_ALIASES = {"am": "additive", "arc": "additive-angular"}
REWARD_KINDS = ("verification", "classification")


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _section(data: dict, name: str) -> dict:
    value = data.pop(name, {})
    if not isinstance(value, dict):
        _fail(name, "must be a table of settings")
    return dict(value)


def _get_int(section: dict, path: str, key: str, default, minimum=None):
    value = section.pop(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{path}.{key}", f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    return value


def _get_float(section: dict, path: str, key: str, default):
    value = section.pop(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{path}.{key}", f"must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        _fail(f"{path}.{key}", f"must be finite, got {number!r}")
    return number


def _get_choice(section: dict, path: str, key: str, default, choices):
    value = section.pop(key, default)
    if value not in choices:
        _fail(f"{path}.{key}", f"must be one of {list(choices)}, got {value!r}")
    return value


def _reject_unknown(section: dict, path: str):
    if section:
        _fail(f"{path}.{next(iter(section))}", "unknown setting")


@dataclass(frozen=True)
class DatasetConfig:
    path: str | None = None
    classes: int = 50
    dim: int = 32
    samples_per_class: int = 40
    noise_sigma: float = 0.35
    train_frac: float = 0.8
    n_pairs: int = 2000


@dataclass(frozen=True)
class ModelConfig:
    hidden: tuple = (128,)
    embedding: int = 64
    scale: float = 32.0


@dataclass(frozen=True)
class ScheduleConfig:
    epochs: int = 30
    drop_epochs: tuple = (15, 25)
    drop_factor: float = 10.0


@dataclass(frozen=True)
class LossConfig:
    kind: str = "plain"
    m1: int = 2
    m2: float = 0.5
    m3: float = 0.35
    a: float = 0.0


@dataclass(frozen=True)
class SearchConfig:
    mu: float = -10.0
    sigma: float = 0.2
    eta: float = 0.05
    population: int = 4
    score_grad: str = "mu"
    outer: str = "sgd"
    transform: str = "identity"


@dataclass(frozen=True)
class RandomConfig:
    mag_lo: float = 1.0
    mag_hi: float = 10000.0


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    reward: str = "verification"
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


def from_dict(data: dict) -> ExperimentConfig:
    """Validate a settings tree; unknown keys and bad ranges are refused."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    data = dict(data)

    seed = _get_int(data, "config", "seed", 0, minimum=0)
    if seed >= 2 ** 64:
        _fail("config.seed", "must fit in 64 bits")
    reward = _get_choice(data, "config", "reward", "verification", REWARD_KINDS)

    sec = _section(data, "dataset")
    path = sec.pop("path", None)
    if path is not None and not isinstance(path, str):
        _fail("dataset.path", f"must be a string path, got {path!r}")
    dataset = DatasetConfig(
        path=path,
        classes=_get_int(sec, "dataset", "classes", 50, minimum=2),
        dim=_get_int(sec, "dataset", "dim", 32, minimum=1),
        samples_per_class=_get_int(sec, "dataset", "samples_per_class", 40, minimum=1),
        noise_sigma=_get_float(sec, "dataset", "noise_sigma", 0.35),
        train_frac=_get_float(sec, "dataset", "train_frac", 0.8),
        n_pairs=_get_int(sec, "dataset", "n_pairs", 2000, minimum=2))
    if dataset.noise_sigma <= 0:
        _fail("dataset.noise_sigma", "must be > 0")
    if not 0.0 < dataset.train_frac < 1.0:
        _fail("dataset.train_frac", "must lie in (0, 1)")
    if dataset.n_pairs % 2 != 0:
        _fail("dataset.n_pairs", "must be even")
    _reject_unknown(sec, "dataset")

    sec = _section(data, "model")
    hidden = sec.pop("hidden", [128])
    if (not isinstance(hidden, (list, tuple))
            or not all(isinstance(h, int) and not isinstance(h, bool) and h >= 1
                       for h in hidden)):
        _fail("model.hidden", f"must be a list of positive integers, got {hidden!r}")
    model = ModelConfig(hidden=tuple(hidden),
                        embedding=_get_int(sec, "model", "embedding", 64, minimum=1),
                        scale=_get_float(sec, "model", "scale", 32.0))
    if model.scale <= 0:
        _fail("model.scale", "must be > 0")
    _reject_unknown(sec, "model")

    sec = _section(data, "sgd")
    try:
        sgd = SgdConfig(learning_rate=_get_float(sec, "sgd", "learning_rate", 0.1),
                        momentum=_get_float(sec, "sgd", "momentum", 0.9),
                        weight_decay=_get_float(sec, "sgd", "weight_decay", 0.0005),
                        batch_size=_get_int(sec, "sgd", "batch_size", 128, minimum=1))
    except Exception as exc:
        raise ConfigError(f"sgd: {exc}") from None
    _reject_unknown(sec, "sgd")

    sec = _section(data, "schedule")
    drops = sec.pop("drop_epochs", [15, 25])
    if (not isinstance(drops, (list, tuple))
            or not all(isinstance(e, int) and not isinstance(e, bool) and e >= 1
                       for e in drops)):
        _fail("schedule.drop_epochs", f"must be a list of 1-based epochs, got {drops!r}")
    schedule = ScheduleConfig(epochs=_get_int(sec, "schedule", "epochs", 30, minimum=0),
                              drop_epochs=tuple(drops),
                              drop_factor=_get_float(sec, "schedule", "drop_factor", 10.0))
    if schedule.drop_factor <= 1:
        _fail("schedule.drop_factor", "must be > 1")
    if any(a >= b for a, b in zip(schedule.drop_epochs, schedule.drop_epochs[1:])):
        _fail("schedule.drop_epochs", "must be strictly increasing")
    _reject_unknown(sec, "schedule")

    sec = _section(data, "loss")
    kind = sec.pop("kind", "plain")
    kind = LOSS_ALIASES.get(kind, kind)
    if kind not in LOSS_KINDS:
        _fail("loss.kind", f"must be one of {list(LOSS_KINDS)} "
                           f"(aliases {list(LOSS_ALIASES)}), got {kind!r}")
    loss = LossConfig(kind=kind,
                      m1=_get_int(sec, "loss", "m1", 2, minimum=1),
                      m2=_get_float(sec, "loss", "m2", 0.5),
                      m3=_get_float(sec, "loss", "m3", 0.35),
                      a=_get_float(sec, "loss", "a", 0.0))
    if kind in ("additive-angular",) and loss.m2 <= 0:
        _fail("loss.m2", "must be > 0")
    if kind in ("additive",) and loss.m3 <= 0:
        _fail("loss.m3", "must be > 0")
    if kind == "combined" and (loss.m2 < 0 or loss.m3 < 0):
        _fail("loss.m2/m3", "must be >= 0 for the combined margin")
    if kind == "unified" and loss.a > 0:
        _fail("loss.a", "must be <= 0")
    if kind == "unified" and loss.a == 0.0:
        # The zero factor is plain softmax; canonicalize so equivalent runs
        # resolve to identical configs and identical metric files.
        loss = LossConfig(kind="plain", m1=loss.m1, m2=loss.m2, m3=loss.m3, a=0.0)
    _reject_unknown(sec, "loss")

    sec = _section(data, "search")
    search = SearchConfig(mu=_get_float(sec, "search", "mu", -10.0),
                          sigma=_get_float(sec, "search", "sigma", 0.2),
                          eta=_get_float(sec, "search", "eta", 0.05),
                          population=_get_int(sec, "search", "population", 4, minimum=1),
                          score_grad=_get_choice(sec, "search", "score_grad", "mu",
                                                 SCORE_GRAD_MODES),
                          outer=_get_choice(sec, "search", "outer", "sgd",
                                            OUTER_OPTIMIZERS),
                          transform=_get_choice(sec, "search", "transform", "identity",
                                                FACTOR_TRANSFORMS))
    if search.sigma <= 0:
        _fail("search.sigma", "must be > 0")
    if search.eta <= 0:
        _fail("search.eta", "must be > 0")
    if search.transform == "identity" and search.mu > 0:
        _fail("search.mu", "must be <= 0 when sampling the factor directly")
    _reject_unknown(sec, "search")

    sec = _section(data, "random")
    random_cfg = RandomConfig(mag_lo=_get_float(sec, "random", "mag_lo", 1.0),
                              mag_hi=_get_float(sec, "random", "mag_hi", 10000.0))
    collapsed = random_cfg.mag_lo == 0.0 and random_cfg.mag_hi == 0.0
    if not collapsed and not 0.0 < random_cfg.mag_lo <= random_cfg.mag_hi:
        _fail("random.mag_lo/mag_hi", "need 0 < mag_lo <= mag_hi, or both 0")
    _reject_unknown(sec, "random")

    if data:
        _fail(next(iter(data)), "unknown config key")
    return ExperimentConfig(seed=seed, reward=reward, dataset=dataset, model=model,
                            sgd=sgd, schedule=schedule, loss=loss, search=search,
                            random=random_cfg)


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
    """Build the loss from its config section."""
    if loss.kind == "plain":
        return MarginSpec.plain()
    if loss.kind == "angular":
        return MarginSpec.angular(loss.m1)
    if loss.kind == "additive-angular":
        return MarginSpec.additive_angular(loss.m2)
    if loss.kind == "additive":
        return MarginSpec.additive(loss.m3)
    if loss.kind == "combined":
        return MarginSpec.combined(loss.m1, loss.m2, loss.m3)
    if loss.kind == "unified":
        return MarginSpec.unified(loss.a)
    raise ConfigError(f"loss.kind: unknown kind {loss.kind!r}")


def schedule_of(config: ExperimentConfig) -> LrSchedule:
    return LrSchedule(initial=config.sgd.learning_rate,
                      drop_epochs=config.schedule.drop_epochs,
                      drop_factor=config.schedule.drop_factor)


def distribution_of(config: ExperimentConfig) -> SearchDistribution:
    return SearchDistribution(mu=config.search.mu, sigma=config.search.sigma,
                              eta=config.search.eta, population=config.search.population)
