"""Margin-softmax losses unified by a single modulating factor, plus a
reward-guided search that tunes the factor while a small normalized-embedding
network trains underneath."""

__version__ = "0.1.0"

from .config import ExperimentConfig
from .contracts import ContractViolation
from .datasets import LabeledDataset, PairSet, SyntheticSpec, generate_synthetic
from .margin_losses import MarginKind, MarginSpec, modulating_function
from .numerics import RngStream
from .search_engine import run_search
from .sgd_trainer import SgdConfig, TrainState, train_epoch

__all__ = [
    "ContractViolation",
    "ExperimentConfig",
    "LabeledDataset",
    "MarginKind",
    "MarginSpec",
    "PairSet",
    "RngStream",
    "SgdConfig",
    "SyntheticSpec",
    "TrainState",
    "generate_synthetic",
    "modulating_function",
    "run_search",
    "train_epoch",
    "__version__",
]
