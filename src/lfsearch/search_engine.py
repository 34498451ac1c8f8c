"""The one epoch loop: decide once how many processes train the candidates,
then each epoch train its candidate losses from one start, score them,
broadcast the winner and report the epoch's record. The mode picks the
losses: the configured loss, a unified loss at a random factor, or Gaussian
draws of the factor whose mean a reward-normalized score-function step
moves (search).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import candidate_workers
from .checkpoint import param_digest
from .config import ExperimentConfig, SearchConfig
from .contracts import require
from .datasets import LabeledDataset, PairSet
from .eval_protocols import reward
from .margin_losses import MarginSpec
from .numerics import RngStream
from .sgd_trainer import TrainState, train_candidates

ZERO_VARIANCE_GUARD = 1e-12


@dataclass(frozen=True)
class SearchEpochRecord:
    """One epoch; its compared fields after `epoch` are the keys of a
    search's metrics.jsonl line, in order. `factors` holds each loss's `a`
    (read by the unified kind only); only a search moves mu."""

    epoch: int
    mu_before: float
    mu_after: float
    factors: tuple
    rewards: tuple
    normalized_rewards: tuple
    winner: int
    mean_losses: tuple
    start_digest: str
    winner_digest: str
    # Seconds each candidate spent training and scoring in the process that
    # ran it. They are left out of comparisons, so the records of two runs
    # of one seed compare equal.
    train_s: tuple = field(compare=False)
    reward_s: tuple = field(compare=False)

    def __post_init__(self):
        require(self.rewards[self.winner] == max(self.rewards),
                "winner must maximize the raw reward")


@dataclass(frozen=True)
class SearchResult:
    """best_state is the highest-reward candidate seen anywhere in the
    run, kept without retraining; final_state is the last epoch's winner."""

    best_state: TrainState
    final_state: TrainState
    best_reward: float | None
    best_epoch: int
    best_candidate: int | None
    final_mu: float
    history: tuple


def sample_factors(search: SearchConfig, mu: float, stream: RngStream) -> np.ndarray:
    """Draw the population from N(mu, sigma^2), clipping each draw to <= 0."""
    return np.minimum(stream.generator().normal(mu, search.sigma, search.population), 0.0)


def normalize_rewards(raw) -> np.ndarray:
    """Shift to zero mean and scale by the population standard deviation.

    A spread below the guard returns all zeros so degenerate epochs are no-ops.
    """
    raw = np.asarray(raw, dtype=np.float64)
    require(raw.size >= 1, "rewards must be non-empty")
    std = float(np.std(raw))
    if std < ZERO_VARIANCE_GUARD:
        return np.zeros_like(raw)
    return (raw - np.mean(raw)) / std


def mu_gradient(mu: float, sigma: float, factors, normalized_rewards) -> float:
    """Score-function estimate of d(reward)/d(mu): mean of R * (a - mu)/sigma^2."""
    factors = np.asarray(factors, dtype=np.float64)
    rewards = np.asarray(normalized_rewards, dtype=np.float64)
    require(factors.shape == rewards.shape, "factors and rewards must align")
    return float(np.mean(rewards * (factors - mu)) / sigma ** 2)


def reinforce_update(search: SearchConfig, mu: float, factors, normalized_rewards) -> float:
    """Plain ascent step on mu from one population's normalized rewards."""
    return mu + search.eta * mu_gradient(mu, search.sigma, factors, normalized_rewards)


def select_best(raw_rewards) -> int:
    """Index of the highest raw reward; ties keep the lowest index."""
    raw_rewards = np.asarray(raw_rewards, dtype=np.float64)
    require(raw_rewards.size >= 1, "need at least one candidate")
    return int(np.argmax(raw_rewards))


def epoch_losses(config: ExperimentConfig, mode: str, mu: float, stream: RngStream) -> list:
    """An epoch's candidate losses under `mode`, drawn from the epoch's stream."""
    if mode == "fixed":
        return [config.loss]
    if mode == "random":
        return [MarginSpec.unified(config.random.draw(stream.child("factor")))]
    return [MarginSpec.unified(a)
            for a in sample_factors(config.search, mu, stream.child("factors"))]


def run_search(config: ExperimentConfig, state0: TrainState, train_set: LabeledDataset,
               val_set: LabeledDataset, val_pairs: PairSet, mode: str = "search",
               on_epoch=None, on_start=None) -> SearchResult:
    """Train the config's schedule in `mode` (its stream root) with the sgd
    settings, reward kind, seed and the loss, random or search section.

    Per epoch: take the mode's candidate losses (epoch_losses), train one
    candidate per loss from the current start under a shared shuffle, score
    each on the validation pairs, and broadcast the winner's parameters as
    the next epoch's start. A search also moves mu by one plain ascent step
    (reinforce_update). The returned best_state is the highest-reward
    candidate across the whole run.

    The loop decides once how many processes train its candidates:
    candidate_processes of the search's population (of 1 in the other
    modes), or 1 for a run with no epochs. Each epoch's candidates train and
    score in one CandidateWorkers of that many processes: in this process
    for a count of one, else in forked workers; the results are the same
    bits. on_start, when given, is called with that count once the
    processes have started, just before epoch 1; on_epoch, when given, is
    called with each epoch's record as the epoch completes.
    """
    require(mode in ("fixed", "random", "search"), f"unknown mode {mode!r}")
    require(val_set.sample_count >= 1, "validation set must be non-empty")
    search = config.search
    mu = search.mu
    root = RngStream(config.seed, mode)
    state = state0
    history = []
    best_state = state0
    best_reward: float | None = None
    best_epoch = 0
    best_candidate: int | None = None

    def score(trained, workspace):
        return reward(trained.model, trained.head, val_set, val_pairs,
                      config.reward, workspace)

    population = search.population if mode == "search" else 1
    processes = (candidate_workers.candidate_processes(population) if config.schedule.epochs
                 else 1)
    with candidate_workers.CandidateWorkers(processes, state0, search.population, train_set,
                                            config.sgd, score) as runner:
        if on_start is not None:
            on_start(processes)
        for epoch in range(1, config.schedule.epochs + 1):
            epoch_stream = root.child(f"epoch{epoch}")
            # From epoch 2 the start is the previous winner, already hashed.
            start_digest = (history[-1].winner_digest if history
                            else param_digest(state.model, state.head))
            losses = epoch_losses(config, mode, mu, epoch_stream)
            factors = [loss.a for loss in losses]
            lr = config.schedule.lr_at(config.sgd.learning_rate, epoch)
            outcomes = train_candidates(state, losses, lr, epoch_stream, runner)
            raw = np.array([outcome.reward for outcome in outcomes])
            normalized = normalize_rewards(raw)
            mu_after = (reinforce_update(search, mu, factors, normalized)
                        if mode == "search" else mu)
            winner = select_best(raw)
            state = outcomes[winner].state
            record = SearchEpochRecord(
                epoch=epoch, mu_before=mu, mu_after=mu_after,
                factors=tuple(float(a) for a in factors),
                rewards=tuple(float(r) for r in raw),
                normalized_rewards=tuple(float(r) for r in normalized),
                winner=winner,
                mean_losses=tuple(float(outcome.mean_loss) for outcome in outcomes),
                start_digest=start_digest,
                winner_digest=param_digest(state.model, state.head),
                train_s=tuple(outcome.train_s for outcome in outcomes),
                reward_s=tuple(outcome.reward_s for outcome in outcomes))
            history.append(record)
            if best_reward is None or raw[winner] > best_reward:
                best_reward = float(raw[winner])
                best_epoch = epoch
                best_candidate = winner
                best_state = state
            mu = mu_after
            if on_epoch is not None:
                on_epoch(record)
    return SearchResult(best_state=best_state, final_state=state, best_reward=best_reward,
                        best_epoch=best_epoch, best_candidate=best_candidate,
                        final_mu=mu, history=tuple(history))
