"""Outer-loop factor search: Gaussian sampling of the modulating factor,
reward-normalized score-function updates of the distribution mean, winner
broadcast, and the factor range of the per-epoch random baseline.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import candidate_workers
from .checkpoint import param_digest
from .contracts import require
from .datasets import LabeledDataset, PairSet
from .eval_protocols import reward
from .numerics import RngStream, sample_gaussian
from .sgd_trainer import (InProcessCandidates, LrSchedule, SgdConfig, TrainState,
                          train_candidates)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
ZERO_VARIANCE_GUARD = 1e-12

SCORE_GRAD_MODES = ("mu", "a")
OUTER_OPTIMIZERS = ("sgd", "adam")
FACTOR_TRANSFORMS = ("identity", "negexp")


@dataclass(frozen=True)
class SearchDistribution:
    """Gaussian proposal over the factor: mean mu, fixed sigma, step eta,
    and the number of candidates drawn per epoch."""

    mu: float
    sigma: float = 0.2
    eta: float = 0.05
    population: int = 4

    def __post_init__(self):
        require(self.sigma > 0, "sigma must be > 0")
        require(self.eta > 0, "eta must be > 0")
        require(self.population >= 1, "population must be >= 1")


@dataclass(frozen=True)
class FactorRange:
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
class SearchSettings:
    """Everything run_search needs beyond data and the initial state."""

    distribution: SearchDistribution
    epochs: int
    sgd: SgdConfig
    schedule: LrSchedule
    reward_kind: str = "verification"
    score_grad: str = "mu"
    outer: str = "sgd"
    transform: str = "identity"

    def __post_init__(self):
        require(self.epochs >= 0, "epochs must be >= 0")
        require(self.score_grad in SCORE_GRAD_MODES,
                f"score_grad must be one of {SCORE_GRAD_MODES}")
        require(self.outer in OUTER_OPTIMIZERS,
                f"outer must be one of {OUTER_OPTIMIZERS}")
        require(self.transform in FACTOR_TRANSFORMS,
                f"transform must be one of {FACTOR_TRANSFORMS}")


@dataclass(frozen=True)
class SearchEpochRecord:
    epoch: int
    mu_before: float
    mu_after: float
    factors: tuple
    raw_rewards: tuple
    normalized_rewards: tuple
    winner: int
    mean_losses: tuple
    digests: tuple
    start_digest: str
    # Seconds each candidate spent training and scoring in the process that
    # ran it. They are left out of comparisons, so the records of two runs
    # of one seed compare equal.
    train_s: tuple = field(compare=False)
    reward_s: tuple = field(compare=False)

    def __post_init__(self):
        require(self.raw_rewards[self.winner] == max(self.raw_rewards),
                "winner must maximize the raw reward")

    @property
    def winner_digest(self) -> str:
        return self.digests[self.winner]


@dataclass(frozen=True)
class SearchResult:
    """best_state is the final model: the highest-reward candidate seen
    anywhere in the run, kept without retraining."""

    best_state: TrainState
    best_reward: float | None
    best_epoch: int
    best_candidate: int | None
    final_mu: float
    history: tuple


def sample_factors(dist: SearchDistribution, stream: RngStream) -> np.ndarray:
    """Draw the population from N(mu, sigma^2), clipping each draw to <= 0."""
    draws = sample_gaussian(stream, dist.mu, dist.sigma, dist.population)
    return np.minimum(draws, 0.0)


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


def reinforce_update(dist: SearchDistribution, factors, normalized_rewards) -> float:
    """Plain ascent step on mu from one population's normalized rewards."""
    return dist.mu + dist.eta * mu_gradient(dist.mu, dist.sigma, factors, normalized_rewards)


def select_best(raw_rewards) -> int:
    """Index of the highest raw reward; ties keep the lowest index."""
    raw_rewards = np.asarray(raw_rewards, dtype=np.float64)
    require(raw_rewards.size >= 1, "need at least one candidate")
    return int(np.argmax(raw_rewards))


class _AdamState:
    """First/second moment accumulators for the optional outer optimizer."""

    def __init__(self):
        self.m = 0.0
        self.v = 0.0
        self.t = 0

    def step(self, mu: float, gradient: float, eta: float) -> float:
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1 - ADAM_BETA1) * gradient
        self.v = ADAM_BETA2 * self.v + (1 - ADAM_BETA2) * gradient ** 2
        m_hat = self.m / (1 - ADAM_BETA1 ** self.t)
        v_hat = self.v / (1 - ADAM_BETA2 ** self.t)
        return mu + eta * m_hat / (math.sqrt(v_hat) + ADAM_EPSILON)


def run_search(settings: SearchSettings, state0: TrainState, train_set: LabeledDataset,
               val_set: LabeledDataset, val_pairs: PairSet, seed: int,
               on_epoch=None, on_start=None) -> SearchResult:
    """Reward-guided search over the modulating factor.

    Per epoch: sample factors, train one candidate per factor from the current
    snapshot under a shared shuffle, score each on the validation pairs, update
    mu by the normalized score-function step, and broadcast the winner's
    parameters as the next epoch's start. The returned best_state is the
    highest-reward candidate across the whole run.

    on_start, when given, is called once the candidate processes have
    started, just before epoch 1; on_epoch, when given, is called with
    (record, winner_state) as each epoch completes. Each epoch's candidates
    train and score in the forked workers that
    candidate_workers.candidate_processes counts, or, with a count of one, in
    this process through one workspace; the results are the same bits.
    """
    require(val_set.sample_count >= 1, "validation set must be non-empty")
    dist = settings.distribution
    mu = dist.mu
    root = RngStream(seed, "search")
    state = state0
    adam = _AdamState()
    history = []
    best_state = state0
    best_reward: float | None = None
    best_epoch = 0
    best_candidate: int | None = None

    def score(trained, workspace):
        return reward(trained.model, trained.head, val_set, val_pairs,
                      settings.reward_kind, workspace)

    processes = candidate_workers.candidate_processes(dist.population)
    if processes > 1 and settings.epochs > 0:
        workers = candidate_workers.CandidateWorkers(processes, state0, dist.population,
                                                     train_set, settings.sgd, score)
    else:
        workers = contextlib.nullcontext(InProcessCandidates(train_set, settings.sgd, score))
    with workers as runner:
        if on_start is not None:
            on_start()
        for epoch in range(1, settings.epochs + 1):
            epoch_stream = root.child(f"epoch{epoch}")
            # From epoch 2 the start is the previous winner, already hashed.
            start_digest = (history[-1].winner_digest if history
                            else param_digest(state.model, state.head))
            current = replace(dist, mu=mu)
            if settings.transform == "negexp":
                drawn = sample_gaussian(epoch_stream.child("factors"), mu, dist.sigma,
                                        dist.population)
                factors = -np.exp(drawn)
            else:
                drawn = sample_factors(current, epoch_stream.child("factors"))
                factors = drawn
            lr = settings.schedule.lr_at(epoch)
            outcomes = train_candidates(state, factors, lr, epoch_stream, runner)
            raw = np.array([outcome.reward for outcome in outcomes])
            normalized = normalize_rewards(raw)
            # score_grad "a" is the opposite sign convention. Negating the rewards
            # negates the step exactly, since IEEE negation does not round.
            signed = -normalized if settings.score_grad == "a" else normalized
            if settings.outer == "adam":
                mu_after = adam.step(mu, mu_gradient(mu, dist.sigma, drawn, signed), dist.eta)
            else:
                mu_after = reinforce_update(current, drawn, signed)
            winner = select_best(raw)
            record = SearchEpochRecord(
                epoch=epoch, mu_before=mu, mu_after=mu_after,
                factors=tuple(float(a) for a in factors),
                raw_rewards=tuple(float(r) for r in raw),
                normalized_rewards=tuple(float(r) for r in normalized),
                winner=winner,
                mean_losses=tuple(float(outcome.mean_loss) for outcome in outcomes),
                digests=tuple(outcome.digest for outcome in outcomes),
                start_digest=start_digest,
                train_s=tuple(outcome.train_s for outcome in outcomes),
                reward_s=tuple(outcome.reward_s for outcome in outcomes))
            history.append(record)
            state = outcomes[winner].state
            if best_reward is None or raw[winner] > best_reward:
                best_reward = float(raw[winner])
                best_epoch = epoch
                best_candidate = winner
                best_state = state
            mu = mu_after
            if on_epoch is not None:
                on_epoch(record, state)
    return SearchResult(best_state=best_state, best_reward=best_reward,
                        best_epoch=best_epoch, best_candidate=best_candidate,
                        final_mu=mu, history=tuple(history))

