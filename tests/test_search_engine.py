"""Tests for the outer search loop: factor sampling, reward normalization,
the score-function update, winner selection and broadcast, and the
random baseline's factor range.
"""

import contextlib
import multiprocessing
import os
import signal
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from lfsearch.checkpoint import param_digest
from lfsearch.config import ExperimentConfig, RandomConfig, ScheduleConfig, SearchConfig
from lfsearch.contracts import ContractViolation
from lfsearch.datasets import SyntheticSpec, generate_synthetic, make_pairs
from lfsearch.embed_model import init_model
from lfsearch.eval_protocols import reward
from lfsearch.margin_losses import MarginSpec
from lfsearch import candidate_workers, checkpoint, numerics, search_engine, sgd_trainer
from lfsearch.candidate_workers import (CandidateWorkerError, CandidateWorkers,
                                        candidate_processes, cgroup_cpu_quota)
from lfsearch.numerics import RngStream, one_blas_thread
from lfsearch.search_engine import (
    mu_gradient,
    normalize_rewards,
    reinforce_update,
    run_search,
    sample_factors,
    select_best,
)
from lfsearch.sgd_trainer import (NonFiniteTrainingError, SgdConfig, TrainState,
                                  train_candidates, train_epoch)


def search_fixture(seed=0):
    train = generate_synthetic(SyntheticSpec(6, 8, 6, 0.25, seed))
    val = generate_synthetic(SyntheticSpec(6, 8, 6, 0.25, seed + 1000))
    pairs = make_pairs(val, 40, seed)
    model, head = init_model([8, 8], 6, 16.0, RngStream(seed, "init"))
    return train, val, pairs, TrainState.fresh(model, head)


def default_settings(seed, epochs=3, learning_rate=0.05, reward="verification", **search):
    """The search tests' config: small batches, a constant learning rate,
    and the search section's defaults at population 2 unless `search` sets
    them."""
    return ExperimentConfig(seed=seed, reward=reward,
                            sgd=SgdConfig(learning_rate=learning_rate, batch_size=16),
                            schedule=ScheduleConfig(epochs=epochs, drop_epochs=()),
                            search=SearchConfig(**{"population": 2, **search}))


class TestSampleFactors:
    def test_clipped_at_zero(self):
        # The config refuses an initial mu above 0, but mu may step there.
        search = SearchConfig(sigma=0.2, population=64)
        draws = sample_factors(search, 5.0, RngStream(0, "factors"))
        assert draws.shape == (64,)
        assert np.all(draws == 0.0)

    def test_deterministic(self):
        search = SearchConfig(sigma=0.2, population=16)
        a = sample_factors(search, -1.0, RngStream(1, "factors"))
        b = sample_factors(search, -1.0, RngStream(1, "factors"))
        assert np.array_equal(a, b)

    def test_monte_carlo_mean(self):
        # At mu = -1 the clip at zero is a 5-sigma event and cannot move the
        # mean by more than the sampling error.
        search = SearchConfig(sigma=0.2, population=100000)
        draws = sample_factors(search, -1.0, RngStream(2, "factors"))
        assert abs(draws.mean() - (-1.0)) < 0.01
        assert abs(draws.std() - 0.2) < 0.01


class TestNormalizeRewards:
    def test_two_point_hand_value(self):
        out = normalize_rewards([0.9, 0.7])
        assert abs(out[0] - 1.0) < 1e-12
        assert abs(out[1] + 1.0) < 1e-12

    def test_constant_rewards_become_zeros(self):
        out = normalize_rewards([0.5, 0.5, 0.5])
        assert np.array_equal(out, np.zeros(3))

    def test_zero_mean_unit_spread(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            raw = rng.uniform(0.0, 1.0, 8)
            out = normalize_rewards(raw)
            assert abs(out.mean()) < 1e-12
            assert abs(out.std() - 1.0) < 1e-9

    def test_single_candidate_is_zero(self):
        assert np.array_equal(normalize_rewards([0.8]), np.zeros(1))

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            normalize_rewards([])


class TestMuGradientAndUpdate:
    def test_hand_example(self):
        # factors -0.8 / -1.2 about mu = -1 with normalized rewards +1 / -1:
        # both terms contribute +0.2, so the gradient is 0.2 / 0.04 = 5 and
        # one eta = 0.05 step lands on -0.75.
        search = SearchConfig(sigma=0.2, eta=0.05, population=2)
        grad = mu_gradient(-1.0, 0.2, [-0.8, -1.2], [1.0, -1.0])
        assert abs(grad - 5.0) < 1e-12
        assert abs(reinforce_update(search, -1.0, [-0.8, -1.2], [1.0, -1.0]) - (-0.75)) < 1e-12

    def test_hand_example_from_raw_rewards(self):
        search = SearchConfig(sigma=0.2, eta=0.05, population=2)
        normalized = normalize_rewards([0.9, 0.7])
        assert abs(reinforce_update(search, -1.0, [-0.8, -1.2], normalized) - (-0.75)) < 1e-12

    def test_eta_linearity(self):
        rng = np.random.default_rng(4)
        search = SearchConfig(sigma=0.3, eta=0.05, population=4)
        for _ in range(20):
            factors = rng.normal(-2.0, 0.3, 4)
            rewards = normalize_rewards(rng.uniform(0.0, 1.0, 4))
            small = reinforce_update(search, -2.0, factors, rewards) + 2.0
            big = reinforce_update(replace(search, eta=0.1), -2.0, factors, rewards) + 2.0
            assert abs(big - 2.0 * small) < 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            factors = rng.normal(-3.0, 0.4, 6)
            rewards = normalize_rewards(rng.uniform(0.0, 1.0, 6))
            base = mu_gradient(-3.0, 0.4, factors, rewards)
            shifted = mu_gradient(-3.0 + 1.5, 0.4, factors + 1.5, rewards)
            assert abs(base - shifted) < 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            mu_gradient(-1.0, 0.2, [-0.8, -1.2], [1.0])


class TestSelectBest:
    def test_argmax(self):
        assert select_best([0.1, 0.9, 0.5]) == 1

    def test_ties_keep_lowest_index(self):
        assert select_best([0.5, 0.7, 0.7]) == 1
        assert select_best([0.7, 0.7, 0.7]) == 0

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            raw = rng.uniform(0.0, 1.0, 8)
            base = select_best(raw)
            assert select_best(2.0 * raw + 3.0) == base
            assert select_best(np.tanh(raw)) == base
            assert select_best(np.exp(raw)) == base

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            select_best([])


class TestRunSearch:
    def test_deterministic(self):
        train, val, pairs, state = search_fixture()
        config = default_settings(seed=7)
        a = run_search(config, state, train, val, pairs)
        b = run_search(config, state, train, val, pairs)
        assert a.history == b.history
        assert a.final_mu == b.final_mu
        assert param_digest(a.best_state.model, a.best_state.head) == \
            param_digest(b.best_state.model, b.best_state.head)

    def test_winner_broadcast_chains_digests(self):
        train, val, pairs, state = search_fixture(seed=2)
        result = run_search(default_settings(seed=9), state, train, val, pairs)
        first = result.history[0]
        assert first.start_digest == param_digest(state.model, state.head)
        for prev, cur in zip(result.history, result.history[1:]):
            assert cur.start_digest == prev.winner_digest
        for record in result.history:
            assert record.rewards[record.winner] == max(record.rewards)

    def test_candidates_start_from_the_previous_winner(self, monkeypatch):
        """Each epoch trains from the state whose digest the record names:
        the initial state, then the previous epoch's winner."""
        starts = []
        real = search_engine.train_candidates

        def recording(state, *args):
            starts.append(param_digest(state.model, state.head))
            return real(state, *args)

        monkeypatch.setattr(search_engine, "train_candidates", recording)
        train, val, pairs, state = search_fixture(seed=2)
        result = run_search(default_settings(seed=9), state, train, val, pairs)
        assert starts == [record.start_digest for record in result.history]

    def test_each_parameter_set_is_hashed_once(self, monkeypatch):
        # The initial state, then each epoch's winner: no other candidate
        # is hashed, and a winner is not hashed again as the next epoch's
        # start. Every param_digest, wherever it was imported, serializes
        # through the checkpoint module, and the counter is shared, so a
        # hash made in a forked worker would count too.
        real = checkpoint.serialize_model
        train, val, pairs, state = search_fixture(seed=2)
        for processes in (1, 2):
            calls = multiprocessing.Value("i", 0)

            def counted(model, head):
                with calls.get_lock():
                    calls.value += 1
                return real(model, head)

            monkeypatch.setattr(checkpoint, "serialize_model", counted)
            with processes_forced(processes):
                run_search(default_settings(seed=9, epochs=3), state, train, val, pairs)
            assert calls.value == 1 + 3

    def test_best_is_argmax_over_history(self):
        train, val, pairs, state = search_fixture(seed=3)
        result = run_search(default_settings(seed=10), state, train, val, pairs)
        per_epoch_best = [max(r.rewards) for r in result.history]
        assert result.best_reward == max(per_epoch_best)
        top = result.history[result.best_epoch - 1]
        assert result.best_candidate == top.winner
        assert param_digest(result.best_state.model, result.best_state.head) == \
            top.winner_digest

    def test_zero_epochs(self):
        train, val, pairs, state = search_fixture(seed=4)
        before = param_digest(state.model, state.head)
        result = run_search(default_settings(seed=11, epochs=0), state, train, val, pairs)
        assert result.history == ()
        assert result.best_reward is None
        assert result.best_epoch == 0
        assert result.best_candidate is None
        assert result.final_mu == -10.0
        assert param_digest(result.best_state.model, result.best_state.head) == before

    def test_input_state_is_untouched(self):
        train, val, pairs, state = search_fixture(seed=5)
        before = param_digest(state.model, state.head)
        run_search(default_settings(seed=12), state, train, val, pairs)
        assert param_digest(state.model, state.head) == before
        assert state.epoch == 0

    def test_single_candidate_cannot_move_mu(self):
        train, val, pairs, state = search_fixture(seed=6)
        config = default_settings(seed=13, epochs=2, population=1)
        result = run_search(config, state, train, val, pairs)
        for record in result.history:
            assert record.mu_after == record.mu_before
        assert result.final_mu == -10.0

    def test_each_step_is_the_plain_ascent_of_its_records(self):
        # The wide sigma keeps the two candidates distinct enough to score
        # apart, so mu moves.
        train, val, pairs, state = search_fixture(seed=7)
        config = default_settings(seed=14, epochs=3, sigma=4.0)
        result = run_search(config, state, train, val, pairs)
        mu = config.search.mu
        for record in result.history:
            assert record.mu_before == mu
            assert record.mu_after == reinforce_update(config.search, mu, record.factors,
                                                       record.normalized_rewards)
            mu = record.mu_after
        assert result.final_mu == mu
        assert any(record.mu_after != record.mu_before for record in result.history)

    def test_on_epoch_callback_sees_every_record(self):
        train, val, pairs, state = search_fixture(seed=10)
        seen = []
        result = run_search(default_settings(seed=17), state, train, val, pairs,
                            on_epoch=seen.append)
        assert seen == list(result.history)

    @pytest.mark.parametrize("processes", [1, 2])
    def test_on_start_is_called_once_the_workers_run(self, processes):
        """on_start gets the process count the loop decided, once its
        workers run (none for a count of one), before the first epoch."""
        train, val, pairs, state = search_fixture(seed=10)
        calls = []
        with processes_forced(processes):
            run_search(default_settings(seed=17), state, train, val, pairs,
                       on_start=lambda count: calls.append(
                           ("start", count, len(multiprocessing.active_children()))),
                       on_epoch=lambda record: calls.append(("epoch", record.epoch)))
        workers = processes if processes > 1 else 0
        assert calls == [("start", processes, workers), ("epoch", 1), ("epoch", 2),
                         ("epoch", 3)]

    def test_classification_reward_kind(self):
        train, val, pairs, state = search_fixture(seed=11)
        config = default_settings(seed=18, epochs=1, reward="classification")
        result = run_search(config, state, train, train, pairs)
        assert 0.0 <= result.best_reward <= 1.0


class TestRunModes:
    @pytest.mark.parametrize("mode", ["fixed", "random"])
    def test_one_candidate_an_epoch_on_the_modes_stream(self, mode):
        """A fixed or random run trains one candidate an epoch, whatever the
        search's population: the configured loss, or the unified loss at
        the factor drawn from the epoch's "factor" stream, on the mode's
        root stream. It is a chain of train_epoch calls; mu stays put."""
        train, val, pairs, state = search_fixture(seed=3)
        config = replace(default_settings(seed=5, population=4),
                         loss=MarginSpec.additive(0.2))
        result = run_search(config, state, train, val, pairs, mode)
        root = RngStream(5, mode)
        expected = state
        for record in result.history:
            stream = root.child(f"epoch{record.epoch}")
            loss = (config.loss if mode == "fixed"
                    else MarginSpec.unified(config.random.draw(stream.child("factor"))))
            expected, mean_loss = train_epoch(expected, loss, train, config.sgd, 0.05, stream)
            assert record.factors == (loss.a,)
            assert record.mean_losses == (mean_loss,)
            assert record.rewards == (reward(expected.model, expected.head, val, pairs,
                                             config.reward),)
            assert record.winner == 0
            assert record.mu_before == record.mu_after == config.search.mu
            assert record.winner_digest == param_digest(expected.model, expected.head)
        assert len(result.history) == 3
        assert result.final_state.params.tobytes() == expected.params.tobytes()
        assert result.final_mu == config.search.mu

    def test_a_search_ends_on_its_last_winner(self):
        result = searched(1)
        assert param_digest(result.final_state.model, result.final_state.head) == \
            result.history[-1].winner_digest

    def test_an_unknown_mode_is_refused(self):
        train, val, pairs, state = search_fixture()
        with pytest.raises(ContractViolation, match="unknown mode"):
            run_search(default_settings(seed=1), state, train, val, pairs, "ablate")


class TestFactorRange:
    def test_draws_stay_in_range(self):
        factors = RandomConfig(2.0, 50.0)
        draws = [factors.draw(RngStream(seed, "random").child("epoch1").child("factor"))
                 for seed in range(500)]
        assert all(-50.0 <= a <= -2.0 for a in draws)
        # The draws spread over the range, not onto one value.
        assert min(draws) < -40.0 and max(draws) > -3.0

    def test_default_range_is_the_config_default(self):
        config = ExperimentConfig()
        assert (config.random.mag_lo, config.random.mag_hi) == (1.0, 1e4)

    def test_range_validation(self):
        for lo, hi in ((0.0, 5.0), (-1.0, 5.0), (5.0, 2.0)):
            with pytest.raises(ContractViolation):
                RandomConfig(mag_lo=lo, mag_hi=hi)


def processes_forced(count):
    """A context in which searches use `count` candidate processes."""
    return mock.patch.object(candidate_workers, "candidate_processes",
                             lambda population: count)


def searched(processes, population=2, epochs=3, seed=2, **overrides):
    """A search of the small fixture with `processes` candidate processes."""
    train, val, pairs, state = search_fixture(seed=seed)
    config = default_settings(seed=9, epochs=epochs, sigma=2.0, population=population,
                              **overrides)
    with processes_forced(processes):
        return run_search(config, state, train, val, pairs)


def unscored(trained, workspace):
    return 0.0


def unified(*factors):
    """A unified-loss MarginSpec per factor."""
    return [MarginSpec.unified(a) for a in factors]


def recorded_warnings(run):
    """(text, category, file, line) of each warning a call shows under the
    default filters, which show a warning once per place."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            run()
            error = None
        except NonFiniteTrainingError as exc:
            error = str(exc)
    return error, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


class TestCandidateProcesses:
    def test_population_capped_by_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(candidate_workers, "cgroup_cpu_quota", lambda: None)
        assert [candidate_processes(p) for p in (1, 2, 3, 8)] == [1, 2, 3, 3]

    @pytest.mark.parametrize("quota, counts", [(2.0, [1, 2, 2, 2]), (2.5, [1, 2, 2, 2]),
                                               (0.5, [1, 1, 1, 1]), (8.0, [1, 2, 3, 3])])
    def test_a_cgroup_quota_caps_the_cpus(self, monkeypatch, quota, counts):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(candidate_workers, "cgroup_cpu_quota", lambda: quota)
        assert [candidate_processes(p) for p in (1, 2, 3, 8)] == counts

    def test_cgroup_v2_quota_is_the_smallest_on_the_path(self, tmp_path):
        root = tmp_path / "cgroup"
        (root / "jobs" / "run").mkdir(parents=True)
        (root / "cpu.max").write_text("max 100000\n")
        (root / "jobs" / "cpu.max").write_text("150000 100000\n")
        (root / "jobs" / "run" / "cpu.max").write_text("400000 100000\n")
        (tmp_path / "cpu.max").write_text("50000 100000\n")  # above the mount: not read
        proc = tmp_path / "cgroup.txt"
        proc.write_text("0::/jobs/run\n")
        assert cgroup_cpu_quota(proc, root) == 1.5
        proc.write_text("0::/\n")
        assert cgroup_cpu_quota(proc, root) is None

    def test_cgroup_v1_quota_and_a_path_missing_under_the_mount(self, tmp_path):
        root = tmp_path / "cgroup"
        (root / "cpu,cpuacct").mkdir(parents=True)
        (root / "cpu,cpuacct" / "cpu.cfs_quota_us").write_text("200000\n")
        (root / "cpu,cpuacct" / "cpu.cfs_period_us").write_text("100000\n")
        (root / "memory").mkdir()
        proc = tmp_path / "cgroup.txt"
        # The container's own cgroup is the mount's root, so /docker/abc is absent.
        proc.write_text("5:memory:/docker/abc\n4:cpu,cpuacct:/docker/abc\n0::/\n")
        assert cgroup_cpu_quota(proc, root) == 2.0
        (root / "cpu,cpuacct" / "cpu.cfs_quota_us").write_text("-1\n")
        assert cgroup_cpu_quota(proc, root) is None

    def test_no_quota_without_a_cgroup_file(self, tmp_path):
        assert cgroup_cpu_quota(tmp_path / "missing", tmp_path) is None

    def test_one_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert candidate_processes(8) == 1

    def test_a_count_of_one_starts_no_process(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(candidate_workers, "candidate_processes", lambda population: 1)
        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        train, val, pairs, state = search_fixture(seed=2)
        result = run_search(default_settings(seed=9), state, train, val, pairs)
        assert len(result.history) == 3
        assert multiprocessing.active_children() == []

    def test_the_count_comes_from_candidate_processes(self, monkeypatch):
        started = []
        real = candidate_workers.CandidateWorkers

        def counting(processes, *args):
            started.append(processes)
            return real(processes, *args)

        monkeypatch.setattr(candidate_workers, "candidate_processes", lambda population: 2)
        monkeypatch.setattr(candidate_workers, "CandidateWorkers", counting)
        train, val, pairs, state = search_fixture(seed=2)
        run_search(default_settings(seed=9), state, train, val, pairs)
        assert started == [2]


class TestCandidateWorkers:
    @pytest.mark.parametrize("population, processes", [(1, 2), (2, 2), (4, 2), (5, 2),
                                                       (5, 3), (4, 4)])
    def test_workers_give_the_in_process_bits(self, population, processes):
        alone = searched(1, population)
        forked = searched(processes, population)
        assert forked.history == alone.history
        assert forked.final_mu == alone.final_mu
        assert (forked.best_epoch, forked.best_candidate, forked.best_reward) == \
            (alone.best_epoch, alone.best_candidate, alone.best_reward)
        for got, want in ((forked.best_state, alone.best_state),):
            assert got.params.tobytes() == want.params.tobytes()
            assert got.velocity.tobytes() == want.velocity.tobytes()
            assert got.epoch == want.epoch
        assert multiprocessing.active_children() == []

    def test_candidate_i_trains_on_worker_i_mod_w(self):
        def worker(trained, workspace):
            return int(multiprocessing.current_process().name.rsplit("-", 1)[1])

        train, val, pairs, state = search_fixture(seed=2)
        with CandidateWorkers(2, state, 5, train, SgdConfig(), worker) as workers:
            outcomes = workers.run(state, unified(-1.0, -2.0, -3.0, -4.0, -5.0), 0.05,
                                   RngStream(1, "epoch"))
        assert [outcome.reward for outcome in outcomes] == [0, 1, 0, 1, 0]
        assert multiprocessing.active_children() == []

    def test_an_epoch_of_two_thousand_candidates_finishes(self):
        # Two thousand replies outgrow a pipe's buffer; a parent that sent
        # every candidate before reading a reply would wait on the workers
        # while they wait on it.
        def stuck(*_):
            raise TimeoutError("the epoch is stuck")

        train, val, pairs, state = search_fixture(seed=2)
        losses = unified(*(-float(i % 7) for i in range(2000)))
        previous = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(60)
        try:
            with CandidateWorkers(2, state, 2000, train, SgdConfig(), unscored) as workers:
                outcomes = workers.run(state, losses, 0.05, RngStream(1, "epoch"))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(outcomes) == 2000
        assert multiprocessing.active_children() == []

    def test_each_candidate_is_timed(self):
        for record in searched(2, population=3).history:
            assert len(record.train_s) == len(record.reward_s) == 3
            assert all(t > 0 for t in record.train_s + record.reward_s)

    @pytest.mark.parametrize("learning_rate", [1e300, 1e50, 1e20])
    def test_warnings_and_failures_match_in_process(self, learning_rate):
        def run(processes):
            return lambda: searched(processes, population=3, learning_rate=learning_rate)

        alone = recorded_warnings(run(1))
        forked = recorded_warnings(run(2))
        assert forked == alone
        assert alone[1], "the run should warn"
        assert (alone[0] is None) == (learning_rate == 1e20)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_no_worker_outlives_an_interrupted_epoch(self, error):
        def interrupt(record):
            raise error

        train, val, pairs, state = search_fixture(seed=2)
        with processes_forced(2), pytest.raises(error):
            run_search(default_settings(seed=9), state, train, val, pairs,
                       on_epoch=interrupt)
        assert multiprocessing.active_children() == []

    def test_a_killed_worker_names_its_candidate(self, monkeypatch):
        parent = os.getpid()
        real = sgd_trainer.train_epoch

        def killing(*args):
            if multiprocessing.current_process().name.endswith("-1") and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(sgd_trainer, "train_epoch", killing)
        with pytest.raises(CandidateWorkerError, match=r"^candidate 1: .*exit code -9"):
            searched(2, population=4)
        assert multiprocessing.active_children() == []

    def test_a_worker_exits_when_its_pipe_closes(self):
        train, val, pairs, state = search_fixture(seed=2)
        workers = CandidateWorkers(2, state, 2, train, SgdConfig(), unscored)
        for conn in workers._conns:
            conn.close()
        for proc in workers._procs:
            proc.join(10)
            assert proc.exitcode == 0
        workers.close()
        assert multiprocessing.active_children() == []

    def test_a_worker_exits_quietly_on_sigint(self, capfd):
        train, val, pairs, state = search_fixture(seed=2)
        with CandidateWorkers(2, state, 2, train, SgdConfig(), unscored) as workers:
            # One epoch first, so that each worker waits in its loop.
            workers.run(state, unified(-1.0, -2.0), 0.05, RngStream(1, "epoch"))
            for proc in workers._procs:
                os.kill(proc.pid, signal.SIGINT)
                proc.join(10)
                assert proc.exitcode == 0
        assert "Traceback" not in capfd.readouterr().err
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task") or numerics._openblas() is None,
                        reason="needs /proc and numpy's bundled OpenBLAS")
    @pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "unpinned"])
    def test_a_worker_of_a_pinned_process_runs_one_thread(self, pinned):
        # OpenBLAS shuts its thread pool down in a forked child; a worker
        # that set the count again would restart it beside its own thread,
        # and that thread can take a SIGINT meant for the worker. Workers of
        # an unpinned process (library use) are forked pinned.
        def threads(trained, workspace):
            return len(os.listdir("/proc/self/task"))

        train, val, pairs, state = search_fixture(seed=2)
        with one_blas_thread() if pinned else contextlib.nullcontext(), \
                CandidateWorkers(2, state, 2, train, SgdConfig(), threads) as workers:
            outcomes = workers.run(state, unified(-1.0, -2.0), 0.05, RngStream(1, "epoch"))
        assert [outcome.reward for outcome in outcomes] == [1, 1]
        assert multiprocessing.active_children() == []

    def test_a_worker_error_keeps_its_type_and_traceback(self, monkeypatch):
        def broken(*args):
            raise ValueError("broken reward")

        monkeypatch.setattr(search_engine, "reward", broken)
        for processes in (1, 2):
            with pytest.raises(ValueError, match="broken reward") as caught:
                searched(processes)
        assert "in broken" in str(caught.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_warnings_come_back_in_order_up_to_the_first_failure(self, monkeypatch):
        """Each worker trains on after a failure elsewhere, but only the
        warnings that an in-process epoch raises before the failure reach
        the parent, in candidate order."""
        real = sgd_trainer.train_candidate

        def warning(state, loss, *args):
            warnings.warn(f"candidate at {loss.a:g}", UserWarning)
            if loss.a == -2.0:
                raise NonFiniteTrainingError("failed at -2")
            return real(state, loss, *args)

        monkeypatch.setattr(sgd_trainer, "train_candidate", warning)
        monkeypatch.setattr(candidate_workers, "train_candidate", warning)
        train, val, pairs, state = search_fixture(seed=2)
        shown = []
        with CandidateWorkers(2, state, 4, train, SgdConfig(), unscored) as workers:
            for runner in (CandidateWorkers(1, state, 4, train, SgdConfig(), unscored), workers):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with pytest.raises(NonFiniteTrainingError, match="failed at -2"):
                        train_candidates(state, unified(-1.0, -2.0, -3.0, -4.0), 0.05,
                                         RngStream(1, "epoch"), runner)
                shown.append([str(w.message) for w in caught])
        assert shown == [["candidate at -1", "candidate at -2"]] * 2
        assert multiprocessing.active_children() == []
