"""Tests for the outer search loop: factor sampling, reward normalization,
the score-function update, winner selection and broadcast, and the
random baseline's factor range.
"""

import multiprocessing
import os
import signal
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from lfsearch.checkpoint import param_digest
from lfsearch.config import ExperimentConfig
from lfsearch.contracts import ContractViolation
from lfsearch.datasets import SyntheticSpec, generate_synthetic, make_pairs
from lfsearch.embed_model import init_model
from lfsearch import candidate_workers, numerics, search_engine, sgd_trainer
from lfsearch.candidate_workers import (CandidateWorkerError, CandidateWorkers,
                                        candidate_processes, cgroup_cpu_quota)
from lfsearch.numerics import RngStream, one_blas_thread
from lfsearch.search_engine import (
    FactorRange,
    SearchDistribution,
    SearchSettings,
    mu_gradient,
    normalize_rewards,
    reinforce_update,
    run_search,
    sample_factors,
    select_best,
)
from lfsearch.sgd_trainer import (InProcessCandidates, LrSchedule, NonFiniteTrainingError,
                                  SgdConfig, TrainState, train_candidates)


def search_fixture(seed=0):
    train = generate_synthetic(SyntheticSpec(6, 8, 6, 0.25, seed))
    val = generate_synthetic(SyntheticSpec(6, 8, 6, 0.25, seed + 1000))
    pairs = make_pairs(val, 40, seed)
    model, head = init_model([8, 8], 6, 16.0, RngStream(seed, "init"))
    return train, val, pairs, TrainState.fresh(model, head)


def default_settings(**overrides):
    base = dict(
        distribution=SearchDistribution(mu=-10.0, sigma=0.2, eta=0.05, population=2),
        epochs=3,
        sgd=SgdConfig(batch_size=16),
        schedule=LrSchedule(0.05),
    )
    base.update(overrides)
    return SearchSettings(**base)


class TestSearchDistribution:
    def test_validation(self):
        with pytest.raises(ContractViolation):
            SearchDistribution(mu=-1.0, sigma=0.0)
        with pytest.raises(ContractViolation):
            SearchDistribution(mu=-1.0, eta=0.0)
        with pytest.raises(ContractViolation):
            SearchDistribution(mu=-1.0, population=0)


class TestSearchSettings:
    def test_validation(self):
        with pytest.raises(ContractViolation):
            default_settings(epochs=-1)
        with pytest.raises(ContractViolation):
            default_settings(score_grad="bogus")
        with pytest.raises(ContractViolation):
            default_settings(outer="bogus")
        with pytest.raises(ContractViolation):
            default_settings(transform="bogus")


class TestSampleFactors:
    def test_clipped_at_zero(self):
        dist = SearchDistribution(mu=5.0, sigma=0.2, population=64)
        draws = sample_factors(dist, RngStream(0, "factors"))
        assert draws.shape == (64,)
        assert np.all(draws == 0.0)

    def test_deterministic(self):
        dist = SearchDistribution(mu=-1.0, sigma=0.2, population=16)
        a = sample_factors(dist, RngStream(1, "factors"))
        b = sample_factors(dist, RngStream(1, "factors"))
        assert np.array_equal(a, b)

    def test_monte_carlo_mean(self):
        # At mu = -1 the clip at zero is a 5-sigma event and cannot move the
        # mean by more than the sampling error.
        dist = SearchDistribution(mu=-1.0, sigma=0.2, population=100000)
        draws = sample_factors(dist, RngStream(2, "factors"))
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
        dist = SearchDistribution(mu=-1.0, sigma=0.2, eta=0.05, population=2)
        grad = mu_gradient(-1.0, 0.2, [-0.8, -1.2], [1.0, -1.0])
        assert abs(grad - 5.0) < 1e-12
        assert abs(reinforce_update(dist, [-0.8, -1.2], [1.0, -1.0]) - (-0.75)) < 1e-12

    def test_hand_example_from_raw_rewards(self):
        dist = SearchDistribution(mu=-1.0, sigma=0.2, eta=0.05, population=2)
        normalized = normalize_rewards([0.9, 0.7])
        assert abs(reinforce_update(dist, [-0.8, -1.2], normalized) - (-0.75)) < 1e-12

    def test_eta_linearity(self):
        rng = np.random.default_rng(4)
        dist = SearchDistribution(mu=-2.0, sigma=0.3, eta=0.05, population=4)
        for _ in range(20):
            factors = rng.normal(-2.0, 0.3, 4)
            rewards = normalize_rewards(rng.uniform(0.0, 1.0, 4))
            small = reinforce_update(dist, factors, rewards) - dist.mu
            big = reinforce_update(replace(dist, eta=0.1), factors, rewards) - dist.mu
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
        settings = default_settings()
        a = run_search(settings, state, train, val, pairs, seed=7)
        b = run_search(settings, state, train, val, pairs, seed=7)
        assert a.history == b.history
        assert a.final_mu == b.final_mu
        assert param_digest(a.best_state.model, a.best_state.head) == \
            param_digest(b.best_state.model, b.best_state.head)

    def test_winner_broadcast_chains_digests(self):
        train, val, pairs, state = search_fixture(seed=2)
        result = run_search(default_settings(), state, train, val, pairs, seed=9)
        first = result.history[0]
        assert first.start_digest == param_digest(state.model, state.head)
        for prev, cur in zip(result.history, result.history[1:]):
            assert cur.start_digest == prev.winner_digest
        for record in result.history:
            assert record.winner_digest == record.digests[record.winner]
            assert record.raw_rewards[record.winner] == max(record.raw_rewards)

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
        result = run_search(default_settings(), state, train, val, pairs, seed=9)
        assert starts == [record.start_digest for record in result.history]

    def test_each_parameter_set_is_hashed_once(self, monkeypatch):
        # The initial state, then each epoch's candidates: a winner is not
        # hashed again as the next epoch's start. The search hashes the
        # initial state and each candidate is hashed where it trains, so the
        # count is shared with the forked workers.
        real = param_digest
        train, val, pairs, state = search_fixture(seed=2)
        for processes in (1, 2):
            calls = multiprocessing.Value("i", 0)

            def counted(model, head):
                with calls.get_lock():
                    calls.value += 1
                return real(model, head)

            monkeypatch.setattr(search_engine, "param_digest", counted)
            monkeypatch.setattr(sgd_trainer, "param_digest", counted)
            with processes_forced(processes):
                run_search(default_settings(epochs=3), state, train, val, pairs, seed=9)
            assert calls.value == 1 + 3 * 2

    def test_best_is_argmax_over_history(self):
        train, val, pairs, state = search_fixture(seed=3)
        result = run_search(default_settings(), state, train, val, pairs, seed=10)
        per_epoch_best = [max(r.raw_rewards) for r in result.history]
        assert result.best_reward == max(per_epoch_best)
        top = result.history[result.best_epoch - 1]
        assert result.best_candidate == top.winner
        assert param_digest(result.best_state.model, result.best_state.head) == \
            top.winner_digest

    def test_zero_epochs(self):
        train, val, pairs, state = search_fixture(seed=4)
        before = param_digest(state.model, state.head)
        result = run_search(default_settings(epochs=0), state, train, val, pairs, seed=11)
        assert result.history == ()
        assert result.best_reward is None
        assert result.best_epoch == 0
        assert result.best_candidate is None
        assert result.final_mu == -10.0
        assert param_digest(result.best_state.model, result.best_state.head) == before

    def test_input_state_is_untouched(self):
        train, val, pairs, state = search_fixture(seed=5)
        before = param_digest(state.model, state.head)
        run_search(default_settings(), state, train, val, pairs, seed=12)
        assert param_digest(state.model, state.head) == before
        assert state.epoch == 0

    def test_single_candidate_cannot_move_mu(self):
        train, val, pairs, state = search_fixture(seed=6)
        settings = default_settings(distribution=SearchDistribution(
            mu=-10.0, sigma=0.2, eta=0.05, population=1), epochs=2)
        result = run_search(settings, state, train, val, pairs, seed=13)
        for record in result.history:
            assert record.mu_after == record.mu_before
        assert result.final_mu == -10.0

    def test_factor_sign_mode_negates_first_step(self):
        # Identical first-epoch draws, so the two gradient sign conventions
        # must move mu by the same amount in opposite directions.  The wide
        # sigma keeps the two candidates distinct enough to score apart.
        train, val, pairs, state = search_fixture(seed=7)
        wide = SearchDistribution(mu=-10.0, sigma=4.0, eta=0.05, population=2)
        via_mu = run_search(default_settings(epochs=1, score_grad="mu", distribution=wide),
                            state, train, val, pairs, seed=14)
        via_a = run_search(default_settings(epochs=1, score_grad="a", distribution=wide),
                           state, train, val, pairs, seed=14)
        delta_mu = via_mu.history[0].mu_after - (-10.0)
        delta_a = via_a.history[0].mu_after - (-10.0)
        assert delta_mu != 0.0
        assert abs(delta_a + delta_mu) < 1e-12

    def test_adam_first_step_magnitude_is_eta(self):
        train, val, pairs, state = search_fixture(seed=8)
        wide = SearchDistribution(mu=-10.0, sigma=4.0, eta=0.05, population=2)
        result = run_search(default_settings(epochs=1, outer="adam", distribution=wide),
                            state, train, val, pairs, seed=14)
        delta = result.history[0].mu_after - (-10.0)
        assert delta != 0.0
        assert abs(abs(delta) - 0.05) < 1e-6

    def test_negexp_transform_keeps_factors_negative(self):
        train, val, pairs, state = search_fixture(seed=9)
        settings = default_settings(
            distribution=SearchDistribution(mu=2.0, sigma=0.3, eta=0.05, population=2),
            epochs=2, transform="negexp")
        result = run_search(settings, state, train, val, pairs, seed=16)
        for record in result.history:
            assert all(a < 0.0 for a in record.factors)

    def test_on_epoch_callback_sees_every_record(self):
        train, val, pairs, state = search_fixture(seed=10)
        seen = []
        result = run_search(default_settings(), state, train, val, pairs, seed=17,
                            on_epoch=lambda record, winner: seen.append(
                                (record, param_digest(winner.model, winner.head))))
        assert [r for r, _ in seen] == list(result.history)
        for record, digest in seen:
            assert digest == record.winner_digest

    @pytest.mark.parametrize("processes", [1, 2])
    def test_on_start_is_called_once_the_workers_run(self, processes):
        train, val, pairs, state = search_fixture(seed=10)
        calls = []
        with processes_forced(processes):
            run_search(default_settings(), state, train, val, pairs, seed=17,
                       on_start=lambda: calls.append(
                           ("start", len(multiprocessing.active_children()))),
                       on_epoch=lambda record, winner: calls.append(("epoch", None)))
        assert calls == [("start", processes if processes > 1 else 0)] + [("epoch", None)] * 3

    def test_classification_reward_kind(self):
        train, val, pairs, state = search_fixture(seed=11)
        settings = default_settings(epochs=1, reward_kind="classification")
        result = run_search(settings, state, train, train, pairs, seed=18)
        assert 0.0 <= result.best_reward <= 1.0


class TestFactorRange:
    def test_draws_stay_in_range(self):
        factors = FactorRange(2.0, 50.0)
        draws = [factors.draw(RngStream(seed, "random").child("epoch1").child("factor"))
                 for seed in range(500)]
        assert all(-50.0 <= a <= -2.0 for a in draws)
        # The draws spread over the range, not onto one value.
        assert min(draws) < -40.0 and max(draws) > -3.0

    def test_default_range_is_the_config_default(self):
        config = ExperimentConfig()
        assert (config.random.mag_lo, config.random.mag_hi) == \
            (FactorRange().mag_lo, FactorRange().mag_hi) == (1.0, 1e4)

    def test_range_validation(self):
        for lo, hi in ((0.0, 5.0), (-1.0, 5.0), (5.0, 2.0)):
            with pytest.raises(ContractViolation):
                FactorRange(mag_lo=lo, mag_hi=hi)


def processes_forced(count):
    """A context in which searches use `count` candidate processes."""
    return mock.patch.object(candidate_workers, "candidate_processes",
                             lambda population: count)


def searched(processes, population=2, epochs=3, seed=2, **overrides):
    """A search of the small fixture with `processes` candidate processes."""
    train, val, pairs, state = search_fixture(seed=seed)
    settings = default_settings(epochs=epochs, distribution=SearchDistribution(
        mu=-10.0, sigma=2.0, eta=0.05, population=population), **overrides)
    with processes_forced(processes):
        return run_search(settings, state, train, val, pairs, seed=9)


def unscored(trained, workspace):
    return 0.0


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
        result = run_search(default_settings(), state, train, val, pairs, seed=9)
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
        run_search(default_settings(), state, train, val, pairs, seed=9)
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
            assert (got.epoch, got.overshoot_warned) == (want.epoch, want.overshoot_warned)
        assert multiprocessing.active_children() == []

    def test_each_candidate_is_timed(self):
        for record in searched(2, population=3).history:
            assert len(record.train_s) == len(record.reward_s) == 3
            assert all(t > 0 for t in record.train_s + record.reward_s)

    @pytest.mark.parametrize("learning_rate", [1e300, 1e50, 1e20])
    def test_warnings_and_failures_match_in_process(self, learning_rate):
        def run(processes):
            return lambda: searched(processes, population=3,
                                    schedule=LrSchedule(learning_rate))

        alone = recorded_warnings(run(1))
        forked = recorded_warnings(run(2))
        assert forked == alone
        assert alone[1], "the run should warn"
        assert (alone[0] is None) == (learning_rate == 1e20)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_no_worker_outlives_an_interrupted_epoch(self, error):
        def interrupt(record, state):
            raise error

        train, val, pairs, state = search_fixture(seed=2)
        with processes_forced(2), pytest.raises(error):
            run_search(default_settings(), state, train, val, pairs, seed=9,
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
            workers.run(state, [-1.0, -2.0], 0.05, RngStream(1, "epoch"))
            for proc in workers._procs:
                os.kill(proc.pid, signal.SIGINT)
                proc.join(10)
                assert proc.exitcode == 0
        assert "Traceback" not in capfd.readouterr().err
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task") or numerics._openblas() is None,
                        reason="needs /proc and numpy's bundled OpenBLAS")
    def test_a_worker_of_a_pinned_process_runs_one_thread(self):
        # OpenBLAS shuts its thread pool down in a forked child; a worker
        # that set the count again would restart it beside its own thread.
        def threads(trained, workspace):
            return len(os.listdir("/proc/self/task"))

        train, val, pairs, state = search_fixture(seed=2)
        with one_blas_thread(), CandidateWorkers(2, state, 2, train, SgdConfig(),
                                                 threads) as workers:
            outcomes = workers.run(state, [-1.0, -2.0], 0.05, RngStream(1, "epoch"))
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

        def warning(state, factor, *args):
            warnings.warn(f"candidate at {factor:g}", UserWarning)
            if factor == -2.0:
                raise NonFiniteTrainingError("failed at -2")
            return real(state, factor, *args)

        monkeypatch.setattr(sgd_trainer, "train_candidate", warning)
        monkeypatch.setattr(candidate_workers, "train_candidate", warning)
        train, val, pairs, state = search_fixture(seed=2)
        shown = []
        with CandidateWorkers(2, state, 4, train, SgdConfig(), unscored) as workers:
            for runner in (InProcessCandidates(train, SgdConfig(), unscored), workers):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with pytest.raises(NonFiniteTrainingError, match="failed at -2"):
                        train_candidates(state, [-1.0, -2.0, -3.0, -4.0], 0.05,
                                         RngStream(1, "epoch"), runner)
                shown.append([str(w.message) for w in caught])
        assert shown == [["candidate at -1", "candidate at -2"]] * 2
        assert multiprocessing.active_children() == []
