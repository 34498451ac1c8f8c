"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
with the measured quantities.  The directional training comparisons
(criteria 6-8) share their expensive runs through a module-level cache.
"""

import copy
import json
import math
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from lfsearch.checkpoint import (CheckpointFormatError, param_digest,
                                 read_checkpoint, write_checkpoint)
from lfsearch.cli import main
from lfsearch.datasets import (PairSet, SyntheticSpec, generate_synthetic,
                               make_pairs, split_open_set)
from lfsearch.embed_model import backward, forward, init_model, unflatten
from lfsearch.eval_protocols import (embed_all, make_gallery_probe,
                                     pair_similarities, rank1_identification,
                                     reward, tpr_at_far, verification_accuracy)
from lfsearch.margin_losses import MarginSpec, batch_loss_and_grad, modulating_function
from lfsearch.numerics import RngStream
from lfsearch.search_engine import (SearchDistribution, SearchSettings,
                                    normalize_rewards, reinforce_update, run_search)
from lfsearch.sgd_trainer import LrSchedule, SgdConfig, TrainState, train_epoch
from oracles import (LogitRow, log_margin_probability, log_softmax_probability,
                     margin_transform, modulating_factor, unified_loss)

SEEDS = range(5)
SWEEP_FACTORS = (-1.0, -10.0, -100.0, -1000.0, -10000.0)
EPOCHS = 30

_CACHE = {}


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def _desk_problem(seed):
    """Default-scale experiment: data, open split, pairs, fresh state."""
    data = generate_synthetic(SyntheticSpec(50, 32, 40, 0.35, seed))
    train, val = split_open_set(data, 0.8, seed)
    pairs = make_pairs(val, 2000, seed)
    model, head = init_model([32, 128, 64], train.identity_count, 32.0,
                             RngStream(seed, "init"))
    return train, val, pairs, TrainState.fresh(model, head)


def _default_sgd():
    return SgdConfig(), LrSchedule(0.1, (15, 25), 10.0)


def _fixed_run(spec, seed, stream_name, score_every_epoch):
    """Train one fixed-loss model on the desk problem; return its rewards.

    The model trains EPOCHS epochs with the shuffle of RngStream(seed,
    stream_name) and is scored after every epoch, or only after the last.
    """
    train, val, pairs, state = _desk_problem(seed)
    sgd, sched = _default_sgd()
    root = RngStream(seed, stream_name)
    scores = []
    for epoch in range(1, EPOCHS + 1):
        state, _ = train_epoch(state, spec, train, sgd, sched.lr_at(epoch),
                               root.child(f"epoch{epoch}"))
        if score_every_epoch or epoch == EPOCHS:
            scores.append(reward(state.model, state.head, val, pairs))
    return scores


def _fixed_rewards(a):
    """Final validation rewards of fixed-factor runs over all seeds."""
    key = ("fixed", a)
    if key not in _CACHE:
        start = time.perf_counter()
        spec = MarginSpec.unified(a) if a != 0.0 else MarginSpec.plain()
        finals = [_fixed_run(spec, seed, "fixed", False)[-1] for seed in SEEDS]
        _CACHE[key] = (finals, time.perf_counter() - start)
    return _CACHE[key]


def _plain_twin_curves(stream_name):
    """Per-epoch rewards of plain softmax trained on another arm's shuffle stream.

    The twin is built from train_epoch itself, not from the arm's own loop,
    so a fault in the arm cannot reach the baseline it is compared with.
    """
    key = ("plain-twin", stream_name)
    if key not in _CACHE:
        start = time.perf_counter()
        curves = [_fixed_run(MarginSpec.plain(), seed, stream_name, True)
                  for seed in SEEDS]
        _CACHE[key] = (curves, time.perf_counter() - start)
    return _CACHE[key]


def _search_runs(population):
    key = ("search", population)
    if key not in _CACHE:
        start = time.perf_counter()
        sgd, sched = _default_sgd()
        settings = SearchSettings(
            distribution=SearchDistribution(mu=-10.0, sigma=0.2, eta=0.05,
                                            population=population),
            epochs=EPOCHS, sgd=sgd, schedule=sched)
        results = []
        for seed in SEEDS:
            train, val, pairs, state = _desk_problem(seed)
            results.append(run_search(settings, state, train, val, pairs, seed))
        _CACHE[key] = (results, time.perf_counter() - start)
    return _CACHE[key]


def _random_histories():
    """Per-epoch val_reward of a default random-schedule run of each seed,
    read from its metrics.jsonl."""
    if "random" not in _CACHE:
        start = time.perf_counter()
        histories = []
        with tempfile.TemporaryDirectory() as scratch:
            for seed in SEEDS:
                out = Path(scratch) / f"seed{seed}"
                assert main(["random-schedule", "--out", str(out), "--seed", str(seed)]) == 0
                lines = (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
                histories.append([json.loads(line)["val_reward"] for line in lines])
        _CACHE["random"] = (histories, time.perf_counter() - start)
    return _CACHE["random"]


class TestIdentities:
    def test_criterion_01_factor_composition_identity(self, capsys):
        """margin-softmax probability == h(a, p) * p across the margin family."""
        specs = [MarginSpec.plain(),
                 MarginSpec.angular(2),
                 MarginSpec.additive_angular(0.5),
                 MarginSpec.additive(0.35),
                 MarginSpec.combined(2, 0.3, 0.2)]
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        worst_log = 0.0
        worst_literal = 0.0
        rows = 0
        literal_rows = 0
        for spec in specs:
            for scale in (1.0, 16.0, 32.0, 64.0):
                for k in (2, 10, 100):
                    cosines = rng.uniform(-1.0, 1.0, size=(1000, k))
                    labels = rng.integers(0, k, size=1000)
                    for c, y in zip(cosines, labels):
                        row = LogitRow(c, int(y), scale)
                        cos_y = float(c[y])
                        f = margin_transform(spec, cos_y)
                        lpm = log_margin_probability(spec, row)
                        lp = log_softmax_probability(row)
                        # h*p recomposed in the log domain through
                        # (1-p)/p = expm1(-log p), which keeps relative
                        # precision on both sides of the overshoot boundary.
                        term = math.exp(scale * (cos_y - f)) * math.expm1(-lp)
                        rel = abs(math.expm1(lpm + math.log1p(term)))
                        worst_log = max(worst_log, rel)
                        rows += 1
                        a = modulating_factor(spec, cos_y, scale)
                        p = math.exp(lp)
                        if a <= 0.0 and p <= 1.0 - 1e-5:
                            hp = modulating_function(a, p) * p
                            pm = math.exp(lpm)
                            worst_literal = max(worst_literal, abs(pm - hp) / pm)
                            literal_rows += 1
        elapsed = time.perf_counter() - start
        ok = worst_log <= 1e-9 and worst_literal <= 1e-9 and elapsed < 5.0
        _report(capsys, 1, ok,
                f"composition identity rel err {worst_log:.3e} over {rows} rows, "
                f"literal h(a,p)*p rel err {worst_literal:.3e} over {literal_rows} rows, "
                f"{elapsed:.1f}s")
        assert worst_log <= 1e-9
        assert worst_literal <= 1e-9
        assert elapsed < 5.0

    def test_criterion_02_probability_reduction_properties(self, capsys):
        """h stays in (0, 1], never raises p, and increases in both arguments."""
        rng = np.random.default_rng(1)
        start = time.perf_counter()
        n = 100_000
        factors = -np.power(10.0, rng.uniform(-4.0, 5.0, size=n))
        factors[:500] = 0.0
        probs = rng.uniform(1e-12, 1.0, size=n)
        probs[500:750] = 1.0
        h = np.array([modulating_function(a, p) for a, p in zip(factors, probs)])
        in_range = bool(((h > 0.0) & (h <= 1.0)).all())
        reduces = bool((h * probs <= probs).all())
        at_identity = bool((h[:750] == 1.0).all())
        monotone_a = True
        for p0 in (0.1, 0.5, 0.9):
            grid = -np.power(10.0, np.linspace(5.0, -4.0, 400))
            values = [modulating_function(a, p0) for a in grid]
            monotone_a &= bool((np.diff(values) > 0.0).all())
        monotone_p = True
        for a0 in (-0.5, -10.0, -1000.0):
            grid = np.linspace(1e-3, 1.0 - 1e-3, 400)
            values = [modulating_function(a0, p) for p in grid]
            monotone_p &= bool((np.diff(values) > 0.0).all())
        elapsed = time.perf_counter() - start
        ok = in_range and reduces and at_identity and monotone_a and monotone_p and elapsed < 1.0
        _report(capsys, 2, ok,
                f"{n} samples: h in (0,1] {in_range}, p_m <= p {reduces}, "
                f"h == 1 at a=0 or p=1 {at_identity}, strict monotone in a {monotone_a} "
                f"and p {monotone_p}, {elapsed:.2f}s")
        assert in_range and reduces and at_identity
        assert monotone_a and monotone_p
        assert elapsed < 1.0


class TestGradients:
    def test_criterion_03_gradients_match_finite_differences(self, capsys):
        """Analytic loss and network gradients against central differences."""
        rng = np.random.default_rng(2)
        start = time.perf_counter()
        eps = 1e-6
        worst_loss = 0.0
        for i in range(100):
            k = int(rng.integers(2, 51))
            scale = float(rng.uniform(1.0, 64.0))
            a = 0.0 if i % 5 == 0 else -float(10.0 ** rng.uniform(-3.0, 3.0))
            cosines = rng.uniform(-0.95, 0.95, size=k)
            y = int(rng.integers(0, k))
            _, grads = batch_loss_and_grad(MarginSpec.unified(a), cosines[None, :],
                                           np.array([y]), scale)
            grad = grads[0]
            fd = np.empty(k)
            for j in range(k):
                up = cosines.copy()
                up[j] += eps
                down = cosines.copy()
                down[j] -= eps
                fd[j] = (unified_loss(a, LogitRow(up, y, scale))
                         - unified_loss(a, LogitRow(down, y, scale))) / (2 * eps)
            err = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-10)
            worst_loss = max(worst_loss, err)

        specs = [MarginSpec.plain(), MarginSpec.unified(-5.0), MarginSpec.additive(0.35),
                 MarginSpec.angular(2), MarginSpec.additive_angular(0.5),
                 MarginSpec.combined(2, 0.3, 0.2), MarginSpec.unified(-0.5),
                 MarginSpec.unified(-500.0)]
        worst_net = 0.0
        for i in range(20):
            dims = [int(rng.integers(3, 6)), int(rng.integers(4, 9)), int(rng.integers(2, 5))]
            k = int(rng.integers(3, 7))
            batch = int(rng.integers(2, 5))
            scale = float(rng.uniform(4.0, 32.0))
            spec = specs[i % len(specs)]
            model, head = init_model(dims, k, scale, RngStream(i, "fd"))
            inputs = rng.normal(0.0, 1.0, size=(batch, dims[0]))
            labels = rng.integers(0, k, size=batch)

            def objective(m, h):
                cos, _ = forward(m, h, inputs)
                losses, _ = batch_loss_and_grad(spec, cos, labels, scale)
                return float(losses.mean())

            cos, cache = forward(model, head, inputs)
            _, dcos = batch_loss_and_grad(spec, cos, labels, scale)
            grad_model, grad_head = unflatten(backward(cache, dcos / batch), model, head)
            analytic = []
            numeric = []
            for layer, w in enumerate(model.weights):
                for idx in np.ndindex(w.shape):
                    probe = copy.deepcopy(model)
                    probe.weights[layer][idx] += eps
                    up = objective(probe, head)
                    probe.weights[layer][idx] -= 2 * eps
                    down = objective(probe, head)
                    numeric.append((up - down) / (2 * eps))
                    analytic.append(grad_model.weights[layer][idx])
            for layer, b in enumerate(model.biases):
                for idx in np.ndindex(b.shape):
                    probe = copy.deepcopy(model)
                    probe.biases[layer][idx] += eps
                    up = objective(probe, head)
                    probe.biases[layer][idx] -= 2 * eps
                    down = objective(probe, head)
                    numeric.append((up - down) / (2 * eps))
                    analytic.append(grad_model.biases[layer][idx])
            for idx in np.ndindex(head.class_weights.shape):
                probe = copy.deepcopy(head)
                probe.class_weights[idx] += eps
                up = objective(model, probe)
                probe.class_weights[idx] -= 2 * eps
                down = objective(model, probe)
                numeric.append((up - down) / (2 * eps))
                analytic.append(grad_head.class_weights[idx])
            analytic = np.asarray(analytic)
            numeric = np.asarray(numeric)
            err = np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-10)
            worst_net = max(worst_net, err)
        elapsed = time.perf_counter() - start
        ok = worst_loss <= 1e-5 and worst_net <= 1e-4 and elapsed < 30.0
        _report(capsys, 3, ok,
                f"loss-level rel err {worst_loss:.3e} (100 configs), "
                f"network-level rel err {worst_net:.3e} (20 configs), {elapsed:.1f}s")
        assert worst_loss <= 1e-5
        assert worst_net <= 1e-4
        assert elapsed < 30.0


class TestSearchArithmetic:
    def test_criterion_04_reinforce_hand_arithmetic(self, capsys):
        """The worked two-candidate update and the zero-variance guard."""
        normalized = normalize_rewards([0.9, 0.7])
        dist = SearchDistribution(mu=-1.0, sigma=0.2, eta=0.05, population=2)
        updated = reinforce_update(dist, [-0.8, -1.2], normalized)
        flat = reinforce_update(dist, [-0.8, -1.2], normalize_rewards([0.4, 0.4]))
        norm_err = max(abs(normalized[0] - 1.0), abs(normalized[1] + 1.0))
        update_err = abs(updated - (-0.75))
        ok = norm_err <= 1e-12 and update_err <= 1e-12 and flat == -1.0
        _report(capsys, 4, ok,
                f"normalized rewards off by {norm_err:.2e}, mu' off by {update_err:.2e}, "
                f"tied rewards leave mu at {flat}")
        assert norm_err <= 1e-12
        assert update_err <= 1e-12
        assert flat == -1.0

    def test_criterion_05_search_determinism_and_broadcast(self, capsys, tmp_path):
        """Byte-identical reruns, winner broadcast bit-for-bit."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schedule": {"epochs": 3},
                                      "search": {"population": 2}}), encoding="utf-8")
        outs = [tmp_path / name for name in ("a", "b", "c")]
        for out in outs:
            assert main(["search", "--config", str(config), "--out", str(out)]) == 0
        blobs = [(out / "metrics.jsonl").read_bytes() for out in outs]
        identical = blobs[0] == blobs[1] == blobs[2]
        models = [(out / "best.lfs").read_bytes() for out in outs]
        identical &= models[0] == models[1] == models[2]
        records = [json.loads(line) for line in blobs[0].decode().splitlines()]
        chained = all(cur["start_digest"] == prev["winner_digest"]
                      for prev, cur in zip(records, records[1:]))
        broadcast = True
        for record in records:
            model, head = read_checkpoint(outs[0] / "checkpoints"
                                          / f"epoch_{record['epoch']:03d}.lfs")
            broadcast &= param_digest(model, head) == record["winner_digest"]
        ok = identical and chained and broadcast
        _report(capsys, 5, ok,
                f"three reruns byte-identical {identical}, "
                f"start==previous winner for all {len(records)} epochs {chained and broadcast}")
        assert identical
        assert chained
        assert broadcast


class TestDirectionalTrends:
    def test_criterion_06_fixed_negative_factor_beats_plain(self, capsys):
        """Best constant a < 0 from the sweep vs the plain baseline."""
        plain, plain_secs = _fixed_rewards(0.0)
        sweep = {a: _fixed_rewards(a) for a in SWEEP_FACTORS}
        elapsed = plain_secs + sum(secs for _, secs in sweep.values())
        means = {a: statistics.mean(vals) for a, (vals, _) in sweep.items()}
        best_a = max(means, key=means.get)
        plain_mean = statistics.mean(plain)
        ok = means[best_a] >= plain_mean and elapsed < 600.0
        _report(capsys, 6, ok,
                f"best fixed a={best_a:g} mean {means[best_a]:.4f} vs plain "
                f"{plain_mean:.4f} over {len(plain)} seeds, {elapsed:.0f}s")
        assert means[best_a] >= plain_mean
        assert elapsed < 600.0

    def test_criterion_07_guided_and_random_schedules_vs_plain(self, capsys):
        """Search-chosen and randomly-resampled factors vs plain on the same shuffle.

        Every arm is scored the way the search scores itself: the best
        validation reward seen anywhere in the run (SearchResult.best_reward).
        Each arm is compared with a plain-softmax twin trained on the arm's
        own shuffle stream ("search" or "random"), so the factor is the only
        difference between an arm and its baseline. Paired last-epoch
        differences are printed alongside but not asserted.
        """
        searched, search_secs = _search_runs(4)
        randomized, random_secs = _random_histories()
        search_twins, search_twin_secs = _plain_twin_curves("search")
        random_twins, random_twin_secs = _plain_twin_curves("random")
        elapsed = search_secs + random_secs + search_twin_secs + random_twin_secs
        search_mean = statistics.mean(r.best_reward for r in searched)
        random_mean = statistics.mean(max(h) for h in randomized)
        plain_search_mean = statistics.mean(max(c) for c in search_twins)
        plain_random_mean = statistics.mean(max(c) for c in random_twins)
        search_last_gap = statistics.mean(
            r.history[-1].raw_rewards[r.history[-1].winner] - c[-1]
            for r, c in zip(searched, search_twins))
        random_last_gap = statistics.mean(
            h[-1] - c[-1] for h, c in zip(randomized, random_twins))
        search_ok = search_mean >= plain_search_mean
        random_ok = random_mean >= plain_random_mean
        ok = search_ok and random_ok and elapsed < 1800.0
        _report(capsys, 7, ok,
                f"best in run: search mean {search_mean:.4f} "
                f"{'>=' if search_ok else '<'} paired plain {plain_search_mean:.4f}, "
                f"random-schedule mean {random_mean:.4f} "
                f"{'>=' if random_ok else '<'} paired plain {plain_random_mean:.4f}; "
                f"last epoch (not asserted): search - plain {search_last_gap:+.4f}, "
                f"random - plain {random_last_gap:+.4f}; {elapsed:.0f}s")
        assert elapsed < 1800.0
        assert search_ok, (f"guided search best-in-run mean {search_mean:.4f} fell "
                           f"below plain {plain_search_mean:.4f} trained on the "
                           f"search shuffle stream and scored the same way")
        assert random_ok, (f"random-schedule best-in-run mean {random_mean:.4f} fell "
                           f"below plain {plain_random_mean:.4f} trained on the "
                           f"random shuffle stream and scored the same way")

    def test_criterion_08_population_size_robustness(self, capsys):
        """Populations 2, 4, 8 all complete; larger ones are within noise of B=2."""
        rewards = {}
        elapsed = 0.0
        for population in (2, 4, 8):
            results, secs = _search_runs(population)
            elapsed += secs
            assert all(len(r.history) == EPOCHS for r in results)
            rewards[population] = [r.best_reward for r in results]
        means = {b: statistics.mean(v) for b, v in rewards.items()}
        stds = {b: statistics.stdev(v) for b, v in rewards.items()}

        def pooled(x, y):
            return math.sqrt((stds[x] ** 2 + stds[y] ** 2) / 2.0)

        ok_4 = means[4] >= means[2] - pooled(2, 4)
        ok_8 = means[8] >= means[2] - pooled(2, 8)
        gap_48 = abs(means[4] - means[8])
        ok_48 = gap_48 <= pooled(4, 8)
        ok = ok_4 and ok_8 and ok_48
        _report(capsys, 8, ok,
                f"means B2 {means[2]:.4f} B4 {means[4]:.4f} B8 {means[8]:.4f}; "
                f"B4-B8 gap {gap_48:.4f} vs pooled sd {pooled(4, 8):.4f}; "
                f"B>=4 within one pooled sd of B2 {ok_4 and ok_8}; {elapsed:.0f}s")
        assert ok_4 and ok_8
        assert ok_48


class TestProtocolOracles:
    def test_criterion_09_evaluation_matches_brute_force(self, capsys):
        """Rank-1 and TPR@FAR against exhaustive re-implementations."""
        rng = np.random.default_rng(9)
        rank_exact = True
        tpr_exact = True
        for trial in range(10):
            n_ids = int(rng.integers(3, 9))
            gallery = rng.normal(size=(n_ids, 6))
            gallery /= np.linalg.norm(gallery, axis=1, keepdims=True)
            n_probes = int(rng.integers(5, 41))
            probe_labels = rng.integers(0, n_ids, size=n_probes)
            probes = rng.normal(size=(n_probes, 6))
            probes /= np.linalg.norm(probes, axis=1, keepdims=True)
            rank1, cmc = rank1_identification(gallery, np.arange(n_ids),
                                              probes, probe_labels)
            hits = 0
            first_ranks = []
            for p, label in zip(probes, probe_labels):
                sims = [float(p @ g) for g in gallery]
                order = sorted(range(n_ids), key=lambda j: (-sims[j], j))
                first_ranks.append(order.index(int(label)))
                hits += order[0] == label
            rank_exact &= rank1 == hits / n_probes
            oracle_cmc = tuple(sum(1 for r in first_ranks if r <= m) / n_probes
                               for m in range(n_ids))
            rank_exact &= cmc == oracle_cmc

            n_pairs = int(rng.integers(16, 50))
            sims = rng.uniform(-1.0, 1.0, size=n_pairs)
            flags = rng.uniform(size=n_pairs) < 0.5
            flags[0] = True
            flags[1] = False
            far = float(rng.choice([0.5, 0.25, 0.2]))
            got = tpr_at_far(sims, flags, far)
            negatives = sims[~flags]
            positives = sims[flags]
            best = -1.0
            for t in list(negatives) + [-np.inf]:
                if np.mean(negatives > t) <= far:
                    best = max(best, float(np.mean(positives > t)))
            tpr_exact &= got == best

        same = np.repeat([[1.0, 0.0]], 10, axis=0)
        diff = np.repeat([[0.0, 1.0]], 10, axis=0)
        emb = np.empty((40, 2))
        emb[0::4] = same
        emb[1::4] = same
        emb[2::4] = diff
        emb[3::4] = same
        firsts = np.arange(0, 40, 2)
        seconds = np.arange(1, 40, 2)
        flags = np.arange(20) % 2 == 0
        pairs = PairSet(firsts, seconds, flags)
        separable = verification_accuracy(pair_similarities(emb, pairs),
                                          pairs.same).accuracy
        ok = rank_exact and tpr_exact and separable == 1.0
        _report(capsys, 9, ok,
                f"rank-1/CMC exact {rank_exact}, TPR@FAR exact {tpr_exact} "
                f"(10 instances each), separable verification {separable}")
        assert rank_exact
        assert tpr_exact
        assert separable == 1.0

    def test_criterion_10_checkpoint_round_trip_fidelity(self, capsys, tmp_path):
        """Write -> read -> evaluate reproduces metrics; damage is rejected."""
        data = generate_synthetic(SyntheticSpec(6, 8, 8, 0.3, 0))
        train, val = split_open_set(data, 0.7, 0)
        pairs = make_pairs(val, 12, 0)
        model, head = init_model([8, 12, 6], train.identity_count, 16.0,
                                 RngStream(0, "init"))
        state = TrainState.fresh(model, head)
        sgd, sched = _default_sgd()
        root = RngStream(0, "fixed")
        for epoch in (1, 2):
            state, _ = train_epoch(state, MarginSpec.unified(-10.0), train, sgd,
                                   sched.lr_at(epoch), root.child(f"epoch{epoch}"))
        before_reward = reward(state.model, state.head, val, pairs)
        split = make_gallery_probe(val)
        emb = embed_all(state.model, state.head, val)
        before_rank1, before_cmc = rank1_identification(
            emb[split.gallery_indices], split.gallery_labels,
            emb[split.probe_indices], split.probe_labels)
        path = tmp_path / "model.lfs"
        write_checkpoint(path, state.model, state.head)
        loaded_model, loaded_head = read_checkpoint(path)
        after_reward = reward(loaded_model, loaded_head, val, pairs)
        emb = embed_all(loaded_model, loaded_head, val)
        after_rank1, after_cmc = rank1_identification(
            emb[split.gallery_indices], split.gallery_labels,
            emb[split.probe_indices], split.probe_labels)
        digests_match = param_digest(state.model, state.head) == \
            param_digest(loaded_model, loaded_head)
        exact = (after_reward == before_reward and after_rank1 == before_rank1
                 and after_cmc == before_cmc and digests_match)

        blob = path.read_bytes()
        rejected = 0
        attempts = 0
        for cut in (0, 4, len(blob) // 3, len(blob) - 1):
            attempts += 1
            damaged = tmp_path / f"cut{cut}.lfs"
            damaged.write_bytes(blob[:cut])
            with pytest.raises(CheckpointFormatError):
                read_checkpoint(damaged)
            rejected += 1
        attempts += 1
        damaged = tmp_path / "magic.lfs"
        damaged.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(CheckpointFormatError):
            read_checkpoint(damaged)
        rejected += 1
        attempts += 1
        damaged = tmp_path / "long.lfs"
        damaged.write_bytes(blob + b"\x00")
        with pytest.raises(CheckpointFormatError):
            read_checkpoint(damaged)
        rejected += 1
        ok = exact and rejected == attempts
        _report(capsys, 10, ok,
                f"round-trip reward {after_reward} == {before_reward} and digests "
                f"match {digests_match}; {rejected}/{attempts} damaged files rejected")
        assert exact
