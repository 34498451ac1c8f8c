"""Tests for the evaluation protocols, each checked against a small
brute-force oracle written independently of the library code.
"""

import tracemalloc

import numpy as np
import pytest

from lfsearch import eval_protocols
from lfsearch.contracts import ContractViolation
from lfsearch.datasets import LabeledDataset, PairSet, SyntheticSpec, generate_synthetic
from lfsearch.embed_model import ClassifierHead, EmbeddingModel, embed, forward, init_model
from lfsearch.eval_protocols import (
    FarUnresolvableError,
    VerificationReport,
    classification_accuracy,
    embed_all,
    make_gallery_probe,
    pair_similarities,
    rank1_identification,
    reward,
    tpr_at_far,
    verification_accuracy,
)
from lfsearch.numerics import RngStream, Workspace, l2_normalize_rows
from oracles import fold_scan


def pairs_with_sims(target_sims, same_flags):
    """Embeddings engineered so pair i has cosine target_sims[i]."""
    n = len(target_sims)
    emb = np.zeros((2 * n, 2))
    theta = np.arccos(np.clip(target_sims, -1.0, 1.0))
    emb[0::2, 0] = 1.0
    emb[1::2, 0] = np.cos(theta)
    emb[1::2, 1] = np.sin(theta)
    pairs = PairSet(np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2),
                    np.asarray(same_flags, dtype=bool))
    return emb, pairs


def oracle_verification(sims, same, folds):
    """Direct threshold scan per fold; ties keep the lowest threshold.

    Returns the per-fold thresholds, the per-fold held-out accuracies and
    their mean.
    """
    fold_of = np.arange(sims.size) % folds
    thresholds = []
    accuracies = []
    for fold in range(folds):
        held = fold_of == fold
        train_s, train_f = sims[~held], same[~held]
        ordered = np.sort(train_s)
        candidates = [ordered[0] - 1.0]
        candidates += [0.5 * (a + b) for a, b in zip(ordered, ordered[1:]) if a != b]
        candidates.append(ordered[-1] + 1.0)
        best_acc, best_t = -1.0, None
        for t in candidates:
            acc = np.mean((train_s > t) == train_f)
            if acc > best_acc:
                best_acc, best_t = acc, t
        thresholds.append(best_t)
        accuracies.append(np.mean((sims[held] > best_t) == same[held]))
    return tuple(thresholds), tuple(accuracies), float(np.mean(accuracies))


def tie_heavy_cases(seed, folds, trials):
    """Engineered pairs whose similarities are rounded to two decimals, so
    ties are common; the pair count is never a multiple of `folds`."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(20, 60))
        if n % folds == 0:
            n += 1
        sims_wanted = np.round(rng.uniform(-0.9, 0.9, n), 2)
        flags = rng.random(n) < 0.5
        if flags.all() or not flags.any():
            flags[0] = True
            flags[1] = False
        yield pairs_with_sims(sims_wanted, flags)


def oracle_roc(sims, same):
    points = [(0.0, 0.0)]
    negatives = np.sum(~same)
    positives = np.sum(same)
    for v in np.unique(sims)[::-1]:
        far = np.sum(sims[~same] >= v) / negatives
        tpr = np.sum(sims[same] >= v) / positives
        points.append((far, tpr))
    return tuple(points)


def oracle_rank1(gallery_emb, gallery_labels, probe_emb, probe_labels):
    hits = 0
    for i in range(probe_emb.shape[0]):
        best = int(np.argmax(gallery_emb @ probe_emb[i]))
        hits += int(gallery_labels[best] == probe_labels[i])
    return hits / probe_emb.shape[0]


def oracle_cmc(gallery_emb, gallery_labels, probe_emb, probe_labels):
    """Rank-1 and CMC from a full stable sort of every probe's gallery row
    (NaN similarities sort last)."""
    sims = probe_emb @ gallery_emb.T
    ranked = gallery_labels[np.argsort(-sims, axis=1, kind="stable")]
    hits = ranked == probe_labels[:, None]
    counts = np.bincount(np.argmax(hits, axis=1), minlength=gallery_labels.size)
    cmc = np.cumsum(counts) / probe_labels.size
    return float(cmc[0]), tuple(float(v) for v in cmc)


def oracle_tpr_at_far(positives, negatives, far):
    """Exhaustive scan: max TPR over thresholds keeping FA fraction <= far."""
    best = -1.0
    for t in list(negatives) + [-np.inf]:
        if np.mean(negatives > t) <= far:
            best = max(best, float(np.mean(positives > t)))
    return best


class TestPairSimilarities:
    def test_matches_dot_products(self):
        rng = np.random.default_rng(0)
        emb = l2_normalize_rows(rng.normal(0.0, 1.0, (12, 5)))
        pairs = PairSet(np.array([0, 2, 4]), np.array([1, 3, 5]),
                        np.array([True, False, True]))
        sims = pair_similarities(emb, pairs)
        for i in range(3):
            assert sims[i] == pytest.approx(emb[pairs.first[i]] @ emb[pairs.second[i]],
                                            rel=0, abs=1e-15)

    def test_index_bounds_checked(self):
        emb = np.eye(3)
        pairs = PairSet(np.array([0, 1]), np.array([2, 3]), np.array([True, False]))
        with pytest.raises(ContractViolation):
            pair_similarities(emb, pairs)

    def test_indices_below_minus_count_are_refused(self):
        # Fancy indexing takes [-3, 3); the gather must not wrap -4 around.
        emb = np.eye(3)
        pairs = PairSet(np.array([0, -4]), np.array([1, 2]), np.array([True, False]))
        with pytest.raises(ContractViolation, match="exceed the embedding count"):
            pair_similarities(emb, pairs)


class TestVerificationAccuracy:
    def test_matches_brute_force_scan(self):
        for folds in (2, 4, 10):
            for emb, pairs in tie_heavy_cases(folds, folds, 20):
                sims = pair_similarities(emb, pairs)
                report = verification_accuracy(sims, pairs.same, folds=folds)
                thresholds, accuracies, mean = oracle_verification(sims, pairs.same, folds)
                assert report.fold_thresholds == thresholds
                assert report.fold_accuracies == accuracies
                assert report.accuracy == mean

    def test_separable_pairs_score_one(self):
        sims = np.concatenate([np.linspace(0.6, 0.9, 10), np.linspace(-0.5, 0.1, 10)])
        flags = np.concatenate([np.ones(10, bool), np.zeros(10, bool)])
        emb, pairs = pairs_with_sims(sims, flags)
        report = verification_accuracy(pair_similarities(emb, pairs), pairs.same, folds=5)
        assert report.accuracy == 1.0

    def test_unrelated_flags_score_near_half(self):
        rng = np.random.default_rng(2)
        sims = rng.uniform(-0.9, 0.9, 600)
        flags = rng.random(600) < 0.5
        emb, pairs = pairs_with_sims(sims, flags)
        report = verification_accuracy(pair_similarities(emb, pairs), pairs.same, folds=10)
        assert abs(report.accuracy - 0.5) < 0.07

    def test_report_shapes(self):
        emb, pairs = pairs_with_sims(np.linspace(-0.5, 0.5, 12),
                                     np.arange(12) % 2 == 0)
        report = verification_accuracy(pair_similarities(emb, pairs), pairs.same, folds=3)
        assert len(report.fold_thresholds) == 3
        assert len(report.fold_accuracies) == 3
        for acc in report.fold_accuracies:
            assert 0.0 <= acc <= 1.0

    def test_roc_points_match_brute_force(self):
        rng = np.random.default_rng(3)
        sims_wanted = np.round(rng.uniform(-0.9, 0.9, 40), 1)
        flags = rng.random(40) < 0.5
        emb, pairs = pairs_with_sims(sims_wanted, flags)
        sims = pair_similarities(emb, pairs)
        report = verification_accuracy(sims, pairs.same, folds=4)
        assert report.roc_points == oracle_roc(sims, pairs.same)

    def test_roc_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(4)
        emb, pairs = pairs_with_sims(rng.uniform(-0.9, 0.9, 30), rng.random(30) < 0.5)
        points = verification_accuracy(pair_similarities(emb, pairs), pairs.same,
                                       folds=3).roc_points
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        fars = [p[0] for p in points]
        tprs = [p[1] for p in points]
        assert all(a <= b for a, b in zip(fars, fars[1:]))
        assert all(a <= b for a, b in zip(tprs, tprs[1:]))

    def test_fold_validation(self):
        emb, pairs = pairs_with_sims(np.linspace(-0.5, 0.5, 6), np.arange(6) % 2 == 0)
        sims = pair_similarities(emb, pairs)
        with pytest.raises(ContractViolation):
            verification_accuracy(sims, pairs.same, folds=1)
        with pytest.raises(ContractViolation):
            verification_accuracy(sims, pairs.same, folds=7)
        with pytest.raises(ContractViolation):
            verification_accuracy(sims, pairs.same[:-1], folds=2)

    def test_report_validation(self):
        with pytest.raises(ContractViolation):
            VerificationReport(accuracy=1.5, fold_thresholds=(), fold_accuracies=(),
                               roc_points=())


def scan_inputs(kind, n, rng):
    """n >= 2 similarities of one kind, and same flags at a random rate.
    Every kind but "distinct" holds at least one pair of sorted neighbours
    that are not strictly increasing."""
    if kind == "distinct":
        sims = rng.uniform(-1.0, 1.0, n)
    elif kind == "ties":
        sims = np.round(rng.uniform(-1.0, 1.0, n), 2)
        sims[-1] = sims[0]
    elif kind == "one tie":
        sims = rng.uniform(-1.0, 1.0, n)
        sims[-1] = sims[(n - 1) // 2]
    elif kind == "nan":
        sims = rng.uniform(-1.0, 1.0, n)
        sims[rng.random(n) < 0.05] = np.nan
        sims[0] = np.nan
    else:  # signed zeros among other values
        sims = np.where(rng.random(n) < 0.5, rng.choice([-0.0, 0.0], n),
                        rng.uniform(-1.0, 1.0, n))
        sims[0], sims[-1] = -0.0, 0.0
    return sims, rng.random(n) < rng.uniform(0.1, 0.9)


class TestFoldScanMatchesTheFoldLoop:
    """The scan gives the bits of tests/oracles.fold_scan, the per-fold loop
    it replaced, on the default sort and on the stable fallback."""

    @pytest.mark.parametrize("kind, sorts", [("distinct", [None]),
                                             ("ties", [None, "stable"]),
                                             ("one tie", [None, "stable"]),
                                             ("nan", [None, "stable"]),
                                             ("signed zeros", [None, "stable"])])
    @pytest.mark.parametrize("folds", [2, 4, 10])
    def test_same_bits(self, monkeypatch, kind, sorts, folds):
        kinds = []
        real = np.argsort

        def argsort(a, *args, **kwargs):
            kinds.append(kwargs.get("kind"))
            return real(a, *args, **kwargs)

        rng = np.random.default_rng([folds, len(kind)])
        for n in (folds, folds + 1, 37, 2001, 19999):
            if n % folds == 0 and n > folds:
                n += 1
            sims, same = scan_inputs(kind, n, rng)
            want = fold_scan(sims, same, folds)
            kinds.clear()
            with monkeypatch.context() as patch:
                patch.setattr(eval_protocols.np, "argsort", argsort)
                got = eval_protocols._fold_scan(sims, same, folds)
            assert kinds == sorts
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert np.array(got[2]).tobytes() == np.array(want[2]).tobytes()
            assert np.array(got[3]).tobytes() == np.array(want[3]).tobytes()

    def test_all_nan(self):
        sims, same = np.full(7, np.nan), np.arange(7) % 3 == 0
        want, got = fold_scan(sims, same, 2), eval_protocols._fold_scan(sims, same, 2)
        assert np.array(got[2]).tobytes() == np.array(want[2]).tobytes()
        assert got[3] == want[3]


class TestMakeGalleryProbe:
    def test_first_sample_per_identity(self):
        data = LabeledDataset(np.arange(12.0).reshape(6, 2),
                              np.array([0, 0, 1, 1, 2, 2]))
        split = make_gallery_probe(data)
        assert np.array_equal(split.gallery_indices, [0, 2, 4])
        assert np.array_equal(split.probe_indices, [1, 3, 5])
        assert np.array_equal(split.gallery_labels, [0, 1, 2])
        assert np.array_equal(split.probe_labels, [0, 1, 2])

    def test_uneven_identity_sizes(self):
        data = LabeledDataset(np.arange(10.0).reshape(5, 2),
                              np.array([0, 1, 1, 1, 0]))
        split = make_gallery_probe(data)
        assert np.array_equal(split.gallery_indices, [0, 1])
        assert np.array_equal(split.probe_indices, [2, 3, 4])

    def test_needs_a_probe(self):
        data = LabeledDataset(np.arange(4.0).reshape(2, 2), np.array([0, 1]))
        with pytest.raises(ContractViolation):
            make_gallery_probe(data)


class TestRank1Identification:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n_ids = int(rng.integers(3, 8))
            g_emb = l2_normalize_rows(rng.normal(0.0, 1.0, (n_ids, 4)))
            g_lab = np.arange(n_ids)
            n_probes = int(rng.integers(5, 40))
            p_emb = l2_normalize_rows(rng.normal(0.0, 1.0, (n_probes, 4)))
            p_lab = rng.integers(0, n_ids, n_probes)
            rank1, cmc = rank1_identification(g_emb, g_lab, p_emb, p_lab)
            assert rank1 == oracle_rank1(g_emb, g_lab, p_emb, p_lab)
            assert cmc[0] == rank1

    @pytest.mark.parametrize("kind", ["plain", "tie-heavy", "nan"])
    def test_cmc_matches_stable_sort(self, kind):
        rng = np.random.default_rng({"plain": 11, "tie-heavy": 12, "nan": 13}[kind])
        for trial in range(60):
            n_gallery = int(rng.integers(1, 30))
            n_probes = int(rng.integers(1, 50))
            g_emb = l2_normalize_rows(rng.normal(0.0, 1.0, (n_gallery, 3)))
            p_emb = l2_normalize_rows(rng.normal(0.0, 1.0, (n_probes, 3)))
            if kind == "tie-heavy":
                g_emb, p_emb = np.round(g_emb), np.round(p_emb)
            elif kind == "nan":
                g_emb[rng.random(g_emb.shape) < 0.05] = np.nan
                p_emb[rng.random(p_emb.shape) < 0.05] = np.nan
            g_lab = rng.permutation(3 * n_gallery)[:n_gallery]
            p_lab = g_lab[rng.integers(0, n_gallery, n_probes)]
            assert (rank1_identification(g_emb, g_lab, p_emb, p_lab)
                    == oracle_cmc(g_emb, g_lab, p_emb, p_lab))

    def test_cmc_is_monotone_and_ends_at_one(self):
        rng = np.random.default_rng(6)
        g_emb = l2_normalize_rows(rng.normal(0.0, 1.0, (6, 4)))
        p_emb = l2_normalize_rows(rng.normal(0.0, 1.0, (30, 4)))
        _, cmc = rank1_identification(g_emb, np.arange(6), p_emb,
                                      rng.integers(0, 6, 30))
        assert all(a <= b for a, b in zip(cmc, cmc[1:]))
        assert cmc[-1] == 1.0

    def test_separable_gallery_scores_one(self):
        g_emb = np.eye(4)
        p_emb = l2_normalize_rows(np.eye(4) + 0.05)
        rank1, _ = rank1_identification(g_emb, np.arange(4), p_emb, np.arange(4))
        assert rank1 == 1.0

    def test_ties_keep_gallery_order(self):
        g_emb = np.array([[1.0, 0.0], [1.0, 0.0]])
        probe = np.array([[1.0, 0.0]])
        rank1, cmc = rank1_identification(g_emb, np.array([0, 1]), probe, np.array([1]))
        assert rank1 == 0.0
        assert cmc == (0.0, 1.0)
        rank1, cmc = rank1_identification(g_emb, np.array([0, 1]), probe, np.array([0]))
        assert rank1 == 1.0

    def test_probe_label_must_exist(self):
        g_emb = np.eye(2)
        with pytest.raises(ContractViolation):
            rank1_identification(g_emb, np.array([0, 1]), np.eye(2), np.array([0, 5]))

    def test_gallery_labels_must_be_unique(self):
        with pytest.raises(ContractViolation, match="unique"):
            rank1_identification(np.eye(2), np.array([1, 1]), np.eye(2), np.array([1, 1]))


class TestTprAtFar:
    def test_hand_example(self):
        sims = np.array([0.9, 0.5, 0.3, 0.1, 0.6, 0.4])
        flags = np.array([False, False, False, False, True, True])
        # floor(0.25 * 4) = 1 false accept allowed: threshold 0.5, so only
        # the 0.6 positive clears it.
        assert tpr_at_far(sims, flags, 0.25) == 0.5

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = int(rng.integers(12, 50))
            sims = np.round(rng.uniform(-0.9, 0.9, n), 1)
            flags = rng.random(n) < 0.4
            if flags.all() or not flags.any():
                flags[0] = True
                flags[1] = False
            negatives = sims[~flags]
            far = float(rng.choice([0.1, 0.2, 0.5, 1.0]))
            if negatives.size < np.ceil(1.0 / far):
                continue
            got = tpr_at_far(sims, flags, far)
            assert got == oracle_tpr_at_far(sims[flags], negatives, far)

    def test_far_of_one_accepts_everything(self):
        sims = np.array([0.9, -0.5, 0.2, 0.1])
        flags = np.array([True, True, False, False])
        assert tpr_at_far(sims, flags, 1.0) == 1.0

    def test_unresolvable_far(self):
        sims = np.array([0.9, 0.5, 0.2, 0.1, 0.3])
        flags = np.array([True, True, False, False, False])
        with pytest.raises(FarUnresolvableError):
            tpr_at_far(sims, flags, 0.1)

    def test_validation(self):
        sims = np.array([0.9, 0.1])
        flags = np.array([True, False])
        with pytest.raises(ContractViolation):
            tpr_at_far(sims, flags, 0.0)
        with pytest.raises(ContractViolation):
            tpr_at_far(sims, flags, 1.5)
        with pytest.raises(ContractViolation):
            tpr_at_far(sims, np.array([False, False]), 1.0)


class TestClassificationAccuracy:
    def identity_setup(self, noise=0.05, seed=8):
        data = generate_synthetic(SyntheticSpec(5, 6, 8, noise, seed))
        model = EmbeddingModel([np.eye(6)], [np.zeros(6)])
        # Head rows are the class means, so argmax cosine recovers labels
        # whenever the noise is small.
        centers = np.stack([data.features[data.labels == k].mean(axis=0)
                            for k in range(5)])
        head = ClassifierHead(centers, 16.0)
        return model, head, data

    def test_separable_data_scores_one(self):
        model, head, data = self.identity_setup()
        assert classification_accuracy(model, head, data) == 1.0

    def test_rejects_too_many_identities(self):
        model, head, data = self.identity_setup()
        small_head = ClassifierHead(head.class_weights[:3], 16.0)
        with pytest.raises(ContractViolation):
            classification_accuracy(model, small_head, data)


class TestEmbedAllAndReward:
    def test_embed_all_checks_dims(self):
        model = EmbeddingModel([np.eye(4)], [np.zeros(4)])
        head = ClassifierHead(np.eye(4), 16.0)
        bad_width = LabeledDataset(np.zeros((4, 3)) + np.eye(4, 3), np.arange(4))
        with pytest.raises(ContractViolation):
            embed_all(model, ClassifierHead(np.zeros((4, 7)), 16.0),
                      LabeledDataset(np.eye(4), np.arange(4)))
        with pytest.raises(ContractViolation):
            embed_all(model, head, bad_width)

    def test_reward_dispatch(self):
        model, head, data = TestClassificationAccuracy().identity_setup()
        first = np.array([0, 8, 16, 24, 32, 0, 8, 16, 24, 32])
        second = np.array([1, 9, 17, 25, 33, 8, 16, 24, 32, 0])
        same = np.array([True] * 5 + [False] * 5)
        pairs = PairSet(first, second, same)
        via_kind = reward(model, head, data, pairs, "verification")
        direct = verification_accuracy(
            pair_similarities(embed_all(model, head, data), pairs), pairs.same)
        assert via_kind == direct.accuracy
        assert reward(model, head, data, pairs, "classification") == 1.0

    def test_verification_reward_is_report_accuracy(self):
        # An identity backbone embeds the engineered pairs unchanged, so the
        # reward scores the same tie-heavy similarities as the report.
        model = EmbeddingModel([np.eye(2)], [np.zeros(2)])
        head = ClassifierHead(np.eye(2), 16.0)
        for emb, pairs in tie_heavy_cases(10, 10, 20):
            data = LabeledDataset(emb, np.zeros(emb.shape[0], dtype=int))
            sims = pair_similarities(embed_all(model, head, data), pairs)
            report = verification_accuracy(sims, pairs.same)
            assert reward(model, head, data, pairs, "verification") == report.accuracy

    def test_reward_unknown_kind(self):
        model, head, data = TestClassificationAccuracy().identity_setup()
        pairs = PairSet(np.array([0, 0]), np.array([1, 8]), np.array([True, False]))
        with pytest.raises(ContractViolation):
            reward(model, head, data, pairs, "nope")


# The bodies of the evaluation passes before they were cut into row blocks,
# kept as oracles: the blocked passes must return the same bits.

def whole_embed_all(model, dataset):
    return embed(model, dataset.features)


def whole_pair_similarities(embeddings, pairs):
    return np.einsum("ij,ij->i", embeddings[pairs.first], embeddings[pairs.second])


def whole_classification_accuracy(model, head, dataset):
    cosines, _ = forward(model, head, dataset.features)
    return float(np.mean(np.argmax(cosines, axis=1) == dataset.labels))


def whole_rank1_identification(gallery_embeddings, gallery_labels, probe_embeddings,
                               probe_labels):
    gallery_labels = np.asarray(gallery_labels, dtype=np.int64)
    probe_labels = np.asarray(probe_labels, dtype=np.int64)
    hits = probe_labels[:, None] == gallery_labels
    target = np.argmax(hits, axis=1)
    sims = probe_embeddings @ gallery_embeddings.T
    own = sims[np.arange(probe_labels.size), target][:, None]
    earlier = np.arange(gallery_labels.size) < target[:, None]
    ahead = (sims > own) | ((sims == own) & earlier)
    nan_own = np.isnan(own[:, 0])
    if nan_own.any():
        ahead[nan_own] = ~np.isnan(sims[nan_own]) | earlier[nan_own]
    counts = np.bincount(ahead.sum(axis=1), minlength=gallery_labels.size)
    cmc = np.cumsum(counts) / probe_labels.size
    return float(cmc[0]), tuple(float(v) for v in cmc)


def block_rows(width):
    """Rows of one full block for a pass whose rows are `width` floats."""
    return eval_protocols.BLOCK_BYTES // (8 * width)


def boundary_sizes(width):
    """One row, one block and its neighbours, and two blocks and a bit; the
    blocked passes cut them into 1, 1, 1, 2 and 3 blocks."""
    block = block_rows(width)
    sizes = [1, block - 1, block, block + 1, 2 * block + 7]
    assert [len(eval_protocols._row_blocks(n, width)) for n in sizes] == [1, 1, 1, 2, 3]
    return sizes


def he_model(dims, classes, seed):
    return init_model(dims, classes, 32.0, RngStream(seed, "blocks"))


class TestRowBlocks:
    @pytest.mark.parametrize("width", [1, 7, 500, 1 << 19, 1 << 30])
    def test_blocks_tile_the_rows(self, width):
        step = max(3, block_rows(width))
        for rows in [0, 1, 2, 3, 4, step - 1, step, step + 1, 2 * step + 7, 5 * step + 3]:
            blocks = eval_protocols._row_blocks(rows, width)
            bounds = [(b.start, b.stop) for b in blocks]
            assert bounds[0][0] == 0 and bounds[-1][1] == rows
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            sizes = [hi - lo for lo, hi in bounds]
            assert max(sizes) <= step
            if rows >= 2:
                assert min(sizes) >= 2


class TestBlockedPassesMatchTheWholePass:
    @pytest.mark.parametrize("dims", [[32, 128, 64], [8, 16, 8]])
    def test_embed_all(self, dims):
        model, head = he_model(dims, 2, 1)
        rng = np.random.default_rng(2)
        for n in boundary_sizes(max(dims)):
            data = LabeledDataset(rng.normal(0.0, 1.0, (n, dims[0])), np.zeros(n, dtype=int))
            got = embed_all(model, head, data)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.tobytes() == whole_embed_all(model, data).tobytes()

    def test_pair_similarities(self):
        rng = np.random.default_rng(3)
        emb = l2_normalize_rows(rng.normal(0.0, 1.0, (300, 64)))
        # A pair set holds one same and one different pair at least.
        for n in [max(2, n) for n in boundary_sizes(2 * 64)]:
            flags = np.arange(n) % 2 == 0
            pairs = PairSet(rng.integers(0, 300, n), rng.integers(0, 300, n), flags)
            got = pair_similarities(emb, pairs)
            assert got.tobytes() == whole_pair_similarities(emb, pairs).tobytes()

    def test_pair_similarities_through_one_workspace(self):
        """One workspace serves pair sets of every block count, and negative
        indices gather what fancy indexing does."""
        rng = np.random.default_rng(4)
        emb = l2_normalize_rows(rng.normal(0.0, 1.0, (300, 64)))
        workspace = Workspace()
        for n in [max(2, n) for n in reversed(boundary_sizes(2 * 64))]:
            flags = np.arange(n) % 2 == 0
            pairs = PairSet(rng.integers(-300, 300, n), rng.integers(-300, 300, n), flags)
            got = pair_similarities(emb, pairs, workspace)
            assert got.tobytes() == whole_pair_similarities(emb, pairs).tobytes()

    @pytest.mark.parametrize("classes", [500, 40])
    def test_classification_accuracy(self, classes):
        dims = [32, 128, 64]
        model, _ = he_model(dims, classes, 4)
        rng = np.random.default_rng(5)
        for n in boundary_sizes(max(classes, *dims)):
            features = rng.normal(0.0, 1.0, (n, dims[0]))
            labels = np.arange(n) % min(n, classes)
            # Each identity's first sample is its head row, so about
            # min(n, K) of the n samples hit.
            rows = embed(model, features[:min(n, classes)])
            weights = np.vstack([rows, rng.normal(0.0, 1.0, (classes - rows.shape[0], 64))])
            head = ClassifierHead(weights, 32.0)
            data = LabeledDataset(features, labels)
            got = classification_accuracy(model, head, data)
            assert type(got) is float and got > 0.0
            assert got == whole_classification_accuracy(model, head, data)

    @pytest.mark.parametrize("kind", ["plain", "tie-heavy", "nan"])
    @pytest.mark.parametrize("gallery", [500, 64])
    def test_rank1_identification(self, kind, gallery):
        rng = np.random.default_rng({"plain": 6, "tie-heavy": 7, "nan": 8}[kind])
        g_lab = rng.permutation(3 * gallery)[:gallery]
        for n in boundary_sizes(gallery):
            if kind == "tie-heavy":  # small integers: every dot product is exact
                g_emb = rng.integers(-1, 2, (gallery, 4)).astype(float)
                p_emb = rng.integers(-1, 2, (n, 4)).astype(float)
            else:
                g_emb = l2_normalize_rows(rng.normal(0.0, 1.0, (gallery, 16)))
                p_emb = l2_normalize_rows(rng.normal(0.0, 1.0, (n, 16)))
            if kind == "nan":
                g_emb[rng.random(gallery) < 0.05] = np.nan
                p_emb[rng.random(n) < 0.05] = np.nan
            p_lab = g_lab[rng.integers(0, gallery, n)]
            got = rank1_identification(g_emb, g_lab, p_emb, p_lab)
            assert got == whole_rank1_identification(g_emb, g_lab, p_emb, p_lab)

    def test_rank1_messages_are_kept(self):
        with pytest.raises(ContractViolation, match="^gallery labels must be unique$"):
            rank1_identification(np.eye(2), np.array([1, 1]), np.eye(2), np.array([1, 1]))
        with pytest.raises(ContractViolation,
                           match="^every probe label must appear in the gallery$"):
            rank1_identification(np.eye(2), np.array([0, 1]), np.eye(2), np.array([0, 5]))
        with pytest.raises(ContractViolation,
                           match="^every probe label must appear in the gallery$"):
            rank1_identification(np.zeros((0, 2)), np.array([], dtype=int), np.eye(2),
                                 np.array([0, 1]))


class TestEvaluationMemoryStaysInBlocks:
    """About ten times the benchmark's evaluation shape: 20,000 samples,
    1,000 classes or gallery entries, 100,000 pairs. A whole-matrix pass
    needs 160 MB for the cosines alone; a blocked one a few blocks."""

    SAMPLES, CLASSES, PAIRS = 20_000, 1_000, 100_000

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(9)
        model, head = he_model([32, 128, 64], self.CLASSES, 9)
        data = LabeledDataset(rng.normal(0.0, 1.0, (self.SAMPLES, 32)),
                              np.arange(self.SAMPLES) % self.CLASSES)
        emb = l2_normalize_rows(rng.normal(0.0, 1.0, (self.SAMPLES, 64)))
        return model, head, data, emb

    def test_classification_accuracy(self, problem):
        model, head, data, _ = problem
        peak = self.traced_peak(lambda: classification_accuracy(model, head, data))
        assert peak < 2 * eval_protocols.BLOCK_BYTES

    def test_embed_all(self, problem):
        model, head, data, _ = problem
        output = self.SAMPLES * 64 * 8
        peak = self.traced_peak(lambda: embed_all(model, head, data))
        assert peak < output + 4 * eval_protocols.BLOCK_BYTES

    def test_pair_similarities(self, problem):
        *_, emb = problem
        rng = np.random.default_rng(10)
        pairs = PairSet(rng.integers(0, self.SAMPLES, self.PAIRS),
                        rng.integers(0, self.SAMPLES, self.PAIRS),
                        np.arange(self.PAIRS) % 2 == 0)
        peak = self.traced_peak(lambda: pair_similarities(emb, pairs))
        assert peak < 2 * eval_protocols.BLOCK_BYTES

    def test_rank1_identification(self, problem):
        *_, emb = problem
        gallery = np.arange(self.CLASSES)
        probes = np.arange(self.CLASSES, self.SAMPLES) % self.CLASSES
        g_emb, p_emb = emb[:self.CLASSES], emb[self.CLASSES:]
        peak = self.traced_peak(lambda: rank1_identification(g_emb, gallery, p_emb, probes))
        assert peak < 2 * eval_protocols.BLOCK_BYTES
