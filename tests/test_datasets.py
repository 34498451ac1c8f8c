"""Tests for dataset plumbing: container validation, synthetic generation,
flat-file round-trips, identity splits, and pair sampling.
"""

import math
import tracemalloc

import numpy as np
import pytest

from lfsearch import datasets
from lfsearch.contracts import ContractViolation
from lfsearch.datasets import (
    DataFormatError,
    LabeledDataset,
    PairSet,
    SyntheticSpec,
    generate_synthetic,
    load_flat_file,
    make_pairs,
    split_closed_set,
    split_open_set,
)
from lfsearch.numerics import RngStream
from oracles import first_distinct, save_flat_file


def small_synthetic(seed=0, classes=8, dim=16, spc=10, noise=0.2):
    return generate_synthetic(SyntheticSpec(classes, dim, spc, noise, seed))


class TestLabeledDataset:
    def test_properties(self):
        data = LabeledDataset(np.zeros((6, 3)), np.array([0, 0, 1, 1, 2, 2]))
        assert data.sample_count == 6
        assert data.feature_dim == 3
        assert data.identity_count == 3

    def test_rejects_sparse_labels(self):
        with pytest.raises(ContractViolation):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 2, 2]))

    def test_rejects_misaligned_labels(self):
        with pytest.raises(ContractViolation):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 1]))

    def test_rejects_non_finite_features(self):
        features = np.zeros((2, 2))
        features[1, 1] = np.nan
        with pytest.raises(ContractViolation):
            LabeledDataset(features, np.array([0, 1]))

    def test_rejects_empty_or_flat_features(self):
        with pytest.raises(ContractViolation):
            LabeledDataset(np.zeros((0, 2)), np.array([], dtype=np.int64))
        with pytest.raises(ContractViolation):
            LabeledDataset(np.zeros(4), np.array([0, 0, 1, 1]))


class TestPairSet:
    def test_pair_count(self):
        pairs = PairSet(np.array([0, 1]), np.array([2, 3]), np.array([True, False]))
        assert pairs.pair_count == 2

    def test_needs_both_kinds(self):
        with pytest.raises(ContractViolation):
            PairSet(np.array([0, 1]), np.array([2, 3]), np.array([True, True]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ContractViolation):
            PairSet(np.array([0, 1]), np.array([2]), np.array([True, False]))


class TestGenerateSynthetic:
    def test_shapes_and_labels(self):
        data = small_synthetic()
        assert data.features.shape == (80, 16)
        assert data.identity_count == 8
        assert np.array_equal(np.bincount(data.labels), np.full(8, 10))

    def test_rows_are_unit_norm(self):
        data = small_synthetic(seed=1)
        assert np.allclose(np.linalg.norm(data.features, axis=1), 1.0,
                           rtol=0, atol=1e-12)

    def test_deterministic_per_seed(self):
        a = small_synthetic(seed=2)
        b = small_synthetic(seed=2)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_features(self):
        a = small_synthetic(seed=3)
        b = small_synthetic(seed=4)
        assert not np.array_equal(a.features, b.features)

    def test_clusters_are_tighter_within_class(self):
        data = small_synthetic(seed=5)
        sims = data.features @ data.features.T
        same = data.labels[:, None] == data.labels[None, :]
        off_diag = ~np.eye(80, dtype=bool)
        within = sims[same & off_diag].mean()
        between = sims[~same].mean()
        assert within > between + 0.2

    def test_spec_validation(self):
        with pytest.raises(ContractViolation):
            SyntheticSpec(1, 16, 10, 0.2, 0)
        with pytest.raises(ContractViolation):
            SyntheticSpec(8, 16, 10, 0.0, 0)
        with pytest.raises(ContractViolation):
            SyntheticSpec(8, 0, 10, 0.2, 0)


def line_loop_load(path):
    """The per-cell float()/int() reader load_flat_file replaced, kept as the
    oracle for what the file means and for every error message."""
    rows = []
    raw_labels = []
    width = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split(",")
            if width is None:
                width = len(parts)
                if width < 2:
                    raise DataFormatError(
                        f"{path}: line {lineno}: need at least one feature column and a label")
            elif len(parts) != width:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(parts)}")
            try:
                row = [float(cell) for cell in parts[:-1]]
                raw_labels.append(int(parts[-1]))
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
            if not all(map(math.isfinite, row)):
                raise DataFormatError(f"{path}: line {lineno}: non-finite feature value")
            rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: file contains no samples")
    remap: dict = {}
    dense = [remap.setdefault(label, len(remap)) for label in raw_labels]
    return LabeledDataset(np.array(rows, dtype=np.float64), np.array(dense, dtype=np.int64))


def load_outcome(load, path):
    """Feature bytes and labels, or the error type and message."""
    try:
        data = load(path)
    except DataFormatError as exc:
        return "DataFormatError", str(exc)
    return data.features.tobytes(), data.labels.tolist()


# Files the one-pass parse reads.
PARSED_BODIES = (
    "1e-320,0\n5e-324,1\n-0,0\n2.4703282292062328e-324,2\n",
    "0.12345678901234567,3\n-1.7976931348623157e+308,3\n9007199254740993,4\n",
    " 1.5 , 7 \n\t-2.5e-3\t,+7\n+.5,007\n5.,-0\n1E+2,-3\n",
    "1.0,7\n2.0,3\n3.0,7\n\n4.0,3\n\n",
    "1.0,0\r\n2.0,1\r\n",
    "0.5,4\n",
)
# Files only the line loop reads or names the bad line of.
LOOP_BODIES = (
    "1.0,0\n   \n2.0,1\n",
    "1_0.5,0\n2.0,1_0\n",
    "1.5,99999999999999999999\n2.5,3\n",
    "\u0661.5,\u0667\n",
    "1.5,7\x1c\n\x1f2.5,3\n",
    "1.5\x1c,7\n",
    "1.5,\x1d7\n",
    "1.0,0\n2.0,3.0\n",
    "1.0,0\n2.0,1e3\n",
    "1.0,0\nnan,1\n",
    "1.0,0\n1e400,1\n",
    "1.0,0\n2.0\n",
    "1.0,0,\n",
    "1.0,#0\n",
    "",
    "\n \n",
    "0\n1\n",
)


def without_line_loop(monkeypatch):
    def refuse(path):
        raise AssertionError(f"{path} fell back to the line loop")
    monkeypatch.setattr(datasets, "_load_lines", refuse)


class TestFlatFile:
    @pytest.mark.parametrize("body", PARSED_BODIES + LOOP_BODIES)
    def test_agrees_with_the_line_loop(self, tmp_path, body):
        path = tmp_path / "data.csv"
        path.write_text(body, encoding="utf-8")
        assert load_outcome(load_flat_file, path) == load_outcome(line_loop_load, path)

    @pytest.mark.parametrize("body", PARSED_BODIES)
    def test_parses_in_one_pass(self, tmp_path, monkeypatch, body):
        path = tmp_path / "data.csv"
        path.write_text(body, encoding="utf-8")
        expected = load_outcome(line_loop_load, path)
        without_line_loop(monkeypatch)
        assert load_outcome(load_flat_file, path) == expected

    def test_agrees_with_the_line_loop_on_20000_rows(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        features = rng.normal(0.0, 1.0, (20000, 8)) * 10.0 ** rng.integers(-300, 300, (20000, 8))
        labels = rng.integers(0, 500, 20000)
        lines = [",".join([*(format(v, ".17g") for v in row), str(label)])
                 for row, label in zip(features, labels)]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = load_outcome(line_loop_load, path)
        assert expected[0] == features.tobytes()
        without_line_loop(monkeypatch)
        assert load_outcome(load_flat_file, path) == expected


    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        features = rng.normal(0.0, 1.0, (20, 5))
        features[0, 0] = 0.1
        features[1, 2] = 1.0 / 3.0
        features[2, 3] = 5e-324
        features[3, 4] = -1.7e308
        data = LabeledDataset(features, rng.integers(0, 4, 20) * 0 + np.repeat(np.arange(4), 5))
        path = tmp_path / "data.csv"
        save_flat_file(path, data)
        loaded = load_flat_file(path)
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)

    def test_labels_remap_by_first_appearance(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.5,7\n2.5,3\n3.5,7\n", encoding="utf-8")
        loaded = load_flat_file(path)
        assert np.array_equal(loaded.labels, np.array([0, 1, 0]))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n\n3.0,4.0,1\n\n", encoding="utf-8")
        assert load_flat_file(path).sample_count == 2

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        for cell in ("foo", "nan", "inf", "-inf"):
            path.write_text(f"1.0,0\n{cell},1\n", encoding="utf-8")
            with pytest.raises(DataFormatError, match="line 2"):
                load_flat_file(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n1.0,2.0,1\n1.0,1\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 3"):
            load_flat_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataFormatError, match="no samples"):
            load_flat_file(path)

    def test_label_only_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0\n1\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_flat_file(path)


def original_identity(dataset):
    # The synthetic-free fixture encodes the source identity in column 0
    # so splits can be traced through relabeling.
    return dataset.features[:, 0].astype(np.int64)


def traceable_dataset(n_identities=10, per_identity=6):
    labels = np.repeat(np.arange(n_identities), per_identity)
    features = np.zeros((labels.size, 2))
    features[:, 0] = labels
    features[:, 1] = np.arange(labels.size)
    return LabeledDataset(features, labels)


class TestSplitOpenSet:
    def test_identities_are_disjoint_and_complete(self):
        data = traceable_dataset()
        train, held = split_open_set(data, 0.6, seed=0)
        train_ids = set(original_identity(train))
        held_ids = set(original_identity(held))
        assert train_ids.isdisjoint(held_ids)
        assert train_ids | held_ids == set(range(10))
        assert len(train_ids) == 6

    def test_all_samples_of_an_identity_stay_together(self):
        data = traceable_dataset()
        train, held = split_open_set(data, 0.6, seed=1)
        assert train.sample_count + held.sample_count == data.sample_count
        for side in (train, held):
            assert np.array_equal(np.bincount(side.labels),
                                  np.full(side.identity_count, 6))

    def test_relabeling_preserves_grouping(self):
        data = traceable_dataset()
        train, _ = split_open_set(data, 0.6, seed=2)
        # Same new label iff same original identity.
        originals = original_identity(train)
        for new_label in range(train.identity_count):
            members = originals[train.labels == new_label]
            assert np.all(members == members[0])

    def test_deterministic_per_seed(self):
        data = traceable_dataset()
        a_train, _ = split_open_set(data, 0.6, seed=3)
        b_train, _ = split_open_set(data, 0.6, seed=3)
        assert np.array_equal(a_train.features, b_train.features)
        c_train, _ = split_open_set(data, 0.6, seed=4)
        assert not np.array_equal(a_train.features, c_train.features)

    def test_validation(self):
        data = traceable_dataset()
        with pytest.raises(ContractViolation):
            split_open_set(data, 0.0, seed=0)
        with pytest.raises(ContractViolation):
            split_open_set(data, 1.0, seed=0)
        small = traceable_dataset(n_identities=3)
        with pytest.raises(ContractViolation):
            split_open_set(small, 0.5, seed=0)


class TestSplitClosedSet:
    def test_both_sides_keep_every_identity(self):
        data = traceable_dataset()
        train, held = split_closed_set(data, 0.5, seed=0)
        assert train.identity_count == held.identity_count == 10

    def test_per_identity_counts(self):
        data = traceable_dataset(per_identity=6)
        train, held = split_closed_set(data, 0.5, seed=1)
        assert np.array_equal(np.bincount(train.labels), np.full(10, 3))
        assert np.array_equal(np.bincount(held.labels), np.full(10, 3))

    def test_sides_partition_the_samples(self):
        data = traceable_dataset()
        train, held = split_closed_set(data, 0.5, seed=2)
        merged = np.concatenate([train.features[:, 1], held.features[:, 1]])
        assert np.array_equal(np.sort(merged), np.arange(data.sample_count))

    def test_deterministic_per_seed(self):
        data = traceable_dataset()
        a_train, _ = split_closed_set(data, 0.5, seed=3)
        b_train, _ = split_closed_set(data, 0.5, seed=3)
        assert np.array_equal(a_train.features, b_train.features)

    def test_too_few_samples_per_identity(self):
        data = traceable_dataset(per_identity=1)
        with pytest.raises(ContractViolation):
            split_closed_set(data, 0.5, seed=0)


def oracle_make_pairs(dataset, n_pairs, seed):
    """The sampler's definition, materialised: enumerate every index pair in
    np.triu_indices order, split the enumeration into same/different pools,
    and take the first half of a seeded permutation of each pool."""
    half = n_pairs // 2
    left, right = np.triu_indices(dataset.sample_count, k=1)
    same_mask = dataset.labels[left] == dataset.labels[right]
    pools = {"same": np.flatnonzero(same_mask), "diff": np.flatnonzero(~same_mask)}
    stream = RngStream(seed, "pairs")
    chosen = {}
    for name, pool in pools.items():
        if pool.size < half:
            return name
        order = stream.child(name).generator().permutation(pool.size)
        chosen[name] = pool[order[:half]]
    picks = np.concatenate([chosen["same"], chosen["diff"]])
    return left[picks], right[picks], np.arange(n_pairs) < half


def random_label_layouts(rng, trials):
    """Dense label arrays: mixed sizes, all singletons but one pair, one
    large identity among singletons, and n = 2."""
    yield np.array([0, 0])
    yield np.array([0, 1, 1])
    for trial in range(trials):
        n = int(rng.integers(3, 80))
        kind = trial % 3
        if kind == 0:
            raw = rng.integers(0, int(rng.integers(1, 10)), n)
        elif kind == 1:
            raw = np.arange(n)
            raw[rng.choice(n, 2, replace=False)] = -1
        else:
            raw = np.where(rng.random(n) < 0.6, -1, np.arange(n))
        yield np.unique(raw, return_inverse=True)[1]


class TestMakePairs:
    def test_matches_the_enumeration(self):
        rng = np.random.default_rng(7)
        for trial, labels in enumerate(random_label_layouts(rng, trials=150)):
            data = LabeledDataset(np.zeros((labels.size, 1)), labels)
            same = int(sum(c * (c - 1) // 2 for c in np.bincount(labels)))
            smaller = min(same, labels.size * (labels.size - 1) // 2 - same)
            # Alternate a request of exactly the smaller pool with a random one
            # that may exceed it.
            half = smaller if trial % 2 == 0 else int(rng.integers(1, smaller + 3))
            n_pairs = 2 * max(half, 1)
            expected = oracle_make_pairs(data, n_pairs, seed=trial)
            if isinstance(expected, str):
                with pytest.raises(ContractViolation, match=expected):
                    make_pairs(data, n_pairs, seed=trial)
                continue
            pairs = make_pairs(data, n_pairs, seed=trial)
            assert np.array_equal(pairs.first, expected[0])
            assert np.array_equal(pairs.second, expected[1])
            assert np.array_equal(pairs.same, expected[2])

    # 92,682 samples give 4,294,930,221 index pairs, within 2**32, and 92,683
    # give 4,295,022,903. One repeated label leaves a single same pair, so the
    # different pool is all but one of them. The draws are replaced: the
    # accepted pool alone would take about 17 GB.
    @pytest.mark.parametrize("samples, accepted", [(92_682, True), (92_683, False)])
    def test_pool_beyond_uint32_is_refused_before_any_draw(self, monkeypatch, samples,
                                                           accepted):
        labels = np.arange(samples)
        labels[-1] = 0
        data = LabeledDataset(np.zeros((samples, 1)), labels)
        drawn = []

        def draw_ranks(generator, size, count):
            drawn.append(size)
            return np.arange(count, dtype=np.int64)

        monkeypatch.setattr(datasets, "_draw_ranks", draw_ranks)
        diff_pool = samples * (samples - 1) // 2 - 1
        if accepted:
            pairs = make_pairs(data, 2, seed=0)
            assert drawn == [1, diff_pool]
            assert (pairs.first[0], pairs.second[0]) == (0, samples - 1)
        else:
            with pytest.raises(ContractViolation, match=rf"{diff_pool} diff pairs.*2\*\*32"):
                make_pairs(data, 2, seed=0)
            assert drawn == []

    def test_peak_memory_stays_below_the_enumeration(self):
        # 2,000 samples: 1,999,000 index pairs. The enumeration holds about
        # 66 MB at its peak; the sampler holds the 4 B/pair permutation of
        # the different pool, about 8 MB.
        labels = np.arange(2000) % 250
        data = LabeledDataset(np.zeros((labels.size, 1)), labels)
        tracemalloc.start()
        try:
            make_pairs(data, 2000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_peak_memory_at_the_benchmark_validation_shape(self):
        # 500 identities x 8 samples: 7,984,000 different pairs, whose
        # permutation would take about 32 MB as uint32. The rejection draw
        # of 10,000 of them holds O(10,000) ranks.
        labels = np.repeat(np.arange(500), 8)
        data = LabeledDataset(np.zeros((labels.size, 1)), labels)
        tracemalloc.start()
        try:
            make_pairs(data, 20000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    # 256/257 and 65,536/65,537 are where the pool type widens from uint8 to
    # uint16 and from uint16 to uint32.
    @pytest.mark.parametrize("size", [
        1, 256, 257, 65_536, 65_537,
        int(np.random.default_rng(9).integers(1 << 16, 1 << 20)),
    ])
    def test_narrow_pool_draws_the_permutation(self, size):
        for seed in range(4):
            expected = RngStream(seed, "pairs").child("diff").generator().permutation(size)
            for count in sorted({1, (size + 1) // 2, size}):
                generator = RngStream(seed, "pairs").child("diff").generator()
                ranks = datasets._draw_ranks(generator, size, count)
                assert ranks.dtype == np.int64
                assert np.array_equal(ranks, expected[:count])

    # From 2**22 up, a request of at most an eighth of the pool is drawn by
    # rejection; 2**19 of 2**22 is the largest such request, and 300,000 of
    # a pool above 2**32 takes the 64-bit draws. The stream is twice the
    # request, more than any of these needs.
    @pytest.mark.parametrize("size, count", [
        (1 << 22, 1), (1 << 22, 200_000), (1 << 22, 1 << 19), (5_000_000_000, 300_000),
    ])
    def test_large_pool_draws_the_first_distinct_values(self, size, count):
        expected = first_distinct(RngStream(size, "pairs").child("diff").generator(),
                                  size, count, 2 * count)
        generator = RngStream(size, "pairs").child("diff").generator()
        ranks = datasets._draw_ranks(generator, size, count)
        assert ranks.dtype == np.int64
        assert np.array_equal(ranks, expected)

    # Below the floor, and for more than an eighth of a pool above it, the
    # ranks stay the permutation's prefix.
    @pytest.mark.parametrize("size, count", [((1 << 22) - 1, 200_000),
                                             (1 << 22, (1 << 19) + 1)])
    def test_permutation_below_the_floor_or_past_an_eighth(self, size, count):
        expected = RngStream(3, "pairs").child("diff").generator().permutation(size)
        generator = RngStream(3, "pairs").child("diff").generator()
        ranks = datasets._draw_ranks(generator, size, count)
        assert ranks.dtype == np.int64
        assert np.array_equal(ranks, expected[:count])

    def test_half_same_half_different(self):
        data = traceable_dataset()
        pairs = make_pairs(data, 40, seed=0)
        assert pairs.pair_count == 40
        assert pairs.same.sum() == 20

    def test_flags_match_labels(self):
        data = traceable_dataset()
        pairs = make_pairs(data, 40, seed=1)
        truth = data.labels[pairs.first] == data.labels[pairs.second]
        assert np.array_equal(truth, pairs.same)

    def test_no_duplicate_pairs(self):
        data = traceable_dataset()
        pairs = make_pairs(data, 60, seed=2)
        seen = set(zip(pairs.first.tolist(), pairs.second.tolist()))
        assert len(seen) == 60
        assert np.all(pairs.first < pairs.second)

    def test_deterministic_per_seed(self):
        data = traceable_dataset()
        a = make_pairs(data, 40, seed=3)
        b = make_pairs(data, 40, seed=3)
        assert np.array_equal(a.first, b.first)
        assert np.array_equal(a.second, b.second)
        c = make_pairs(data, 40, seed=4)
        assert not (np.array_equal(a.first, c.first)
                    and np.array_equal(a.second, c.second))

    def test_pool_exhaustion(self):
        # 2 identities x 2 samples: only 2 same pairs exist in total.
        data = LabeledDataset(np.arange(8.0).reshape(4, 2),
                              np.array([0, 0, 1, 1]))
        with pytest.raises(ContractViolation, match="same"):
            make_pairs(data, 10, seed=0)

    def test_odd_request_rejected(self):
        data = traceable_dataset()
        with pytest.raises(ContractViolation):
            make_pairs(data, 5, seed=0)
