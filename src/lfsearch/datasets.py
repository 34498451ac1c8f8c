"""Dataset plumbing: synthetic hypersphere clusters, flat-file ingestion,
identity-disjoint splits, and verification-pair sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contracts import require
from .numerics import RngStream, l2_normalize_rows

# Largest pair pool make_pairs draws from. It bounds the two parts of the
# draws that grow with a pool rather than with the request: a permutation
# (below REJECTION_MIN_POOL, or for more than an eighth of a pool), held as
# uint32 at most, and the listing of the same-identity positions, 8 B per
# same pair.
# The different-identity pool passes it above about 92,682 samples.
MAX_PAIR_POOL = 2 ** 32

# Smallest pool whose ranks _draw_ranks draws by rejection rather than by a
# permutation. Every desk-scale pool lies below it and keeps its draws.
REJECTION_MIN_POOL = 2 ** 22

# float() and int() strip only ASCII whitespace around a number; numpy also
# strips these information separators.
_SEPARATOR_BYTES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


class DataFormatError(Exception):
    """A data file exists but could not be parsed."""


@dataclass(frozen=True)
class LabeledDataset:
    """Feature vectors paired with dense integer identity labels.

    Labels must cover 0..K-1 with every identity present at least once.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        require(features.ndim == 2 and features.shape[0] >= 1,
                "features must be a non-empty 2-d array")
        require(labels.shape == (features.shape[0],),
                "labels must align with feature rows")
        require(bool(np.isfinite(features).all()), "features must be finite")
        # Dense labels lie in [0, n) and each count is positive; the bounds
        # come first so that bincount never sees a negative or huge label.
        require(0 <= labels.min() and labels.max() < labels.size
                and bool(np.bincount(labels).all()),
                "labels must be dense 0..K-1 with every identity present")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def identity_count(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class PairSet:
    """Verification pairs: two index arrays plus a same-identity flag."""

    first: np.ndarray
    second: np.ndarray
    same: np.ndarray

    def __post_init__(self):
        first = np.asarray(self.first, dtype=np.int64)
        second = np.asarray(self.second, dtype=np.int64)
        same = np.asarray(self.same, dtype=np.bool_)
        require(first.ndim == 1 and first.shape == second.shape == same.shape,
                "pair arrays must be 1-d and equally long")
        require(bool(same.any()) and bool((~same).any()),
                "need at least one same pair and one different pair")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "same", same)

    @property
    def pair_count(self) -> int:
        return self.first.shape[0]


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a hypersphere-cluster dataset."""

    classes: int
    dim: int
    samples_per_class: int
    noise_sigma: float
    seed: int

    def __post_init__(self):
        require(self.classes >= 2, "classes must be >= 2")
        require(self.dim >= 1, "dim must be >= 1")
        require(self.samples_per_class >= 1, "samples_per_class must be >= 1")
        require(self.noise_sigma > 0, "noise_sigma must be > 0")


def generate_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Unit-sphere class centers plus Gaussian noise, re-normalized.

    Deterministic per seed: centers and noise come from fixed-label streams.
    """
    stream = RngStream(spec.seed, "synthetic")
    centers = l2_normalize_rows(
        stream.child("centers").generator().standard_normal((spec.classes, spec.dim)))
    noise = stream.child("noise").generator().standard_normal(
        (spec.classes * spec.samples_per_class, spec.dim))
    raw = np.repeat(centers, spec.samples_per_class, axis=0) + spec.noise_sigma * noise
    labels = np.repeat(np.arange(spec.classes, dtype=np.int64), spec.samples_per_class)
    return LabeledDataset(l2_normalize_rows(raw), labels)


def load_flat_file(path) -> LabeledDataset:
    """Load a CSV of float feature columns followed by an integer label column.

    Labels are re-indexed densely in order of first appearance.
    """
    try:
        features, raw_labels = _parse_columns(path)
    except ValueError:
        features = None
    if features is None or not np.isfinite(features).all():
        # The line loop accepts whatever float() and int() accept and names
        # the first bad line otherwise.
        return _load_lines(path)
    _, first, inverse = np.unique(raw_labels, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return LabeledDataset(features, rank[inverse])


def _parse_columns(path):
    """Feature matrix and int64 labels in one streamed numpy parse, which is
    stricter than float() and int(); raises ValueError on anything it does
    not take, including an empty file or one column."""
    with open(path, "rb") as raw:
        for chunk in iter(lambda: raw.read(1 << 20), b""):
            if any(sep in chunk for sep in _SEPARATOR_BYTES):
                raise ValueError("information separator byte")
    with open(path, "r", encoding="utf-8") as handle:
        first = next((line for line in handle if line.strip()), "")
        width = first.count(",") + 1
        if width < 2:
            raise ValueError("need at least one feature column and a label")
        handle.seek(0)
        table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=1,
                           dtype=[("x", np.float64, (width - 1,)), ("y", np.int64)])
    return table["x"], table["y"]


def _load_lines(path) -> LabeledDataset:
    """The per-line reader: float() for each feature cell, int() for each label."""
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


def _dense_subset(dataset: LabeledDataset, indices: np.ndarray) -> LabeledDataset:
    # Relabel keeps the ascending order of the original identity ids.
    labels = dataset.labels[indices]
    kept = np.flatnonzero(np.bincount(labels))  # the identities present, ascending
    return LabeledDataset(dataset.features[indices], np.searchsorted(kept, labels))


def split_open_set(dataset: LabeledDataset, train_frac: float, seed: int):
    """Partition identities (never samples) into train and eval sets.

    Both sides get at least two identities; all samples of an identity land
    on the same side. Deterministic per seed.
    """
    require(0.0 < train_frac < 1.0, "train_frac must lie in (0, 1)")
    total = dataset.identity_count
    n_train = int(total * train_frac)
    n_eval = total - n_train
    require(n_train >= 2 and n_eval >= 2,
            f"split {n_train}/{n_eval} of {total} identities leaves a side below 2")
    order = RngStream(seed, "split").generator().permutation(total)
    train_ids = np.zeros(total, dtype=bool)
    train_ids[order[:n_train]] = True
    mask = train_ids[dataset.labels]
    train = _dense_subset(dataset, np.flatnonzero(mask))
    held_out = _dense_subset(dataset, np.flatnonzero(~mask))
    return train, held_out


def _label_groups(labels: np.ndarray):
    """Sample indices ordered by label, ascending within each identity (a
    stable sort), plus the sample count of every identity."""
    return np.argsort(labels, kind="stable"), np.bincount(labels)


def split_closed_set(dataset: LabeledDataset, train_frac: float, seed: int):
    """Partition samples within every identity; both sides keep all identities.

    Companion to split_open_set for closed-set (classification) scoring, where
    the evaluation set must share the training identity space.
    """
    require(0.0 < train_frac < 1.0, "train_frac must lie in (0, 1)")
    gen = RngStream(seed, "closed-split").generator()
    by_label, counts = _label_groups(dataset.labels)
    train_parts = []
    eval_parts = []
    for identity, members in enumerate(np.split(by_label, np.cumsum(counts)[:-1])):
        n_train = int(members.size * train_frac)
        require(n_train >= 1 and members.size - n_train >= 1,
                f"identity {identity} has {members.size} samples, too few to split")
        order = gen.permutation(members.size)
        train_parts.append(members[order[:n_train]])
        eval_parts.append(members[order[n_train:]])
    train_idx = np.sort(np.concatenate(train_parts))
    eval_idx = np.sort(np.concatenate(eval_parts))
    return (LabeledDataset(dataset.features[train_idx], dataset.labels[train_idx]),
            LabeledDataset(dataset.features[eval_idx], dataset.labels[eval_idx]))


def _draw_ranks(generator, size: int, count: int) -> np.ndarray:
    """count distinct ranks in [0, size), as int64.

    From REJECTION_MIN_POOL up, where at most an eighth of the pool is asked
    for, they are the first count distinct values of the stream of
    generator.integers(0, size), drawn in rounds that each top up what the
    repeats removed, in O(count) memory. With at most an eighth of the pool
    held, a draw is new with odds of 7/8 or better, so each round leaves on
    average at most an eighth of its draws to make again; a larger request
    is cheaper to permute, since each round sorts its draws. Otherwise they
    are the first count entries of generator.permutation(size): permutation
    shuffles arange(size), and shuffle draws the same swaps whatever the
    item type, so the pool is held in the narrowest unsigned type that fits
    it and is released on return.
    """
    if size < REJECTION_MIN_POOL or 8 * count > size:
        pool = np.arange(size, dtype=np.min_scalar_type(size - 1))
        generator.shuffle(pool)
        # Widen before any arithmetic: uint64 with int64 promotes to float64.
        return pool[:count].astype(np.int64)
    ranks = np.empty(0, dtype=np.int64)
    held = np.array([size], dtype=np.int64)  # ranks sorted, then size, never drawn
    while ranks.size < count:
        drawn = generator.integers(0, size, count - ranks.size)
        # Each value's first draw in the round (np.unique sorts stably), kept
        # where no earlier round holds it.
        values, first = np.unique(drawn, return_index=True)
        at = np.searchsorted(held, values)
        new = held[at] != values
        ranks = np.concatenate([ranks, drawn[np.sort(first[new])]])
        held = np.insert(held, at[new], values[new])
    return ranks


def make_pairs(dataset: LabeledDataset, n_pairs: int, seed: int) -> PairSet:
    """Sample n_pairs/2 same-identity and n_pairs/2 different-identity pairs.

    The draws are defined over the enumeration of index pairs (i, j), i < j,
    in row-major (`np.triu_indices`) order: each pool is that enumeration's
    same- or different-identity subsequence, and _draw_ranks picks its pairs
    without replacement, so a request larger than either pool is refused.
    The enumeration is not materialised: only the same-identity positions
    are listed, and a different-identity rank maps to its position by
    counting the same-identity positions below it. A pool above
    MAX_PAIR_POOL is refused before any draw.
    """
    require(n_pairs >= 2 and n_pairs % 2 == 0, "n_pairs must be even and >= 2")
    half = n_pairs // 2
    n = dataset.sample_count
    require(n >= 2, "need at least two samples to form pairs")
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * n - rows * (rows + 1) // 2  # position of pair (i, i+1)
    # Each sample in label order pairs with the later members of its identity.
    order, counts = _label_groups(dataset.labels)
    partners = np.repeat(np.cumsum(counts), counts) - rows - 1
    low = np.repeat(rows, partners)
    run_start = np.repeat(np.cumsum(partners) - partners, partners)
    high = low + 1 + np.arange(low.size) - run_start
    i, j = order[low], order[high]
    same_lin = np.sort(row_start[i] + (j - i - 1))
    sizes = {"same": same_lin.size, "diff": n * (n - 1) // 2 - same_lin.size}
    for name, size in sizes.items():
        require(size >= half, f"requested {half} {name} pairs but only {size} exist")
        require(size <= MAX_PAIR_POOL,
                f"{n} samples give a pool of {size} {name} pairs, above the 2**32 "
                f"({MAX_PAIR_POOL}) limit of one pair draw")
    stream = RngStream(seed, "pairs")
    ranks = {name: _draw_ranks(stream.child(name).generator(), size, half)
             for name, size in sizes.items()}
    # The r-th different pair sits after every same pair s_k with s_k - k <= r.
    diff_lin = ranks["diff"] + np.searchsorted(
        same_lin - np.arange(same_lin.size), ranks["diff"], side="right")
    picks = np.concatenate([same_lin[ranks["same"]], diff_lin])
    first = np.searchsorted(row_start, picks, side="right") - 1
    second = picks - row_start[first] + first + 1
    flags = np.zeros(n_pairs, dtype=bool)
    flags[:half] = True
    return PairSet(first, second, flags)
