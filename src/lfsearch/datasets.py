"""Dataset plumbing: synthetic hypersphere clusters, flat-file ingestion,
identity-disjoint splits, and verification-pair sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contracts import require
from .numerics import RngStream, l2_normalize_rows

# Largest pair pool make_pairs draws from: its permutation is held as uint32.
# The different-identity pool passes it above about 92,682 samples.
MAX_PAIR_POOL = 2 ** 32

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
    """The first count entries of generator.permutation(size), as int64.

    permutation(size) shuffles arange(size), and shuffle draws the same swaps
    whatever the item type, so the pool is held in the narrowest unsigned
    type that fits it and is released on return.
    """
    pool = np.arange(size, dtype=np.min_scalar_type(size - 1))
    generator.shuffle(pool)
    # Widen before any arithmetic: uint64 with int64 promotes to float64.
    return pool[:count].astype(np.int64)


@dataclass(frozen=True)
class PairPlan:
    """A checked make_pairs request before its draws: the sorted enumeration
    positions of the same-identity pairs, and how many pairs of each kind to
    draw from which stream. The draws need nothing else, so they can run in
    another process."""

    sample_count: int
    half: int
    same_lin: np.ndarray
    seed: int

    @property
    def sizes(self) -> dict:
        n = self.sample_count
        return {"same": self.same_lin.size, "diff": n * (n - 1) // 2 - self.same_lin.size}

    def draw(self):
        """The draws: the (first, second) index arrays of every pair, the
        same-identity half first. The pool permutations are the only large
        allocation of make_pairs."""
        stream = RngStream(self.seed, "pairs")
        ranks = {name: _draw_ranks(stream.child(name).generator(), size, self.half)
                 for name, size in self.sizes.items()}
        same_lin = self.same_lin
        # The r-th different pair sits after every same pair s_k with s_k - k <= r.
        diff_lin = ranks["diff"] + np.searchsorted(
            same_lin - np.arange(same_lin.size), ranks["diff"], side="right")
        picks = np.concatenate([same_lin[ranks["same"]], diff_lin])
        rows = np.arange(self.sample_count, dtype=np.int64)
        row_start = rows * self.sample_count - rows * (rows + 1) // 2
        first = np.searchsorted(row_start, picks, side="right") - 1
        second = picks - row_start[first] + first + 1
        return first, second

    def pair_set(self, first, second) -> PairSet:
        flags = np.zeros(2 * self.half, dtype=bool)
        flags[:self.half] = True
        return PairSet(first, second, flags)


def plan_pairs(dataset: LabeledDataset, n_pairs: int, seed: int) -> PairPlan:
    """The checks of make_pairs, without its draws: lists the same-identity
    positions and refuses a request larger than either pool, or a pool above
    MAX_PAIR_POOL."""
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
    plan = PairPlan(n, half, np.sort(row_start[i] + (j - i - 1)), seed)
    for name, size in plan.sizes.items():
        require(size >= half, f"requested {half} {name} pairs but only {size} exist")
        require(size <= MAX_PAIR_POOL,
                f"{n} samples give a pool of {size} {name} pairs, above the 2**32 "
                f"({MAX_PAIR_POOL}) limit of one pair draw")
    return plan


def make_pairs(dataset: LabeledDataset, n_pairs: int, seed: int) -> PairSet:
    """Sample n_pairs/2 same-identity and n_pairs/2 different-identity pairs.

    The draws are defined over the enumeration of index pairs (i, j), i < j,
    in row-major (`np.triu_indices`) order: each pool is that enumeration's
    same- or different-identity subsequence, and a seeded permutation of the
    pool picks its pairs without replacement, so a request larger than either
    pool is refused. The enumeration is not materialised: only the
    same-identity positions are listed, and a different-identity rank maps to
    its position by counting the same-identity positions below it. Each
    permutation is held in the narrowest unsigned type that fits its pool, at
    most 4 B per pair: a pool above MAX_PAIR_POOL is refused before any draw.
    plan_pairs makes the checks and PairPlan.draw the draws.
    """
    plan = plan_pairs(dataset, n_pairs, seed)
    return plan.pair_set(*plan.draw())
