"""Evaluation protocols over unit embeddings: K-fold thresholded pair
verification with ROC points, rank-1 identification with CMC points,
TPR at fixed FAR, and the scalar reward used by the search loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contracts import require
from .datasets import LabeledDataset, PairSet
from .embed_model import ClassifierHead, EmbeddingModel, embed, forward
from .numerics import Workspace

VERIFICATION_FOLDS = 10
# Float64 bytes a row block of one evaluation pass may span, per array.
BLOCK_BYTES = 4 << 20


class FarUnresolvableError(Exception):
    """Too few different-identity pairs to resolve the requested FAR."""


@dataclass(frozen=True)
class GalleryProbeSplit:
    """Index split for identification: one gallery entry per identity, as
    make_gallery_probe builds it; rank1_identification checks the labels."""

    gallery_indices: np.ndarray
    gallery_labels: np.ndarray
    probe_indices: np.ndarray
    probe_labels: np.ndarray


@dataclass(frozen=True)
class VerificationReport:
    accuracy: float
    fold_thresholds: tuple
    fold_accuracies: tuple
    roc_points: tuple

    def __post_init__(self):
        require(0.0 <= self.accuracy <= 1.0, "accuracy must lie in [0, 1]")


def _row_blocks(rows: int, width: int) -> list:
    """Slices that cut range(rows) into near-equal blocks of at most
    BLOCK_BYTES per `width` float64 values a row.

    The passes run the same numpy calls on each block's rows, so only their
    memory changes. A block holds at least three rows, so balancing never
    leaves a one-row block where the input had more: a one-row matrix
    product runs as a BLAS vector product, whose sums round differently.
    OpenBLAS may still round a few entries in the last rows of a call apart
    from the same rows inside a longer call (seen with 500 columns). The
    products by the head and the gallery feed only argmax and rank counts,
    which such a last-bit change moves only at an exact tie.
    """
    step = max(3, BLOCK_BYTES // (8 * max(width, 1)))
    count = max(1, -(-rows // step))
    bounds = [rows * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def embed_all(model: EmbeddingModel, head: ClassifierHead, dataset: LabeledDataset) -> np.ndarray:
    """L2-normalized embeddings for every sample, one row block at a time."""
    require(head.class_weights.shape[1] == model.layer_dims[-1],
            "head width does not match the embedding dim")
    require(dataset.feature_dim == model.layer_dims[0],
            "dataset feature dim does not match the model input dim")
    out = np.empty((dataset.sample_count, model.layer_dims[-1]))
    for rows in _row_blocks(dataset.sample_count, max(model.layer_dims)):
        out[rows] = embed(model, dataset.features[rows])
    return out


def pair_similarities(embeddings: np.ndarray, pairs: PairSet, workspace=None) -> np.ndarray:
    """Cosine similarity of each pair (embeddings are unit rows), gathered
    one block of pairs at a time into two arrays of `workspace` (None: a new
    Workspace for this call)."""
    count = embeddings.shape[0]
    require(-count <= int(min(pairs.first.min(), pairs.second.min()))
            and int(max(pairs.first.max(), pairs.second.max())) < count,
            "pair indices exceed the embedding count")
    workspace = Workspace() if workspace is None else workspace
    out = np.empty(pairs.pair_count)
    for rows in _row_blocks(pairs.pair_count, 2 * embeddings.shape[1]):
        shape = (rows.stop - rows.start, embeddings.shape[1])
        # Every index is in [-count, count), where "wrap" gathers what fancy
        # indexing does, without the copy through a temporary of "raise".
        first, second = (np.take(embeddings, side[rows], axis=0, mode="wrap",
                                 out=workspace.array(name, shape))
                         for name, side in (("pair_first", pairs.first),
                                            ("pair_second", pairs.second)))
        np.einsum("ij,ij->i", first, second, out=out[rows])
    return out


def _fold_scan(sims: np.ndarray, same: np.ndarray, folds: int):
    """Round-robin K-fold threshold scan over one sort of `sims`.

    Each fold's threshold maximizes the accuracy of `sim > t` on the other
    folds, scanned over midpoints of adjacent distinct training similarities
    plus sentinels beyond both ends; ties keep the lowest threshold. The
    sort is numpy's default, redone stably when two sorted neighbours are
    not strictly increasing (a tie, -0.0 beside 0.0, or a NaN), so the order
    is always that of a stable sort. A fold's training set is a mask over
    the sorted arrays, which orders it exactly as a stable sort of that
    subset would. Returns the sorted similarities and flags, and the
    per-fold thresholds and held-out accuracies.
    """
    require(folds >= 2, "folds must be >= 2")
    require(sims.size >= folds, "need at least one pair per fold")
    order = np.argsort(sims)
    s = sims[order]
    distinct = bool((s[1:] > s[:-1]).all())
    if not distinct:
        order = np.argsort(sims, kind="stable")
        s = sims[order]
    flags = same[order]
    fold_of = order % folds
    # Counted from the all-"same" cut, which scores 0, each pair below a cut
    # gains one if different and loses one if same: score[i] is the cut
    # above training pair i.
    gains = np.where(flags, -1, 1)
    thresholds = []
    for fold in range(folds):
        keep = fold_of != fold
        train_s = s[keep]
        score = np.cumsum(gains[keep])
        if not distinct:  # no cut between equal similarities
            score[:-1][train_s[1:] == train_s[:-1]] = -sims.size - 1
        best = int(score.argmax())
        if score[best] <= 0:
            threshold = train_s[0] - 1.0
        elif best == score.size - 1:
            threshold = train_s[-1] + 1.0
        else:
            threshold = 0.5 * (train_s[best] + train_s[best + 1])
        thresholds.append(float(threshold))
    hits = (s > np.array(thresholds)[fold_of]) == flags
    accuracies = (np.bincount(fold_of, weights=hits, minlength=folds)
                  / np.bincount(fold_of, minlength=folds))
    return s, flags, thresholds, accuracies.tolist()


def _roc_points(sorted_sims: np.ndarray, sorted_same: np.ndarray) -> tuple:
    """(FAR, TPR) steps swept from the highest threshold down, given the
    similarities in ascending order."""
    sims, flags = sorted_sims[::-1], sorted_same[::-1]
    positives = int(flags.sum())
    negatives = flags.size - positives
    keep = np.ones(flags.size, dtype=bool)
    keep[:-1] = sims[:-1] != sims[1:]
    fars = np.cumsum(~flags)[keep] / negatives
    tprs = np.cumsum(flags)[keep] / positives
    return ((0.0, 0.0), *zip(fars.tolist(), tprs.tolist()))


def verification_accuracy(sims: np.ndarray, same: np.ndarray,
                          folds: int = VERIFICATION_FOLDS) -> VerificationReport:
    """Round-robin K-fold verification of pair similarities.

    Each fold is scored with the threshold that maximizes accuracy on the
    remaining folds; the report carries the mean held-out accuracy along with
    ROC points computed over all pairs.
    """
    require(sims.shape == same.shape, "need one same flag per similarity")
    s, flags, thresholds, accuracies = _fold_scan(sims, same, folds)
    return VerificationReport(accuracy=float(np.mean(accuracies)),
                              fold_thresholds=tuple(thresholds),
                              fold_accuracies=tuple(accuracies),
                              roc_points=_roc_points(s, flags))


def make_gallery_probe(dataset: LabeledDataset) -> GalleryProbeSplit:
    """First sample of each identity becomes the gallery; the rest probe."""
    _, first_of = np.unique(dataset.labels, return_index=True)
    gallery = np.sort(first_of)
    probe_mask = np.ones(dataset.sample_count, dtype=bool)
    probe_mask[gallery] = False
    probes = np.flatnonzero(probe_mask)
    require(probes.size >= 1, "no identity has a second sample to probe with")
    return GalleryProbeSplit(gallery_indices=gallery,
                             gallery_labels=dataset.labels[gallery],
                             probe_indices=probes,
                             probe_labels=dataset.labels[probes])


def _ranked_ahead(sims: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per probe row of `sims`, the gallery entries ranked ahead of entry
    `target`: higher similarity, or equal and earlier in the gallery."""
    own = sims[np.arange(target.size), target][:, None]
    earlier = np.arange(sims.shape[1]) < target[:, None]
    ahead = (sims > own) | ((sims == own) & earlier)
    nan_own = np.isnan(own[:, 0])
    if nan_own.any():  # NaN ranks behind every number and every earlier NaN
        ahead[nan_own] = ~np.isnan(sims[nan_own]) | earlier[nan_own]
    return ahead.sum(axis=1)


def rank1_identification(gallery_embeddings: np.ndarray, gallery_labels: np.ndarray,
                         probe_embeddings: np.ndarray, probe_labels: np.ndarray):
    """Rank-1 accuracy plus the full CMC curve.

    Gallery entries are ranked by cosine similarity per probe; similarity ties
    keep gallery order and NaN similarities rank last, so results are
    deterministic. A probe's hit rank is counted, not sorted: the entries
    ranked ahead of its own identity's entry, one block of probes at a time.
    """
    gallery_labels = np.asarray(gallery_labels, dtype=np.int64)
    probe_labels = np.asarray(probe_labels, dtype=np.int64)
    # Distinct gallery labels are checked on a sort, as np.unique would but
    # without its numpy.ma import.
    ordered = np.sort(gallery_labels)
    require(not (ordered[1:] == ordered[:-1]).any(), "gallery labels must be unique")
    require(bool(np.isin(probe_labels, gallery_labels).all()),
            "every probe label must appear in the gallery")
    by_label = np.argsort(gallery_labels)
    targets = by_label[np.searchsorted(gallery_labels, probe_labels, sorter=by_label)]
    counts = np.zeros(gallery_labels.size, dtype=np.int64)
    # A block's similarities die with its _ranked_ahead call.
    for rows in _row_blocks(probe_labels.size, gallery_labels.size):
        counts += np.bincount(_ranked_ahead(probe_embeddings[rows] @ gallery_embeddings.T,
                                            targets[rows]),
                              minlength=gallery_labels.size)
    cmc = np.cumsum(counts) / probe_labels.size
    return float(cmc[0]), tuple(float(v) for v in cmc)


def tpr_at_far(similarities: np.ndarray, same_flags: np.ndarray, far: float) -> float:
    """True-positive rate at the smallest threshold whose false-acceptance
    fraction stays at or below `far`."""
    require(0.0 < far <= 1.0, "far must lie in (0, 1]")
    similarities = np.asarray(similarities, dtype=np.float64)
    same_flags = np.asarray(same_flags, dtype=np.bool_)
    negatives = np.sort(similarities[~same_flags])[::-1]
    positives = similarities[same_flags]
    require(positives.size >= 1, "need at least one same pair")
    needed = math.ceil(1.0 / far)
    if negatives.size < needed:
        raise FarUnresolvableError(
            f"far={far:g} needs at least {needed} different pairs, got {negatives.size}")
    allowed = int(math.floor(far * negatives.size))
    threshold = -np.inf if allowed >= negatives.size else negatives[allowed]
    return float(np.mean(positives > threshold))


def classification_accuracy(model: EmbeddingModel, head: ClassifierHead,
                            dataset: LabeledDataset) -> float:
    """Closed-set accuracy: argmax cosine against the head's identities,
    counted one row block at a time."""
    require(dataset.identity_count <= head.class_weights.shape[0],
            "dataset identities exceed the head's class count")
    width = max(head.class_weights.shape[0], *model.layer_dims)
    # A block's cosines die within its term of the sum, before the next
    # block's forward pass allocates its own.
    hits = sum(int(np.count_nonzero(
                   np.argmax(forward(model, head, dataset.features[rows])[0], axis=1)
                   == dataset.labels[rows]))
               for rows in _row_blocks(dataset.sample_count, width))
    return hits / dataset.sample_count


def reward(model: EmbeddingModel, head: ClassifierHead, val_set: LabeledDataset,
           val_pairs: PairSet, kind: str = "verification", workspace=None) -> float:
    """Scalar validation score driving the search; the verification score is
    the report's accuracy from the same scan, without building the ROC. The
    pairs are gathered into the arrays of `workspace` (see
    pair_similarities)."""
    if kind == "verification":
        sims = pair_similarities(embed_all(model, head, val_set), val_pairs, workspace)
        return float(np.mean(_fold_scan(sims, val_pairs.same, VERIFICATION_FOLDS)[3]))
    if kind == "classification":
        return classification_accuracy(model, head, val_set)
    require(False, f"unknown reward kind {kind!r}")
