"""Labeled datasets, identity-balanced P x K batch sampling, and CSV
dataset round-trips.

A batch groups P identities with K instances each so that every sample has
same-class mates (required by the center-prediction and ranking losses).
An epoch permutes the identity list and chunks it into ceil(n_ids / P)
batches; each identity anchors exactly one batch per epoch, so the final
batch is ragged when P does not divide the identity count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .autograd import _all_finite
from .errors import ConfigError, DataFormatError, ShapeError

__all__ = [
    "group_labels",
    "first_per_label",
    "LabeledDataset",
    "epoch_iter",
    "write_csv",
    "save_dataset_csv",
    "load_dataset_csv",
]


def group_labels(labels):
    """Group column indices by integer label with one stable sort.

    Returns (ids, order, starts): the distinct labels in ascending order,
    the stable argsort of labels, and the start of each id's run in it
    followed by len(labels). Group g, order[starts[g]:starts[g + 1]], holds
    the columns of ids[g] in ascending order, as np.flatnonzero(labels ==
    ids[g]) does, so np.diff(starts) are the class sizes.
    """
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    heads = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    starts = np.concatenate(([0], heads, [labels.size])) if labels.size else np.zeros(1, np.intp)
    return ranked[starts[:-1]], order, starts


def first_per_label(labels, m):
    """Split columns into (head, rest): head holds each label's first m
    columns, rest the others. Both list labels ascending and columns
    ascending within a label, in group_labels order."""
    _, order, starts = group_labels(labels)
    # a column's rank within its label: its position minus its run's start
    rank = np.arange(order.size) - np.repeat(starts[:-1], np.diff(starts))
    head = rank < m
    return order[head], order[~head]


@dataclass
class LabeledDataset:
    """d x N feature matrix with one integer identity label per column."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ShapeError("dataset features must be a 2-D matrix (column per sample)")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[1]:
            raise ShapeError("dataset needs exactly one label per feature column")
        if not _all_finite(self.features):
            raise ShapeError("dataset features must be finite")

    @cached_property
    def by_identity(self) -> dict:
        """{label: its columns, ascending}, labels ascending; built on first
        use, as only a sampled dataset reads it."""
        ids, order, starts = group_labels(self.labels)
        return {label: order[lo:hi] for label, lo, hi in zip(ids.tolist(), starts[:-1], starts[1:])}

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]

    @property
    def identities(self) -> list:
        return list(self.by_identity)  # group_labels lists ids ascending

    @cached_property
    def class_index(self) -> np.ndarray:
        """Each column's class row 0..C-1: its label's position in identities."""
        return np.searchsorted(np.array(self.identities), self.labels)

    def subset(self, idx) -> "LabeledDataset":
        idx = np.asarray(idx, dtype=np.intp)
        return LabeledDataset(self.features[:, idx], self.labels[idx])


def _draw_instances(ds, identity, k, allow_resample, rng) -> np.ndarray:
    pool = ds.by_identity[identity]
    if pool.size >= k:
        return rng.choice(pool, size=k, replace=False)
    if not allow_resample:
        raise ConfigError(
            f"identity {identity} has {pool.size} samples, needs {k} (allow_resample is off)"
        )
    # too few distinct instances: keep them all and resample the remainder
    try:
        extra = rng.choice(pool, size=k - pool.size, replace=True)
    except (ValueError, MemoryError):  # numpy: "array is too big", or no memory for it
        raise ConfigError(f"sampler.k: cannot allocate a batch of {k} instances per identity") from None
    return np.concatenate([pool, extra])


def epoch_iter(ds: LabeledDataset, cfg, rng: np.random.Generator):
    """Yield ceil(n_ids / p) (features, ds.class_index) batches, k columns
    per identity; every identity anchors exactly once."""
    ids = np.array(ds.identities)
    if len(ids) < cfg.p:
        raise ConfigError(f"sampler.p: dataset has {len(ids)} identities, sampler needs p={cfg.p}")
    order = rng.permutation(ids)
    for start in range(0, len(order), cfg.p):
        group = order[start : start + cfg.p]
        cols = np.concatenate(
            [_draw_instances(ds, int(i), cfg.k, cfg.allow_resample, rng) for i in group]
        )
        yield ds.features[:, cols], ds.class_index[cols]


# -- CSV round-trip ------------------------------------------------------------


def write_csv(path, header, rows):
    """The one table writer: a header row, then rows, each CRLF-terminated.

    The csv module writes a Python float as its repr, which round-trips
    bitwise, so fields must be Python floats, ints or strs (`tolist()`,
    `.item()`): numpy 2 scalars repr as `np.float64(...)`.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_dataset_csv(ds: LabeledDataset, path):
    """Header f0..f{d-1},label; one sample per row, label last."""
    header = [f"f{i}" for i in range(ds.dim)] + ["label"]
    write_csv(path, header, zip(*ds.features.tolist(), ds.labels.tolist()))


def load_dataset_csv(path) -> LabeledDataset:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if len(header) < 2 or header[-1] != "label":
                raise DataFormatError(f"{path}: expected a dataset CSV of feature columns and a trailing label column")
            dim = len(header) - 1
            feats, labels = [], []
            for row in reader:
                if len(row) != dim + 1:
                    raise DataFormatError(
                        f"{path}: line {reader.line_num}: row has {len(row)} fields, expected {dim + 1}"
                    )
                try:
                    feats.append([float(v) for v in row[:dim]])
                    labels.append(np.int64(int(row[dim])))
                except (ValueError, OverflowError) as exc:
                    raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from exc
                if not all(map(math.isfinite, feats[-1])):
                    raise DataFormatError(f"{path}: line {reader.line_num}: non-finite feature")
    except (UnicodeDecodeError, csv.Error) as exc:
        # undecodable bytes, or a field over csv.field_size_limit()
        raise DataFormatError(f"{path}: {exc}") from None
    if not feats:
        raise DataFormatError(f"{path}: empty dataset")
    return LabeledDataset(np.array(feats).T, np.array(labels))
