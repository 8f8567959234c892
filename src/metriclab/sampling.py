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
from dataclasses import dataclass, field

import numpy as np

from .autograd import _all_finite
from .errors import ConfigError, DataFormatError, ShapeError

__all__ = [
    "LabeledDataset",
    "LabeledBatch",
    "PKSamplerConfig",
    "epoch_iter",
    "save_dataset_csv",
    "load_dataset_csv",
]


@dataclass
class LabeledDataset:
    """d x N feature matrix with one integer identity label per column."""

    features: np.ndarray
    labels: np.ndarray
    by_identity: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ShapeError("dataset features must be a 2-D matrix (column per sample)")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[1]:
            raise ShapeError("dataset needs exactly one label per feature column")
        if not _all_finite(self.features):
            raise ShapeError("dataset features must be finite")
        self.by_identity = {
            int(label): np.flatnonzero(self.labels == label) for label in np.unique(self.labels)
        }

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]

    @property
    def identities(self) -> list:
        return sorted(self.by_identity)

    def subset(self, idx) -> "LabeledDataset":
        idx = np.asarray(idx, dtype=np.intp)
        return LabeledDataset(self.features[:, idx], self.labels[idx])


@dataclass
class LabeledBatch:
    """Sampler output: raw features for p identity groups of k instances."""

    features: np.ndarray
    labels: np.ndarray
    p: int
    k: int

    def __post_init__(self):
        if self.features.shape[1] != self.labels.shape[0]:
            raise ShapeError("batch needs one label per column")
        if self.features.shape[1] != self.p * self.k:
            raise ShapeError(f"batch size {self.features.shape[1]} != p*k = {self.p * self.k}")


@dataclass
class PKSamplerConfig:
    p: int = 4
    k: int = 4
    allow_resample: bool = True

    def __post_init__(self):
        if self.p < 2:
            raise ConfigError("sampler.p: need at least 2 identities per batch")
        if self.k < 2:
            raise ConfigError(
                "sampler.k: need at least 2 instances per identity "
                "(center-prediction targets average the other k-1 samples)"
            )


def _draw_instances(ds, identity, k, allow_resample, rng) -> np.ndarray:
    pool = ds.by_identity[identity]
    if pool.size >= k:
        return rng.choice(pool, size=k, replace=False)
    if not allow_resample:
        raise ConfigError(
            f"identity {identity} has {pool.size} samples, needs {k} (allow_resample is off)"
        )
    # too few distinct instances: keep them all and resample the remainder
    extra = rng.choice(pool, size=k - pool.size, replace=True)
    return np.concatenate([pool, extra])


def epoch_iter(ds: LabeledDataset, cfg: PKSamplerConfig, rng: np.random.Generator):
    """Yield ceil(n_ids / p) batches; every identity anchors exactly once."""
    ids = np.array(ds.identities)
    if len(ids) < cfg.p:
        raise ConfigError(f"dataset has {len(ids)} identities, sampler needs p={cfg.p}")
    order = rng.permutation(ids)
    for start in range(0, len(order), cfg.p):
        group = order[start : start + cfg.p]
        cols = np.concatenate(
            [_draw_instances(ds, int(i), cfg.k, cfg.allow_resample, rng) for i in group]
        )
        yield LabeledBatch(ds.features[:, cols], ds.labels[cols], p=len(group), k=cfg.k)


# -- CSV round-trip ------------------------------------------------------------


def save_dataset_csv(ds: LabeledDataset, path):
    """Header f0..f{d-1},label; one sample per row, label last."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(ds.dim)] + ["label"])
        for j in range(ds.n):
            writer.writerow([repr(float(v)) for v in ds.features[:, j]] + [int(ds.labels[j])])


def load_dataset_csv(path) -> LabeledDataset:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[-1] != "label":
                raise DataFormatError(f"{path}: expected a dataset CSV with a trailing label column")
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
