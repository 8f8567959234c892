"""Reader for the CIFAR-10 binary format and a box-average downsampler.

Each record is 3073 bytes: one label byte (0..9) followed by 3072 pixel
bytes in channel-planar order (1024 red, 1024 green, 1024 blue, row-major
32 x 32 per plane). Pixels scale to [0, 1]; labels remap densely in sorted
original-label order.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataFormatError
from .sampling import LabeledDataset, first_per_label

__all__ = ["load_cifar_bin", "downsample_flatten", "load_cifar_features"]

RECORD_BYTES = 3073
IMAGE_SIDE = 32
CHANNELS = 3
PIXELS = CHANNELS * IMAGE_SIDE * IMAGE_SIDE


def load_cifar_bin(path, class_filter=None, max_per_class=None) -> LabeledDataset:
    """Load records as a 3072 x N dataset with pixels in [0, 1].

    class_filter keeps only the listed original labels; labels remap to
    0..C-1 in sorted original order. max_per_class truncates per class in
    file order.
    """
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0:
        raise DataFormatError(f"{path}: empty file")
    if raw.size % RECORD_BYTES != 0:
        raise DataFormatError(
            f"{path}: {raw.size} bytes is not a multiple of the {RECORD_BYTES}-byte record"
        )
    records = raw.reshape(-1, RECORD_BYTES)
    labels = records[:, 0]
    if labels.max() > 9:
        raise DataFormatError(f"{path}: label byte {labels.max()} outside 0..9 (corrupt file)")
    # dense remap over the filter when given, else over classes present
    keep_classes = np.unique(labels if class_filter is None else np.asarray(class_filter))
    if keep_classes.size and (keep_classes[0] < 0 or keep_classes[-1] > 9):
        raise ConfigError(f"class filter {keep_classes.tolist()} outside 0..9")
    cols = np.flatnonzero(np.isin(labels, keep_classes))
    if max_per_class is not None:
        cols = np.sort(cols[first_per_label(labels[cols], max_per_class)[0]])
    if not cols.size:
        raise ConfigError(f"{path}: no records left after class filter")
    pixels = records[cols, 1:].astype(np.float64).T / 255.0
    return LabeledDataset(pixels, np.searchsorted(keep_classes, labels[cols]))


def downsample_flatten(pixels: np.ndarray, factor: int) -> np.ndarray:
    """Box-average each 32 x 32 channel plane by factor, flatten channels in
    order. pixels is one record of PIXELS values, or an N x PIXELS array of
    records pooled one per row. factor must divide 32; factor 1 is the
    identity."""
    pixels = np.asarray(pixels, dtype=np.float64)
    records = pixels if pixels.ndim == 2 else pixels.reshape(1, -1)
    if records.shape[1] != PIXELS:
        raise ConfigError(f"expected {PIXELS} pixel values, got {records.shape[1]}")
    if factor < 1 or IMAGE_SIDE % factor != 0:
        raise ConfigError(f"downsample factor must divide {IMAGE_SIDE}, got {factor}")
    side = IMAGE_SIDE // factor
    planes = records.reshape(len(records), CHANNELS, side, factor, side, factor)
    pooled = planes.mean(axis=(3, 5)).reshape(len(records), CHANNELS * side * side)
    return pooled if pixels.ndim == 2 else pooled[0]


def load_cifar_features(path, class_filter=None, max_per_class=None, factor: int = 4) -> LabeledDataset:
    """load_cifar_bin + downsample_flatten of every record."""
    ds = load_cifar_bin(path, class_filter=class_filter, max_per_class=max_per_class)
    return LabeledDataset(downsample_flatten(ds.features.T, factor).T, ds.labels)
