"""Reader for the CIFAR-10 binary format and a box-average downsampler.

Each record is 3073 bytes: one label byte (0..9) followed by 3072 pixel
bytes in channel-planar order (1024 red, 1024 green, 1024 blue, row-major
32 x 32 per plane). Pixels scale to [0, 1]; labels remap densely in sorted
original-label order.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataFormatError
from .sampling import LabeledDataset

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
    keep_classes = sorted(set(labels.tolist()) if class_filter is None else set(class_filter))
    if any(c < 0 or c > 9 for c in keep_classes):
        raise ConfigError(f"class filter {keep_classes} outside 0..9")
    remap = {orig: new for new, orig in enumerate(keep_classes)}
    taken = {c: 0 for c in keep_classes}
    cols, new_labels = [], []
    for i in range(records.shape[0]):
        orig = int(labels[i])
        if orig not in remap:
            continue
        if max_per_class is not None and taken[orig] >= max_per_class:
            continue
        taken[orig] += 1
        cols.append(i)
        new_labels.append(remap[orig])
    if not cols:
        raise ConfigError(f"{path}: no records left after class filter")
    pixels = records[cols, 1:].astype(np.float64).T / 255.0
    return LabeledDataset(pixels, np.array(new_labels, dtype=np.int64))


def downsample_flatten(pixels: np.ndarray, factor: int) -> np.ndarray:
    """Box-average each 32 x 32 channel plane by factor, flatten channels in
    order. factor must divide 32; factor 1 is the identity."""
    pixels = np.asarray(pixels, dtype=np.float64).reshape(-1)
    if pixels.size != PIXELS:
        raise ConfigError(f"expected {PIXELS} pixel values, got {pixels.size}")
    if factor < 1 or IMAGE_SIDE % factor != 0:
        raise ConfigError(f"downsample factor must divide {IMAGE_SIDE}, got {factor}")
    side = IMAGE_SIDE // factor
    planes = pixels.reshape(CHANNELS, IMAGE_SIDE, IMAGE_SIDE)
    pooled = planes.reshape(CHANNELS, side, factor, side, factor).mean(axis=(2, 4))
    return pooled.reshape(-1)


def load_cifar_features(path, class_filter=None, max_per_class=None, factor: int = 4) -> LabeledDataset:
    """load_cifar_bin + per-record downsample_flatten."""
    ds = load_cifar_bin(path, class_filter=class_filter, max_per_class=max_per_class)
    feats = np.stack([downsample_flatten(ds.features[:, j], factor) for j in range(ds.n)], axis=1)
    return LabeledDataset(feats, ds.labels)
