"""Reader for the CIFAR-10 binary format: `load_cifar_features` loads a
batch file as box-averaged float features (factor 1 keeps every pixel).

Each record is 3073 bytes: one label byte (0..9) followed by 3072 pixel
bytes in channel-planar order (1024 red, 1024 green, 1024 blue, row-major
32 x 32 per plane). Pixels scale to [0, 1]; labels keep their values.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataFormatError
from .sampling import LabeledDataset, first_per_label

__all__ = ["downsample_flatten", "load_cifar_features"]

RECORD_BYTES = 3073
IMAGE_SIDE = 32
CHANNELS = 3
PIXELS = CHANNELS * IMAGE_SIDE * IMAGE_SIDE
# records that load_cifar_features scales to float64 and pools at a time
CHUNK_RECORDS = 256


def _scaled(pixel_bytes: np.ndarray) -> np.ndarray:
    """uint8 pixels as float64 in [0, 1]: astype(float64) / 255.0, with the
    division done in place on the float copy."""
    pixels = pixel_bytes.astype(np.float64)
    pixels /= 255.0
    return pixels


def downsample_flatten(records: np.ndarray, factor: int) -> np.ndarray:
    """Box-average each 32 x 32 channel plane of an N x PIXELS record matrix
    by factor and flatten the channels in order, one record per row.
    factor must divide 32; factor 1 is the identity."""
    records = np.asarray(records, dtype=np.float64)
    if records.ndim != 2 or records.shape[1] != PIXELS:
        raise ConfigError(f"expected {PIXELS} pixel values per record row, got shape {records.shape}")
    if factor < 1 or IMAGE_SIDE % factor != 0:
        raise ConfigError(f"downsample factor must divide {IMAGE_SIDE}, got {factor}")
    side = IMAGE_SIDE // factor
    planes = records.reshape(len(records), CHANNELS, side, factor, side, factor)
    return planes.mean(axis=(3, 5)).reshape(len(records), CHANNELS * side * side)


def load_cifar_features(path, class_filter=None, max_per_class=None, factor: int = 4) -> LabeledDataset:
    """Load records as a D x N dataset of pooled features in [0, 1].

    class_filter keeps only the listed labels, which keep their CIFAR
    values. max_per_class truncates per class in file order. Each record's
    pixels are scaled to [0, 1] and then box-averaged by factor
    (downsample_flatten; factor 1 keeps all 3072), CHUNK_RECORDS records at
    a time, so the full-resolution float64 pixels are never held at once."""
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
    keep = np.arange(10) if class_filter is None else np.asarray(class_filter)
    if keep.size and (keep.min() < 0 or keep.max() > 9):
        raise ConfigError(f"class filter {keep.tolist()} outside 0..9")
    cols = np.flatnonzero(np.isin(labels, keep))
    if max_per_class is not None:
        cols = np.sort(cols[first_per_label(labels[cols], max_per_class)[0]])
    if not cols.size:
        raise ConfigError(f"{path}: no records left after class filter")
    pooled = [
        downsample_flatten(_scaled(records[cols[start : start + CHUNK_RECORDS], 1:]), factor)
        for start in range(0, cols.size, CHUNK_RECORDS)
    ]
    return LabeledDataset(np.concatenate(pooled).T, labels[cols])
