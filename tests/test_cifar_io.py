import tracemalloc

import numpy as np
import pytest

from metriclab import cifar_io
from metriclab.cifar_io import (
    CHUNK_RECORDS,
    PIXELS,
    RECORD_BYTES,
    downsample_flatten,
    load_cifar_features,
)
from metriclab.errors import ConfigError, DataFormatError


def write_records(path, entries):
    """entries: list of (label, pixel_fill or ndarray of 3072 uint8)."""
    blob = bytearray()
    for label, pix in entries:
        blob.append(label)
        if isinstance(pix, int):
            blob.extend([pix] * 3072)
        else:
            blob.extend(np.asarray(pix, dtype=np.uint8).tobytes())
    path.write_bytes(bytes(blob))


def test_load_round_trip_values(tmp_path):
    p = tmp_path / "batch.bin"
    rng = np.random.default_rng(0)
    pix = rng.integers(0, 256, 3072)
    write_records(p, [(3, pix), (7, 128)])
    ds = load_cifar_features(p, factor=1)
    assert ds.features.shape == (3072, 2)
    assert np.array_equal(ds.features[:, 0], pix / 255.0)
    assert np.allclose(ds.features[:, 1], 128 / 255.0)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    assert ds.labels.tolist() == [3, 7]  # the records' own label bytes


def test_load_twice_identical(tmp_path):
    p = tmp_path / "batch.bin"
    write_records(p, [(0, 10), (1, 20), (2, 30)])
    a, b = load_cifar_features(p, factor=1), load_cifar_features(p, factor=1)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_truncated_file_rejected(tmp_path):
    p = tmp_path / "trunc.bin"
    write_records(p, [(0, 0)])
    p.write_bytes(p.read_bytes()[: RECORD_BYTES - 10])
    with pytest.raises(DataFormatError):
        load_cifar_features(p, factor=1)


def test_corrupt_label_rejected(tmp_path):
    p = tmp_path / "corrupt.bin"
    write_records(p, [(11, 0)])
    with pytest.raises(DataFormatError):
        load_cifar_features(p, factor=1)


def test_class_filter_and_cap(tmp_path):
    p = tmp_path / "batch.bin"
    write_records(p, [(0, 1), (1, 2), (0, 3), (2, 4), (0, 5), (1, 6)])
    ds = load_cifar_features(p, class_filter=[0, 2], max_per_class=2, factor=1)
    assert ds.labels.tolist() == [0, 0, 2]  # records kept in file order, with their labels
    assert ds.features.shape[1] == 3
    # cap keeps file order: fills 1 and 3, drops fill 5
    assert np.allclose(np.unique(ds.features), np.array([1, 3, 4]) / 255.0)


def _kept_by_record_loop(labels, class_filter, cap):
    """Reference selection in one pass over the records in file order: the
    kept record indices and their labels."""
    taken = dict.fromkeys(range(10) if class_filter is None else class_filter, 0)
    cols = []
    for i, label in enumerate(labels):
        if label in taken and (cap is None or taken[label] < cap):
            taken[label] += 1
            cols.append(i)
    return cols, [labels[i] for i in cols]


@pytest.mark.parametrize(
    "class_filter,cap",
    [(None, None), (None, 2), ([0, 2, 7], 3), ([7, 2, 7], 1), ([9, 0, 4, 2], 50), ([5], None)],
)
def test_filter_and_cap_match_a_per_record_loop(tmp_path, class_filter, cap):
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 10, size=60)  # classes interleaved in file order
    pixels = rng.integers(0, 256, size=(60, 3072))
    p = tmp_path / "batch.bin"
    write_records(p, list(zip(labels.tolist(), pixels)))
    cols, kept_labels = _kept_by_record_loop(labels.tolist(), class_filter, cap)
    ds = load_cifar_features(p, class_filter=class_filter, max_per_class=cap, factor=1)
    assert ds.labels.tolist() == kept_labels
    assert np.array_equal(ds.features, pixels[cols].T / 255.0)


def test_cap_zero_leaves_no_records(tmp_path):
    p = tmp_path / "batch.bin"
    write_records(p, [(0, 1), (1, 2), (0, 3)])
    with pytest.raises(ConfigError, match="no records left after class filter"):
        load_cifar_features(p, class_filter=[0, 1], max_per_class=0, factor=1)


def test_downsample_factor_one_is_identity():
    pix = np.arange(2 * 3072).reshape(2, 3072) / 6143.0
    assert np.array_equal(downsample_flatten(pix, 1), pix)


def test_downsample_constant_plane():
    pix = np.concatenate([np.full(1024, 0.2), np.full(1024, 0.5), np.full(1024, 0.9)])
    (out,) = downsample_flatten(pix[None, :], 4)
    assert out.shape == (3 * 8 * 8,)
    assert np.allclose(out[:64], 0.2) and np.allclose(out[64:128], 0.5) and np.allclose(out[128:], 0.9)


def test_downsample_checkerboard_averages_to_half():
    plane = np.indices((32, 32)).sum(axis=0) % 2  # perfect checkerboard
    pix = np.tile(plane.reshape(-1), 3).astype(float)
    out = downsample_flatten(pix[None, :], 2)
    assert np.allclose(out, 0.5)


def test_downsample_factor_must_divide():
    with pytest.raises(ConfigError):
        downsample_flatten(np.zeros((1, 3072)), 5)


@pytest.mark.parametrize("factor", [1, 2, 4, 8, 16, 32])
def test_batched_downsample_equals_per_record_calls(factor):
    records = np.random.default_rng(factor).random((5, 3072))
    batched = downsample_flatten(records, factor)
    assert np.array_equal(batched, np.concatenate([downsample_flatten(r[None, :], factor) for r in records]))


@pytest.mark.parametrize("pixels", [np.zeros(3071), np.zeros((2, 3073)), np.zeros((3072, 2)), np.zeros(3072)])
def test_mis_sized_record_rejected(pixels):
    with pytest.raises(ConfigError, match="expected 3072 pixel values"):
        downsample_flatten(pixels, 4)


def test_load_cifar_features_downsampled(tmp_path):
    p = tmp_path / "batch.bin"
    write_records(p, [(4, 100), (9, 200)])
    ds = load_cifar_features(p, factor=4)
    assert ds.features.shape == (3 * 8 * 8, 2)
    assert np.allclose(ds.features[:, 0], 100 / 255.0)


def _random_file(path, n, seed=0):
    rng = np.random.default_rng(seed)
    blob = np.empty((n, RECORD_BYTES), dtype=np.uint8)
    blob[:, 0] = rng.integers(0, 10, size=n)
    blob[:, 1:] = rng.integers(0, 256, size=(n, PIXELS))
    blob.tofile(path)


@pytest.mark.parametrize("chunk", [1, 7, CHUNK_RECORDS, 1024])
@pytest.mark.parametrize("class_filter,cap", [(None, None), ([0, 3, 8], None), (None, 40), ([2, 5], 100)])
def test_chunked_features_equal_pooling_the_whole_dataset(tmp_path, monkeypatch, chunk, class_filter, cap):
    p = tmp_path / "batch.bin"
    _random_file(p, 600)  # more than two default chunks
    for factor in (1, 4):
        monkeypatch.setattr(cifar_io, "CHUNK_RECORDS", 600)  # one chunk holds every record
        whole = load_cifar_features(p, class_filter=class_filter, max_per_class=cap, factor=factor)
        monkeypatch.setattr(cifar_io, "CHUNK_RECORDS", chunk)
        ds = load_cifar_features(p, class_filter=class_filter, max_per_class=cap, factor=factor)
        assert np.array_equal(ds.features, whole.features)
        assert np.array_equal(ds.labels, whole.labels)


def test_features_never_hold_the_full_resolution_pixels(tmp_path):
    p = tmp_path / "batch.bin"
    _random_file(p, 2000)
    tracemalloc.start()
    try:
        ds = load_cifar_features(p, factor=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.shape == (3 * 8 * 8, 2000)
    # the file (6.1 MB), one chunk of float64 pixels (6.3 MB) and the
    # pooled features twice (2 x 3.1 MB) make 18.6 MB; the full-resolution
    # float64 pixels alone would take 49 MB
    assert peak < 24e6, peak
