import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metriclab.config import PKSamplerConfig
from metriclab.errors import ConfigError, DataFormatError, ShapeError
from metriclab.sampling import (
    LabeledDataset,
    epoch_iter,
    first_per_label,
    group_labels,
    load_dataset_csv,
    save_dataset_csv,
    write_csv,
)
from metriclab.seeding import substream


def make_ds(n_ids=8, per_id=6, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_ids), per_id)
    return LabeledDataset(rng.normal(0, 1, (dim, n_ids * per_id)), labels)


def test_dataset_validates_shapes():
    with pytest.raises(ShapeError):
        LabeledDataset(np.zeros((2, 3)), np.array([0, 1]))
    with pytest.raises(ShapeError):
        LabeledDataset(np.zeros(3), np.array([0, 1, 2]))


INT64 = np.iinfo(np.int64)
# a few distinct ids, int64 extremes among them, each drawn any number of times
LABEL_LISTS = st.lists(
    st.integers(INT64.min, INT64.max) | st.sampled_from([INT64.min, -1, 0, INT64.max]),
    min_size=1,
    max_size=4,
    unique=True,
).flatmap(lambda ids: st.lists(st.sampled_from(ids), max_size=40))


@settings(max_examples=200, deadline=None)
@given(labels=LABEL_LISTS)
@example(labels=[])
@example(labels=[7])
@example(labels=[3, -2, 3, 3, -2, 9, 3])
@example(labels=[INT64.max, INT64.min, INT64.max])
def test_group_labels_matches_unique_and_flatnonzero(labels):
    labels = np.array(labels, dtype=np.int64)
    ids, order, starts = group_labels(labels)
    assert np.array_equal(ids, np.unique(labels)) and ids.dtype == np.int64
    assert starts[0] == 0 and starts[-1] == labels.size and starts.size == ids.size + 1
    for label, lo, hi in zip(ids, starts[:-1], starts[1:]):
        assert np.array_equal(order[lo:hi], np.flatnonzero(labels == label))


@settings(max_examples=200, deadline=None)
@given(labels=LABEL_LISTS, m=st.integers(0, 45))
@example(labels=[], m=2)
@example(labels=[3, -2, 3, 3, -2, 9, 3], m=0)
@example(labels=[3, -2, 3, 3, -2, 9, 3], m=2)
@example(labels=[3, -2, 3, 3, -2, 9, 3], m=99)
def test_first_per_label_matches_a_per_label_loop(labels, m):
    # m = 0 puts every column in rest; m past every class size, in head
    head, rest = [], []
    for label in sorted(set(labels)):
        cols = [j for j, other in enumerate(labels) if other == label]
        head += cols[:m]
        rest += cols[m:]
    got_head, got_rest = first_per_label(np.array(labels, dtype=np.int64), m)
    assert got_head.tolist() == head and got_rest.tolist() == rest


def test_dataset_groups_columns_by_ascending_identity():
    labels = np.array([5, -3, 5, 2, -3, 5])
    ds = LabeledDataset(np.zeros((1, 6)), labels)
    assert ds.identities == [-3, 2, 5]
    for label in ds.identities:
        assert np.array_equal(ds.by_identity[label], np.flatnonzero(labels == label))


@settings(max_examples=200, deadline=None)
@given(labels=LABEL_LISTS)
@example(labels=[5, -3, 5, 2, -3, 5])
@example(labels=[INT64.max, INT64.min, INT64.max])
def test_class_index_is_each_label_position_in_identities(labels):
    ds = LabeledDataset(np.zeros((1, len(labels))), np.array(labels, dtype=np.int64))
    assert ds.class_index.tolist() == [ds.identities.index(label) for label in labels]


def test_epoch_iter_yields_the_class_rows_of_sparse_labels():
    labels = np.repeat([-7, 0, 4, 31, 1000], 3)
    # one feature row holding each column's index traces every column
    ds = LabeledDataset(np.arange(labels.size, dtype=np.float64)[None, :], labels)
    for features, batch_labels in epoch_iter(ds, PKSamplerConfig(p=2, k=2), substream(0, "s")):
        cols = features[0].astype(np.intp)
        assert np.array_equal(batch_labels, ds.class_index[cols])
        assert batch_labels.tolist() == [ds.identities.index(label) for label in labels[cols]]


def test_pk_batch_is_p_times_k():
    ds = make_ds(n_ids=16, per_id=8)
    cfg = PKSamplerConfig(p=16, k=4)
    features, labels = next(epoch_iter(ds, cfg, substream(0, "sampler")))
    assert features.shape[1] == 64
    labels, counts = np.unique(labels, return_counts=True)
    assert len(labels) == 16 and (counts == 4).all()


def test_pk_batch_deterministic_under_seed():
    ds = make_ds()
    cfg = PKSamplerConfig(p=4, k=3)
    features1, labels1 = next(epoch_iter(ds, cfg, substream(7, "sampler")))
    features2, labels2 = next(epoch_iter(ds, cfg, substream(7, "sampler")))
    assert np.array_equal(features1, features2)
    assert np.array_equal(labels1, labels2)


def test_pk_batch_columns_come_from_dataset():
    ds = make_ds()
    features, labels = next(epoch_iter(ds, PKSamplerConfig(p=3, k=2), substream(1, "s")))
    for j in range(features.shape[1]):
        col = features[:, j]
        matches = np.flatnonzero((ds.features == col[:, None]).all(axis=0))
        assert matches.size >= 1
        assert labels[j] in ds.labels[matches]


def test_small_identity_resamples_when_allowed():
    feats = np.arange(10.0).reshape(1, 10)
    labels = np.array([0, 0, 0, 0, 0, 0, 0, 0, 1, 1])  # identity 1 has 2 samples
    ds = LabeledDataset(feats, labels)
    cfg = PKSamplerConfig(p=2, k=4, allow_resample=True)
    _, batch_labels = next(epoch_iter(ds, cfg, substream(0, "s")))
    assert (batch_labels == 1).sum() == 4  # 2 distinct + 2 resampled


def test_small_identity_errors_when_resample_off():
    feats = np.arange(6.0).reshape(1, 6)
    ds = LabeledDataset(feats, np.array([0, 0, 0, 0, 1, 1]))
    cfg = PKSamplerConfig(p=2, k=4, allow_resample=False)
    with pytest.raises(ConfigError):
        next(epoch_iter(ds, cfg, substream(0, "s")))


def test_sampler_config_validation():
    with pytest.raises(ConfigError):
        PKSamplerConfig(p=1, k=4)
    with pytest.raises(ConfigError, match="k-1"):
        PKSamplerConfig(p=4, k=1)


def test_epoch_has_ceil_batches_each_identity_once():
    ds = make_ds(n_ids=8, per_id=4)
    batches = list(epoch_iter(ds, PKSamplerConfig(p=2, k=3), substream(3, "e")))
    assert len(batches) == 4
    anchored = np.concatenate([np.unique(labels) for _, labels in batches])
    assert sorted(anchored.tolist()) == list(range(8))


def test_epoch_ragged_final_batch():
    ds = make_ds(n_ids=5, per_id=4)
    batches = list(epoch_iter(ds, PKSamplerConfig(p=2, k=2), substream(0, "e")))
    assert len(batches) == 3  # ceil(5/2)
    assert [np.unique(labels).size for _, labels in batches] == [2, 2, 1]
    anchored = sorted(np.concatenate([np.unique(labels) for _, labels in batches]).tolist())
    assert anchored == list(range(5))


def test_epoch_orderings_vary_across_epochs():
    ds = make_ds(n_ids=6, per_id=3)
    rng = substream(11, "epochs")
    cfg = PKSamplerConfig(p=2, k=2)
    orders = set()
    for _ in range(100):
        first_labels = tuple(
            int(labels[0]) for _, labels in epoch_iter(ds, cfg, rng)
        )
        orders.add(first_labels)
    assert len(orders) > 1


@settings(max_examples=100, deadline=None)
@given(
    n_ids=st.integers(2, 9),
    per_id=st.integers(1, 6),
    p=st.integers(2, 9),
    k=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_batch_has_k_columns_per_identity(n_ids, per_id, p, k, seed):
    ds = make_ds(n_ids=n_ids, per_id=per_id, dim=3)
    p = min(p, n_ids)
    batches = list(epoch_iter(ds, PKSamplerConfig(p=p, k=k), substream(seed, "s")))
    assert len(batches) == -(-n_ids // p)  # the last one is ragged when p does not divide n_ids
    for features, labels in batches:
        ids, counts = np.unique(labels, return_counts=True)
        assert len(labels) == features.shape[1] == ids.size * k
        assert (counts == k).all()


def test_csv_round_trip_exact(tmp_path):
    ds = make_ds(n_ids=3, per_id=2, dim=5, seed=9)
    path = tmp_path / "ds.csv"
    save_dataset_csv(ds, path)
    back = load_dataset_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    header = path.read_text().splitlines()[0]
    assert header == "f0,f1,f2,f3,f4,label"


def test_write_csv_writes_floats_as_repr_with_crlf_rows(tmp_path):
    # repr is the shortest text that parses back to the same float
    header = ["name", "count", "value"]
    rows = [
        ("tiny", 1, 5e-324),
        ("negzero", -2, -0.0),
        ("big", 0, 1e22),
        ("sum", 3, 0.1 + 0.2),
        ("third", 4, 1 / 3),
    ]
    path = tmp_path / "table.csv"
    write_csv(path, header, rows)
    expected = "name,count,value\r\n" + "".join(
        ",".join([name, *map(repr, numbers)]) + "\r\n" for name, *numbers in rows
    )
    assert path.read_bytes() == expected.encode()


def test_csv_rejects_missing_label_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(DataFormatError):
        load_dataset_csv(p)
