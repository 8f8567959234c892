import numpy as np
import pytest

from metriclab.errors import ConfigError
from metriclab.sampling import load_dataset_csv, save_dataset_csv
from metriclab.synthetic import (
    GaussianSpec,
    four_class_fixture,
    bimodal_class_fixture,
    two_class_fixture,
    retrieval_fixture,
    sample_mixture,
    standard_normal,
    three_class_fixture,
)
from metriclab.seeding import substream


def test_zero_covariance_copies_mean():
    spec = GaussianSpec(mean=(5.0, 5.0), var=0.0, count=3, label=0)
    ds = sample_mixture([spec], seed=0)
    assert ds.features.shape == (2, 3)
    assert np.array_equal(ds.features, np.full((2, 3), 5.0))


@pytest.mark.parametrize("var", [-0.5, (1.0, -1e-12), (1.0, np.nan), (1.0, 2.0, 3.0), np.ones((2, 2))])
def test_negative_or_missized_variance_rejected(var):
    with pytest.raises(ConfigError):
        GaussianSpec(mean=(0.0, 0.0), var=var, count=1, label=0)


def test_sample_mixture_is_mean_plus_scaled_normals_bitwise():
    comps = [
        GaussianSpec(mean=(1.0, -2.0, 3.0), var=(2.0, 0.5, 0.0), count=7, label=0),
        GaussianSpec(mean=(0.0, 4.0, -1.0), var=0.49, count=5, label=1),
    ]
    ds = sample_mixture(comps, seed=11)
    for i, (comp, cols) in enumerate(zip(comps, (slice(0, 7), slice(7, 12)))):
        z = standard_normal(substream(11, f"mixture-component/{i}"), 3 * comp.count).reshape(3, comp.count)
        expected = comp.mean[:, None] + np.sqrt(np.broadcast_to(comp.var, (3,)))[:, None] * z
        assert ds.features[:, cols].tobytes() == expected.tobytes()
    assert ds.labels.tolist() == [0] * 7 + [1] * 5


def test_standard_normal_moments():
    z = standard_normal(substream(0, "normal-test"), 100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.02


def test_mixture_law_of_large_numbers():
    mean = np.array([1.0, -2.0, 3.0])
    var = np.array([2.0, 1.0, 0.5])
    ds = sample_mixture([GaussianSpec(mean=mean, var=var, count=20_000, label=0)], seed=4)
    sample_mean = ds.features.mean(axis=1)
    sample_cov = np.cov(ds.features)
    assert np.abs(sample_mean - mean).max() < 0.05
    # axis-aligned: the off-diagonal covariances are zero
    assert np.abs(sample_cov - np.diag(var)).max() < 0.1


def test_mixture_deterministic_bitwise():
    comps = [GaussianSpec(mean=(0.0, 1.0), var=1.0, count=50, label=0)]
    a = sample_mixture(comps, seed=8)
    b = sample_mixture(comps, seed=8)
    assert np.array_equal(a.features, b.features)
    c = sample_mixture(comps, seed=9)
    assert not np.array_equal(a.features, c.features)


def test_two_class_fixture_geometry():
    ds = two_class_fixture(seed=0)
    assert ds.n == 1000 and ds.dim == 2
    iso = ds.features[:, ds.labels == 0]
    ell = ds.features[:, ds.labels == 1]
    assert np.abs(iso.var(axis=1) - 0.25).max() < 0.05
    assert abs(ell.var(axis=1)[0] - 4.0) < 0.5
    assert abs(ell.var(axis=1)[1] - 0.25) < 0.05
    cond = ell.var(axis=1)[0] / ell.var(axis=1)[1]
    assert cond >= 10.0
    # classes are well separated along axis 0
    assert iso.mean(axis=1)[0] < -3.0 and ell.mean(axis=1)[0] > 3.0


def test_bimodal_fixture_mean_sits_between_modes():
    ds = bimodal_class_fixture(seed=1)
    cls0 = ds.features[:, ds.labels == 0]
    assert cls0.shape[1] == 1000
    assert np.abs(cls0.mean(axis=1) - np.array([0.0, 0.0])).max() < 0.1
    # yet no sample is near the mean: the modes are 4 units out
    dists = np.linalg.norm(cls0 - cls0.mean(axis=1, keepdims=True), axis=0)
    assert dists.min() > 1.0


def test_three_class_fixture_shape():
    ds = three_class_fixture(seed=2)
    assert ds.n == 450 and sorted(ds.identities) == [0, 1, 2]


def test_four_class_fixture_separable():
    ds = four_class_fixture(seed=3)
    # nearest-class-mean classifies perfectly when classes are separable
    means = {c: ds.features[:, ds.labels == c].mean(axis=1) for c in ds.identities}
    for j in range(ds.n):
        dists = {c: np.linalg.norm(ds.features[:, j] - m) for c, m in means.items()}
        assert min(dists, key=dists.get) == ds.labels[j]


def test_retrieval_fixture_shape():
    ds = retrieval_fixture(seed=5)
    assert ds.dim == 16 and len(ds.identities) == 32
    assert all(len(ds.by_identity[i]) == 12 for i in ds.identities)


def test_fixture_csv_round_trip(tmp_path):
    ds = two_class_fixture(seed=6, n_per_class=20)
    path = tmp_path / "fixture.csv"
    save_dataset_csv(ds, path)
    back = load_dataset_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
