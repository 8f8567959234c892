import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import nn
from metriclab.config import ExperimentConfig, parse_config, render_config
from metriclab.errors import ConfigError, NumericsError, ShapeError
from metriclab.experiments import (
    AblationReport,
    AblationRow,
    ABLATIONS,
    BOUNDARY_DECILE,
    QUERIES_PER_ID,
    SurfaceGrid,
    ablation_configs,
    center_surface_errors,
    run_bn_ablation,
    run_boundary_experiment,
    run_loss_surface,
    run_target_ablation,
    split_retrieval_task,
)
from metriclab.losses import cpl_loss, cpl_targets, pairwise_euclidean
from metriclab.nn import CenterPredictor
from metriclab.sampling import LabeledDataset
from metriclab.seeding import subseed
from metriclab.synthetic import (
    bimodal_class_fixture,
    two_class_fixture,
    retrieval_fixture,
    three_class_fixture,
)

BOUNDARY_CFG = parse_config(
    (Path(__file__).resolve().parents[1] / "scripts" / "configs" / "boundary.cfg").read_text()
)


def test_surface_grid_validates():
    pts = np.zeros((2, 3))
    with pytest.raises(ShapeError):
        SurfaceGrid(np.zeros((3, 3)), np.zeros(3), np.zeros(3), np.zeros(3, bool))
    with pytest.raises(ShapeError):
        SurfaceGrid(pts, np.zeros(2), np.zeros(3), np.zeros(3, bool))
    with pytest.raises(ShapeError):
        SurfaceGrid(pts, np.zeros(3), np.array([1.0, -0.1, 0.0]), np.zeros(3, bool))
    with pytest.raises(ShapeError):
        SurfaceGrid(pts, np.zeros(3), np.array([1.0, np.nan, 0.0]), np.zeros(3, bool))


@pytest.mark.parametrize(
    "errors", [[0.0, 0.0], [1.0, 0.0], [1e300, 1e-300]], ids=["zero-over-zero", "over-zero", "overflow"]
)
def test_boundary_ratio_that_is_not_finite_is_a_numerics_error(errors):
    # nan or inf would land in summary.json, which is then not JSON
    grid = SurfaceGrid(np.zeros((2, 2)), np.array([0, 1]), np.array(errors), np.array([True, False]))
    with pytest.raises(NumericsError, match="boundary_ratio:"):
        grid.boundary_ratio()


def _grid(errors):
    """Two points of class 0, the first in the boundary band."""
    return SurfaceGrid(np.zeros((2, 2)), np.array([0, 0]), np.array(errors), np.array([True, False]))


@pytest.mark.parametrize(
    "call, message",
    [
        # the first column's square overflows
        (
            lambda: pairwise_euclidean(np.array([[1e200, 0.0], [1.0, 2.0]])),
            "pairwise_euclidean: squared distances are not finite",
        ),
        # the leave-one-out sum of two 1.6e308 columns overflows
        (lambda: cpl_targets(np.full((1, 2), 1.6e308), np.array([0, 0])), "cpl_targets: targets are not finite"),
        # the class mean is 0, the squared errors overflow
        (
            lambda: center_surface_errors(LabeledDataset(np.array([[1e200, -1e200]]), np.array([0, 0]))),
            "cpl_errors: errors are not finite",
        ),
        # two finite errors whose sum overflows
        (lambda: _grid([1.44e308, 1.44e308]).class_mean_error(0), "class_mean_error: class 0 mean error is not finite"),
        # the band mean over the interior mean overflows
        (
            lambda: _grid([1e300, 1e-300]).boundary_ratio(),
            "boundary_ratio: band mean error 1e+300 over interior mean error 1e-300 is not finite",
        ),
    ],
    ids=["pairwise-euclidean", "cpl-targets", "cpl-errors", "class-mean-error", "boundary-ratio"],
)
def test_non_finite_value_raises_its_full_message(call, message):
    with pytest.raises(NumericsError, match=f"^{re.escape(message)}$"):
        call()


def _written(table, path) -> str:
    """The text table.write_csv writes to path."""
    table.write_csv(path)
    return path.read_text()


def test_surface_csv_shape(tmp_path):
    grid = SurfaceGrid(
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.array([0, 1]),
        np.array([0.5, 1.5]),
        np.array([False, True]),
    )
    lines = _written(grid, tmp_path / "surface.csv").splitlines()
    assert lines[0] == "x,y,label,e,boundary"
    assert lines[1] == "1.0,3.0,0,0.5,0"
    assert lines[2] == "2.0,4.0,1,1.5,1"


def test_center_surface_matches_hand_means():
    ds = two_class_fixture(seed=0, n_per_class=20)
    errors = center_surface_errors(ds)
    for c in ds.identities:
        idx = ds.by_identity[c]
        mu = ds.features[:, idx].mean(axis=1, keepdims=True)
        assert errors[idx] == pytest.approx(((ds.features[:, idx] - mu) ** 2).sum(axis=0))
    assert np.all(errors >= 0)


def test_surface_rejects_non_2d_fixture():
    ds = retrieval_fixture(seed=0, n_ids=4, per_id=4, dim=5)
    with pytest.raises(ShapeError):
        run_loss_surface(ds, ExperimentConfig(kind="surface"))


@pytest.mark.parametrize("surface_loss, kinds", [("center", ["center"]), ("cpl", ["cpl"]), ("both", ["center", "cpl"])])
def test_surface_draws_the_kinds_its_config_names_center_first(surface_loss, kinds):
    ds = two_class_fixture(seed=0, n_per_class=10)
    grids = run_loss_surface(ds, ExperimentConfig(kind="surface", surface_loss=surface_loss, refit_steps=5))
    assert list(grids) == kinds


def test_center_penalizes_elliptic_class_harder():
    for seed in range(3):
        ds = two_class_fixture(seed=subseed(seed, "dataset"))
        grid = run_loss_surface(ds, ExperimentConfig(kind="surface", seed=seed, surface_loss="center"))["center"]
        assert grid.class_mean_error(1) > grid.class_mean_error(0)


def test_cpl_ratio_below_center_ratio():
    for seed in range(3):
        ds = two_class_fixture(seed=subseed(seed, "dataset"))
        grids = run_loss_surface(ds, ExperimentConfig(kind="surface", seed=seed))
        center, cpl = grids["center"], grids["cpl"]
        r_center = center.class_mean_error(1) / center.class_mean_error(0)
        r_cpl = cpl.class_mean_error(1) / cpl.class_mean_error(0)
        assert r_cpl < r_center


def test_cpl_beats_center_on_bimodal_class():
    for seed in range(3):
        ds = bimodal_class_fixture(seed=subseed(seed, "dataset"))
        grids = run_loss_surface(ds, ExperimentConfig(kind="surface", seed=seed))
        center, cpl = grids["center"], grids["cpl"]
        assert cpl.class_mean_error(0) < center.class_mean_error(0)


def test_surface_errors_nonnegative_and_deterministic(tmp_path):
    ds = two_class_fixture(seed=1, n_per_class=40)
    cfg = ExperimentConfig(kind="surface", seed=3, refit_steps=50, surface_loss="cpl")
    a = run_loss_surface(ds, cfg)["cpl"]
    b = run_loss_surface(ds, cfg)["cpl"]
    assert np.all(a.errors >= 0)
    assert _written(a, tmp_path / "a.csv") == _written(b, tmp_path / "b.csv")


# -- boundary -------------------------------------------------------------------


def test_boundary_rejects_wrong_class_count():
    ds = retrieval_fixture(seed=0, n_ids=8, per_id=4, dim=2)
    with pytest.raises(ConfigError):
        run_boundary_experiment(ds, BOUNDARY_CFG)


def test_boundary_grid_contract(tmp_path):
    ds = three_class_fixture(seed=subseed(0, "dataset"), n_per_class=60)
    grid, accuracy = run_boundary_experiment(ds, BOUNDARY_CFG)
    assert grid.points.shape == (2, ds.n)
    assert 0.0 <= accuracy <= 1.0
    norms = np.linalg.norm(grid.points, axis=0)
    assert norms == pytest.approx(np.ones(ds.n), abs=1e-9)
    # numpy's lower decile of distinct margins: the floor((n - 1) * decile) + 1 smallest
    assert grid.boundary.sum() == math.floor((ds.n - 1) * BOUNDARY_DECILE) + 1
    rows = _written(grid, tmp_path / "surface.csv").splitlines()
    assert len(rows) == 1 + ds.n


def test_boundary_embeds_all_samples_twice_after_training(monkeypatch):
    # one pass feeds the margins and the refit, one the closing train accuracy
    widths = []
    forward = nn.MLP.forward

    def counted(self, x):
        widths.append(x.shape[1])
        return forward(self, x)

    # CenterPredictor holds its own forward and __call__, so only the extractor counts
    monkeypatch.setattr(nn.MLP, "forward", counted)
    monkeypatch.setattr(nn.MLP, "__call__", counted)
    ds = three_class_fixture(seed=0, n_per_class=30)
    cfg = replace(BOUNDARY_CFG, sgd=replace(BOUNDARY_CFG.sgd, epochs=2, milestones=()), refit_steps=5)
    run_boundary_experiment(ds, cfg)
    # eval.every = 0: training only sees its p * k = 24-column batches
    assert cfg.eval_every == 0 and cfg.sampler.p * cfg.sampler.k < ds.n
    assert widths.count(ds.n) == 2


def test_boundary_band_errors_exceed_interior():
    wins = 0
    for seed in range(3):
        ds = three_class_fixture(seed=subseed(seed, "dataset"))
        grid, _ = run_boundary_experiment(ds, replace(BOUNDARY_CFG, seed=seed))
        wins += grid.boundary_ratio() >= 1.5
    assert wins >= 2


# -- ablations ------------------------------------------------------------------

ABLATION_CFG = """
kind = ablation-target
loss.triplet.weight = 1.0
sgd.base_lr = 0.001
sgd.milestones = 10,15
sgd.epochs = 20
"""


def test_split_retrieval_task_disjoint_and_dense():
    ds = retrieval_fixture(seed=subseed(0, "dataset"))
    train, queries, gallery = split_retrieval_task(ds)
    assert train.identities == list(range(16))  # the fixture numbers its 32 identities 0..31
    assert set(queries.labels) == set(gallery.labels) == set(range(16, 32))
    assert queries.n == 16 * 4 and gallery.n == 16 * 8
    assert train.n + queries.n + gallery.n == ds.n


def test_split_needs_enough_identities():
    ds = retrieval_fixture(seed=0, n_ids=3, per_id=4, dim=4)
    with pytest.raises(ConfigError):
        split_retrieval_task(ds)


def test_split_query_and_gallery_build_no_identity_index_until_read():
    ds = retrieval_fixture(seed=subseed(0, "dataset"))
    _, queries, gallery = split_retrieval_task(ds)
    for part in (queries, gallery):
        assert "by_identity" not in vars(part)
        assert part.identities == sorted(set(part.labels.tolist()))
        assert "by_identity" in vars(part)


def _split_by_identity(labels):
    """Reference split, one identity at a time: the original columns of the
    train, query and gallery sets, and the dense train labels."""
    ids = sorted(set(labels))
    train_ids = ids[: len(ids) // 2]
    train = [j for j, label in enumerate(labels) if label in train_ids]
    queries, gallery = [], []
    for ident in ids[len(ids) // 2 :]:
        cols = [j for j, label in enumerate(labels) if label == ident]
        queries += cols[:QUERIES_PER_ID]
        gallery += cols[QUERIES_PER_ID:]
    return train, [train_ids.index(labels[j]) for j in train], queries, gallery


@settings(max_examples=200, deadline=None)
@given(
    # ids with gaps, some identities below QUERIES_PER_ID samples
    id_counts=st.lists(
        st.tuples(st.integers(-300, 699), st.integers(1, 2 * QUERIES_PER_ID)),
        min_size=4,
        max_size=10,
        unique_by=lambda pair: pair[0],
    ),
    random=st.randoms(use_true_random=False),
)
def test_split_matches_a_per_identity_reference(id_counts, random):
    labels = [ident for ident, count in id_counts for _ in range(count)]
    random.shuffle(labels)
    # one feature row holding each column's index traces every column
    ds = LabeledDataset(np.arange(len(labels), dtype=np.float64)[None, :], np.array(labels))
    train_cols, train_labels, query_cols, gallery_cols = _split_by_identity(labels)
    train, queries, gallery = split_retrieval_task(ds)
    assert train.features[0].tolist() == train_cols and train.labels.tolist() == [labels[j] for j in train_cols]
    assert train.class_index.tolist() == train_labels
    assert queries.features[0].tolist() == query_cols and gallery.features[0].tolist() == gallery_cols
    assert queries.labels.tolist() == [labels[j] for j in query_cols]
    assert gallery.labels.tolist() == [labels[j] for j in gallery_cols]


def test_target_ablation_four_rows_finite():
    cfg = parse_config(ABLATION_CFG)
    report = run_target_ablation(cfg.dataset.load(cfg.seed), cfg)
    assert [row.variant for row in report.rows] == [name for name, _ in ABLATIONS["ablation-target"]]
    for row in report.rows:
        assert np.isfinite(row.map) and 0 <= row.map <= 1
        assert np.isfinite(row.rank1) and 0 <= row.rank1 <= 1
        assert len(row.config_hash) == 12
        assert f"loss.cpl.target = {row.variant}" in report.configs[row.variant]
    # differing targets resolve to differing config hashes
    assert len({row.config_hash for row in report.rows}) == 4


def test_bn_ablation_six_rows_finite():
    cfg = parse_config(ABLATION_CFG.replace("ablation-target", "ablation-bn"))
    report = run_bn_ablation(cfg.dataset.load(cfg.seed), cfg)
    assert [row.variant for row in report.rows] == [name for name, _ in ABLATIONS["ablation-bn"]]
    assert len(report.rows) == 6
    for row in report.rows:
        assert np.isfinite(row.map) and np.isfinite(row.rank1)
    assert "model.predictor = none" in report.configs["no-pred"]
    assert "model.predictor_depth = 4" in report.configs["pred4+tbn+hbn"]


# sets every key an ablation row overrides to a value no row relies on
ABLATION_BASE = """
seed = 5
out = runs/ablation base
model.predictor_depth = 4
model.bn_target = false
model.bn_predictor_hidden = true
model.bn_predictor_output = true
loss.cpl.target = sample-mean
"""


def _rendered(cfg) -> dict:
    return dict(line.split(" = ", 1) for line in render_config(cfg).splitlines())


@pytest.mark.parametrize("kind", list(ABLATIONS))
def test_ablation_variant_is_base_with_its_row_keys_set(kind):
    base = parse_config(f"kind = {kind}\n{ABLATION_BASE}")
    variants = ablation_configs(base, kind)
    assert [name for name, _ in variants] == [name for name, _ in ABLATIONS[kind]]
    for (name, vcfg), (_, row) in zip(variants, ABLATIONS[kind]):
        assert _rendered(vcfg) == {**_rendered(base), **row}, name


def test_every_bn_row_sets_all_five_predictor_keys():
    keys = {
        "model.predictor",
        "model.predictor_depth",
        "model.bn_target",
        "model.bn_predictor_hidden",
        "model.bn_predictor_output",
    }
    for name, row in ABLATIONS["ablation-bn"]:
        assert set(row) == keys, name


def test_ablation_csv_and_determinism(tmp_path):
    cfg = replace(parse_config(ABLATION_CFG), seed=1)
    a = run_target_ablation(cfg.dataset.load(cfg.seed), cfg)
    b = run_target_ablation(cfg.dataset.load(cfg.seed), cfg)
    a_text = _written(a, tmp_path / "a.csv")
    assert a_text == _written(b, tmp_path / "b.csv")
    lines = a_text.splitlines()
    assert lines[0] == "variant,map,rank1,config_hash"
    assert len(lines) == 5


def test_ablation_rows_unique():
    row = AblationRow("x", 0.5, 0.5, "abc")
    with pytest.raises(ConfigError):
        AblationReport([row, row], {})


def test_no_predictor_equals_identity_predictor(rng):
    ds = retrieval_fixture(seed=0, n_ids=4, per_id=6, dim=6)
    predictor = CenterPredictor(dim=6, hidden=12, rng=rng, depth=2)
    predictor.init_identity()
    targets = cpl_targets(ds.features, ds.labels)
    with_pred = cpl_loss(ds.features, ds.labels, targets, predictor).item()
    without = cpl_loss(ds.features, ds.labels, targets, None).item()
    assert with_pred == without
