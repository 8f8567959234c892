from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from metriclab.config import ExperimentConfig, parse_config
from metriclab.errors import ConfigError, ShapeError
from metriclab.experiments import (
    AblationReport,
    AblationRow,
    BN_ABLATION_VARIANTS,
    SurfaceGrid,
    TARGET_ABLATION_MODES,
    center_surface_errors,
    run_bn_ablation,
    run_boundary_experiment,
    run_loss_surface,
    run_target_ablation,
    split_retrieval_task,
)
from metriclab.losses import cpl_loss, cpl_targets
from metriclab.nn import CenterPredictor
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


def test_surface_csv_shape():
    grid = SurfaceGrid(
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.array([0, 1]),
        np.array([0.5, 1.5]),
        np.array([False, True]),
    )
    lines = grid.to_csv().splitlines()
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
        run_loss_surface(ds, "center", ExperimentConfig(kind="surface"))


def test_surface_rejects_unknown_kind():
    ds = two_class_fixture(seed=0, n_per_class=10)
    with pytest.raises(ConfigError):
        run_loss_surface(ds, "triplet", ExperimentConfig(kind="surface"))


def test_center_penalizes_elliptic_class_harder():
    for seed in range(3):
        ds = two_class_fixture(seed=subseed(seed, "dataset"))
        grid = run_loss_surface(ds, "center", ExperimentConfig(kind="surface", seed=seed))
        assert grid.class_mean_error(1) > grid.class_mean_error(0)


def test_cpl_ratio_below_center_ratio():
    for seed in range(3):
        ds = two_class_fixture(seed=subseed(seed, "dataset"))
        cfg = ExperimentConfig(kind="surface", seed=seed)
        center = run_loss_surface(ds, "center", cfg)
        cpl = run_loss_surface(ds, "cpl", cfg)
        r_center = center.class_mean_error(1) / center.class_mean_error(0)
        r_cpl = cpl.class_mean_error(1) / cpl.class_mean_error(0)
        assert r_cpl < r_center


def test_cpl_beats_center_on_bimodal_class():
    for seed in range(3):
        ds = bimodal_class_fixture(seed=subseed(seed, "dataset"))
        cfg = ExperimentConfig(kind="surface", seed=seed)
        center = run_loss_surface(ds, "center", cfg)
        cpl = run_loss_surface(ds, "cpl", cfg)
        assert cpl.class_mean_error(0) < center.class_mean_error(0)


def test_surface_errors_nonnegative_and_deterministic():
    ds = two_class_fixture(seed=1, n_per_class=40)
    cfg = ExperimentConfig(kind="surface", seed=3, refit_steps=50)
    a = run_loss_surface(ds, "cpl", cfg)
    b = run_loss_surface(ds, "cpl", cfg)
    assert np.all(a.errors >= 0)
    assert a.to_csv() == b.to_csv()


# -- boundary -------------------------------------------------------------------


def test_boundary_rejects_wrong_class_count():
    ds = retrieval_fixture(seed=0, n_ids=8, per_id=4, dim=2)
    with pytest.raises(ConfigError):
        run_boundary_experiment(ds, BOUNDARY_CFG)


def test_boundary_grid_contract():
    ds = three_class_fixture(seed=subseed(0, "dataset"), n_per_class=60)
    grid, accuracy = run_boundary_experiment(ds, BOUNDARY_CFG)
    assert grid.n == ds.n
    assert 0.0 <= accuracy <= 1.0
    norms = np.linalg.norm(grid.points, axis=0)
    assert norms == pytest.approx(np.ones(ds.n), abs=1e-9)
    # lowest decile: a tenth of the samples, at least one each side
    assert 0 < grid.boundary.sum() <= int(np.ceil(ds.n * 0.15))
    assert grid.boundary.sum() < ds.n
    rows = grid.to_csv().splitlines()
    assert len(rows) == 1 + ds.n


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
    assert train.identities == list(range(16))  # remapped dense
    assert set(queries.labels) == set(gallery.labels) == set(range(16, 32))
    assert queries.n == 16 * 4 and gallery.n == 16 * 8
    assert train.n + queries.n + gallery.n == ds.n


def test_split_needs_enough_identities():
    ds = retrieval_fixture(seed=0, n_ids=3, per_id=4, dim=4)
    with pytest.raises(ConfigError):
        split_retrieval_task(ds)


def test_target_ablation_four_rows_finite():
    cfg = parse_config(ABLATION_CFG)
    report = run_target_ablation(cfg.dataset.load(cfg.seed), cfg)
    assert [row.variant for row in report.rows] == list(TARGET_ABLATION_MODES)
    for row in report.rows:
        assert np.isfinite(row.mean_ap) and 0 <= row.mean_ap <= 1
        assert np.isfinite(row.rank1) and 0 <= row.rank1 <= 1
        assert len(row.config_hash) == 12
        assert f"loss.cpl.target = {row.variant}" in report.configs[row.variant]
    # differing targets resolve to differing config hashes
    assert len({row.config_hash for row in report.rows}) == 4


def test_bn_ablation_six_rows_finite():
    cfg = parse_config(ABLATION_CFG.replace("ablation-target", "ablation-bn"))
    report = run_bn_ablation(cfg.dataset.load(cfg.seed), cfg)
    assert [row.variant for row in report.rows] == [v[0] for v in BN_ABLATION_VARIANTS]
    assert len(report.rows) == 6
    for row in report.rows:
        assert np.isfinite(row.mean_ap) and np.isfinite(row.rank1)
    assert "model.predictor = none" in report.configs["no-pred"]
    assert "model.predictor_depth = 4" in report.configs["pred4+tbn+hbn"]


def test_ablation_csv_and_determinism():
    cfg = replace(parse_config(ABLATION_CFG), seed=1)
    a = run_target_ablation(cfg.dataset.load(cfg.seed), cfg)
    b = run_target_ablation(cfg.dataset.load(cfg.seed), cfg)
    assert a.to_csv() == b.to_csv()
    lines = a.to_csv().splitlines()
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
