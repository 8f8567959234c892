import numpy as np
import pytest

from metriclab.autograd import as_tensor, backward
from metriclab.errors import ConfigError, NumericsError
from metriclab.losses import cpl_loss, cpl_targets
from metriclab.nn import CenterPredictor, ModelConfig
from metriclab.sampling import LabeledDataset, PKSamplerConfig, epoch_iter
from metriclab.seeding import substream
from metriclab.synthetic import four_class_fixture, bimodal_class_fixture
from metriclab.trainer import (
    LossConfig,
    SgdConfig,
    _loss_parts,
    build_state,
    cpl_errors,
    lr_at,
    refit_predictor,
    train_run,
    train_step,
)

from reference_impls import oracle_cpl


REFERENCE_SCHEDULE = SgdConfig(base_lr=3.5e-4, milestones=(40, 70), decay_factor=0.1, epochs=120)


def test_lr_schedule_reproduces_reference_values_bitwise():
    assert lr_at(REFERENCE_SCHEDULE, 0) == 3.5e-4
    assert lr_at(REFERENCE_SCHEDULE, 39) == 3.5e-4
    assert lr_at(REFERENCE_SCHEDULE, 40) == 3.5e-4 * 0.1
    assert lr_at(REFERENCE_SCHEDULE, 69) == 3.5e-4 * 0.1
    assert lr_at(REFERENCE_SCHEDULE, 70) == 3.5e-4 * 0.1 * 0.1
    assert lr_at(REFERENCE_SCHEDULE, 119) == 3.5e-4 * 0.1 * 0.1


def test_lr_constant_without_milestones():
    cfg = SgdConfig(base_lr=0.1, milestones=(), epochs=5)
    assert all(lr_at(cfg, e) == 0.1 for e in range(5))


def test_lr_epoch_out_of_range():
    with pytest.raises(ConfigError):
        lr_at(REFERENCE_SCHEDULE, 120)


def test_milestones_must_increase_and_fit():
    with pytest.raises(ConfigError):
        SgdConfig(milestones=(20, 10), epochs=30)
    with pytest.raises(ConfigError):
        SgdConfig(milestones=(10, 40), epochs=30)


def small_ds(seed=0):
    return four_class_fixture(seed=seed, n_per_class=8)


def test_zero_weight_step_leaves_params_bitwise(rng):
    ds = small_ds()
    loss_cfg = LossConfig(weights={"ce": 0.0, "cpl": 0.0})
    state = build_state(2, 4, ModelConfig(embedding_dim=4), loss_cfg, seed=1)
    before = {n: p.data.copy() for n, p in state.named_params().items()}
    batch = next(epoch_iter(ds, PKSamplerConfig(p=2, k=2), substream(0, "s")))
    train_step(state, batch, loss_cfg, lr=0.1)
    for n, p in state.named_params().items():
        assert np.array_equal(p.data, before[n]), n


def test_loss_config_rejects_unknown_loss_name():
    with pytest.raises(ConfigError, match="unknown loss names"):
        LossConfig(weights={"ce": 1.0, "arcface": 1.0})


def test_train_step_row_holds_parts_and_weighted_total():
    ds = small_ds()
    loss_cfg = LossConfig(weights={"cpl": 2.0, "ce": 0.5, "triplet": 0.0})
    state = build_state(2, 4, ModelConfig(embedding_dim=4), loss_cfg, seed=1)
    state.epoch = 3
    batch = next(epoch_iter(ds, PKSamplerConfig(p=2, k=2), substream(0, "s")))
    row = train_step(state, batch, loss_cfg, lr=0.1)
    assert (row.epoch, row.step, row.lr) == (3, 1, 0.1)
    assert list(row.parts) == ["ce", "cpl"]  # enabled order, zero weights left out
    assert row.total == row.parts["ce"] * 0.5 + row.parts["cpl"] * 2.0

    idle = LossConfig(weights={"ce": 0.0})
    row = train_step(state, batch, idle, lr=0.1)
    assert (row.step, row.parts, row.total) == (2, {}, 0.0)


def test_numerics_error_in_a_step_carries_epoch_step_and_lr():
    ds = small_ds()
    loss_cfg = LossConfig(weights={"ce": 1.0})
    state = build_state(2, 4, ModelConfig(embedding_dim=4), loss_cfg, seed=1)
    state.epoch, state.step = 3, 7
    state.extractor.layers[0].weight.data[0, 0] = np.inf
    batch = next(epoch_iter(ds, PKSamplerConfig(p=2, k=2), substream(0, "s")))
    with pytest.raises(NumericsError, match="^Linear.forward:") as info:
        train_step(state, batch, loss_cfg, lr=0.25)
    # step is numbered as the failed step's timeline row would have been
    assert info.value.context == {"epoch": 3, "step": 8, "lr": 0.25}
    assert state.step == 7


@pytest.mark.parametrize("seed", range(20))
def test_single_ce_step_decreases_loss(seed):
    ds = small_ds(seed)
    loss_cfg = LossConfig(weights={"ce": 1.0})
    model_cfg = ModelConfig(extractor_hidden=(8,), embedding_dim=4, predictor="none", bn_target=False)
    state = build_state(2, 4, model_cfg, loss_cfg, seed=seed)
    batch = next(epoch_iter(ds, PKSamplerConfig(p=4, k=4), substream(seed, "s")))
    before = train_step(state, batch, loss_cfg, lr=0.05).parts["ce"]
    after = train_step(state, batch, loss_cfg, lr=0.0).parts["ce"]
    assert after < before


def test_train_run_deterministic_same_seed():
    ds = small_ds()
    kwargs = dict(
        model_cfg=ModelConfig(extractor_hidden=(8,), embedding_dim=4),
        loss_cfg=LossConfig(weights={"ce": 1.0, "cpl": 1.0}),
        sgd_cfg=SgdConfig(base_lr=0.005, milestones=(), epochs=3),
        sampler_cfg=PKSamplerConfig(p=2, k=3),
        seed=17,
        eval_every=0,
    )
    _, t1, _ = train_run(ds, **kwargs)
    _, t2, _ = train_run(ds, **kwargs)
    assert [r.total for r in t1] == [r.total for r in t2]
    assert [r.parts for r in t1] == [r.parts for r in t2]


def test_train_run_different_seed_differs():
    ds = small_ds()
    kwargs = dict(
        model_cfg=ModelConfig(extractor_hidden=(8,), embedding_dim=4),
        loss_cfg=LossConfig(weights={"ce": 1.0}),
        sgd_cfg=SgdConfig(base_lr=0.05, milestones=(), epochs=2),
        sampler_cfg=PKSamplerConfig(p=2, k=3),
        eval_every=0,
    )
    _, t1, _ = train_run(ds, seed=1, **kwargs)
    _, t2, _ = train_run(ds, seed=2, **kwargs)
    assert [r.total for r in t1] != [r.total for r in t2]


CPL_ONLY = LossConfig(weights={"cpl": 1.0})


def _cpl_part_with_target_bn(seed):
    """The trainer's cpl part on one batch of a bn_target model, with its embeddings."""
    ds = small_ds(seed)
    state = build_state(2, 4, ModelConfig(extractor_hidden=(8,), embedding_dim=3), CPL_ONLY, seed=seed)
    batch = next(epoch_iter(ds, PKSamplerConfig(p=2, k=4), substream(seed, "s")))
    embeddings = state.extractor(as_tensor(batch.features))
    return state, embeddings, batch.labels, _loss_parts(state, embeddings, batch.labels, CPL_ONLY)["cpl"]


def test_cpl_target_bn_builds_targets_in_bn_space():
    state, embeddings, labels, part = _cpl_part_with_target_bn(37)
    z = embeddings.data
    z = (z - z.mean(axis=1, keepdims=True)) / np.sqrt(z.var(axis=1, keepdims=True) + state.target_bn.eps)
    expect = cpl_loss(embeddings, labels, cpl_targets(z, labels), state.predictor)
    assert part.item() == pytest.approx(expect.item(), abs=1e-12)
    plain = cpl_loss(embeddings, labels, cpl_targets(embeddings, labels), state.predictor)
    assert part.item() != pytest.approx(plain.item(), abs=1e-6)


def test_cpl_target_bn_params_get_no_gradient():
    state, embeddings, _, part = _cpl_part_with_target_bn(41)
    grads = backward(part)
    assert state.target_bn.gamma not in grads and state.target_bn.beta not in grads
    assert embeddings in grads


def test_target_bn_params_stay_at_init_through_training():
    ds = small_ds(2)
    model_cfg = ModelConfig(
        extractor_hidden=(16,), embedding_dim=4, bn_predictor_hidden=True, bn_predictor_output=True
    )
    state, timeline, _ = train_run(
        ds,
        model_cfg=model_cfg,
        loss_cfg=LossConfig(),
        sgd_cfg=SgdConfig(base_lr=0.01, milestones=(10, 20), epochs=30),
        sampler_cfg=PKSamplerConfig(p=2, k=8),
        seed=0,
        eval_every=0,
    )
    assert len(timeline) == 60
    assert np.array_equal(state.target_bn.gamma.data, np.ones((4, 1)))
    assert np.array_equal(state.target_bn.beta.data, np.zeros((4, 1)))
    assert not np.array_equal(state.predictor.output_bn.gamma.data, np.ones((4, 1)))


def test_divergence_raises_with_diagnostics():
    ds = small_ds()
    loss_cfg = LossConfig(weights={"ce": 1.0})
    state = build_state(2, 4, ModelConfig(extractor_hidden=(8,), embedding_dim=4), loss_cfg, seed=0)
    batch = next(epoch_iter(ds, PKSamplerConfig(p=4, k=4), substream(0, "s")))
    with pytest.raises(NumericsError):
        for _ in range(200):
            train_step(state, batch, loss_cfg, lr=1e9)


def test_train_run_writes_timeline_and_checkpoints(tmp_path):
    ds = small_ds()
    train_run(
        ds,
        model_cfg=ModelConfig(extractor_hidden=(8,), embedding_dim=4),
        loss_cfg=LossConfig(weights={"ce": 1.0, "cpl": 1.0}),
        sgd_cfg=SgdConfig(base_lr=0.005, milestones=(), epochs=4),
        sampler_cfg=PKSamplerConfig(p=2, k=3),
        seed=0,
        eval_every=2,
        out_dir=tmp_path,
    )
    lines = (tmp_path / "timeline.csv").read_text().splitlines()
    assert lines[0] == "epoch,step,lr,ce,cpl,total"
    assert len(lines) == 1 + 4 * 2  # 4 identities / p=2 -> 2 batches per epoch
    assert (tmp_path / "checkpoint_epoch0001.txt").exists()
    assert (tmp_path / "checkpoint_epoch0003.txt").exists()


def test_params_finite_after_training():
    ds = small_ds()
    state, _, _ = train_run(
        ds,
        model_cfg=ModelConfig(extractor_hidden=(8,), embedding_dim=4),
        loss_cfg=LossConfig(weights={"ce": 1.0, "cpl": 1.0, "triplet": 1.0}),
        sgd_cfg=SgdConfig(base_lr=0.005, milestones=(5,), epochs=8),
        sampler_cfg=PKSamplerConfig(p=2, k=4),
        seed=4,
        eval_every=0,
    )
    for n, p in state.named_params().items():
        assert np.all(np.isfinite(p.data)), n


def test_ce_reaches_train_accuracy_on_separable_classes():
    ds = four_class_fixture(seed=0, n_per_class=32)
    # independent separability oracle: nearest class mean is error-free
    means = {c: ds.features[:, ds.labels == c].mean(axis=1) for c in ds.identities}
    nearest = [
        min(means, key=lambda c: np.linalg.norm(ds.features[:, j] - means[c]))
        for j in range(ds.n)
    ]
    assert (np.array(nearest) == ds.labels).mean() >= 0.95
    state, _, snapshots = train_run(
        ds,
        model_cfg=ModelConfig(extractor_hidden=(16,), embedding_dim=4, predictor="none", bn_target=False),
        loss_cfg=LossConfig(weights={"ce": 1.0}),
        sgd_cfg=SgdConfig(base_lr=0.1, milestones=(10, 20), epochs=30),
        sampler_cfg=PKSamplerConfig(p=2, k=8),
        seed=0,
        eval_every=5,
    )
    assert snapshots[-1][1] >= 0.95


# -- refit_predictor -----------------------------------------------------------


def test_refit_never_exceeds_identity_init(rng):
    for seed in (0, 1, 2):
        ds = bimodal_class_fixture(seed=seed, n_per_component=60)
        pred = CenterPredictor(dim=2, hidden=16, rng=substream(seed, "p"), depth=2)
        pred.init_identity()
        targets = cpl_targets(ds.features, ds.labels)
        init_value = cpl_loss(ds.features, ds.labels, targets, pred).item()
        best, history = refit_predictor(ds.features, ds.labels, targets, pred, steps=500, lr=0.005)
        assert best <= init_value + 1e-9
        assert history[0] == pytest.approx(init_value, rel=1e-12)
        # predictor holds the best params: recomputing reproduces best
        assert cpl_loss(ds.features, ds.labels, targets, pred).item() == pytest.approx(best, rel=1e-12)


def test_refit_beats_dispersion_bound():
    # identity-init CPL equals the leave-one-out dispersion, computed here
    # by the independent oracle; refit must end at or below it
    ds = bimodal_class_fixture(seed=7, n_per_component=60)
    dispersion = oracle_cpl(ds.features, ds.labels, mode="leave-one-out-mean")
    pred = CenterPredictor(dim=2, hidden=16, rng=substream(7, "p"), depth=2)
    pred.init_identity()
    targets = cpl_targets(ds.features, ds.labels)
    best, _ = refit_predictor(ds.features, ds.labels, targets, pred, steps=500, lr=0.005)
    assert best <= dispersion + 1e-9


def test_cpl_errors_identity_matches_oracle():
    ds = four_class_fixture(seed=2, n_per_class=6)
    errs = cpl_errors(ds.features, cpl_targets(ds.features, ds.labels))
    total = sum(
        errs[ds.labels == c].mean() for c in ds.identities
    )
    assert total == pytest.approx(oracle_cpl(ds.features, ds.labels), abs=1e-10)


def test_distance_matrix_built_once_per_step(monkeypatch):
    import metriclab.losses as losses

    calls = []
    pairwise = losses.pairwise_euclidean

    def counted(x):
        calls.append(x.shape)
        return pairwise(x)

    monkeypatch.setattr(losses, "pairwise_euclidean", counted)
    ds = small_ds()
    loss_cfg = LossConfig(weights={"ce": 1.0, "triplet": 1.0, "lifted": 1.0, "rll": 1.0})
    model_cfg = ModelConfig(extractor_hidden=(8,), embedding_dim=4, predictor="none", bn_target=False)
    state = build_state(2, 4, model_cfg, loss_cfg, seed=0)
    batch = next(epoch_iter(ds, PKSamplerConfig(p=2, k=3), substream(0, "s")))
    parts = train_step(state, batch, loss_cfg, lr=0.01).parts
    assert len(calls) == 1
    assert set(parts) == {"ce", "triplet", "lifted", "rll"}
