from dataclasses import replace

import numpy as np
import pytest

from metriclab import trainer
from metriclab.autograd import Tensor, as_tensor, backward, check_finite
from metriclab.config import ExperimentConfig, LossConfig, ModelConfig, PKSamplerConfig, SgdConfig
from metriclab.errors import ConfigError, NumericsError
from metriclab.losses import (
    _ce_forward,
    _center_forward,
    _cpl_forward,
    center_loss,
    cpl_loss,
    cpl_targets,
    cpl_weights,
    id_cross_entropy,
)
from metriclab.gradcheck import _off_kink_input
from metriclab.nn import BatchNorm, CenterPredictor, Linear, standardize
from metriclab.sampling import LabeledDataset, epoch_iter
from metriclab.seeding import substream
from metriclab.synthetic import four_class_fixture, bimodal_class_fixture
from metriclab.trainer import (
    SGD,
    TrainState,
    _loss_parts,
    _weighted_sum,
    _weighted_total,
    build_state,
    cpl_errors,
    lr_at,
    refit_predictor,
    train_run,
    train_step,
)

from fd_utils import central_diff, max_rel_err
from primitives import add, mul, tsum
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
    cfg = ExperimentConfig("train", seed=1, model=ModelConfig(embedding_dim=4), loss=loss_cfg)
    state = build_state(cfg, 2, 4)
    before = {n: p.data.copy() for n, p in state.named_params().items()}
    batch = next(epoch_iter(ds, PKSamplerConfig(p=2, k=2), substream(0, "s")))
    train_step(state, batch, lr=0.1)
    for n, p in state.named_params().items():
        assert np.array_equal(p.data, before[n]), n


def test_loss_config_rejects_unknown_loss_name():
    with pytest.raises(ConfigError, match="unknown loss names"):
        LossConfig(weights={"ce": 1.0, "arcface": 1.0})


def test_train_step_row_holds_parts_and_weighted_total():
    ds = small_ds()
    loss_cfg = LossConfig(weights={"cpl": 2.0, "ce": 0.5, "triplet": 0.0})
    cfg = ExperimentConfig("train", seed=1, model=ModelConfig(embedding_dim=4), loss=loss_cfg)
    state = build_state(cfg, 2, 4)
    state.epoch = 3
    batch = next(epoch_iter(ds, PKSamplerConfig(p=2, k=2), substream(0, "s")))
    row = train_step(state, batch, lr=0.1)
    assert (row.epoch, row.step, row.lr) == (3, 1, 0.1)
    assert list(row.parts) == ["ce", "cpl"]  # enabled order, zero weights left out
    assert row.total == row.parts["ce"] * 0.5 + row.parts["cpl"] * 2.0

    idle = replace(state.cfg, loss=LossConfig(weights={"ce": 0.0}))
    row = train_step(replace(state, cfg=idle), batch, lr=0.1)
    assert (row.step, row.parts, row.total) == (2, {}, 0.0)


def test_weighted_total_is_bit_identical_to_the_composed_sum():
    # parts sharing one input, so their gradient terms accumulate into it
    data = np.random.default_rng(3).normal(0, 1, (3, 5))
    weights = {"ce": 0.7, "cpl": 1.3, "triplet": 1e-3, "rll": 3.0}

    def value_and_grad(weighted):
        x = Tensor(data.copy(), requires_grad=True)
        parts = {name: mul(tsum(mul(x, float(i + 1))), 1.0 / 7.0) for i, name in enumerate(weights)}
        total = weighted(parts)
        return total.data, backward(total)[x]

    def composed(parts):
        total = None
        for name, part in parts.items():
            term = mul(part, float(weights[name]))
            total = term if total is None else add(total, term)
        return total

    (f_total, f_grad), (c_total, c_grad) = value_and_grad(lambda p: _weighted_total(p, weights)), value_and_grad(composed)
    assert np.array_equal(f_total, c_total)
    assert np.array_equal(f_grad, c_grad)


@pytest.mark.parametrize("sizes", [(4, 4, 4, 4), (3, 4, 5)], ids=["pk-4x4", "unequal-3-4-5"])
def test_weighted_sum_over_a_stack_is_each_slices_weighted_total(sizes):
    # the parts' stacked forwards, weighed: each slice is the 2-D ops' total
    labels = np.repeat(np.arange(len(sizes)), sizes)
    xs = np.random.default_rng(2).normal(0, 1.5, (3, 4, labels.size))
    centers = np.linspace(-1.0, 1.0, 4 * len(sizes)).reshape(4, -1)
    targets = np.cos(np.arange(4.0 * labels.size)).reshape(4, -1)
    weights = {"ce": 0.7, "cpl": 1.3, "center": 2.1}
    stacked = (
        _ce_forward(xs, labels)[0],
        _cpl_forward(xs, targets, cpl_weights(labels))[0],
        _center_forward(xs, centers, labels)[0],
    )
    totals = _weighted_sum(stacked, weights.values())
    for x, total in zip(xs, totals, strict=True):
        parts = (id_cross_entropy(x, labels), cpl_loss(x, labels, targets), center_loss(x, labels, centers))
        assert np.array_equal(total, _weighted_total(dict(zip(weights, parts)), weights).data)
    # one slice whose parts are finite but whose weighted sum overflows
    for values in stacked:
        values[1] = 1.7e308
    message = "^_weighted_total: operation produced non-finite entries$"
    with pytest.raises(NumericsError, match=message):
        _weighted_total({name: Tensor(values[1]) for name, values in zip(weights, stacked)}, weights)
    with pytest.raises(NumericsError, match=message):
        check_finite(_weighted_sum(stacked, weights.values()), "_weighted_total")


def test_step_total_without_target_bn_keeps_targets_frozen(monkeypatch):
    # a whole step's total with bn_target off: the gradient is the finite
    # difference of the total with the CPL targets pinned where they were
    rng = substream(0, "step-total")
    labels = np.repeat(np.arange(2), 2)  # PK 2 x 2
    loss_cfg = LossConfig(weights={"ce": 0.8, "cpl": 1.5, "center": 0.6, "triplet": 1.2}, triplet_margin=20.0)
    cfg = ExperimentConfig("train", model=ModelConfig(bn_target=False), loss=loss_cfg)
    centers = Tensor(rng.uniform(-1, 1, size=(2, 2)))
    state = TrainState(None, Linear(2, 2, rng), CenterPredictor(2, 4, rng), centers, optimizer=None, cfg=cfg)
    x = _off_kink_input(rng, 2, 4, state.predictor)

    def total():
        return _weighted_total(dict(_loss_parts(state, x, labels)), loss_cfg.weights)

    analytic = backward(total())[x]
    # targets that follow the perturbation give a different derivative
    assert max_rel_err(analytic, central_diff(total, x)) > 1e-2
    pinned = cpl_targets(x.data, labels, loss_cfg.cpl_target)
    monkeypatch.setattr(trainer, "cpl_targets", lambda *args: pinned)
    assert max_rel_err(analytic, central_diff(total, x)) < 1e-4


def test_whole_train_step_matches_central_differences_with_targets_pinned(monkeypatch):
    # one train_step, extractor included: with momentum 0 an lr = 1 update is
    # exactly -g, and the oracle is the finite difference of the step's total
    # with the CPL targets pinned where the unperturbed step builds them
    rng = substream(0, "whole-step")
    cfg = ExperimentConfig(
        "train",
        model=ModelConfig(extractor_hidden=(3,), embedding_dim=2, predictor_hidden=4),
        loss=LossConfig(weights={"ce": 0.8, "cpl": 1.5, "center": 0.6, "triplet": 1.2}, triplet_margin=20.0),
        sgd=SgdConfig(momentum=0.0),
    )
    state = build_state(cfg, 2, 2)
    state.centers.data[:] = rng.uniform(-1, 1, size=(2, 2))
    batch = (_off_kink_input(rng, 2, 4, state.extractor).data, np.repeat(np.arange(2), 2))  # PK 2 x 2
    params = state.named_params()
    assert sum(p.data.size for p in params.values()) == 49
    before = {name: p.data.copy() for name, p in params.items()}
    train_step(state, batch, lr=1.0)
    analytic = {name: before[name] - p.data for name, p in params.items()}
    for name, p in params.items():
        p.data[:] = before[name]

    def max_err():
        total = lambda: np.float64(train_step(state, batch, lr=0.0).total)
        return max(max_rel_err(analytic[name], central_diff(total, p)) for name, p in params.items())

    # targets that follow the perturbation give a different derivative
    assert max_err() > 1e-2
    embeddings = state.extractor(as_tensor(batch[0])).data
    pinned = cpl_targets(standardize(embeddings)[2], batch[1])
    monkeypatch.setattr(trainer, "cpl_targets", lambda *args: pinned)
    assert max_err() < 1e-4


@pytest.mark.parametrize("weights", [{"ce": 1.0, "center": 0.5}, {"ce": 1.0, "center": 0.0}, {"ce": 1.0}])
def test_build_state_has_centers_exactly_when_the_center_loss_is_weighed(weights):
    state = build_state(ExperimentConfig("train", loss=LossConfig(weights=weights)), 2, 4)
    if weights.get("center", 0.0) > 0.0:
        assert state.centers.requires_grad
        assert np.array_equal(state.centers.data, np.zeros((ModelConfig().embedding_dim, 4)))
        assert state.centers is state.named_params()["centers"]
    else:
        assert state.centers is None and "centers" not in state.named_params()


def test_numerics_error_in_a_step_carries_epoch_step_and_lr():
    ds = small_ds()
    loss_cfg = LossConfig(weights={"ce": 1.0})
    cfg = ExperimentConfig("train", seed=1, model=ModelConfig(embedding_dim=4), loss=loss_cfg)
    state = build_state(cfg, 2, 4)
    state.epoch, state.step = 3, 7
    state.extractor.layers[0].weight.data[0, 0] = np.inf
    batch = next(epoch_iter(ds, PKSamplerConfig(p=2, k=2), substream(0, "s")))
    with pytest.raises(NumericsError, match="^Linear.forward:") as info:
        train_step(state, batch, lr=0.25)
    # step is numbered as the failed step's timeline row would have been; the
    # extractor failed before any loss part was built
    assert info.value.context == {"epoch": 3, "step": 8, "lr": 0.25, "parts": {}}
    assert state.step == 7


def test_numerics_error_in_backward_carries_every_part():
    ds = small_ds()
    cfg = ExperimentConfig(
        "train",
        seed=1,
        model=ModelConfig(embedding_dim=4, predictor="none", bn_target=False),
        loss=LossConfig(weights={"ce": 1.0, "triplet": 1e307}),
    )
    state = build_state(cfg, 2, 4)
    # nearly coincident embeddings: the forward stays finite, but the distance
    # matrix's sqrt derivative times the huge triplet weight overflows in backward
    state.extractor.layers[-1].weight.data *= 1e-3
    batch = next(epoch_iter(ds, PKSamplerConfig(p=2, k=2), substream(0, "s")))
    with pytest.raises(NumericsError, match="^pairwise_euclidean: backward") as info:
        train_step(state, batch, lr=0.25)
    parts = info.value.context["parts"]
    assert list(parts) == ["ce", "triplet"]
    assert all(np.isfinite(value) for value in parts.values())
    assert parts["triplet"] > 0.0
    assert state.step == 0


@pytest.mark.parametrize("seed", range(20))
def test_single_ce_step_decreases_loss(seed):
    ds = small_ds(seed)
    model_cfg = ModelConfig(extractor_hidden=(8,), embedding_dim=4, predictor="none", bn_target=False)
    loss_cfg = LossConfig(weights={"ce": 1.0})
    state = build_state(ExperimentConfig("train", seed=seed, model=model_cfg, loss=loss_cfg), 2, 4)
    batch = next(epoch_iter(ds, PKSamplerConfig(p=4, k=4), substream(seed, "s")))
    before = train_step(state, batch, lr=0.05).parts["ce"]
    after = train_step(state, batch, lr=0.0).parts["ce"]
    assert after < before


def test_train_run_deterministic_same_seed():
    ds = small_ds()
    cfg = ExperimentConfig(
        kind="train",
        seed=17,
        model=ModelConfig(extractor_hidden=(8,), embedding_dim=4),
        loss=LossConfig(weights={"ce": 1.0, "cpl": 1.0}),
        sgd=SgdConfig(base_lr=0.005, milestones=(), epochs=3),
        sampler=PKSamplerConfig(p=2, k=3),
        eval_every=0,
    )
    _, t1, _ = train_run(ds, cfg)
    _, t2, _ = train_run(ds, cfg)
    assert [r.total for r in t1] == [r.total for r in t2]
    assert [r.parts for r in t1] == [r.parts for r in t2]


def test_train_run_different_seed_differs():
    ds = small_ds()
    cfg = ExperimentConfig(
        kind="train",
        seed=1,
        model=ModelConfig(extractor_hidden=(8,), embedding_dim=4),
        loss=LossConfig(weights={"ce": 1.0}),
        sgd=SgdConfig(base_lr=0.05, milestones=(), epochs=2),
        sampler=PKSamplerConfig(p=2, k=3),
        eval_every=0,
    )
    _, t1, _ = train_run(ds, cfg)
    _, t2, _ = train_run(ds, replace(cfg, seed=2))
    assert [r.total for r in t1] != [r.total for r in t2]


CPL_ONLY = LossConfig(weights={"cpl": 1.0})


def _cpl_part_with_target_bn(seed):
    """The trainer's cpl part on one batch of a bn_target model, with its embeddings."""
    ds = small_ds(seed)
    model_cfg = ModelConfig(extractor_hidden=(8,), embedding_dim=3)
    state = build_state(ExperimentConfig("train", seed=seed, model=model_cfg, loss=CPL_ONLY), 2, 4)
    features, labels = next(epoch_iter(ds, PKSamplerConfig(p=2, k=4), substream(seed, "s")))
    embeddings = state.extractor(as_tensor(features))
    return state, embeddings, labels, dict(_loss_parts(state, embeddings, labels))["cpl"]


def test_cpl_target_bn_builds_targets_in_bn_space():
    state, embeddings, labels, part = _cpl_part_with_target_bn(37)
    z = embeddings.data
    z = (z - z.mean(axis=1, keepdims=True)) / np.sqrt(z.var(axis=1, keepdims=True) + BatchNorm.eps)
    expect = cpl_loss(embeddings, labels, cpl_targets(z, labels), state.predictor)
    assert part.item() == pytest.approx(expect.item(), abs=1e-12)
    plain = cpl_loss(embeddings, labels, cpl_targets(embeddings, labels), state.predictor)
    assert part.item() != pytest.approx(plain.item(), abs=1e-6)


def test_bn_target_learns_nothing_and_checkpoints_nothing(tmp_path):
    ds = small_ds(2)
    model_cfg = ModelConfig(
        extractor_hidden=(16,), embedding_dim=4, bn_predictor_hidden=True, bn_predictor_output=True
    )
    cfg = ExperimentConfig(
        kind="train",
        model=model_cfg,
        sgd=SgdConfig(base_lr=0.01, milestones=(10, 20), epochs=30),
        sampler=PKSamplerConfig(p=2, k=8),
        eval_every=30,
    )
    state, timeline, _ = train_run(ds, cfg, out_dir=tmp_path)
    assert len(timeline) == 60 and state.cfg.model.bn_target
    named = state.named_params()
    assert not [name for name in named if name.startswith("target_bn.")]
    # the optimizer carries exactly the named parameters, and the checkpoint holds them
    assert len(state.optimizer.params) == len(named)
    assert all(p is q for p, q in zip(state.optimizer.params, named.values()))
    entries = (tmp_path / "checkpoint_epoch0029.txt").read_text().splitlines()[1::2]
    assert [line.rsplit(" ", 2)[0] for line in entries] == list(named)
    # the predictor's own BatchNorm still learns its scale
    assert not np.array_equal(state.predictor.output_bn.gamma.data, np.ones((4, 1)))
    # the standardized targets are values; the cpl gradient still reaches the embeddings
    _, embeddings, _, part = _cpl_part_with_target_bn(41)
    assert embeddings in backward(part)


def test_divergence_raises_with_diagnostics():
    ds = small_ds()
    loss_cfg = LossConfig(weights={"ce": 1.0})
    model_cfg = ModelConfig(extractor_hidden=(8,), embedding_dim=4)
    state = build_state(ExperimentConfig("train", model=model_cfg, loss=loss_cfg), 2, 4)
    batch = next(epoch_iter(ds, PKSamplerConfig(p=4, k=4), substream(0, "s")))
    with pytest.raises(NumericsError):
        for _ in range(200):
            train_step(state, batch, lr=1e9)


def test_train_run_writes_timeline_and_checkpoints(tmp_path):
    ds = small_ds()
    cfg = ExperimentConfig(
        kind="train",
        model=ModelConfig(extractor_hidden=(8,), embedding_dim=4),
        loss=LossConfig(weights={"ce": 1.0, "cpl": 1.0}),
        sgd=SgdConfig(base_lr=0.005, milestones=(), epochs=4),
        sampler=PKSamplerConfig(p=2, k=3),
        eval_every=2,
    )
    train_run(ds, cfg, out_dir=tmp_path)
    lines = (tmp_path / "timeline.csv").read_text().splitlines()
    assert lines[0] == "epoch,step,lr,ce,cpl,total"
    assert len(lines) == 1 + 4 * 2  # 4 identities / p=2 -> 2 batches per epoch
    assert (tmp_path / "checkpoint_epoch0001.txt").exists()
    assert (tmp_path / "checkpoint_epoch0003.txt").exists()


def test_params_finite_after_training():
    ds = small_ds()
    cfg = ExperimentConfig(
        kind="train",
        seed=4,
        model=ModelConfig(extractor_hidden=(8,), embedding_dim=4),
        loss=LossConfig(weights={"ce": 1.0, "cpl": 1.0, "triplet": 1.0}),
        sgd=SgdConfig(base_lr=0.005, milestones=(5,), epochs=8),
        sampler=PKSamplerConfig(p=2, k=4),
        eval_every=0,
    )
    state, _, _ = train_run(ds, cfg)
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
    cfg = ExperimentConfig(
        kind="train",
        model=ModelConfig(extractor_hidden=(16,), embedding_dim=4, predictor="none", bn_target=False),
        loss=LossConfig(weights={"ce": 1.0}),
        sgd=SgdConfig(base_lr=0.1, milestones=(10, 20), epochs=30),
        sampler=PKSamplerConfig(p=2, k=8),
        eval_every=5,
    )
    state, _, snapshots = train_run(ds, cfg)
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


def _refit_reference(features, labels, targets, predictor, steps, lr):
    """refit_predictor as a loop that calls cpl_loss at every step."""
    x = as_tensor(features)
    params = [p for _, p in predictor.params()]
    opt = SGD(params)
    best_value, best_params, history = np.inf, None, []
    for step in range(steps + 1):
        loss = cpl_loss(x, labels, targets, predictor)
        history.append(loss.item())
        if history[-1] < best_value:
            best_value, best_params = history[-1], [p.data.copy() for p in params]
        if step < steps:
            opt.step(backward(loss), lr)
    for p, best in zip(params, best_params):
        p.data[:] = best
    return best_value, history


def _bimodal_points():
    ds = bimodal_class_fixture(seed=1, n_per_component=30)
    return ds.features, ds.labels


def _ragged_points():
    # unequal class sizes, negative and non-contiguous ids, classes interleaved
    labels = np.array([40, -5, 3, -5, 40, 3, 40, 3, -5, 40, 40, 3, 40])
    return substream(3, "ragged").normal(0, 1, (2, labels.size)), labels


@pytest.mark.parametrize("points", [_bimodal_points, _ragged_points], ids=["bimodal", "ragged"])
def test_refit_matches_a_loop_of_cpl_loss_calls(points):
    features, labels = points()
    targets = cpl_targets(features, labels)
    fitted, reference = (CenterPredictor(dim=2, hidden=8, rng=substream(5, "p"), depth=2) for _ in range(2))
    best, history = refit_predictor(features, labels, targets, fitted, steps=60, lr=0.01)
    ref_best, ref_history = _refit_reference(features, labels, targets, reference, steps=60, lr=0.01)
    assert history == ref_history and best == ref_best
    for (name, p), (_, q) in zip(fitted.params(), reference.params()):
        assert np.array_equal(p.data, q.data), name


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
    state = build_state(ExperimentConfig("train", model=model_cfg, loss=loss_cfg), 2, 4)
    batch = next(epoch_iter(ds, PKSamplerConfig(p=2, k=3), substream(0, "s")))
    parts = train_step(state, batch, lr=0.01).parts
    assert len(calls) == 1
    assert set(parts) == {"ce", "triplet", "lifted", "rll"}
