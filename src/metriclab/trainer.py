"""SGD training loop with a milestone lr schedule, plus predictor-only
refitting against frozen center-prediction targets.

One shared schedule drives every parameter group (extractor, classifier,
predictor, centers). Center-prediction targets are built once per batch
(after the target BatchNorm, when the model has one) and passed to
`cpl_loss` as a constant; a refit takes its targets from the caller.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import losses
from .autograd import Tensor, as_tensor, backward
from .errors import ConfigError, NumericsError
from .losses import (
    MarginConfig,
    center_loss,
    circle_loss,
    cpl_loss,
    cpl_targets,
    id_cross_entropy,
    lifted_structure_loss,
    ranked_list_loss,
    triplet_loss_batch_hard,
)
from .nn import MLP, BatchNorm, CenterPredictor, Linear, ModelConfig, save_checkpoint
from .sampling import LabeledBatch, LabeledDataset, PKSamplerConfig, epoch_iter
from .seeding import subseed, substream

__all__ = [
    "SgdConfig",
    "LossConfig",
    "lr_at",
    "SGD",
    "TrainState",
    "build_state",
    "train_step",
    "train_run",
    "refit_predictor",
    "cpl_errors",
    "write_timeline_csv",
]

LOSS_NAMES = ("ce", "cpl", "center", "triplet", "circle", "lifted", "rll")


@dataclass
class SgdConfig:
    """Milestone step schedule: lr = base_lr * decay^(milestones passed)."""

    base_lr: float = 3.5e-4
    milestones: tuple = (10, 20)
    decay_factor: float = 0.1
    epochs: int = 30
    momentum: float = 0.9

    def __post_init__(self):
        self.milestones = tuple(int(m) for m in self.milestones)
        if self.base_lr <= 0:
            raise ConfigError("sgd.base_lr must be positive")
        if self.epochs < 1:
            raise ConfigError("sgd.epochs must be >= 1")
        if not 0 <= self.momentum < 1:
            raise ConfigError("sgd.momentum must be in [0, 1)")
        if not 0 < self.decay_factor <= 1:
            raise ConfigError("sgd.decay_factor must be in (0, 1]")
        if any(b <= a for a, b in zip(self.milestones, self.milestones[1:])):
            raise ConfigError("sgd.milestones must be strictly increasing")
        if any(m < 1 or m >= self.epochs for m in self.milestones):
            raise ConfigError("sgd.milestones must lie in [1, epochs)")


@dataclass
class LossConfig:
    """Which losses train, their weights, margins, and target policy."""

    weights: dict = field(default_factory=lambda: {"ce": 1.0, "cpl": 1.0})
    margins: MarginConfig = field(default_factory=MarginConfig)
    cpl_target: str = "leave-one-out-mean"

    def __post_init__(self):
        unknown = set(self.weights) - set(LOSS_NAMES)
        if unknown:
            raise ConfigError(f"unknown loss names {sorted(unknown)}; expected {LOSS_NAMES}")
        for name, w in self.weights.items():
            if w < 0:
                raise ConfigError(f"loss.{name}.weight must be >= 0")

    def enabled(self):
        return [name for name in LOSS_NAMES if self.weights.get(name, 0.0) > 0.0]


def lr_at(cfg: SgdConfig, epoch: int) -> float:
    if not 0 <= epoch < cfg.epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {cfg.epochs})")
    # one multiply per crossed milestone, the exact f64 sequence a stepped
    # scheduler produces, so values are reproducible bitwise
    lr = cfg.base_lr
    for _ in range(bisect_right(cfg.milestones, epoch)):
        lr *= cfg.decay_factor
    return lr


class SGD:
    """Momentum SGD: v = mu*v + g; p -= lr*v."""

    def __init__(self, params: list, momentum: float = 0.9):
        self.params = list(params)
        self.momentum = float(momentum)
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: dict, lr: float):
        for p, v in zip(self.params, self.velocity):
            g = grads.get(p)
            if g is None:
                continue
            v *= self.momentum
            v += g
            p.data -= lr * v


@dataclass
class TrainState:
    extractor: MLP
    classifier: Linear
    predictor: CenterPredictor | None
    target_bn: BatchNorm | None
    centers: Tensor | None
    optimizer: SGD
    seed: int
    epoch: int = 0
    step: int = 0

    def named_params(self) -> dict:
        out = {}
        out.update({f"extractor.{n}": p for n, p in self.extractor.params()})
        out.update({f"classifier.{n}": p for n, p in self.classifier.params()})
        if self.predictor is not None:
            out.update({f"predictor.{n}": p for n, p in self.predictor.params()})
        if self.target_bn is not None:
            out.update({f"target_bn.{n}": p for n, p in self.target_bn.params()})
        if self.centers is not None:
            out["centers"] = self.centers
        return out


def build_state(
    input_dim: int,
    n_classes: int,
    model_cfg: ModelConfig,
    loss_cfg: LossConfig,
    seed: int,
    momentum: float = 0.9,
) -> TrainState:
    rng = substream(seed, "init")
    extractor = MLP(input_dim, tuple(model_cfg.extractor_hidden), model_cfg.embedding_dim, rng)
    classifier = Linear(model_cfg.embedding_dim, n_classes, rng)
    predictor = None
    if model_cfg.predictor == "mlp":
        predictor = CenterPredictor(
            dim=model_cfg.embedding_dim,
            hidden=model_cfg.predictor_hidden,
            rng=rng,
            depth=model_cfg.predictor_depth,
            bn_hidden=model_cfg.bn_predictor_hidden,
            bn_output=model_cfg.bn_predictor_output,
        )
    target_bn = BatchNorm(model_cfg.embedding_dim) if model_cfg.bn_target else None
    centers = None
    if loss_cfg.weights.get("center", 0.0) > 0.0:
        centers = Tensor(np.zeros((model_cfg.embedding_dim, n_classes)), requires_grad=True)
    state = TrainState(
        extractor=extractor,
        classifier=classifier,
        predictor=predictor,
        target_bn=target_bn,
        centers=centers,
        optimizer=None,
        seed=seed,
    )
    state.optimizer = SGD(list(state.named_params().values()), momentum=momentum)
    return state


_DISTANCE_LOSSES = ("triplet", "lifted", "rll")


def _loss_parts(state: TrainState, embeddings, labels, loss_cfg: LossConfig) -> dict:
    m = loss_cfg.margins
    parts = {}
    enabled = loss_cfg.enabled()
    # one distance matrix (and one graph through it) for every distance loss
    dist = None
    if any(name in _DISTANCE_LOSSES for name in enabled):
        dist = losses.pairwise_euclidean(embeddings)
    for name in enabled:
        if name == "ce":
            parts["ce"] = id_cross_entropy(state.classifier(embeddings), labels)
        elif name == "cpl":
            # targets are values: the target BN's gamma and beta get no gradient
            values = embeddings if state.target_bn is None else state.target_bn(embeddings.data)
            seed = subseed(state.seed, f"cpl-draw/{state.step}")
            targets = cpl_targets(values, labels, loss_cfg.cpl_target, seed)
            parts["cpl"] = cpl_loss(embeddings, labels, targets, state.predictor)
        elif name == "center":
            if state.centers is None:
                raise ConfigError("center loss enabled but state has no centers")
            parts["center"] = center_loss(embeddings, labels, state.centers)
        elif name == "triplet":
            parts["triplet"] = triplet_loss_batch_hard(dist, labels, m.triplet_margin)
        elif name == "circle":
            parts["circle"] = circle_loss(embeddings, labels, m.circle_scale, m.circle_margin)
        elif name == "lifted":
            parts["lifted"] = lifted_structure_loss(dist, labels, m.lifted_margin)
        elif name == "rll":
            parts["rll"] = ranked_list_loss(dist, labels, m.rll_alpha, m.rll_margin)
    return parts


@dataclass
class TimelineRow:
    epoch: int
    step: int
    lr: float
    parts: dict  # loss name -> value, in LOSS_NAMES order
    total: float


def train_step(state: TrainState, batch: LabeledBatch, loss_cfg: LossConfig, lr: float) -> TimelineRow:
    """One SGD update on one batch against total = sum of weight * part
    over the enabled losses; returns the step's timeline row.

    With every enabled weight zero this is a no-op on the parameters. A
    NumericsError leaves with the epoch, the step (numbered as its timeline
    row would be) and the lr in its context.
    """
    try:
        embeddings = state.extractor(as_tensor(batch.features))
        parts = _loss_parts(state, embeddings, batch.labels, loss_cfg)
        total = None
        for name, part in parts.items():
            term = part * float(loss_cfg.weights[name])
            total = term if total is None else total + term
        if total is not None:  # None when every weight is zero: nothing to optimize
            state.optimizer.step(backward(total), lr)
    except NumericsError as exc:
        exc.context.update(epoch=state.epoch, step=state.step + 1, lr=lr)
        raise
    state.step += 1
    return TimelineRow(
        epoch=state.epoch,
        step=state.step,
        lr=lr,
        parts={name: part.item() for name, part in parts.items()},
        total=0.0 if total is None else total.item(),
    )


def write_timeline_csv(rows: list, path, part_names: list):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "step", "lr", *part_names, "total"])
        for row in rows:
            writer.writerow(
                [row.epoch, row.step, repr(row.lr)]
                + [repr(row.parts.get(n, 0.0)) for n in part_names]
                + [repr(row.total)]
            )


def train_accuracy(state: TrainState, ds: LabeledDataset) -> float:
    logits = state.classifier(state.extractor(as_tensor(ds.features))).data
    return float((logits.argmax(axis=0) == ds.labels).mean())


def train_run(
    ds: LabeledDataset,
    model_cfg: ModelConfig,
    loss_cfg: LossConfig,
    sgd_cfg: SgdConfig,
    sampler_cfg: PKSamplerConfig,
    seed: int,
    eval_every: int,
    out_dir=None,
):
    """Full training loop. Returns (state, timeline rows, snapshots).

    Snapshots are (epoch, train accuracy) pairs taken every eval_every
    epochs and at the end; checkpoints go to out_dir when given.
    """
    n_classes = len(ds.identities)
    if ds.identities != list(range(n_classes)):
        raise ConfigError("training expects dense labels 0..C-1")
    state = build_state(ds.dim, n_classes, model_cfg, loss_cfg, seed, momentum=sgd_cfg.momentum)
    sampler_rng = substream(seed, "sampler")
    timeline = []
    snapshots = []
    part_names = loss_cfg.enabled()
    for epoch in range(sgd_cfg.epochs):
        state.epoch = epoch
        lr = lr_at(sgd_cfg, epoch)
        for batch in epoch_iter(ds, sampler_cfg, sampler_rng):
            timeline.append(train_step(state, batch, loss_cfg, lr))
        last = epoch == sgd_cfg.epochs - 1
        if eval_every and (epoch % eval_every == eval_every - 1 or last):
            snapshots.append((epoch, train_accuracy(state, ds)))
            if out_dir is not None:
                save_checkpoint(
                    f"{out_dir}/checkpoint_epoch{epoch:04d}.txt", state.named_params()
                )
    if out_dir is not None:
        write_timeline_csv(timeline, f"{out_dir}/timeline.csv", part_names)
    return state, timeline, snapshots


def embed_dataset(state: TrainState, ds: LabeledDataset) -> np.ndarray:
    return state.extractor(as_tensor(ds.features)).data


# -- predictor refitting -------------------------------------------------------


def refit_predictor(
    features: np.ndarray,
    labels: np.ndarray,
    targets,
    predictor: CenterPredictor,
    steps: int,
    lr: float,
):
    """Full-batch gradient descent on the predictor only, embeddings fixed.

    targets is the constant from `cpl_targets` on the same features (they
    depend only on the fixed embeddings, so the caller builds them once).
    Evaluates the steps + 1 iterates, the starting point included, and
    keeps the best, so the returned loss never exceeds the starting point's.
    Returns (best_loss, history of per-step losses); the predictor is left
    holding the best parameters.
    """
    x = as_tensor(np.asarray(features, dtype=np.float64))
    params = [p for _, p in predictor.params()]
    opt = SGD(params)
    best_value = np.inf
    best_params = None
    history = []
    for step in range(steps + 1):
        loss = cpl_loss(x, labels, targets, predictor)
        value = loss.item()
        history.append(value)
        if value < best_value:
            best_value = value
            best_params = [p.data.copy() for p in params]
        if step < steps:
            opt.step(backward(loss), lr)
    for p, best in zip(params, best_params):
        p.data[:] = best
    return best_value, history


def cpl_errors(features: np.ndarray, targets, predictor=None) -> np.ndarray:
    """Per-sample squared prediction error ||f(x_i) - c_i||^2 (values only)
    against the targets from `cpl_targets`."""
    x = np.asarray(features, dtype=np.float64)
    preds = predictor(as_tensor(x)).data if predictor is not None else x
    return ((preds - as_tensor(targets).data) ** 2).sum(axis=0)
