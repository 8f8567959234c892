"""SGD training loop with a milestone lr schedule, plus predictor-only
refitting against frozen center-prediction targets.

One shared schedule drives every parameter group (extractor, classifier,
predictor, centers). CPL targets are built once per batch from embedding
values (standardized, with nothing learned, under `bn_target`) and passed
to `cpl_loss` as a constant; a refit takes its targets from the caller.

A `TrainState` holds the run's whole `ExperimentConfig`, so `train_step(state,
batch, lr)` trains under the config the state was built from; `train_run`
takes the same config.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import losses
from .autograd import Tensor, _make, as_tensor, backward, check_finite
from .config import ExperimentConfig, SgdConfig
from .errors import ConfigError, NumericsError
from .losses import (
    center_loss,
    circle_loss,
    cpl_loss,
    cpl_objective,
    cpl_targets,
    id_cross_entropy,
    lifted_structure_loss,
    ranked_list_loss,
    triplet_loss_batch_hard,
)
from .nn import MLP, CenterPredictor, Linear, save_checkpoint, standardize
from .sampling import LabeledDataset, epoch_iter, write_csv
from .seeding import subseed, substream

__all__ = [
    "lr_at",
    "SGD",
    "TrainState",
    "build_state",
    "train_step",
    "train_run",
    "refit_predictor",
    "cpl_errors",
]

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
        # an overflowing update surfaces in the next forward's finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            for p, v in zip(self.params, self.velocity):
                g = grads.get(p)
                if g is None:
                    continue
                v *= self.momentum
                v += g
                p.data -= lr * v


@dataclass
class TrainState:
    """The model, centers and optimizer of one run, stepped under cfg, the
    run's `config.ExperimentConfig`: its loss section, `model.bn_target`
    and seed drive every step."""

    extractor: MLP
    classifier: Linear
    predictor: CenterPredictor | None
    centers: Tensor | None
    optimizer: SGD
    cfg: ExperimentConfig
    epoch: int = 0
    step: int = 0

    def named_params(self) -> dict:
        out = {}
        out.update({f"extractor.{n}": p for n, p in self.extractor.params()})
        out.update({f"classifier.{n}": p for n, p in self.classifier.params()})
        if self.predictor is not None:
            out.update({f"predictor.{n}": p for n, p in self.predictor.params()})
        if self.centers is not None:
            out["centers"] = self.centers
        return out


def build_state(cfg: ExperimentConfig, input_dim: int, n_classes: int) -> TrainState:
    """A fresh state for cfg, the run's `config.ExperimentConfig`: its
    model section, its seed and `sgd.momentum`. It holds centers exactly
    when cfg's loss section weighs the center loss, and a predictor exactly
    when it weighs CPL and `model.predictor` is mlp. The predictor is drawn
    last from the init stream, so leaving it out moves no other draw."""
    model_cfg = cfg.model
    rng = substream(cfg.seed, "init")
    extractor = MLP(input_dim, tuple(model_cfg.extractor_hidden), model_cfg.embedding_dim, rng)
    classifier = Linear(model_cfg.embedding_dim, n_classes, rng)
    predictor = None
    if model_cfg.predictor == "mlp" and cfg.loss.weights["cpl"] > 0.0:
        predictor = CenterPredictor(
            dim=model_cfg.embedding_dim,
            hidden=model_cfg.predictor_hidden,
            rng=rng,
            depth=model_cfg.predictor_depth,
            bn_hidden=model_cfg.bn_predictor_hidden,
            bn_output=model_cfg.bn_predictor_output,
        )
    centers = None
    if cfg.loss.weights["center"] > 0.0:
        centers = Tensor(np.zeros((model_cfg.embedding_dim, n_classes)), requires_grad=True)
    state = TrainState(extractor, classifier, predictor, centers, optimizer=None, cfg=cfg)
    state.optimizer = SGD(list(state.named_params().values()), momentum=cfg.sgd.momentum)
    return state


_DISTANCE_LOSSES = ("triplet", "lifted", "rll")


def _loss_parts(state: TrainState, embeddings, labels):
    """Yield (name, part) for each loss state.cfg enables, in LOSS_NAMES order."""
    loss_cfg = state.cfg.loss
    enabled = loss_cfg.enabled()
    # one distance matrix (and one graph through it) for every distance loss
    dist = None
    if any(name in _DISTANCE_LOSSES for name in enabled):
        dist = losses.pairwise_euclidean(embeddings)
    for name in enabled:
        if name == "ce":
            yield name, id_cross_entropy(state.classifier(embeddings), labels)
        elif name == "cpl":
            # targets are values: standardized off the graph, where the std check reports an overflow
            with np.errstate(over="ignore", invalid="ignore"):
                values = standardize(embeddings.data)[2] if state.cfg.model.bn_target else embeddings
            seed = subseed(state.cfg.seed, f"cpl-draw/{state.step}")
            targets = cpl_targets(values, labels, loss_cfg.cpl_target, seed)
            yield name, cpl_loss(embeddings, labels, targets, state.predictor)
        elif name == "center":
            yield name, center_loss(embeddings, labels, state.centers)
        elif name == "triplet":
            yield name, triplet_loss_batch_hard(dist, labels, loss_cfg.triplet_margin)
        elif name == "circle":
            yield name, circle_loss(embeddings, labels, loss_cfg.circle_scale, loss_cfg.circle_margin)
        elif name == "lifted":
            yield name, lifted_structure_loss(dist, labels, loss_cfg.lifted_margin)
        elif name == "rll":
            yield name, ranked_list_loss(dist, labels, loss_cfg.rll_alpha, loss_cfg.rll_margin)


def _weighted_total(parts: dict, weights: dict) -> Tensor:
    """sum over parts of weight * part, as one autograd op that replays the
    composed chain part * w + part * w + ... bit for bit: part i's gradient
    is g * w_i."""
    ws = [float(weights[name]) for name in parts]
    tensors = tuple(parts.values())

    def bw(g):
        return tuple(g * w for w in ws)

    def forward(*values):  # values of a leading stack axis give one sum per slice
        total = None
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum surfaces in the output check
            for value, w in zip(values, ws):
                term = value * w
                total = term if total is None else total + term
        return total

    return _make(forward(*(part.data for part in tensors)), tensors, bw, forward)


@dataclass
class TimelineRow:
    epoch: int
    step: int
    lr: float
    parts: dict  # loss name -> value, in LOSS_NAMES order
    total: float


def train_step(state: TrainState, batch: tuple, lr: float) -> TimelineRow:
    """One SGD update on one (features, labels) batch against total = sum
    of weight * part over the losses state.cfg enables; returns the step's
    timeline row.

    With every enabled weight zero this is a no-op on the parameters. A
    NumericsError leaves with the epoch, the step (numbered as its timeline
    row would be), the lr and the values of the parts built before it in
    its context.
    """
    features, labels = batch
    parts = {}
    total = None
    try:
        embeddings = state.extractor(as_tensor(features))
        for name, part in _loss_parts(state, embeddings, labels):
            parts[name] = part
        if parts:  # none when every weight is zero: nothing to optimize
            total = _weighted_total(parts, state.cfg.loss.weights)
            state.optimizer.step(backward(total), lr)
    except NumericsError as exc:
        values = {name: part.item() for name, part in parts.items()}
        exc.context.update(epoch=state.epoch, step=state.step + 1, lr=lr, parts=values)
        raise
    state.step += 1
    return TimelineRow(
        epoch=state.epoch,
        step=state.step,
        lr=lr,
        parts={name: part.item() for name, part in parts.items()},
        total=0.0 if total is None else total.item(),
    )


def train_accuracy(state: TrainState, ds: LabeledDataset) -> float:
    logits = state.classifier(state.extractor(as_tensor(ds.features))).data
    return float((logits.argmax(axis=0) == ds.class_index).mean())


def train_run(ds: LabeledDataset, cfg: ExperimentConfig, out_dir=None):
    """Full training loop of cfg, the run's `config.ExperimentConfig`: its
    model, loss, sgd and sampler sections, seed and eval_every. Returns
    (state, timeline rows, snapshots).

    The labels may be any integers: the classifier row and the center
    column of a sample are its `ds.class_index`. Snapshots are (epoch,
    train accuracy) pairs taken every eval_every epochs and at the end;
    checkpoints go to out_dir when given.
    """
    n_classes = len(ds.identities)
    part_names = cfg.loss.enabled()
    p = cfg.sampler.p
    needs_negatives = [name for name in part_names if name in ("triplet", "circle", "lifted")]
    if needs_negatives and n_classes > p and n_classes % p == 1:
        raise ConfigError(
            f"sampler.p = {p} leaves one of the {n_classes} identities alone in each epoch's last batch, "
            f"where {', '.join(needs_negatives)} find no negative"
        )
    sgd_cfg, eval_every = cfg.sgd, cfg.eval_every
    state = build_state(cfg, ds.dim, n_classes)
    sampler_rng = substream(cfg.seed, "sampler")
    timeline = []
    snapshots = []
    for epoch in range(sgd_cfg.epochs):
        state.epoch = epoch
        lr = lr_at(sgd_cfg, epoch)
        for batch in epoch_iter(ds, cfg.sampler, sampler_rng):
            timeline.append(train_step(state, batch, lr))
        last = epoch == sgd_cfg.epochs - 1
        if eval_every and (epoch % eval_every == eval_every - 1 or last):
            snapshots.append((epoch, train_accuracy(state, ds)))
            if out_dir is not None:
                save_checkpoint(
                    f"{out_dir}/checkpoint_epoch{epoch:04d}.txt", state.named_params()
                )
    if out_dir is not None:
        write_csv(
            f"{out_dir}/timeline.csv",
            ["epoch", "step", "lr", *part_names, "total"],
            [(row.epoch, row.step, row.lr, *[row.parts[n] for n in part_names], row.total) for row in timeline],
        )
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
    # the batch and its targets are fixed: check them and weigh the classes once
    objective = cpl_objective(np.asarray(features, dtype=np.float64), labels, targets)
    params = [p for _, p in predictor.params()]
    opt = SGD(params)
    best_value = np.inf
    best_params = None
    history = []
    for step in range(steps + 1):
        loss = objective(predictor)
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
    against the targets from `cpl_targets`. An error that overflows raises
    NumericsError."""
    x = np.asarray(features, dtype=np.float64)
    preds = predictor(as_tensor(x)).data if predictor is not None else x
    with np.errstate(over="ignore", invalid="ignore"):
        errors = ((preds - as_tensor(targets).data) ** 2).sum(axis=0)
    check_finite(errors, "cpl_errors", "errors are not finite")
    return errors
