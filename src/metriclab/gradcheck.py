"""Finite-difference validation of the layers, the losses and a step total.

Each registry entry builds a small random problem and exposes the scalar
to differentiate plus its leaf tensors, each with the forward that its
finite difference evaluates. Analytic gradients come from the
reverse sweep; the oracle is a central difference with step 1e-5. The
prediction loss is checked in its frozen-target form: the analytic
gradient of the live loss must match the finite difference of the loss
with targets pinned at their unperturbed values, alone (`cpl-frozen`) and
in a training step's total with target standardization on (`step-total`).

Most rows come from one of two recipes: `_network`, a layer or a layer
stack under sum(out^2) on an input drawn off the relu kinks, and
`_spread`, a loss on a clustered PK batch whose points keep apart, with
the batch as its only leaf.

Every row but `step-total` is stacked: all 2 * size perturbations of a
leaf run in one call of its forward, which feeds the leaf's stack of
perturbed copies through the row's numpy forwards at once. The layers'
forward (`nn._run_steps`) and each loss's (`losses._ce_forward` and the
like, the one its op calls) read trailing axes, so they broadcast over
the leading stack axis, and a constant input is broadcast along it. The
label structure (pair masks, CPL weights) is built once per problem. A stacked forward runs the
same numpy operations on the same inputs as the root does, slice by slice,
so every finite difference is bit-identical to the per-entry one, and it
keeps every check: each layer output, each intermediate that an op checks
and each op output, on the whole stack with the op's own message.

A `_network` row perturbs a leaf that step s holds by re-running only the
steps from s onward. They start from x itself for x and step 0's
parameters; for a later step, from the activation that the steps before it
give on the unperturbed data, computed once when the row is built and kept
read-only, as perturbing a leaf of step s or later never moves it.
`step-total` perturbs one entry at a time: its forward is the trainer's
`_loss_parts`, which builds the step's ops as Tensors, and a Tensor is 2-D.

A row's error is the largest over its batches and leaves; an error that is
not a finite number is nan, and fails the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .autograd import Tensor, _make, backward, check_finite
from .config import ExperimentConfig, LossConfig
from .errors import ConfigError
from .losses import (
    _ce_forward,
    _center_forward,
    _circle_forward,
    _cpl_forward,
    _lifted_forward,
    _pair_masks,
    _pairwise_forward,
    _ranked_forward,
    _triplet_forward,
    center_loss,
    circle_loss,
    cpl_loss,
    cpl_targets,
    cpl_weights,
    id_cross_entropy,
    lifted_structure_loss,
    pairwise_euclidean,
    ranked_list_loss,
    triplet_loss_batch_hard,
)
from .metrics import pairwise_distances
from .nn import MLP, RELU, BatchNorm, CenterPredictor, Linear, _run_steps, standardize
from .seeding import substream
from .trainer import TrainState, _loss_parts, _weighted_sum, _weighted_total

FD_STEP = 1e-5
_SPREAD = 4.0  # half-width of the box _spread_batch draws cluster centers from
_MIN_GAP = 0.05  # smallest distance _spread_batch allows between two points
_OFF_KINK_TRIES = 50  # draws _off_kink_input makes before settling for its best


def central_diff(fd_forward, leaf: Tensor, stacked: bool = False) -> np.ndarray:
    """Central finite difference of fd_forward() w.r.t. every leaf entry.

    Per entry, fd_forward() returns the root's value at the leaf's live
    data, which is perturbed in place, twice per entry. Stacked, it is
    called once, with leaf.data set to the stack of 2 * size perturbed
    copies (slice 2i has entry i at orig + FD_STEP, slice 2i + 1 at
    orig - FD_STEP), and returns the root's value for each slice."""
    if stacked:
        return _stacked_diff(fd_forward, leaf)
    grad = np.zeros_like(leaf.data)
    it = np.nditer(leaf.data, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = leaf.data[idx]
        leaf.data[idx] = orig + FD_STEP
        hi = fd_forward()
        leaf.data[idx] = orig - FD_STEP
        lo = fd_forward()
        leaf.data[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * FD_STEP)
    return grad


def _stacked_diff(fd_forward, leaf: Tensor) -> np.ndarray:
    """`central_diff` in one call of fd_forward on leaf's perturbation stack."""
    orig = leaf.data
    size = orig.size
    stack = np.repeat(orig[np.newaxis], 2 * size, axis=0)
    entries = stack.reshape(size, 2, size)  # [i, sign, entry] view of the stack
    i, flat = np.arange(size), orig.ravel()
    entries[i, 0, i] = flat + FD_STEP
    entries[i, 1, i] = flat - FD_STEP
    leaf.data = stack
    try:
        values = fd_forward()
    finally:
        leaf.data = orig
    with np.errstate(over="ignore"):  # overflows to inf, as the per-entry float arithmetic does
        return ((values[0::2] - values[1::2]) / (2.0 * FD_STEP)).reshape(orig.shape)


def max_rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    """max |analytic - fd| / max(1, |analytic|, |fd|), or nan when that is
    not finite: the ratio is at most 2, so only an infinite entry (whose
    scale is inf) or an overflowing difference makes it so."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
        err = float((np.abs(analytic - fd) / scale).max())
    return err if math.isfinite(err) else math.nan


@dataclass
class GradProblem:
    """One built instance: scalar graph root plus the tensors to perturb,
    each mapped to the forward its finite difference evaluates."""

    root: callable  # () -> Tensor, rebuilt from the live leaf data
    forwards: dict  # leaf -> () -> the root's value, in leaf order
    stacked: bool = False  # the forwards take the leaf's perturbation stack and give one value per slice


def _checked(values: np.ndarray, op: str) -> np.ndarray:
    """A stacked forward's values, checked as op's `_make` checks its output."""
    check_finite(values, op)
    return values


def _labels_pk(p: int, k: int) -> np.ndarray:
    return np.repeat(np.arange(p), k)


def _feat(rng, d, n) -> Tensor:
    return Tensor(rng.uniform(-2.0, 2.0, size=(d, n)), requires_grad=True)


def _spread_batch(rng, d, p, k) -> Tensor:
    """Clustered batch with every pair of points separated by _MIN_GAP.

    The separation keeps the distance matrix away from its sqrt kink and
    mining/hinge switch points, where a central difference stops being a
    valid oracle. Redrawing from the same stream stays deterministic.
    """
    while True:
        centers = rng.uniform(-_SPREAD, _SPREAD, size=(d, p))
        x = centers[:, np.repeat(np.arange(p), k)] + rng.uniform(-0.6, 0.6, size=(d, p * k))
        dist = pairwise_distances(x, x)
        np.fill_diagonal(dist, np.inf)
        if dist.min() > _MIN_GAP:
            return Tensor(x, requires_grad=True)


def _relu_margin(net, x_data: np.ndarray) -> float:
    """Smallest |preactivation| feeding a relu, from net's numpy steps."""
    h = x_data
    worst = np.inf
    for step in net.steps:
        if step is RELU:
            worst = min(worst, float(np.abs(h).min()))
        h = _run_steps((step,), h, keep=False)[0]  # a relu runs in place on the layer output before it
    return worst


def _off_kink_input(rng, d, n, net) -> Tensor:
    """Input batch whose relu preactivations are all off the kink."""
    best, best_margin = None, -np.inf
    for _ in range(_OFF_KINK_TRIES):
        x = rng.uniform(-2.0, 2.0, size=(d, n))
        margin = _relu_margin(net, x)
        if margin > 1e-3:
            return Tensor(x, requires_grad=True)
        if margin > best_margin:
            best, best_margin = x, margin
    return Tensor(best, requires_grad=True)


def _total(a: np.ndarray) -> np.ndarray:
    """`_sum`'s forward: sum(a) over the last two axes, kept 1 x 1 per slice."""
    return a.sum(axis=(-2, -1), keepdims=True)


def _sum(t: Tensor) -> Tensor:
    """sum(t) as one op that replays the composed sum: each entry gets g."""

    def bw(g):
        return (np.broadcast_to(g, t.shape),)

    return _make(_total(t.data), (t,), bw)


def _squares_sum(a: np.ndarray) -> np.ndarray:
    """sum(a * a) over the last two axes: one total per slice of a stack."""
    with np.errstate(over="ignore"):  # an overflow surfaces in the caller's finiteness check
        return (a * a).sum(axis=(-2, -1))


def _sum_squares(t: Tensor) -> Tensor:
    """sum(t * t) as one op that replays the composed sum(mul(t, t)) bit for
    bit: t is a parent twice, and each use gets g * t.data."""

    def bw(g):
        return g * t.data, g * t.data

    return _make(_squares_sum(t.data).reshape(1, 1), (t, t), bw)


def _tail_values(steps, h: np.ndarray) -> np.ndarray:
    """The network root's value per slice of h, a stack of inputs to steps."""
    return _checked(_squares_sum(_run_steps(steps, h, keep=False)[0]), "_sum_squares")


def _input_tail(steps, x: Tensor) -> np.ndarray:
    """`_tail_values` of the whole network on the stack in x.data when called."""
    return _tail_values(steps, x.data)


def _param_tail(steps, h: np.ndarray, leaf: Tensor) -> np.ndarray:
    """`_tail_values` of steps from the activation h, once per slice of the
    stack in leaf.data when called."""
    return _tail_values(steps, np.broadcast_to(h, (len(leaf.data), *h.shape)))


def _network(make, d, n, leaf_x=True):
    """Builder of sum(net(x)^2) for net = make(rng) on a d x n batch off the
    relu kinks, over the net's parameters and x; with leaf_x false, x enters
    as a plain array, as the extractor's and every refit predictor's batch
    does, and the stack skips its input gradient. A parameter of step s is
    perturbed under _param_tail(steps[s:], ...), x under _input_tail."""

    def build(rng) -> GradProblem:
        net = make(rng)
        x = _off_kink_input(rng, d, n, net)
        steps, forward_of = net.steps, {}
        for s, step in enumerate(steps):
            if step is RELU:
                continue
            h = _run_steps(steps[:s], x.data, keep=False)[0]
            if s:  # step 0 runs from x.data itself, which stays a writable leaf
                h.flags.writeable = False
            forward_of.update((p, partial(_param_tail, steps[s:], h, p)) for _, p in step.params())
        leaves = [p for _, p in net.params()]
        if leaf_x:
            forward_of[x] = partial(_input_tail, steps, x)
            leaves.insert(0, x)
        else:
            x = x.data
        return GradProblem(lambda: _sum_squares(net(x)), {leaf: forward_of[leaf] for leaf in leaves}, stacked=True)

    return build


def _batchnorm(rng) -> BatchNorm:
    bn = BatchNorm(3)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=(3, 1))
    bn.beta.data[:] = rng.uniform(-0.5, 0.5, size=(3, 1))
    return bn


def _spread(p, loss, values):
    """Builder of loss(x, labels) on a 3-D _spread_batch of p identities of
    three; x is the only leaf. values(xs, pos, neg) is the loss on each
    slice of x's perturbation stack xs, pos and neg being the batch's
    `_pair_masks`."""

    def build(rng) -> GradProblem:
        x = _spread_batch(rng, 3, p, 3)
        labels = _labels_pk(p, 3)
        pos, neg = _pair_masks(labels)
        return GradProblem(lambda: loss(x, labels), {x: lambda: values(x.data, pos, neg)}, stacked=True)

    return build


def _distances(xs: np.ndarray) -> np.ndarray:
    """`pairwise_euclidean` of each slice of xs."""
    return _checked(_pairwise_forward(xs)[0], "pairwise_euclidean")


def _on_distances(forward, op, **params):
    """A `_spread` row's values for the distance loss op, whose forward is forward."""
    return lambda xs, pos, neg: _checked(forward(_distances(xs), pos, neg, **params)[0], op)


def _case_ce(rng) -> GradProblem:
    logits = _feat(rng, 4, 8)
    labels = rng.integers(0, 4, size=8)

    def values():
        return _checked(_ce_forward(logits.data, labels)[0], "id_cross_entropy")

    return GradProblem(lambda: id_cross_entropy(logits, labels), {logits: values}, stacked=True)


def _case_center(rng) -> GradProblem:
    x = _feat(rng, 3, 6)
    labels = _labels_pk(2, 3)
    centers = Tensor(rng.uniform(-1, 1, size=(3, 2)), requires_grad=True)

    def values():  # either leaf's stack broadcasts against the other's data
        return _checked(_center_forward(x.data, centers.data, labels)[0], "center_loss")

    return GradProblem(lambda: center_loss(x, labels, centers), dict.fromkeys((x, centers), values), stacked=True)


def _case_cpl_frozen(rng) -> GradProblem:
    labels = _labels_pk(2, 3)
    net = CenterPredictor(dim=3, hidden=8, rng=rng, depth=2)
    x = _off_kink_input(rng, 3, 6, net)
    # frozen semantics: the finite difference must not move the targets,
    # so they are pinned at the unperturbed embeddings' values
    pinned = cpl_targets(x.data.copy(), labels).data
    weights = cpl_weights(labels)

    def values(leaf):
        # x's own stack, or x broadcast along a parameter's
        xs = np.broadcast_to(x.data, (len(leaf.data), *x.data.shape[-2:]))
        preds = _run_steps(net.steps, xs, keep=False)[0]
        return _checked(_cpl_forward(preds, pinned, weights)[0], "cpl_loss")

    leaves = (x, *(p for _, p in net.params()))
    return GradProblem(
        root=lambda: cpl_loss(x, labels, cpl_targets(x, labels), net),
        forwards={leaf: partial(values, leaf) for leaf in leaves},
        stacked=True,
    )


def _case_weighted_total(rng) -> GradProblem:
    x = _feat(rng, 2, 4)
    labels = _labels_pk(2, 2)
    centers, targets = rng.uniform(-1, 1, size=(2, 2)), rng.uniform(-1, 1, size=(2, 4))
    weights = dict(zip(("ce", "cpl", "center"), rng.uniform(0.5, 2.0, size=3)))
    cpl_w = cpl_weights(labels)

    def root():
        parts = (id_cross_entropy(x, labels), cpl_loss(x, labels, targets), center_loss(x, labels, centers))
        return _weighted_total(dict(zip(weights, parts)), weights)

    def values():
        xs = x.data
        parts = (
            _checked(_ce_forward(xs, labels)[0], "id_cross_entropy"),
            _checked(_cpl_forward(xs, targets, cpl_w)[0], "cpl_loss"),
            _checked(_center_forward(xs, centers, labels)[0], "center_loss"),
        )
        return _checked(_weighted_sum(parts, weights.values()), "_weighted_total")

    return GradProblem(root, {x: values}, stacked=True)


def _case_step_total(rng) -> GradProblem:
    labels = _labels_pk(2, 2)
    weights = dict(zip(("ce", "cpl", "center", "triplet"), rng.uniform(0.5, 2.0, size=4)))
    # margin 20 keeps every triplet hinge active, as in the triplet row;
    # the default model section has bn_target on, the lab's default
    cfg = ExperimentConfig("train", loss=LossConfig(weights, triplet_margin=20.0))
    centers = Tensor(rng.uniform(-1, 1, size=(2, 2)))
    # no extractor: the embedding x is the leaf
    state = TrainState(None, Linear(2, 2, rng), CenterPredictor(2, 4, rng), centers, optimizer=None, cfg=cfg)
    x = _off_kink_input(rng, 2, 4, state.predictor)
    # frozen semantics for the whole step: the finite difference keeps the
    # targets the step takes from the standardized embeddings where they were
    pinned = cpl_targets(standardize(x.data)[2], labels)
    rest = replace(cfg.loss, weights={n: w for n, w in weights.items() if n != "cpl"})
    without_cpl = replace(state, cfg=replace(cfg, loss=rest))

    def fd_forward():
        parts = dict(_loss_parts(without_cpl, x, labels))
        parts["cpl"] = cpl_loss(x, labels, pinned, state.predictor)
        return _weighted_total(parts, weights).item()

    return GradProblem(
        root=lambda: _weighted_total(dict(_loss_parts(state, x, labels)), weights),
        forwards={x: fd_forward},
    )


REGISTRY = (
    ("linear", _network(partial(Linear, 3, 4), 3, 6)),
    ("batchnorm", _network(_batchnorm, 3, 8)),
    ("mlp", _network(partial(MLP, 4, (8, 8), 3), 4, 6)),
    ("predictor-2layer", _network(partial(CenterPredictor, 3, 8, depth=2), 3, 6)),
    ("predictor-4layer-bn", _network(partial(CenterPredictor, 3, 8, depth=4, bn_hidden=True, bn_output=True), 3, 6)),
    # a constant batch, as the extractor and every refit predictor get
    ("mlp-constant-input", _network(partial(MLP, 3, (4,), 2), 3, 5, leaf_x=False)),
    ("weighted-total", _case_weighted_total),
    ("step-total", _case_step_total),
    (
        "pairwise-euclidean",
        _spread(2, lambda x, y: _sum(pairwise_euclidean(x)), lambda xs, pos, neg: _checked(_total(_distances(xs)), "_sum")),
    ),
    ("cross-entropy", _case_ce),
    ("center-loss", _case_center),
    # every distance in a 3-D _spread_batch is below sqrt(3) * 9.2 < 16, so
    # margin 20 keeps each hinge active and the checked gradient nonzero
    (
        "triplet-batch-hard",
        _spread(
            3,
            lambda x, y: triplet_loss_batch_hard(pairwise_euclidean(x), y, margin=20.0),
            _on_distances(_triplet_forward, "triplet_loss_batch_hard", margin=20.0),
        ),
    ),
    (
        "circle-loss",
        _spread(
            2,
            lambda x, y: circle_loss(x, y, scale=4.0, margin=0.25),
            lambda xs, pos, neg: _checked(_circle_forward(xs, pos, neg, scale=4.0, margin=0.25)[0], "circle_loss"),
        ),
    ),
    # margin 20 keeps every hinge active, as in the triplet row
    (
        "lifted-structure",
        _spread(
            2,
            lambda x, y: lifted_structure_loss(pairwise_euclidean(x), y, margin=20.0),
            _on_distances(_lifted_forward, "lifted_structure_loss", margin=20.0),
        ),
    ),
    (
        "ranked-list",
        _spread(
            2,
            lambda x, y: ranked_list_loss(pairwise_euclidean(x), y, alpha=1.2, margin=0.4),
            _on_distances(_ranked_forward, "ranked_list_loss", alpha=1.2, margin=0.4),
        ),
    ),
    ("cpl-frozen", _case_cpl_frozen),
)


@dataclass
class GradcheckRow:
    name: str
    max_rel_err: float
    passed: bool


@dataclass
class GradcheckReport:
    rows: list
    tolerance: float
    batches: int

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_text(self) -> str:
        lines = [
            f"{row.name:22s} max_rel_err {row.max_rel_err:.3e} "
            f"{'PASS' if row.passed else 'FAIL'}"
            for row in self.rows
        ]
        verdict = "all passed" if self.all_passed else "FAILURES above tolerance"
        lines.append(
            f"gradcheck: {sum(r.passed for r in self.rows)}/{len(self.rows)} cases "
            f"within {self.tolerance:g} over {self.batches} batches ({verdict})"
        )
        return "\n".join(lines)


def run_gradcheck(seed: int = 0, tolerance: float = 1e-4, batches: int = 20) -> GradcheckReport:
    """Check every registered case over `batches` seeded random problems.

    A check of no batches, or against a tolerance that is not a finite
    positive number, would pass on nothing: both are config errors."""
    if batches < 1:
        raise ConfigError(f"gradcheck needs at least 1 batch, got {batches}")
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise ConfigError(f"gradcheck tolerance must be finite and > 0, got {tolerance}")
    rows = []
    for name, builder in REGISTRY:
        worst = 0.0
        for b in range(batches):
            problem = builder(substream(seed, f"gradcheck/{name}/{b}"))
            grads = backward(problem.root())
            for leaf, forward in problem.forwards.items():
                analytic = grads.get(leaf)
                if analytic is None:
                    analytic = np.zeros_like(leaf.data)
                fd = central_diff(forward, leaf, stacked=problem.stacked)
                # np.maximum keeps a nan error, which then fails the row
                worst = float(np.maximum(worst, max_rel_err(analytic, fd)))
        rows.append(GradcheckRow(name, worst, worst < tolerance))
    return GradcheckReport(rows, tolerance, batches)
