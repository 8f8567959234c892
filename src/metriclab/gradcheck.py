"""Finite-difference validation of the layers, the losses and a step total.

Each registry entry builds a small random problem: the scalar root to
differentiate, rebuilt from the live leaf data, plus the leaf tensors to
perturb. Most rows come from one of two recipes: `_network`, a layer or a
layer stack under sum(out^2) on an input drawn off the relu kinks, and
`_spread`, a loss on a clustered PK batch whose points keep apart, with the
batch as its only leaf. Analytic gradients come from the reverse sweep; the
oracle is a central difference with step 1e-5, which `replay` evaluates on
every perturbation of a leaf at once by rerunning the root's own graph.

The replay recomputes no value that an op captured when it was built, so
the prediction loss is checked in its frozen-target form: the analytic
gradient of the live loss against the finite difference of the loss with
its targets where the build computed them, alone (`cpl-frozen`) and in a
training step's total with target standardization on (`step-total`).

A row's error is the largest over its batches and leaves; an error that is
not a finite number is nan, and fails the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .autograd import GraphError, Tensor, _make, _op_name, _topo, backward, check_finite
from .config import ExperimentConfig, LossConfig
from .errors import ConfigError
from .losses import (
    center_loss,
    circle_loss,
    cpl_loss,
    cpl_targets,
    id_cross_entropy,
    lifted_structure_loss,
    pairwise_euclidean,
    ranked_list_loss,
    triplet_loss_batch_hard,
)
from .metrics import pairwise_distances
from .nn import MLP, RELU, BatchNorm, CenterPredictor, Linear, _run_steps
from .seeding import substream
from .trainer import TrainState, _loss_parts, _weighted_total

FD_STEP = 1e-5
_SPREAD = 4.0  # half-width of the box _spread_batch draws cluster centers from
_MIN_GAP = 0.05  # smallest distance _spread_batch allows between two points
_OFF_KINK_TRIES = 50  # draws _off_kink_input makes before settling for its best


def central_diff(fd_forward, leaf: Tensor) -> np.ndarray:
    """Central finite difference of fd_forward() w.r.t. every leaf entry.

    fd_forward() is called once, with leaf.data set to a stack of its
    2 * size copies: slice 2i has entry i at orig + FD_STEP, slice 2i + 1 at
    orig - FD_STEP. It returns the root's value for each slice. leaf.data
    is its own array again on return, also when fd_forward raises."""
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
    with np.errstate(over="ignore"):  # an overflowing difference is inf, which max_rel_err reports as nan
        return ((values[0::2] - values[1::2]) / (2.0 * FD_STEP)).reshape(orig.shape)


def replay(root: Tensor, leaf: Tensor) -> np.ndarray:
    """root's value for each slice of the stack in leaf.data.

    A node without parents gives the stack when it is leaf, and otherwise
    its data broadcast along the stack; an op node gives the numpy forward
    it recorded (`losses._ce_forward` and the like, `nn._run_steps`) of its
    parents' values, checked as its `_make` checks its output. Those
    forwards read trailing axes, so each slice runs the numpy operations of
    the root's build on that slice's inputs: a finite difference is
    bit-identical to the per-entry one, and it makes every check of the
    build with the op's own message. What an op captured when it was built
    (a CPL target, a pair mask) is not recomputed."""
    stack = leaf.data
    values = {}
    for node in _topo(root):
        if not node._parents:
            values[node] = stack if node is leaf else np.broadcast_to(node.data, (len(stack), *node.shape))
            continue
        if node._forward is None:
            raise GraphError(f"{_op_name(node._backward)}: no forward to replay")
        value = node._forward(*(values[p] for p in node._parents))
        check_finite(value, node._backward)
        values[node] = value
    return values[root]


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
    """One built instance: the scalar graph root plus the tensors to perturb."""

    root: callable  # () -> Tensor, rebuilt from the live leaf data
    leaves: tuple


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

    return _make(_total(t.data), (t,), bw, _total)


def _squares_sum(a: np.ndarray) -> np.ndarray:
    """`_sum_squares`'s forward: sum(a * a) over the last two axes, kept 1 x 1 per slice."""
    with np.errstate(over="ignore"):  # an overflow surfaces in the op's output check
        return (a * a).sum(axis=(-2, -1), keepdims=True)


def _sum_squares(t: Tensor) -> Tensor:
    """sum(t * t) as one op that replays the composed sum(mul(t, t)) bit for
    bit: t is a parent twice, and each use gets g * t.data."""

    def bw(g):
        return g * t.data, g * t.data

    return _make(_squares_sum(t.data), (t, t), bw, lambda a, _: _squares_sum(a))


def _network(make, d, n, leaf_x=True):
    """Builder of sum(net(x)^2) for net = make(rng) on a d x n batch off the
    relu kinks, over the net's parameters and x; with leaf_x false, x enters
    as a plain array, as the extractor's and every refit predictor's batch
    does, and the stack skips its input gradient."""

    def build(rng) -> GradProblem:
        net = make(rng)
        x = _off_kink_input(rng, d, n, net)
        leaves = ([x] if leaf_x else []) + [p for _, p in net.params()]
        root_x = x if leaf_x else x.data
        return GradProblem(lambda: _sum_squares(net(root_x)), tuple(leaves))

    return build


def _batchnorm(rng) -> BatchNorm:
    bn = BatchNorm(3)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=(3, 1))
    bn.beta.data[:] = rng.uniform(-0.5, 0.5, size=(3, 1))
    return bn


def _spread(p, loss):
    """Builder of loss(x, labels) on a 3-D _spread_batch of p identities of
    three; x is the only leaf."""

    def build(rng) -> GradProblem:
        x = _spread_batch(rng, 3, p, 3)
        labels = _labels_pk(p, 3)
        return GradProblem(lambda: loss(x, labels), (x,))

    return build


def _case_ce(rng) -> GradProblem:
    logits = _feat(rng, 4, 8)
    labels = rng.integers(0, 4, size=8)
    return GradProblem(lambda: id_cross_entropy(logits, labels), (logits,))


def _case_center(rng) -> GradProblem:
    x = _feat(rng, 3, 6)
    labels = _labels_pk(2, 3)
    centers = Tensor(rng.uniform(-1, 1, size=(3, 2)), requires_grad=True)
    return GradProblem(lambda: center_loss(x, labels, centers), (x, centers))


def _case_cpl_frozen(rng) -> GradProblem:
    labels = _labels_pk(2, 3)
    net = CenterPredictor(dim=3, hidden=8, rng=rng, depth=2)
    x = _off_kink_input(rng, 3, 6, net)
    return GradProblem(lambda: cpl_loss(x, labels, cpl_targets(x, labels), net), (x, *(p for _, p in net.params())))


def _case_weighted_total(rng) -> GradProblem:
    x = _feat(rng, 2, 4)
    labels = _labels_pk(2, 2)
    centers, targets = rng.uniform(-1, 1, size=(2, 2)), rng.uniform(-1, 1, size=(2, 4))
    weights = dict(zip(("ce", "cpl", "center"), rng.uniform(0.5, 2.0, size=3)))

    def root():
        parts = (id_cross_entropy(x, labels), cpl_loss(x, labels, targets), center_loss(x, labels, centers))
        return _weighted_total(dict(zip(weights, parts)), weights)

    return GradProblem(root, (x,))


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
    return GradProblem(lambda: _weighted_total(dict(_loss_parts(state, x, labels)), weights), (x,))


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
    ("pairwise-euclidean", _spread(2, lambda x, y: _sum(pairwise_euclidean(x)))),
    ("cross-entropy", _case_ce),
    ("center-loss", _case_center),
    # every distance in a 3-D _spread_batch is below sqrt(3) * 9.2 < 16, so
    # margin 20 keeps each hinge active and the checked gradient nonzero
    ("triplet-batch-hard", _spread(3, lambda x, y: triplet_loss_batch_hard(pairwise_euclidean(x), y, margin=20.0))),
    ("circle-loss", _spread(2, lambda x, y: circle_loss(x, y, scale=4.0, margin=0.25))),
    # margin 20 keeps every hinge active, as in the triplet row
    ("lifted-structure", _spread(2, lambda x, y: lifted_structure_loss(pairwise_euclidean(x), y, margin=20.0))),
    ("ranked-list", _spread(2, lambda x, y: ranked_list_loss(pairwise_euclidean(x), y, alpha=1.2, margin=0.4))),
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
            root = problem.root()
            grads = backward(root)
            for leaf in problem.leaves:
                fd = central_diff(partial(replay, root, leaf), leaf)
                # a leaf the sweep did not reach has a zero gradient; np.maximum
                # keeps a nan error, which then fails the row
                worst = float(np.maximum(worst, max_rel_err(grads.get(leaf, 0.0), fd)))
        rows.append(GradcheckRow(name, worst, worst < tolerance))
    return GradcheckReport(rows, tolerance, batches)
