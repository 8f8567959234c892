"""Finite-difference validation of every differentiable operation.

Each registry entry builds a small random problem and exposes the scalar
to differentiate plus its leaf tensors. Analytic gradients come from the
reverse sweep; the oracle is a central difference with step 1e-5. The
prediction loss is checked in its frozen-target form: the analytic
gradient of the live loss must match the finite difference of the loss
with targets pinned at their unperturbed values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, backward, logsumexp, softplus
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
from .nn import MLP, BatchNorm, CenterPredictor, Linear
from .seeding import substream

FD_STEP = 1e-5


def central_diff(fd_forward, leaf: Tensor, step: float = FD_STEP) -> np.ndarray:
    """Central finite difference of fd_forward() w.r.t. every leaf entry."""
    grad = np.zeros_like(leaf.data)
    it = np.nditer(leaf.data, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = leaf.data[idx]
        leaf.data[idx] = orig + step
        hi = fd_forward()
        leaf.data[idx] = orig - step
        lo = fd_forward()
        leaf.data[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * step)
    return grad


def max_rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float((np.abs(analytic - fd) / scale).max())


@dataclass
class GradProblem:
    """One built instance: scalar graph root plus the tensors to perturb.

    fd_forward defaults to evaluating root() fresh; the prediction loss
    overrides it with the frozen-target evaluation.
    """

    root: callable  # () -> Tensor, rebuilt from the live leaf data
    leaves: dict  # name -> Tensor
    fd_forward: callable = None

    def __post_init__(self):
        if self.fd_forward is None:
            self.fd_forward = lambda: self.root().item()


def _labels_pk(p: int, k: int) -> np.ndarray:
    return np.repeat(np.arange(p), k)


def _feat(rng, d, n, lo=-2.0, hi=2.0) -> Tensor:
    return Tensor(rng.uniform(lo, hi, size=(d, n)), requires_grad=True)


def _spread_batch(rng, d, p, k, spread=4.0, min_gap=0.05) -> Tensor:
    """Clustered batch with every pair of points separated by min_gap.

    The separation keeps the distance matrix away from its sqrt kink and
    mining/hinge switch points, where a central difference stops being a
    valid oracle. Redrawing from the same stream stays deterministic.
    """
    while True:
        centers = rng.uniform(-spread, spread, size=(d, p))
        x = centers[:, np.repeat(np.arange(p), k)] + rng.uniform(-0.6, 0.6, size=(d, p * k))
        dist = pairwise_distances(x, x)
        np.fill_diagonal(dist, np.inf)
        if dist.min() > min_gap:
            return Tensor(x, requires_grad=True)


def _relu_margin(layers, bns, x_data: np.ndarray) -> float:
    """Smallest |preactivation| feeding a relu, replicated in numpy."""
    h = x_data
    worst = np.inf
    for i, layer in enumerate(layers[:-1]):
        z = layer.weight.data @ h + layer.bias.data
        if bns:
            bn = bns[i]
            mean = z.mean(axis=1, keepdims=True)
            var = z.var(axis=1, keepdims=True)  # biased, as in training forward
            z = bn.gamma.data * (z - mean) / np.sqrt(var + bn.eps) + bn.beta.data
        worst = min(worst, float(np.abs(z).min()))
        h = np.maximum(z, 0.0)
    return worst


def _off_kink_input(rng, d, n, layers, bns=None, tries: int = 50) -> Tensor:
    """Input batch whose relu preactivations are all off the kink."""
    best, best_margin = None, -np.inf
    for _ in range(tries):
        x = rng.uniform(-2.0, 2.0, size=(d, n))
        margin = _relu_margin(layers, bns, x)
        if margin > 1e-3:
            return Tensor(x, requires_grad=True)
        if margin > best_margin:
            best, best_margin = x, margin
    return Tensor(best, requires_grad=True)


def _sum_squares(t: Tensor) -> Tensor:
    return (t * t).sum()


def _case_linear(rng) -> GradProblem:
    layer = Linear(3, 4, rng)
    x = _feat(rng, 3, 6)
    leaves = {"x": x, **{f"linear.{n}": p for n, p in layer.params()}}
    return GradProblem(lambda: _sum_squares(layer(x)), leaves)


def _case_batchnorm(rng) -> GradProblem:
    bn = BatchNorm(3)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=(3, 1))
    bn.beta.data[:] = rng.uniform(-0.5, 0.5, size=(3, 1))
    x = _feat(rng, 3, 8)
    leaves = {"x": x, **{f"bn.{n}": p for n, p in bn.params()}}
    return GradProblem(lambda: _sum_squares(bn(x)), leaves)


def _case_mlp(rng) -> GradProblem:
    net = MLP(4, (8, 8), 3, rng)
    x = _off_kink_input(rng, 4, 6, net.layers)
    leaves = {"x": x, **{f"mlp.{n}": p for n, p in net.params()}}
    return GradProblem(lambda: _sum_squares(net(x)), leaves)


def _case_predictor_plain(rng) -> GradProblem:
    net = CenterPredictor(dim=3, hidden=8, rng=rng, depth=2)
    x = _off_kink_input(rng, 3, 6, net.layers)
    leaves = {"x": x, **{f"pred.{n}": p for n, p in net.params()}}
    return GradProblem(lambda: _sum_squares(net(x)), leaves)


def _case_predictor_deep_bn(rng) -> GradProblem:
    net = CenterPredictor(dim=3, hidden=8, rng=rng, depth=4, bn_hidden=True, bn_output=True)
    x = _off_kink_input(rng, 3, 6, net.layers, bns=net.hidden_bns)
    leaves = {"x": x, **{f"pred.{n}": p for n, p in net.params()}}
    return GradProblem(lambda: _sum_squares(net(x)), leaves)


def _case_matmul_chain(rng) -> GradProblem:
    a = _feat(rng, 3, 4)
    b = _feat(rng, 4, 5)
    c = _feat(rng, 5, 2)
    leaves = {"a": a, "b": b, "c": c}
    return GradProblem(lambda: ((a @ b) @ c).sum(), leaves)


def _case_elementwise(rng) -> GradProblem:
    x = _feat(rng, 3, 5, lo=0.5, hi=2.0)  # positive keeps log/sqrt/abs smooth

    def root():
        return (x.exp() * 0.1 + (x * x + 1.5).log() + (x * x + 0.5).sqrt() + x.abs() * 0.7).sum()

    return GradProblem(root, {"x": x})


def _case_logsumexp_softplus(rng) -> GradProblem:
    x = _feat(rng, 4, 6)
    return GradProblem(lambda: logsumexp(x, axis=0).sum() + softplus(x).mean(), {"x": x})


def _case_pairwise(rng) -> GradProblem:
    x = _spread_batch(rng, 3, 2, 3)
    return GradProblem(lambda: pairwise_euclidean(x).sum(), {"x": x})


def _case_ce(rng) -> GradProblem:
    logits = _feat(rng, 4, 8)
    labels = rng.integers(0, 4, size=8)
    return GradProblem(lambda: id_cross_entropy(logits, labels), {"logits": logits})


def _case_center(rng) -> GradProblem:
    x = _feat(rng, 3, 6)
    labels = _labels_pk(2, 3)
    centers = Tensor(rng.uniform(-1, 1, size=(3, 2)), requires_grad=True)
    return GradProblem(lambda: center_loss(x, labels, centers), {"x": x, "centers": centers})


def _case_triplet(rng) -> GradProblem:
    x = _spread_batch(rng, 3, 3, 3)
    labels = _labels_pk(3, 3)
    # every distance in a 3-D _spread_batch is below sqrt(3) * 9.2 < 16, so
    # margin 20 keeps each hinge active and the checked gradient nonzero
    return GradProblem(lambda: triplet_loss_batch_hard(pairwise_euclidean(x), labels, margin=20.0), {"x": x})


def _case_circle(rng) -> GradProblem:
    x = _spread_batch(rng, 3, 2, 3)
    labels = _labels_pk(2, 3)
    return GradProblem(lambda: circle_loss(x, labels, scale=4.0, margin=0.25), {"x": x})


def _case_lifted(rng) -> GradProblem:
    x = _spread_batch(rng, 3, 2, 3)
    labels = _labels_pk(2, 3)
    # margin 20 keeps every hinge active, as in the triplet case
    return GradProblem(lambda: lifted_structure_loss(pairwise_euclidean(x), labels, margin=20.0), {"x": x})


def _case_rll(rng) -> GradProblem:
    x = _spread_batch(rng, 3, 2, 3)
    labels = _labels_pk(2, 3)
    return GradProblem(
        lambda: ranked_list_loss(pairwise_euclidean(x), labels, alpha=1.2, margin=0.4), {"x": x}
    )


def _case_cpl_frozen(rng) -> GradProblem:
    labels = _labels_pk(2, 3)
    net = CenterPredictor(dim=3, hidden=8, rng=rng, depth=2)
    x = _off_kink_input(rng, 3, 6, net.layers)
    # frozen semantics: the finite difference must not move the targets,
    # so they are pinned at the unperturbed embeddings' values
    pinned = cpl_targets(x.data.copy(), labels)
    leaves = {"x": x, **{f"pred.{n}": p for n, p in net.params()}}
    return GradProblem(
        root=lambda: cpl_loss(x, labels, cpl_targets(x, labels), net),
        leaves=leaves,
        fd_forward=lambda: cpl_loss(x, labels, pinned, net).item(),
    )


REGISTRY = (
    ("linear", _case_linear),
    ("batchnorm", _case_batchnorm),
    ("mlp", _case_mlp),
    ("predictor-2layer", _case_predictor_plain),
    ("predictor-4layer-bn", _case_predictor_deep_bn),
    ("matmul-chain", _case_matmul_chain),
    ("elementwise", _case_elementwise),
    ("logsumexp-softplus", _case_logsumexp_softplus),
    ("pairwise-euclidean", _case_pairwise),
    ("cross-entropy", _case_ce),
    ("center-loss", _case_center),
    ("triplet-batch-hard", _case_triplet),
    ("circle-loss", _case_circle),
    ("lifted-structure", _case_lifted),
    ("ranked-list", _case_rll),
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
            f"gradcheck: {sum(r.passed for r in self.rows)}/{len(self.rows)} ops "
            f"within {self.tolerance:g} over {self.batches} batches ({verdict})"
        )
        return "\n".join(lines)


def run_gradcheck(seed: int = 0, tolerance: float = 1e-4, batches: int = 20) -> GradcheckReport:
    """Check every registered op over `batches` seeded random problems.

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
            for leaf in problem.leaves.values():
                analytic = grads.get(leaf)
                if analytic is None:
                    analytic = np.zeros_like(leaf.data)
                fd = central_diff(problem.fd_forward, leaf)
                worst = max(worst, max_rel_err(analytic, fd))
        rows.append(GradcheckRow(name, worst, worst < tolerance))
    return GradcheckReport(rows, tolerance, batches)
