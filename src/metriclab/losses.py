"""Batch losses over embedding matrices: identity cross-entropy, center
loss, batch-hard triplet, circle, lifted structure, ranked list, and the
center prediction loss (CPL) with its frozen leave-one-out targets.

Every loss takes integer labels and returns a scalar (1x1) Tensor. The
distance losses (batch-hard triplet, lifted structure, ranked list) take
the N x N distance matrix D = pairwise_euclidean(embeddings), so a caller
builds D once and shares it; the others take the d x N embedding matrix
(Tensor or ndarray, column per sample), or the C x N logits for the
cross-entropy. `cpl_loss` takes its targets as an input: the d x N
constant that `cpl_targets` builds from values, so a sample's role as part
of another sample's target contributes no gradient. Whoever owns the target
policy (the trainer per batch, a refit once) builds them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import (
    Tensor,
    _all_finite,
    _make,
    _unbroadcast,
    as_tensor,
    gather_cols,
    gather_pairs,
    logsumexp,
    softplus,
)
from .errors import ConfigError, NumericsError, ShapeError
from .metrics import pairwise_distances
from .seeding import substream

__all__ = [
    "MarginConfig",
    "id_cross_entropy",
    "center_loss",
    "triplet_loss_batch_hard",
    "circle_loss",
    "lifted_structure_loss",
    "ranked_list_loss",
    "cpl_targets",
    "cpl_loss",
    "TARGET_MODES",
    "pairwise_euclidean",
]

TARGET_MODES = ("leave-one-out-mean", "random-point", "farthest-point", "sample-mean")


@dataclass
class MarginConfig:
    """Margin/scale constants shared by the pairwise losses."""

    triplet_margin: float = 0.3
    circle_margin: float = 0.25
    circle_scale: float = 32.0
    lifted_margin: float = 1.0
    rll_alpha: float = 1.2
    rll_margin: float = 0.4

    def __post_init__(self):
        if self.triplet_margin < 0 or self.circle_margin < 0 or self.lifted_margin < 0:
            raise ConfigError("margins must be non-negative")
        if self.circle_scale <= 0:
            raise ConfigError("circle_scale must be positive")
        if self.rll_margin < 0:
            raise ConfigError("rll_margin must be non-negative")
        if not self.rll_alpha > self.rll_margin:
            raise ConfigError("rll_alpha must exceed rll_margin")


def _check_batch(features, labels, opname: str):
    features = as_tensor(features)
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != features.shape[1]:
        raise ShapeError(f"{opname}: need one label per column, got {labels.shape} labels for {features.shape[1]} columns")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ShapeError(f"{opname}: labels must be integers")
    if features.shape[1] == 0:
        raise ShapeError(f"{opname}: empty batch")
    return features, labels.astype(np.int64)


def pairwise_euclidean(x: Tensor) -> Tensor:
    """N x N matrix of Euclidean distances between columns of x.

    Effective zeros (the diagonal, coincident points) are detected with a
    1e-12 threshold on the squared distance, which swallows the rounding
    noise of the gram expansion sq_i + sq_j - 2<x_i, x_j>. Those entries
    get a masked epsilon before the sqrt so its derivative stays finite,
    then are forced back to exactly zero; the gradient through them is
    zero, a valid subgradient at the kink.

    This is one autograd op that replays the composed graph
    sqrt(relu(sq^T + sq - 2 x^T x) + eps) * keep: its forward and backward
    do the same numpy operations in the same order, so values and gradients
    are bit-identical to it. x is a parent once per use (both factors of the
    square, the gram matmul, the transpose), in the order the composed sweep
    accumulated their gradient terms.
    """
    x = as_tensor(x)
    xd = x.data
    with np.errstate(over="ignore", invalid="ignore"):
        xt = xd.T.copy()
        gram = xt @ xd
        sq = (xd * xd).sum(axis=0, keepdims=True)  # 1 x N
        diff = sq.T + sq - gram * 2.0
    # a non-finite square, gram entry or sum reaches diff, but relu would
    # turn a -inf into 0 and hide it from the output check
    if not _all_finite(diff):
        raise NumericsError("pairwise_euclidean: squared distances are not finite")
    sq_dist = np.maximum(diff, 0.0)  # relu clips negative rounding noise
    zero_mask = (sq_dist < 1e-12).astype(np.float64)
    keep = 1.0 - zero_mask
    root = np.sqrt(sq_dist + zero_mask * 1e-16)
    n = xd.shape[1]

    def bw(g):
        g_diff = g * keep * 0.5 / root * (diff > 0.0)
        g_gram = -g_diff * 2.0
        g_sq = _unbroadcast(g_diff, (1, n)) + _unbroadcast(g_diff, (n, 1)).T
        # a non-finite intermediate gradient of the composed graph reaches
        # g_gram or g_sq, and from there an x term (inf * 0 is nan), where
        # backward's finiteness check sees it
        t_sq = np.broadcast_to(g_sq, xd.shape) * xd
        # xt.T, as the composed matmul read its operand from the transpose's copy
        return t_sq, t_sq, xt.T @ g_gram, (g_gram @ xd.T).T

    return _make(root * keep, (x, x, x, x), bw)


# -- classification and center losses ----------------------------------------


def id_cross_entropy(logits, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]; logits are C x N.

    One autograd op that replays the composed graph
    mean(logsumexp(logits, axis=0) - logits[label, col]) bit for bit; logits
    is a parent twice, for the logsumexp and the gather terms.
    """
    logits, labels = _check_batch(logits, labels, "id_cross_entropy")
    n_classes, n = logits.shape
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ShapeError(f"id_cross_entropy: labels outside [0, {n_classes})")
    x = logits.data
    cols = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):  # surfaces in _make
        m = np.max(x, axis=0, keepdims=True)
        e = np.exp(x - m)
        s = e.sum(axis=0, keepdims=True)
        per_sample = m + np.log(s) - x[labels, cols][None, :]  # 1 x N
    scale = 1.0 / n

    def bw(g):
        g_per_sample = np.broadcast_to(g * scale, per_sample.shape)
        g_true = np.zeros_like(x)
        np.add.at(g_true, (labels, cols), -g_per_sample[0])
        return (g_per_sample / s) * e, g_true

    return _make(per_sample.sum().reshape(1, 1) * scale, (logits, logits), bw)


def center_loss(features, labels, centers) -> Tensor:
    """0.5 * mean over samples of squared distance to their class center.

    centers is a d x C matrix (one learnable column per class); gradients
    flow into both features and centers.
    """
    features, labels = _check_batch(features, labels, "center_loss")
    centers = as_tensor(centers)
    if centers.shape[0] != features.shape[0]:
        raise ShapeError("center_loss: feature dim and center dim differ")
    if labels.max() >= centers.shape[1]:
        raise ShapeError(f"center_loss: no center for label {labels.max()}")
    diff = features - gather_cols(centers, labels)
    return 0.5 * (diff * diff).sum(axis=0).mean()


# -- pairwise losses ----------------------------------------------------------


def _pair_masks(labels: np.ndarray):
    same = labels[:, None] == labels[None, :]
    eye = np.eye(labels.size, dtype=bool)
    pos = same & ~eye
    neg = ~same
    return pos, neg


def _check_dist(dist, labels, opname: str):
    """D and labels of a distance loss: D square, one label per column."""
    dist, labels = _check_batch(dist, labels, opname)
    if dist.shape[0] != dist.shape[1]:
        raise ShapeError(f"{opname}: distance matrix must be N x N, got {dist.shape}")
    return dist, labels


def triplet_loss_batch_hard(dist, labels, margin: float = 0.3) -> Tensor:
    """Batch-hard triplet on the N x N distance matrix D: per anchor, the
    hardest positive and hardest negative, hinge at the margin, mean over
    anchors."""
    dist, labels = _check_dist(dist, labels, "triplet_loss_batch_hard")
    pos, neg = _pair_masks(labels)
    if not pos.any(axis=1).all():
        raise ShapeError("triplet: every anchor needs at least one positive (identity with >= 2 samples)")
    if not neg.any(axis=1).all():
        raise ShapeError("triplet: every anchor needs at least one negative (>= 2 identities)")
    n = labels.size
    # mining happens on values; ties resolve to the lowest index via argmax/argmin
    dvals = dist.data
    hardest_pos = np.where(pos, dvals, -np.inf).argmax(axis=1)
    hardest_neg = np.where(neg, dvals, np.inf).argmin(axis=1)
    anchors = np.arange(n)
    dp = gather_pairs(dist, anchors, hardest_pos)
    dn = gather_pairs(dist, anchors, hardest_neg)
    return (dp - dn + margin).relu().mean()


def circle_loss(features, labels, scale: float = 32.0, margin: float = 0.25) -> Tensor:
    """Mean over anchors of log(1 + sum_j exp(s*(sn_j + m)) * sum_i exp(-s*sp_i))
    on cosine similarities of L2-normalized embeddings.

    Computed row-wise on the N x N similarity matrix S as
    softplus(logsumexp_neg(s*(S + m)) + logsumexp_pos(-s*S)), each
    logsumexp masked to the anchor's negatives or positives."""
    features, labels = _check_batch(features, labels, "circle_loss")
    if scale <= 0:
        raise ConfigError("circle_loss: scale must be positive")
    pos, neg = _pair_masks(labels)
    if not pos.any(axis=1).all():
        raise ShapeError("circle_loss: an anchor has no positives")
    if not neg.any(axis=1).all():
        raise ShapeError("circle_loss: an anchor has no negatives")
    norms = (features * features).sum(axis=0).sqrt()  # zero column would fault in div
    xn = features / norms
    sim = xn.t() @ xn
    z = logsumexp(scale * (sim + margin), axis=1, mask=neg) + logsumexp(-scale * sim, axis=1, mask=pos)
    return softplus(z).mean()


def lifted_structure_loss(dist, labels, margin: float = 1.0) -> Tensor:
    """Mean over positive pairs (i < j) of
    relu(D_ij + log sum_k exp(m - D_ik) + log sum_l exp(m - D_jl)),
    k and l ranging over the negatives of i and of j.

    Computed on the N x N distance matrix D with the row-wise masked
    L = logsumexp_neg(m - D) (N x 1): relu(D + L + L^T) summed over the
    strict upper triangle of the positive mask."""
    dist, labels = _check_dist(dist, labels, "lifted_structure_loss")
    pos, neg = _pair_masks(labels)
    pair_mask = np.triu(pos, 1)
    n_pairs = int(pair_mask.sum())
    if n_pairs == 0:
        raise ShapeError("lifted_structure_loss: batch has no positive pairs")
    if not neg.any():
        raise ShapeError("lifted_structure_loss: batch has no negative pairs")
    neg_lse = logsumexp(margin - dist, axis=1, mask=neg)
    terms = (dist + neg_lse + neg_lse.t()).relu() * as_tensor(pair_mask.astype(np.float64))
    return terms.sum() * (1.0 / n_pairs)


def ranked_list_loss(dist, labels, alpha: float = 1.2, margin: float = 0.4) -> Tensor:
    """Mean over ordered pairs i != j of the N x N distance matrix D of
    (1-y_ij) * relu(alpha - D_ij) + y_ij * relu(D_ij - (alpha - margin))."""
    dist, labels = _check_dist(dist, labels, "ranked_list_loss")
    if not alpha > margin:
        raise ConfigError("ranked_list_loss: alpha must exceed margin")
    if labels.size < 2:
        raise ShapeError("ranked_list_loss: need at least 2 samples")
    pos, neg = _pair_masks(labels)
    pos_terms = (dist - (alpha - margin)).relu() * as_tensor(pos.astype(np.float64))
    neg_terms = (alpha - dist).relu() * as_tensor(neg.astype(np.float64))
    n = labels.size
    return (pos_terms + neg_terms).sum() * (1.0 / (n * (n - 1)))


# -- center prediction loss ---------------------------------------------------


def _canonical_order(cols: np.ndarray) -> np.ndarray:
    """Order of columns by lexicographic feature value (first row primary).

    Used so seeded random-point target choices commute with batch
    permutation: the draw attaches to the sample's rank within its class,
    not to its position in the batch.
    """
    return np.lexsort(tuple(cols[::-1]))


def cpl_targets(features, labels, target_mode: str = "leave-one-out-mean", seed: int = 0) -> Tensor:
    """Per-sample prediction targets c_i as a detached d x N constant.

    Computed from values only; no gradient ever flows through a target.

    Modes: leave-one-out-mean (mean of the other K-1 same-class samples),
    sample-mean (mean including self), random-point (seeded uniform draw
    among the other K-1), farthest-point (the same-class sample at greatest
    Euclidean distance, ties to the lowest batch index).
    """
    features, labels = _check_batch(features, labels, "cpl_targets")
    if target_mode not in TARGET_MODES:
        raise ConfigError(f"unknown target mode {target_mode!r}; expected one of {TARGET_MODES}")
    values = features.data
    targets = np.empty_like(values)
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        k = idx.size
        if k < 2:
            raise ShapeError(f"cpl_targets: identity {label} has {k} sample(s); need >= 2")
        z = values[:, idx]
        if target_mode == "leave-one-out-mean":
            total = z.sum(axis=1, keepdims=True)
            targets[:, idx] = (total - z) / (k - 1)
        elif target_mode == "sample-mean":
            targets[:, idx] = z.mean(axis=1, keepdims=True)
        elif target_mode == "farthest-point":
            dist = pairwise_distances(z, z)
            np.fill_diagonal(dist, -np.inf)
            targets[:, idx] = z[:, dist.argmax(axis=1)]  # ties: argmax takes the lowest index
        else:  # random-point
            order = _canonical_order(z)
            draws = substream(seed, f"cpl-random-target/{int(label)}").integers(0, k - 1, size=k)
            # rank r draws among the other k - 1 ranks: u < r as is, else u + 1
            targets[:, idx[order]] = z[:, order[draws + (draws >= np.arange(k))]]
    return Tensor(targets)


def cpl_loss(features, labels, targets, predictor=None) -> Tensor:
    """Center prediction loss: sum over classes of the per-class mean of
    ||f(x_i) - c_i||^2 with frozen targets c_i.

    targets is the d x N constant from `cpl_targets`; predictor=None means
    predictions are the embeddings themselves.

    The tail after the predictor is one autograd op that replays the
    composed graph sum(sum((preds - targets)^2, axis=0) * weights) bit for
    bit, weights being 1 / (class size) per column.
    """
    features, labels = _check_batch(features, labels, "cpl_loss")
    targets = as_tensor(targets)
    if targets.requires_grad:
        raise ConfigError("cpl_loss: targets must be constant (detached)")
    if targets.shape != features.shape:
        raise ShapeError("cpl_loss: targets shape mismatch")
    preds = predictor(features) if predictor is not None else features
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    weights = (1.0 / counts)[inverse][None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        diff = preds.data - targets.data
        sq = (diff * diff).sum(axis=0, keepdims=True)  # 1 x N

    def bw(g):
        t = np.broadcast_to(np.broadcast_to(g, sq.shape) * weights, diff.shape) * diff
        return (t + t,)

    return _make((sq * weights).sum().reshape(1, 1), (preds,), bw)
