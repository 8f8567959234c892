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

Every loss, `pairwise_euclidean` and the CPL tail is one autograd op that
replays its composed graph of primitives: the forward runs the graph's numpy
operations in the same order, and the backward returns the composed sweep's
gradient terms, an input read more than once being a parent once per use in
the order that sweep accumulated them. Values and gradients are bit-identical
to the composed graph's, and a NumericsError, named by the loss, is raised
wherever one of the graph's checks would have fired. So besides its output,
an op checks (`check_finite`) each intermediate whose non-finite entries a
relu, a mask or a division downstream can hide.

Each op checks its labels and shapes, builds the label structure (the pair
masks of a distance loss, the CPL weight row), then calls its numpy forward
(`_pairwise_forward`, `_ce_forward`, ..., `_cpl_forward`), which makes the
intermediate checks and returns the value and what the op's 2-D backward
reads; the op's `_make` checks the output. A forward reads trailing axes
(`axis=-2/-1`, a swap of the last two axes, a per-slice gather, a total over
the last two axes), so it broadcasts over a leading stack axis: a P x r x c
stack of inputs gives P totals, each bit-identical to the 2-D run on its
slice, which is how gradcheck runs every perturbation of a leaf in one call.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, _make, _unbroadcast, as_tensor, check_finite
from .errors import ConfigError, NumericsError, ShapeError
from .metrics import pairwise_distances
from .sampling import group_labels
from .seeding import substream

__all__ = [
    "id_cross_entropy",
    "center_loss",
    "triplet_loss_batch_hard",
    "circle_loss",
    "lifted_structure_loss",
    "ranked_list_loss",
    "cpl_targets",
    "cpl_weights",
    "cpl_objective",
    "cpl_loss",
    "TARGET_MODES",
    "pairwise_euclidean",
]

TARGET_MODES = ("leave-one-out-mean", "random-point", "farthest-point", "sample-mean")


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
    out, (xt, diff, keep, root) = _pairwise_forward(xd)
    n = xd.shape[1]

    def bw(g):
        g_diff = g * keep * 0.5 / root * (diff > 0.0)
        g_gram = -g_diff * 2.0
        g_sq = _unbroadcast(g_diff, (1, n)) + _unbroadcast(g_diff, (n, 1)).T
        # a non-finite intermediate gradient of the composed graph reaches
        # g_gram or g_sq, and from there an x term (inf * 0 is nan), where
        # backward's finiteness check sees it
        t_sq = g_sq * xd
        # xt.T, as the composed matmul read its operand from the transpose's copy
        return t_sq, t_sq, xt.T @ g_gram, (g_gram @ xd.T).T

    return _make(out, (x, x, x, x), bw)


def _pairwise_forward(xd):
    """`pairwise_euclidean`'s numpy forward: (distances, (xt, diff, keep, root))."""
    with np.errstate(over="ignore", invalid="ignore"):
        xt = xd.swapaxes(-1, -2).copy()
        gram = xt @ xd
        sq = (xd * xd).sum(axis=-2, keepdims=True)  # 1 x N
        diff = sq.swapaxes(-1, -2) + sq - gram * 2.0
    # a non-finite square, gram entry or sum reaches diff, but relu would
    # turn a -inf into 0 and hide it from the output check
    check_finite(diff, "pairwise_euclidean", "squared distances are not finite")
    sq_dist = np.maximum(diff, 0.0)  # relu clips negative rounding noise
    zero_mask = (sq_dist < 1e-12).astype(np.float64)
    keep = 1.0 - zero_mask
    root = np.sqrt(sq_dist + zero_mask * 1e-16)
    return root * keep, (xt, diff, keep, root)


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
    total, (e, s, cols, scale) = _ce_forward(x, labels)

    def bw(g):
        g_per_sample = np.broadcast_to(g * scale, (1, n))
        g_true = np.zeros_like(x)
        np.add.at(g_true, (labels, cols), -g_per_sample[0])
        return (g_per_sample / s) * e, g_true

    return _make(total, (logits, logits), bw)


def _ce_forward(x, labels):
    """`id_cross_entropy`'s numpy forward: (total, (e, s, cols, scale))."""
    cols = np.arange(labels.size)
    scale = 1.0 / labels.size
    with np.errstate(over="ignore", invalid="ignore"):  # surfaces in the output check
        m = np.max(x, axis=-2, keepdims=True)
        e = np.exp(x - m)
        s = e.sum(axis=-2, keepdims=True)
        per_sample = m + np.log(s) - x[..., labels, cols][..., None, :]  # 1 x N
        total = per_sample.sum(axis=(-2, -1), keepdims=True) * scale
    return total, (e, s, cols, scale)


def center_loss(features, labels, centers) -> Tensor:
    """0.5 * mean over samples of squared distance to their class center.

    centers is a d x C matrix (one learnable column per class); gradients
    flow into both features and centers.

    One autograd op that replays the composed graph
    0.5 * mean(sum((features - centers[:, labels])^2, axis=0)) bit for bit.
    """
    features, labels = _check_batch(features, labels, "center_loss")
    centers = as_tensor(centers)
    if centers.shape[0] != features.shape[0]:
        raise ShapeError("center_loss: feature dim and center dim differ")
    if labels.max() >= centers.shape[1]:
        raise ShapeError(f"center_loss: no center for label {labels.max()}")
    if labels.min() < 0:
        raise ShapeError(f"center_loss: no center for label {labels.min()}")
    total, (diff, scale) = _center_forward(features.data, centers.data, labels)

    def bw(g):
        t = g * 0.5 * scale * diff
        g_diff = t + t  # the square's two factors
        g_centers = np.zeros_like(centers.data)
        np.add.at(g_centers, (slice(None), labels), -g_diff)
        return g_diff, g_centers

    return _make(total, (features, centers), bw)


def _center_forward(x, c, labels):
    """`center_loss`'s numpy forward: (total, (diff, scale))."""
    scale = 1.0 / labels.size
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite term reaches the output
        diff = x - c[..., labels]
        per_sample = (diff * diff).sum(axis=-2, keepdims=True)
        total = per_sample.sum(axis=(-2, -1), keepdims=True) * scale * 0.5
    return total, (diff, scale)


# -- pairwise losses ----------------------------------------------------------


def _pair_masks(labels: np.ndarray):
    """(pos, neg): same label off the diagonal, and different label."""
    pos = labels[:, None] == labels[None, :]
    neg = ~pos
    np.fill_diagonal(pos, False)
    return pos, neg


def _check_dist(dist, labels, opname: str):
    """D and labels of a distance loss: D square, one label per column."""
    dist, labels = _check_batch(dist, labels, opname)
    if dist.shape[0] != dist.shape[1]:
        raise ShapeError(f"{opname}: distance matrix must be N x N, got {dist.shape}")
    return dist, labels


def _masked_lse(x, mask):
    """Forward of logsumexp(x, axis=-1, mask=mask): the N x 1 result plus the
    exponentials and their row sums, which its backward reads."""
    m = np.maximum.reduce(x, axis=-1, keepdims=True, initial=-np.inf, where=mask)
    # exp(-inf) is numpy's slow path, so the masked zeros are written directly
    e = np.exp(x - m, out=np.zeros_like(x), where=mask)
    s = e.sum(axis=-1, keepdims=True)
    return m + np.log(s), e, s


def triplet_loss_batch_hard(dist, labels, margin: float) -> Tensor:
    """Batch-hard triplet on the N x N distance matrix D: per anchor, the
    hardest positive and hardest negative, hinge at the margin, mean over
    anchors.

    One autograd op that replays the composed graph
    mean(relu(D[a, p(a)] - D[a, n(a)] + margin)) bit for bit; D is a parent
    once per gather, positives first.
    """
    dist, labels = _check_dist(dist, labels, "triplet_loss_batch_hard")
    pos, neg = _pair_masks(labels)
    if not pos.any(axis=1).all():
        raise ShapeError("triplet: every anchor needs at least one positive (identity with >= 2 samples)")
    if not neg.any(axis=1).all():
        raise ShapeError("triplet: every anchor needs at least one negative (>= 2 identities)")
    dvals = dist.data
    total, (hinge, hardest_pos, hardest_neg, scale) = _triplet_forward(dvals, pos, neg, margin)

    def bw(g):
        anchors = np.arange(labels.size)
        g_hinge = g * scale * (hinge > 0.0)
        g_pos, g_neg = np.zeros_like(dvals), np.zeros_like(dvals)
        # one entry per anchor row, so += adds as the composed np.add.at did
        g_pos[anchors, hardest_pos] += g_hinge[0]
        g_neg[anchors, hardest_neg] += -g_hinge[0]
        return g_pos, g_neg

    return _make(total, (dist, dist), bw)


def _row_picks(d, cols):
    """The 1 x N row of d[a, cols[a]] over the rows a of d, per slice of a stack."""
    rows = np.arange(d.shape[-2])
    index = (rows, cols) if d.ndim == 2 else (np.arange(len(d))[:, None], rows, cols)
    return d[index][..., None, :]


def _triplet_forward(d, pos, neg, margin):
    """`triplet_loss_batch_hard`'s numpy forward: (total, (hinge, hardest_pos,
    hardest_neg, scale))."""
    # mining happens on values; ties resolve to the lowest index via argmax/argmin
    hardest_pos = np.where(pos, d, -np.inf).argmax(axis=-1)
    hardest_neg = np.where(neg, d, np.inf).argmin(axis=-1)
    scale = 1.0 / d.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        hinge = _row_picks(d, hardest_pos) - _row_picks(d, hardest_neg) + margin
        total = np.maximum(hinge, 0.0).sum(axis=(-2, -1), keepdims=True) * scale
    check_finite(hinge, "triplet_loss_batch_hard")  # relu would turn a -inf into 0
    return total, (hinge, hardest_pos, hardest_neg, scale)


def circle_loss(features, labels, scale: float, margin: float) -> Tensor:
    """Mean over anchors of log(1 + sum_j exp(s*(sn_j + m)) * sum_i exp(-s*sp_i))
    on cosine similarities of L2-normalized embeddings.

    Computed row-wise on the N x N similarity matrix S as
    softplus(logsumexp_neg(s*(S + m)) + logsumexp_pos(-s*S)), each
    logsumexp masked to the anchor's negatives or positives.

    One autograd op that replays that composed graph bit for bit, with
    S = xn^T xn for xn = features / sqrt(sum(features^2, axis=0)); features
    is a parent once for the division and once per factor of the square,
    the order in which the composed sweep reached them.
    """
    features, labels = _check_batch(features, labels, "circle_loss")
    if scale <= 0:
        raise ConfigError("circle_loss: scale must be positive")
    pos, neg = _pair_masks(labels)
    if not pos.any(axis=1).all():
        raise ShapeError("circle_loss: an anchor has no positives")
    if not neg.any(axis=1).all():
        raise ShapeError("circle_loss: an anchor has no negatives")
    x = features.data
    n = labels.size
    total, (norms, xn, xt, z, e_z, e_z1, e_neg, s_neg, e_pos, s_pos) = _circle_forward(x, pos, neg, scale, margin)

    def bw(g):
        g_anchor = g * (1.0 / n)
        g_z = g_anchor * (z > 0.0) + (g_anchor / e_z1 * e_z * -1.0) * np.sign(z)
        g_sim = (g_z / s_neg) * e_neg * scale + (g_z / s_pos) * e_pos * -scale
        g_xn = xt.T @ g_sim + (g_sim @ xn.T).T
        g_norms = (-g_xn * x / (norms * norms)).sum(axis=0, keepdims=True)
        t_sq = g_norms * 0.5 / norms * x
        return g_xn / norms, t_sq, t_sq

    return _make(total, (features, features, features), bw)


def _circle_forward(x, pos, neg, scale, margin):
    """`circle_loss`'s numpy forward: (total, (norms, xn, xt, z, e_z, e_z1,
    e_neg, s_neg, e_pos, s_pos))."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (x * x).sum(axis=-2, keepdims=True)
        check_finite(sq, "circle_loss")  # the division would turn an infinite norm into zeros
        norms = np.sqrt(sq)
        if np.any(norms == 0.0):
            raise NumericsError("circle_loss: a column has zero norm")
        xn = x / norms
        xt = xn.swapaxes(-1, -2).copy()
        sim = xt @ xn
        # masked entries leave the logsumexps, and softplus maps -inf to 0
        pos_arg = (sim + margin) * scale
        check_finite(pos_arg, "circle_loss")
        neg_arg = sim * -scale
        check_finite(neg_arg, "circle_loss")
        lse_neg, e_neg, s_neg = _masked_lse(pos_arg, neg)
        lse_pos, e_pos, s_pos = _masked_lse(neg_arg, pos)
        z = lse_neg + lse_pos
        check_finite(z, "circle_loss")
        # softplus as relu(z) + log(exp(-|z|) + 1)
        e_z = np.exp(np.abs(z) * -1.0)
        e_z1 = e_z + 1.0
        per_anchor = np.maximum(z, 0.0) + np.log(e_z1)
        total = per_anchor.sum(axis=(-2, -1), keepdims=True) * (1.0 / x.shape[-1])
    return total, (norms, xn, xt, z, e_z, e_z1, e_neg, s_neg, e_pos, s_pos)


def lifted_structure_loss(dist, labels, margin: float) -> Tensor:
    """Mean over positive pairs (i < j) of
    relu(D_ij + log sum_k exp(m - D_ik) + log sum_l exp(m - D_jl)),
    k and l ranging over the negatives of i and of j.

    Computed on the N x N distance matrix D with the row-wise masked
    L = logsumexp_neg(m - D) (N x 1): relu(D + L + L^T) summed over the
    strict upper triangle of the positive mask. One autograd op that
    replays that composed graph bit for bit; D is a parent for the direct
    term, then for m - D.
    """
    dist, labels = _check_dist(dist, labels, "lifted_structure_loss")
    pos, neg = _pair_masks(labels)
    if not pos.any():  # pos is symmetric: a positive pair has one entry above the diagonal
        raise ShapeError("lifted_structure_loss: batch has no positive pairs")
    if not neg.any():
        raise ShapeError("lifted_structure_loss: batch has no negative pairs")
    total, (hinge, weights, n_pairs, e, s) = _lifted_forward(dist.data, pos, neg, margin)

    def bw(g):
        g_hinge = g * (1.0 / n_pairs) * weights * (hinge > 0.0)
        g_lse = g_hinge.sum(axis=1, keepdims=True) + g_hinge.sum(axis=0, keepdims=True).T
        return g_hinge, -((g_lse / s) * e)

    return _make(total, (dist, dist), bw)


def _lifted_forward(d, pos, neg, margin):
    """`lifted_structure_loss`'s numpy forward: (total, (hinge, weights,
    n_pairs, e, s)), weights marking the positive pairs i < j."""
    order = np.arange(d.shape[-1])
    pair_mask = pos & (order[:, None] < order)  # the strict upper triangle
    n_pairs = int(pair_mask.sum())
    weights = pair_mask.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = margin - d
        check_finite(shifted, "lifted_structure_loss")  # the mask drops entries
        lse, e, s = _masked_lse(shifted, neg)
        hinge = d + lse + lse.swapaxes(-1, -2)
        check_finite(hinge, "lifted_structure_loss")  # relu would turn a -inf into 0
        total = (np.maximum(hinge, 0.0) * weights).sum(axis=(-2, -1), keepdims=True) * (1.0 / n_pairs)
    return total, (hinge, weights, n_pairs, e, s)


def ranked_list_loss(dist, labels, alpha: float, margin: float) -> Tensor:
    """Mean over ordered pairs i != j of the N x N distance matrix D of
    (1-y_ij) * relu(alpha - D_ij) + y_ij * relu(D_ij - (alpha - margin)).

    One autograd op that replays that composed graph bit for bit; D is a
    parent for the positive term, then for the negative one.
    """
    dist, labels = _check_dist(dist, labels, "ranked_list_loss")
    if not alpha > margin:
        raise ConfigError("ranked_list_loss: alpha must exceed margin")
    if labels.size < 2:
        raise ShapeError("ranked_list_loss: need at least 2 samples")
    total, (pos_arg, neg_arg, pos_w, neg_w, scale) = _ranked_forward(dist.data, *_pair_masks(labels), alpha, margin)

    def bw(g):
        g_terms = g * scale
        return g_terms * pos_w * (pos_arg > 0.0), -(g_terms * neg_w * (neg_arg > 0.0))

    return _make(total, (dist, dist), bw)


def _ranked_forward(d, pos, neg, alpha, margin):
    """`ranked_list_loss`'s numpy forward: (total, (pos_arg, neg_arg, pos_w,
    neg_w, scale))."""
    pos_w, neg_w = pos.astype(np.float64), neg.astype(np.float64)
    n = d.shape[-1]
    scale = 1.0 / (n * (n - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        pos_arg = d - (alpha - margin)
        neg_arg = alpha - d
        terms = np.maximum(pos_arg, 0.0) * pos_w + np.maximum(neg_arg, 0.0) * neg_w
        total = terms.sum(axis=(-2, -1), keepdims=True) * scale
    # relu would turn a -inf into 0
    check_finite(pos_arg, "ranked_list_loss")
    check_finite(neg_arg, "ranked_list_loss")
    return total, (pos_arg, neg_arg, pos_w, neg_w, scale)


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
    Euclidean distance, ties to the lowest batch index). Every mode but
    sample-mean reads another same-class sample, so needs >= 2 per identity.
    A target that overflows raises NumericsError.
    """
    features, labels = _check_batch(features, labels, "cpl_targets")
    if target_mode not in TARGET_MODES:
        raise ConfigError(f"unknown target mode {target_mode!r}; expected one of {TARGET_MODES}")
    values = features.data
    targets = np.empty_like(values)
    ids, grouped, starts = group_labels(labels)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        for label, lo, hi in zip(ids.tolist(), starts[:-1], starts[1:]):
            idx = grouped[lo:hi]
            k = idx.size
            if k < 2 and target_mode != "sample-mean":
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
                draws = substream(seed, f"cpl-random-target/{label}").integers(0, k - 1, size=k)
                # rank r draws among the other k - 1 ranks: u < r as is, else u + 1
                targets[:, idx[order]] = z[:, order[draws + (draws >= np.arange(k))]]
    check_finite(targets, "cpl_targets", "targets are not finite")
    return Tensor(targets)


def cpl_weights(labels) -> np.ndarray:
    """1 x N row of CPL column weights: 1 / (class size) for each column."""
    _, order, starts = group_labels(labels)
    counts = np.diff(starts)
    weights = np.empty((1, order.size))
    weights[0, order] = np.repeat(1.0 / counts, counts)
    return weights


def cpl_objective(features, labels, targets):
    """The CPL of one fixed batch as a function of the predictor.

    Checks the inputs and builds the weight row once; each call of the
    returned `loss(predictor=None)` runs only the predictor and the one-op
    tail, so a refit over a fixed batch pays for neither again.
    """
    features, labels = _check_batch(features, labels, "cpl_loss")
    targets = as_tensor(targets)
    if targets.requires_grad:
        raise ConfigError("cpl_loss: targets must be constant (detached)")
    if targets.shape != features.shape:
        raise ShapeError("cpl_loss: targets shape mismatch")
    weights = cpl_weights(labels)
    target_values = targets.data

    def loss(predictor=None) -> Tensor:
        preds = predictor(features) if predictor is not None else features
        total, diff = _cpl_forward(preds.data, target_values, weights)

        def bw(g):
            t = g * weights * diff
            return (t + t,)

        bw.__qualname__ = "cpl_loss.<locals>.bw"  # failures name the op, not this helper
        return _make(total, (preds,), bw)

    return loss


def _cpl_forward(preds, targets, weights):
    """The CPL tail's numpy forward: (total, preds - targets)."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = preds - targets
        sq = (diff * diff).sum(axis=-2, keepdims=True)  # 1 x N
        total = (sq * weights).sum(axis=(-2, -1), keepdims=True)
    return total, diff


def cpl_loss(features, labels, targets, predictor=None) -> Tensor:
    """Center prediction loss: sum over classes of the per-class mean of
    ||f(x_i) - c_i||^2 with frozen targets c_i.

    targets is the d x N constant from `cpl_targets`; predictor=None means
    predictions are the embeddings themselves.

    The tail after the predictor is one autograd op that replays the
    composed graph sum(sum((preds - targets)^2, axis=0) * weights) bit for
    bit, weights being `cpl_weights(labels)`.
    """
    return cpl_objective(features, labels, targets)(predictor)
