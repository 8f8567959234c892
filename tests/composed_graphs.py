"""Every fused loss op written as the graph of autograd primitives it replays.

`pairwise_euclidean`, `id_cross_entropy`, the CPL tail and the center,
triplet, circle, lifted-structure and ranked-list losses are each one
autograd op whose forward and backward repeat these graphs' numpy
operations in the same order. These references are the composed forms
those ops replaced, kept so tests can check values, gradients and the
points where a `NumericsError` is raised, bit for bit.
"""

import numpy as np

from metriclab.autograd import as_tensor, gather_cols, gather_pairs, logsumexp, softplus
from metriclab.losses import _pair_masks, cpl_targets


def composed_pairwise(x):
    """pairwise_euclidean as a graph of autograd primitives."""
    x = as_tensor(x)
    gram = x.t() @ x
    sq = (x * x).sum(axis=0)
    d2 = (sq.t() + sq - 2.0 * gram).relu()
    zero_mask = (d2.data < 1e-12).astype(np.float64)
    return (d2 + as_tensor(zero_mask * 1e-16)).sqrt() * as_tensor(1.0 - zero_mask)


def composed_ce(logits, labels):
    """id_cross_entropy as a graph of autograd primitives."""
    logits = as_tensor(logits)
    n = logits.shape[1]
    return (logsumexp(logits, axis=0) - gather_pairs(logits, labels, np.arange(n))).mean()


def composed_cpl(features, labels, predictor=None):
    """cpl_loss (leave-one-out targets) with its tail as a graph of primitives."""
    features = as_tensor(features)
    targets = cpl_targets(features, labels)
    preds = predictor(features) if predictor is not None else features
    diff = preds - targets
    sq = (diff * diff).sum(axis=0)
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    return (sq * as_tensor((1.0 / counts)[inverse][None, :])).sum()


def composed_center(features, labels, centers):
    """center_loss as a graph of autograd primitives."""
    diff = as_tensor(features) - gather_cols(centers, labels)
    return 0.5 * (diff * diff).sum(axis=0).mean()


def composed_triplet(dist, labels, margin):
    """triplet_loss_batch_hard as a graph of autograd primitives."""
    dist = as_tensor(dist)
    pos, neg = _pair_masks(labels)
    hardest_pos = np.where(pos, dist.data, -np.inf).argmax(axis=1)
    hardest_neg = np.where(neg, dist.data, np.inf).argmin(axis=1)
    anchors = np.arange(len(labels))
    dp = gather_pairs(dist, anchors, hardest_pos)
    dn = gather_pairs(dist, anchors, hardest_neg)
    return (dp - dn + margin).relu().mean()


def composed_circle(features, labels, scale, margin):
    """circle_loss as a graph of autograd primitives."""
    features = as_tensor(features)
    pos, neg = _pair_masks(labels)
    norms = (features * features).sum(axis=0).sqrt()
    xn = features / norms
    sim = xn.t() @ xn
    z = logsumexp(scale * (sim + margin), axis=1, mask=neg) + logsumexp(-scale * sim, axis=1, mask=pos)
    return softplus(z).mean()


def composed_lifted(dist, labels, margin):
    """lifted_structure_loss as a graph of autograd primitives."""
    dist = as_tensor(dist)
    pos, neg = _pair_masks(labels)
    pair_mask = np.triu(pos, 1)
    neg_lse = logsumexp(margin - dist, axis=1, mask=neg)
    terms = (dist + neg_lse + neg_lse.t()).relu() * as_tensor(pair_mask.astype(np.float64))
    return terms.sum() * (1.0 / int(pair_mask.sum()))


def composed_rll(dist, labels, alpha, margin):
    """ranked_list_loss as a graph of autograd primitives."""
    dist = as_tensor(dist)
    pos, neg = _pair_masks(labels)
    pos_terms = (dist - (alpha - margin)).relu() * as_tensor(pos.astype(np.float64))
    neg_terms = (alpha - dist).relu() * as_tensor(neg.astype(np.float64))
    n = len(labels)
    return (pos_terms + neg_terms).sum() * (1.0 / (n * (n - 1)))
