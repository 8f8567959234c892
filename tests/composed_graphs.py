"""Every fused loss op written as the graph of primitives it replays.

`pairwise_euclidean`, `id_cross_entropy`, the CPL tail and the center,
triplet, circle, lifted-structure and ranked-list losses are each one
autograd op whose forward and backward repeat these graphs' numpy
operations in the same order. These references are the composed forms
those ops replaced, built from the test primitives in `primitives.py`, kept
so tests can check values, gradients and the points where a
`NumericsError` is raised, bit for bit.
"""

import numpy as np

from metriclab.autograd import as_tensor
from metriclab.losses import _pair_masks, cpl_targets

from primitives import add, div, gather_cols, gather_pairs, logsumexp, matmul, mul, relu, softplus
from primitives import sqrt, sub, tmean, transpose, tsum


def composed_pairwise(x):
    """pairwise_euclidean as a graph of primitives."""
    x = as_tensor(x)
    gram = matmul(transpose(x), x)
    sq = tsum(mul(x, x), axis=0)
    d2 = relu(sub(add(transpose(sq), sq), mul(gram, 2.0)))
    zero_mask = (d2.data < 1e-12).astype(np.float64)
    return mul(sqrt(add(d2, as_tensor(zero_mask * 1e-16))), as_tensor(1.0 - zero_mask))


def composed_ce(logits, labels):
    """id_cross_entropy as a graph of primitives."""
    logits = as_tensor(logits)
    n = logits.shape[1]
    return tmean(sub(logsumexp(logits, axis=0), gather_pairs(logits, labels, np.arange(n))))


def composed_cpl(features, labels, predictor=None):
    """cpl_loss (leave-one-out targets) with its tail as a graph of primitives."""
    features = as_tensor(features)
    targets = cpl_targets(features, labels)
    preds = predictor(features) if predictor is not None else features
    diff = sub(preds, targets)
    sq = tsum(mul(diff, diff), axis=0)
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    return tsum(mul(sq, as_tensor((1.0 / counts)[inverse][None, :])))


def composed_center(features, labels, centers):
    """center_loss as a graph of primitives."""
    diff = sub(as_tensor(features), gather_cols(centers, labels))
    return mul(tmean(tsum(mul(diff, diff), axis=0)), 0.5)


def composed_triplet(dist, labels, margin):
    """triplet_loss_batch_hard as a graph of primitives."""
    dist = as_tensor(dist)
    pos, neg = _pair_masks(labels)
    hardest_pos = np.where(pos, dist.data, -np.inf).argmax(axis=1)
    hardest_neg = np.where(neg, dist.data, np.inf).argmin(axis=1)
    anchors = np.arange(len(labels))
    dp = gather_pairs(dist, anchors, hardest_pos)
    dn = gather_pairs(dist, anchors, hardest_neg)
    return tmean(relu(add(sub(dp, dn), margin)))


def composed_circle(features, labels, scale, margin):
    """circle_loss as a graph of primitives."""
    features = as_tensor(features)
    pos, neg = _pair_masks(labels)
    norms = sqrt(tsum(mul(features, features), axis=0))
    xn = div(features, norms)
    sim = matmul(transpose(xn), xn)
    z = add(logsumexp(mul(add(sim, margin), scale), axis=1, mask=neg), logsumexp(mul(sim, -scale), axis=1, mask=pos))
    return tmean(softplus(z))


def composed_lifted(dist, labels, margin):
    """lifted_structure_loss as a graph of primitives."""
    dist = as_tensor(dist)
    pos, neg = _pair_masks(labels)
    pair_mask = np.triu(pos, 1)
    neg_lse = logsumexp(sub(margin, dist), axis=1, mask=neg)
    terms = mul(relu(add(add(dist, neg_lse), transpose(neg_lse))), as_tensor(pair_mask.astype(np.float64)))
    return mul(tsum(terms), 1.0 / int(pair_mask.sum()))


def composed_rll(dist, labels, alpha, margin):
    """ranked_list_loss as a graph of primitives."""
    dist = as_tensor(dist)
    pos, neg = _pair_masks(labels)
    pos_terms = mul(relu(sub(dist, alpha - margin)), as_tensor(pos.astype(np.float64)))
    neg_terms = mul(relu(sub(alpha, dist)), as_tensor(neg.astype(np.float64)))
    n = len(labels)
    return mul(tsum(add(pos_terms, neg_terms)), 1.0 / (n * (n - 1)))
