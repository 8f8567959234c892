"""Independent brute-force oracles, written straight from the loss and
metric definitions with plain python loops. Deliberately share no code with
the package: these are the second route in every dual-route check."""

import math

import numpy as np


def _dist(u, v):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))


def _cols(x):
    return [tuple(float(v) for v in x[:, i]) for i in range(x.shape[1])]


def oracle_cross_entropy(logits, labels):
    total = 0.0
    for i, y in enumerate(labels):
        col = [float(v) for v in logits[:, i]]
        denom = sum(math.exp(v) for v in col)
        total += -math.log(math.exp(col[y]) / denom)
    return total / len(labels)


def oracle_center(features, labels, centers):
    pts = _cols(features)
    total = 0.0
    for i, y in enumerate(labels):
        c = tuple(float(v) for v in centers[:, y])
        total += _dist(pts[i], c) ** 2
    return 0.5 * total / len(labels)


def oracle_triplet_batch_hard(features, labels, margin):
    pts = _cols(features)
    n = len(labels)
    total = 0.0
    for a in range(n):
        pos = [_dist(pts[a], pts[j]) for j in range(n) if j != a and labels[j] == labels[a]]
        neg = [_dist(pts[a], pts[j]) for j in range(n) if labels[j] != labels[a]]
        total += max(0.0, max(pos) - min(neg) + margin)
    return total / n


def oracle_circle(features, labels, scale, margin):
    norms = [math.sqrt(sum(v * v for v in col)) for col in _cols(features)]
    unit = [
        tuple(v / nv for v in col) for col, nv in zip(_cols(features), norms)
    ]
    n = len(labels)
    total = 0.0
    for a in range(n):
        sp = [
            sum(u * v for u, v in zip(unit[a], unit[j]))
            for j in range(n)
            if j != a and labels[j] == labels[a]
        ]
        sn = [
            sum(u * v for u, v in zip(unit[a], unit[j]))
            for j in range(n)
            if labels[j] != labels[a]
        ]
        s_neg = sum(math.exp(scale * (s + margin)) for s in sn)
        s_pos = sum(math.exp(-scale * s) for s in sp)
        total += math.log(1.0 + s_neg * s_pos)
    return total / n


def oracle_lifted(features, labels, margin):
    pts = _cols(features)
    n = len(labels)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if labels[i] == labels[j]]
    total = 0.0
    for i, j in pairs:
        neg_i = sum(
            math.exp(margin - _dist(pts[i], pts[k])) for k in range(n) if labels[k] != labels[i]
        )
        neg_j = sum(
            math.exp(margin - _dist(pts[j], pts[k])) for k in range(n) if labels[k] != labels[j]
        )
        term = _dist(pts[i], pts[j]) + math.log(neg_i) + math.log(neg_j)
        total += max(0.0, term)
    return total / len(pairs)


def oracle_rll(features, labels, alpha, margin):
    pts = _cols(features)
    n = len(labels)
    total = 0.0
    count = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = _dist(pts[i], pts[j])
            if labels[i] == labels[j]:
                total += max(0.0, d - (alpha - margin))
            else:
                total += max(0.0, alpha - d)
            count += 1
    return total / count


def oracle_cpl(features, labels, pred_fn=None, mode="leave-one-out-mean"):
    """CPL with deterministic target modes; pred_fn maps a column tuple to a
    predicted tuple (identity if None)."""
    pts = _cols(features)
    n = len(labels)
    d = features.shape[0]
    targets = [None] * n
    for label in sorted(set(labels)):
        members = [i for i in range(n) if labels[i] == label]
        for i in members:
            others = [pts[j] for j in members if j != i]
            if mode == "leave-one-out-mean":
                targets[i] = tuple(sum(o[r] for o in others) / len(others) for r in range(d))
            elif mode == "sample-mean":
                allm = [pts[j] for j in members]
                targets[i] = tuple(sum(o[r] for o in allm) / len(allm) for r in range(d))
            elif mode == "farthest-point":
                dists = [(_dist(pts[i], pts[j]), j) for j in members if j != i]
                best = max(dists, key=lambda t: t[0])[0]
                j = min(j for dd, j in dists if dd == best)
                targets[i] = pts[j]
            else:
                raise ValueError(mode)
    total = 0.0
    for label in sorted(set(labels)):
        members = [i for i in range(n) if labels[i] == label]
        class_sum = 0.0
        for i in members:
            pred = pred_fn(pts[i]) if pred_fn is not None else pts[i]
            class_sum += _dist(pred, targets[i]) ** 2
        total += class_sum / len(members)
    return total


def oracle_retrieval(query_feats, query_labels, gallery_feats, gallery_labels):
    """Per-query AP and CMC of the L2-normalized features, computed by
    explicit ranked-list walking.

    Returns (mean_ap, cmc_array, excluded_query_indices)."""
    qs = _cols(np.asarray(query_feats, dtype=float))
    gs = _cols(np.asarray(gallery_feats, dtype=float))
    qs = [tuple(v / math.sqrt(sum(w * w for w in c)) for v in c) for c in qs]
    gs = [tuple(v / math.sqrt(sum(w * w for w in c)) for v in c) for c in gs]
    n_g = len(gs)
    aps = []
    first_hits = []
    excluded = []
    for qi, q in enumerate(qs):
        scored = sorted(
            ((_dist(q, g), gi) for gi, g in enumerate(gs)), key=lambda t: (t[0], t[1])
        )
        rel_total = sum(1 for gi in range(n_g) if gallery_labels[gi] == query_labels[qi])
        if rel_total == 0:
            excluded.append(qi)
            continue
        hits = 0
        precisions = []
        first = None
        for rank, (_, gi) in enumerate(scored, start=1):
            if gallery_labels[gi] == query_labels[qi]:
                hits += 1
                precisions.append(hits / rank)
                if first is None:
                    first = rank
        aps.append(sum(precisions) / rel_total)
        first_hits.append(first)
    cmc = np.zeros(n_g)
    for k in range(1, n_g + 1):
        cmc[k - 1] = sum(1 for f in first_hits if f <= k) / len(first_hits)
    return (sum(aps) / len(aps), cmc, excluded)
