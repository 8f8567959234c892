"""Retrieval evaluation: pairwise distances, per-query average precision,
and cumulative match characteristic curves.

Ranking sorts gallery items by ascending distance with ties broken by
gallery index (stable sort). AP for a query is the mean over its relevant
gallery items of (relevant-seen-so-far / rank); queries with no relevant
gallery item are excluded from the averages and reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

__all__ = ["l2_normalize", "pairwise_distances", "evaluate_retrieval", "RankingResult"]


def l2_normalize(x: np.ndarray) -> np.ndarray:
    """Every column scaled to unit Euclidean norm; a zero column is a ShapeError."""
    norms = np.linalg.norm(x, axis=0, keepdims=True)
    if np.any(norms == 0.0):
        raise ShapeError("cannot L2-normalize a zero feature vector")
    return x / norms


def pairwise_distances(query: np.ndarray, gallery: np.ndarray, normalize: bool = False) -> np.ndarray:
    """Nq x Ng Euclidean distances between columns, optionally after
    L2-normalizing every column."""
    query = np.asarray(query, dtype=np.float64)
    gallery = np.asarray(gallery, dtype=np.float64)
    if query.ndim != 2 or gallery.ndim != 2:
        raise ShapeError("pairwise_distances expects 2-D matrices")
    if query.shape[0] != gallery.shape[0]:
        raise ShapeError(
            f"feature dims differ: query {query.shape[0]}, gallery {gallery.shape[0]}"
        )
    if normalize:
        query, gallery = l2_normalize(query), l2_normalize(gallery)
    q2 = (query * query).sum(axis=0)[:, None]
    g2 = (gallery * gallery).sum(axis=0)[None, :]
    d2 = np.maximum(q2 + g2 - 2.0 * (query.T @ gallery), 0.0)
    return np.sqrt(d2)


@dataclass
class RankingResult:
    """Per-query ranking plus the aggregate curves."""

    order: np.ndarray  # Nq x Ng gallery indices, best first
    ap: np.ndarray  # per query; NaN for excluded queries
    first_hit: np.ndarray  # 1-based rank of first relevant; 0 for excluded
    cmc: np.ndarray  # cmc[k-1] = P(first hit <= k), over evaluated queries
    excluded: list = field(default_factory=list)  # query indices with no relevant item

    @property
    def mean_ap(self) -> float:
        return float(np.nanmean(self.ap))

    def rank_k(self, k: int) -> float:
        return float(self.cmc[min(k, len(self.cmc)) - 1])

    def summary(self) -> dict:
        return {
            "map": self.mean_ap,
            "rank1": self.rank_k(1),
            "rank5": self.rank_k(5),
            "queries": int(self.ap.size),
            "excluded": len(self.excluded),
        }


def evaluate_retrieval(
    query_features,
    query_labels,
    gallery_features,
    gallery_labels,
    normalize: bool = True,
) -> RankingResult:
    query_labels = np.asarray(query_labels)
    gallery_labels = np.asarray(gallery_labels)
    dist = pairwise_distances(query_features, gallery_features, normalize=normalize)
    nq, ng = dist.shape
    if query_labels.shape != (nq,) or gallery_labels.shape != (ng,):
        raise ShapeError("label arrays must match query/gallery counts")
    # stable ascending sort: equal distances keep gallery-index order
    order = np.argsort(dist, axis=1, kind="stable")
    ap = np.full(nq, np.nan)
    first_hit = np.zeros(nq, dtype=np.int64)
    excluded = []
    for qi in range(nq):
        rel = gallery_labels[order[qi]] == query_labels[qi]
        total_rel = int(rel.sum())
        if total_rel == 0:
            excluded.append(qi)
            continue
        positions = np.flatnonzero(rel) + 1  # 1-based ranks of relevant items
        hits = np.arange(1, total_rel + 1)
        ap[qi] = float((hits / positions).mean())
        first_hit[qi] = int(positions[0])
    evaluated = first_hit[first_hit > 0]
    if evaluated.size == 0:
        raise ShapeError("every query has zero relevant gallery items")
    counts = np.bincount(evaluated, minlength=ng + 1)[1:]
    cmc = np.cumsum(counts) / evaluated.size
    return RankingResult(order=order, ap=ap, first_hit=first_hit, cmc=cmc, excluded=excluded)
