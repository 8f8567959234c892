import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.errors import NumericsError, ShapeError
from metriclab.metrics import evaluate_retrieval, l2_normalize, pairwise_distances

from reference_impls import oracle_retrieval


def _unit(*angles):
    """2 x n unit columns at the given angles in radians; the chord between
    two of them grows with the angle between them up to pi."""
    angles = np.array(angles)
    return np.stack([np.cos(angles), np.sin(angles)])


def test_pairwise_pythagorean():
    q = np.array([[0.0], [0.0]])
    g = np.array([[3.0, 0.0], [0.0, 4.0]])
    d = pairwise_distances(q, g)
    assert np.allclose(d, [[3.0, 4.0]], atol=1e-12)
    both = pairwise_distances(g, g)
    assert both[0, 1] == pytest.approx(5.0, rel=1e-12)


def test_pairwise_normalized():
    q = np.array([[2.0], [0.0]])
    g = np.array([[0.0], [3.0]])
    d = pairwise_distances(l2_normalize(q), l2_normalize(g))
    assert d[0, 0] == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_pairwise_dim_mismatch():
    with pytest.raises(ShapeError):
        pairwise_distances(np.zeros((2, 1)), np.zeros((3, 1)))


@pytest.mark.parametrize("column", [(3e200, 4e200), (3e-170, 4e-170)], ids=["norm-overflows", "norm-underflows"])
def test_l2_normalize_refuses_a_column_whose_norm_leaves_float64(column):
    # the squares overflow to an infinite norm, or underflow to a zero one
    with pytest.raises(NumericsError, match="^l2_normalize:"):
        l2_normalize(np.array([[1.0, column[0]], [0.0, column[1]]]))


def test_l2_normalize_refuses_a_zero_column():
    with pytest.raises(ShapeError, match="zero feature vector"):
        l2_normalize(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_ap_hits_at_ranks_one_and_three():
    # gallery laid out so the two relevant items land at ranks 1 and 3
    q = _unit(0.0)
    g = _unit(0.1, 0.2, 0.3, 0.4)
    ql = np.array([0])
    gl = np.array([0, 1, 0, 1])
    res = evaluate_retrieval(q, ql, g, gl)
    assert res.ap[0] == pytest.approx(5.0 / 6.0, rel=1e-12)
    assert res.rank_k(1) == 1.0


def test_perfect_ranking_map_one():
    q = _unit(0.0, 1.5)
    g = _unit(0.1, 0.2, 1.6, 1.7)
    res = evaluate_retrieval(q, np.array([0, 1]), g, np.array([0, 0, 1, 1]))
    assert res.mean_ap == pytest.approx(1.0)
    assert res.rank_k(1) == 1.0


def test_ties_break_by_gallery_index():
    q = _unit(0.0)
    g = _unit(1.0, 1.0, 1.0)  # all tied
    res = evaluate_retrieval(q, np.array([0]), g, np.array([1, 0, 1]))
    # gallery index order puts the one relevant item (index 1) at rank 2
    assert res.rank_k(1) == 0.0
    assert res.rank_k(2) == 1.0
    assert res.ap[0] == 0.5
    # and index 0 at rank 1
    assert evaluate_retrieval(q, np.array([0]), g, np.array([0, 1, 1])).rank_k(1) == 1.0


def test_cmc_monotone_and_ends_at_one():
    rng = np.random.default_rng(3)
    q = rng.normal(0, 1, (4, 6))
    g = rng.normal(0, 1, (4, 20))
    ql = rng.integers(0, 3, 6)
    gl = np.concatenate([np.arange(3), rng.integers(0, 3, 17)])
    res = evaluate_retrieval(q, ql, g, gl)
    assert (np.diff(res.cmc) >= -1e-15).all()
    assert res.cmc[-1] == pytest.approx(1.0)


def test_queries_without_relevant_are_excluded():
    q = _unit(0.0, 1.0)
    g = _unit(0.5, 0.6)
    res = evaluate_retrieval(q, np.array([0, 9]), g, np.array([0, 0]))
    assert res.excluded == [1]
    assert np.isnan(res.ap[1])
    assert res.mean_ap == pytest.approx(res.ap[0])


@pytest.mark.parametrize("seed", range(12))
def test_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    nq, ng = rng.integers(2, 8), rng.integers(4, 32)
    q = rng.normal(0, 1, (3, nq))
    g = rng.normal(0, 1, (3, ng))
    ql = rng.integers(0, 4, nq)
    gl = rng.integers(0, 4, ng)
    if not np.isin(ql, gl).any():
        gl[0] = ql[0]
    res = evaluate_retrieval(q, ql, g, gl)
    o_map, o_cmc, o_excluded = oracle_retrieval(q, ql, g, gl)
    assert res.mean_ap == pytest.approx(o_map, abs=1e-12)
    assert np.allclose(res.cmc, o_cmc, atol=1e-12)
    assert res.excluded == o_excluded


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), perm_seed=st.integers(0, 10_000))
def test_relabeling_bijection_preserves_metrics(seed, perm_seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(0, 1, (3, 5))
    g = rng.normal(0, 1, (3, 12))
    ql = rng.integers(0, 3, 5)
    gl = np.concatenate([np.arange(3), rng.integers(0, 3, 9)])
    mapping = np.random.default_rng(perm_seed).permutation(3)
    base = evaluate_retrieval(q, ql, g, gl)
    relabeled = evaluate_retrieval(q, mapping[ql], g, mapping[gl])
    assert relabeled.mean_ap == pytest.approx(base.mean_ap, abs=1e-12)
    assert np.allclose(relabeled.cmc, base.cmc, atol=1e-12)
