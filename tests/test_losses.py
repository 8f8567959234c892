import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.autograd import Tensor, as_tensor, backward, check_finite
from metriclab.config import LossConfig
from metriclab.errors import ConfigError, NumericsError, ShapeError
from metriclab.losses import (
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
from metriclab.nn import CenterPredictor, Linear

from composed_graphs import (
    composed_ce,
    composed_center,
    composed_circle,
    composed_cpl,
    composed_lifted,
    composed_pairwise,
    composed_rll,
    composed_triplet,
)
from fd_utils import central_diff, max_rel_err
from primitives import add, mul, tsum
from reference_impls import (
    oracle_center,
    oracle_circle,
    oracle_cpl,
    oracle_cross_entropy,
    oracle_lifted,
    oracle_rll,
    oracle_triplet_batch_hard,
)


def random_batch(seed, dim=3, p=2, k=3, spread=2.0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(p), k)
    feats = rng.uniform(-spread, spread, (dim, p * k))
    return feats, labels


# -- cross entropy -------------------------------------------------------------


def test_ce_uniform_logits_is_log_c():
    logits = np.zeros((5, 3))
    labels = np.array([0, 2, 4])
    assert id_cross_entropy(logits, labels).item() == pytest.approx(np.log(5.0), rel=1e-12)


def test_ce_confident_logit_vanishes():
    logits = np.zeros((4, 2))
    logits[1, 0] = 30.0
    logits[3, 1] = 30.0
    assert id_cross_entropy(logits, np.array([1, 3])).item() < 1e-10


def test_ce_label_out_of_range():
    with pytest.raises(ShapeError):
        id_cross_entropy(np.zeros((3, 2)), np.array([0, 3]))


@pytest.mark.parametrize("seed", range(5))
def test_ce_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    logits = rng.uniform(-3, 3, (4, 7))
    labels = rng.integers(0, 4, 7)
    got = id_cross_entropy(logits, labels).item()
    assert got == pytest.approx(oracle_cross_entropy(logits, labels), abs=1e-10)


# -- center loss ----------------------------------------------------------------


def test_center_loss_hand_value():
    feats = np.array([[1.0, -1.0], [0.0, 0.0]])
    labels = np.array([0, 0])
    centers = np.zeros((2, 1))
    assert center_loss(feats, labels, as_tensor(centers)).item() == pytest.approx(0.5)


def test_center_loss_zero_at_center():
    feats = np.array([[2.0, 2.0], [3.0, 3.0]])
    centers = np.array([[2.0], [3.0]])
    assert center_loss(feats, np.array([0, 0]), as_tensor(centers)).item() == 0.0


def test_center_loss_missing_center():
    with pytest.raises(ShapeError):
        center_loss(np.zeros((2, 2)), np.array([0, 1]), as_tensor(np.zeros((2, 1))))


@pytest.mark.parametrize("seed", range(5))
def test_center_loss_matches_oracle(seed):
    feats, labels = random_batch(seed)
    centers = np.random.default_rng(seed + 100).uniform(-1, 1, (3, 2))
    got = center_loss(feats, labels, as_tensor(centers)).item()
    assert got == pytest.approx(oracle_center(feats, labels, centers), abs=1e-10)


def test_center_loss_gradient_reaches_centers():
    feats, labels = random_batch(3)
    centers = Tensor(np.zeros((3, 2)), requires_grad=True)
    grads = backward(center_loss(feats, labels, centers))
    assert np.linalg.norm(grads[centers]) > 0


# -- triplet ----------------------------------------------------------------------


def test_triplet_hand_value():
    # collinear points chosen so each anchor's hardest pair is unambiguous
    feats = np.array([[0.0, 3.0, 2.0, 6.0]])
    labels = np.array([0, 0, 1, 1])
    got = triplet_loss_batch_hard(pairwise_euclidean(feats), labels, margin=0.3).item()
    assert got == pytest.approx(2.05, abs=1e-12)


def test_triplet_coincident_classes_gives_margin():
    feats = np.array([[1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0]])
    labels = np.array([0, 0, 1, 1])
    assert triplet_loss_batch_hard(pairwise_euclidean(feats), labels, margin=0.7).item() == pytest.approx(0.7)


def test_triplet_needs_positive_and_negative():
    with pytest.raises(ShapeError):
        triplet_loss_batch_hard(pairwise_euclidean(np.zeros((2, 3))), np.array([0, 0, 1]), 0.3)
    with pytest.raises(ShapeError):
        triplet_loss_batch_hard(pairwise_euclidean(np.zeros((2, 4))), np.array([0, 0, 0, 0]), 0.3)


@pytest.mark.parametrize("seed", range(8))
def test_triplet_matches_oracle(seed):
    feats, labels = random_batch(seed, p=2, k=4)
    got = triplet_loss_batch_hard(pairwise_euclidean(feats), labels, margin=0.5).item()
    assert got == pytest.approx(oracle_triplet_batch_hard(feats, labels, 0.5), abs=1e-10)


def test_triplet_gradient_matches_fd():
    feats, labels = random_batch(11, p=2, k=3)
    x = Tensor(feats, requires_grad=True)

    def forward():
        return triplet_loss_batch_hard(pairwise_euclidean(x), labels, margin=0.5)

    analytic = backward(forward())
    assert max_rel_err(analytic[x], central_diff(forward, x)) < 1e-4


# -- circle ------------------------------------------------------------------------


def test_circle_orthogonal_units_closed_form():
    # anchors pairwise orthogonal: every similarity is 0, so each anchor
    # contributes log(1 + 2 * e^0 * e^0) = log 3
    feats = np.eye(4)
    labels = np.array([0, 0, 1, 1])
    got = circle_loss(feats, labels, scale=1.0, margin=0.0).item()
    assert got == pytest.approx(np.log(3.0), rel=1e-12)


def test_circle_well_separated_vanishes():
    feats = np.array([[1.0, 1.0, -1.0, -1.0], [0.0, 0.0, 0.0, 0.0]])
    labels = np.array([0, 0, 1, 1])
    got = circle_loss(feats, labels, scale=64.0, margin=0.0).item()
    assert got < 1e-6


def test_circle_three_sample_batch_raises():
    feats = np.array([[1.0, 0.9, -1.0], [0.1, 0.0, 0.2]])
    with pytest.raises(ShapeError):
        circle_loss(feats, np.array([0, 0, 1]), 32.0, 0.25)


@pytest.mark.parametrize("seed", range(8))
def test_circle_matches_oracle(seed):
    feats, labels = random_batch(seed, p=2, k=4)
    got = circle_loss(feats, labels, scale=8.0, margin=0.25).item()
    assert got == pytest.approx(oracle_circle(feats, labels, 8.0, 0.25), abs=1e-10)


def test_circle_gradient_matches_fd():
    feats, labels = random_batch(13, p=2, k=2)
    x = Tensor(feats, requires_grad=True)

    def forward():
        return circle_loss(x, labels, scale=4.0, margin=0.25)

    analytic = backward(forward())
    assert max_rel_err(analytic[x], central_diff(forward, x)) < 1e-4


# -- lifted structure ---------------------------------------------------------------


def test_lifted_far_negatives_vanish():
    # the only positive pair coincides; the negative sits 60 beyond the margin
    feats = np.array([[0.0, 0.0, 60.0]])
    labels = np.array([0, 0, 1])
    assert lifted_structure_loss(pairwise_euclidean(feats), labels, margin=1.0).item() == 0.0


def test_lifted_hand_value():
    # one positive pair at distance 2, one negative at distance 10 from i
    # and 8 from j: term = 2 + (1-10) + (1-8) = -14 -> hinge -> 0;
    # bring negatives close instead: distances 1 and 3
    feats = np.array([[0.0, 2.0, -1.0], [0.0, 0.0, 0.0]])
    labels = np.array([0, 0, 1])
    # term = 2 + log(e^{1-1}) + log(e^{1-3}) = 2 + 0 - 2 = 0 -> hinged at 0
    dist = pairwise_euclidean(feats)
    assert lifted_structure_loss(dist, labels, margin=1.0).item() == pytest.approx(0.0, abs=1e-12)
    got = lifted_structure_loss(dist, labels, margin=2.0).item()
    assert got == pytest.approx(2.0, abs=1e-12)  # 2 + (2-1) + (2-3) = 2


def test_lifted_requires_positive_and_negative_pairs():
    with pytest.raises(ShapeError):
        lifted_structure_loss(pairwise_euclidean(np.zeros((2, 3))), np.array([0, 1, 2]), 1.0)
    with pytest.raises(ShapeError):
        lifted_structure_loss(pairwise_euclidean(np.zeros((2, 3))), np.array([0, 0, 0]), 1.0)


@pytest.mark.parametrize("seed", range(8))
def test_lifted_matches_oracle(seed):
    feats, labels = random_batch(seed, p=2, k=4)
    got = lifted_structure_loss(pairwise_euclidean(feats), labels, margin=1.0).item()
    assert got == pytest.approx(oracle_lifted(feats, labels, 1.0), abs=1e-10)


def test_lifted_gradient_matches_fd():
    feats, labels = random_batch(17, p=2, k=3)
    x = Tensor(feats, requires_grad=True)

    def forward():
        return lifted_structure_loss(pairwise_euclidean(x), labels, margin=1.0)

    analytic = backward(forward())
    assert max_rel_err(analytic[x], central_diff(forward, x)) < 1e-4


# -- circle and lifted structure at the shapes training uses ---------------------------


def unequal_batch(sizes, seed, dim=3):
    """Classes of the given sizes, columns in shuffled order."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    return rng.uniform(-2.0, 2.0, (dim, labels.size)), labels


@pytest.mark.parametrize("seed", range(2))
def test_pairwise_losses_match_oracles_on_pk_8x8_batch(seed):
    feats, labels = random_batch(seed, dim=16, p=8, k=8)
    m = LossConfig()
    got = circle_loss(feats, labels, scale=m.circle_scale, margin=m.circle_margin).item()
    assert got == pytest.approx(oracle_circle(feats, labels, m.circle_scale, m.circle_margin), abs=1e-10)
    got = lifted_structure_loss(pairwise_euclidean(feats), labels, margin=m.lifted_margin).item()
    assert got == pytest.approx(oracle_lifted(feats, labels, m.lifted_margin), abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(2, 5), min_size=2, max_size=4), seed=st.integers(0, 10_000))
def test_pairwise_losses_match_oracles_on_unequal_classes(sizes, seed):
    feats, labels = unequal_batch(sizes, seed)
    got = circle_loss(feats, labels, scale=8.0, margin=0.25).item()
    assert got == pytest.approx(oracle_circle(feats, labels, 8.0, 0.25), abs=1e-10)
    got = lifted_structure_loss(pairwise_euclidean(feats), labels, margin=1.0).item()
    assert got == pytest.approx(oracle_lifted(feats, labels, 1.0), abs=1e-10)


@pytest.mark.parametrize(
    "loss",
    [
        lambda x, y: circle_loss(x, y, scale=4.0, margin=0.25),
        lambda x, y: lifted_structure_loss(pairwise_euclidean(x), y, margin=1.0),
    ],
    ids=["circle", "lifted"],
)
def test_pairwise_loss_gradient_matches_fd_on_unequal_classes(loss):
    feats, labels = unequal_batch([2, 4, 3], seed=19)
    x = Tensor(feats, requires_grad=True)

    def forward():
        return loss(x, labels)

    analytic = backward(forward())
    assert max_rel_err(analytic[x], central_diff(forward, x)) < 1e-4


# -- ranked list ----------------------------------------------------------------------


def test_rll_positive_pair_hand_value():
    feats = np.array([[0.0, 1.0]])
    labels = np.array([0, 0])
    got = ranked_list_loss(pairwise_euclidean(feats), labels, alpha=1.2, margin=0.4).item()
    assert got == pytest.approx(0.2, abs=1e-12)  # [1.0 - 0.8]+ per ordered pair


def test_rll_negative_pair_hand_value():
    feats = np.array([[0.0, 1.0]])
    labels = np.array([0, 1])
    got = ranked_list_loss(pairwise_euclidean(feats), labels, alpha=1.2, margin=0.4).item()
    assert got == pytest.approx(0.2, abs=1e-12)  # [1.2 - 1.0]+


def test_rll_alpha_must_exceed_margin():
    with pytest.raises(ConfigError):
        ranked_list_loss(pairwise_euclidean(np.zeros((2, 2))), np.array([0, 1]), alpha=0.4, margin=0.4)
    with pytest.raises(ConfigError):
        LossConfig(rll_alpha=0.3, rll_margin=0.4)


@pytest.mark.parametrize("seed", range(8))
def test_rll_matches_oracle(seed):
    feats, labels = random_batch(seed, p=2, k=4)
    got = ranked_list_loss(pairwise_euclidean(feats), labels, alpha=1.2, margin=0.4).item()
    assert got == pytest.approx(oracle_rll(feats, labels, 1.2, 0.4), abs=1e-10)


def test_rll_gradient_matches_fd():
    feats, labels = random_batch(19, p=3, k=2)
    x = Tensor(feats, requires_grad=True)

    def forward():
        return ranked_list_loss(pairwise_euclidean(x), labels, alpha=1.2, margin=0.4)

    analytic = backward(forward())
    assert max_rel_err(analytic[x], central_diff(forward, x)) < 1e-4


# -- CPL --------------------------------------------------------------------------------


def test_cpl_targets_loo_with_two_samples_swaps():
    feats = np.array([[1.0, -1.0], [0.0, 0.0]])
    targets = cpl_targets(feats, np.array([0, 0]))
    assert np.array_equal(targets.data, [[-1.0, 1.0], [0.0, 0.0]])
    assert not targets.requires_grad and not targets._parents


def test_cpl_identity_predictor_hand_value():
    feats = np.array([[1.0, -1.0], [0.0, 0.0]])
    labels = np.array([0, 0])
    assert cpl_loss(feats, labels, cpl_targets(feats, labels)).item() == pytest.approx(4.0)


def test_cpl_sample_mean_mode():
    feats = np.array([[0.0, 2.0, 4.0]])
    targets = cpl_targets(feats, np.array([0, 0, 0]), target_mode="sample-mean")
    assert np.allclose(targets.data, 2.0)


def test_cpl_farthest_mode_ties_take_lowest_index():
    feats = np.array([[0.0, 1.0, -1.0]])
    targets = cpl_targets(feats, np.array([0, 0, 0]), target_mode="farthest-point")
    # sample 0 is equidistant from 1 and 2; the tie goes to index 1
    assert targets.data[0, 0] == 1.0
    assert targets.data[0, 1] == -1.0  # farthest from 1.0 is -1.0
    assert targets.data[0, 2] == 1.0


def test_cpl_random_mode_deterministic_and_valid():
    feats, labels = random_batch(23, p=2, k=4)
    t1 = cpl_targets(feats, labels, target_mode="random-point", seed=9)
    t2 = cpl_targets(feats, labels, target_mode="random-point", seed=9)
    assert np.array_equal(t1.data, t2.data)
    t3 = cpl_targets(feats, labels, target_mode="random-point", seed=10)
    assert not np.array_equal(t1.data, t3.data)
    # every target is some other same-class sample
    for i, y in enumerate(labels):
        mates = [j for j in range(len(labels)) if labels[j] == y and j != i]
        assert any(np.array_equal(t1.data[:, i], feats[:, j]) for j in mates)


def test_cpl_singleton_class_raises():
    with pytest.raises(ShapeError):
        cpl_targets(np.zeros((2, 3)), np.array([0, 0, 1]))


def test_cpl_unknown_mode_raises():
    with pytest.raises(ConfigError):
        cpl_targets(np.zeros((2, 2)), np.array([0, 0]), target_mode="nearest")


@pytest.mark.parametrize("mode", ["leave-one-out-mean", "sample-mean", "farthest-point"])
@pytest.mark.parametrize("seed", range(4))
def test_cpl_matches_oracle(mode, seed):
    feats, labels = random_batch(seed, p=2, k=4)
    got = cpl_loss(feats, labels, cpl_targets(feats, labels, mode)).item()
    assert got == pytest.approx(oracle_cpl(feats, labels, mode=mode), abs=1e-10)


def test_cpl_with_predictor_matches_oracle(rng):
    feats, labels = random_batch(31, p=2, k=3)
    pred = CenterPredictor(dim=3, hidden=8, rng=rng, depth=2)

    def pred_fn(col):
        out = pred(as_tensor(np.array(col))).data
        return tuple(float(v) for v in out[:, 0])

    got = cpl_loss(feats, labels, cpl_targets(feats, labels), pred).item()
    assert got == pytest.approx(oracle_cpl(feats, labels, pred_fn=pred_fn), abs=1e-10)


def test_cpl_frozen_targets_analytic_grad(rng):
    """Analytic CPL gradient equals FD of the loss with targets held fixed,
    and measurably differs from FD of the fully coupled loss."""
    feats = np.array(
        [[0.4, -1.1, 1.7, 0.3], [0.9, 0.2, -0.5, -1.4]]
    )
    labels = np.array([0, 0, 1, 1])
    pred = CenterPredictor(dim=2, hidden=6, rng=rng, depth=2)
    x = Tensor(feats.copy(), requires_grad=True)

    analytic = backward(cpl_loss(x, labels, cpl_targets(x, labels), pred))[x]

    frozen = cpl_targets(x.data.copy(), labels)

    def forward_frozen():
        return cpl_loss(x, labels, frozen, pred)

    def forward_coupled():
        return cpl_loss(x, labels, cpl_targets(x, labels), pred)

    fd_frozen = central_diff(forward_frozen, x)
    fd_coupled = central_diff(forward_coupled, x)
    assert max_rel_err(analytic, fd_frozen) < 1e-4
    assert max_rel_err(analytic, fd_coupled) > 1e-3


def test_cpl_identity_predictor_gradient_is_frozen_form():
    # with f = id and K=2 per class, d loss / d x_i = (2/K) * (x_i - c_i);
    # a live target path would double it
    feats = np.array([[1.0, -1.0, 4.0, 6.0], [0.0, 2.0, 1.0, -1.0]])
    labels = np.array([0, 0, 1, 1])
    x = Tensor(feats, requires_grad=True)
    targets = cpl_targets(feats, labels)
    grads = backward(cpl_loss(x, labels, targets))[x]
    assert np.allclose(grads, (feats - targets.data), atol=1e-12)  # (2/2)*(x - c)


@pytest.mark.parametrize("mode", ["leave-one-out-mean", "sample-mean"])
@pytest.mark.parametrize("sizes", [(4, 4, 4, 4), (3, 4, 5)], ids=["pk-4x4", "unequal-3-4-5"])
def test_cpl_without_predictor_meets_its_closed_form(mode, sizes):
    # with f = id, CPL = sum_c s_c^2 mean_i ||z_i - mu_c||^2 with gradient
    # (2 s_c / k_c)(z_i - mu_c): s_c = k_c / (k_c - 1) for the leave-one-out
    # mean, 1 for the sample mean
    feats, labels = unequal_batch(sizes, seed=16, dim=8)
    x = Tensor(feats.copy(), requires_grad=True)
    loss = cpl_loss(x, labels, cpl_targets(feats, labels, mode))
    grad = backward(loss)[x]
    value, expected = 0.0, np.empty_like(feats)
    for c in range(len(sizes)):
        cols = labels == c
        k = cols.sum()
        scale = k / (k - 1) if mode == "leave-one-out-mean" else 1.0
        centred = feats[:, cols] - feats[:, cols].mean(axis=1, keepdims=True)
        value += scale**2 * (centred**2).sum(axis=0).mean()
        expected[:, cols] = 2 * scale / k * centred
    assert loss.item() == pytest.approx(value, rel=1e-12)
    np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_cpl_cached_targets_must_be_constant():
    feats, labels = random_batch(43, p=2, k=2)
    live = Tensor(np.zeros((3, 4)), requires_grad=True)
    with pytest.raises(ConfigError):
        cpl_loss(feats, labels, live)
    with pytest.raises(ShapeError):
        cpl_loss(feats, labels, np.zeros((3, 3)))


# -- shared properties -----------------------------------------------------------------------


LOSS_CALLS = {
    "triplet": lambda f, y: triplet_loss_batch_hard(pairwise_euclidean(f), y, 0.5),
    "circle": lambda f, y: circle_loss(f, y, 8.0, 0.25),
    "lifted": lambda f, y: lifted_structure_loss(pairwise_euclidean(f), y, 1.0),
    "rll": lambda f, y: ranked_list_loss(pairwise_euclidean(f), y, 1.2, 0.4),
    "cpl": lambda f, y: cpl_loss(f, y, cpl_targets(f, y)),
    "cpl-random": lambda f, y: cpl_loss(f, y, cpl_targets(f, y, "random-point", seed=5)),
}


@pytest.mark.parametrize("name", sorted(LOSS_CALLS))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), perm_seed=st.integers(0, 10_000))
def test_losses_invariant_under_batch_permutation(name, seed, perm_seed):
    feats, labels = random_batch(seed, p=2, k=3)
    perm = np.random.default_rng(perm_seed).permutation(len(labels))
    base = LOSS_CALLS[name](feats, labels).item()
    shuffled = LOSS_CALLS[name](feats[:, perm], labels[perm]).item()
    assert shuffled == pytest.approx(base, abs=1e-10)


@pytest.mark.parametrize("name", sorted(LOSS_CALLS))
def test_losses_nonnegative(name):
    for seed in range(5):
        feats, labels = random_batch(seed, p=2, k=3)
        assert LOSS_CALLS[name](feats, labels).item() >= 0.0


def test_pairwise_euclidean_values():
    x = np.array([[0.0, 3.0], [0.0, 4.0]])
    d = pairwise_euclidean(as_tensor(x)).data
    assert np.allclose(d, [[0.0, 5.0], [5.0, 0.0]], atol=1e-12)


DISTANCE_LOSSES = {
    "triplet": (triplet_loss_batch_hard, {"margin": 0.5}),
    "lifted": (lifted_structure_loss, {"margin": 1.0}),
    "rll": (ranked_list_loss, {"alpha": 1.2, "margin": 0.4}),
}


@pytest.mark.parametrize("name", sorted(DISTANCE_LOSSES))
def test_precomputed_dist_gives_bit_identical_value_and_gradient(name):
    # a D from the fused op and a D from the composed graph it replays give
    # each distance loss the same value and the same gradient, bit for bit
    fn, kwargs = DISTANCE_LOSSES[name]
    feats, labels = random_batch(3, p=3, k=3)

    def value_and_grad(pairwise):
        x = Tensor(feats.copy(), requires_grad=True)
        loss = fn(pairwise(x), labels, **kwargs)
        return loss.data, backward(loss)[x]

    (v0, g0), (v1, g1) = value_and_grad(pairwise_euclidean), value_and_grad(composed_pairwise)
    assert np.array_equal(v0, v1)
    assert np.array_equal(g0, g1)


@pytest.mark.parametrize("name", sorted(DISTANCE_LOSSES))
def test_precomputed_dist_of_wrong_shape_rejected(name):
    # D must be N x N for N labels: a non-square D, or a label count other
    # than N, is a shape error
    fn, kwargs = DISTANCE_LOSSES[name]
    feats, labels = random_batch(3, p=3, k=3)
    d = pairwise_euclidean(feats).data
    with pytest.raises(ShapeError, match="N x N"):
        fn(d[:-1], labels, **kwargs)
    with pytest.raises(ShapeError, match="one label per column"):
        fn(d, labels[:-1], **kwargs)
    with pytest.raises(ShapeError, match="one label per column"):
        fn(d[:, :-1], labels, **kwargs)


# -- fused ops against the composed graphs they replace ----------------------------


@settings(max_examples=100, deadline=None)
@given(
    labels=st.lists(st.integers(-3, 3) | st.sampled_from([-(2**63), 2**63 - 1]), min_size=1, max_size=30)
)
def test_cpl_weights_equal_inverse_class_sizes_bit_for_bit(labels):
    labels = np.array(labels, dtype=np.int64)
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    assert np.array_equal(cpl_weights(labels), (1.0 / counts)[inverse][None, :])


def _value_and_grads(op, data, r, leaves=()):
    x = Tensor(data.copy(), requires_grad=True)
    out = op(x)
    # a non-uniform upstream gradient, so every backward term is exercised
    grads = backward(tsum(add(mul(out, r), mul(out, out))))
    return [out.data, grads[x], *(grads[leaf] for leaf in leaves)]


def _assert_same_value_and_grad(fused, composed, data, r, leaves=()):
    got, want = _value_and_grads(fused, data, r, leaves), _value_and_grads(composed, data, r, leaves)
    for f, c in zip(got, want, strict=True):
        assert np.array_equal(f, c)


def with_other_consumer(loss, shared):
    # the square's terms reach the input before the loss's own terms, so the
    # order in which the loss adds its terms shows in the last bits
    return (lambda t: add(mul(tsum(mul(t, t)), 0.5), loss(t))) if shared else loss


@pytest.mark.parametrize("n", [1, 2, 9])
@pytest.mark.parametrize("seed", [0, 1])
def test_fused_pairwise_is_bit_identical_to_composed_graph(n, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(0, 1.5, (4, n))
    if n > 2:
        data[:, 2] = data[:, 0]  # a coincident pair takes the masked-zero path
    r = as_tensor(rng.normal(0, 1, (n, n)))
    _assert_same_value_and_grad(pairwise_euclidean, composed_pairwise, data, r)


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("n", [1, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_fused_ce_is_bit_identical_to_composed_graph(shared, n, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(0, 3.0, (5, n))
    labels = rng.integers(0, 5, n)
    r = as_tensor(rng.normal(0, 1, (1, 1)))
    _assert_same_value_and_grad(
        with_other_consumer(lambda t: id_cross_entropy(t, labels), shared),
        with_other_consumer(lambda t: composed_ce(t, labels), shared),
        data,
        r,
    )


@pytest.mark.parametrize("with_predictor", [False, True])
@pytest.mark.parametrize("sizes", [(2, 2), (3, 2, 4)])
def test_fused_cpl_is_bit_identical_to_composed_graph(with_predictor, sizes):
    rng = np.random.default_rng(len(sizes))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    data = rng.normal(0, 1.0, (3, labels.size))
    pred = CenterPredictor(3, 8, rng, depth=2) if with_predictor else None
    r = as_tensor(rng.normal(0, 1, (1, 1)))
    _assert_same_value_and_grad(
        lambda t: cpl_loss(t, labels, cpl_targets(t, labels), pred),
        lambda t: composed_cpl(t, labels, pred),
        data,
        r,
    )


# loss name -> (fused, composed), each called as f(embeddings, labels, centers)
FUSED_LOSSES = {
    "center": (center_loss, composed_center),
    "triplet": (
        lambda t, y, _: triplet_loss_batch_hard(pairwise_euclidean(t), y, 0.3),
        lambda t, y, _: composed_triplet(pairwise_euclidean(t), y, 0.3),
    ),
    # a scale that is not a power of two, so a regrouped product shows
    "circle": (lambda t, y, _: circle_loss(t, y, 30.0, 0.25), lambda t, y, _: composed_circle(t, y, 30.0, 0.25)),
    "lifted": (
        lambda t, y, _: lifted_structure_loss(pairwise_euclidean(t), y, 1.0),
        lambda t, y, _: composed_lifted(pairwise_euclidean(t), y, 1.0),
    ),
    "rll": (
        lambda t, y, _: ranked_list_loss(pairwise_euclidean(t), y, 1.2, 0.4),
        lambda t, y, _: composed_rll(pairwise_euclidean(t), y, 1.2, 0.4),
    ),
}
# PK batches and unequal class sizes, columns shuffled in the latter
BATCH_SIZES = {"pk-4x4": (4, 4, 4, 4), "pk-8x8": (8,) * 8, "unequal": (2, 5, 3, 4)}


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("sizes", sorted(BATCH_SIZES))
@pytest.mark.parametrize("name", sorted(FUSED_LOSSES))
def test_fused_loss_is_bit_identical_to_composed_graph(name, sizes, shared):
    sizes = BATCH_SIZES[sizes]
    rng = np.random.default_rng(len(sizes))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    if len(set(sizes)) > 1:
        labels = rng.permutation(labels)
    data = rng.normal(0, 1.0, (6, labels.size))
    centers = Tensor(rng.normal(0, 1.0, (6, len(sizes))), requires_grad=True)
    r = as_tensor(rng.normal(0, 1, (1, 1)))
    fused, composed = FUSED_LOSSES[name]
    _assert_same_value_and_grad(
        with_other_consumer(lambda t: fused(t, labels, centers), shared),
        with_other_consumer(lambda t: composed(t, labels, centers), shared),
        data,
        r,
        leaves=[centers] if name == "center" else [],
    )


DISTANCE_GRAPHS = {
    "triplet": (lambda d, y: triplet_loss_batch_hard(d, y, 0.3), lambda d, y: composed_triplet(d, y, 0.3)),
    "lifted": (lambda d, y: lifted_structure_loss(d, y, 1.0), lambda d, y: composed_lifted(d, y, 1.0)),
    "rll": (lambda d, y: ranked_list_loss(d, y, 1.2, 0.4), lambda d, y: composed_rll(d, y, 1.2, 0.4)),
}


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("name", sorted(DISTANCE_GRAPHS))
def test_fused_distance_loss_on_a_leaf_matrix_is_bit_identical(name, shared):
    # D as a leaf: each of the two parent uses lands on D itself, after the
    # other consumer's terms when shared
    rng = np.random.default_rng(3)
    labels = rng.permutation(np.repeat(np.arange(3), [3, 4, 2]))
    data = rng.uniform(0.0, 2.5, (9, 9))
    r = as_tensor(rng.normal(0, 1, (1, 1)))
    fused, composed = DISTANCE_GRAPHS[name]
    _assert_same_value_and_grad(
        with_other_consumer(lambda d: fused(d, labels), shared),
        with_other_consumer(lambda d: composed(d, labels), shared),
        data,
        r,
    )


def _shared_embedding_step(fused):
    """One step's graph, shaped like train_step with every loss enabled (as
    runs/train_all_losses is): the embeddings feed a distance matrix (triplet,
    lifted, rll), a classifier Linear (ce), a predictor (cpl), the centers
    (center) and circle, so gradient terms from every op accumulate into one
    input."""
    rng = np.random.default_rng(5)
    labels = np.repeat(np.arange(3), 3)
    x = Tensor(rng.normal(0, 1, (6, labels.size)), requires_grad=True)
    extractor, classifier = Linear(6, 4, rng), Linear(4, 3, rng)
    predictor = CenterPredictor(4, 8, rng, depth=2)
    centers = Tensor(rng.normal(0, 1, (4, 3)), requires_grad=True)
    emb = extractor(x)
    dist = (pairwise_euclidean if fused else composed_pairwise)(emb)
    # in LOSS_NAMES order, as _loss_parts builds them
    if fused:
        parts = [
            id_cross_entropy(classifier(emb), labels),
            cpl_loss(emb, labels, cpl_targets(emb, labels), predictor),
            center_loss(emb, labels, centers),
            triplet_loss_batch_hard(dist, labels, 0.3),
            circle_loss(emb, labels, 32.0, 0.25),
            lifted_structure_loss(dist, labels, 1.0),
            ranked_list_loss(dist, labels, 1.2, 0.4),
        ]
    else:
        parts = [
            composed_ce(classifier(emb), labels),
            composed_cpl(emb, labels, predictor),
            composed_center(emb, labels, centers),
            composed_triplet(dist, labels, 0.3),
            composed_circle(emb, labels, 32.0, 0.25),
            composed_lifted(dist, labels, 1.0),
            composed_rll(dist, labels, 1.2, 0.4),
        ]
    total = None
    for part in parts:  # as train_step sums weighted parts
        total = mul(part, 1.0) if total is None else add(total, mul(part, 1.0))
    grads = backward(total)
    leaves = [x, centers, *(p for layer in (extractor, classifier, predictor) for _, p in layer.params())]
    return total.data, [grads[emb], grads[dist]] + [grads[leaf] for leaf in leaves]


def test_fused_ops_keep_accumulation_order_into_shared_embeddings():
    (f_total, f_grads), (c_total, c_grads) = _shared_embedding_step(True), _shared_embedding_step(False)
    assert np.array_equal(f_total, c_total)
    assert len(f_grads) == len(c_grads) == 12  # emb, dist, x, centers and 8 parameters
    for f, c in zip(f_grads, c_grads):
        assert np.array_equal(f, c)


PK4 = np.array([0, 0, 1, 1])
PK4_DIST = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 2.5, 1.5], [2.0, 2.5, 0.0, 1.0], [3.0, 1.5, 1.0, 0.0]])


# two tight classes far apart: with a huge margin or alpha, each anchor's term is finite
SUM_DIST = np.array([[0.0, 1.0, 5.0, 5.0], [1.0, 0.0, 5.0, 5.0], [5.0, 5.0, 0.0, 1.0], [5.0, 5.0, 1.0, 0.0]])


def _dist_with(**entries):
    """PK4_DIST with the named entries ("r0c2" is row 0, column 2) set."""
    d = PK4_DIST.copy()
    for key, value in entries.items():
        row, col = key[1:].split("c")
        d[int(row), int(col)] = value
    return d


OVERFLOW_CASES = {
    "pairwise-1e200": (pairwise_euclidean, composed_pairwise, np.array([[1e200, 0.0], [1.0, 2.0]])),
    "pairwise-1e160": (pairwise_euclidean, composed_pairwise, np.full((2, 3), 1e160)),
    "pairwise-sum-1e154": (pairwise_euclidean, composed_pairwise, np.full((3, 2), 1e154)),
    "ce-1e308": (
        lambda t: id_cross_entropy(t, np.array([1])),
        lambda t: composed_ce(t, np.array([1])),
        np.array([[1e308], [-1e308]]),
    ),
    "cpl-1e200": (
        lambda t: cpl_loss(t, PK4, cpl_targets(t, PK4)),
        lambda t: composed_cpl(t, PK4),
        np.array([[1e200, -1e200, 0.0, 1.0], [1.0, 2.0, 3.0, 4.0]]),
    ),
    # the squares overflow
    "center-1e200": (
        lambda t: center_loss(t, PK4, np.zeros((2, 2))),
        lambda t: composed_center(t, PK4, np.zeros((2, 2))),
        np.array([[1e200, 0.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0]]),
    ),
    # a center the batch gathers is not finite
    "center-inf-center": (
        lambda t: center_loss(t, PK4, np.array([[0.0, np.inf], [0.0, 0.0]])),
        lambda t: composed_center(t, PK4, np.array([[0.0, np.inf], [0.0, 0.0]])),
        np.ones((2, 4)),
    ),
    # hardest positive minus hardest negative overflows; the relu would hide
    # the -inf a huge negative distance gives
    "triplet-1e308": (
        lambda t: triplet_loss_batch_hard(t, PK4, 0.3),
        lambda t: composed_triplet(t, PK4, 0.3),
        _dist_with(r0c1=1e308, r0c2=-1e308),
    ),
    "triplet-minus-inf": (
        lambda t: triplet_loss_batch_hard(t, PK4, 0.3),
        lambda t: composed_triplet(t, PK4, 0.3),
        _dist_with(r0c1=-np.inf, r1c0=-np.inf),
    ),
    "circle-1e200": (
        lambda t: circle_loss(t, PK4, 32.0, 0.25),
        lambda t: composed_circle(t, PK4, 32.0, 0.25),
        np.array([[1e200, 1.0, -1.0, 0.5], [1.0, 2.0, 3.0, 4.0]]),
    ),
    "circle-zero-norm": (
        lambda t: circle_loss(t, PK4, 32.0, 0.25),
        lambda t: composed_circle(t, PK4, 32.0, 0.25),
        np.array([[1.0, 0.0, -1.0, 0.5], [1.0, 0.0, 3.0, 4.0]]),
    ),
    # columns 0 and 2 are parallel negatives: (1 + margin) * scale overflows
    "circle-scale-1.5e308": (
        lambda t: circle_loss(t, PK4, 1.5e308, 0.25),
        lambda t: composed_circle(t, PK4, 1.5e308, 0.25),
        np.array([[1.0, 0.9, 1.0, 0.5], [1.0, 2.0, 1.0, 4.0]]),
    ),
    # margin - D overflows at a positive pair, an entry the negative mask drops
    "lifted-1e308": (
        lambda t: lifted_structure_loss(t, PK4, 1e308),
        lambda t: composed_lifted(t, PK4, 1e308),
        _dist_with(r0c1=-1e308),
    ),
    # D + L + L^T overflows to -inf at a positive pair, where the relu would
    # hide it: every negative distance is 1e308, so every L is about -1e308
    "lifted-hinge": (
        lambda t: lifted_structure_loss(t, PK4, 1.0),
        lambda t: composed_lifted(t, PK4, 1.0),
        np.where(PK4[:, None] == PK4[None, :], _dist_with(r0c1=-1.7e308), 1e308),
    ),
    "lifted-minus-inf": (
        lambda t: lifted_structure_loss(t, PK4, 1.0),
        lambda t: composed_lifted(t, PK4, 1.0),
        _dist_with(r0c1=-np.inf),
    ),
    "rll-minus-inf": (
        lambda t: ranked_list_loss(t, PK4, 1.2, 0.4),
        lambda t: composed_rll(t, PK4, 1.2, 0.4),
        _dist_with(r0c1=-np.inf),
    ),
    "rll-inf": (
        lambda t: ranked_list_loss(t, PK4, 1.2, 0.4),
        lambda t: composed_rll(t, PK4, 1.2, 0.4),
        _dist_with(r0c2=np.inf),
    ),
    # the cases below have finite per-sample terms whose sum overflows: the
    # sum must overflow inside the op's errstate block, or numpy warns first
    "ce-sum": (
        lambda t: id_cross_entropy(t, np.array([1, 1])),
        lambda t: composed_ce(t, np.array([1, 1])),
        np.array([[0.0, 0.0], [-1.5e308, -1.5e308]]),
    ),
    "center-sum": (
        lambda t: center_loss(t, PK4, np.zeros((2, 2))),
        lambda t: composed_center(t, PK4, np.zeros((2, 2))),
        np.array([[1.2e154, -1.2e154, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]),
    ),
    "triplet-sum": (
        lambda t: triplet_loss_batch_hard(t, PK4, 1e308),
        lambda t: composed_triplet(t, PK4, 1e308),
        SUM_DIST,
    ),
    "rll-sum": (
        lambda t: ranked_list_loss(t, PK4, 1e308, 0.0),
        lambda t: composed_rll(t, PK4, 1e308, 0.0),
        SUM_DIST,
    ),
    "lifted-sum": (
        lambda t: lifted_structure_loss(t, PK4, 0.0),
        lambda t: composed_lifted(t, PK4, 0.0),
        np.kron(np.eye(2), [[0.0, 1e308], [1e308, 0.0]]),  # 1e308 on the positive pairs
    ),
    "circle-sum": (
        lambda t: circle_loss(t, PK4, 7e307, 0.25),
        lambda t: composed_circle(t, PK4, 7e307, 0.25),
        np.array([[1.0, -1.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0]]),
    ),
}
OP_NAMES = {
    "pairwise": "pairwise_euclidean",
    "ce": "id_cross_entropy",
    "cpl": "cpl_loss",
    "center": "center_loss",
    "triplet": "triplet_loss_batch_hard",
    "circle": "circle_loss",
    "lifted": "lifted_structure_loss",
    "rll": "ranked_list_loss",
}


@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_fused_ops_raise_where_composed_graph_raises(case):
    fused, composed, data = OVERFLOW_CASES[case]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError):
        composed(Tensor(data, requires_grad=True))
    with pytest.raises(NumericsError, match=f"^{OP_NAMES[case.split('-')[0]]}:"):
        fused(Tensor(data, requires_grad=True))


def test_cpl_sum_overflow_raises_without_a_warning():
    # each column's weighted square (7.2e307) is finite, their sum is not; the
    # table above cannot hold it, as composed_cpl builds its own targets
    x = Tensor(np.full((1, 4), 1.2e154), requires_grad=True)
    with pytest.raises(NumericsError, match="^cpl_loss:"):
        cpl_loss(x, PK4, np.zeros((1, 4)))


def test_fused_pairwise_backward_raises_where_composed_graph_raises():
    # close points: the sqrt derivative 0.5 / d times a huge upstream
    # gradient overflows in backward while the forward stays finite
    data = np.array([[0.0, 1e-3, 2e-3], [0.0, 0.0, 1e-3]])
    for op, match in ((composed_pairwise, "backward"), (pairwise_euclidean, "^pairwise_euclidean: backward")):
        x = Tensor(data, requires_grad=True)
        with pytest.raises(NumericsError, match=match):
            backward(tsum(mul(op(x), 1e307)))


def test_fused_circle_backward_raises_where_composed_graph_raises():
    # a column of norm 1e-10: the norm's gradient divides by its square, and
    # a huge upstream gradient overflows there while the forward stays finite
    data = np.array([[1e-10, 1.0, -1.0, 0.5], [0.0, 2.0, 3.0, 4.0]])
    for op, match in ((composed_circle, "backward"), (circle_loss, "^circle_loss: backward")):
        x = Tensor(data, requires_grad=True)
        with pytest.raises(NumericsError, match=match):
            backward(mul(op(x, PK4, 32.0, 0.25), 1e300))


# -- stacked forwards ------------------------------------------------------------
# Each op's numpy forward reads trailing axes: on a P x r x c stack of its
# input it gives P values, each the 2-D op's value on that slice bit for bit,
# and a non-finite slice raises what the op raises on that slice.

STACK_LABELS = {"pk-4x4": np.repeat(np.arange(4), 4), "unequal-3-4-5": np.repeat(np.arange(3), (3, 4, 5))}


def _centers(labels):
    """A 4 x C center matrix for labels, one column per class."""
    return np.linspace(-1.0, 1.0, 4 * (labels.max() + 1)).reshape(4, -1)


def _targets(labels):
    """A constant 4 x N target matrix for labels."""
    return np.cos(np.arange(4.0 * labels.size)).reshape(4, -1)


def _huge_points(x, labels):
    return x * 1e200  # its squares overflow


def _huge_logits(x, labels):
    # -log softmax of the true class is 1.7e308 + 1.7e308 + log(...)
    return np.where(np.arange(len(x))[:, None] == labels, -1.7e308, 1.7e308)


def _huge_distances(d, labels):
    # positives far and negatives "below zero": each loss's sum overflows
    return np.where(_pair_masks(labels)[0], 1.7e308, -1.7e308)


# op name -> (the op on one 2-D input, its forward on a stack of inputs,
# an input made to overflow, whether the input is the points' distances)
STACK_OPS = {
    "pairwise_euclidean": (
        lambda x, y: pairwise_euclidean(x),
        lambda xs, y: _pairwise_forward(xs)[0],
        _huge_points,
        False,
    ),
    "id_cross_entropy": (id_cross_entropy, lambda xs, y: _ce_forward(xs, y)[0], _huge_logits, False),
    "center_loss": (
        lambda x, y: center_loss(x, y, _centers(y)),
        lambda xs, y: _center_forward(xs, _centers(y), y)[0],
        _huge_points,
        False,
    ),
    "triplet_loss_batch_hard": (
        lambda d, y: triplet_loss_batch_hard(d, y, margin=0.5),
        lambda ds, y: _triplet_forward(ds, *_pair_masks(y), margin=0.5)[0],
        _huge_distances,
        True,
    ),
    "circle_loss": (
        lambda x, y: circle_loss(x, y, scale=4.0, margin=0.25),
        lambda xs, y: _circle_forward(xs, *_pair_masks(y), scale=4.0, margin=0.25)[0],
        _huge_points,
        False,
    ),
    "lifted_structure_loss": (
        lambda d, y: lifted_structure_loss(d, y, margin=1.0),
        lambda ds, y: _lifted_forward(ds, *_pair_masks(y), margin=1.0)[0],
        _huge_distances,
        True,
    ),
    "ranked_list_loss": (
        lambda d, y: ranked_list_loss(d, y, alpha=1.2, margin=0.4),
        lambda ds, y: _ranked_forward(ds, *_pair_masks(y), alpha=1.2, margin=0.4)[0],
        _huge_distances,
        True,
    ),
    "cpl_loss": (
        lambda x, y: cpl_loss(x, y, _targets(y)),
        lambda xs, y: _cpl_forward(xs, _targets(y), cpl_weights(y))[0],
        _huge_points,
        False,
    ),
}


def _stack_input(labels, on_distances, seed=0):
    """Three slices of 4 x N points for labels, or their distance matrices."""
    xs = np.random.default_rng(seed).normal(0, 1.5, (3, 4, labels.size))
    return _pairwise_forward(xs)[0] if on_distances else xs


@pytest.mark.parametrize("labels", STACK_LABELS.values(), ids=STACK_LABELS)
@pytest.mark.parametrize("name", sorted(STACK_OPS))
def test_each_slice_of_a_stacked_forward_is_the_2d_op_bit_for_bit(name, labels):
    op, forward, _, on_distances = STACK_OPS[name]
    stack = _stack_input(labels, on_distances)
    values = forward(stack, labels)
    assert values.shape[0] == len(stack)
    for one, value in zip(stack, values, strict=True):
        assert np.array_equal(value, op(one, labels).data)


@pytest.mark.parametrize("labels", STACK_LABELS.values(), ids=STACK_LABELS)
def test_center_loss_over_a_stack_of_centers_is_each_slices_op(labels):
    x = _stack_input(labels, False)[0]
    stack = _centers(labels) + np.random.default_rng(1).normal(0, 0.5, (3, *_centers(labels).shape))
    values = _center_forward(x, stack, labels)[0]
    for centers, value in zip(stack, values, strict=True):
        assert np.array_equal(value, center_loss(x, labels, centers).data)


@pytest.mark.parametrize("labels", STACK_LABELS.values(), ids=STACK_LABELS)
@pytest.mark.parametrize("name", sorted(STACK_OPS))
def test_a_stack_with_one_overflowing_slice_raises_the_ops_message(name, labels):
    op, forward, huge, on_distances = STACK_OPS[name]
    stack = _stack_input(labels, on_distances)
    stack[1] = huge(stack[1], labels)
    with pytest.raises(NumericsError) as on_slice:
        op(stack[1], labels)
    message = str(on_slice.value)
    assert message.startswith(f"{name}: ")
    with pytest.raises(NumericsError) as on_stack:
        # the op's own output check, as _make runs it, after the forward's checks
        check_finite(forward(stack, labels), name)
    assert str(on_stack.value) == message
    for k in (0, 2):  # the other slices are finite
        assert np.isfinite(op(stack[k], labels).data).all()
