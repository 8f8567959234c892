import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from metriclab import autograd as ag
from metriclab.autograd import Tensor, as_tensor, backward
from metriclab.errors import NumericsError, ShapeError

from fd_utils import central_diff, max_rel_err


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = as_tensor(np.eye(2)) @ as_tensor(a)
    assert np.array_equal(out.data, a)


def test_matmul_hand_values():
    a = as_tensor([[1.0, 2.0], [3.0, 4.0]])
    b = as_tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_error_names_both_shapes():
    a = as_tensor(np.zeros((2, 3)))
    b = as_tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        a @ b


def test_backward_of_sum_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    grads = backward(x.sum())
    assert np.array_equal(grads[x], np.ones((2, 3)))


def test_backward_requires_scalar_root():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ag.GraphError):
        backward(x + 1.0)


def test_backward_accumulates_over_fanout():
    x = Tensor([[3.0]], requires_grad=True)
    y = x * x + x * 2.0  # dy/dx = 2x + 2 = 8
    grads = backward(y)
    assert grads[x][0, 0] == pytest.approx(8.0)


def test_detach_keeps_value_blocks_gradient():
    x = Tensor([[2.0], [5.0]], requires_grad=True)
    d = (x * 3.0).detach()
    assert np.array_equal(d.data, [[6.0], [15.0]])
    assert not d.requires_grad and not d._parents
    # loss uses both a live and a detached branch of x
    loss = (x * d).sum()
    grads = backward(loss)
    # only the live branch contributes: gradient is d's value, not 6x
    assert np.array_equal(grads[x], d.data)


def test_detach_of_detach_is_detach():
    x = Tensor([[1.0, -1.0]], requires_grad=True)
    d1 = x.detach()
    d2 = d1.detach()
    assert not d2.requires_grad and not d2._parents
    assert np.array_equal(d1.data, d2.data)


def test_detached_value_is_a_copy():
    x = Tensor([[1.0]], requires_grad=True)
    d = x.detach()
    x.data[0, 0] = 99.0
    assert d.data[0, 0] == 1.0


def test_backward_twice_is_bitwise_identical():
    rng = np.random.default_rng(7)
    x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-2, 2, (2, 3)), requires_grad=True)

    def forward():
        return ((w @ x).relu() * (w @ x)).sum()

    root = forward()
    g1 = backward(root)
    g2 = backward(root)
    assert np.array_equal(g1[x], g2[x]) and np.array_equal(g1[w], g2[w])
    root2 = forward()
    g3 = backward(root2)
    assert np.array_equal(g1[x], g3[x])


def test_div_by_zero_raises():
    with pytest.raises(NumericsError):
        as_tensor([[1.0]]) / as_tensor([[0.0]])


def test_log_nonpositive_raises():
    with pytest.raises(NumericsError):
        as_tensor([[0.0]]).log()


def test_broadcast_add_bias_gradient_sums_over_batch():
    x = Tensor(np.ones((2, 5)), requires_grad=True)
    b = Tensor(np.zeros((2, 1)), requires_grad=True)
    grads = backward((x + b).sum())
    assert np.array_equal(grads[b], np.full((2, 1), 5.0))


def test_gather_cols_duplicates_accumulate():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = ag.gather_cols(x, np.array([0, 0, 2]))
    grads = backward(out.sum())
    assert np.array_equal(grads[x], [[2.0, 0.0, 1.0], [2.0, 0.0, 1.0]])


def test_gather_pairs_values_and_gradient():
    x = Tensor(np.arange(9.0).reshape(3, 3), requires_grad=True)
    out = ag.gather_pairs(x, np.array([0, 2, 0]), np.array([1, 2, 1]))
    assert np.array_equal(out.data, [[1.0, 8.0, 1.0]])
    grads = backward(out.sum())
    expect = np.zeros((3, 3))
    expect[0, 1] = 2.0
    expect[2, 2] = 1.0
    assert np.array_equal(grads[x], expect)


def test_logsumexp_matches_numpy_and_is_stable():
    rng = np.random.default_rng(0)
    a = rng.uniform(-2, 2, (4, 5))
    out = ag.logsumexp(as_tensor(a), axis=0)
    expect = np.log(np.exp(a).sum(axis=0, keepdims=True))
    assert np.allclose(out.data, expect, atol=1e-12)
    big = ag.logsumexp(as_tensor([[1000.0, 1001.0]]), axis=1)
    assert np.isfinite(big.data).all()
    assert big.item() == pytest.approx(1001.0 + np.log(1 + np.exp(-1.0)))


def _masked_lse_case(seed, axis):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3, 3, (4, 5))
    mask = rng.random((4, 5)) < 0.5
    # every slice along the reduced axis keeps at least one entry
    if axis is None:
        mask[0, 0] = True
    elif axis == 0:
        mask[rng.integers(0, 4, 5), np.arange(5)] = True
    else:
        mask[np.arange(4), rng.integers(0, 5, 4)] = True
    return a, mask


@pytest.mark.parametrize("axis", [0, 1, None])
@pytest.mark.parametrize("seed", range(3))
def test_masked_logsumexp_matches_numpy_over_selected_entries(axis, seed):
    a, mask = _masked_lse_case(seed, axis)
    out = ag.logsumexp(as_tensor(a), axis=axis, mask=mask)
    if axis is None:
        expect = np.array([[np.log(np.exp(a[mask]).sum())]])
    elif axis == 0:
        expect = np.array([[np.log(np.exp(a[mask[:, j], j]).sum()) for j in range(a.shape[1])]])
    else:
        expect = np.array([[np.log(np.exp(a[i, mask[i]]).sum())] for i in range(a.shape[0])])
    assert out.shape == expect.shape
    assert np.allclose(out.data, expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("axis", [0, 1, None])
def test_logsumexp_gradient_matches_fd(axis, masked):
    a, mask = _masked_lse_case(7, axis)
    x = Tensor(a, requires_grad=True)
    use = mask if masked else None
    # a non-uniform upstream gradient, so each slice's softmax is weighted
    out_shape = {0: (1, 5), 1: (4, 1), None: (1, 1)}[axis]
    w = as_tensor(np.random.default_rng(8).uniform(0.5, 2.0, out_shape))

    def forward():
        return (ag.logsumexp(x, axis=axis, mask=use) * w).sum()

    analytic = backward(forward())
    assert max_rel_err(analytic[x], central_diff(forward, x)) < 1e-4
    if masked:
        assert np.all(analytic[x][~mask] == 0.0)
        assert np.all(analytic[x][mask] > 0.0)


def test_masked_logsumexp_is_stable_at_large_magnitudes():
    a = np.array([[1000.0, 1001.0, -1000.0], [-1000.0, -1001.0, 1000.0]])
    mask = np.array([[True, True, True], [True, True, False]])
    x = Tensor(a, requires_grad=True)
    out = ag.logsumexp(x, axis=1, mask=mask)
    assert out.data[0, 0] == pytest.approx(1001.0 + np.log(1 + np.exp(-1.0)), rel=1e-15)
    assert out.data[1, 0] == pytest.approx(-1000.0 + np.log(1 + np.exp(-1.0)), rel=1e-15)
    g = backward(out.sum())[x]
    assert np.isfinite(g).all()
    assert g[1, 2] == 0.0
    assert np.allclose(g.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_masked_logsumexp_rejects_bad_masks():
    a = as_tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        ag.logsumexp(a, axis=1, mask=np.ones((3, 2), dtype=bool))
    with pytest.raises(ShapeError):
        ag.logsumexp(a, axis=1, mask=np.ones((1, 3), dtype=bool))  # broadcastable is not enough
    empty_row = np.array([[True, True, True], [False, False, False]])
    with pytest.raises(ShapeError):
        ag.logsumexp(a, axis=1, mask=empty_row)
    ag.logsumexp(a, axis=0, mask=empty_row)  # every column still selects an entry
    with pytest.raises(ShapeError):
        ag.logsumexp(a, axis=None, mask=np.zeros((2, 3), dtype=bool))


def test_softplus_extremes():
    assert ag.softplus(as_tensor([[0.0]])).item() == pytest.approx(np.log(2.0))
    assert ag.softplus(as_tensor([[-200.0]])).item() == pytest.approx(0.0, abs=1e-12)
    assert ag.softplus(as_tensor([[200.0]])).item() == pytest.approx(200.0)


@pytest.mark.parametrize("seed", range(6))
def test_fd_matches_analytic_on_composed_graph(seed):
    # mixed graph exercising matmul, broadcasting, relu, exp/log, reductions
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-2, 2, (2, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, (2, 1)), requires_grad=True)

    def forward():
        h = (w @ x + b).relu()
        z = (h * h).sum(axis=0) + 1.0
        return (z.log() + ag.softplus(h.sum(axis=1)).sum()).mean()

    analytic = backward(forward())
    for leaf in (x, w, b):
        fd = central_diff(forward, leaf)
        assert max_rel_err(analytic[leaf], fd) < 1e-4


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_fd_matches_analytic_elementwise_ops(rows, cols, seed):
    rng = np.random.default_rng(seed)
    # keep entries away from the relu/abs kinks so FD is valid
    data = rng.uniform(0.1, 2.0, (rows, cols)) * rng.choice([-1.0, 1.0], (rows, cols))
    x = Tensor(data, requires_grad=True)

    def forward():
        return (x.abs().sqrt() + x.relu() * x + (x * x + 0.5).log()).sum()

    analytic = backward(forward())
    fd = central_diff(forward, x)
    assert max_rel_err(analytic[x], fd) < 1e-4


def test_constant_graph_backward_empty():
    out = as_tensor([[1.0]]) + as_tensor([[2.0]])
    assert backward(out) == {}


def test_non_finite_result_raises():
    with pytest.raises(NumericsError, match="^exp: operation produced non-finite entries$"):
        as_tensor([[1e308]]).exp()


def test_non_finite_gradient_error_names_the_op():
    # log of a subnormal is finite, its derivative 1 / x is not
    x = Tensor([[1e-310]], requires_grad=True)
    with pytest.raises(NumericsError, match="^log: backward produced non-finite gradient entries$"):
        backward(x.log())


def test_backward_raises_when_accumulated_gradient_overflows():
    # each mul's gradient term is 1e308; their sum at the shared leaf is not finite
    x = Tensor([[1e-300]], requires_grad=True)
    with pytest.raises(NumericsError, match="^mul: backward"):
        backward(x * 1e308 + x * 1e308)


_EDGE_VALUES = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, -0.0, 0.0, 5e-324, 1.0])


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
        elements=st.one_of(_EDGE_VALUES, st.floats()),
    ),
    st.sampled_from(["as-is", "transposed", "broadcast"]),
)
@example(np.empty((0, 3)), "as-is")
@example(np.array([[1.0, -0.0], [1e308, np.nan]]), "transposed")
@example(np.array([[-1e308, -np.inf]]), "broadcast")
def test_all_finite_agrees_with_isfinite_all(x, view):
    if view == "transposed":
        x = x.T
    elif view == "broadcast":
        x = np.broadcast_to(x, (3, *x.shape))
    assert ag._all_finite(x) == np.isfinite(x).all()
