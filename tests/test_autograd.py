import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from metriclab import autograd as ag
from metriclab.autograd import Tensor, as_tensor, backward
from metriclab.errors import NumericsError, ShapeError

from fd_utils import central_diff, max_rel_err
from primitives import absval, add, div, exp, gather_cols, gather_pairs, log, logsumexp, matmul, mul, relu
from primitives import softplus, sqrt, tmean, tsum


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(np.eye(2), a)
    assert np.array_equal(out.data, a)


def test_matmul_hand_values():
    a = as_tensor([[1.0, 2.0], [3.0, 4.0]])
    b = as_tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_error_names_both_shapes():
    a = as_tensor(np.zeros((2, 3)))
    b = as_tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(a, b)


def test_backward_of_sum_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    grads = backward(tsum(x))
    assert np.array_equal(grads[x], np.ones((2, 3)))


def test_backward_requires_scalar_root():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ag.GraphError):
        backward(add(x, 1.0))


def test_backward_accumulates_over_fanout():
    x = Tensor([[3.0]], requires_grad=True)
    y = add(mul(x, x), mul(x, 2.0))  # dy/dx = 2x + 2 = 8
    grads = backward(y)
    assert grads[x][0, 0] == pytest.approx(8.0)


def test_backward_twice_is_bitwise_identical():
    rng = np.random.default_rng(7)
    x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-2, 2, (2, 3)), requires_grad=True)

    def forward():
        return tsum(mul(relu(matmul(w, x)), matmul(w, x)))

    root = forward()
    g1 = backward(root)
    g2 = backward(root)
    assert np.array_equal(g1[x], g2[x]) and np.array_equal(g1[w], g2[w])
    root2 = forward()
    g3 = backward(root2)
    assert np.array_equal(g1[x], g3[x])


def test_div_by_zero_raises():
    with pytest.raises(NumericsError):
        div([[1.0]], [[0.0]])


def test_log_nonpositive_raises():
    with pytest.raises(NumericsError):
        log([[0.0]])


def test_broadcast_add_bias_gradient_sums_over_batch():
    x = Tensor(np.ones((2, 5)), requires_grad=True)
    b = Tensor(np.zeros((2, 1)), requires_grad=True)
    grads = backward(tsum(add(x, b)))
    assert np.array_equal(grads[b], np.full((2, 1), 5.0))


def test_gather_cols_duplicates_accumulate():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = gather_cols(x, np.array([0, 0, 2]))
    grads = backward(tsum(out))
    assert np.array_equal(grads[x], [[2.0, 0.0, 1.0], [2.0, 0.0, 1.0]])


def test_gather_pairs_values_and_gradient():
    x = Tensor(np.arange(9.0).reshape(3, 3), requires_grad=True)
    out = gather_pairs(x, np.array([0, 2, 0]), np.array([1, 2, 1]))
    assert np.array_equal(out.data, [[1.0, 8.0, 1.0]])
    grads = backward(tsum(out))
    expect = np.zeros((3, 3))
    expect[0, 1] = 2.0
    expect[2, 2] = 1.0
    assert np.array_equal(grads[x], expect)


def test_logsumexp_matches_numpy_and_is_stable():
    rng = np.random.default_rng(0)
    a = rng.uniform(-2, 2, (4, 5))
    out = logsumexp(as_tensor(a), axis=0)
    expect = np.log(np.exp(a).sum(axis=0, keepdims=True))
    assert np.allclose(out.data, expect, atol=1e-12)
    big = logsumexp(as_tensor([[1000.0, 1001.0]]), axis=1)
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
    out = logsumexp(as_tensor(a), axis=axis, mask=mask)
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
        return tsum(mul(logsumexp(x, axis=axis, mask=use), w))

    analytic = backward(forward())
    assert max_rel_err(analytic[x], central_diff(forward, x)) < 1e-4
    if masked:
        assert np.all(analytic[x][~mask] == 0.0)
        assert np.all(analytic[x][mask] > 0.0)


def test_masked_logsumexp_is_stable_at_large_magnitudes():
    a = np.array([[1000.0, 1001.0, -1000.0], [-1000.0, -1001.0, 1000.0]])
    mask = np.array([[True, True, True], [True, True, False]])
    x = Tensor(a, requires_grad=True)
    out = logsumexp(x, axis=1, mask=mask)
    assert out.data[0, 0] == pytest.approx(1001.0 + np.log(1 + np.exp(-1.0)), rel=1e-15)
    assert out.data[1, 0] == pytest.approx(-1000.0 + np.log(1 + np.exp(-1.0)), rel=1e-15)
    g = backward(tsum(out))[x]
    assert np.isfinite(g).all()
    assert g[1, 2] == 0.0
    assert np.allclose(g.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_masked_logsumexp_rejects_bad_masks():
    a = as_tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        logsumexp(a, axis=1, mask=np.ones((3, 2), dtype=bool))
    with pytest.raises(ShapeError):
        logsumexp(a, axis=1, mask=np.ones((1, 3), dtype=bool))  # broadcastable is not enough
    empty_row = np.array([[True, True, True], [False, False, False]])
    with pytest.raises(ShapeError):
        logsumexp(a, axis=1, mask=empty_row)
    logsumexp(a, axis=0, mask=empty_row)  # every column still selects an entry
    with pytest.raises(ShapeError):
        logsumexp(a, axis=None, mask=np.zeros((2, 3), dtype=bool))


def test_softplus_extremes():
    assert softplus(as_tensor([[0.0]])).item() == pytest.approx(np.log(2.0))
    assert softplus(as_tensor([[-200.0]])).item() == pytest.approx(0.0, abs=1e-12)
    assert softplus(as_tensor([[200.0]])).item() == pytest.approx(200.0)


@pytest.mark.parametrize("seed", range(6))
def test_fd_matches_analytic_on_composed_graph(seed):
    # mixed graph exercising matmul, broadcasting, relu, exp/log, reductions
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-2, 2, (2, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, (2, 1)), requires_grad=True)

    def forward():
        h = relu(add(matmul(w, x), b))
        z = add(tsum(mul(h, h), axis=0), 1.0)
        return tmean(add(log(z), tsum(softplus(tsum(h, axis=1)))))

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
        return tsum(add(add(sqrt(absval(x)), mul(relu(x), x)), log(add(mul(x, x), 0.5))))

    analytic = backward(forward())
    fd = central_diff(forward, x)
    assert max_rel_err(analytic[x], fd) < 1e-4


def test_constant_graph_backward_empty():
    out = add([[1.0]], [[2.0]])
    assert backward(out) == {}


def test_non_finite_result_raises():
    with pytest.raises(NumericsError, match="^exp: operation produced non-finite entries$"):
        exp([[1e308]])


def test_non_finite_gradient_error_names_the_op():
    # log of a subnormal is finite, its derivative 1 / x is not
    x = Tensor([[1e-310]], requires_grad=True)
    with pytest.raises(NumericsError, match="^log: backward produced non-finite gradient entries$"):
        backward(log(x))


def test_backward_raises_when_accumulated_gradient_overflows():
    # each mul's gradient term is 1e308; their sum at the shared leaf is not finite
    x = Tensor([[1e-300]], requires_grad=True)
    with pytest.raises(NumericsError, match="^mul: backward"):
        backward(add(mul(x, 1e308), mul(x, 1e308)))


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


def test_every_public_autograd_name_is_used_by_another_package_module():
    # the engine is the tape the package runs: an op only the tests call
    # belongs in tests/primitives.py, not in autograd's public names
    imported = set()
    for path in Path(ag.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "autograd":
                imported.update(alias.name for alias in node.names)
    assert sorted(set(ag.__all__) - imported) == []
