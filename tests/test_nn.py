import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from metriclab.autograd import Tensor, as_tensor, backward
from metriclab.errors import ConfigError, NumericsError, ShapeError
from metriclab.nn import (
    CHECKPOINT_HEADER,
    RELU,
    BatchNorm,
    CenterPredictor,
    Linear,
    MLP,
    _run_steps,
    _stack,
    save_checkpoint,
    standardize,
)

from fd_utils import central_diff, max_rel_err
from primitives import add, div, matmul, mul, relu, sqrt, sub, tmean, tsum


def test_linear_applies_affine_map(rng):
    layer = Linear(3, 2, rng)
    layer.weight.data[:] = [[1.0, 0.0, 2.0], [0.0, -1.0, 0.0]]
    layer.bias.data[:] = [[1.0], [2.0]]
    x = np.array([[1.0], [2.0], [3.0]])
    out = layer(as_tensor(x))
    assert np.array_equal(out.data, [[8.0], [0.0]])


def test_linear_init_bounds(rng):
    layer = Linear(16, 64, rng)
    bound = np.sqrt(1.0 / 16)
    assert np.abs(layer.weight.data).max() <= bound
    assert np.array_equal(layer.bias.data, np.zeros((64, 1)))


@pytest.mark.parametrize(
    "make",
    [lambda rng: Linear(3, 2, rng), lambda rng: MLP(3, (4,), 2, rng), lambda rng: CenterPredictor(3, 8, rng)],
    ids=["Linear", "MLP", "CenterPredictor"],
)
def test_linear_rejects_wrong_input_rows(make, rng):
    # MLP and CenterPredictor rely on their first Linear's row check
    with pytest.raises(ShapeError, match="^linear: expected 3 rows, got 4$"):
        make(rng)(as_tensor(np.zeros((4, 2))))


def test_batchnorm_two_point_batch_closed_form():
    bn = BatchNorm(1)
    out = bn(as_tensor([[1.0, 3.0]]))
    expect = 1.0 / np.sqrt(1.0 + bn.eps)  # mean 2, biased var 1
    assert out.data[0, 0] == pytest.approx(-expect, rel=1e-12)
    assert out.data[0, 1] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("n", [2, 4, 16, 64])
def test_batchnorm_standardizes_batch(n, rng):
    bn = BatchNorm(5)
    x = rng.normal(3.0, 2.5, (5, n))
    out = bn(as_tensor(x)).data
    assert np.abs(out.mean(axis=1)).max() < 1e-6
    # biased variance of the output approaches 1 as eps vanishes
    assert np.abs(out.var(axis=1) - 1.0).max() < 1e-4


def test_batchnorm_constant_batch_maps_to_zero():
    bn = BatchNorm(2)
    out = bn(as_tensor(np.full((2, 6), 7.0)))
    assert np.array_equal(out.data, np.zeros((2, 6)))


def test_batchnorm_train_needs_two_samples():
    bn = BatchNorm(2)
    with pytest.raises(ShapeError):
        bn(as_tensor(np.ones((2, 1))))


def test_batchnorm_gradients_match_fd(rng):
    bn = BatchNorm(3)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, (3, 1))
    bn.beta.data[:] = rng.uniform(-0.5, 0.5, (3, 1))
    x = Tensor(rng.uniform(-2, 2, (3, 6)), requires_grad=True)
    r = as_tensor(rng.uniform(-1, 1, (3, 6)))

    def forward():
        out = bn(x)
        return tsum(add(mul(out, r), mul(out, out)))

    analytic = backward(forward())
    for leaf in (x, bn.gamma, bn.beta):
        assert max_rel_err(analytic[leaf], central_diff(forward, leaf)) < 1e-4


def test_mlp_shapes_and_gradients(rng):
    mlp = MLP(4, (8, 8), 3, rng)
    x = Tensor(rng.uniform(-2, 2, (4, 5)), requires_grad=True)
    out = mlp(x)
    assert out.shape == (3, 5)
    grads = backward(tsum(mul(out, out)))
    for name, p in mlp.params():
        assert p in grads, f"parameter {name} got no gradient"
        assert np.linalg.norm(grads[p]) > 0, f"parameter {name} gradient is zero"


def test_predictor_identity_init_is_exact_identity(rng):
    pred = CenterPredictor(dim=3, hidden=8, rng=rng, depth=2)
    pred.init_identity()
    x = rng.uniform(-5, 5, (3, 7))
    assert np.allclose(pred(as_tensor(x)).data, x, atol=1e-12)


def test_predictor_identity_init_depth4(rng):
    pred = CenterPredictor(dim=2, hidden=6, rng=rng, depth=4)
    pred.init_identity()
    x = rng.uniform(-5, 5, (2, 9))
    assert np.allclose(pred(as_tensor(x)).data, x, atol=1e-12)


def test_predictor_identity_init_needs_width(rng):
    pred = CenterPredictor(dim=4, hidden=6, rng=rng, depth=2)
    with pytest.raises(ConfigError):
        pred.init_identity()


def test_predictor_rejects_bad_depth(rng):
    with pytest.raises(ConfigError):
        CenterPredictor(dim=3, hidden=8, rng=rng, depth=3)


def test_predictor_bn_flags_off_matches_plain_mlp(rng):
    pred = CenterPredictor(dim=3, hidden=8, rng=np.random.default_rng(0), depth=2)
    twin = MLP(3, (8,), 3, np.random.default_rng(0))
    x = rng.uniform(-1, 1, (3, 5))
    assert np.allclose(pred(as_tensor(x)).data, twin(as_tensor(x)).data, atol=1e-12)


def test_predictor_bn_variants_forward_and_grads(rng):
    pred = CenterPredictor(dim=3, hidden=8, rng=rng, depth=2, bn_hidden=True, bn_output=True)
    x = Tensor(rng.uniform(-2, 2, (3, 6)), requires_grad=True)
    out = pred(x)
    assert out.shape == (3, 6)
    grads = backward(tsum(mul(out, out)))
    for name, p in pred.params():
        assert p in grads and np.linalg.norm(grads[p]) > 0, name


def test_checkpoint_round_trip_exact(tmp_path, rng):
    mlp = MLP(3, (5,), 2, rng)
    named = {f"extractor.{n}": p for n, p in mlp.params()}
    named["centers"] = Tensor(rng.normal(0, 1, (2, 4)))
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, named)
    header, *lines = path.read_text().splitlines()
    assert header == CHECKPOINT_HEADER
    assert len(lines) == 2 * len(named)
    for (name, ref), entry, values in zip(named.items(), lines[::2], lines[1::2]):
        assert entry == f"{name} {ref.shape[0]} {ref.shape[1]}"
        parsed = np.array([float(v) for v in values.split()]).reshape(ref.shape)
        assert np.array_equal(parsed, ref.data), name


# -- fused layers against the composed graphs they replace ------------------


def composed_linear(layer, x):
    """Linear as two primitives, the reference for the fused op."""
    return add(matmul(layer.weight, as_tensor(x)), layer.bias)


def composed_batchnorm(bn, x):
    """BatchNorm as a graph of primitives, the reference for the
    fused op: same ops, same order."""
    x = as_tensor(x)
    centered = sub(x, tmean(x, axis=1))
    var = tmean(mul(centered, centered), axis=1)
    xhat = div(centered, sqrt(add(var, bn.eps)))
    return add(mul(bn.gamma, xhat), bn.beta)


def _value_and_grads(forward, x, r, leaves):
    out = forward(x)
    # a non-uniform upstream gradient, so every backward term is exercised
    grads = backward(tsum(add(mul(out, r), mul(out, out))))
    return out.data, [grads[leaf] for leaf in (x, *leaves)]


def _assert_bit_equal(fused, composed):
    (f_out, f_grads), (c_out, c_grads) = fused, composed
    assert np.array_equal(f_out, c_out)
    for f, c in zip(f_grads, c_grads):
        assert np.array_equal(f, c)


@pytest.mark.parametrize("n", [1, 2, 16])
def test_fused_linear_is_bit_identical_to_composed_graph(n, rng):
    layer = Linear(5, 3, rng)
    layer.bias.data[:] = rng.normal(0, 1, (3, 1))
    x = Tensor(rng.normal(0, 2, (5, n)), requires_grad=True)
    r = as_tensor(rng.normal(0, 1, (3, n)))
    leaves = (layer.weight, layer.bias)
    _assert_bit_equal(
        _value_and_grads(layer, x, r, leaves),
        _value_and_grads(lambda t: composed_linear(layer, t), x, r, leaves),
    )


def test_linear_rule_gives_none_for_a_constant_input(rng):
    layer = Linear(5, 3, rng)
    out = layer(rng.normal(0, 2, (5, 4)))
    g_w, g_x, g_b = out._backward(np.ones(out.shape))
    assert g_x is None
    assert g_w.shape == (3, 5) and g_b.shape == (3, 1)


@pytest.mark.parametrize("n", [1, 2, 16])
def test_linear_on_a_constant_input_keeps_composed_param_gradients(n, rng):
    layer = Linear(5, 3, rng)
    layer.bias.data[:] = rng.normal(0, 1, (3, 1))
    x = as_tensor(rng.normal(0, 2, (5, n)))
    r = as_tensor(rng.normal(0, 1, (3, n)))

    def run(forward):
        out = forward(x)
        grads = backward(tsum(add(mul(out, r), mul(out, out))))
        assert x not in grads
        return out.data, [grads[layer.weight], grads[layer.bias]]

    _assert_bit_equal(run(layer), run(lambda t: composed_linear(layer, t)))


@pytest.mark.parametrize("n", [2, 16])
def test_fused_batchnorm_is_bit_identical_to_composed_graph(n, rng):
    bn = BatchNorm(4)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, (4, 1))
    bn.beta.data[:] = rng.uniform(-0.5, 0.5, (4, 1))
    x = Tensor(rng.normal(3.0, 2.5, (4, n)), requires_grad=True)
    r = as_tensor(rng.normal(0, 1, (4, n)))
    leaves = (bn.gamma, bn.beta)
    _assert_bit_equal(
        _value_and_grads(bn, x, r, leaves),
        _value_and_grads(lambda t: composed_batchnorm(bn, t), x, r, leaves),
    )


def chained(net, x, linear=Linear.forward, batchnorm=BatchNorm.forward):
    """net as a chain of one-layer ops and primitive relus: the reference for
    its layer stack, read from its layers and BNs and never from its steps."""
    h = as_tensor(x)
    for i, layer in enumerate(net.layers[:-1]):
        h = linear(layer, h)
        if net.hidden_bns:
            h = batchnorm(net.hidden_bns[i], h)
        h = relu(h)
    h = linear(net.layers[-1], h)
    return h if net.output_bn is None else batchnorm(net.output_bn, h)


def test_fused_predictor_gradients_bit_identical_to_composed_graph():
    pred = CenterPredictor(3, 8, np.random.default_rng(7), depth=4, bn_hidden=True, bn_output=True)

    def run(forward):
        x = Tensor(np.random.default_rng(8).normal(0, 1, (3, 6)), requires_grad=True)
        out = forward(x)
        grads = backward(tsum(mul(out, out)))
        return out.data, [grads[x]] + [grads[p] for _, p in pred.params()]

    _assert_bit_equal(run(pred), run(lambda t: chained(pred, t, composed_linear, composed_batchnorm)))


# -- layer stacks: MLP and CenterPredictor as one autograd op ----------------

# name -> CenterPredictor keywords; "mlp" is an MLP
STACKS = {
    "mlp": None,
    **{
        f"pred-d{depth}{'-bnh' if bnh else ''}{'-bno' if bno else ''}": dict(
            depth=depth, bn_hidden=bnh, bn_output=bno
        )
        for depth in (2, 4)
        for bnh in (False, True)
        for bno in (False, True)
    },
}


def build_stack(name, rng):
    kwargs = STACKS[name]
    return MLP(3, (8, 8), 3, rng) if kwargs is None else CenterPredictor(3, 8, rng, **kwargs)


@pytest.mark.parametrize("x_grad", [False, True], ids=["const-x", "grad-x"])
@pytest.mark.parametrize("name", list(STACKS))
def test_stack_is_bit_identical_to_chained_one_layer_ops(name, x_grad, rng):
    net = build_stack(name, rng)
    for _, p in net.params():  # move BN parameters off their 1 / 0 start
        p.data += rng.normal(0, 0.1, p.shape)
    x = Tensor(rng.normal(0, 1, (3, 16)), requires_grad=x_grad)
    r = as_tensor(rng.normal(0, 1, (3, 16)))
    leaves = [p for _, p in net.params()]

    def run(forward):
        out = forward(x)
        grads = backward(tsum(add(mul(out, r), mul(out, out))))
        assert (x in grads) == x_grad
        return out.data, [grads[leaf] for leaf in ([x] if x_grad else []) + leaves]

    stacked, reference = run(net), run(lambda t: chained(net, t))
    assert len(stacked[1]) == len(reference[1])
    _assert_bit_equal(stacked, reference)


# the layers and layer stacks whose numpy forward runs on a leading stack axis
STACK_PATH = ["linear", "batchnorm", *STACKS]


def build_moved(name, rng):
    """The layer or stack `name`, every parameter moved off its init."""
    if name == "linear":
        net = Linear(3, 4, rng)
    elif name == "batchnorm":
        net = BatchNorm(3)
    else:
        net = build_stack(name, rng)
    for _, p in net.params():
        p.data += rng.normal(0, 0.1, p.shape)
    return net


@pytest.mark.parametrize("name", STACK_PATH)
def test_each_slice_of_a_stacked_forward_is_the_2d_run_bit_for_bit(name, rng):
    net = build_moved(name, rng)
    xs = rng.normal(0, 1, (5, 3, 6))
    out = _run_steps(net.steps, xs)[0]
    assert out.shape[0] == 5
    for x, got in zip(xs, out, strict=True):
        assert np.array_equal(got, _run_steps(net.steps, x)[0])
    # a stack of one parameter over its input broadcast along the stack, as
    # gradcheck perturbs a parameter
    x = xs[0]
    for _, p in net.params():
        orig = p.data
        stack = orig + rng.normal(0, 0.1, (5, *orig.shape))
        p.data = stack
        out = _run_steps(net.steps, np.broadcast_to(x, (5, *x.shape)))[0]
        for k in range(5):
            p.data = stack[k]
            assert np.array_equal(out[k], _run_steps(net.steps, x)[0])
        p.data = orig


@pytest.mark.parametrize("name", STACK_PATH)
def test_a_forward_that_keeps_nothing_gives_the_same_output(name, rng):
    # gradcheck's finite difference runs no backward, so it keeps no memo or relu mask
    net = build_moved(name, rng)
    xs = rng.normal(0, 1, (5, 3, 6))
    out, saved = _run_steps(net.steps, xs, keep=False)
    assert saved == []
    assert np.array_equal(out, _run_steps(net.steps, xs)[0])


@pytest.mark.parametrize("name", STACK_PATH)
def test_a_stack_with_one_overflowing_slice_raises_its_layers_message(name, rng):
    net = build_moved(name, rng)
    last = net.steps[-1]
    x = rng.normal(0, 1, (3, 6))
    # slice 1 sets the last layer's parameters to 1.7e308, so its output is
    # 1.7e308 * (1 + a column sum of its input, or xhat), which overflows
    # where that sum or xhat is above 0.06
    for _, p in last.params():
        p.data = np.repeat(p.data[np.newaxis], 3, axis=0)
        p.data[1] = 1.7e308
    with pytest.raises(NumericsError, match=f"^{type(last).__name__}.forward: operation produced non-finite entries$"):
        _run_steps(net.steps, np.broadcast_to(x, (3, *x.shape)))
    for _, p in last.params():  # the other slices run
        p.data = p.data[0]
    assert np.isfinite(_run_steps(net.steps, x)[0]).all()


@pytest.mark.parametrize("x_grad", [False, True], ids=["const-x", "grad-x"])
@pytest.mark.parametrize("name", ["mlp", "pred-d4-bnh-bno"])
def test_stack_writes_no_input_parameter_or_upstream_gradient(name, x_grad, rng):
    net = build_stack(name, rng)
    x = Tensor(rng.normal(0, 1, (3, 6)), requires_grad=x_grad)
    r = as_tensor(rng.normal(0, 1, (3, 6)))
    inputs = [x.data] + [p.data for _, p in net.params()]
    before = [a.copy() for a in inputs]
    for a in inputs:  # an in-place write into any of them raises
        a.flags.writeable = False
    out = net(x)
    grads = backward(tsum(mul(out, r)))
    # the sweep keeps the upstream gradient the stack's rule received
    assert np.array_equal(grads[out], r.data)
    g = np.ones(out.shape)
    g.flags.writeable = False
    out._backward(g)
    assert np.array_equal(g, np.ones(out.shape))
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("where", ["start", "end"])
def test_stack_never_starts_or_ends_with_a_relu(where, rng):
    layer = Linear(3, 3, rng)
    steps = (RELU, layer) if where == "start" else (layer, RELU)
    with pytest.raises(ValueError, match="starts and ends with a Linear or BatchNorm"):
        _stack(layer, steps, rng.normal(0, 1, (3, 4)))


@pytest.mark.parametrize("layer", [1, 2])
def test_stack_names_a_later_linear_that_overflows(layer, rng):
    mlp = MLP(3, (4, 4), 2, rng)
    # every relu output before `layer` is 10, so its weights of 1e308 overflow
    for earlier in mlp.layers[:layer]:
        earlier.weight.data[:] = 0.0
        earlier.bias.data[:] = 10.0
    mlp.layers[layer].weight.data[:] = 1e308
    with pytest.raises(NumericsError, match="^Linear.forward: operation produced non-finite entries$"):
        mlp(rng.normal(0, 1, (3, 5)))


def test_stack_names_a_later_batchnorm_that_fails(rng):
    pred = CenterPredictor(3, 4, rng, depth=4, bn_hidden=True)
    x = rng.normal(0, 1, (3, 6))
    pred.hidden_bns[1].gamma.data[:] = 1e308  # some |xhat| > 1 in a batch of 6
    with pytest.raises(NumericsError, match="^BatchNorm.forward: operation produced non-finite entries$"):
        pred(x)
    pred.hidden_bns[1].gamma.data[:] = 1.0
    pred.layers[1].weight.data[:] = rng.normal(0, 1e200, (4, 4))  # its square overflows
    with pytest.raises(NumericsError, match="^batchnorm: variance is not finite or std is zero$"):
        pred(x)


@pytest.mark.parametrize("net", ["mlp", "predictor"])
def test_stack_backward_failure_names_the_owning_module(net, rng):
    net = MLP(3, (4,), 3, rng) if net == "mlp" else CenterPredictor(3, 4, rng)
    net.layers[0].weight.data[:] = 0.0
    net.layers[0].bias.data[:] = 1e-3
    net.layers[1].weight.data[:] = 100.0
    # the forward stays finite; W^T g overflows in the stack's backward
    root = tsum(mul(net(rng.normal(0, 1, (3, 5))), 1e307))
    owner = type(net).__name__
    with pytest.raises(NumericsError, match=f"^{owner}.forward: backward produced non-finite gradient entries$"):
        backward(root)


def test_batchnorm_raises_when_the_square_overflows():
    # centered * centered is inf, which would make xhat 0 and the output finite
    x = as_tensor([[1e200, -1e200, 0.0], [1.0, 2.0, 3.0]])
    with pytest.raises(NumericsError, match="batchnorm"):
        BatchNorm(2)(x)


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(2, 9)),
        elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
)
def test_standardize_is_batchnorm_at_init_bit_for_bit(x):
    # gamma = 1 and beta = 0 at init, so BatchNorm's output is xhat exactly
    assert np.array_equal(standardize(x)[2], BatchNorm(x.shape[0])(x).data)


@pytest.mark.parametrize("x", [[[1e200, -1e200, 0.0]], [[np.inf, 1.0, 2.0]]], ids=["overflow", "inf"])
def test_standardize_and_batchnorm_reject_a_non_finite_variance(x):
    x = np.array(x)
    message = "^batchnorm: variance is not finite or std is zero$"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError, match=message):
        standardize(x)
    with pytest.raises(NumericsError, match=message):
        BatchNorm(1)(x)


def test_batchnorm_rejects_wrong_input_rows():
    # wrong rows for Linear and a 1-sample batch are tested above
    with pytest.raises(ShapeError):
        BatchNorm(3)(as_tensor(np.ones((4, 5))))
