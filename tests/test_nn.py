import numpy as np
import pytest

from metriclab.autograd import Tensor, as_tensor, backward, matmul
from metriclab.errors import ConfigError, DataFormatError, NumericsError, ShapeError
from metriclab.nn import (
    BatchNorm,
    CenterPredictor,
    Linear,
    MLP,
    load_checkpoint,
    save_checkpoint,
)

from fd_utils import central_diff, max_rel_err


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


def test_linear_rejects_wrong_input_rows(rng):
    layer = Linear(3, 2, rng)
    with pytest.raises(ShapeError):
        layer(as_tensor(np.zeros((4, 1))))


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
        return (out * r + out * out).sum()

    analytic = backward(forward())
    for leaf in (x, bn.gamma, bn.beta):
        assert max_rel_err(analytic[leaf], central_diff(forward, leaf)) < 1e-4


def test_mlp_shapes_and_gradients(rng):
    mlp = MLP(4, (8, 8), 3, rng)
    x = Tensor(rng.uniform(-2, 2, (4, 5)), requires_grad=True)
    out = mlp(x)
    assert out.shape == (3, 5)
    grads = backward((out * out).sum())
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
    grads = backward((out * out).sum())
    for name, p in pred.params():
        assert p in grads and np.linalg.norm(grads[p]) > 0, name


def test_checkpoint_round_trip_exact(tmp_path, rng):
    mlp = MLP(3, (5,), 2, rng)
    named = {f"extractor.{n}": p for n, p in mlp.params()}
    named["centers"] = rng.normal(0, 1, (2, 4))
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, named)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(named)
    for name, ref in named.items():
        ref = ref.data if hasattr(ref, "data") else ref
        assert np.array_equal(loaded[name], ref), name


def test_checkpoint_rejects_wrong_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("something else\n")
    with pytest.raises(DataFormatError):
        load_checkpoint(p)


# -- fused layers against the composed graphs they replace ------------------


def composed_linear(layer, x):
    """Linear as two autograd ops, the reference for the fused op."""
    return matmul(layer.weight, as_tensor(x)) + layer.bias


def composed_batchnorm(bn, x):
    """BatchNorm as a graph of autograd primitives, the reference for the
    fused op: same ops, same order."""
    x = as_tensor(x)
    centered = x - x.mean(axis=1)
    var = (centered * centered).mean(axis=1)
    xhat = centered / (var + bn.eps).sqrt()
    return bn.gamma * xhat + bn.beta


def _value_and_grads(forward, x, r, leaves):
    out = forward(x)
    # a non-uniform upstream gradient, so every backward term is exercised
    grads = backward((out * r + out * out).sum())
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
        grads = backward((out * r + out * out).sum())
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


def test_fused_predictor_gradients_bit_identical_to_composed_graph(monkeypatch):
    def build():
        return CenterPredictor(3, 8, np.random.default_rng(7), depth=4, bn_hidden=True, bn_output=True)

    def run(pred):
        x = Tensor(np.random.default_rng(8).normal(0, 1, (3, 6)), requires_grad=True)
        out = pred(x)
        grads = backward((out * out).sum())
        return out.data, [grads[x]] + [grads[p] for _, p in pred.params()]

    fused = run(build())
    monkeypatch.setattr(Linear, "__call__", composed_linear)
    monkeypatch.setattr(BatchNorm, "__call__", composed_batchnorm)
    _assert_bit_equal(fused, run(build()))


def test_batchnorm_raises_when_the_square_overflows():
    # centered * centered is inf, which would make xhat 0 and the output finite
    x = as_tensor([[1e200, -1e200, 0.0], [1.0, 2.0, 3.0]])
    with pytest.raises(NumericsError, match="batchnorm"):
        BatchNorm(2)(x)


def test_batchnorm_rejects_wrong_input_rows():
    # wrong rows for Linear and a 1-sample batch are tested above
    with pytest.raises(ShapeError):
        BatchNorm(3)(as_tensor(np.ones((4, 5))))


def test_checkpoint_rejects_truncated_file(tmp_path):
    p = tmp_path / "cut.txt"
    save_checkpoint(p, {"w": np.ones((2, 2))})
    p.write_text("\n".join(p.read_text().splitlines()[:2]) + "\n")
    with pytest.raises(DataFormatError, match="'w'"):
        load_checkpoint(p)


def test_checkpoint_rejects_undecodable_bytes(tmp_path):
    p = tmp_path / "bad.txt"
    save_checkpoint(p, {"w": np.ones((2, 2))})
    p.write_bytes(p.read_bytes().replace(b"1.0", b"1.\x80", 1))
    with pytest.raises(DataFormatError, match="bad.txt"):
        load_checkpoint(p)


@pytest.mark.parametrize("entry", ["w 1 2\n1.0 abc\n", "w 1 x\n1.0\n"], ids=["value", "shape"])
def test_checkpoint_rejects_non_numeric_entry(tmp_path, entry):
    p = tmp_path / "bad.txt"
    p.write_text("metriclab-checkpoint v1\n" + entry)
    with pytest.raises(DataFormatError, match="'w'"):
        load_checkpoint(p)
