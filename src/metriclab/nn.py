"""Layers: linear, batch normalization and the MLP, plus a text checkpoint
writer for parameter matrices. The feature extractor is an MLP; the center
predictor is an MLP with a depth check and an identity init.

All layers consume and produce d x N matrices (column per sample) and expose
params() as (name, Tensor) pairs for the optimizer and checkpointing.
Their numpy forward (`_run_steps`, each layer's `_apply`, `standardize`)
also broadcasts over a leading stack axis: a P x d x N stack of inputs, or
a parameter whose data is a stack of P matrices, gives a P x d' x N stack
whose every slice is bit-identical to the 2-D run on that slice's data.
A layer op records `_run_steps` as its forward, so gradcheck's replay runs
every perturbation of a leaf in one call. Backward stays 2-D.

Every layer forward is one autograd op, a layer stack: a chain of Linear and
BatchNorm steps with relu between them, run on plain arrays by
`_run_steps`. Linear and BatchNorm are one-step stacks (their `steps` is
(self,)); an MLP runs the step list its constructor built as one node, so
the hidden activations never become Tensors. The stack's backward replays
each step's rule in reverse, so values and gradients are bit-identical to
the chain of one-layer ops and relus.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, _node, _unbroadcast, as_tensor, check_finite
from .errors import ConfigError, ShapeError

__all__ = [
    "Linear",
    "BatchNorm",
    "standardize",
    "MLP",
    "CenterPredictor",
    "save_checkpoint",
]

CHECKPOINT_HEADER = "metriclab-checkpoint v1"

# a stack step: relu, applied in place to the output of the step before it
RELU = "relu"


def _run_steps(steps, h: np.ndarray, keep: bool = True):
    """The numpy forward of steps from h: (output, saved), where saved holds
    each layer's memo for its rule and each relu's bool mask. With keep
    false, for a forward that no backward follows (gradcheck's finite
    difference), saved stays empty: no relu mask is built, and each memo
    is dropped after its step.

    steps are Linear and BatchNorm layers with RELU between them. Each layer
    output is checked with that layer's own message; a relu output of finite
    input is finite. Each relu runs in place on the output of the step
    before it, so h itself is never written when steps start with a layer.
    """
    saved = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step in steps:
            if step is RELU:
                if keep:
                    saved.append(h > 0.0)
                np.maximum(h, 0.0, out=h)
                continue
            h, memo = step._apply(h)
            check_finite(h, f"{type(step).__name__}.forward")
            if keep:
                saved.append(memo)
    return h, saved


def _stack(owner, steps, x) -> Tensor:
    """Run steps on x as one autograd op that failures name as owner's forward.

    The forward is `_run_steps`, which the op also records; the op's
    parents are the first layer's (weight or gamma, x, bias or beta), then
    the later layers' parameters.

    Buffers: the op overwrites only arrays that it allocated itself. Each
    relu keeps the bool mask of its in-place forward; backward multiplies
    that mask in place into the gradient that the next step's rule just
    returned. x.data, the parameters and the upstream gradient are never
    written, which is why a stack never starts or ends with a relu.
    """
    if steps[0] is RELU or steps[-1] is RELU:
        raise ValueError("a layer stack starts and ends with a Linear or BatchNorm step")
    x = as_tensor(x)
    h, saved = _run_steps(steps, x.data)
    first_a, first_b, *later = (p for step in steps if step is not RELU for _, p in step.params())

    def bw(g):
        grads = []  # (grad a, grad b) per layer, last layer first
        for i in range(len(steps) - 1, -1, -1):
            step = steps[i]
            if step is RELU:
                np.multiply(g, saved[i], out=g)
                continue
            g_a, g, g_b = step._grads(g, saved[i], i > 0 or x.requires_grad)
            grads.append((g_a, g_b))
        g_a, g_b = grads.pop()
        return (g_a, g, g_b, *(pg for pair in reversed(grads) for pg in pair))

    # backward names a failing rule by its qualname: the owner, not _stack
    bw.__qualname__ = f"{type(owner).__name__}.forward.<locals>.bw"

    def forward(_, xv, *params):  # the layers read their parameters' data themselves
        return _run_steps(steps, xv, keep=False)[0]

    return _node(h, (first_a, x, first_b, *later), bw, forward)


class Linear:
    """Affine map W x + b, W: out_dim x in_dim, b: out_dim x 1.

    Weights init uniform in [-sqrt(1/in_dim), sqrt(1/in_dim)], bias zero.
    Its backward replays the composed graph matmul(W, x) + b bit for bit.
    For a constant input (the raw batch, fixed refit points) it skips the
    W^T g term that nothing would use.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        if in_dim < 1 or out_dim < 1:
            raise ConfigError("linear: dims must be positive")
        self.in_dim = in_dim
        self.out_dim = out_dim
        bound = np.sqrt(1.0 / in_dim)
        try:
            weight = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        except (ValueError, MemoryError):  # numpy: "array is too big", or no memory for it
            raise ConfigError(f"linear: cannot allocate a {out_dim} x {in_dim} weight matrix") from None
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(np.zeros((out_dim, 1)), requires_grad=True)

    @property
    def steps(self) -> tuple:
        return (self,)

    def forward(self, x) -> Tensor:
        return _stack(self, self.steps, x)

    __call__ = forward

    def _apply(self, x: np.ndarray):
        """Numpy forward: (output, what _grads needs)."""
        if x.shape[-2] != self.in_dim:
            raise ShapeError(f"linear: expected {self.in_dim} rows, got {x.shape[-2]}")
        out = self.weight.data @ x
        out += self.bias.data
        return out, x

    def _grads(self, g: np.ndarray, x: np.ndarray, need_x: bool):
        g_x = self.weight.data.T @ g if need_x else None
        return g @ x.T, g_x, _unbroadcast(g, self.bias.shape)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


def standardize(x: np.ndarray):
    """`BatchNorm` without gamma and beta, as the CPL targets use it:
    (centered, std, xhat, inv_n) with xhat = centered / std, per row."""
    n = x.shape[-1]
    if n < 2:
        raise ShapeError("batchnorm: needs a batch of at least 2")
    inv_n = 1.0 / n
    mu = x.sum(axis=-1, keepdims=True) * inv_n
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt(var + BatchNorm.eps)
    # an overflowing square makes var inf and xhat 0; as var >= 0, a finite
    # std is at least sqrt(eps), so it never divides by zero
    check_finite(std, "batchnorm", "variance is not finite or std is zero")
    return centered, std, centered / std, inv_n


class BatchNorm:
    """Per-feature batch normalization over the sample axis: `standardize`
    with the batch's mean and (biased) variance, so at least 2 samples, then
    scale gamma and shift beta. The lab uses it only in predictor layers, so
    it keeps no running statistics and has no eval mode.

    Its forward and backward do the numpy operations of the composed graph
    (mean, center, square, mean, add eps, sqrt, divide, scale, shift) in the
    same order, so values and gradients are bit-identical to it; the
    textbook closed-form backward would regroup the sums and move the last
    bits. For a constant input it skips the input gradient.
    """

    eps = 1e-5

    def __init__(self, dim: int):
        self.dim = dim
        self.gamma = Tensor(np.ones((dim, 1)), requires_grad=True)
        self.beta = Tensor(np.zeros((dim, 1)), requires_grad=True)

    @property
    def steps(self) -> tuple:
        return (self,)

    def forward(self, x) -> Tensor:
        return _stack(self, self.steps, x)

    __call__ = forward

    def _apply(self, x: np.ndarray):
        """Numpy forward: (output, what _grads needs)."""
        if x.shape[-2] != self.dim:
            raise ShapeError(f"batchnorm: expected {self.dim} rows, got {x.shape[-2]}")
        memo = standardize(x)
        out = self.gamma.data * memo[2]
        out += self.beta.data
        return out, memo

    def _grads(self, g: np.ndarray, memo, need_x: bool):
        centered, std, xhat, inv_n = memo
        g_x = None
        if need_x:
            g_xhat = g * self.gamma.data
            # through std: sqrt, the eps add, and the mean of the squares
            g_sq = (-g_xhat * centered / (std * std)).sum(axis=1, keepdims=True) * 0.5 / std * inv_n
            # centered feeds xhat and both factors of its square
            g_centered = g_xhat / std + g_sq * centered + g_sq * centered
            g_x = g_centered + (-g_centered).sum(axis=1, keepdims=True) * inv_n
        return _unbroadcast(g * xhat, self.gamma.shape), g_x, _unbroadcast(g, self.beta.shape)

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]


class MLP:
    """Linear layers with ReLU between them and none after the last, with
    optional batch norm after each hidden linear (bn_hidden) and after the
    last linear (bn_output).

    The constructor lays the network out once as `steps` (Linear, [BN],
    RELU, ..., Linear, [BN]); forward runs them as one layer stack, and
    params() names the linears, then the hidden BNs, then the output BN.
    """

    def __init__(
        self, in_dim: int, hidden: tuple, out_dim: int, rng: np.random.Generator, bn_hidden=False, bn_output=False
    ):
        dims = [in_dim, *hidden, out_dim]
        self.in_dim = in_dim
        self.layers = [Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]
        self.hidden_bns = [BatchNorm(h) for h in hidden] if bn_hidden else []
        self.output_bn = BatchNorm(out_dim) if bn_output else None
        steps = []
        for i, layer in enumerate(self.layers[:-1]):
            steps += [layer, self.hidden_bns[i], RELU] if bn_hidden else [layer, RELU]
        steps += [self.layers[-1], self.output_bn] if bn_output else [self.layers[-1]]
        self.steps = tuple(steps)

    def forward(self, x) -> Tensor:
        return _stack(self, self.steps, x)

    __call__ = forward

    def params(self):
        groups = [(f"layers.{i}.", layer) for i, layer in enumerate(self.layers)]
        groups += [(f"hidden_bns.{i}.", bn) for i, bn in enumerate(self.hidden_bns)]
        groups += [("output_bn.", self.output_bn)] if self.output_bn is not None else []
        return [(prefix + n, p) for prefix, module in groups for n, p in module.params()]


class CenterPredictor(MLP):
    """MLP head f(x; theta) mapping embeddings to predicted class centers:
    dim -> hidden -> ... -> dim with depth (2 or 4) linear layers."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator, depth=2, bn_hidden=False, bn_output=False):
        if depth not in (2, 4):
            raise ConfigError(f"predictor depth must be 2 or 4, got {depth}")
        super().__init__(dim, (hidden,) * (depth - 1), dim, rng, bn_hidden, bn_output)

    # the class's own entries, so that a wrapper of MLP.forward (a tracer)
    # and one of CenterPredictor.forward each see only their own calls
    forward = MLP.forward
    __call__ = forward

    def init_identity(self):
        """Set the linear stack to the exact identity map.

        Uses relu(x) - relu(-x) = x: the first layer stacks [I; -I], middle
        layers rebuild x and re-stack, the last collapses with [I, -I].
        Needs hidden >= 2*dim and no BN layers (BN would break identity).
        """
        d, h = self.in_dim, self.layers[0].out_dim
        if h < 2 * d:
            raise ConfigError(f"identity init needs hidden >= 2*dim ({h} < {2 * d})")
        if self.hidden_bns or self.output_bn is not None:
            raise ConfigError("identity init is undefined with BN layers present")
        eye = np.eye(d)
        expand = np.zeros((h, d))
        expand[:d] = eye
        expand[d : 2 * d] = -eye
        collapse = np.zeros((d, h))
        collapse[:, :d] = eye
        collapse[:, d : 2 * d] = -eye
        self.layers[0].weight.data[:] = expand
        for mid in self.layers[1:-1]:
            mid.weight.data[:] = expand @ collapse
        self.layers[-1].weight.data[:] = collapse
        for layer in self.layers:
            layer.bias.data[:] = 0.0


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(path, named_params: dict):
    """Write named 2-D Tensors as text: header, then per matrix a name/shape
    line followed by one line of row-major repr floats (repr round-trips
    float64 exactly)."""
    lines = [CHECKPOINT_HEADER]
    for name, param in named_params.items():
        arr = param.data
        lines.append(f"{name} {arr.shape[0]} {arr.shape[1]}")
        lines.append(" ".join(repr(float(v)) for v in arr.ravel()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
