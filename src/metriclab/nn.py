"""Layers: linear, batch normalization, MLP feature extractor, and the
center predictor, plus a text checkpoint format for parameter matrices.

All layers consume and produce d x N matrices (column per sample) and expose
params() as (name, Tensor) pairs for the optimizer and checkpointing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor, _all_finite, _make, _unbroadcast, as_tensor
from .errors import ConfigError, DataFormatError, NumericsError, ShapeError

__all__ = [
    "Linear",
    "BatchNorm",
    "MLP",
    "CenterPredictor",
    "ModelConfig",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_HEADER = "metriclab-checkpoint v1"


class Linear:
    """Affine map W x + b, W: out_dim x in_dim, b: out_dim x 1.

    Weights init uniform in [-sqrt(1/in_dim), sqrt(1/in_dim)], bias zero.
    The map is one autograd op; its backward replays the composed graph
    matmul(W, x) + b bit for bit. For a constant input (the raw batch, fixed
    refit points) it skips the W^T g term that nothing would use.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        if in_dim < 1 or out_dim < 1:
            raise ConfigError("linear: dims must be positive")
        self.in_dim = in_dim
        self.out_dim = out_dim
        bound = np.sqrt(1.0 / in_dim)
        self.weight = Tensor(rng.uniform(-bound, bound, size=(out_dim, in_dim)), requires_grad=True)
        self.bias = Tensor(np.zeros((out_dim, 1)), requires_grad=True)

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        if x.shape[0] != self.in_dim:
            raise ShapeError(f"linear: expected {self.in_dim} rows, got {x.shape[0]}")
        w, b = self.weight, self.bias

        def bw(g):
            g_x = w.data.T @ g if x.requires_grad else None
            return g @ x.data.T, g_x, _unbroadcast(g, b.shape)

        with np.errstate(over="ignore", invalid="ignore"):
            out = w.data @ x.data + b.data
        return _make(out, (w, x, b), bw)

    __call__ = forward

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class BatchNorm:
    """Per-feature batch normalization over the sample axis.

    Normalizes with the current batch's mean and (biased) variance, so it
    needs at least 2 samples. The lab uses it only in training-time heads
    (predictor layers and the CPL target BN), so it keeps no running
    statistics and has no eval mode.

    The layer is one autograd op. Its forward and backward do the numpy
    operations of the composed graph (mean, center, square, mean, add eps,
    sqrt, divide, scale, shift) in the same order, so values and gradients
    are bit-identical to it; the textbook closed-form backward would regroup
    the sums and move the last bits.
    """

    eps = 1e-5

    def __init__(self, dim: int):
        self.dim = dim
        self.gamma = Tensor(np.ones((dim, 1)), requires_grad=True)
        self.beta = Tensor(np.zeros((dim, 1)), requires_grad=True)

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        if x.shape[0] != self.dim:
            raise ShapeError(f"batchnorm: expected {self.dim} rows, got {x.shape[0]}")
        gamma, beta = self.gamma, self.beta
        n = x.shape[1]
        if n < 2:
            raise ShapeError("batchnorm: needs a batch of at least 2")
        inv_n = 1.0 / n
        with np.errstate(over="ignore", invalid="ignore"):
            mu = x.data.sum(axis=1, keepdims=True) * inv_n
            centered = x.data - mu
            var = (centered * centered).sum(axis=1, keepdims=True) * inv_n
            std = np.sqrt(var + self.eps)
            # an overflowing square makes var inf and xhat 0, which would pass
            # the output check below; a zero std would divide by zero
            if not (_all_finite(std) and np.logical_and.reduce(std > 0.0, axis=None)):
                raise NumericsError("batchnorm: variance is not finite or std is zero")
            xhat = centered / std
            out = gamma.data * xhat + beta.data

        def bw(g):
            g_xhat = g * gamma.data
            # through std: sqrt, the eps add, and the mean of the squares
            g_sq = (-g_xhat * centered / (std * std)).sum(axis=1, keepdims=True) * 0.5 / std * inv_n
            # centered feeds xhat and both factors of its square
            g_centered = g_xhat / std + g_sq * centered + g_sq * centered
            g_x = g_centered + (-g_centered).sum(axis=1, keepdims=True) * inv_n
            return _unbroadcast(g * xhat, gamma.shape), g_x, _unbroadcast(g, beta.shape)

        return _make(out, (gamma, x, beta), bw)

    __call__ = forward

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]


class MLP:
    """Feature extractor: linear layers with ReLU between, none after the last."""

    def __init__(self, in_dim: int, hidden: tuple, out_dim: int, rng: np.random.Generator):
        dims = [in_dim, *hidden, out_dim]
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.layers = [Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]

    def forward(self, x) -> Tensor:
        h = as_tensor(x)
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            h = layer(h)
            if i != last:
                h = h.relu()
        return h

    __call__ = forward

    def params(self):
        out = []
        for i, layer in enumerate(self.layers):
            out.extend((f"layers.{i}.{n}", p) for n, p in layer.params())
        return out


class CenterPredictor:
    """MLP head f(x; theta) mapping embeddings to predicted class centers.

    Input and output dims are both the embedding dim. depth counts linear
    layers (2 or 4). Optional batch norm after each hidden linear (bn_hidden)
    and after the final linear (bn_output).
    """

    def __init__(
        self,
        dim: int,
        hidden: int,
        rng: np.random.Generator,
        depth: int = 2,
        bn_hidden: bool = False,
        bn_output: bool = False,
    ):
        if depth not in (2, 4):
            raise ConfigError(f"predictor depth must be 2 or 4, got {depth}")
        self.dim = dim
        self.hidden = hidden
        self.depth = depth
        self.bn_hidden = bn_hidden
        self.bn_output = bn_output
        dims = [dim] + [hidden] * (depth - 1) + [dim]
        self.layers = [Linear(dims[i], dims[i + 1], rng) for i in range(depth)]
        self.hidden_bns = [BatchNorm(hidden) for _ in range(depth - 1)] if bn_hidden else []
        self.output_bn = BatchNorm(dim) if bn_output else None

    def forward(self, x) -> Tensor:
        h = as_tensor(x)
        if h.shape[0] != self.dim:
            raise ShapeError(f"predictor: expected {self.dim} rows, got {h.shape[0]}")
        for i, layer in enumerate(self.layers[:-1]):
            h = layer(h)
            if self.bn_hidden:
                h = self.hidden_bns[i](h)
            h = h.relu()
        h = self.layers[-1](h)
        if self.output_bn is not None:
            h = self.output_bn(h)
        return h

    __call__ = forward

    def init_identity(self):
        """Set the linear stack to the exact identity map.

        Uses relu(x) - relu(-x) = x: the first layer stacks [I; -I], middle
        layers rebuild x and re-stack, the last collapses with [I, -I].
        Needs hidden >= 2*dim and no BN layers (BN would break identity).
        """
        d, h = self.dim, self.hidden
        if h < 2 * d:
            raise ConfigError(f"identity init needs hidden >= 2*dim ({h} < {2 * d})")
        if self.bn_hidden or self.bn_output:
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

    def params(self):
        out = []
        for i, layer in enumerate(self.layers):
            out.extend((f"layers.{i}.{n}", p) for n, p in layer.params())
        for i, bn in enumerate(self.hidden_bns):
            out.extend((f"hidden_bns.{i}.{n}", p) for n, p in bn.params())
        if self.output_bn is not None:
            out.extend((f"output_bn.{n}", p) for n, p in self.output_bn.params())
        return out


@dataclass
class ModelConfig:
    """Architecture knobs for one training run."""

    extractor_hidden: tuple = (32, 32)
    embedding_dim: int = 8
    predictor: str = "mlp"  # "mlp" | "none"
    predictor_depth: int = 2
    predictor_hidden: int = 64
    bn_target: bool = True
    bn_predictor_hidden: bool = False
    bn_predictor_output: bool = False

    def __post_init__(self):
        if self.predictor not in ("mlp", "none"):
            raise ConfigError(f"model.predictor must be mlp or none, got {self.predictor!r}")
        if self.predictor_depth not in (2, 4):
            raise ConfigError(f"model.predictor_depth must be 2 or 4, got {self.predictor_depth}")
        if self.embedding_dim < 1:
            raise ConfigError("model.embedding_dim must be positive")
        if self.predictor == "none" and (self.bn_predictor_hidden or self.bn_predictor_output):
            raise ConfigError("predictor BN flags require model.predictor = mlp")


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(path, named_params: dict):
    """Write named matrices as text: header, then per matrix a name/shape
    line followed by one line of row-major repr floats (repr round-trips
    float64 exactly)."""
    lines = [CHECKPOINT_HEADER]
    for name in named_params:
        arr = named_params[name]
        arr = arr.data if isinstance(arr, Tensor) else np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"checkpoint entry {name!r} is not a matrix")
        lines.append(f"{name} {arr.shape[0]} {arr.shape[1]}")
        lines.append(" ".join(repr(float(v)) for v in arr.ravel()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> dict:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not a text checkpoint: {exc}") from None
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise DataFormatError(f"not a checkpoint file (missing {CHECKPOINT_HEADER!r} header)")
    out = {}
    i = 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        fields = lines[i].rsplit(" ", 2)
        if len(fields) != 3:
            raise DataFormatError(f"malformed checkpoint entry line: {lines[i]!r}")
        name = fields[0]
        if i + 1 == len(lines):
            raise DataFormatError(f"checkpoint entry {name!r}: file ends before its values line")
        try:
            rows, cols = int(fields[1]), int(fields[2])
            values = np.array([float(v) for v in lines[i + 1].split()])
        except ValueError as exc:
            raise DataFormatError(f"checkpoint entry {name!r}: {exc}") from None
        if rows < 0 or cols < 0 or values.size != rows * cols:
            raise DataFormatError(f"checkpoint entry {name!r}: expected {rows * cols} values, got {values.size}")
        out[name] = values.reshape(rows, cols)
        i += 2
    return out
