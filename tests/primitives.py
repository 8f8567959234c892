"""The autograd primitives that the package's fused ops replaced, as plain
functions over `metriclab.autograd.Tensor` built with `_make`. The tests
compose them into the reference graphs each fused op replays bit for bit
(`composed_graphs.py`, the composed layers in `test_nn.py`), and
`test_autograd.py` checks the tape with them. A failure names the op: the
part of its backward rule's qualname before ".<locals>"."""

import numpy as np

from metriclab.autograd import Tensor, _make, _unbroadcast, as_tensor
from metriclab.errors import NumericsError, ShapeError


def _check_broadcast(a: Tensor, b: Tensor, opname: str):
    if a.data.shape == b.data.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")
    return _make(a.data + b.data, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")
    return _make(a.data - b.data, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")
    with np.errstate(over="ignore"):
        prod = a.data * b.data
    return _make(prod, (a, b), lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "div")
    if np.any(b.data == 0.0):
        raise NumericsError("div: denominator has zero entries")

    def bw(g):
        return _unbroadcast(g / b.data, a.shape), _unbroadcast(-g * a.data / (b.data * b.data), b.shape)

    return _make(a.data / b.data, (a, b), bw)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        prod = a.data @ b.data
    return _make(prod, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def transpose(a) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,))


def gather_cols(a, idx) -> Tensor:
    """Select columns a[:, idx]; duplicate indices accumulate gradient."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_cols: idx must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise ShapeError(f"gather_cols: index out of range for {a.shape[1]} columns")

    def bw(g):
        out = np.zeros_like(a.data)
        np.add.at(out, (slice(None), idx), g)
        return (out,)

    return _make(a.data[:, idx], (a,), bw)


def gather_pairs(a, rows, cols) -> Tensor:
    """Pick entries a[rows[k], cols[k]] into a 1 x M row; duplicates accumulate."""
    a = as_tensor(a)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ShapeError("gather_pairs: rows/cols must be equal-length 1-D")

    def bw(g):
        out = np.zeros_like(a.data)
        np.add.at(out, (rows, cols), g[0])
        return (out,)

    return _make(a.data[rows, cols][None, :], (a,), bw)


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0.0),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):  # overflow surfaces as NumericsError
        out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise NumericsError("log: requires strictly positive entries")
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise NumericsError("sqrt: requires non-negative entries")
    out = np.sqrt(a.data)
    # the derivative is unbounded at 0; callers guard exact zeros themselves
    return _make(out, (a,), lambda g: (g * 0.5 / out,))


def absval(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def tsum(a, axis=None) -> Tensor:
    """Sum to 1x1 (axis=None), 1xN (axis=0) or dx1 (axis=1). Keeps 2-D."""
    a = as_tensor(a)
    if axis not in (None, 0, 1):
        raise ShapeError("sum: axis must be None, 0 or 1")
    out = a.data.sum().reshape(1, 1) if axis is None else a.data.sum(axis=axis, keepdims=True)
    return _make(out, (a,), lambda g: (np.broadcast_to(g, a.shape),))


def tmean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / count)


def logsumexp(a, axis=None, mask=None) -> Tensor:
    """log(sum(exp(a))) along axis, stabilized by max subtraction.

    With a boolean mask of a's shape, only the selected entries of each
    slice enter the sum; every slice must select at least one entry, and
    unselected entries get exactly zero gradient. The subtracted max
    cancels exactly in both value and gradient.
    """
    a = as_tensor(a)
    if axis not in (None, 0, 1):
        raise ShapeError("logsumexp: axis must be None, 0 or 1")
    x = a.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.shape:
            raise ShapeError(f"logsumexp: mask shape {mask.shape} differs from {a.shape}")
        if not mask.any(axis=axis).all():
            raise ShapeError("logsumexp: mask selects no entry of some slice")
        x = np.where(mask, x, -np.inf)
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=axis, keepdims=True)
    return _make(m + np.log(s), (a,), lambda g: ((g / s) * e,))


def softplus(a) -> Tensor:
    """log(1 + exp(a)), overflow-safe: relu(a) + log(1 + exp(-|a|))."""
    a = as_tensor(a)
    return add(relu(a), log(add(exp(mul(absval(a), -1.0)), 1.0)))
