"""Dense-matrix reverse-mode gradient engine.

Every value is a 2-D float64 matrix. Batches use the column-per-sample
convention throughout the package: a batch of N vectors in R^d is a d x N
matrix. Operations build a define-by-run graph; backward(root) walks it once
in reverse topological order and returns exact gradients for every node that
requires them. A tensor built from plain data without requires_grad is a
constant: it joins later computation but no gradient ever flows into it.

Graphs are cheap and ephemeral (built per step, dropped after backward), so
nodes hold plain references. An op may overwrite intermediates that it
allocated itself (a fused layer stack adds its bias and applies relu in
place), but never an input, a parameter or an upstream gradient: backward
keeps each upstream gradient in its result.

Checks: every op output passes through _make, which raises NumericsError
if any entry is not finite; backward raises NumericsError if a parent's
gradient (after adding the terms it already holds) is not finite. A backward
rule returns one gradient per parent, in parent order, and may return None
for a parent that does not require grad; backward skips that slot, as it
skips every constant parent.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError, ShapeError

__all__ = [
    "Tensor",
    "as_tensor",
    "backward",
    "gather_cols",
    "gather_pairs",
    "logsumexp",
    "softplus",
    "GraphError",
]


class GraphError(ValueError):
    """backward() called on an ill-formed root."""


_FLOAT64 = np.dtype(np.float64)


def _all_finite(x) -> bool:
    """True when every entry of x is finite (also for an empty x).

    The ufunc reduction that ndarray.all() runs, without its Python wrapper."""
    return np.logical_and.reduce(np.isfinite(x), axis=None)


def _as_matrix(data) -> np.ndarray:
    # op outputs are 2-D float64 already; an equal but distinct dtype object
    # only takes the converting path below
    if type(data) is np.ndarray and data.ndim == 2 and data.dtype is _FLOAT64:
        return data
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        # bare vectors become column vectors, matching column-per-sample
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ShapeError(f"matrices are 2-D, got ndim={arr.ndim}")
    return arr


class Tensor:
    """A matrix plus optional graph bookkeeping.

    Leaves are created directly (requires_grad=True for parameters);
    operation outputs carry their parents and a local backward rule that
    maps the upstream gradient to per-parent gradients.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = _as_matrix(data)
        self.requires_grad = bool(requires_grad)
        self._parents = parents if type(parents) is tuple else tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 matrix, got {self.data.shape}")
        return float(self.data[0, 0])

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def t(self):
        return transpose(self)

    def relu(self):
        return relu(self)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)

    def abs(self):
        return absval(self)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self, axis=None):
        return tmean(self, axis=axis)

    def __repr__(self):
        tag = " grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def as_tensor(x) -> Tensor:
    """Wrap plain data as a constant; pass Tensors through unchanged."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _op_name(backward_rule) -> str:
    """The op that defined backward_rule: "mul.<locals>.bw" gives "mul"."""
    return backward_rule.__qualname__.split(".<locals>", 1)[0]


def _make(data, parents, backward_rule) -> Tensor:
    if not _all_finite(data):
        raise NumericsError(f"{_op_name(backward_rule)}: operation produced non-finite entries")
    return _node(data, parents, backward_rule)


def _node(data, parents, backward_rule) -> Tensor:
    """An op output whose finiteness the op has checked itself."""
    for p in parents:
        if p.requires_grad:
            return Tensor(data, requires_grad=True, parents=parents, backward=backward_rule)
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce an upstream gradient back to the shape of a broadcast operand."""
    if g.shape == shape:
        return g
    out = g
    for ax in (0, 1):
        if shape[ax] == 1 and out.shape[ax] != 1:
            out = out.sum(axis=ax, keepdims=True)
    if out.shape != shape:
        raise ShapeError(f"cannot reduce gradient {g.shape} to {shape}")
    return out


def _check_broadcast(a: Tensor, b: Tensor, opname: str):
    if a.data.shape == b.data.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} do not broadcast") from None


# -- elementwise binary ops ----------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(a.data + b.data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(a.data - b.data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")

    def bw(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    with np.errstate(over="ignore"):
        prod = a.data * b.data
    return _make(prod, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "div")
    if np.any(b.data == 0.0):
        raise NumericsError("div: denominator has zero entries")

    def bw(g):
        return (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        )

    return _make(a.data / b.data, (a, b), bw)


# -- structural ops -------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")

    def bw(g):
        return g @ b.data.T, a.data.T @ g

    with np.errstate(over="ignore", invalid="ignore"):
        prod = a.data @ b.data
    return _make(prod, (a, b), bw)


def transpose(a) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        return (g.T,)

    return _make(a.data.T.copy(), (a,), bw)


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


# -- elementwise unary ops ------------------------------------------------


def relu(a) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        return (g * (a.data > 0.0),)

    return _make(np.maximum(a.data, 0.0), (a,), bw)


def exp(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):  # overflow surfaces as NumericsError
        out = np.exp(a.data)

    def bw(g):
        return (g * out,)

    return _make(out, (a,), bw)


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise NumericsError("log: requires strictly positive entries")

    def bw(g):
        return (g / a.data,)

    return _make(np.log(a.data), (a,), bw)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise NumericsError("sqrt: requires non-negative entries")
    out = np.sqrt(a.data)

    def bw(g):
        # derivative is unbounded at 0; callers guard exact zeros themselves
        return (g * 0.5 / out,)

    return _make(out, (a,), bw)


def absval(a) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        return (g * np.sign(a.data),)

    return _make(np.abs(a.data), (a,), bw)


# -- reductions -------------------------------------------------------------


def tsum(a, axis=None) -> Tensor:
    """Sum to 1x1 (axis=None), 1xN (axis=0) or dx1 (axis=1). Keeps 2-D."""
    a = as_tensor(a)
    if axis not in (None, 0, 1):
        raise ShapeError("sum: axis must be None, 0 or 1")
    if axis is None:
        out = a.data.sum().reshape(1, 1)
    else:
        out = a.data.sum(axis=axis, keepdims=True)

    def bw(g):
        return (np.broadcast_to(g, a.shape),)

    return _make(out, (a,), bw)


def tmean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        count = a.shape[axis]
    return tsum(a, axis=axis) * (1.0 / count)


def logsumexp(a, axis=None, mask=None) -> Tensor:
    """log(sum(exp(a))) along axis, stabilized by max subtraction.

    With a boolean mask of a's shape, only the selected entries of each
    slice enter the sum; every slice must select at least one entry, and
    unselected entries get exactly zero gradient. The gradient is the
    (masked) softmax along the axis times the upstream gradient. The
    subtracted max cancels exactly in both value and gradient, so this is
    not an approximation.
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

    def bw(g):
        return ((g / s) * e,)

    return _make(m + np.log(s), (a,), bw)


# -- composed helpers --------------------------------------------------------


def softplus(a) -> Tensor:
    """log(1 + exp(a)), overflow-safe: relu(a) + log(1 + exp(-|a|))."""
    a = as_tensor(a)
    return relu(a) + log(exp(-absval(a)) + 1.0)


# -- backward ----------------------------------------------------------------


def _topo(root: Tensor) -> list:
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p not in seen:
                stack.append((p, False))
    return order  # parents precede consumers


def backward(root: Tensor) -> dict:
    """Reverse-mode sweep from a scalar root.

    Returns {tensor: gradient ndarray} for every reachable tensor with
    requires_grad set. Repeated calls on the same graph recompute from
    scratch (no accumulation), so the result is identical every time.
    """
    if root.shape != (1, 1):
        raise GraphError(f"backward needs a scalar (1x1) root, got {root.shape}")
    if not root.requires_grad:
        return {}
    order = _topo(root)
    grads = {root: np.ones((1, 1))}
    result = {}
    # overflow in a backward rule surfaces as NumericsError below
    with np.errstate(over="ignore", invalid="ignore"):
        for node in reversed(order):
            g = grads.pop(node, None)
            if g is None:
                continue
            if node.requires_grad:
                result[node] = g
            if node._backward is None:
                continue
            parent_grads = node._backward(g)
            for parent, pg in zip(node._parents, parent_grads):
                if not parent.requires_grad:  # a rule may give None here
                    continue
                held = grads.get(parent)
                if held is not None:
                    pg = held + pg  # finite terms can still sum to inf
                if not _all_finite(pg):
                    raise NumericsError(
                        f"{_op_name(node._backward)}: backward produced non-finite gradient entries"
                    )
                grads[parent] = pg
    return result
