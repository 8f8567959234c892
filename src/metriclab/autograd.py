"""Dense-matrix reverse-mode gradient engine: the tape, not an op library.

Every value is a 2-D float64 matrix. Batches use the column-per-sample
convention throughout the package: a batch of N vectors in R^d is a d x N
matrix. Each layer, loss and step total is one op that `_make` (or `_node`,
if the op checks its output itself) builds from its numpy result, parents,
backward rule and forward: the numpy function of its parents' values that
gave the result, one argument per parent, which gradcheck's `replay` reruns
on stacks of perturbed inputs (None for an op that nothing replays).
backward(root) walks the graph once in reverse topological order and
returns exact gradients for every node that requires them. A tensor built
from plain data without requires_grad is a constant.

Graphs are cheap and ephemeral (built per step, dropped after backward), so
nodes hold plain references. An op may overwrite intermediates that it
allocated itself (a fused layer stack adds its bias and applies relu in
place), but never an input, a parameter or an upstream gradient: backward
keeps each upstream gradient in its result.

Checks: `check_finite` is the one finiteness guard of the package; every
NumericsError for a non-finite array comes from it and reads "<op>: <what>".
`_make` applies it to each op output, backward to each parent's gradient
(after adding the terms it already holds). A backward rule returns one
gradient per parent, in parent order, and may return None for a parent
that does not require grad; backward skips that slot, as it skips every
constant parent.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError, ShapeError

# every name here is used by another module of the package (a test checks)
__all__ = ["Tensor", "as_tensor", "backward", "check_finite"]


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
    operation outputs carry their parents, a local backward rule that maps
    the upstream gradient to per-parent gradients, and their forward. A
    Tensor has no arithmetic of its own: ops read and build `.data`.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_backward", "_forward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, forward=None):
        self.data = _as_matrix(data)
        self.requires_grad = bool(requires_grad)
        self._parents = parents if type(parents) is tuple else tuple(parents)
        self._backward = backward
        self._forward = forward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 matrix, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        tag = " grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def as_tensor(x) -> Tensor:
    """Wrap plain data as a constant; pass Tensors through unchanged."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _op_name(backward_rule) -> str:
    """The op that defined backward_rule: "center_loss.<locals>.bw" gives "center_loss"."""
    return backward_rule.__qualname__.split(".<locals>", 1)[0]


def check_finite(x, op, what: str = "operation produced non-finite entries") -> None:
    """Raise NumericsError("<op>: <what>") unless every entry of x is finite.

    op is a name or a backward rule, which `_op_name` names only when the
    check fails, so `_make` and backward do no string work per op."""
    if not _all_finite(x):
        raise NumericsError(f"{op if type(op) is str else _op_name(op)}: {what}")


def _make(data, parents, backward_rule, forward) -> Tensor:
    check_finite(data, backward_rule)
    return _node(data, parents, backward_rule, forward)


def _node(data, parents, backward_rule, forward) -> Tensor:
    """An op output whose finiteness the op has checked itself."""
    for p in parents:
        if p.requires_grad:
            return Tensor(data, requires_grad=True, parents=parents, backward=backward_rule, forward=forward)
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
                check_finite(pg, node._backward, "backward produced non-finite gradient entries")
                grads[parent] = pg
    return result
