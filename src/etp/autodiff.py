"""Dense f32 or f64 tensors with reverse-mode automatic differentiation.

Values are plain numpy arrays wrapped in :class:`Tensor`. A graph computes
in the dtype of its operands: numpy's promotion rules decide each op's
result, so an f32 graph stays f32 until it meets an f64 constant, and the
backward sweep hands every node its gradient in the node's own dtype.

While a :class:`Tape` is active, every op appends its result node (with
parent references and a backward rule) to the tape; creation order is
already a topological order, so the backward pass is a single reverse
sweep that visits each node exactly once. With no active tape, ops are pure numpy
and build no graph, which is what evaluation-mode forward passes use.

Only 1-D and 2-D arrays are supported; that is all the models here need.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "DimensionError",
    "UsageError",
    "OPS",
    "add",
    "sub",
    "neg",
    "mul",
    "matmul",
    "affine",
    "concat",
    "sigmoid",
    "tanh",
    "softmax",
    "tsum",
    "tmean",
    "log",
    "clip_min",
    "dropout",
    "embedding",
    "take_rows",
    "transpose",
    "reshape",
    "pick",
]


class DimensionError(ValueError):
    """Operand shapes do not conform for the requested op."""


class UsageError(RuntimeError):
    """The autodiff machinery was driven incorrectly (not a shape issue)."""


class Tensor:
    """A dense float32 or float64 array, optionally a differentiable graph node.

    An f32 array stays f32; anything else (f64, integers, Python scalars)
    is stored as f64.

    Leaf tensors created with ``requires_grad=True`` own a same-shape
    ``grad`` buffer that ``Tape.backward`` accumulates into. Tensors
    produced by ops carry parent references and a backward rule instead;
    their transient gradients live only inside the backward sweep.
    """

    __slots__ = ("data", "grad", "requires_grad", "parents", "op", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        # storage is always row-major, f32 if given f32 and f64 otherwise
        dtype = np.float32 if getattr(data, "dtype", None) == np.float32 else np.float64
        arr = np.ascontiguousarray(data, dtype=dtype)
        if arr.ndim > 2:
            raise DimensionError(f"tensors are at most 2-D, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
        self.parents: tuple[Tensor, ...] = ()
        self.op: str | None = None
        self._backward: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        tag = f", op={self.op!r}" if self.op else ""
        return f"Tensor(shape={self.shape}{flag}{tag})"


class Tape:
    """Ordered record of op nodes for one forward/backward episode.

    Use as a context manager around a forward pass::

        with Tape() as tape:
            loss = ...
            tape.backward(loss)

    Nodes are recorded in creation order, so every node's parents precede
    it and the reverse sweep in :meth:`backward` is a valid reverse
    topological traversal.
    """

    current: "Tape | None" = None

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        if Tape.current is not None:
            raise UsageError("tapes do not nest")
        Tape.current = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        Tape.current = None
        return False

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every reachable requires_grad leaf.

        ``loss`` must be a scalar recorded on this tape. Gradients of
        interior nodes are held in a scratch table and discarded; leaf
        gradients accumulate into their ``grad`` buffers (callers zero
        them between steps). Each gradient is cast to its node's dtype,
        so an f32 graph under an f64 loss runs its backward in f32.
        """
        if not isinstance(loss, Tensor):
            raise UsageError("backward expects a Tensor loss")
        if loss.data.size != 1:
            raise UsageError(f"backward requires a scalar loss, got shape {loss.shape}")
        table: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for node in reversed(self.nodes):
            g = table.pop(id(node), None)
            if g is None or node._backward is None:
                continue
            for parent, pg in zip(node.parents, node._backward(g)):
                if pg is None:
                    continue
                pg = pg.astype(parent.data.dtype, copy=False)
                if parent._backward is not None:
                    acc = table.get(id(parent))
                    table[id(parent)] = pg if acc is None else acc + pg
                elif parent.requires_grad:
                    parent.grad += pg
        if id(loss) in table and loss._backward is None and loss.requires_grad:
            loss.grad += table[id(loss)]


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, backward, op: str) -> Tensor:
    tape = Tape.current
    out = Tensor(data)
    if tape is not None:
        out.parents = parents
        out._backward = backward
        out.op = op
        tape.nodes.append(out)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# pointwise and arithmetic ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    sa, sb = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _node(data, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise DimensionError(f"sub: shapes {a.shape} and {b.shape} do not broadcast")
    sa, sb = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _node(data, (a, b), backward, "sub")


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        return (-g,)

    return _node(-a.data, (a,), backward, "neg")


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product, with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    sa, sb = a.shape, b.shape

    def backward(g):
        # a constant operand (a mask or weight array) gets no gradient
        ga = _unbroadcast(g * b.data, sa) if a.requires_grad or a._backward else None
        gb = _unbroadcast(g * a.data, sb) if b.requires_grad or b._backward else None
        return ga, gb

    return _node(data, (a, b), backward, "mul")


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: shapes {a.shape} x {b.shape} do not conform")
    data = a.data @ b.data

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _node(data, (a, b), backward, "matmul")


def affine(x, w, b) -> Tensor:
    """x @ w + b as one node: the product is not held apart from the sum."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise DimensionError(f"affine: shapes {x.shape} x {w.shape} do not conform")
    data = x.data @ w.data
    try:
        data += b.data
    except ValueError:
        raise DimensionError(f"affine: bias {b.shape} does not broadcast to {data.shape}")
    sb = b.shape

    def backward(g):
        return g @ w.data.T, x.data.T @ g, _unbroadcast(g, sb)

    return _node(data, (x, w, b), backward, "affine")


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as exc:
        raise DimensionError(f"concat: {exc}")
    offsets = np.cumsum([t.data.shape[axis] for t in ts])[:-1]

    def backward(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _node(data, tuple(ts), backward, "concat")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function on a plain array, 0.5 * (1 + tanh(x / 2)): tanh cannot overflow."""
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out = _sigmoid(a.data)

    def backward(g):
        return (g * out * (1.0 - out),)

    return _node(out, (a,), backward, "sigmoid")


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out * out),)

    return _node(out, (a,), backward, "tanh")


def softmax(a, mask: np.ndarray | None = None, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with an optional additive mask.

    ``mask`` is a constant array of 0 and -inf added to the logits before
    normalization, so masked entries come out exactly 0. Every row must
    keep at least one unmasked entry.
    """
    a = _as_tensor(a)
    z = a.data if mask is None else a.data + mask
    zmax = np.max(z, axis=axis, keepdims=True)
    # -inf rows are a structural error; NaN logits are left to propagate
    # so training loops can detect divergence from the loss value
    if np.isneginf(zmax).any():
        raise DimensionError("softmax: some row is fully masked")
    e = np.exp(z - zmax)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return _node(out, (a,), backward, "softmax")


def tsum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

    return _node(data, (a,), backward, "sum")


def tmean(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.shape
    n = a.data.size if axis is None else a.data.shape[axis]

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / n, shape),)

    return _node(data, (a,), backward, "mean")


def log(a) -> Tensor:
    """Natural log. Callers clamp first when the argument can reach 0."""
    a = _as_tensor(a)

    def backward(g):
        return (g / a.data,)

    return _node(np.log(a.data), (a,), backward, "log")


def clip_min(a, lo: float) -> Tensor:
    """max(a, lo) elementwise; gradient is zero where the clamp is active."""
    a = _as_tensor(a)
    keep = a.data > lo

    def backward(g):
        return (g * keep,)

    return _node(np.maximum(a.data, lo), (a,), backward, "clip_min")


def dropout(a, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; a training-mode op only.

    Evaluation-mode code simply never calls it (the identity), so eval
    forward passes stay deterministic.
    """
    a = _as_tensor(a)
    if not 0.0 <= p < 1.0:
        raise UsageError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return a
    keep = ((rng.random(a.shape) >= p) / (1.0 - p)).astype(a.data.dtype)

    def backward(g):
        return (g * keep,)

    return _node(a.data * keep, (a,), backward, "dropout")


# ---------------------------------------------------------------------------
# indexing / layout ops


def _gather_rows(a: Tensor, idx: np.ndarray, op: str) -> Tensor:
    if idx.ndim != 1:
        raise DimensionError(f"{op}: indices must be 1-D, got shape {idx.shape}")
    n = a.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"{op}: index out of range for {n} rows")
    shape = a.shape

    def backward(g):
        buf = np.zeros(shape, a.data.dtype)
        np.add.at(buf, idx, g)
        return (buf,)

    return _node(a.data[idx], (a,), backward, op)


def embedding(table, ids) -> Tensor:
    """Look up rows of an embedding table by integer id."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.intp)
    return _gather_rows(table, ids, "embedding")


def take_rows(a, indices) -> Tensor:
    """Gather rows of a matrix (repeats allowed; gradients accumulate)."""
    a = _as_tensor(a)
    return _gather_rows(a, np.asarray(indices, dtype=np.intp), "take_rows")


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError(f"transpose: expected a matrix, got shape {a.shape}")

    def backward(g):
        return (g.T,)

    return _node(a.data.T.copy(), (a,), backward, "transpose")


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"reshape: cannot view shape {old} as {shape}")

    def backward(g):
        return (g.reshape(old),)

    return _node(data, (a,), backward, "reshape")


def pick(a, row_idx, col_idx) -> Tensor:
    """Gather matrix entries a[r_i, c_i] into a vector."""
    a = _as_tensor(a)
    r = np.asarray(row_idx, dtype=np.intp)
    c = np.asarray(col_idx, dtype=np.intp)
    if a.data.ndim != 2 or r.shape != c.shape or r.ndim != 1:
        raise DimensionError(
            f"pick: need a matrix and matching 1-D index vectors, got {a.shape}, {r.shape}, {c.shape}"
        )
    shape = a.shape

    def backward(g):
        buf = np.zeros(shape, a.data.dtype)
        np.add.at(buf, (r, c), g)
        return (buf,)

    return _node(a.data[r, c], (a,), backward, "pick")


# Registry of differentiable op kinds; the gradient-check suite walks this.
OPS: dict[str, Callable] = {
    "add": add,
    "sub": sub,
    "neg": neg,
    "mul": mul,
    "matmul": matmul,
    "affine": affine,
    "concat": concat,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "softmax": softmax,
    "sum": tsum,
    "mean": tmean,
    "log": log,
    "clip_min": clip_min,
    "dropout": dropout,
    "embedding": embedding,
    "take_rows": take_rows,
    "transpose": transpose,
    "reshape": reshape,
    "pick": pick,
}

