"""Reverse-mode automatic differentiation over dense 2-D float64 matrices.

Every value is a matrix; scalars are 1x1.  Each op passes one
vector-Jacobian function per input to ``_result``, which keeps only the
inputs that take a gradient (``requires_grad`` leaves and the results
computed from them), so a constant's gradient is never computed.  The
computation graph is the DAG of those parent links.  ``backward`` walks it
in reverse topological order and accumulates gradients into every
``requires_grad`` leaf.  There is no global state: independent graphs can
be built and differentiated concurrently.

All ops validate shapes (only row-vector bias addition may broadcast) and
raise :class:`NumericError` as soon as a forward pass produces NaN/Inf.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import InputError, NumericError

__all__ = [
    "Tensor",
    "matmul",
    "add",
    "sub",
    "scale",
    "elementwise_mul",
    "row_softmax",
    "log_clamped",
    "relu",
    "leaky_relu",
    "concat_cols",
    "sum",
    "dropout",
    "spmm",
    "gather_rows",
    "edge_softmax",
    "edge_aggregate",
    "backward",
    "LOG_EPS",
]

LOG_EPS = 1e-12


class Tensor:
    """Dense float64 matrix, optionally a node of a computation graph."""

    __slots__ = ("values", "grad", "requires_grad", "op", "_parents", "_vjp")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if self.values.ndim != 2:
            raise InputError(f"tensors are 2-D matrices, got ndim={self.values.ndim}")
        if not np.isfinite(self.values).all():
            raise NumericError("tensor constructed with non-finite values")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _result(values: np.ndarray, op: str, parents: tuple[Tensor, ...], *vjps) -> Tensor:
    """Wrap an op's output.  ``vjps[i]`` maps the output gradient to
    ``parents[i]``'s; only parents that take a gradient are kept, so
    ``_vjp`` returns a tuple aligned with ``_parents`` and is None when the
    output is a constant."""
    out = Tensor.__new__(Tensor)
    out.values = values
    if not np.isfinite(values).all():
        raise NumericError(f"op {op!r} produced non-finite values")
    out.grad = None
    out.op = op
    kept = [(p, f) for p, f in zip(parents, vjps) if p.requires_grad]
    out.requires_grad = bool(kept)
    out._parents = tuple(p for p, _ in kept)
    fns = [f for _, f in kept]
    out._vjp = (lambda g: tuple(f(g) for f in fns)) if kept else None
    return out


def _check_tensor(t, op: str) -> Tensor:
    if not isinstance(t, Tensor):
        raise InputError(f"{op} expects Tensor arguments, got {type(t).__name__}")
    return t


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_tensor(a, "matmul"), _check_tensor(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise InputError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return _result(a.values @ b.values, "matmul", (a, b),
                   lambda g: g @ b.values.T, lambda g: a.values.T @ g)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a + b; b may be a 1 x d row vector added to every row."""
    _check_tensor(a, "add"), _check_tensor(b, "add")
    if a.shape == b.shape:
        return _result(a.values + b.values, "add", (a, b), lambda g: g, lambda g: g)
    if b.shape == (1, a.shape[1]):
        return _result(a.values + b.values, "add_bias", (a, b),
                       lambda g: g, lambda g: g.sum(axis=0, keepdims=True))
    raise InputError(f"add shape mismatch: {a.shape} + {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_tensor(a, "sub"), _check_tensor(b, "sub")
    if a.shape != b.shape:
        raise InputError(f"sub shape mismatch: {a.shape} - {b.shape}")
    return _result(a.values - b.values, "sub", (a, b), lambda g: g, np.negative)


def scale(a: Tensor, c: float) -> Tensor:
    _check_tensor(a, "scale")
    c = float(c)
    return _result(a.values * c, "scale", (a,), lambda g: g * c)


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    _check_tensor(a, "elementwise_mul"), _check_tensor(b, "elementwise_mul")
    if a.shape != b.shape:
        raise InputError(f"elementwise_mul shape mismatch: {a.shape} * {b.shape}")
    return _result(a.values * b.values, "elementwise_mul", (a, b),
                   lambda g: g * b.values, lambda g: g * a.values)


def row_softmax(a: Tensor) -> Tensor:
    _check_tensor(a, "row_softmax")
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return s * (g - (g * s).sum(axis=1, keepdims=True))

    return _result(s, "row_softmax", (a,), vjp)


def log_clamped(a: Tensor, eps: float = LOG_EPS) -> Tensor:
    """log(max(a, eps)); the gradient is zero on the clamped region."""
    _check_tensor(a, "log_clamped")
    clamped = np.maximum(a.values, eps)
    mask = a.values > eps

    def vjp(g):
        return np.where(mask, g / clamped, 0.0)

    return _result(np.log(clamped), "log_clamped", (a,), vjp)


def relu(a: Tensor) -> Tensor:
    _check_tensor(a, "relu")
    mask = a.values > 0

    def vjp(g):
        return np.where(mask, g, 0.0)

    return _result(np.where(mask, a.values, 0.0), "relu", (a,), vjp)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    _check_tensor(a, "leaky_relu")
    slope = float(slope)
    mask = a.values > 0

    def vjp(g):
        return np.where(mask, g, slope * g)

    return _result(np.where(mask, a.values, slope * a.values), "leaky_relu", (a,), vjp)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    _check_tensor(a, "concat_cols"), _check_tensor(b, "concat_cols")
    if a.shape[0] != b.shape[0]:
        raise InputError(f"concat_cols row mismatch: {a.shape} || {b.shape}")
    k = a.shape[1]
    return _result(np.hstack([a.values, b.values]), "concat_cols", (a, b),
                   lambda g: g[:, :k], lambda g: g[:, k:])


def sum(a: Tensor) -> Tensor:
    """Sum of all entries, as a 1x1 tensor."""
    _check_tensor(a, "sum")
    return _result(np.array([[a.values.sum()]]), "sum", (a,),
                   lambda g: np.full(a.shape, g[0, 0]))


def dropout(a: Tensor, rate: float, rng=None) -> Tensor:
    """Inverted dropout: surviving entries are scaled by 1/(1-rate).

    The caller applies it only when training.  With ``rate=0`` this is the
    exact identity (the input tensor is returned unchanged).  ``rng`` may
    be an int seed or a ``numpy.random.Generator``; a fixed seed gives a
    fixed mask.
    """
    _check_tensor(a, "dropout")
    if not 0.0 <= rate < 1.0:
        raise InputError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    if rng is None:
        raise InputError("dropout needs a seed or Generator")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    keep = gen.random(a.shape) >= rate
    factor = 1.0 / (1.0 - rate)
    mult = keep * factor
    return _result(a.values * mult, "dropout", (a,), lambda g: g * mult)


def spmm(adj, b: Tensor) -> Tensor:
    """Sparse (symmetric) adjacency times dense tensor."""
    _check_tensor(b, "spmm")
    if adj.n_nodes != b.shape[0]:
        raise InputError(f"spmm shape mismatch: {adj.n_nodes} nodes vs {b.shape} tensor")
    mat = adj.scipy
    return _result(mat @ b.values, "spmm", (b,), lambda g: mat.T @ g)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows by index; duplicate indices sum in the backward pass."""
    _check_tensor(a, "gather_rows")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise InputError("gather_rows index must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise InputError("gather_rows index out of range")

    def vjp(g):
        out = np.zeros(a.shape)
        np.add.at(out, idx, g)
        return out

    return _result(a.values[idx], "gather_rows", (a,), vjp)


def _segment_starts(adj):
    counts = np.diff(adj.indptr)
    if counts.size and counts.min() < 1:
        raise InputError("edge softmax needs every node to have an incident edge (add self-loops)")
    return adj.indptr[:-1], counts


def edge_softmax(scores: Tensor, adj) -> Tensor:
    """Softmax of per-edge scores within each CSR row segment.

    ``scores`` is nnz x 1, aligned with ``adj.indices``; the output rows
    for node v sum to 1 over v's incident entries.
    """
    _check_tensor(scores, "edge_softmax")
    if scores.shape != (adj.nnz, 1):
        raise InputError(f"edge_softmax expects ({adj.nnz}, 1) scores, got {scores.shape}")
    starts, counts = _segment_starts(adj)
    s = scores.values[:, 0]
    seg_max = np.maximum.reduceat(s, starts)
    e = np.exp(s - np.repeat(seg_max, counts))
    denom = np.add.reduceat(e, starts)
    alpha = e / np.repeat(denom, counts)

    def vjp(g):
        dot = np.add.reduceat(g[:, 0] * alpha, starts)
        return (alpha * (g[:, 0] - np.repeat(dot, counts)))[:, None]

    return _result(alpha[:, None], "edge_softmax", (scores,), vjp)


def edge_aggregate(alpha: Tensor, h: Tensor, adj) -> Tensor:
    """out[v] = sum over stored entries (v, u) of alpha_vu * h[u].

    Differentiable in both the per-edge weights and the node features.
    """
    _check_tensor(alpha, "edge_aggregate"), _check_tensor(h, "edge_aggregate")
    if alpha.shape != (adj.nnz, 1):
        raise InputError(f"edge_aggregate expects ({adj.nnz}, 1) weights, got {alpha.shape}")
    if h.shape[0] != adj.n_nodes:
        raise InputError(f"edge_aggregate feature rows {h.shape[0]} != n_nodes {adj.n_nodes}")
    n = adj.n_nodes
    mat = sp.csr_matrix((alpha.values[:, 0], adj.indices, adj.indptr), shape=(n, n))

    def alpha_vjp(g):
        rows = adj.row_index_per_entry()
        return np.einsum("ec,ec->e", g[rows], h.values[adj.indices])[:, None]

    return _result(mat @ h.values, "edge_aggregate", (alpha, h),
                   alpha_vjp, lambda g: mat.T @ g)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if id(p) not in seen)
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf's ``grad``.

    Gradients from multiple uses of a tensor sum; repeated calls keep
    accumulating (reset ``leaf.grad = None`` between steps).
    """
    _check_tensor(loss, "backward")
    if loss.shape != (1, 1):
        raise InputError(f"backward needs a scalar (1x1) loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    for node in reversed(_topo_order(loss)):
        g = grads.pop(id(node))
        if not node._parents:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            key = id(parent)
            grads[key] = grads[key] + pg if key in grads else pg
