"""Reverse-mode automatic differentiation over dense 2-D float64 matrices.

Every value is a matrix; scalars are 1x1.  The one sparse operand is the
constant left factor of :func:`spmm` (the normalized adjacency, its
Laplacian or the CSR feature matrix), which takes no gradient.  Each op
passes one vector-Jacobian function per input to ``_result``, which keeps
only the inputs that take a gradient (``requires_grad`` leaves and the
results computed from them), so a constant's gradient is never computed.

The computation graph is kept apart from the values.  Its vertices are the
``requires_grad`` leaves and one ``_Node`` per op output that takes a
gradient; a node holds its parents' vertices and its VJP, and no values.
A VJP keeps only the arrays it reads (a ReLU its mask, a matmul its other
factor), so an intermediate whose values no VJP reads is freed as soon as
the caller drops its ``Tensor``.  ``backward`` walks the graph in reverse
topological order, accumulates gradients into every ``requires_grad``
leaf, and releases each node's parents and VJP once it has called it: a
graph is differentiated once.  There is no global state, and every op is
a function of its arguments (``dropout`` applies a mask its caller draws):
independent graphs can be built and differentiated concurrently.

All ops validate shapes (only row-vector bias addition may broadcast).
Only a leaf's values are checked for NaN/Inf; an op's output is not
scanned.  A caller that needs finite results runs its ops under
``np.errstate(all="ignore")``, so that numpy does not report an overflow
first, and checks the values it reads with :func:`check_finite` (the
trainer checks each step's loss and gradients and each validation loss).
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
    "propagate",
    "gather_rows",
    "edge_softmax",
    "edge_aggregate",
    "backward",
    "check_finite",
    "LOG_EPS",
]

LOG_EPS = 1e-12

# Stored entries per block in edge_aggregate's weight gradient: its two
# gathered operands are _ENTRY_BLOCK x d, whatever the graph's nnz, and at
# d = 64 both fit in a 1 MB L2 cache.
_ENTRY_BLOCK = 512


class _Node:
    """The graph vertex of one op output: the vertices of the inputs that take
    a gradient and the VJP that maps the output's gradient to a tuple of
    theirs, one VJP function per input."""

    __slots__ = ("parents", "vjp")

    def __init__(self, parents: tuple, fns: tuple):
        self.parents = parents
        self.vjp = lambda g: tuple(f(g) for f in fns)


class Tensor:
    """Dense float64 matrix.  A ``requires_grad`` leaf is its own graph
    vertex; an op output that takes a gradient points to its ``_Node``."""

    __slots__ = ("values", "grad", "requires_grad", "_node")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if self.values.ndim != 2:
            raise InputError(f"tensors are 2-D matrices, got ndim={self.values.ndim}")
        if not np.isfinite(self.values).all():
            raise NumericError("tensor constructed with non-finite values")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def _vertex(self):
        return self if self._node is None else self._node

    @property
    def _parents(self) -> tuple:
        """The graph vertices this output's gradient flows to; () for a leaf,
        a constant or a node that ``backward`` has released."""
        return (self._node.parents or ()) if self._node is not None else ()

    @property
    def _vjp(self):
        """Output gradient -> tuple of gradients aligned with ``_parents``;
        None for a leaf or a constant.  Assignable, to wrap it."""
        return None if self._node is None else self._node.vjp

    @_vjp.setter
    def _vjp(self, fn):
        self._node.vjp = fn

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(values: np.ndarray, parents: tuple[Tensor, ...], *vjps) -> Tensor:
    """Wrap an op's output.  ``vjps[i]`` maps the output gradient to
    ``parents[i]``'s; only parents that take a gradient are kept, and the
    output gets a ``_Node`` only if one is kept.  The VJPs must hold the
    arrays they read, not the input tensors."""
    out = Tensor.__new__(Tensor)
    out.values = values
    out.grad = None
    kept = [(p._vertex, f) for p, f in zip(parents, vjps) if p.requires_grad]
    out.requires_grad = bool(kept)
    out._node = _Node(*zip(*kept)) if kept else None
    return out


def check_finite(values: np.ndarray, what: str) -> None:
    """Raise NumericError naming ``what`` unless every value is finite."""
    if not np.isfinite(values).all():
        raise NumericError(f"non-finite {what}")


def _check_tensor(t, op: str) -> Tensor:
    if not isinstance(t, Tensor):
        raise InputError(f"{op} expects Tensor arguments, got {type(t).__name__}")
    return t


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_tensor(a, "matmul"), _check_tensor(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise InputError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    av, bv = a.values, b.values
    return _result(av @ bv, (a, b), lambda g: g @ bv.T, lambda g: av.T @ g)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a + b; b may be a 1 x d row vector added to every row."""
    _check_tensor(a, "add"), _check_tensor(b, "add")
    if a.shape == b.shape:
        return _result(a.values + b.values, (a, b), lambda g: g, lambda g: g)
    if b.shape == (1, a.shape[1]):
        return _result(a.values + b.values, (a, b),
                       lambda g: g, lambda g: g.sum(axis=0, keepdims=True))
    raise InputError(f"add shape mismatch: {a.shape} + {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_tensor(a, "sub"), _check_tensor(b, "sub")
    if a.shape != b.shape:
        raise InputError(f"sub shape mismatch: {a.shape} - {b.shape}")
    return _result(a.values - b.values, (a, b), lambda g: g, np.negative)


def scale(a: Tensor, c: float) -> Tensor:
    _check_tensor(a, "scale")
    c = float(c)
    return _result(a.values * c, (a,), lambda g: g * c)


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    _check_tensor(a, "elementwise_mul"), _check_tensor(b, "elementwise_mul")
    if a.shape != b.shape:
        raise InputError(f"elementwise_mul shape mismatch: {a.shape} * {b.shape}")
    av, bv = a.values, b.values
    return _result(av * bv, (a, b), lambda g: g * bv, lambda g: g * av)


def row_softmax(a: Tensor) -> Tensor:
    _check_tensor(a, "row_softmax")
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return s * (g - (g * s).sum(axis=1, keepdims=True))

    return _result(s, (a,), vjp)


def log_clamped(a: Tensor, eps: float = LOG_EPS) -> Tensor:
    """log(max(a, eps)); the gradient is zero on the clamped region."""
    _check_tensor(a, "log_clamped")
    clamped = np.maximum(a.values, eps)
    mask = a.values > eps

    def vjp(g):
        return np.where(mask, g / clamped, 0.0)

    return _result(np.log(clamped), (a,), vjp)


def relu(a: Tensor) -> Tensor:
    _check_tensor(a, "relu")
    mask = a.values > 0
    return _result(np.maximum(a.values, 0.0), (a,), lambda g: g * mask)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    _check_tensor(a, "leaky_relu")
    slope = float(slope)
    mask = a.values > 0

    def vjp(g):
        return np.where(mask, g, slope * g)

    return _result(np.where(mask, a.values, slope * a.values), (a,), vjp)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    _check_tensor(a, "concat_cols"), _check_tensor(b, "concat_cols")
    if a.shape[0] != b.shape[0]:
        raise InputError(f"concat_cols row mismatch: {a.shape} || {b.shape}")
    k = a.shape[1]
    return _result(np.hstack([a.values, b.values]), (a, b), lambda g: g[:, :k], lambda g: g[:, k:])


def sum(a: Tensor) -> Tensor:
    """Sum of all entries, as a 1x1 tensor."""
    _check_tensor(a, "sum")
    shape = a.shape
    return _result(np.array([[a.values.sum()]]), (a,), lambda g: np.full(shape, g[0, 0]))


def dropout(a: Tensor, keep: np.ndarray, rate: float) -> Tensor:
    """Inverted dropout with the boolean mask ``keep`` of ``a``'s shape: kept
    entries are scaled by 1/(1-rate), the others become zero.

    The caller draws the mask (:mod:`gssl.models` draws every model's) and
    applies it only when training.  With ``rate=0`` this is the exact
    identity (the input tensor is returned unchanged).
    """
    _check_tensor(a, "dropout")
    if not 0.0 <= rate < 1.0:
        raise InputError(f"dropout rate must be in [0, 1), got {rate}")
    if getattr(keep, "dtype", None) != np.bool_ or keep.shape != a.shape:
        raise InputError(f"dropout of a {a.shape} tensor needs a boolean array of its shape")
    if rate == 0.0:
        return a
    factor = 1.0 / (1.0 - rate)
    # The VJP keeps the 1-byte mask, not the 8-byte multiplier: (g * keep) *
    # factor has the bits of g * (keep * factor), signed zeros included.
    mult = keep * factor
    return _result(a.values * mult, (a,), lambda g: (g * keep) * factor)


def spmm(mat, b: Tensor) -> Tensor:
    """Constant scipy sparse matrix (m x k) times tensor (k x c)."""
    _check_tensor(b, "spmm")
    if not sp.issparse(mat):
        raise InputError(f"spmm expects a scipy sparse matrix, got {type(mat).__name__}")
    if mat.shape[1] != b.shape[0]:
        raise InputError(f"spmm shape mismatch: {mat.shape} @ {b.shape}")
    return _result(mat @ b.values, (b,), lambda g: mat.T @ g)


def propagate(mat, h: Tensor, alpha: float, k: int) -> Tensor:
    """K steps of Z <- (1 - alpha) mat Z + alpha H from Z = H, as one op.

    ``mat`` is a constant scipy sparse n x n matrix (APPNP's normalized
    adjacency).  Each step is ``(mat @ z) * (1 - alpha) + h * alpha``, and the
    VJP takes the steps' gradients in reverse, g_{k-1} = mat.T @ (g_k * (1 -
    alpha)), then sums H's gradient as ((g_0 + alpha g_1) + alpha g_2) + ...
    + alpha g_K: the arithmetic, in its order, of the chain of spmm, scale and
    add ops that the steps unroll to, so both passes have that chain's bits.
    With ``k = 0`` the input tensor is returned unchanged.
    """
    _check_tensor(h, "propagate")
    if not sp.issparse(mat):
        raise InputError(f"propagate expects a scipy sparse matrix, got {type(mat).__name__}")
    if mat.shape != (h.shape[0], h.shape[0]):
        raise InputError(f"propagate shape mismatch: {mat.shape} @ {h.shape}")
    if k < 0:
        raise InputError(f"propagate needs k >= 0 steps, got {k}")
    if k == 0:
        return h
    keep, alpha = 1.0 - alpha, float(alpha)
    h_alpha = h.values * alpha
    z = h.values
    for _ in range(k):
        z = mat @ z
        z *= keep
        z += h_alpha

    def vjp(g):
        terms = []
        for _ in range(k):
            terms.append(g * alpha)
            g = mat.T @ (g * keep)
        for t in reversed(terms):
            g += t
        return g

    return _result(z, (h,), vjp)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows by index; duplicate indices sum in the backward pass."""
    _check_tensor(a, "gather_rows")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise InputError("gather_rows index must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise InputError("gather_rows index out of range")

    n, d = a.shape

    def vjp(g):
        # bincount adds each column's weights in index order onto +0.0, as
        # np.add.at does, so the sums have its bits, -0.0 terms included
        out = np.empty((n, d))
        for j in range(d):
            out[:, j] = np.bincount(idx, weights=g[:, j], minlength=n)
        return out

    return _result(a.values[idx], (a,), vjp)


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

    return _result(alpha[:, None], (scores,), vjp)


def edge_aggregate(alpha: Tensor, h: Tensor, adj) -> Tensor:
    """out[v] = sum over stored entries (v, u) of alpha_vu * h[u].

    Differentiable in both the per-edge weights and the node features.  The
    weight of entry (v, u) gets the dot product g[v] . h[u]; these are taken
    over fixed blocks of stored entries, so no nnz x d array is built.
    """
    _check_tensor(alpha, "edge_aggregate"), _check_tensor(h, "edge_aggregate")
    if alpha.shape != (adj.nnz, 1):
        raise InputError(f"edge_aggregate expects ({adj.nnz}, 1) weights, got {alpha.shape}")
    if h.shape[0] != adj.n_nodes:
        raise InputError(f"edge_aggregate feature rows {h.shape[0]} != n_nodes {adj.n_nodes}")
    n, hv = adj.n_nodes, h.values
    mat = sp.csr_matrix((alpha.values[:, 0], adj.indices, adj.indptr), shape=(n, n))

    def alpha_vjp(g):
        rows, cols = adj.row_index_per_entry(), adj.indices
        out = np.empty((adj.nnz, 1))
        for start in range(0, adj.nnz, _ENTRY_BLOCK):
            s = slice(start, start + _ENTRY_BLOCK)
            np.einsum("ec,ec->e", g[rows[s]], hv[cols[s]], out=out[s, 0])
        return out

    return _result(mat @ hv, (alpha, h), alpha_vjp, lambda g: mat.T @ g)


def _topo_order(root) -> list:
    """The vertices reachable from ``root``, each after all of its parents."""
    order: list = []
    seen: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        vertex, expanded = stack.pop()
        if expanded:
            order.append(vertex)
            continue
        if id(vertex) in seen:
            continue
        seen.add(id(vertex))
        stack.append((vertex, True))
        if isinstance(vertex, _Node):
            if vertex.parents is None:
                raise InputError("backward already ran over this graph; build it again")
            stack.extend((p, False) for p in vertex.parents if id(p) not in seen)
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf's ``grad``.

    Gradients from multiple uses of a tensor sum, and calls on separately
    built graphs keep accumulating (reset ``leaf.grad = None`` between
    steps).  Each node's parents and VJP, with the arrays the VJP kept, are
    released as soon as it has been called, so a graph can be walked once:
    a second call over any part of it raises InputError.
    """
    _check_tensor(loss, "backward")
    if loss.shape != (1, 1):
        raise InputError(f"backward needs a scalar (1x1) loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    root = loss._vertex
    order = _topo_order(root)
    grads: dict[int, np.ndarray] = {id(root): np.ones((1, 1))}
    while order:
        vertex = order.pop()
        g = grads.pop(id(vertex))
        if isinstance(vertex, Tensor):
            vertex.grad = g if vertex.grad is None else vertex.grad + g
            continue
        for parent, pg in zip(vertex.parents, vertex.vjp(g)):
            key = id(parent)
            grads[key] = grads[key] + pg if key in grads else pg
        vertex.parents = vertex.vjp = None
