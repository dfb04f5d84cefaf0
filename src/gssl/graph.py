"""Sparse undirected graph storage and the normalized adjacency operator.

Graphs are stored in compressed sparse row (CSR) form and are immutable
after construction.  Edge values are binary: whatever weights appear in
the input are discarded and forced to 1.  The usual preprocessing
pipeline is::

    g = from_edge_list(pairs, n_nodes)   # symmetric, deduplicated, binary
    g_sl = add_self_loops(g)             # A + I
    a_hat = sym_normalize(g_sl)          # D^{-1/2} (A + I) D^{-1/2}

``a_hat`` is symmetric with spectral radius <= 1, which makes every
propagation built on it (diffusion, iterated aggregation) a stable
fixed-point iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import InputError

__all__ = [
    "Graph",
    "NormalizedAdjacency",
    "from_edge_list",
    "add_self_loops",
    "sym_normalize",
    "degrees",
]


@dataclass(frozen=True)
class _Csr:
    """Shared CSR layout: row offsets, sorted column indices, values."""

    n_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("indptr", "indices", "values"):
            getattr(self, name).setflags(write=False)

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @cached_property
    def scipy(self) -> sp.csr_matrix:
        """scipy CSR of this graph, for products.  It shares ``values``; scipy
        holds ``indptr`` and ``indices`` as int32 copies when they fit."""
        n = self.n_nodes
        return sp.csr_matrix((self.values, self.indices, self.indptr), shape=(n, n))

    @cached_property
    def _entry_rows(self) -> np.ndarray:
        rows = np.repeat(np.arange(self.n_nodes, dtype=np.int64), np.diff(self.indptr))
        rows.setflags(write=False)
        return rows

    def row_index_per_entry(self) -> np.ndarray:
        """Row id of every stored entry, aligned with ``indices``: one
        read-only array, computed on the first call."""
        return self._entry_rows

    @cached_property
    def has_all_self_loops(self) -> bool:
        rows = self.row_index_per_entry()
        return np.unique(rows[self.indices == rows]).size == self.n_nodes


@dataclass(frozen=True)
class Graph(_Csr):
    """Immutable binary undirected graph.

    Invariants: entry (u, v) present iff (v, u) present with equal value,
    no duplicate entries, column indices sorted within each row, values
    finite and non-negative.
    """

    @property
    def n_undirected_edges(self) -> int:
        """Number of undirected edges; a self-loop counts once."""
        loops = int(np.sum(self.indices == self.row_index_per_entry()))
        return (self.nnz - loops) // 2 + loops


@dataclass(frozen=True)
class NormalizedAdjacency(_Csr):
    """Symmetrically normalized adjacency D^{-1/2} (A + I) D^{-1/2}.

    Symmetric, spectral radius <= 1.  Its stored entries are those of
    A + I, since :func:`sym_normalize` copies that pattern.  Built once per
    graph and shared read-only by models, losses and diffusion.
    """

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        """D - A_hat with D = diag(degrees(A_hat)), the l2 smoothness operator."""
        return (sp.diags(degrees(self)) - self.scipy).tocsr()


def _csr_from_pairs(rows: np.ndarray, cols: np.ndarray, n_nodes: int):
    """Dedup (row, col) pairs and return sorted CSR arrays with unit values."""
    keys = np.sort(rows.astype(np.int64) * n_nodes + cols.astype(np.int64))
    keys = keys[np.diff(keys, prepend=-1) != 0]  # np.unique's hash table is slower here
    rows_u = keys // n_nodes
    cols_u = keys % n_nodes
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows_u, minlength=n_nodes), out=indptr[1:])
    return indptr, cols_u.astype(np.int64), np.ones(keys.shape[0])


def from_edge_list(pairs, n_nodes: int) -> Graph:
    """Build a symmetrized, deduplicated, binary graph from (u, v) pairs.

    Input self-loops are permitted (stored once); duplicate pairs and
    both orientations of the same edge collapse to a single undirected
    edge.  An empty pair list yields a valid edgeless graph.

    Raises
    ------
    InputError
        If ``n_nodes`` is not positive or any node id falls outside
        ``[0, n_nodes)``.
    """
    if n_nodes <= 0:
        raise InputError(f"n_nodes must be positive, got {n_nodes}")
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError("edge list must be a sequence of (u, v) pairs")
    if arr.size and (arr.min() < 0 or arr.max() >= n_nodes):
        bad = arr[(arr < 0) | (arr >= n_nodes)].flat[0]
        raise InputError(f"node id {bad} out of range [0, {n_nodes})")
    rows = np.concatenate([arr[:, 0], arr[:, 1]])
    cols = np.concatenate([arr[:, 1], arr[:, 0]])
    indptr, indices, values = _csr_from_pairs(rows, cols, n_nodes)
    return Graph(n_nodes, indptr, indices, values)


def add_self_loops(g: Graph) -> Graph:
    """Return A + I: every node gains a unit self-loop.

    Idempotent: nodes that already carry a self-loop keep value 1.
    """
    diag = np.arange(g.n_nodes, dtype=np.int64)
    rows = np.concatenate([g.row_index_per_entry(), diag])
    cols = np.concatenate([g.indices, diag])
    indptr, indices, values = _csr_from_pairs(rows, cols, g.n_nodes)
    return Graph(g.n_nodes, indptr, indices, values)


def degrees(g: _Csr) -> np.ndarray:
    """Row sums of the stored values (weighted degree)."""
    return np.bincount(g.row_index_per_entry(), weights=g.values, minlength=g.n_nodes)


def sym_normalize(g_tilde: Graph) -> NormalizedAdjacency:
    """D^{-1/2} A_tilde D^{-1/2} with D the diagonal degree matrix.

    Every row of ``g_tilde`` must have at least one entry, which is
    guaranteed after :func:`add_self_loops`.

    Raises
    ------
    InputError
        If any node has zero degree.
    """
    deg = degrees(g_tilde)
    if np.any(deg == 0):
        bad = int(np.flatnonzero(deg == 0)[0])
        raise InputError(
            f"node {bad} has zero degree; apply add_self_loops before normalizing"
        )
    inv_sqrt = 1.0 / np.sqrt(deg)
    rows = g_tilde.row_index_per_entry()
    values = g_tilde.values * inv_sqrt[rows] * inv_sqrt[g_tilde.indices]
    return NormalizedAdjacency(
        g_tilde.n_nodes,
        g_tilde.indptr.copy(),
        g_tilde.indices.copy(),
        values,
    )
