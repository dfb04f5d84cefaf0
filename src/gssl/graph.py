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

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

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
    "read_edge_list",
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
        """scipy view sharing this graph's arrays (used for products)."""
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


def read_edge_list(path) -> np.ndarray:
    """The (m, 2) int64 array of an edge-list file: one "u v" pair of 0-based
    ids per line, split by blanks or tabs; lines starting with '#' and blank
    lines are skipped.  A malformed line raises InputError with its number."""
    ids, = _parse_lines(path, _edge_lines)
    return ids.reshape(-1, 2)


_BLOCK_LINES = 1024  # lines per array parse: bounds the parser's transient arrays
_TEXT_BYTES = bytes(range(32, 127)) + b"\t\n"


def _parse_lines(path, parse, first: int = 1) -> list[np.ndarray]:
    """A text file's lines from line ``first`` on, ``_BLOCK_LINES`` at a time:
    ``parse`` maps whole lines to a tuple of arrays, joined over the blocks.
    CRLF and CR end a line as LF does.  If ``parse`` rejects a block, its
    lines are parsed one by one so that the InputError names the bad line;
    so does a byte that is not printable ASCII, a tab or a line end."""
    text = Path(path).read_bytes()
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if text.translate(None, _TEXT_BYTES):
        at = re.search(rb"[^\t\n -~]", text).start()
        lineno = text.count(b"\n", 0, at) + 1
        raise InputError(f"{path}:{lineno}: byte 0x{text[at]:02x} is not printable ASCII")
    line_starts = np.append(0, np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n")) + 1)
    cuts = (line_starts[first - 1::_BLOCK_LINES].tolist() or [len(text)]) + [len(text)]
    blocks = []
    for k, (start, stop) in enumerate(zip(cuts, cuts[1:])):
        try:
            blocks.append(parse(text[start:stop]))
        except InputError as whole:
            lines = text[start:stop].splitlines(keepends=True)
            for lineno, line in enumerate(lines, start=first + k * _BLOCK_LINES):
                try:
                    parse(line)
                except InputError as err:
                    raise InputError(f"{path}:{lineno}: {err}") from None
            raise InputError(f"{path}: {whole}") from None
    del text  # the blocks are joined without the file's bytes
    return [np.concatenate(arrays) for arrays in zip(*blocks)]


def _words(text: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``text`` as uint8, the start and end offsets of its space- or
    tab-separated words, and the number of words on each line."""
    b = np.frombuffer(text, np.uint8)
    in_word = (b != ord(" ")) & (b != ord("\t")) & (b != ord("\n"))
    bounds = np.flatnonzero(np.diff(in_word, prepend=False, append=False))
    return b, bounds[0::2], bounds[1::2], _line_counts(b, bounds[0::2])


def _line_counts(b: np.ndarray, at: np.ndarray) -> np.ndarray:
    """How many of the sorted offsets ``at`` fall on each line of ``b``."""
    line_ends = np.flatnonzero(np.append(b == ord("\n"), b[-1:] != ord("\n")))
    return np.diff(np.searchsorted(at, line_ends), prepend=0)


def _numbers(text: bytes, n_words: int, dtype=np.int64, sep=" ") -> np.ndarray | None:
    """The ``n_words`` numbers of ``text`` as ``dtype``; None if any is not one."""
    if not n_words:  # np.fromstring reads bare whitespace as one number
        return np.empty(0, dtype)
    try:
        out = np.fromstring(text, dtype=dtype, sep=sep)
    except ValueError:
        return None
    return out if out.size == n_words else None


def _edge_lines(text: bytes) -> tuple[np.ndarray]:
    """The node ids of whole lines of an edge list, in order."""
    if b"#" in text:
        text = re.sub(rb"(?m)^[ \t]*#.*", b"", text)
    _, starts, _, counts = _words(text)
    ids = _numbers(text, starts.size)
    if np.all((counts == 0) | (counts == 2)) and ids is not None and not np.any(ids < 0):
        return ids,
    line = text.strip().decode()
    if np.any((counts != 0) & (counts != 2)):
        raise InputError(f"expected 'u v', got {line!r}")
    raise InputError(f"{'non-integer' if ids is None else 'negative'} node id in {line!r}")
