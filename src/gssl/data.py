"""Dataset ingestion for citation-style node classification and the random
split protocol.

A dataset directory holds three ASCII text files.  A line ends in LF,
CRLF or CR, and the words on it are split by blanks and tabs; any other
byte below 0x20 or above 0x7e fails the load with its file and line.

* ``graph.edges``   one ``u v`` pair per line, 0-based ids; blank lines
  and lines starting with ``#`` are ignored;
* ``features.csv``  one row per node of comma-separated reals, or a
  sparse form whose first line is ``#sparse d=<d>`` followed by
  ``idx:value`` pairs per row (blank row = zero row);
* ``labels.txt``    one integer class id per line.

Each file is parsed a block of lines at a time by a few whole-block array
calls, and every check of a line's content runs in that block: a node id
beyond the label count, a negative class id, a feature index out of range
or listed twice in its row, a non-finite feature value.  Only a block that
fails is read again line by line, so every error names its file and line.
A class id at or beyond the label count is named by its line once all
labels are read.  An integer past int64, which ``np.fromstring`` reads as
int64's largest value, is out of range and named by its own digits.
Either feature format loads into a :class:`FeatureMatrix`, a canonical CSR
matrix (each row's indices increasing) that stores only the nonzero (or
explicitly listed) entries; the loader, the row normalization and the
models never hold the dense n x d array.  ``labels.txt`` is read first:
its line count is the node count the edge list is checked against.

A sparse block is split at each word's one colon.  Its indices are
accumulated from their digit bytes, one digit place for all words at a
time, which also checks that every index byte is a digit; an index too
large for the column type (int32 where ``d`` fits it, the type scipy
keeps) stops at that type's largest value and so reads as out of range.
Its values are read from their digit bytes the same way when every one
in the block is plain: 1 to 15 digits and at most one point, nothing
else.  Such a value is an integer below 2**53 over a power of ten no
larger than 10**15, and the one division of those two exact doubles
gives the bits ``np.fromstring`` gives.  A block holding any other value
(a sign, an exponent, ``inf``, ``nan``, 16 digits or more) is read by one
``np.fromstring`` call on the block with the indices and colons blanked,
so every form it accepts and every error it raises stay as they were.

A split takes ``ell`` labeled training nodes per class, then 500
validation and 1000 test nodes sampled uniformly (in that order, so
seeds reproduce across implementations); all three sets are disjoint.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import InputError
from .graph import Graph, from_edge_list

__all__ = [
    "FeatureMatrix",
    "LabeledDataset",
    "Split",
    "VAL_SIZE",
    "TEST_SIZE",
    "load_dataset",
    "make_splits",
    "read_edge_list",
    "row_normalize_features",
    "save_splits",
    "load_splits",
]

VAL_SIZE = 500
TEST_SIZE = 1000


class FeatureMatrix(sp.csr_matrix):
    """Node features in CSR form; ``nbytes`` counts its three arrays."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


@dataclass(frozen=True)
class LabeledDataset:
    """A graph, its node features and labels.  ``features`` may be given
    in any form scipy accepts and is stored as a float64 FeatureMatrix;
    ``labels`` is stored as a read-only int64 copy."""

    graph: Graph
    features: FeatureMatrix
    labels: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        if not isinstance(self.features, FeatureMatrix):
            object.__setattr__(self, "features", FeatureMatrix(self.features, dtype=np.float64))
        labels = np.asarray(self.labels)
        if not np.can_cast(labels.dtype, np.int64, "same_kind"):
            raise InputError(f"labels must be integer class ids, got dtype {labels.dtype}")
        # its own copy, frozen below, so the caller's array stays writeable
        object.__setattr__(self, "labels", labels.astype(np.int64))
        n = self.graph.n_nodes
        if self.features.shape[0] != n:
            raise InputError(
                f"feature rows ({self.features.shape[0]}) != graph nodes ({n})")
        if not np.isfinite(self.features.data).all():
            raise InputError("non-finite feature value")
        if self.labels.shape[0] != n:
            raise InputError(f"label count ({self.labels.shape[0]}) != graph nodes ({n})")
        if self.labels.min() < 0:
            raise InputError("negative class id")
        top = int(self.labels.max())
        if top >= n:  # c classes that each hold a node need c <= n
            raise InputError(f"class id {top} needs {top + 1} classes, more than {n} nodes can hold")
        missing = np.flatnonzero(np.bincount(self.labels) == 0)
        if missing.size:
            shown = ", ".join(map(str, missing[:5])) + (", ..." if missing.size > 5 else "")
            raise InputError(f"classes [{shown}] have no nodes ({missing.size} in all)")
        for arr in (self.features.data, self.features.indices, self.features.indptr):
            arr.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: int
    ell: int

    def __post_init__(self):
        sets = [set(self.train.tolist()), set(self.val.tolist()), set(self.test.tolist())]
        if len(sets[0] | sets[1] | sets[2]) != len(self.train) + len(self.val) + len(self.test):
            raise InputError("train/val/test sets overlap")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ell": self.ell,
            "train": self.train.tolist(),
            "val": self.val.tolist(),
            "test": self.test.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Split":
        """The split of a :meth:`to_dict` form; InputError names a missing or
        malformed key.  Node ids are integers in [0, 2^63), and ``seed`` and
        ``ell`` are integers (a bool or a float is neither)."""
        if not isinstance(d, dict):
            raise InputError(f"expected an object, got {type(d).__name__}")
        for key in ("seed", "ell", "train", "val", "test"):
            if key not in d:
                raise InputError(f'no "{key}"')
        for key in ("seed", "ell"):
            if not _is_int(d[key]):
                raise InputError(f'"{key}" is {d[key]!r}, not an integer')
        for key in ("train", "val", "test"):
            if not isinstance(d[key], list):
                raise InputError(f'"{key}" is {type(d[key]).__name__}, not a list of node ids')
            for i in d[key]:
                if not (_is_int(i) and 0 <= i <= _INT64_MAX):
                    raise InputError(f'"{key}" holds {i!r}, not a node id in [0, {_INT64_MAX}]')
        return cls(
            train=np.asarray(d["train"], dtype=np.int64),
            val=np.asarray(d["val"], dtype=np.int64),
            test=np.asarray(d["test"], dtype=np.int64),
            seed=int(d["seed"]),
            ell=int(d["ell"]),
        )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_BLOCK_LINES = 1024  # lines per array parse: bounds the parser's transient arrays
_INT64_MAX = np.iinfo(np.int64).max  # what np.fromstring reads any integer past int64 as
_TEXT_BYTES = bytes(range(32, 127)) + b"\t\n"


def _read_text(path) -> bytes:
    """``path``'s bytes, CRLF and CR made LF; InputError names a non-text byte's line."""
    text = Path(path).read_bytes()
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if text.translate(None, _TEXT_BYTES):
        at = re.search(rb"[^\t\n -~]", text).start()
        lineno = text.count(b"\n", 0, at) + 1
        raise InputError(f"{path}:{lineno}: byte 0x{text[at]:02x} is not printable ASCII")
    return text


def _parse_lines(path, text: bytes, parse, first: int = 1) -> Iterator[tuple[np.ndarray, ...]]:
    """For each ``_BLOCK_LINES`` lines of ``path``'s ``text`` from line ``first``
    on, the tuple of arrays ``parse`` makes of them; ``text`` is let go after
    the last block.  If ``parse`` rejects a block, its lines are parsed one by
    one so that the InputError names the bad line."""
    line_starts = np.append(0, np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n")) + 1)
    cuts = (line_starts[first - 1::_BLOCK_LINES].tolist() or [len(text)]) + [len(text)]
    for k, (start, stop) in enumerate(zip(cuts, cuts[1:])):
        try:
            arrays = parse(text[start:stop])
        except InputError as whole:
            lines = text[start:stop].splitlines(keepends=True)
            for lineno, line in enumerate(lines, start=first + k * _BLOCK_LINES):
                try:
                    parse(line)
                except InputError as err:
                    raise InputError(f"{path}:{lineno}: {err}") from None
            raise InputError(f"{path}: {whole}") from None
        yield arrays


def _words(text: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``text`` as uint8, the start and end offsets of its space- or
    tab-separated words, and the number of words on each line."""
    b = np.frombuffer(text, np.uint8)
    # _read_text leaves only tab, LF and printable ASCII, so a word byte is any above blank
    bounds = np.flatnonzero(np.diff(b > ord(" "), prepend=False, append=False))
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


def _edge_lines(text: bytes, n_nodes=_INT64_MAX) -> tuple[np.ndarray]:
    """The node ids of whole lines of an edge list, in order; each below ``n_nodes``."""
    if b"#" in text:
        text = re.sub(rb"(?m)^[ \t]*#.*", b"", text)
    _, starts, ends, counts = _words(text)
    ids = _numbers(text, starts.size)
    if np.any((counts != 0) & (counts != 2)):
        raise InputError(f"expected 'u v', got {text.strip().decode()!r}")
    if ids is None or np.any(ids < 0):
        raise InputError(f"{'non-integer' if ids is None else 'negative'} node id in "
                         f"{text.strip().decode()!r}")
    beyond = np.flatnonzero(ids >= n_nodes)
    if beyond.size:  # named by its digits, which an id past int64 has lost in ids
        k = beyond[0]
        raise InputError(f"node id {int(text[starts[k]:ends[k]])} out of range [0, {n_nodes})")
    return ids,


def _column(path, parse) -> np.ndarray:
    """The one array ``parse`` makes of each block of ``path``'s lines, joined."""
    column, = map(np.concatenate, zip(*_parse_lines(path, _read_text(path), parse)))
    return column


def read_edge_list(path) -> np.ndarray:
    """The (m, 2) int64 array of an edge-list file: one "u v" pair of 0-based
    ids per line, split by blanks or tabs; lines starting with '#' and blank
    lines are skipped.  A malformed line raises InputError with its number."""
    return _column(path, _edge_lines).reshape(-1, 2)


def _sparse_dimension(path: Path, header: str) -> int:
    parts = header.split("d=")
    if len(parts) != 2:
        raise InputError(f"{path}:1: sparse header must be '#sparse d=<d>'")
    try:
        d = int(parts[1])
    except ValueError:
        raise InputError(f"{path}:1: bad dimension in sparse header") from None
    if d < 1:
        raise InputError(f"{path}:1: sparse dimension must be >= 1, got {d}")
    if d > _INT64_MAX:  # scipy's index types stop there
        raise InputError(f"{path}:1: sparse dimension must be <= {_INT64_MAX}, got {d}")
    return d


def _plain_values(b: np.ndarray, at: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The values that follow the colons ``at`` up to the word ``ends`` of the
    block ``b``, or None unless each is plain: 1 to 15 digits and at most one
    point.  A plain value is its digits read as one integer m < 10**15 < 2**53
    over 10**k, k its digits after the point; both are exact doubles, so their
    one division is the correctly rounded value ``np.fromstring`` reads
    (Clinger, PLDI 1990)."""
    size = ends - at - 1
    if size.max(initial=0) > 16:
        return None
    size = size.astype(np.uint8)
    m = np.zeros(at.size, np.int64)
    point = np.full(at.size, -1, np.int8)  # the place of each value's point
    pos = at.copy()
    read = 0
    for k in range(size.max(initial=0)):  # the k-th byte of each value, from the left
        live = size > k
        pos += live  # a value read to its end stays on its last byte
        digit = b[pos] - np.uint8(ord("0"))  # a point gives 254
        take = (digit < 10) & live
        read += np.count_nonzero(take)
        np.copyto(m, m * 10 + digit, where=take)
        np.copyto(point, k, where=(digit == 254) & live)
    pointed = point >= 0
    # every byte read is a digit or, once in a value, a point
    if read + np.count_nonzero(pointed) != size.sum(dtype=np.int64):
        return None
    if np.any((size - pointed < 1) | (size - pointed > 15)):  # its digits
        return None
    powers = np.power(10, np.arange(16)).astype(np.float64)  # each exact
    return m / powers[np.where(pointed, size - 1 - point, 0)]


def _sparse_rows(text: bytes, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row lengths, column ids (increasing within each row, int32 where ``d``
    fits it) and values of whole lines of ``idx:value`` pairs."""
    b, starts, ends, counts = _words(text)
    at = np.flatnonzero(b == ord(":"))
    # each word: one colon, digits before it and something after it
    if at.size != starts.size or np.any(at <= starts) or np.any(at >= ends - 1):
        raise InputError("expected space-separated idx:value pairs")
    dtype = np.int32 if d <= np.iinfo(np.int32).max else np.int64
    top = dtype(np.iinfo(dtype).max)
    cols = np.zeros(starts.size, dtype)
    for k in range((at - starts).max(initial=0)):  # the k-th digit of each index, from the left
        pos = np.minimum(starts + k, at)  # an index already read points at its colon
        digit = b[pos] - np.uint8(ord("0"))  # the colon gives 10, any other non-digit more
        if np.any(digit > 10):
            raise InputError("expected space-separated idx:value pairs")
        grown = cols * 10 + digit
        if k >= len(str(top)) - 1:  # each index is below 10**k: only now can one pass top
            grown[cols > (top - digit) // 10] = top  # and stays there, past any d
        np.copyto(cols, grown, where=digit < 10)
    vals = _plain_values(b, at, ends)
    if vals is None:  # one np.fromstring call on the block with indices and colons blanked
        values = b.copy()
        for k in range((at - starts).max(initial=0) + 1):
            values[np.minimum(starts + k, at)] = ord(" ")
        vals = _numbers(values.tobytes(), starts.size, np.float64)
        if vals is None:
            raise InputError("non-numeric feature value")
    beyond = np.flatnonzero(cols >= d)
    if beyond.size:
        k = beyond[0]
        raise InputError(f"feature index {int(text[starts[k]:at[k]])} out of range")
    if not np.isfinite(vals).all():
        raise InputError("non-finite feature value")
    indptr = np.append(0, np.cumsum(counts))
    opens = np.zeros(cols.size + 1, bool)
    opens[indptr[:-1]] = True  # a row's first entry
    if not np.all(opens[1:-1] | (cols[1:] > cols[:-1])):  # a row out of order or repeated
        block = sp.csr_matrix((vals, cols, indptr), (counts.size, d))
        block.sort_indices()
        cols, vals = block.indices, block.data
        twice = np.flatnonzero(~opens[1:-1] & (cols[1:] == cols[:-1]))
        if twice.size:
            raise InputError(f"feature index {cols[twice[0]]} listed twice")
    return counts, cols, vals


def _dense_rows(text: bytes, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row lengths, column ids and values of the nonzeros of whole lines of
    comma-separated values."""
    b, _, _, counts = _words(text)
    if np.any(counts == 0):
        raise InputError("blank feature row in dense format")
    fields = _line_counts(b, np.flatnonzero(b == ord(","))) + 1
    rows = _numbers(text.replace(b"\n", b","), fields.sum(), np.float64, sep=",")
    if rows is None:  # a trailing comma leaves one value short
        raise InputError("non-numeric feature value")
    # np.fromstring reads a field of only blanks as -1: with the blanks
    # squeezed out, such a field leaves two separators side by side.  The
    # block after a file's last line end is empty.
    s = np.frombuffer(text.translate(None, b" \t"), np.uint8)
    sep = (s == ord(",")) | (s == ord("\n"))
    if s.size and (sep[0] or s[-1] == ord(",") or np.any(sep[1:] & sep[:-1])):
        raise InputError("blank feature value")
    if np.any(fields != d):
        raise InputError(f"expected {d} values, got {fields[fields != d][0]}")
    rows = rows.reshape(-1, d)
    r, c = np.nonzero(rows)
    vals = rows[r, c]
    if not np.isfinite(vals).all():
        raise InputError("non-finite feature value")
    return np.bincount(r, minlength=fields.size), c, vals


def _parse_features(path: Path) -> FeatureMatrix:
    """The feature file as CSR, parsed in blocks of lines with no dense n x d copy."""
    text = _read_text(path)
    if not text:
        raise InputError(f"{path}: empty feature file")
    header = (text[:text.find(b"\n")] if b"\n" in text else text).decode()
    if header.startswith("#sparse"):
        d, first, parse = _sparse_dimension(path, header), 2, _sparse_rows
    else:
        d, first, parse = header.count(",") + 1, 1, _dense_rows
    blocks = _parse_lines(path, text, partial(parse, d=d), first)
    del text  # the blocks are joined without the file's bytes
    counts, indices, data = map(np.concatenate, zip(*blocks))
    if not counts.size:
        raise InputError(f"{path}: no feature rows")
    indptr = np.append(0, np.cumsum(counts))
    return FeatureMatrix((data, indices, indptr), shape=(counts.size, d))


def _label_lines(text: bytes) -> tuple[np.ndarray]:
    """The class ids of whole lines of a label file."""
    _, starts, ends, counts = _words(text)
    labels = _numbers(text, starts.size)
    if np.any(counts == 0):
        raise InputError("blank label line")
    if labels is None or np.any(counts != 1):
        raise InputError(f"non-integer class id {text.strip().decode()!r}")
    if np.any(labels < 0):
        raise InputError(f"negative class id {text.strip().decode()!r}")
    beyond = np.flatnonzero(labels == _INT64_MAX)
    if beyond.size:
        k = beyond[0]
        raise InputError(f"class id {int(text[starts[k]:ends[k]])} out of range")
    return labels,


def load_dataset(directory) -> LabeledDataset:
    """Load and validate a dataset directory (see module docstring)."""
    directory = Path(directory)
    for fname in ("graph.edges", "features.csv", "labels.txt"):
        if not (directory / fname).is_file():
            raise InputError(f"{directory}: missing {fname}")
    labels = _column(directory / "labels.txt", _label_lines)
    n = labels.shape[0]
    beyond = np.flatnonzero(labels >= n)
    if beyond.size:  # one class id per line
        top = labels[beyond[0]]
        raise InputError(f"{directory / 'labels.txt'}:{beyond[0] + 1}: class id {top} needs "
                         f"{top + 1} classes, more than {n} nodes can hold")
    features = _parse_features(directory / "features.csv")
    if features.shape[0] != n:
        raise InputError(
            f"{directory}: features.csv has {features.shape[0]} rows, labels.txt has {n}")
    pairs = _column(directory / "graph.edges", partial(_edge_lines, n_nodes=n)).reshape(-1, 2)
    return LabeledDataset(from_edge_list(pairs, n), features, labels, name=directory.name)


def row_normalize_features(ds: LabeledDataset) -> LabeledDataset:
    """Divide each nonzero feature row by its L1 norm; zero rows unchanged.

    Works on the stored values only: the norm of a row sums its stored
    entries, and each entry is divided by its row's norm.
    """
    f = ds.features
    # one row id per stored value, in f's index type: int64 ones would double these bytes
    rows = np.repeat(np.arange(f.shape[0], dtype=f.indptr.dtype), np.diff(f.indptr))
    norms = np.bincount(rows, weights=np.abs(f.data), minlength=f.shape[0])[rows]
    scaled = np.divide(f.data, norms, out=f.data.copy(), where=norms > 0)
    features = FeatureMatrix((scaled, f.indices, f.indptr), shape=f.shape)
    return LabeledDataset(ds.graph, features, ds.labels, name=ds.name)


def make_splits(ds: LabeledDataset, ell: int, n_splits: int, base_seed: int,
                val_size: int = VAL_SIZE, test_size: int = TEST_SIZE) -> list[Split]:
    """Random splits with seeds base_seed .. base_seed + n_splits - 1.

    Per split: ``ell`` nodes per class drawn uniformly without replacement
    for training, then ``val_size`` validation and ``test_size`` test
    nodes from the remainder (validation first, so seeds reproduce).
    """
    if ell < 1 or n_splits < 1:
        raise InputError("ell and n_splits must be >= 1")
    if base_seed < 0:
        raise InputError(f"base_seed must be >= 0, got {base_seed}")
    for name, size in (("val_size", val_size), ("test_size", test_size)):
        if size < 0:
            raise InputError(f"{name} must be >= 0, got {size}")
    counts = np.bincount(ds.labels, minlength=ds.n_classes)
    if counts.min() < ell:
        cls = int(counts.argmin())
        raise InputError(f"class {cls} has only {counts.min()} nodes, need ell={ell}")
    needed = ell * ds.n_classes + val_size + test_size
    if ds.n_nodes < needed:
        raise InputError(f"dataset has {ds.n_nodes} nodes, split protocol needs {needed}")
    splits = []
    for k in range(n_splits):
        seed = base_seed + k
        rng = np.random.default_rng(seed)
        train_parts = []
        for c in range(ds.n_classes):
            members = np.flatnonzero(ds.labels == c)
            train_parts.append(rng.choice(members, size=ell, replace=False))
        train = np.sort(np.concatenate(train_parts))
        remaining = np.setdiff1d(np.arange(ds.n_nodes), train, assume_unique=False)
        val = rng.choice(remaining, size=val_size, replace=False)
        remaining = np.setdiff1d(remaining, val, assume_unique=True)
        test = rng.choice(remaining, size=test_size, replace=False)
        splits.append(Split(train, np.sort(val), np.sort(test), seed=seed, ell=ell))
    return splits


def save_splits(splits: list[Split], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump([s.to_dict() for s in splits], fh, indent=1)
        fh.write("\n")


def load_splits(path) -> list[Split]:
    """The splits :func:`save_splits` wrote to ``path``.  Anything else is an
    InputError naming the file and, for a malformed split, its index and key."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except ValueError as err:  # a JSON syntax error or a non-ASCII byte
        raise InputError(f"{path}: not a JSON splits file ({err})") from None
    if not isinstance(doc, list):
        raise InputError(f"{path}: expected a list of splits, got {type(doc).__name__}")
    splits = []
    for k, d in enumerate(doc):
        try:
            splits.append(Split.from_dict(d))
        except InputError as err:
            raise InputError(f"{path}: split {k}: {err}") from None
    return splits
