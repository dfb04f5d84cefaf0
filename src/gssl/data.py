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
calls; only a block that fails is read again line by line, to name the
bad line.  Either feature format loads into a :class:`FeatureMatrix`, a
CSR matrix that stores only the nonzero (or explicitly listed) entries;
the loader, the row normalization and the models never hold the dense
n x d array.

A split takes ``ell`` labeled training nodes per class, then 500
validation and 1000 test nodes sampled uniformly (in that order, so
seeds reproduce across implementations); all three sets are disjoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import InputError
from .graph import (Graph, _line_counts, _numbers, _parse_lines, _words, from_edge_list,
                    read_edge_list)

__all__ = [
    "FeatureMatrix",
    "LabeledDataset",
    "Split",
    "VAL_SIZE",
    "TEST_SIZE",
    "load_dataset",
    "make_splits",
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
    in any form scipy accepts and is stored as a float64 FeatureMatrix."""

    graph: Graph
    features: FeatureMatrix
    labels: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        if not isinstance(self.features, FeatureMatrix):
            object.__setattr__(self, "features", FeatureMatrix(self.features, dtype=np.float64))
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
        missing = np.flatnonzero(np.bincount(self.labels) == 0)
        if missing.size:
            raise InputError(f"classes {missing.tolist()} have no nodes")
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
        return cls(
            train=np.asarray(d["train"], dtype=np.int64),
            val=np.asarray(d["val"], dtype=np.int64),
            test=np.asarray(d["test"], dtype=np.int64),
            seed=int(d["seed"]),
            ell=int(d["ell"]),
        )


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
    return d


def _sparse_rows(text: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row lengths, column ids and values of whole lines of ``idx:value`` pairs."""
    b, starts, ends, counts = _words(text)
    at = np.flatnonzero(b == ord(":"))
    flip = np.zeros(b.size + 1, bool)
    flip[at + 1] = flip[ends] = True
    value = np.logical_xor.accumulate(flip[:-1])  # the bytes after a word's colon
    index = np.maximum(b * ~value, ord(" ")).tobytes().replace(b":", b" ")  # all else blank
    # each word: one colon, digits before it and something after it
    if (at.size != starts.size or np.any(at <= starts) or np.any(at >= ends - 1)
            or index.translate(None, b" 0123456789")):
        raise InputError("expected space-separated idx:value pairs")
    vals = _numbers(np.maximum(b * value, ord(" ")).tobytes(), starts.size, np.float64)
    if vals is None:
        raise InputError("non-numeric feature value")
    return counts, _numbers(index, starts.size), vals


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
    return np.bincount(r, minlength=fields.size), c, rows[r, c]


def _parse_features(path: Path) -> FeatureMatrix:
    """The feature file as CSR, parsed in blocks of lines with no dense n x d copy."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        header = fh.readline()  # the whole file is checked to be ASCII below
    if not header:
        raise InputError(f"{path}: empty feature file")
    if header.startswith("#sparse"):
        d, first, parse = _sparse_dimension(path, header.rstrip("\n")), 2, _sparse_rows
    else:
        d, first = header.count(",") + 1, 1
        parse = partial(_dense_rows, d=d)
    counts, indices, data = _parse_lines(path, parse, first)
    if not counts.size:
        raise InputError(f"{path}: no feature rows")
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    def line_of(entry) -> int:
        return first - 1 + int(np.searchsorted(indptr, entry, side="right"))

    beyond = np.flatnonzero(indices >= d)
    if beyond.size:
        raise InputError(f"{path}:{line_of(beyond[0])}: feature index "
                         f"{indices[beyond[0]]} out of range")
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        raise InputError(f"{path}:{line_of(bad[0])}: non-finite feature value")
    features = FeatureMatrix((data, indices, indptr), shape=(counts.size, d))
    if not features.has_canonical_format:  # a row lists its indices out of order or twice
        features.sort_indices()
        again = np.flatnonzero(np.diff(features.indices) == 0)
        again = again[~np.isin(again + 1, indptr)]  # both entries in one row
        if again.size:
            raise InputError(f"{path}:{line_of(again[0])}: feature index "
                             f"{features.indices[again[0]]} listed twice")
    return features


def _label_lines(text: bytes) -> tuple[np.ndarray]:
    """The class ids of whole lines of a label file."""
    _, starts, _, counts = _words(text)
    labels = _numbers(text, starts.size)
    if np.all(counts == 1) and labels is not None:
        return labels,
    if np.any(counts == 0):
        raise InputError("blank label line")
    raise InputError(f"non-integer class id {text.strip().decode()!r}")


def load_dataset(directory) -> LabeledDataset:
    """Load and validate a dataset directory (see module docstring)."""
    directory = Path(directory)
    for fname in ("graph.edges", "features.csv", "labels.txt"):
        if not (directory / fname).is_file():
            raise InputError(f"{directory}: missing {fname}")
    labels, = _parse_lines(directory / "labels.txt", _label_lines)
    features = _parse_features(directory / "features.csv")
    n = labels.shape[0]
    if features.shape[0] != n:
        raise InputError(
            f"{directory}: features.csv has {features.shape[0]} rows, labels.txt has {n}")
    pairs = read_edge_list(directory / "graph.edges")
    graph = from_edge_list(pairs, n)
    return LabeledDataset(graph, features, labels, name=directory.name)


def row_normalize_features(ds: LabeledDataset) -> LabeledDataset:
    """Divide each nonzero feature row by its L1 norm; zero rows unchanged.

    Works on the stored values only: the norm of a row sums its stored
    entries, and each entry is divided by its row's norm.
    """
    f = ds.features
    rows = np.repeat(np.arange(f.shape[0]), np.diff(f.indptr))
    norms = np.bincount(rows, weights=np.abs(f.data), minlength=f.shape[0])[rows]
    scaled = np.divide(f.data, norms, out=f.data.copy(), where=norms > 0)
    features = FeatureMatrix((scaled, f.indices, f.indptr), shape=f.shape)
    return LabeledDataset(ds.graph, features, ds.labels.copy(), name=ds.name)


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
    with open(path, "r", encoding="ascii") as fh:
        return [Split.from_dict(d) for d in json.load(fh)]
