"""Dataset ingestion for citation-style node classification and the random
split protocol.

A dataset directory holds three plain-text files:

* ``graph.edges``   one whitespace-separated ``u v`` pair per line,
  0-based ids, ``#`` comments ignored;
* ``features.csv``  one row per node of comma-separated reals, or a
  sparse form whose first line is ``#sparse d=<d>`` followed by
  space-separated ``idx:value`` pairs per row (blank row = zero row);
* ``labels.txt``    one integer class id per line.

Either feature format loads into a :class:`FeatureMatrix`, a CSR matrix
that stores only the nonzero (or explicitly listed) entries; the loader,
the row normalization and the models never hold the dense n x d array.

A split takes ``ell`` labeled training nodes per class, then 500
validation and 1000 test nodes sampled uniformly (in that order, so
seeds reproduce across implementations); all three sets are disjoint.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import InputError
from .graph import Graph, from_edge_list, read_edge_list

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
        present = np.unique(self.labels)
        expected = np.arange(self.n_classes)
        if present.shape != expected.shape or np.any(present != expected):
            missing = sorted(set(expected.tolist()) - set(present.tolist()))
            raise InputError(f"classes {missing} have no nodes")
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


# Space- or tab-separated idx:value pairs, idx a plain integer; may be blank.
# (str.splitlines has already split at every other ASCII whitespace.)
_SPARSE_ROW = re.compile(r"[ \t]*(?:[0-9]+:[^ \t:]+(?:[ \t]+|\Z))*")


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


def _sparse_row(path: Path, lineno: int, line: str) -> tuple[np.ndarray, np.ndarray]:
    """Column ids and values of one ``idx:value`` row."""
    if not _SPARSE_ROW.fullmatch(line):
        raise InputError(f"{path}:{lineno}: expected space-separated idx:value pairs")
    if ":" not in line:  # a blank row; np.fromstring reads bare whitespace as [-1]
        return np.empty(0, dtype=np.int64), np.empty(0)
    try:
        pairs = np.fromstring(line.replace(":", " "), sep=" ")
    except ValueError:
        raise InputError(f"{path}:{lineno}: non-numeric feature value") from None
    return pairs[0::2].astype(np.int64), pairs[1::2]


def _dense_row(path: Path, lineno: int, line: str, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Column ids and values of the nonzeros of one comma-separated row."""
    if not line.strip():
        raise InputError(f"{path}:{lineno}: blank feature row in dense format")
    try:
        row = np.fromstring(line, sep=",")
    except ValueError:
        row = None
    if row is None or row.size != line.count(",") + 1:  # fromstring takes a trailing comma
        raise InputError(f"{path}:{lineno}: non-numeric feature value")
    if row.size != d:
        raise InputError(f"{path}:{lineno}: expected {d} values, got {row.size}")
    cols = np.flatnonzero(row)
    return cols, row[cols]


def _parse_features(path: Path) -> FeatureMatrix:
    """The feature file as CSR, parsed one line at a time with no dense n x d copy."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise InputError(f"{path}: empty feature file")
    if lines[0].startswith("#sparse"):
        d, first, parse = _sparse_dimension(path, lines[0]), 2, _sparse_row
    else:
        d, first = lines[0].count(",") + 1, 1
        parse = partial(_dense_row, d=d)
    cols, vals = [], []
    for lineno, line in enumerate(lines[first - 1:], start=first):
        c, v = parse(path, lineno, line)
        cols.append(c)
        vals.append(v)
    if not cols:
        raise InputError(f"{path}: no feature rows")
    indptr = np.zeros(len(cols) + 1, dtype=np.int64)
    np.cumsum([c.size for c in cols], out=indptr[1:])
    indices, data = np.concatenate(cols), np.concatenate(vals)

    def line_of(entry) -> int:
        return first - 1 + int(np.searchsorted(indptr, entry, side="right"))

    beyond = np.flatnonzero(indices >= d)
    if beyond.size:
        raise InputError(f"{path}:{line_of(beyond[0])}: feature index "
                         f"{indices[beyond[0]]} out of range")
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        raise InputError(f"{path}:{line_of(bad[0])}: non-finite feature value")
    features = FeatureMatrix((data, indices, indptr), shape=(len(cols), d))
    if not features.has_canonical_format:  # a row lists its indices out of order or twice
        features.sort_indices()
        again = np.flatnonzero(np.diff(features.indices) == 0)
        again = again[~np.isin(again + 1, indptr)]  # both entries in one row
        if again.size:
            raise InputError(f"{path}:{line_of(again[0])}: feature index "
                             f"{features.indices[again[0]]} listed twice")
    return features


def _parse_labels(path: Path) -> np.ndarray:
    labels = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                raise InputError(f"{path}:{lineno}: blank label line")
            try:
                labels.append(int(stripped))
            except ValueError:
                raise InputError(f"{path}:{lineno}: non-integer class id {stripped!r}") from None
    return np.asarray(labels, dtype=np.int64)


def load_dataset(directory) -> LabeledDataset:
    """Load and validate a dataset directory (see module docstring)."""
    directory = Path(directory)
    for fname in ("graph.edges", "features.csv", "labels.txt"):
        if not (directory / fname).is_file():
            raise InputError(f"{directory}: missing {fname}")
    labels = _parse_labels(directory / "labels.txt")
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
