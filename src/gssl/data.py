"""Dataset ingestion for citation-style node classification and the random
split protocol.

A dataset directory holds three plain-text files:

* ``graph.edges``   one whitespace-separated ``u v`` pair per line,
  0-based ids, ``#`` comments ignored;
* ``features.csv``  one row per node of comma-separated reals, or a
  sparse form whose first line is ``#sparse d=<d>`` followed by
  space-separated ``idx:value`` pairs per row (blank row = zero row);
* ``labels.txt``    one integer class id per line.

A split takes ``ell`` labeled training nodes per class, then 500
validation and 1000 test nodes sampled uniformly (in that order, so
seeds reproduce across implementations); all three sets are disjoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .graph import Graph, from_edge_list, read_edge_list

__all__ = [
    "LabeledDataset",
    "Split",
    "VAL_SIZE",
    "TEST_SIZE",
    "load_dataset",
    "save_dataset",
    "make_splits",
    "row_normalize_features",
    "save_splits",
    "load_splits",
]

VAL_SIZE = 500
TEST_SIZE = 1000


@dataclass(frozen=True)
class LabeledDataset:
    graph: Graph
    features: np.ndarray
    labels: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        n = self.graph.n_nodes
        if self.features.shape[0] != n:
            raise InputError(
                f"feature rows ({self.features.shape[0]}) != graph nodes ({n})")
        if self.labels.shape[0] != n:
            raise InputError(f"label count ({self.labels.shape[0]}) != graph nodes ({n})")
        if self.labels.min() < 0:
            raise InputError("negative class id")
        present = np.unique(self.labels)
        expected = np.arange(self.n_classes)
        if present.shape != expected.shape or np.any(present != expected):
            missing = sorted(set(expected.tolist()) - set(present.tolist()))
            raise InputError(f"classes {missing} have no nodes")
        self.features.setflags(write=False)
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


def _parse_features(path: Path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise InputError(f"{path}: empty feature file")
    rows: list[np.ndarray] = []
    if lines[0].startswith("#sparse"):
        header = lines[0].split("d=")
        if len(header) != 2:
            raise InputError(f"{path}:1: sparse header must be '#sparse d=<d>'")
        try:
            d = int(header[1])
        except ValueError:
            raise InputError(f"{path}:1: bad dimension in sparse header") from None
        for lineno, line in enumerate(lines[1:], start=2):
            row = np.zeros(d)
            for tok in line.split():
                if ":" not in tok:
                    raise InputError(f"{path}:{lineno}: expected idx:value, got {tok!r}")
                idx_s, val_s = tok.split(":", 1)
                try:
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise InputError(f"{path}:{lineno}: bad idx:value pair {tok!r}") from None
                if not 0 <= idx < d:
                    raise InputError(f"{path}:{lineno}: feature index {idx} out of range")
                row[idx] = val
            rows.append(row)
    else:
        d = None
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                raise InputError(f"{path}:{lineno}: blank feature row in dense format")
            try:
                row = np.array([float(tok) for tok in line.split(",")])
            except ValueError:
                raise InputError(f"{path}:{lineno}: non-numeric feature value") from None
            if d is None:
                d = row.shape[0]
            elif row.shape[0] != d:
                raise InputError(
                    f"{path}:{lineno}: expected {d} values, got {row.shape[0]}")
            rows.append(row)
    features = np.vstack(rows)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:  # row i is on line i + 1, after the sparse header if there is one
        raise InputError(f"{path}:{bad[0] + 1 + len(lines) - len(rows)}: non-finite feature value")
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


def save_dataset(ds: LabeledDataset, directory) -> None:
    """Write a dataset back out in the dense plain-text format.

    Round-trips bit-exactly: floats are written with shortest-repr.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = ds.graph.row_index_per_entry()
    with open(directory / "graph.edges", "w", encoding="ascii") as fh:
        for u, v in zip(rows, ds.graph.indices):
            if u <= v:
                fh.write(f"{u} {v}\n")
    with open(directory / "features.csv", "w", encoding="ascii") as fh:
        for row in ds.features:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    with open(directory / "labels.txt", "w", encoding="ascii") as fh:
        for label in ds.labels:
            fh.write(f"{label}\n")


def row_normalize_features(ds: LabeledDataset) -> LabeledDataset:
    """Divide each nonzero feature row by its L1 norm; zero rows unchanged."""
    norms = np.abs(ds.features).sum(axis=1, keepdims=True)
    scaled = np.divide(ds.features, norms, out=ds.features.copy(), where=norms > 0)
    return LabeledDataset(ds.graph, scaled, ds.labels.copy(), name=ds.name)


def make_splits(ds: LabeledDataset, ell: int, n_splits: int, base_seed: int,
                val_size: int = VAL_SIZE, test_size: int = TEST_SIZE) -> list[Split]:
    """Random splits with seeds base_seed .. base_seed + n_splits - 1.

    Per split: ``ell`` nodes per class drawn uniformly without replacement
    for training, then ``val_size`` validation and ``test_size`` test
    nodes from the remainder (validation first, so seeds reproduce).
    """
    if ell < 1 or n_splits < 1:
        raise InputError("ell and n_splits must be >= 1")
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
