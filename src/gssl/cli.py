"""Experiment runner and dataset utilities.

Consumers are scripts and CI: every subcommand reads flags or a JSON
experiment spec, writes machine-readable outputs (per-run JSON, CSV
tables, embedding CSV), and prints a compact summary.  Results are a pure
function of (spec, dataset files, seeds): rerunning a spec reproduces the
table byte for byte, and ``results.csv`` is ``aggregate_runs(runs/)``.

Subcommands: run, propagate, export-embeddings, validate-dataset,
make-splits.  The ``GSSL_DATA_DIR`` environment variable provides the
default directory against which relative dataset paths are resolved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .data import (TEST_SIZE, VAL_SIZE, LabeledDataset, load_dataset, make_splits,
                   row_normalize_features, save_splits)
from .diffusion import DiffusionConfig, label_matrix, propagate_labels
from .errors import GsslError, InputError
from .losses import LossConfig
from .models import (Model, ModelConfig, hidden_embedding, load_checkpoint, load_preprocessing,
                     save_checkpoint)
from .trainer import DataContext, TrainConfig, train

__all__ = [
    "ModelSpec",
    "ExperimentSpec",
    "CellResult",
    "ResultsTable",
    "run_experiment",
    "aggregate_runs",
    "cmd_propagate",
    "cmd_export_embeddings",
    "cmd_validate_dataset",
    "main",
]

DATA_DIR_ENV = "GSSL_DATA_DIR"

# (nodes, undirected edges, classes, features) for the common benchmarks.
KNOWN_DATASETS = {
    "cora": (2708, 5429, 7, 1433),
    "citeseer": (3327, 4732, 6, 3703),
    "pubmed": (19717, 44338, 3, 500),
}


def resolve_dataset_dir(path) -> Path:
    p = Path(path)
    if p.is_dir():
        return p
    base = os.environ.get(DATA_DIR_ENV)
    if base and (Path(base) / p).is_dir():
        return Path(base) / p
    raise InputError(f"dataset directory {path!r} not found"
                     + (f" (also tried under {base})" if base else ""))


def _model_label(kind: str, regularized: bool) -> str:
    """Table name of a model: ``GCN``, or ``R-GCN`` when regularized."""
    return ("R-" if regularized else "") + kind.upper()


_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


def _is_json_type(value, name: str) -> bool:
    """Whether ``value`` is of the annotated type ``name``: ``list[T]`` is a
    list of T, a float may be written as an integer, true/false is no number."""
    if name.startswith("list["):
        return isinstance(value, list) and all(_is_json_type(v, name[5:-1]) for v in value)
    if name == "ModelSpec":
        return isinstance(value, ModelSpec)
    return isinstance(value, _JSON_TYPES[name]) and (name == "bool" or not isinstance(value, bool))


def _check_json_types(spec) -> None:
    for f in fields(spec):
        value = getattr(spec, f.name)
        if not _is_json_type(value, f.type):
            raise InputError(f"spec field {f.name!r} must be {f.type}, got {value!r}")


@dataclass
class ModelSpec:
    kind: str
    regularized: bool = False

    def __post_init__(self):
        _check_json_types(self)

    @property
    def label(self) -> str:
        return _model_label(self.kind, self.regularized)


@dataclass
class ExperimentSpec:
    dataset: str
    models: list[ModelSpec]
    ell: list[int] = field(default_factory=lambda: [20])
    n_splits: int = 10
    layer_counts: list[int] = field(default_factory=lambda: [2])
    mu_grid: list[float] = field(default_factory=lambda: [0.1, 0.5, 1.0, 2.0])
    base_seed: int = 0
    output_dir: str = "results"
    hidden_dim: int = ModelConfig.hidden_dim
    dropout: float = ModelConfig.dropout
    lr: float = TrainConfig.lr
    weight_decay: float = TrainConfig.weight_decay
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    loss_variant: str = LossConfig.variant
    appnp_alpha: float = ModelConfig.appnp_alpha
    appnp_k: int = ModelConfig.appnp_k
    normalize_features: bool = True
    val_size: int = VAL_SIZE
    test_size: int = TEST_SIZE
    workers: int = 1
    save_checkpoints: bool = False

    def __post_init__(self):
        """Check every value before any data loads; ``models`` entries may be JSON objects."""
        if isinstance(self.models, list):
            self.models = [m if isinstance(m, ModelSpec) else ModelSpec(**m) for m in self.models]
        _check_json_types(self)
        if self.n_splits < 1:
            raise InputError("n_splits must be >= 1")
        if not self.models:
            raise InputError("experiment needs at least one model")
        for name in ("ell", "layer_counts", "mu_grid"):
            if not getattr(self, name):
                raise InputError(f"{name} must not be empty")
        if min(self.ell) < 1:
            raise InputError("ell must be >= 1")
        if self.val_size < 1 or self.test_size < 1:
            raise InputError("val_size and test_size must be >= 1")
        if self.workers < 1:
            raise InputError("workers must be >= 1")
        # Build the configs the runs will use, so that their own checks apply.
        for mspec in self.models:
            for n_layers in self.layer_counts:
                _model_config(self, mspec.kind, n_layers)
        for mu in self.mu_grid:
            _train_config(self, mu, self.base_seed)

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        """Read a spec file.  Malformed JSON, a spec or model entry that is
        not an object, an unknown or missing key (named in the message), a
        value of the wrong type and a value the configs reject raise
        InputError."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as err:
            raise InputError(f"cannot read spec {path}: {err}") from None
        try:
            return cls(**raw)
        except TypeError as err:
            raise InputError(f"spec {path}: {err}") from None


@dataclass
class CellResult:
    dataset: str
    model: str
    regularized: bool
    ell: int
    n_layers: int
    mu: float
    n_splits: int
    mean_acc: float
    std_acc: float
    status: str = "ok"

    @property
    def label(self) -> str:
        return _model_label(self.model, self.regularized)

    def sort_key(self):
        return (self.dataset, self.model, self.regularized, self.ell, self.n_layers)


class ResultsTable:
    """Aggregate accuracy rows keyed by (dataset, model, regularized, ell, layers)."""

    CSV_HEADER = "dataset,model,regularized,ell,n_layers,mu,n_splits,mean_acc,std_acc,status"

    def __init__(self, rows: list[CellResult]):
        self.rows = sorted(rows, key=CellResult.sort_key)

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.dataset},{r.model},{str(r.regularized).lower()},{r.ell},"
                f"{r.n_layers},{r.mu:g},{r.n_splits},{r.mean_acc:.4f},{r.std_acc:.4f},"
                f"{r.status}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = f"{'model':<10} {'ell':>4} {'layers':>6} {'mu':>5} {'accuracy':>16}  status"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            acc = f"{r.mean_acc:.1f} +- {r.std_acc:.1f}"
            lines.append(f"{r.label:<10} {r.ell:>4} {r.n_layers:>6} {r.mu:>5g} {acc:>16}  {r.status}")
        return "\n".join(lines) + "\n"

    def lookup(self, model: str, regularized: bool, ell: int, n_layers: int) -> CellResult:
        for r in self.rows:
            if (r.model, r.regularized, r.ell, r.n_layers) == (model, regularized, ell, n_layers):
                return r
        raise KeyError((model, regularized, ell, n_layers))


def _spec_hash(spec: ExperimentSpec) -> str:
    """Hash of the spec fields that determine results, stamped on every run
    record: all but where the outputs go and how many processes run."""
    fields = {k: v for k, v in asdict(spec).items()
              if k not in ("output_dir", "workers", "save_checkpoints")}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()[:16]


def _load_context(dataset, normalize_features: bool) -> tuple[LabeledDataset, DataContext]:
    ds = load_dataset(resolve_dataset_dir(dataset))
    if normalize_features:
        ds = row_normalize_features(ds)
    return ds, DataContext.from_dataset(ds)


def _model_config(spec: ExperimentSpec, kind: str, n_layers: int) -> ModelConfig:
    return ModelConfig(kind=kind, n_layers=n_layers, hidden_dim=spec.hidden_dim,
                       dropout=spec.dropout, appnp_alpha=spec.appnp_alpha,
                       appnp_k=spec.appnp_k)


def _train_config(spec: ExperimentSpec, mu: float, seed: int) -> TrainConfig:
    loss = LossConfig(mu=mu, variant=spec.loss_variant)
    return TrainConfig(lr=spec.lr, weight_decay=spec.weight_decay, max_epochs=spec.max_epochs,
                       patience=spec.patience, loss=loss, seed=seed)


def _run_task(spec: ExperimentSpec, ctx: DataContext, task: tuple) -> tuple[dict, list | None]:
    """Train one (model, ell, n_layers, mu, split) task: its run record, and
    its parameter arrays for the ``base_seed`` split if ``save_checkpoints``.

    A run that raises gives a record whose status names the error.
    """
    mspec, ell, n_layers, mu, split = task
    record = {"model": mspec.label, "kind": mspec.kind, "regularized": mspec.regularized,
              "dataset": Path(spec.dataset).name, "seed": split.seed, "ell": ell,
              "n_layers": n_layers, "mu": mu}
    try:
        model = Model.init(_model_config(spec, mspec.kind, n_layers), ctx.x.shape[1],
                           ctx.n_classes, seed=split.seed)
        report = train(model, ctx, split, _train_config(spec, mu, split.seed))
    except Exception as err:  # cell isolation: the error is recorded, not raised
        record["status"] = f"failed: {type(err).__name__}: {err}"
        return record, None
    record.update(asdict(report), status="ok",
                  val_acc_best=report.history[report.best_epoch - 1][2])
    keep = spec.save_checkpoints and split.seed == spec.base_seed
    return record, model.state_values() if keep else None


_POOL_STATE: dict = {}


def _pool_init(spec: ExperimentSpec, ctx: DataContext):
    _POOL_STATE["run"] = partial(_run_task, spec, ctx)


def _pool_run(task: tuple) -> tuple[dict, list | None]:
    return _POOL_STATE["run"](task)


def _execute(spec: ExperimentSpec, ctx: DataContext, tasks: list[tuple]):
    """Yield ``_run_task``'s result for each task, in task order, on at most
    ``spec.workers`` processes and never more than there are tasks."""
    workers = min(spec.workers, len(tasks))
    if workers <= 1:
        yield from map(partial(_run_task, spec, ctx), tasks)
        return
    with ProcessPoolExecutor(workers, initializer=_pool_init, initargs=(spec, ctx)) as pool:
        yield from pool.map(_pool_run, tasks)


def _select_mu(by_mu: dict[float, list[dict]]) -> float:
    """Grid selection: highest mean validation accuracy, ties to lower mu."""
    best_mu, best_score = None, -math.inf
    for mu in sorted(by_mu):
        score = float(np.mean([r["val_acc_best"] for r in by_mu[mu]]))
        if score > best_score + 1e-12:
            best_mu, best_score = mu, score
    return best_mu


def _read_runs(runs_dir: Path, spec_hash: str | None = None) -> dict[Path, dict]:
    """The run records in ``runs_dir`` by path; InputError naming a record that
    is not valid JSON, or unless all carry one spec hash (``spec_hash``, when given)."""
    records = {}
    for path in sorted(runs_dir.glob("*.json")):
        try:
            records[path] = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as err:
            raise InputError(f"run record {path} is not valid JSON: {err}") from None
    hashes = {r.get("spec_hash") for r in records.values()}
    if spec_hash is not None:
        hashes.add(spec_hash)
    if len(hashes) > 1:
        raise InputError(f"{runs_dir} holds run records of more than one spec (spec_hash "
                         f"{', '.join(sorted(map(str, hashes)))}); use one output_dir per spec")
    return records


def aggregate_runs(runs_dir) -> ResultsTable:
    """Regenerate the results table from per-run JSON records alone.

    Runs group into cells; a cell reports its selected mu, or, when any
    of its runs failed, the status of its first failure in (mu, seed) order.
    """
    cells: dict[tuple, list[dict]] = {}
    records = _read_runs(Path(runs_dir)).values()
    for r in sorted(records, key=lambda r: (r["mu"], r["seed"])):
        key = (r["dataset"], r["kind"], r["regularized"], r["ell"], r["n_layers"])
        cells.setdefault(key, []).append(r)
    rows = []
    for key, runs in cells.items():
        failed = [r["status"] for r in runs if r.get("status", "ok") != "ok"]
        if failed:
            rows.append(CellResult(*key, 0.0, 0, math.nan, math.nan, status=failed[0]))
            continue
        by_mu: dict[float, list[dict]] = {}
        for r in runs:
            by_mu.setdefault(float(r["mu"]), []).append(r)
        mu = _select_mu(by_mu)
        accs = np.array([r["test_acc"] for r in by_mu[mu]]) * 100.0
        std = float(accs.std(ddof=1)) if accs.size > 1 else 0.0
        rows.append(CellResult(*key, mu, accs.size, float(accs.mean()), std))
    return ResultsTable(rows)


def run_experiment(spec: ExperimentSpec, log=print) -> ResultsTable:
    """Run every (model, ell, n_layers) cell over n_splits splits.

    Regularized cells run the whole mu grid and report the grid value
    with the best mean validation accuracy.  Per-run JSON records,
    stamped with the spec hash, go under ``<output_dir>/runs`` and the
    table is :func:`aggregate_runs` of them.  A run that raises marks its
    cell failed and the remaining cells proceed.  An ``output_dir``
    belongs to one spec: records of another raise InputError before
    anything trains, and a rerun replaces its own.
    """
    out_dir = Path(spec.output_dir)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    spec_hash = _spec_hash(spec)
    for path in _read_runs(runs_dir, spec_hash):
        path.unlink()

    ds, ctx = _load_context(spec.dataset, spec.normalize_features)
    splits = {ell: make_splits(ds, ell, spec.n_splits, spec.base_seed,
                               val_size=spec.val_size, test_size=spec.test_size)
              for ell in spec.ell}
    tasks = [(mspec, ell, n_layers, mu, split)
             for mspec in spec.models for ell in spec.ell for n_layers in spec.layer_counts
             for mu in (spec.mu_grid if mspec.regularized else [0.0]) for split in splits[ell]]

    params_by_run = {}
    for record, params in _execute(spec, ctx, tasks):
        record["spec_hash"] = spec_hash
        run = (record["model"], record["ell"], record["n_layers"], record["mu"])
        stem = "{}_ell{}_L{}_mu{:g}".format(*run) + f"_seed{record['seed']}"
        tmp = runs_dir / f"{stem}.json.tmp"  # written whole, then renamed into place
        tmp.write_text(json.dumps(record), encoding="utf-8")
        os.replace(tmp, runs_dir / f"{stem}.json")
        status = record["status"]
        log(f"{stem}: " + (f"test {record['test_acc'] * 100.0:.1f}" if status == "ok" else status))
        if params is not None:
            params_by_run[run] = params

    table = aggregate_runs(runs_dir)
    for row in table.rows:
        run = (row.label, row.ell, row.n_layers, row.mu)
        if row.status == "ok" and run in params_by_run:
            model = Model.init(_model_config(spec, row.model, row.n_layers),
                               ctx.x.shape[1], ctx.n_classes, seed=0)
            model.load_state_values(params_by_run[run])
            save_checkpoint(model, out_dir / f"{row.label}_ell{row.ell}_L{row.n_layers}.npz",
                            preprocessing={"normalize_features": spec.normalize_features})
    (out_dir / "results.csv").write_text(table.to_csv(), encoding="ascii")
    (out_dir / "results.txt").write_text(table.to_text(), encoding="ascii")
    return table


def cmd_propagate(dataset, ell: int, gamma: float, seed: int = 0,
                  val_size: int = VAL_SIZE, test_size: int = TEST_SIZE, log=print) -> float:
    """Label propagation on one split; returns and prints the accuracy.

    Accuracy is measured on the split's test set when it is non-empty,
    otherwise on all unlabeled nodes.
    """
    ds, ctx = _load_context(dataset, normalize_features=False)
    split = make_splits(ds, ell, 1, seed, val_size=val_size, test_size=test_size)[0]
    y = label_matrix(ds.labels, split.train, ds.n_classes)
    pred = propagate_labels(ctx.a_hat, y, DiffusionConfig(gamma=gamma))
    if split.test.size:
        eval_idx, which = split.test, "test"
    else:
        eval_idx = np.setdiff1d(np.arange(ds.n_nodes), split.train)
        which = "unlabeled"
    acc = float(np.mean(pred[eval_idx] == ds.labels[eval_idx]))
    log(f"propagate {ds.name} ell={ell} gamma={gamma:g} seed={seed}: "
        f"{which} accuracy {acc * 100.0:.2f}% (n={eval_idx.size})")
    return acc


def cmd_export_embeddings(checkpoint, dataset, out_path, log=print) -> None:
    """Write the penultimate-layer activations of a trained model as CSV."""
    ckpt = Path(checkpoint)
    if not ckpt.is_file():
        raise InputError(f"checkpoint {checkpoint!r} not found")
    model = load_checkpoint(ckpt)
    # Checkpoints that predate recorded preprocessing were trained on normalized features.
    _, ctx = _load_context(dataset, load_preprocessing(ckpt).get("normalize_features", True))
    emb = hidden_embedding(model, ctx.x, ctx.a_hat).values
    header = "node," + ",".join(f"dim{i}" for i in range(emb.shape[1]))
    with open(out_path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for i, row in enumerate(emb):
            fh.write(str(i) + "," + ",".join(repr(float(v)) for v in row) + "\n")
    log(f"wrote {emb.shape[0]} x {emb.shape[1]} embedding to {out_path}")


def cmd_validate_dataset(directory, log=print) -> bool:
    """Load the dataset (the loader makes the graph symmetric and binary and rejects
    non-finite features), check known benchmarks' counts; print counts and OK/violations."""
    try:
        ds = load_dataset(resolve_dataset_dir(directory))
    except (GsslError, OSError) as err:
        log(f"INVALID: {err}")
        return False
    problems = []
    name = ds.name.lower()
    counts = (ds.n_nodes, ds.graph.n_undirected_edges, ds.n_classes, ds.n_features)
    if name in KNOWN_DATASETS and counts != KNOWN_DATASETS[name]:
        problems.append(f"counts {counts} != expected {KNOWN_DATASETS[name]} for {name}")
    line = (f"{counts[0]} nodes, {counts[1]} edges, {counts[2]} classes, "
            f"{counts[3]} features")
    if problems:
        log(f"{line}: INVALID")
        for p in problems:
            log(f"  - {p}")
        return False
    log(f"{line}: OK")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gssl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec")
    p_run.add_argument("--spec", required=True, help="experiment spec JSON file")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--workers", type=int, default=None)

    p_prop = sub.add_parser("propagate", help="label propagation baseline")
    p_prop.add_argument("--dataset", required=True)
    p_prop.add_argument("--ell", type=int, default=20)
    p_prop.add_argument("--gamma", type=float, default=0.2)
    p_prop.add_argument("--seed", type=int, default=0)
    p_prop.add_argument("--val-size", type=int, default=VAL_SIZE)
    p_prop.add_argument("--test-size", type=int, default=TEST_SIZE)

    p_exp = sub.add_parser("export-embeddings", help="export hidden activations")
    p_exp.add_argument("--checkpoint", required=True)
    p_exp.add_argument("--dataset", required=True)
    p_exp.add_argument("--out", required=True)

    p_val = sub.add_parser("validate-dataset", help="check a dataset directory")
    p_val.add_argument("directory")

    p_mk = sub.add_parser("make-splits", help="write split JSON for a dataset")
    p_mk.add_argument("--dataset", required=True)
    p_mk.add_argument("--ell", type=int, required=True)
    p_mk.add_argument("--n-splits", type=int, default=10)
    p_mk.add_argument("--seed", type=int, default=0)
    p_mk.add_argument("--val-size", type=int, default=VAL_SIZE)
    p_mk.add_argument("--test-size", type=int, default=TEST_SIZE)
    p_mk.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            spec = ExperimentSpec.from_json(args.spec)
            overrides = {"output_dir": args.output_dir, "workers": args.workers}
            spec = replace(spec, **{k: v for k, v in overrides.items() if v is not None})
            table = run_experiment(spec)
            print(table.to_text(), end="")
            return 0
        if args.command == "propagate":
            cmd_propagate(args.dataset, args.ell, args.gamma, args.seed,
                          val_size=args.val_size, test_size=args.test_size)
            return 0
        if args.command == "export-embeddings":
            cmd_export_embeddings(args.checkpoint, args.dataset, args.out)
            return 0
        if args.command == "validate-dataset":
            return 0 if cmd_validate_dataset(args.directory) else 1
        if args.command == "make-splits":
            ds = load_dataset(resolve_dataset_dir(args.dataset))
            splits = make_splits(ds, args.ell, args.n_splits, args.seed,
                                 val_size=args.val_size, test_size=args.test_size)
            save_splits(splits, args.out)
            print(f"wrote {len(splits)} splits to {args.out}")
            return 0
    except GsslError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
