"""Workload table and metric names.

Imports nothing heavy, so ``run.py`` can read a workload's BLAS thread
count and pin it before numpy is first imported.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    profile: str
    workers: int          # processes doing the work
    blas_threads: int     # per process; workers * blas_threads <= nproc
    spec: dict            # ExperimentSpec fields of the table
    gammas: tuple[float, ...]  # diffusion grid, solved over the table's splits


# patience == max_epochs: the amount of work never depends on the numerics.
WORKLOADS = {w.name: w for w in (
    Workload(
        "cora-table",
        "inline harness on a Cora-shaped graph: the wide sparse-binary input "
        "makes dense dropout and matmul dominate; covers ce_smooth and diffusion",
        "cora", workers=1, blas_threads=2,
        spec={"models": [{"kind": "mlp"}, {"kind": "gcn"},
                         {"kind": "gcn", "regularized": True}, {"kind": "appnp"}],
              "mu_grid": [0.1, 0.5], "ell": [20], "n_splits": 2,
              "layer_counts": [2], "max_epochs": 10, "patience": 10},
        gammas=(0.2, 0.5)),
    Workload(
        "pubmed-graph",
        "process pool on a Pubmed-shaped graph: 108k stored entries make "
        "per-edge GAT attention and APPNP spmm dominate; workers reload data; "
        "covers diffusion at this size",
        "pubmed", workers=2, blas_threads=1,
        spec={"models": [{"kind": "gat"}, {"kind": "appnp"},
                         {"kind": "appnp", "regularized": True}],
              "appnp_k": 10, "mu_grid": [0.1], "ell": [20], "n_splits": 2,
              "layer_counts": [2], "max_epochs": 5, "patience": 5},
        gammas=(0.2, 0.5)),
)}

KINDS = ("mlp", "gcn", "gat", "appnp")
OPS = ("matmul", "add", "sub", "scale", "elementwise_mul", "row_softmax",
       "log_clamped", "relu", "leaky_relu", "concat_cols", "sum", "dropout",
       "spmm", "gather_rows", "edge_softmax", "edge_aggregate")

# (name, unit).  "op" is a training epoch.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("test_acc", "frac"),
)

PER_LAYER = (
    *((f"autodiff.{op}.{m}", u) for op in OPS
      for m, u in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("calls", "count"), ("out_mb", "MB"))),
    *((f"{name}.{kind}", "ms") for name in (
        "models.forward_train_ms", "models.forward_eval_ms", "losses.train_ms",
        "losses.eval_ms", "autodiff.backward_ms", "trainer.adam_ms", "trainer.self_ms")
      for kind in KINDS),
    *((f"trainer.epoch_ms.{kind}.{q}", "ms") for kind in KINDS for q in ("p50", "tail")),
    ("data.load_s", "s"), ("data.normalize_s", "s"), ("data.splits_s", "s"),
    ("data.feature_mb", "MB"), ("graph.context_s", "s"), ("graph.a_hat_nnz", "count"),
    ("cli.runs", "count"), ("cli.overhead_s", "s"), ("cli.worker_setup_s", "s"),
    ("diffusion.iters.p50", "count"), ("diffusion.iters.max", "count"),
    ("diffusion.iter_ms", "ms"), ("diffusion.direct_s", "s"), ("diffusion.direct_mb", "MB"),
    ("diffusion.residual.max", "1"),
    ("trace.overhead_s", "s"),
)
