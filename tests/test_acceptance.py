"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 5 and 6 train on the real Cora benchmark and therefore need the
dataset directory provisioned (``$GSSL_DATA_DIR/cora`` or ``<repo>/data/cora``,
see README: Datasets).  When the data is absent they fail with an explicit
diagnostic instead of silently passing.
"""

import functools
import time

import numpy as np
import pytest

import gssl.autodiff as ad
from gssl.autodiff import Tensor
from gssl.cli import ExperimentSpec, ModelSpec, run_experiment
from gssl.diffusion import (DiffusionConfig, diffuse_direct, diffuse_iterative,
                            gamma_from_mu, label_matrix, propagate_labels)
from gssl.graph import add_self_loops, from_edge_list, sym_normalize
from gssl.losses import LossConfig, ce_fit, ce_smooth, combined_loss
from gssl.models import Model, ModelConfig, gat_attention, hidden_embedding

from conftest import (barbell_graph, dataset_present, dataset_root, dense, finite_difference_check,
                      forbid_densifying, minimize_objective, normalized, pubmed_shaped_graph,
                      random_connected_graph, random_graph, regularization_objective,
                      save_dataset, two_blob_dataset)

FD_TOL = 1e-4


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                msg = fn(*args, **kwargs) or ""
            except BaseException as err:
                print(f"\n[FAIL] criterion {num} ({title}): {err}")
                raise
            print(f"\n[PASS] criterion {num} ({title}){': ' + msg if msg else ''}")
        return wrapper
    return deco


def require_cora_or_fail():
    if not dataset_present("cora"):
        pytest.fail(
            "Cora dataset not provisioned: expected "
            f"{dataset_root() / 'cora'}/{{graph.edges,features.csv,labels.txt}}. "
            "This environment has no route to the citation benchmarks (no dataset "
            "files on disk, no network egress, package mirrors resolve nothing); "
            "provision the files per README 'Datasets' and rerun. The criterion "
            "only runs against the real Cora.",
            pytrace=False,
        )
    return dataset_root() / "cora"


@criterion(1, "solver equivalence")
def test_criterion_1_solver_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(20, 201))
        a_hat = normalized(random_graph(n, 3.0 / n, seed=1000 + i))
        labels = rng.integers(0, 4, size=n)
        y = label_matrix(labels, rng.choice(n, size=max(4, n // 10), replace=False))
        for gamma in (0.05, 0.1, 0.3, 0.5, 0.9):
            direct = diffuse_direct(a_hat, y, gamma)
            res = diffuse_iterative(a_hat, y, DiffusionConfig(gamma=gamma, tol=1e-11))
            worst = max(worst, float(np.abs(direct - res.z).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-7, f"max solver disagreement {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s (limit 10s)"
    return f"max abs disagreement {worst:.2e} over 20 graphs x 5 gammas in {elapsed:.1f}s"


@criterion(1, "solver equivalence at Pubmed size")
def test_criterion_1_at_pubmed_size(monkeypatch):
    # Pubmed's counts: 19,717 nodes, about 44k edges, 3 classes, 20 labels each
    forbid_densifying(monkeypatch, "a diffusion solver")
    a_hat = normalized(pubmed_shaped_graph(seed=7))
    labels = np.random.default_rng(7).permutation(np.arange(a_hat.n_nodes) % 3)
    y = label_matrix(labels, np.concatenate([np.flatnonzero(labels == c)[:20] for c in range(3)]))
    tol, report = 1e-10, []
    for gamma in (0.2, 0.5, 0.9):
        direct = diffuse_direct(a_hat, y, gamma)
        res = diffuse_iterative(a_hat, y, DiffusionConfig(gamma=gamma, tol=tol))
        # the iteration stops within tol (1 - gamma) / gamma of its fixed point
        err, bound = float(np.abs(direct - res.z).max()), tol * (1 - gamma) / gamma
        assert err <= bound, f"gamma {gamma}: max disagreement {err:.2e} above {bound:.2e}"
        report.append(f"gamma {gamma}: {err:.1e} <= {bound:.1e}")
    return "; ".join(report)


@criterion(2, "loss minimum equals diffusion solution")
def test_criterion_2_loss_diffusion_consistency():
    start = time.perf_counter()
    worst = 0.0
    for seed, mu in [(0, 0.5), (1, 2.0), (2, 9.0), (3, 1.0), (4, 4.0)]:
        n = 12 + seed
        a_hat = normalized(random_connected_graph(n, seed=seed))
        labels = np.arange(n) % 3
        y = label_matrix(labels, [0, n // 2, n - 1])
        by_gd = minimize_objective(a_hat, y, mu, max_steps=6000, tol=1e-12)
        by_kernel = diffuse_direct(a_hat, y, gamma_from_mu(mu))
        worst = max(worst, float(np.abs(by_gd - by_kernel).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4, f"max deviation {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s (limit 30s)"
    return f"gradient descent matches the kernel solve to {worst:.2e} in {elapsed:.1f}s"


@criterion(3, "gradient suite")
def test_criterion_3_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    n, d, c = 7, 4, 3
    a_hat = normalized(random_graph(n, 0.4, seed=70))
    y = np.eye(c)[rng.integers(0, c, size=n)]
    labeled = [0, 3, 5]
    y_labeled = label_matrix(y.argmax(axis=1), labeled, c)
    worst = {}

    def fd(name, fn, x):
        err = finite_difference_check(fn, x)
        worst[name] = err
        assert err < FD_TOL, f"{name}: {err:.2e}"

    # losses: supervised CE, combined CE (phi frozen), combined L2,
    # smoothness-only CE, and the normalized quadratic objective
    fd("ce_fit", lambda x: ce_fit(ad.row_softmax(x), y_labeled),
       Tensor(rng.normal(size=(n, c)), requires_grad=True))
    fd("combined_ce",
       lambda x: combined_loss(ad.row_softmax(x), y_labeled, a_hat,
                               LossConfig(mu=0.7, variant="cross_entropy")),
       Tensor(rng.normal(size=(n, c)), requires_grad=True))
    fd("combined_l2",
       lambda x: combined_loss(x, y_labeled, a_hat, LossConfig(mu=0.9, variant="l2")),
       Tensor(rng.normal(size=(n, c)), requires_grad=True))
    fd("ce_smooth", lambda x: ce_smooth(ad.row_softmax(x), a_hat),
       Tensor(rng.normal(size=(n, c)), requires_grad=True))
    fd("normalized_l2_objective",
       lambda x: regularization_objective(x, y, a_hat, 1.5),
       Tensor(rng.normal(size=(n, c)), requires_grad=True))

    # layers: every model kind, every parameter, plus the input features
    probe = Tensor(rng.normal(size=(n, c)))
    for kind in ("mlp", "gcn", "gat", "appnp"):
        cfg = ModelConfig(kind=kind, n_layers=2, hidden_dim=5)
        model = Model.init(cfg, d, c, seed=71)
        x = Tensor(rng.normal(size=(n, d)), requires_grad=True)

        def out_loss(_):
            out = model.forward(x, a_hat)
            return ad.sum(ad.elementwise_mul(probe, out))

        for idx, p in enumerate(model.parameters()):
            fd(f"{kind}_param{idx}", out_loss, p)
        fd(f"{kind}_input", out_loss, x)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s (limit 60s)"
    return (f"{len(worst)} checks, worst rel err {max(worst.values()):.2e} "
            f"in {elapsed:.1f}s")


@criterion(4, "normalization invariants")
def test_criterion_4_normalization_invariants():
    rng = np.random.default_rng(8)
    # GAT attention rows sum to 1
    g_sl = add_self_loops(random_graph(30, 0.2, seed=80))
    a_hat = sym_normalize(g_sl)
    cfg = ModelConfig(kind="gat", n_layers=2, hidden_dim=6)
    model = Model.init(cfg, 5, 3, seed=81)
    x = Tensor(rng.normal(size=(30, 5)))
    layer_inputs = [x, hidden_embedding(model, x, a_hat)]
    attentions = [gat_attention(ad.add(ad.matmul(h, p.weight), p.bias), p.attn, a_hat, cfg)
                  for h, p in zip(layer_inputs, model.params)]
    att_err = max(
        float(np.abs(np.add.reduceat(a.values[:, 0], g_sl.indptr[:-1]) - 1.0).max())
        for a in attentions)
    assert att_err < 1e-10, f"attention row sums off by {att_err:.2e}"
    # softmax rows sum to 1
    s = ad.row_softmax(Tensor(rng.normal(size=(50, 6)) * 20.0)).values
    sm_err = float(np.abs(s.sum(axis=1) - 1.0).max())
    assert sm_err < 1e-10, f"softmax row sums off by {sm_err:.2e}"
    # spectral radius of A_hat <= 1 on n <= 100
    rho_max = 0.0
    for seed in range(6):
        n = int(rng.integers(10, 101))
        a_hat = normalized(random_graph(n, 0.1, seed=800 + seed))
        rho_max = max(rho_max, float(np.abs(np.linalg.eigvalsh(dense(a_hat))).max()))
    assert rho_max <= 1.0 + 1e-10, f"spectral radius {rho_max}"
    return (f"attention {att_err:.1e}, softmax {sm_err:.1e}, "
            f"max spectral radius {rho_max:.12f}")


# --------------------------------------------------------------- Cora gates

MU_GRID = [0.1, 0.5, 1.0, 2.0]


def cora_spec(out_dir, models, layer_counts):
    import os

    return ExperimentSpec(
        dataset=str(require_cora_or_fail()),
        models=models,
        ell=[20],
        n_splits=10,
        layer_counts=layer_counts,
        mu_grid=MU_GRID,
        base_seed=0,
        output_dir=str(out_dir),
        workers=min(4, os.cpu_count() or 1),
    )


@criterion(5, "MLP depth collapse vs R-MLP stability on Cora")
def test_criterion_5_mlp_table(tmp_path):
    spec = cora_spec(tmp_path / "mlp", [ModelSpec("mlp", False), ModelSpec("mlp", True)],
                     layer_counts=[2, 4])
    table = run_experiment(spec)
    mlp2 = table.lookup("mlp", False, 20, 2)
    rmlp2 = table.lookup("mlp", True, 20, 2)
    mlp4 = table.lookup("mlp", False, 20, 4)
    rmlp4 = table.lookup("mlp", True, 20, 4)
    for cell in (mlp2, rmlp2, mlp4, rmlp4):
        assert cell.status == "ok", cell.status
    assert abs(mlp2.mean_acc - 57.7) <= 4.0, f"2-layer MLP at {mlp2.mean_acc:.1f}"
    assert abs(rmlp2.mean_acc - 76.0) <= 4.0, f"2-layer R-MLP at {rmlp2.mean_acc:.1f}"
    assert rmlp4.mean_acc - mlp4.mean_acc >= 25.0, (
        f"4-layer gap {rmlp4.mean_acc - mlp4.mean_acc:.1f}")
    return (f"MLP2 {mlp2.mean_acc:.1f}, R-MLP2 {rmlp2.mean_acc:.1f} (mu={rmlp2.mu:g}), "
            f"MLP4 {mlp4.mean_acc:.1f}, R-MLP4 {rmlp4.mean_acc:.1f}")


@criterion(6, "regularization gain on GCN/APPNP on Cora")
def test_criterion_6_gcn_appnp_table(tmp_path):
    spec = cora_spec(
        tmp_path / "gcn",
        [ModelSpec("gcn", False), ModelSpec("gcn", True),
         ModelSpec("appnp", False), ModelSpec("appnp", True)],
        layer_counts=[2],
    )
    table = run_experiment(spec)
    gcn = table.lookup("gcn", False, 20, 2)
    rgcn = table.lookup("gcn", True, 20, 2)
    appnp = table.lookup("appnp", False, 20, 2)
    rappnp = table.lookup("appnp", True, 20, 2)
    for cell in (gcn, rgcn, appnp, rappnp):
        assert cell.status == "ok", cell.status
    assert rgcn.mean_acc - gcn.mean_acc >= 1.0, (
        f"R-GCN gain {rgcn.mean_acc - gcn.mean_acc:.2f}")
    assert rappnp.mean_acc - appnp.mean_acc >= 0.0, (
        f"R-APPNP gain {rappnp.mean_acc - appnp.mean_acc:.2f}")
    assert rappnp.mean_acc >= 81.0, f"R-APPNP at {rappnp.mean_acc:.1f}"
    return (f"GCN {gcn.mean_acc:.1f} -> R-GCN {rgcn.mean_acc:.1f}; "
            f"APPNP {appnp.mean_acc:.1f} -> R-APPNP {rappnp.mean_acc:.1f}")


@criterion(7, "label propagation recovers the barbell cliques")
def test_criterion_7_barbell_propagation():
    g = barbell_graph(5)
    labels = np.array([0] * 5 + [1] * 5)
    y = label_matrix(labels, [0, 9])
    pred = propagate_labels(normalized(g), y, DiffusionConfig(gamma=0.2))
    acc = float(np.mean(pred == labels))
    assert acc == 1.0, f"accuracy {acc:.2f}"
    return "100% at gamma=0.2, one label per clique"


@criterion(8, "seeded reruns produce byte-identical tables")
def test_criterion_8_determinism(tmp_path):
    data_dir = tmp_path / "two_blobs"
    save_dataset(two_blob_dataset(n_per=16, seed=42), data_dir)
    csvs = []
    for run in ("a", "b"):
        spec = ExperimentSpec(
            dataset=str(data_dir),
            models=[ModelSpec("gcn", False), ModelSpec("mlp", True)],
            ell=[3], n_splits=2, layer_counts=[2], mu_grid=[0.5, 1.0],
            base_seed=3, output_dir=str(tmp_path / run), hidden_dim=8,
            max_epochs=8, patience=8, val_size=8, test_size=8,
        )
        run_experiment(spec, log=lambda *a, **k: None)
        csvs.append((tmp_path / run / "results.csv").read_bytes())
    assert csvs[0] == csvs[1], "CSV tables differ between identical runs"
    return f"{len(csvs[0])}-byte tables identical across reruns"
