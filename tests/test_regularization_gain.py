"""End-to-end check that the smoothness regularizer helps where it should.

On a planted-partition graph whose features are weakly informative, the
grid-selected regularized models must beat (or at least match) their
vanilla counterparts through the exact same harness path the benchmark
gates use: grid over mu, selection by mean validation accuracy, test
accuracy reported.
"""

import numpy as np

from gssl.cli import ExperimentSpec, ModelSpec, run_experiment
from gssl.data import make_splits
from gssl.diffusion import DiffusionConfig, label_matrix, propagate_labels
from gssl.trainer import DataContext

from conftest import normalized, planted_partition, save_dataset

MU_GRID = [0.02, 0.05, 0.1]


def test_grid_selected_regularization_gains(tmp_path):
    ds = planted_partition()
    data_dir = tmp_path / "planted"
    save_dataset(ds, data_dir)
    spec = ExperimentSpec(
        dataset=str(data_dir),
        models=[ModelSpec("mlp", False), ModelSpec("mlp", True),
                ModelSpec("gcn", False), ModelSpec("gcn", True)],
        ell=[5], n_splits=3, layer_counts=[2], mu_grid=MU_GRID,
        base_seed=0, output_dir=str(tmp_path / "out"), hidden_dim=16,
        max_epochs=300, patience=30, val_size=30, test_size=60,
        normalize_features=False,
    )
    table = run_experiment(spec, log=lambda *a, **k: None)
    mlp = table.lookup("mlp", False, 5, 2)
    rmlp = table.lookup("mlp", True, 5, 2)
    gcn = table.lookup("gcn", False, 5, 2)
    rgcn = table.lookup("gcn", True, 5, 2)
    for cell in (mlp, rmlp, gcn, rgcn):
        assert cell.status == "ok"
    # the structure signal lifts the feature-only model substantially
    assert rmlp.mean_acc - mlp.mean_acc >= 4.0
    assert rmlp.mu in MU_GRID
    # GCN already consumes the structure; require non-degradation
    assert rgcn.mean_acc >= gcn.mean_acc - 0.5
    assert gcn.mean_acc > mlp.mean_acc + 10.0


def test_validation_selection_rejects_collapsing_mu(tmp_path):
    # mu large enough to collapse predictions must lose the grid selection
    ds = planted_partition(seed=1)
    data_dir = tmp_path / "planted"
    save_dataset(ds, data_dir)
    spec = ExperimentSpec(
        dataset=str(data_dir),
        models=[ModelSpec("mlp", True)],
        ell=[5], n_splits=2, layer_counts=[2], mu_grid=[0.05, 5.0],
        base_seed=0, output_dir=str(tmp_path / "out"), hidden_dim=16,
        max_epochs=200, patience=25, val_size=30, test_size=60,
        normalize_features=False,
    )
    table = run_experiment(spec, log=lambda *a, **k: None)
    assert table.rows[0].mu == 0.05


def test_propagation_competitive_on_structured_graph():
    ds = planted_partition(seed=2)
    ctx = DataContext.from_dataset(ds)
    split = make_splits(ds, 5, 1, 0, val_size=30, test_size=60)[0]
    y = label_matrix(ds.labels, split.train, ds.n_classes)
    pred = propagate_labels(ctx.a_hat, y, DiffusionConfig(gamma=0.1))
    acc = float(np.mean(pred[split.test] == ds.labels[split.test]))
    assert acc >= 0.8  # structure alone classifies most nodes
