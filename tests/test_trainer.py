import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import gssl.autodiff as ad
import gssl.models
import gssl.trainer
from gssl.autodiff import Tensor
from gssl.data import LabeledDataset, load_dataset, make_splits, row_normalize_features
from gssl.diffusion import label_matrix
from gssl.errors import InputError
from gssl.graph import from_edge_list, within_hops
from gssl.losses import LossConfig, combined_loss
from gssl.models import Model, ModelConfig
from gssl.trainer import (AdamState, DataContext, TrainConfig, TrainingAbort, accuracy,
                          adam_step, train)

from conftest import (entry_positions, evaluate, explicit_zero_dropout, ring_dataset,
                      textbook_adam_step, two_blob_dataset, whole_graph_train, write_cora_shaped)


def small_split(ds, ell=4, val=10, test=10, seed=0):
    return make_splits(ds, ell, 1, seed, val_size=val, test_size=test)[0]


def make_ctx(seed=0, n_per=16):
    return DataContext.from_dataset(two_blob_dataset(n_per=n_per, seed=seed))


# -------------------------------------------------------------------- adam

def test_adam_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.ones((3, 3)), requires_grad=True)
    p.grad = np.zeros((3, 3))
    cfg = TrainConfig(weight_decay=0.0)
    before = p.values.copy()
    adam_step([p], AdamState([p]), cfg, decay_mask=[True])
    assert np.array_equal(p.values, before)


def test_adam_constant_gradient_step_magnitude_approaches_lr():
    # with constant g, bias-corrected m/v give steps of size ~lr from step 1
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    cfg = TrainConfig(lr=0.05, weight_decay=0.0)
    state = AdamState([p])
    prev = p.values.copy()
    for _ in range(50):
        p.grad = np.full((2, 2), 3.7)
        adam_step([p], state, cfg, decay_mask=[True])
        step = np.abs(p.values - prev).max()
        prev = p.values.copy()
    assert abs(step - cfg.lr) < 0.01 * cfg.lr


def test_adam_weight_decay_only_on_masked_params():
    w = Tensor(np.full((2, 2), 10.0), requires_grad=True)
    b = Tensor(np.full((1, 2), 10.0), requires_grad=True)
    cfg = TrainConfig(lr=0.01, weight_decay=5e-4)
    adam_step([w, b], AdamState([w, b]), cfg, decay_mask=[True, False])
    assert np.all(w.values < 10.0)  # decay pulls weights down
    assert np.array_equal(b.values, np.full((1, 2), 10.0))  # bias untouched


def test_adam_matches_the_textbook_formula_bit_for_bit():
    rng = np.random.default_rng(17)
    shapes, decay_mask = [(6, 4), (1, 4), (8, 1)], [True, False, True]
    ours = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    oracle = [Tensor(p.values.copy(), requires_grad=True) for p in ours]
    cfg = TrainConfig(lr=0.01, weight_decay=5e-4)
    state, oracle_state = AdamState(ours), AdamState(oracle)
    for step in range(60):
        for p, q in zip(ours, oracle):
            g = None if step % 7 == 3 else rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3)
            p.grad = q.grad = g
        adam_step(ours, state, cfg, decay_mask)
        textbook_adam_step(oracle, oracle_state, cfg.lr, cfg.weight_decay, decay_mask)
    for p, q, m, mq, v, vq in zip(ours, oracle, state.m, oracle_state.m, state.v, oracle_state.v):
        assert p.values.tobytes() == q.values.tobytes()
        assert m.tobytes() == mq.tobytes() and v.tobytes() == vq.tobytes()


def test_training_is_bit_deterministic():
    results = []
    for _ in range(2):
        ctx = make_ctx(seed=1)
        split = small_split(two_blob_dataset(n_per=16, seed=1))
        model = Model.init(ModelConfig(kind="mlp", n_layers=2, hidden_dim=8), 4, 2, seed=5)
        cfg = TrainConfig(max_epochs=25, patience=25, seed=5,
                          loss=LossConfig(mu=0.5))
        report = train(model, ctx, split, cfg)
        results.append((report, [p.values.copy() for p in model.parameters()]))
    r1, r2 = results
    assert r1[0] == r2[0]
    for a, b in zip(r1[1], r2[1]):
        assert np.array_equal(a, b)


# ---------------------------------------------------------- early stopping

def train_on_scripted_val_losses(monkeypatch, val_losses, patience):
    """Train an MLP whose validation losses are ``val_losses`` in turn;
    returns the report, the final parameters and each epoch's parameters."""
    script, snapshots = iter(val_losses), []

    def scripted_validate(model, ctx, *args):
        snapshots.append(model.state_values())
        return next(script), 0.5, np.zeros((ctx.labels.shape[0], 2))

    monkeypatch.setattr(gssl.trainer, "_validate", scripted_validate)
    ctx = make_ctx(seed=3)
    split = small_split(two_blob_dataset(n_per=16, seed=3))
    model = Model.init(ModelConfig(kind="mlp", n_layers=2, hidden_dim=8), 4, 2, seed=4)
    cfg = TrainConfig(max_epochs=len(val_losses), patience=patience, seed=4,
                      loss=LossConfig(mu=1.0))
    report = train(model, ctx, split, cfg)
    return report, model.state_values(), snapshots


@pytest.mark.parametrize("val_losses, patience, best_epoch, epochs_run", [
    ([1.0, 2.0, 0.5], 1, 1, 2),             # one non-improving epoch stops patience 1
    ([1.0, 1.0, 0.5], 1, 1, 2),             # an equal loss is not an improvement
    ([5.0, 6.0, 4.0, 4.5, 4.4, 1.0], 2, 3, 5),  # the improvement at 3 resets the window
    ([3.0, 2.0, 1.0], 5, 3, 3),             # max_epochs ends the run
], ids=["patience-1", "tie-is-not-improvement", "window-resets", "max-epochs"])
def test_early_stopping_window_rule(monkeypatch, val_losses, patience, best_epoch, epochs_run):
    report, final, snapshots = train_on_scripted_val_losses(monkeypatch, val_losses, patience)
    assert (report.best_epoch, report.epochs_run) == (best_epoch, epochs_run)
    assert [h[1] for h in report.history] == val_losses[:epochs_run]
    # the best epoch's parameters are restored, and they are not the last epoch's
    for restored, best in zip(final, snapshots[best_epoch - 1], strict=True):
        assert np.array_equal(restored, best)
    if best_epoch < epochs_run:
        assert not all(np.array_equal(a, b) for a, b in zip(final, snapshots[-1]))


@pytest.mark.parametrize("kind", ["mlp", "gat"])
def test_no_autodiff_graph_outlives_its_epoch(monkeypatch, kind):
    # live Tensors at the start of every training forward: an epoch that keeps
    # its training or validation graph alive into the next makes the count grow
    counts, forward = [], DataContext.forward

    def counting_forward(ctx, model, training=False, rng=None, return_hidden=False):
        if training:
            counts.append(sum(isinstance(o, Tensor) for o in gc.get_objects()))
        return forward(ctx, model, training, rng, return_hidden)

    monkeypatch.setattr(DataContext, "forward", counting_forward)
    ds = two_blob_dataset(n_per=16, seed=11)
    model = Model.init(ModelConfig(kind=kind, n_layers=2, hidden_dim=8),
                       ds.n_features, ds.n_classes, seed=12)
    cfg = TrainConfig(max_epochs=5, patience=5, seed=12, loss=LossConfig(mu=0.5))
    train(model, DataContext.from_dataset(ds), small_split(ds), cfg)
    assert len(counts) == 5
    assert max(counts) == counts[0], counts


def test_training_leaves_no_reference_cycle():
    # a cycle (say a parameter and a graph node that point at each other)
    # would keep each step's arrays alive until the cyclic collector runs
    ds = two_blob_dataset(n_per=16, seed=13)
    ctx, split = DataContext.from_dataset(ds), small_split(ds)
    gc.collect()
    gc.disable()
    try:
        for kind in ("mlp", "gcn", "gat", "appnp"):
            model = Model.init(ModelConfig(kind=kind, n_layers=2, hidden_dim=8),
                               ds.n_features, ds.n_classes, seed=14)
            train(model, ctx, split, TrainConfig(max_epochs=3, patience=3, loss=LossConfig(mu=0.5)))
            del model
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


@pytest.mark.parametrize("kind", ["mlp", "gcn", "gat", "appnp"])
def test_step_with_dropped_entries_removed_matches_explicit_zeros(monkeypatch, kind):
    """One training step gives the parameter bits of the sparse input
    dropout that stores the dropped values as zeros."""
    rng = np.random.default_rng(3)
    n = 200
    edges = rng.integers(0, n, size=(3 * n, 2))
    features = sp.random(n, 60, density=0.1, random_state=rng, format="csr")
    ds = LabeledDataset(from_edge_list(edges[edges[:, 0] != edges[:, 1]], n), features,
                        np.arange(n) % 3)
    ctx = DataContext.from_dataset(ds)
    y_train = label_matrix(ctx.labels, small_split(ds, ell=10).train, ctx.n_classes)
    cfg = TrainConfig(loss=LossConfig(mu=0.5))

    def step():
        model = Model.init(ModelConfig(kind=kind, n_layers=2, hidden_dim=16, appnp_k=3),
                           ds.n_features, ds.n_classes, seed=4)
        loss = gssl.trainer._train_step(model, ctx, y_train, cfg, AdamState(model.parameters()),
                                         np.random.default_rng(5))
        return loss, [t.values for t in model.parameters()]

    loss, params = step()
    dropout = gssl.models._dropout
    monkeypatch.setattr(gssl.models, "_dropout", lambda h, rate, rng, field=None: (
        explicit_zero_dropout if sp.issparse(h) else dropout)(h, rate, rng, field))
    oracle_loss, oracle_params = step()
    assert loss == oracle_loss
    assert [p.tobytes() for p in params] == [p.tobytes() for p in oracle_params]


def test_gat_step_keeps_only_what_its_vjps_read():
    rng = np.random.default_rng(15)
    n, h = 8000, 64
    edges = rng.integers(0, n, size=(n, 2))
    features = sp.random(n, 200, density=0.02, random_state=rng, format="csr")
    ds = LabeledDataset(from_edge_list(edges[edges[:, 0] != edges[:, 1]], n), features,
                        np.arange(n) % 3)
    ctx = DataContext.from_dataset(ds)
    model = Model.init(ModelConfig(kind="gat", n_layers=2, hidden_dim=h),
                       ds.n_features, ds.n_classes, seed=16)
    cfg, state = TrainConfig(loss=LossConfig(mu=0.0)), AdamState(model.parameters())
    y_train = label_matrix(ctx.labels, make_splits(ds, 20, 1, 0)[0].train, ctx.n_classes)
    gssl.trainer._train_step(model, ctx, y_train, cfg, state, rng)  # caches the entry rows
    tracemalloc.start()
    try:
        gssl.trainer._train_step(model, ctx, y_train, cfg, state, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The VJPs keep two n x h activations (W h + b, read by the attention
    # and the aggregate, and the ReLU output, read by the second layer's
    # matmul) and the ReLU mask; the backward pass adds up to three n x h
    # gradients at once and the aggregate's two blocked gathers; per stored
    # entry of A_hat and of the dropped-out features, a few words.  An engine
    # that keeps every intermediate alive until the step ends peaks above 8 n x h.
    bound = (5 * n * h * 8 + 2 * ad._ENTRY_BLOCK * h * 8
             + 64 * ctx.a_hat.nnz + 32 * ctx.x.nnz)
    assert peak < bound, f"one GAT step peaked at {peak} bytes, bound {bound}"


@pytest.fixture(scope="module")
def cora_shaped(tmp_path_factory):
    """Load, normalize and wrap Cora-shaped data; the peak traced memory of it."""
    directory = write_cora_shaped(tmp_path_factory.mktemp("cora_shaped"))
    tracemalloc.start()
    try:
        ds = row_normalize_features(load_dataset(directory))
        ctx = DataContext.from_dataset(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return ds, ctx, peak


def test_cora_shaped_features_load_without_a_dense_copy(cora_shaped):
    ds, ctx, peak = cora_shaped
    dense_bytes = ds.n_nodes * ds.n_features * 8
    assert ctx.x is ds.features
    assert ds.features.nbytes < dense_bytes / 20  # 1.3% of the entries are stored
    assert peak < dense_bytes / 4, f"parse, normalize and context peaked at {peak} bytes"


@pytest.mark.parametrize("kind", ["mlp", "gcn", "gat", "appnp"])
def test_cora_shaped_epoch_has_no_n_by_d_operand(monkeypatch, cora_shaped, kind):
    ds, ctx, _ = cora_shaped
    sizes = []
    for op in ("matmul", "dropout"):
        def spy(*args, _op=getattr(ad, op), **kwargs):
            sizes.extend(a.values.size for a in args if isinstance(a, Tensor))
            return _op(*args, **kwargs)
        monkeypatch.setattr(ad, op, spy)
    model = Model.init(ModelConfig(kind=kind, n_layers=2, hidden_dim=16),
                       ds.n_features, ds.n_classes, seed=0)
    cfg = TrainConfig(max_epochs=1, loss=LossConfig(mu=0.5))
    report = train(model, ctx, make_splits(ds, 20, 1, 0)[0], cfg)
    assert report.epochs_run == 1 and sizes
    assert max(sizes) < ds.n_nodes * ds.n_features


def test_gat_epoch_builds_no_per_entry_feature_matrix(monkeypatch):
    ds = two_blob_dataset(n_per=16, seed=5, edge_p=0.5)
    ctx = DataContext.from_dataset(ds)
    nnz = ctx.a_hat.nnz
    assert nnz > 5 * ds.n_nodes
    shapes = []

    def spy(values, *args, _result=ad._result):
        shapes.append(values.shape)
        return _result(values, *args)

    monkeypatch.setattr(ad, "_result", spy)
    model = Model.init(ModelConfig(kind="gat", n_layers=2, hidden_dim=8),
                       ds.n_features, ds.n_classes, seed=0)
    report = train(model, ctx, small_split(ds), TrainConfig(max_epochs=1, loss=LossConfig(mu=0.5)))
    assert report.epochs_run == 1 and (nnz, 1) in shapes
    assert not [s for s in shapes if s[0] == nnz and s[1] > 1]


def train_and_restored_fit_loss(mu):
    """A GCN run at ``mu``, its history and the validation fit loss (the
    combined loss at mu 0) of a fresh pass of the restored parameters."""
    ctx = make_ctx(seed=2)
    split = small_split(two_blob_dataset(n_per=16, seed=2), seed=1)
    model = Model.init(ModelConfig(kind="gcn", n_layers=2, hidden_dim=8), 4, 2, seed=3)
    cfg = TrainConfig(max_epochs=40, patience=5, seed=3, loss=LossConfig(mu=mu))
    report = train(model, ctx, split, cfg)
    logits = ctx.forward(model, training=False)
    val_fit = combined_loss(ad.row_softmax(logits), label_matrix(ctx.labels, split.val, 2),
                            ctx.a_hat, LossConfig(mu=0.0)).values[0, 0]
    return report, [h[1] for h in report.history], val_fit


def test_train_restores_best_epoch_parameters():
    report, monitored, val_fit = train_and_restored_fit_loss(mu=0.0)
    assert report.best_epoch <= report.epochs_run <= 40
    assert monitored[report.best_epoch - 1] == min(monitored)
    # the restored parameters reproduce the best epoch's validation loss
    assert np.isclose(val_fit, monitored[report.best_epoch - 1], rtol=1e-12)


def test_a_regularized_run_stops_on_its_validation_fit_loss():
    # the smoothness term regularizes training only: the loss a run stops and
    # restores on is the fit loss on the validation rows
    report, monitored, val_fit = train_and_restored_fit_loss(mu=0.5)
    assert monitored[report.best_epoch - 1] == min(monitored)
    assert np.isclose(val_fit, monitored[report.best_epoch - 1], rtol=1e-12, atol=0.0)


def test_both_passes_go_through_combined_loss_and_validation_at_mu_0(monkeypatch):
    mus, combined = [], gssl.trainer.combined_loss

    def spy(z, y, a_hat, cfg):
        mus.append(cfg.mu)
        return combined(z, y, a_hat, cfg)

    monkeypatch.setattr(gssl.trainer, "combined_loss", spy)
    ctx = make_ctx(seed=2)
    model = Model.init(ModelConfig(kind="mlp", n_layers=2, hidden_dim=8), 4, 2, seed=3)
    train(model, ctx, small_split(two_blob_dataset(n_per=16, seed=2)),
          TrainConfig(max_epochs=3, patience=3, loss=LossConfig(mu=0.5)))
    assert mus == [0.5, 0.0] * 3  # per epoch: the training step, then validation


def test_the_restored_model_keeps_no_gradient():
    # the last step's gradients belong to parameters the restore replaced; a
    # pool worker would otherwise pickle them with the model it returns
    ctx = make_ctx(seed=2)
    model = Model.init(ModelConfig(kind="gcn", n_layers=2, hidden_dim=8), 4, 2, seed=3)
    train(model, ctx, small_split(two_blob_dataset(n_per=16, seed=2), seed=1),
          TrainConfig(max_epochs=3, patience=3))
    assert [p.grad for p in model.parameters()] == [None] * len(model.parameters())


def test_vanilla_loss_reaches_perfect_train_accuracy():
    ctx = make_ctx(seed=4, n_per=12)
    split = small_split(two_blob_dataset(n_per=12, seed=4), ell=4, val=6, test=6)
    model = Model.init(
        ModelConfig(kind="mlp", n_layers=2, hidden_dim=8, dropout=0.0), 4, 2, seed=6)
    cfg = TrainConfig(max_epochs=200, patience=200, seed=6, weight_decay=0.0,
                      loss=LossConfig(mu=0.0))
    train(model, ctx, split, cfg)
    assert evaluate(model, ctx, split.train) == 1.0


def test_gat_trains_end_to_end():
    ds = two_blob_dataset(n_per=16, seed=9)
    ctx = DataContext.from_dataset(ds)
    split = small_split(ds, ell=4, val=8, test=8, seed=2)
    model = Model.init(ModelConfig(kind="gat", n_layers=2, hidden_dim=8),
                       ds.n_features, ds.n_classes, seed=10)
    cfg = TrainConfig(max_epochs=60, patience=60, seed=10, loss=LossConfig(mu=0.0))
    report = train(model, ctx, split, cfg)
    assert report.test_acc >= 0.75  # separable blobs, attention model must learn
    assert evaluate(model, ctx, split.train) >= 0.75


def test_smoothness_term_changes_loss_not_architecture():
    shapes = []
    for mu in (0.0, 1.0):
        model = Model.init(ModelConfig(kind="mlp", n_layers=3, hidden_dim=8), 4, 2, seed=7)
        ctx = make_ctx(seed=5)
        split = small_split(two_blob_dataset(n_per=16, seed=5))
        cfg = TrainConfig(max_epochs=3, patience=3, seed=7, loss=LossConfig(mu=mu))
        train(model, ctx, split, cfg)
        shapes.append([p.shape for p in model.parameters()])
    assert shapes[0] == shapes[1]


def test_nan_loss_aborts_with_epoch():
    ctx = make_ctx(seed=6)
    split = small_split(two_blob_dataset(n_per=16, seed=6))
    model = Model.init(ModelConfig(kind="mlp", n_layers=2, hidden_dim=8), 4, 2, seed=8)
    cfg = TrainConfig(lr=1e200, max_epochs=10, patience=10, seed=8,
                      loss=LossConfig(mu=0.0))
    with np.errstate(over="ignore"), pytest.raises(TrainingAbort, match="epoch"):
        train(model, ctx, split, cfg)


def test_overflowing_step_aborts_naming_the_epoch_and_the_value():
    # weights of 1e200 overflow the second layer's product to inf; train runs
    # its steps without numpy's overflow warnings and checks the loss and the
    # gradients itself
    ctx = make_ctx(seed=6)
    split = small_split(two_blob_dataset(n_per=16, seed=6))
    model = Model.init(ModelConfig(kind="mlp", n_layers=2, hidden_dim=8, dropout=0.0), 4, 2, seed=8)
    for w in model.parameters()[::2]:
        w.values = np.full(w.shape, 1e200)
    cfg = TrainConfig(max_epochs=3, patience=3, seed=8, loss=LossConfig(mu=0.0))
    with pytest.raises(TrainingAbort, match=r"^epoch 1: non-finite (training loss|gradient of \w+_\d)$"):
        train(model, ctx, split, cfg)


def test_test_accuracy_is_the_restored_parameters_accuracy():
    ctx = make_ctx(seed=9)
    split = small_split(two_blob_dataset(n_per=16, seed=9))
    model = Model.init(ModelConfig(kind="gcn", n_layers=2, hidden_dim=8), 4, 2, seed=9)
    cfg = TrainConfig(max_epochs=30, patience=5, seed=9, loss=LossConfig(mu=0.5))
    report = train(model, ctx, split, cfg)
    assert report.test_acc == evaluate(model, ctx, split.test)


# ------------------------------------------------------------------ fields

def ring_run(kind, n_layers, mu=0.0, appnp_k=3):
    ds = ring_dataset(seed=20)
    split = make_splits(ds, 2, 1, 21, val_size=10, test_size=10)[0]
    cfg = ModelConfig(kind=kind, n_layers=n_layers, hidden_dim=8, dropout=0.5, appnp_k=appnp_k)
    return (DataContext.from_dataset(ds), split, lambda: Model.init(cfg, ds.n_features, 3, seed=22),
            TrainConfig(max_epochs=30, patience=10, seed=23, loss=LossConfig(mu=mu)))


def test_a_field_pass_keeps_the_whole_graph_dropout_draws(monkeypatch):
    ctx, split, new_model, _ = ring_run("gcn", 3)
    model = new_model()
    field = ctx.field_of(split.train, model.hops)
    rows, positions = field.rows, entry_positions(ctx.x, field.rows)
    assert 0 < rows.size < ctx.labels.size
    masks, dropped_x = [], []
    dropout, sparse_dropout = ad.dropout, gssl.models._dropout

    def spy(a, keep, rate):
        masks.append(dropout(Tensor(np.ones(a.shape)), keep, rate).values)
        return dropout(a, keep, rate)

    def spy_sparse(h, rate, rng, field=None):
        out = sparse_dropout(h, rate, rng, field)
        if sp.issparse(out):
            dropped_x.append(out)
        return out

    monkeypatch.setattr(ad, "dropout", spy)
    monkeypatch.setattr(gssl.models, "_dropout", spy_sparse)
    rngs = [np.random.default_rng(24), np.random.default_rng(24)]
    ctx.forward(model, training=True, rng=rngs[0])
    field.forward(model, training=True, rng=rngs[1])
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    whole_x, field_x = dropped_x
    for name in ("data", "indices", "indptr"):
        assert getattr(whole_x[rows], name).tobytes() == getattr(field_x, name).tobytes()
    # X and the hidden input of layer 1; the output layer drops nothing
    whole_x_mask, whole_hidden, field_x_mask, field_hidden = masks
    assert whole_hidden.shape == (ctx.labels.size, 8)
    assert whole_x_mask[positions].tobytes() == field_x_mask.tobytes()
    assert whole_hidden[rows].tobytes() == field_hidden.tobytes()


@pytest.mark.parametrize("kind", ["mlp", "gcn", "gat", "appnp"])
def test_a_field_eval_pass_gives_the_whole_graph_rows_its_field_holds(kind):
    ctx, split, new_model, _ = ring_run(kind, 2)
    model = new_model()
    field = ctx.field_of(split.train, model.hops)
    n = ctx.labels.size
    assert 0 < field.rows.size < n
    logits = field.forward(model).values
    assert logits.shape == (field.rows.size, 3)
    # the rows no node outside the field is within hops of
    inner = np.setdiff1d(field.rows, within_hops(ctx.a_hat, np.setdiff1d(np.arange(n), field.rows),
                                                 model.hops))
    assert np.isin(split.train, inner).all()
    whole = ctx.forward(model).values
    np.testing.assert_allclose(logits[field.at(inner)], whole[inner], rtol=1e-10,
                               atol=1e-12 * np.abs(whole).max())


def test_at_maps_node_ids_in_any_order_to_their_positions():
    ctx, split, new_model, _ = ring_run("gcn", 2)
    field = ctx.field_of(split.train, new_model().hops)
    order = np.random.default_rng(25).permutation(field.rows.size)
    nodes = field.rows[order]
    assert field.at(nodes).tolist() == order.tolist()
    assert field.labels[field.at(nodes)].tolist() == ctx.labels[nodes].tolist()
    assert ctx.at(nodes).tolist() == nodes.tolist()


def assert_matches_the_whole_graph(model, oracle, ctx, split, cfg):
    """``train`` gives ``whole_graph_train``'s record and parameters up to
    float64 summation order; the report."""
    report = train(model, ctx, split, cfg)
    expected = whole_graph_train(oracle, ctx, split, cfg)
    assert (report.best_epoch, report.epochs_run, report.test_acc) == (
        expected.best_epoch, expected.epochs_run, expected.test_acc)
    # Tolerance of float64 summation order, fixed before the test was run:
    # BLAS may block a product of fewer rows differently.
    history, expected_history = np.array(report.history), np.array(expected.history)
    np.testing.assert_allclose(history, expected_history, rtol=1e-10,
                               atol=1e-12 * np.abs(expected_history).max())
    for p, q in zip(model.parameters(), oracle.parameters(), strict=True):
        np.testing.assert_allclose(p.values, q.values, rtol=1e-10,
                                   atol=1e-12 * np.abs(q.values).max())
    assert evaluate(model, ctx, split.test) == report.test_acc
    return report


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("kind", ["mlp", "gcn", "gat", "appnp"])
def test_training_on_fields_matches_the_whole_graph(kind, n_layers):
    ctx, split, new_model, cfg = ring_run(kind, n_layers)
    model, oracle = new_model(), new_model()
    for readers in (split.train, np.union1d(split.val, split.test)):
        assert ctx.field_of(readers, model.hops).rows.size < ctx.labels.size
    assert_matches_the_whole_graph(model, oracle, ctx, split, cfg)


def assert_whole_graph_run(monkeypatch, kind, mu, appnp_k=3):
    """Every pass of the run is over the whole graph, and its record and
    parameters are the oracle's, bit for bit."""
    ctx, split, new_model, cfg = ring_run(kind, 2, mu=mu, appnp_k=appnp_k)
    contexts, forward = [], DataContext.forward

    def spy(c, model, training=False, rng=None, return_hidden=False):
        contexts.append(c)
        return forward(c, model, training, rng, return_hidden)

    monkeypatch.setattr(DataContext, "forward", spy)
    model, oracle = new_model(), new_model()
    report = train(model, ctx, split, cfg)
    assert contexts and all(c is ctx for c in contexts)
    assert report == whole_graph_train(oracle, ctx, split, cfg)
    assert ([p.values.tobytes() for p in model.parameters()]
            == [p.values.tobytes() for p in oracle.parameters()])


@pytest.mark.parametrize("kind", ["mlp", "gcn"])
def test_a_regularized_run_trains_on_every_node_and_validates_on_its_field(monkeypatch, kind):
    # the smoothness term reads every row; the validation fit loss and the
    # test accuracy read the validation and test rows alone
    ctx, split, new_model, cfg = ring_run(kind, 2, mu=0.5)
    model, oracle = new_model(), new_model()
    val_rows = ctx.field_of(np.union1d(split.val, split.test), model.hops).rows
    assert val_rows.size < ctx.labels.size
    passes, forward = [], DataContext.forward

    def spy(c, model, training=False, rng=None, return_hidden=False):
        passes.append((training, c))
        return forward(c, model, training, rng, return_hidden)

    monkeypatch.setattr(DataContext, "forward", spy)
    report = assert_matches_the_whole_graph(model, oracle, ctx, split, cfg)
    run = passes[:2 * report.epochs_run]  # the oracle's passes follow
    assert [training for training, _ in run] == [True, False] * report.epochs_run
    assert all(c is ctx for training, c in run if training)
    assert all(c.rows.tobytes() == val_rows.tobytes() for training, c in run if not training)


def test_an_appnp_whose_propagation_reaches_every_node_computes_every_node(monkeypatch):
    ctx, split, new_model, _ = ring_run("appnp", 2)
    k = 1
    while ctx.field_of(split.train, k) is not ctx:
        k += 1
    assert_whole_graph_run(monkeypatch, "appnp", mu=0.0, appnp_k=k)


# ---------------------------------------------------------------- accuracy

def test_accuracy_perfect_and_constant():
    labels = np.array([0, 1, 0, 1])
    perfect = np.eye(2)[labels]
    assert accuracy(perfect, labels, np.arange(4)) == 1.0
    constant = np.tile([0.7, 0.3], (4, 1))
    assert accuracy(constant, labels, np.arange(4)) == 0.5


def test_accuracy_rejects_empty_index_set():
    with pytest.raises(InputError):
        accuracy(np.eye(2), np.array([0, 1]), [])


def test_train_config_validation():
    with pytest.raises(InputError):
        TrainConfig(lr=0.0)
    with pytest.raises(InputError):
        TrainConfig(patience=0)
