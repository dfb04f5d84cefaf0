import numpy as np
import pytest

from gssl.autodiff import Tensor
from gssl.errors import InputError
from gssl.losses import LossConfig
from gssl.models import Model, ModelConfig
from gssl.trainer import (AdamState, DataContext, EarlyStopper, TrainConfig,
                          TrainingAbort, accuracy, adam_step, evaluate, train)

from conftest import two_blob_dataset


def small_split(ds, ell=4, val=10, test=10, seed=0):
    from gssl.data import make_splits

    return make_splits(ds, ell, 1, seed, val_size=val, test_size=test)[0]


def make_ctx(seed=0, n_per=16):
    return DataContext.from_dataset(two_blob_dataset(n_per=n_per, seed=seed))


# -------------------------------------------------------------------- adam

def test_adam_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.ones((3, 3)), requires_grad=True)
    p.grad = np.zeros((3, 3))
    cfg = TrainConfig(weight_decay=0.0)
    before = p.values.copy()
    adam_step([p], AdamState([p]), cfg)
    assert np.array_equal(p.values, before)


def test_adam_constant_gradient_step_magnitude_approaches_lr():
    # with constant g, bias-corrected m/v give steps of size ~lr from step 1
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    cfg = TrainConfig(lr=0.05, weight_decay=0.0)
    state = AdamState([p])
    prev = p.values.copy()
    for _ in range(50):
        p.grad = np.full((2, 2), 3.7)
        adam_step([p], state, cfg)
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

def test_early_stopper_rule_application():
    # patience 1, strictly increasing metric from the start
    stopper = EarlyStopper(patience=1)
    assert stopper.update(1.0)
    assert not stopper.should_stop
    assert not stopper.update(2.0)
    assert stopper.should_stop
    assert stopper.best_index == 1
    assert stopper.count == 2


def test_early_stopper_window_resets_on_improvement():
    stopper = EarlyStopper(patience=2)
    for metric in (5.0, 6.0, 4.0, 4.5):
        stopper.update(metric)
    assert not stopper.should_stop  # only one bad epoch since the best
    assert stopper.best_index == 3
    stopper.update(4.4)
    assert stopper.should_stop  # second consecutive non-improvement


def test_train_restores_best_epoch_parameters():
    ctx = make_ctx(seed=2)
    split = small_split(two_blob_dataset(n_per=16, seed=2), seed=1)
    model = Model.init(ModelConfig(kind="gcn", n_layers=2, hidden_dim=8), 4, 2, seed=3)
    cfg = TrainConfig(max_epochs=40, patience=5, seed=3, loss=LossConfig(mu=0.0))
    report = train(model, ctx, split, cfg)
    assert report.best_epoch <= report.epochs_run <= cfg.max_epochs
    monitored = [h[1] for h in report.history]
    assert monitored[report.best_epoch - 1] == min(monitored)
    # the restored parameters reproduce the best epoch's validation loss
    from gssl.autodiff import row_softmax
    from gssl.diffusion import label_matrix
    from gssl.losses import combined_loss

    logits = ctx.forward(model, training=False)
    val_loss = combined_loss(row_softmax(logits), label_matrix(ctx.labels, split.val, 2),
                             ctx.a_hat, cfg.loss).values[0, 0]
    assert np.isclose(val_loss, monitored[report.best_epoch - 1], rtol=1e-12)


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


# ---------------------------------------------------------------- evaluate

def test_accuracy_perfect_and_constant():
    labels = np.array([0, 1, 0, 1])
    perfect = np.eye(2)[labels]
    assert accuracy(perfect, labels, np.arange(4)) == 1.0
    constant = np.tile([0.7, 0.3], (4, 1))
    assert accuracy(constant, labels, np.arange(4)) == 0.5


def test_accuracy_rejects_empty_index_set():
    with pytest.raises(InputError):
        accuracy(np.eye(2), np.array([0, 1]), [])


def test_evaluate_in_unit_interval():
    ctx = make_ctx(seed=7)
    model = Model.init(ModelConfig(kind="appnp", n_layers=2, hidden_dim=8), 4, 2, seed=9)
    acc = evaluate(model, ctx, np.arange(ctx.labels.shape[0]))
    assert 0.0 <= acc <= 1.0


def test_train_config_validation():
    with pytest.raises(InputError):
        TrainConfig(lr=0.0)
    with pytest.raises(InputError):
        TrainConfig(patience=0)
