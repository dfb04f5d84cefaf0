"""Full-batch training: Adam with L2 weight decay, window early stopping,
best-epoch restoration and final test evaluation.

One call to :func:`train` owns its model and random state, so independent
runs can execute concurrently in separate workers.  Each epoch is a
training step and a validation pass; each builds its own computation graph
and returns only floats, so the graph is freed when the phase returns.
Between epochs :func:`train` keeps the parameters, the Adam moments, the
history and the best epoch so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import LabeledDataset, Split
from .diffusion import label_matrix
from .errors import GsslError, InputError, NumericError
from .graph import NormalizedAdjacency, add_self_loops, sym_normalize
from .losses import LossConfig, combined_loss
from .models import Model

__all__ = [
    "TrainConfig",
    "TrainReport",
    "TrainingAbort",
    "AdamState",
    "adam_step",
    "DataContext",
    "train",
    "evaluate",
    "accuracy",
]


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingAbort(GsslError):
    """Training hit non-finite numbers; the message names the epoch."""


@dataclass
class TrainConfig:
    lr: float = 0.01
    weight_decay: float = 5e-4
    max_epochs: int = 1000
    patience: int = 100
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0

    def __post_init__(self):
        if not self.lr > 0:  # written so that NaN fails too
            raise InputError("lr must be positive")
        if not self.weight_decay >= 0:
            raise InputError("weight_decay must be >= 0")
        if self.patience < 1 or self.max_epochs < 1:
            raise InputError("patience and max_epochs must be >= 1")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainReport:
    best_epoch: int
    epochs_run: int
    test_acc: float
    history: list[tuple[float, float, float]]


class AdamState:
    """First/second moment buffers and the shared step counter."""

    def __init__(self, params: list[Tensor]):
        self.m = [np.zeros(p.shape) for p in params]
        self.v = [np.zeros(p.shape) for p in params]
        self.t = 0


def adam_step(params: list[Tensor], state: AdamState, cfg: TrainConfig,
              decay_mask: list[bool]) -> None:
    """One Adam update in place, reading each parameter's ``grad``.

    Weight decay enters as an additive gradient term decay * w on the
    parameters flagged by ``decay_mask`` (weights yes, biases no).
    """
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for p, m, v, decayed in zip(params, state.m, state.v, decay_mask, strict=True):
        g = p.grad if p.grad is not None else np.zeros(p.shape)
        if decayed and cfg.weight_decay:
            g = g + cfg.weight_decay * p.values
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.values = p.values - cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


@dataclass
class DataContext:
    """Everything a forward pass needs, built once per dataset."""

    x: Tensor
    labels: np.ndarray
    n_classes: int
    a_hat: NormalizedAdjacency

    @classmethod
    def from_dataset(cls, ds: LabeledDataset) -> "DataContext":
        return cls(
            x=Tensor(ds.features),
            labels=ds.labels,
            n_classes=ds.n_classes,
            a_hat=sym_normalize(add_self_loops(ds.graph)),
        )

    def forward(self, model: Model, training=False, rng=None, return_hidden=False):
        return model.forward(self.x, self.a_hat, training=training, rng=rng,
                             return_hidden=return_hidden)


def accuracy(logits_values: np.ndarray, labels: np.ndarray, indices) -> float:
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise InputError("accuracy over an empty index set")
    pred = logits_values[indices].argmax(axis=1)
    return float(np.mean(pred == labels[indices]))


def evaluate(model: Model, ctx: DataContext, indices) -> float:
    """Fraction of ``indices`` whose logits argmax matches the label."""
    logits = ctx.forward(model, training=False)
    return accuracy(logits.values, ctx.labels, indices)


def _train_step(model: Model, ctx: DataContext, y_train: np.ndarray, cfg: TrainConfig,
                state: AdamState, rng) -> float:
    """One Adam step on the combined loss with dropout on; the loss value."""
    params = model.parameters()
    for p in params:
        p.grad = None
    logits = ctx.forward(model, training=True, rng=rng)
    loss = combined_loss(ad.row_softmax(logits), y_train, ctx.a_hat, cfg.loss)
    ad.backward(loss)
    adam_step(params, state, cfg, model.decay_mask())
    return float(loss.values[0, 0])


def _validate(model: Model, ctx: DataContext, y_val: np.ndarray, split: Split,
              cfg: TrainConfig) -> tuple[float, float]:
    """Validation loss and accuracy with dropout off."""
    logits = ctx.forward(model, training=False)
    loss = combined_loss(ad.row_softmax(logits), y_val, ctx.a_hat, cfg.loss)
    return float(loss.values[0, 0]), accuracy(logits.values, ctx.labels, split.val)


def train(model: Model, ctx: DataContext, split: Split, cfg: TrainConfig) -> TrainReport:
    """Train up to ``cfg.max_epochs`` epochs with early stopping.

    Stops once the validation loss has not improved for
    ``cfg.patience`` consecutive epochs ("improved" means strictly smaller
    than the best seen).  Parameters are restored from the best epoch
    before the single final test evaluation.  The validation loss is the
    full training objective (fitness on the validation nodes plus the
    weighted smoothness term).
    """
    rng = np.random.default_rng(cfg.seed)
    y_train = label_matrix(ctx.labels, split.train, ctx.n_classes)
    y_val = label_matrix(ctx.labels, split.val, ctx.n_classes)
    state = AdamState(model.parameters())
    history: list[tuple[float, float, float]] = []
    best_loss, best_epoch, best_values = np.inf, 0, model.state_values()
    epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        try:
            train_loss = _train_step(model, ctx, y_train, cfg, state, rng)
            val_loss, val_acc = _validate(model, ctx, y_val, split, cfg)
        except NumericError as err:
            raise TrainingAbort(f"epoch {epoch}: {err}") from err
        history.append((train_loss, val_loss, val_acc))
        if val_loss < best_loss:
            best_loss, best_epoch, best_values = val_loss, epoch, model.state_values()
        if epoch - best_epoch >= cfg.patience:
            break

    model.load_state_values(best_values)
    test_acc = evaluate(model, ctx, split.test)
    return TrainReport(best_epoch=best_epoch, epochs_run=epoch, test_acc=test_acc,
                       history=history)
