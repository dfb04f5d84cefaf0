"""Full-batch training: Adam with L2 weight decay, window early stopping,
best-epoch restoration and final test evaluation.

One call to :func:`train` owns its model, random state and computation
graphs, so independent runs can execute concurrently in separate workers.
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


@dataclass
class TrainReport:
    best_epoch: int
    epochs_run: int
    history: list[tuple[float, float, float]]
    test_acc: float

    def to_dict(self) -> dict:
        return {
            "best_epoch": self.best_epoch,
            "epochs_run": self.epochs_run,
            "test_acc": self.test_acc,
            "history": [list(h) for h in self.history],
        }


class AdamState:
    """First/second moment buffers and the shared step counter."""

    def __init__(self, params: list[Tensor]):
        self.m = [np.zeros(p.shape) for p in params]
        self.v = [np.zeros(p.shape) for p in params]
        self.t = 0


class EarlyStopper:
    """Window rule: stop after ``patience`` consecutive non-improving
    epochs, where improving means strictly smaller than the best so far."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = None
        self.best_index = 0
        self.bad = 0
        self.count = 0

    def update(self, metric: float) -> bool:
        """Record one epoch's metric; returns True when it improved."""
        self.count += 1
        if self.best is None or metric < self.best:
            self.best = metric
            self.best_index = self.count
            self.bad = 0
            return True
        self.bad += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.bad >= self.patience


def adam_step(params: list[Tensor], state: AdamState, cfg: TrainConfig,
              decay_mask: list[bool] | None = None) -> None:
    """One Adam update in place, reading each parameter's ``grad``.

    Weight decay enters as an additive gradient term decay * w on the
    parameters flagged by ``decay_mask`` (weights yes, biases no).
    """
    if decay_mask is None:
        decay_mask = [True] * len(params)
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
    params = model.parameters()
    decay_mask = model.decay_mask()
    state = AdamState(params)
    stopper = EarlyStopper(cfg.patience)
    history: list[tuple[float, float, float]] = []
    best_values = model.state_values()
    epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        for p in params:
            p.grad = None
        try:
            logits = ctx.forward(model, training=True, rng=rng)
            z = ad.row_softmax(logits)
            loss = combined_loss(z, y_train, ctx.a_hat, cfg.loss)
            ad.backward(loss)
            adam_step(params, state, cfg, decay_mask)

            eval_logits = ctx.forward(model, training=False)
            z_eval = ad.row_softmax(eval_logits)
            val_loss = float(
                combined_loss(z_eval, y_val, ctx.a_hat, cfg.loss).values[0, 0])
            val_acc = accuracy(eval_logits.values, ctx.labels, split.val)
        except NumericError as err:
            raise TrainingAbort(f"epoch {epoch}: {err}") from err
        history.append((float(loss.values[0, 0]), val_loss, val_acc))

        if stopper.update(val_loss):
            best_values = model.state_values()
        if stopper.should_stop:
            break

    model.load_state_values(best_values)
    test_acc = evaluate(model, ctx, split.test)
    return TrainReport(best_epoch=stopper.best_index, epochs_run=epoch,
                       history=history, test_acc=test_acc)
