"""Full-batch training: Adam with L2 weight decay, window early stopping,
best-epoch restoration and the test accuracy of the best epoch.

One call to :func:`train` owns its model and its dropout Generator, so
independent runs can execute concurrently in separate workers.  Each epoch
is a training step and a validation pass; each builds its own computation
graph and returns only floats and the validation logits, so the graph is
freed when the phase returns.  Between epochs :func:`train` keeps the
parameters, the Adam moments, the history and the best epoch so far, with
the logits of its validation pass, from which the test accuracy is read.
Every run stops on its validation fit loss: the smoothness term is a
training regularizer, so a validation pass scores the fit alone.  Each pass
computes only its field (:meth:`DataContext.field_of`): the nodes within
:attr:`Model.hops` steps of the rows it reads.  A training step reads the
labeled rows, or every row once ``mu > 0`` adds the smoothness term; a
validation pass reads the validation and test rows whatever ``mu`` is.  The
two field contexts are built once per run; a field that is every node is the
whole-graph context itself.  A field's pass hands :meth:`Model.forward` the
whole X and its node ids, so the model draws the whole graph's dropout
masks and keeps its rows'.  It returns one row per field node, so the
label matrices are built over the field's rows and the accuracies read it
at :meth:`DataContext.at` positions; the values read are the whole graph's
up to BLAS summation order.  Autodiff ops do not check
their outputs for NaN/Inf; instead each epoch checks the training loss and
every parameter gradient after ``backward`` and the validation loss after
its pass.  The features stay in the dataset's CSR form
(:class:`gssl.data.FeatureMatrix`): the first layer multiplies them through
``spmm``, and its dropout removes the dropped entries from the CSR.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import FeatureMatrix, LabeledDataset, Split
from .diffusion import label_matrix
from .errors import GsslError, InputError, NumericError
from .graph import NormalizedAdjacency, add_self_loops, sym_normalize, within_hops
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
        if not 0 < self.lr < np.inf:  # written so that NaN fails too
            raise InputError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.weight_decay < np.inf:
            raise InputError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
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
        # the operations of w - lr (m / bc1) / (sqrt(v / bc2) + eps) in the
        # formula's order, into two scratch arrays (buf, step) in place of
        # one temporary per operation
        buf = np.multiply(g, 1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += buf
        np.multiply(g, 1.0 - ADAM_BETA2, out=buf)
        buf *= g
        v *= ADAM_BETA2
        v += buf
        np.divide(v, bc2, out=buf)
        np.sqrt(buf, out=buf)
        buf += ADAM_EPS
        step = m / bc1
        step *= cfg.lr
        step /= buf
        p.values = p.values - step


@dataclass
class DataContext:
    """Everything a forward pass needs, built once per dataset.  ``x`` is
    the dataset's CSR feature matrix itself, not a dense copy.  The context
    of a field (:meth:`field_of`) holds the field's ascending node ids
    ``rows``, their labels and rows of X, the block of A_hat on them, and
    the ``whole`` context it came from; the whole graph's has neither."""

    x: FeatureMatrix
    labels: np.ndarray
    n_classes: int
    a_hat: NormalizedAdjacency
    rows: np.ndarray | None = None
    whole: DataContext | None = None

    @classmethod
    def from_dataset(cls, ds: LabeledDataset) -> "DataContext":
        return cls(
            x=ds.features,
            labels=ds.labels,
            n_classes=ds.n_classes,
            a_hat=sym_normalize(add_self_loops(ds.graph)),
        )

    def field_of(self, rows, hops: int) -> "DataContext":
        """The context of a pass whose outputs are read at ``rows`` alone,
        which computes the nodes within ``hops`` steps of them: ``self`` when
        that is every node.  Its ``a_hat`` is the field's block, so no loss
        that reads every row may run on it."""
        rows = within_hops(self.a_hat, np.asarray(rows, dtype=np.int64), hops)
        if rows.size == self.a_hat.n_nodes:
            return self
        # scipy keeps each row's entries in order: an inner row sums as in A_hat
        return DataContext(self.x[rows], self.labels[rows], self.n_classes,
                           self.a_hat[rows][:, rows], rows, self)

    def at(self, nodes) -> np.ndarray:
        """The positions of the node ids ``nodes``, all in this context,
        among its rows: the ids themselves on the whole graph."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return nodes if self.rows is None else np.searchsorted(self.rows, nodes)

    def forward(self, model: Model, training=False, rng=None, return_hidden=False):
        return model.forward(self.x, self.a_hat, training=training, rng=rng,
                             return_hidden=return_hidden,
                             field=None if self.rows is None else (self.whole.x, self.rows))


def accuracy(logits_values: np.ndarray, labels: np.ndarray, indices) -> float:
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise InputError("accuracy over an empty index set")
    pred = logits_values[indices].argmax(axis=1)
    return float(np.mean(pred == labels[indices]))


def _train_step(model: Model, ctx: DataContext, y_train: np.ndarray, cfg: TrainConfig,
                state: AdamState, rng) -> float:
    """One Adam step on the combined loss with dropout on; the loss value.
    A non-finite loss or parameter gradient raises NumericError before Adam reads it."""
    for p in model.parameters():
        p.grad = None
    logits = ctx.forward(model, training=True, rng=rng)
    loss = combined_loss(ad.row_softmax(logits), y_train, ctx.a_hat, cfg.loss)
    ad.backward(loss)
    ad.check_finite(loss.values, "training loss")
    for name, p in model.named_parameters():
        if p.grad is not None:
            ad.check_finite(p.grad, f"gradient of {name}")
    adam_step(model.parameters(), state, cfg, model.decay_mask())
    return float(loss.values[0, 0])


def _validate(model: Model, ctx: DataContext, y_val: np.ndarray, val: np.ndarray,
              cfg: TrainConfig) -> tuple[float, float, np.ndarray]:
    """Validation fit loss (the combined loss at mu 0), accuracy at the
    positions ``val`` and logits, with dropout off.  A non-finite loss
    raises NumericError."""
    logits = ctx.forward(model, training=False)
    loss = combined_loss(ad.row_softmax(logits), y_val, ctx.a_hat, replace(cfg.loss, mu=0.0))
    ad.check_finite(loss.values, "validation loss")
    return float(loss.values[0, 0]), accuracy(logits.values, ctx.labels, val), logits.values


def train(model: Model, ctx: DataContext, split: Split, cfg: TrainConfig) -> TrainReport:
    """Train up to ``cfg.max_epochs`` epochs with early stopping.

    Stops once the validation loss has not improved for
    ``cfg.patience`` consecutive epochs ("improved" means strictly smaller
    than the best seen).  Parameters are restored from the best epoch, and
    the test accuracy is read from that epoch's validation logits, which
    were computed from the same parameters.  The validation loss is the
    fit loss on the validation nodes for every ``mu``: the smoothness term
    only regularizes training.

    Each epoch runs with numpy's floating-point warnings off and checks the
    training loss, every parameter gradient and the validation loss; a
    non-finite one raises TrainingAbort naming the epoch and the value.
    """
    rng = np.random.default_rng(cfg.seed)
    # the smoothness term reads every row
    train_ctx = ctx if cfg.loss.mu > 0 else ctx.field_of(split.train, model.hops)
    val_ctx = ctx.field_of(np.union1d(split.val, split.test), model.hops)
    y_train = label_matrix(train_ctx.labels, train_ctx.at(split.train), ctx.n_classes)
    val = val_ctx.at(split.val)
    y_val = label_matrix(val_ctx.labels, val, ctx.n_classes)
    state = AdamState(model.parameters())
    history: list[tuple[float, float, float]] = []
    best_loss, best_epoch, best_values, best_logits = np.inf, 0, None, None
    epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        try:
            with np.errstate(all="ignore"):
                train_loss = _train_step(model, train_ctx, y_train, cfg, state, rng)
                val_loss, val_acc, logits = _validate(model, val_ctx, y_val, val, cfg)
        except NumericError as err:
            raise TrainingAbort(f"epoch {epoch}: {err}") from err
        history.append((train_loss, val_loss, val_acc))
        if val_loss < best_loss:  # the first epoch's finite loss always is
            best_loss, best_epoch = val_loss, epoch
            best_values, best_logits = model.state_values(), logits
        if epoch - best_epoch >= cfg.patience:
            break

    model.load_state_values(best_values)
    test_acc = accuracy(best_logits, val_ctx.labels, val_ctx.at(split.test))
    return TrainReport(best_epoch=best_epoch, epochs_run=epoch, test_acc=test_acc,
                       history=history)
