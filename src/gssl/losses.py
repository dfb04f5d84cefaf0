"""Supervised fitness losses, graph smoothness losses, and their combination.

The combined objective is ``L_fit(Z, Y) + mu * L_smooth(Z; A_hat)`` with
sum reduction throughout (no averaging; ``mu`` absorbs scale).  ``Y`` is
the label matrix of :func:`gssl.diffusion.label_matrix`: one-hot on
labeled rows, zero elsewhere, so the fitness terms run over its nonzero
rows and no separate index list is needed.  Z and Y hold the same rows,
which may be a subset of the graph's (a field's, in :func:`gssl.trainer.train`)
for the fitness terms alone.  The smoothness terms run over every stored
entry of the normalized, self-looped adjacency, (i, i) self-pairs
included: they are zero in the L2 variant and contribute a row-entropy
term in the cross-entropy variant.

The cross-entropy smoothness loss is the fitness loss ``ce_fit`` against
the constant target ``A_hat phi(Z)`` of :func:`smooth_target`, where phi
is the one-hot argmax of the current prediction: it pushes each node's
predicted distribution toward its neighbors' current argmax classes, and
the gradient flows only through the log term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .diffusion import label_matrix
from .errors import InputError
from .graph import NormalizedAdjacency

__all__ = [
    "LossConfig",
    "ce_fit",
    "l2_fit",
    "l2_smooth",
    "smooth_target",
    "ce_smooth",
    "combined_loss",
]

VARIANTS = ("cross_entropy", "l2")


@dataclass
class LossConfig:
    """Combined-loss settings; reduction is always sum.  The default ``mu``
    of 0 trains the fit loss alone: the regularizer is opted into."""

    mu: float = 0.0
    variant: str = "cross_entropy"

    def __post_init__(self):
        if not 0 <= self.mu < np.inf:  # written so that NaN fails too
            raise InputError(f"mu must be >= 0 and finite, got {self.mu}")
        if self.variant not in VARIANTS:
            raise InputError(f"unknown loss variant {self.variant!r}")


def ce_fit(z: Tensor, y: np.ndarray) -> Tensor:
    """-sum over rows of y_i . log z_i (log clamped at 1e-12); the zero rows
    of Y (unlabeled nodes) add nothing."""
    if y.shape != z.shape:
        raise InputError(f"ce_fit shape mismatch: z {z.shape} vs y {y.shape}")
    return ad.scale(ad.sum(ad.elementwise_mul(Tensor(y), ad.log_clamped(z))), -1.0)


def l2_fit(z: Tensor, y: np.ndarray) -> Tensor:
    """sum over the nonzero (labeled) rows i of Y of ||z_i - y_i||^2."""
    if y.shape != z.shape:
        raise InputError(f"l2_fit shape mismatch: z {z.shape} vs y {y.shape}")
    mask = np.broadcast_to(y.any(axis=1, keepdims=True), y.shape)
    diff = ad.elementwise_mul(Tensor(mask), ad.sub(z, Tensor(y)))
    return ad.sum(ad.elementwise_mul(diff, diff))


def l2_smooth(z: Tensor, a_hat: NormalizedAdjacency) -> Tensor:
    """sum over stored entries (i, j) of A_hat_ij * ||z_i - z_j||^2.

    Computed through the Laplacian identity 2 * sum(Z * (L Z)) with
    L = D - A_hat, which the tests check against a scalar double loop.
    """
    if a_hat.n_nodes != z.shape[0]:
        raise InputError(f"l2_smooth: adjacency has {a_hat.n_nodes} nodes, z has {z.shape[0]} rows")
    return ad.scale(ad.sum(ad.elementwise_mul(z, ad.spmm(a_hat.laplacian, z))), 2.0)


def smooth_target(z: Tensor, a_hat: NormalizedAdjacency) -> np.ndarray:
    """The constant target A_hat phi(Z) of ``ce_smooth``: phi is the one-hot
    argmax of each row of Z (ties to the lowest class), recomputed every
    call; as a plain array no gradient flows through it."""
    n, c = z.shape
    return a_hat @ label_matrix(z.values.argmax(axis=1), np.arange(n), c)


def ce_smooth(z: Tensor, a_hat: NormalizedAdjacency) -> Tensor:
    """-sum over stored entries (i, j) of A_hat_ij * phi(z_i) . log z_j.

    Grouping by j turns the double sum into ``ce_fit(Z, A_hat phi(Z))``.
    """
    if a_hat.n_nodes != z.shape[0]:
        raise InputError(f"ce_smooth: adjacency has {a_hat.n_nodes} nodes, z has {z.shape[0]} rows")
    return ce_fit(z, smooth_target(z, a_hat))


def combined_loss(z: Tensor, y: np.ndarray, a_hat: NormalizedAdjacency, cfg: LossConfig) -> Tensor:
    """L_fit(Z, Y) + mu * L_smooth(Z; A_hat); mu = 0 is exactly the
    supervised loss."""
    fit, smooth = (l2_fit, l2_smooth) if cfg.variant == "l2" else (ce_fit, ce_smooth)
    if cfg.mu == 0.0:
        return fit(z, y)
    return ad.add(fit(z, y), ad.scale(smooth(z, a_hat), cfg.mu))

