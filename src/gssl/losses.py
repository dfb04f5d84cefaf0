"""Supervised fitness losses, graph smoothness losses, and their combination.

The combined objective is ``L_fit(Z, Y) + mu * L_smooth(Z; A_hat)`` with
sum reduction throughout (no averaging; ``mu`` absorbs scale).  ``Y`` is
the label matrix of :func:`gssl.diffusion.label_matrix`: one-hot on
labeled rows, zero elsewhere, so the fitness terms run over its nonzero
rows and no separate index list is needed.  The smoothness terms run
over every stored entry of the normalized, self-looped adjacency.  The
(i, i) self-pairs are zero in the L2 variant; in the cross-entropy variant
they contribute a row-entropy term, and a flag decides whether they count.

The cross-entropy smoothness loss pushes each node's predicted
distribution toward its neighbors' current argmax classes: the one-hot
conversion of the neighbor prediction is treated as a constant, so the
gradient flows only through the log term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InputError
from .graph import NormalizedAdjacency

__all__ = [
    "LossConfig",
    "ce_fit",
    "l2_fit",
    "l2_smooth",
    "one_hot_argmax",
    "ce_smooth",
    "combined_loss",
]

VARIANTS = ("cross_entropy", "l2")


@dataclass
class LossConfig:
    """Combined-loss settings; reduction is always sum."""

    mu: float = 1.0
    variant: str = "cross_entropy"
    include_self_loops: bool = True

    def __post_init__(self):
        if not self.mu >= 0:  # written so that NaN fails too
            raise InputError(f"mu must be >= 0, got {self.mu}")
        if self.variant not in VARIANTS:
            raise InputError(f"unknown loss variant {self.variant!r}")


def _as_array(y) -> np.ndarray:
    return y.values if isinstance(y, Tensor) else np.asarray(y, dtype=np.float64)


def ce_fit(z: Tensor, y) -> Tensor:
    """-sum over rows of y_i . log z_i (log clamped at 1e-12); the zero rows
    of Y (unlabeled nodes) add nothing."""
    y = _as_array(y)
    if y.shape != z.shape:
        raise InputError(f"ce_fit shape mismatch: z {z.shape} vs y {y.shape}")
    return ad.scale(ad.sum(ad.elementwise_mul(Tensor(y), ad.log_clamped(z))), -1.0)


def l2_fit(z: Tensor, y) -> Tensor:
    """sum over the nonzero (labeled) rows i of Y of ||z_i - y_i||^2."""
    y = _as_array(y)
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


def one_hot_argmax(z) -> np.ndarray:
    """Row-wise one-hot of the max entry; ties go to the lowest class index.

    Returns a plain constant array: no gradient flows through it.
    """
    values = _as_array(z)
    out = np.zeros(values.shape)
    out[np.arange(values.shape[0]), values.argmax(axis=1)] = 1.0
    return out


def ce_smooth(z: Tensor, a_hat: NormalizedAdjacency, include_self_loops: bool = True) -> Tensor:
    """-sum over stored entries (i, j) of A_hat_ij * phi(z_i) . log z_j.

    phi is the one-hot argmax of the current z, recomputed every call and
    held constant, so the gradient flows only through log z_j.  Grouping
    by j turns the double sum into sum((A_hat phi) * log Z).
    """
    if a_hat.n_nodes != z.shape[0]:
        raise InputError(f"ce_smooth: adjacency has {a_hat.n_nodes} nodes, z has {z.shape[0]} rows")
    phi = one_hot_argmax(z)
    weights = a_hat.scipy @ phi
    if not include_self_loops:
        weights = weights - a_hat.scipy.diagonal()[:, None] * phi
    return ad.scale(ad.sum(ad.elementwise_mul(Tensor(weights), ad.log_clamped(z))), -1.0)


def combined_loss(z: Tensor, y, a_hat: NormalizedAdjacency, cfg: LossConfig) -> Tensor:
    """L_fit(Z, Y) + mu * L_smooth(Z; A_hat); mu = 0 is exactly the
    supervised loss."""
    if cfg.variant == "l2":
        fit = l2_fit(z, y)
        if cfg.mu == 0.0:
            return fit
        smooth = l2_smooth(z, a_hat)
    else:
        fit = ce_fit(z, y)
        if cfg.mu == 0.0:
            return fit
        smooth = ce_smooth(z, a_hat, cfg.include_self_loops)
    return ad.add(fit, ad.scale(smooth, cfg.mu))
