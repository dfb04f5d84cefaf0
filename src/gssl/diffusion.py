"""Label diffusion: closed-form kernel solve and the equivalent fixed-point
iteration, plus a no-learning label-propagation baseline.

Both solvers share the update target Z* = gamma (I - (1-gamma) A_hat)^{-1} Y
with Y one-hot on labeled rows and zero elsewhere (the local and global
consistency solution of Zhou et al. 2004).  Because A_hat is the
normalized, self-looped adjacency (spectral radius <= 1), the system matrix
is sparse, symmetric and positive definite for gamma > 0, with condition
number at most (2-gamma)/gamma: conjugate gradients solve it directly, and
the iteration Z <- (1-gamma) A_hat Z + gamma Y is a contraction from any
starting point.  Neither solver forms an n x n dense matrix.

Z* is also the minimizer of the quadratic objective
||Z - Y||_F^2 + mu tr(Z^T (I - A_hat) Z) at gamma = 1/(mu + 1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg

from .errors import InputError, NumericError
from .graph import NormalizedAdjacency

__all__ = [
    "DiffusionConfig",
    "DiffusionResult",
    "label_matrix",
    "diffuse_direct",
    "diffuse_iterative",
    "propagate_labels",
    "gamma_from_mu",
]


@dataclass
class DiffusionConfig:
    gamma: float
    tol: float = 1e-8
    max_iter: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise InputError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.tol <= 0:
            raise InputError("tol must be positive")
        if self.max_iter < 1:
            raise InputError("max_iter must be >= 1")


class DiffusionResult(NamedTuple):
    z: np.ndarray
    iters: int
    residual: float


def gamma_from_mu(mu: float) -> float:
    """Trade-off conversion gamma = 1 / (mu + 1)."""
    if mu < 0:
        raise InputError("mu must be >= 0")
    return 1.0 / (mu + 1.0)


def label_matrix(labels, labeled, n_classes: int | None = None) -> np.ndarray:
    """n x c matrix: one-hot rows for labeled nodes, zero rows elsewhere."""
    labels = np.asarray(labels, dtype=np.int64)
    labeled = np.asarray(labeled, dtype=np.int64).ravel()
    if labeled.size and (labeled.min() < 0 or labeled.max() >= labels.shape[0]):
        raise InputError("labeled index out of range")
    c = int(labels.max()) + 1 if n_classes is None else n_classes
    y = np.zeros((labels.shape[0], c))
    y[labeled, labels[labeled]] = 1.0
    return y


def _check_inputs(a_hat: NormalizedAdjacency, y: np.ndarray):
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != a_hat.n_nodes:
        raise InputError(f"label matrix shape {y.shape} incompatible with {a_hat.n_nodes} nodes")
    return y


def diffuse_direct(a_hat: NormalizedAdjacency, y, gamma: float) -> np.ndarray:
    """Sparse SPD solve of (I - (1-gamma) A_hat) Z = gamma Y by conjugate
    gradients, one column at a time, to relative residual 1e-12.

    Raises
    ------
    NumericError
        If conjugate gradients stop short of that residual.
    """
    if not 0.0 < gamma <= 1.0:
        raise InputError(f"gamma must be in (0, 1], got {gamma}")
    y = _check_inputs(a_hat, y)
    system = sp.identity(a_hat.n_nodes, format="csr") - (1.0 - gamma) * a_hat.scipy
    z = np.empty_like(y)
    for k in range(y.shape[1]):
        z[:, k], info = cg(system, gamma * y[:, k], rtol=1e-12, atol=0.0)
        if info != 0:
            raise NumericError(f"conjugate gradients did not converge on column {k} (info {info})")
    return z


def diffuse_iterative(a_hat: NormalizedAdjacency, y, cfg: DiffusionConfig,
                      z0=None) -> DiffusionResult:
    """Fixed-point iteration Z <- (1-gamma) A_hat Z + gamma Y from Z = Y.

    Stops when the max-abs elementwise change drops below ``cfg.tol``.
    Non-convergence within ``cfg.max_iter`` is reported as a warning
    carrying the final residual, not an exception; the fixed point does
    not depend on the start, so ``z0`` may override the default Y start.
    """
    y = _check_inputs(a_hat, y)
    gamma = cfg.gamma
    z = y.copy() if z0 is None else np.asarray(z0, dtype=np.float64).copy()
    if z.shape != y.shape:
        raise InputError(f"z0 shape {z.shape} != label matrix shape {y.shape}")
    mat = a_hat.scipy
    gy = gamma * y
    residual = np.inf
    for it in range(1, cfg.max_iter + 1):
        z_next = (1.0 - gamma) * (mat @ z) + gy
        residual = float(np.abs(z_next - z).max())
        z = z_next
        if residual < cfg.tol:
            return DiffusionResult(z, it, residual)
    warnings.warn(
        f"diffusion did not converge in {cfg.max_iter} iterations "
        f"(residual {residual:.3e} > tol {cfg.tol:.3e})",
        RuntimeWarning,
        stacklevel=2,
    )
    return DiffusionResult(z, cfg.max_iter, residual)


def propagate_labels(a_hat: NormalizedAdjacency, y, cfg: DiffusionConfig) -> np.ndarray:
    """Predicted class per node: row-wise argmax of :func:`diffuse_iterative`'s output.

    Labeled rows (rows of Y summing to 1) keep their given class.  A class
    column with no labeled node triggers a warning (its nodes can only be
    reached by ties).
    """
    y = _check_inputs(a_hat, y)
    per_class = y.sum(axis=0)
    if np.any(per_class == 0):
        empty = np.flatnonzero(per_class == 0).tolist()
        warnings.warn(f"classes {empty} have no labeled nodes", RuntimeWarning, stacklevel=2)
    pred = diffuse_iterative(a_hat, y, cfg).z.argmax(axis=1)
    labeled_rows = y.sum(axis=1) > 0
    pred[labeled_rows] = y[labeled_rows].argmax(axis=1)
    return pred

