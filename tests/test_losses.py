import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gssl.autodiff as ad
from gssl.autodiff import Tensor
from gssl.diffusion import label_matrix
from gssl.errors import InputError
from gssl.graph import NormalizedAdjacency, from_edge_list
from gssl.losses import (LossConfig, ce_fit, ce_smooth, combined_loss, l2_fit,
                         l2_smooth, smooth_target)

from conftest import dense, finite_difference_check, normalized, random_graph

FD_TOL = 1e-4


# ------------------------------------------------------------ oracles

def loop_l2_smooth(z, a_dense, include_self_loops=True):
    total = 0.0
    n = a_dense.shape[0]
    for i in range(n):
        for j in range(n):
            if a_dense[i, j] != 0 and (include_self_loops or i != j):
                total += a_dense[i, j] * np.sum((z[i] - z[j]) ** 2)
    return total


def loop_ce_smooth(z, a_dense):
    phi = np.zeros_like(z)
    phi[np.arange(z.shape[0]), z.argmax(axis=1)] = 1.0
    total = 0.0
    n = a_dense.shape[0]
    for i in range(n):
        for j in range(n):
            if a_dense[i, j] != 0:
                total -= a_dense[i, j] * phi[i] @ np.log(np.maximum(z[j], 1e-12))
    return total


def loop_combined_l2(z, y, labeled, a_dense, mu):
    fit = sum(np.sum((z[i] - y[i]) ** 2) for i in labeled)
    return fit + mu * loop_l2_smooth(z, a_dense)


def random_distribution(rng, n, c):
    raw = rng.normal(size=(n, c))
    e = np.exp(raw - raw.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def two_node_adjacency(weight=0.5) -> NormalizedAdjacency:
    # just the off-diagonal pair, no self-loops
    return NormalizedAdjacency(
        (np.array([weight, weight]), np.array([1, 0], dtype=np.int64),
         np.array([0, 1, 2], dtype=np.int64)),
        shape=(2, 2),
    )


def identity_adjacency(n) -> NormalizedAdjacency:
    return normalized(from_edge_list([], n))  # self-loops only: A_hat = I


# ------------------------------------------------------- softmax of logits

def test_softmax_uniform_row():
    z = ad.row_softmax(Tensor([[0.0, 0.0, 0.0]]))
    assert np.allclose(z.values, [[1 / 3, 1 / 3, 1 / 3]])


def test_softmax_shift_invariance_and_argmax():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(8, 4))
    a = ad.row_softmax(Tensor(logits)).values
    b = ad.row_softmax(Tensor(logits + 7.5)).values
    assert np.abs(a - b).max() < 1e-12
    assert np.array_equal(a.argmax(axis=1), logits.argmax(axis=1))


# ------------------------------------------------------------------ ce_fit

def test_ce_fit_exact_one_hot_contributes_zero():
    z = Tensor([[0.0, 1.0, 0.0], [0.2, 0.3, 0.5]])
    y = label_matrix([1, 0], [0], 3)
    assert ce_fit(z, y).values[0, 0] == 0.0


def test_ce_fit_uniform_is_log_c():
    c = 5
    z = Tensor(np.full((3, c), 1.0 / c))
    y = label_matrix([0, 1, 2], [1], c)
    assert np.isclose(ce_fit(z, y).values[0, 0], np.log(c))


def test_ce_fit_empty_labeled_set_is_zero():
    z = Tensor(np.full((3, 2), 0.5))
    y = label_matrix([0, 1, 0], [], 2)
    assert ce_fit(z, y).values[0, 0] == 0.0


# ------------------------------------------------------------------ l2

def test_l2_fit_zero_when_matching():
    y = np.eye(3)[[0, 1, 2, 0]]
    assert l2_fit(Tensor(y), y).values[0, 0] == 0.0


def test_l2_smooth_constant_rows_give_zero():
    a_hat = normalized(random_graph(10, 0.3, seed=1))
    z = Tensor(np.tile([0.2, 0.8], (10, 1)))
    assert abs(l2_smooth(z, a_hat).values[0, 0]) < 1e-12


def test_l2_smooth_matches_scalar_loop_and_laplacian_trace():
    rng = np.random.default_rng(3)
    for seed in range(3):
        a_hat = normalized(random_graph(14, 0.25, seed=seed))
        mat = dense(a_hat)
        z = rng.normal(size=(14, 3))
        ours = l2_smooth(Tensor(z), a_hat).values[0, 0]
        assert np.isclose(ours, loop_l2_smooth(z, mat), rtol=1e-10)
        lap = np.diag(mat.sum(axis=1)) - mat
        assert np.isclose(ours, 2.0 * np.trace(z.T @ lap @ z), rtol=1e-10)


def test_l2_smooth_matches_loop_with_and_without_self_pairs():
    # (i, i) pairs contribute zero distance, so the sum is the same with
    # or without them
    a_hat = normalized(random_graph(9, 0.3, seed=5))
    mat = dense(a_hat)
    z = np.random.default_rng(4).normal(size=(9, 2))
    ours = l2_smooth(Tensor(z), a_hat).values[0, 0]
    for include in (True, False):
        assert np.isclose(ours, loop_l2_smooth(z, mat, include), rtol=1e-10)
    cfg = LossConfig(mu=1.0, variant="l2")
    combined = combined_loss(Tensor(z), np.zeros_like(z), a_hat, cfg).values[0, 0]
    assert np.isclose(combined, ours, rtol=1e-12)


def test_l2_smooth_zero_iff_constant_per_component():
    import scipy.sparse.csgraph as csgraph

    g = from_edge_list([(0, 1), (1, 2), (3, 4)], 6)  # components {0,1,2}, {3,4}, {5}
    a_hat = normalized(g)
    n_comp, comp = csgraph.connected_components(g, directed=False)
    rng = np.random.default_rng(6)
    per_comp = rng.normal(size=(n_comp, 2))
    z_const = per_comp[comp]
    assert abs(l2_smooth(Tensor(z_const), a_hat).values[0, 0]) < 1e-12
    z_bump = z_const.copy()
    z_bump[1] += 0.5  # break constancy inside the first component
    assert l2_smooth(Tensor(z_bump), a_hat).values[0, 0] > 1e-3


# ---------------------------------------------------------- smooth_target

def test_smooth_target_identity_adjacency_is_one_hot_argmax():
    z = Tensor([[0.1, 0.7, 0.2], [0.5, 0.3, 0.2]])
    assert smooth_target(z, identity_adjacency(2)).tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]


def test_smooth_target_tie_breaks_low():
    assert smooth_target(Tensor([[0.5, 0.5]]), identity_adjacency(1)).tolist() == [[1.0, 0.0]]


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.lists(st.floats(-5, 5).map(lambda v: round(v, 3)), min_size=3, max_size=3),
    min_size=1, max_size=6,
))
def test_smooth_target_monotone_invariant(rows):
    # quantized inputs: distinct entries stay distinct under the transform
    z = np.asarray(rows)
    a_hat = identity_adjacency(z.shape[0])
    transformed = np.exp(0.5 * z) + 3.0  # strictly increasing elementwise
    out = smooth_target(Tensor(z), a_hat)
    assert np.array_equal(out, smooth_target(Tensor(transformed), a_hat))
    assert np.all(out.sum(axis=1) == 1.0)
    assert set(np.unique(out).tolist()) <= {0.0, 1.0}


# -------------------------------------------------------------- ce_smooth

def test_ce_smooth_two_node_hand_case():
    # oracle: phi(z1)=[1,0] and phi(z2)=[0,1] both hit log z[.,argmax-of-neighbor],
    # giving -(0.5 log 0.1 + 0.5 log 0.1) = -log 0.1
    a_hat = two_node_adjacency(0.5)
    z = np.array([[0.9, 0.1], [0.1, 0.9]])
    expected = loop_ce_smooth(z, dense(a_hat))
    assert np.isclose(expected, -np.log(0.1))
    assert np.isclose(ce_smooth(Tensor(z), a_hat).values[0, 0], expected)


def test_ce_smooth_identity_adjacency_is_row_entropy_of_max():
    a_hat = identity_adjacency(4)
    rng = np.random.default_rng(7)
    z = random_distribution(rng, 4, 3)
    expected = -np.sum(np.log(z.max(axis=1)))
    assert np.isclose(ce_smooth(Tensor(z), a_hat).values[0, 0], expected)


def test_ce_smooth_matches_scalar_loop():
    rng = np.random.default_rng(8)
    for seed in range(3):
        a_hat = normalized(random_graph(12, 0.3, seed=seed))
        z = random_distribution(rng, 12, 4)
        ours = ce_smooth(Tensor(z), a_hat).values[0, 0]
        assert np.isclose(ours, loop_ce_smooth(z, dense(a_hat)), rtol=1e-10)


def test_ce_smooth_saturated_consensus_vanishes():
    a_hat = normalized(random_graph(8, 0.4, seed=2))
    z = np.tile([1.0 - 1e-9, 0.5e-9, 0.5e-9], (8, 1))
    assert 0.0 <= ce_smooth(Tensor(z), a_hat).values[0, 0] < 1e-6


def test_smoothness_losses_non_negative():
    rng = np.random.default_rng(9)
    a_hat = normalized(random_graph(10, 0.3, seed=3))
    z = random_distribution(rng, 10, 3)
    assert ce_smooth(Tensor(z), a_hat).values[0, 0] >= 0.0
    assert l2_smooth(Tensor(z), a_hat).values[0, 0] >= 0.0


def test_ce_smooth_gradient_flows_only_through_log():
    # phi is a constant: at a one-hot-saturated consensus the pull is toward
    # raising every neighbor's probability of the shared argmax class
    a_hat = two_node_adjacency(0.5)
    z = Tensor(np.array([[0.9, 0.1], [0.8, 0.2]]), requires_grad=True)
    ad.backward(ce_smooth(z, a_hat))
    # d loss / d z[j, argmax] = -sum_i A_ij / z[j, argmax]
    assert np.isclose(z.grad[0, 0], -0.5 / 0.9)
    assert np.isclose(z.grad[1, 0], -0.5 / 0.8)
    assert z.grad[0, 1] == 0.0 and z.grad[1, 1] == 0.0


# ----------------------------------------------------------- combined_loss

def test_combined_mu_zero_recovers_fit_exactly():
    rng = np.random.default_rng(10)
    a_hat = normalized(random_graph(8, 0.3, seed=4))
    z_vals = random_distribution(rng, 8, 3)
    y = label_matrix(rng.integers(0, 3, size=8), [0, 2, 5], 3)
    for variant, fit_fn in (("cross_entropy", ce_fit), ("l2", l2_fit)):
        cfg = LossConfig(mu=0.0, variant=variant)
        ours = combined_loss(Tensor(z_vals), y, a_hat, cfg).values[0, 0]
        assert ours == fit_fn(Tensor(z_vals), y).values[0, 0]


def test_default_mu_is_zero():
    # a caller who does not set mu trains the fit loss alone (the test above)
    assert LossConfig().mu == 0.0


def test_combined_l2_matches_scalar_loop_eq_form():
    rng = np.random.default_rng(11)
    a_hat = normalized(random_graph(15, 0.25, seed=6))
    z = random_distribution(rng, 15, 3)
    labeled = [1, 4, 9, 12]
    y = label_matrix(rng.integers(0, 3, size=15), labeled, 3)
    cfg = LossConfig(mu=1.0, variant="l2")
    ours = combined_loss(Tensor(z), y, a_hat, cfg).values[0, 0]
    assert np.isclose(ours, loop_combined_l2(z, y, labeled, dense(a_hat), 1.0), rtol=1e-10)


def test_combined_loss_monotone_in_mu():
    rng = np.random.default_rng(12)
    a_hat = normalized(random_graph(10, 0.3, seed=7))
    z = Tensor(random_distribution(rng, 10, 3))
    y = label_matrix(rng.integers(0, 3, size=10), [0, 1], 3)
    values = [
        combined_loss(z, y, a_hat, LossConfig(mu=mu)).values[0, 0]
        for mu in (0.0, 0.1, 0.5, 1.0, 2.0)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def margin_ok(z, margin=1e-3):
    part = np.partition(z, -2, axis=1)
    return np.all(part[:, -1] - part[:, -2] > margin)


def test_combined_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    a_hat = normalized(random_graph(7, 0.4, seed=8))
    y = label_matrix(rng.integers(0, 3, size=7), [0, 3], 3)
    cfg = LossConfig(mu=0.7, variant="cross_entropy")

    def f(x):
        return combined_loss(ad.row_softmax(x), y, a_hat, cfg)

    x = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    # keep argmax stable under the +-1e-5 probes so phi stays fixed
    assert margin_ok(ad.row_softmax(x).values)
    assert finite_difference_check(f, x) < FD_TOL


def test_combined_l2_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    a_hat = normalized(random_graph(7, 0.4, seed=9))
    y = label_matrix(rng.integers(0, 3, size=7), [1, 5], 3)
    cfg = LossConfig(mu=0.5, variant="l2")

    def f(x):
        return combined_loss(x, y, a_hat, cfg)

    x = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    assert finite_difference_check(f, x) < FD_TOL


def test_combined_loss_of_one_layer_model_matches_finite_differences():
    # end-to-end through a 1-layer model on a 10-node graph, gradient
    # taken with respect to the layer weight
    from gssl.models import Model, ModelConfig

    rng = np.random.default_rng(16)
    g = random_graph(10, 0.3, seed=11)
    a_hat = normalized(g)
    x = Tensor(rng.normal(size=(10, 4)))
    y = label_matrix(rng.integers(0, 3, size=10), [0, 4, 7], 3)
    model = Model.init(ModelConfig(kind="gcn", n_layers=1), 4, 3, seed=12)
    cfg = LossConfig(mu=0.5, variant="cross_entropy")

    def f(_):
        z = ad.row_softmax(model.forward(x, a_hat))
        return combined_loss(z, y, a_hat, cfg)

    weight = model.params[0].weight
    assert margin_ok(ad.row_softmax(model.forward(x, a_hat)).values)
    assert finite_difference_check(f, weight) < FD_TOL


def test_ce_smooth_gradient_matches_finite_differences():
    rng = np.random.default_rng(15)
    a_hat = normalized(random_graph(6, 0.5, seed=10))

    def f(x):
        return ce_smooth(ad.row_softmax(x), a_hat)

    x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    assert margin_ok(ad.row_softmax(x).values)
    assert finite_difference_check(f, x) < FD_TOL


def test_loss_config_validation():
    with pytest.raises(InputError):
        LossConfig(mu=-0.1)
    with pytest.raises(InputError):
        LossConfig(variant="kl")
