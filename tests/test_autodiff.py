import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
import scipy.sparse as sp

import gssl.autodiff as ad
from gssl.autodiff import Tensor
from gssl.diffusion import diffuse_direct
from gssl.errors import InputError, NumericError
from gssl.graph import add_self_loops, from_edge_list

from conftest import (appnp_chain, dense, finite_difference_check, normalized, one_shot_alpha_vjp,
                      random_connected_graph, random_graph)

FD_TOL = 1e-4


def leaf(values):
    return Tensor(np.asarray(values, dtype=float), requires_grad=True)


def rand_leaf(rng, rows, cols, low=None, high=None, away_from_zero=False):
    vals = rng.normal(size=(rows, cols))
    if away_from_zero:
        vals = np.sign(vals) * (np.abs(vals) + 0.1)
    if low is not None:
        vals = rng.uniform(low, high, size=(rows, cols))
    return Tensor(vals, requires_grad=True)


# ---------------------------------------------------------------- forwards

def test_relu_forward():
    assert ad.relu(Tensor([[-1.0, 2.0]])).values.tolist() == [[0.0, 2.0]]


def test_relu_matches_the_where_form_bit_for_bit():
    x = np.random.default_rng(3).normal(size=(40, 9))
    x[0, :4] = [0.0, -0.0, 5e-324, -5e-324]
    w = leaf(x)
    out = ad.relu(w)
    assert out.values.tobytes() == np.where(x > 0, x, 0.0).tobytes()
    g = np.random.default_rng(4).normal(size=x.shape)
    (grad,) = out._vjp(g)
    assert np.array_equal(grad, np.where(x > 0, g, 0.0))  # only a zero's sign may differ


def test_row_softmax_symmetric():
    assert np.allclose(ad.row_softmax(Tensor([[0.0, 0.0]])).values, [[0.5, 0.5]])


def test_row_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    s = ad.row_softmax(Tensor(rng.normal(size=(12, 5)) * 10)).values
    assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-10
    assert s.min() >= 0


def test_leaky_relu_forward():
    out = ad.leaky_relu(Tensor([[-1.0, 2.0]]), slope=0.2)
    assert np.allclose(out.values, [[-0.2, 2.0]])


def test_log_clamped_saturates():
    out = ad.log_clamped(Tensor([[0.0, 1.0]]))
    assert np.allclose(out.values, [[np.log(1e-12), 0.0]])


def test_concat_cols_forward():
    out = ad.concat_cols(Tensor([[1.0], [2.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]]))
    assert out.values.tolist() == [[1.0, 3.0, 4.0], [2.0, 5.0, 6.0]]


def mask(seed, shape, rate):
    """A dropout mask: where a uniform draw of a seeded generator is >= ``rate``."""
    return np.random.default_rng(seed).random(shape) >= rate


def test_dropout_rate_zero_is_identity():
    x = leaf(np.ones((3, 3)))
    assert ad.dropout(x, mask(0, (3, 3), 0.0), 0.0) is x


def test_dropout_seed_determinism_and_scaling():
    x = leaf(np.ones((50, 50)))
    a = ad.dropout(x, mask(123, (50, 50), 0.4), 0.4).values
    b = ad.dropout(x, mask(123, (50, 50), 0.4), 0.4).values
    assert np.array_equal(a, b)
    surviving = a[a != 0]
    assert np.allclose(surviving, 1.0 / 0.6)


def test_dropout_vjp_has_the_bits_of_the_multiplier_form():
    rng = np.random.default_rng(5)
    x = leaf(rng.normal(size=(40, 30)))
    g = rng.normal(size=(40, 30))
    g[::3] = 0.0
    g[1::3] *= -0.0  # signed zeros where the mask keeps and where it drops
    keep = mask(11, (40, 30), 0.3)
    out = ad.dropout(x, keep, 0.3)
    assert 0 < keep.sum() < keep.size
    (grad,) = out._vjp(g)
    assert grad.tobytes() == (g * (keep * (1.0 / (1.0 - 0.3)))).tobytes()


def test_dropout_node_keeps_a_one_byte_mask():
    n, d = 2000, 64
    x = leaf(np.ones((n, d)))
    keep = mask(0, (n, d), 0.5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.dropout(x, keep, 0.5)
        node = out._node
        del out  # the node keeps only what its VJP reads
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert node.vjp is not None
    # the boolean mask, n * d bytes; an 8-byte multiplier would be 8 n d
    assert retained <= n * d + 4096, f"dropout node retains {retained} bytes"


@pytest.mark.parametrize("keep", [np.ones((2, 3), dtype=bool), np.ones((3, 2), dtype=bool),
                                  np.ones((2, 2)), [[True, True], [True, True]]],
                         ids=["rows", "cols", "float", "list"])
def test_dropout_rejects_a_mask_that_is_not_a_boolean_array_of_its_shape(keep):
    for rate in (0.0, 0.5):
        with pytest.raises(InputError):
            ad.dropout(leaf(np.ones((2, 2))), keep, rate)


def test_spmm_identity_graph():
    a_hat = normalized(from_edge_list([], 4))
    x = leaf(np.arange(8.0).reshape(4, 2))
    assert np.array_equal(ad.spmm(a_hat, x).values, x.values)


def test_spmm_matches_dense():
    rng = np.random.default_rng(1)
    a_hat = normalized(random_graph(50, 0.1, seed=2))
    x = Tensor(rng.normal(size=(50, 7)))
    assert np.abs(ad.spmm(a_hat, x).values - dense(a_hat) @ x.values).max() < 1e-12


def test_spmm_rejects_a_dense_or_misshaped_left_factor():
    x = Tensor(np.ones((3, 2)))
    with pytest.raises(InputError, match="sparse"):
        ad.spmm(np.ones((3, 3)), x)
    with pytest.raises(InputError, match="shape"):
        ad.spmm(sp.csr_matrix(np.ones((3, 4))), x)


# ---------------------------------------------------------------- backward

def test_backward_sum_gives_ones():
    w = leaf(np.random.default_rng(0).normal(size=(2, 2)))
    ad.backward(ad.sum(w))
    assert np.array_equal(w.grad, np.ones((2, 2)))


def test_backward_square_gives_2w():
    w = leaf(np.random.default_rng(1).normal(size=(3, 4)))
    ad.backward(ad.sum(ad.elementwise_mul(w, w)))
    assert np.allclose(w.grad, 2 * w.values)


def test_backward_accumulates_multiple_uses():
    w = leaf(np.ones((2, 2)))
    # w appears twice through different paths: d/dw [sum(w) + sum(2w)] = 3
    loss = ad.add(ad.sum(w), ad.sum(ad.scale(w, 2.0)))
    ad.backward(loss)
    assert np.array_equal(w.grad, np.full((2, 2), 3.0))


def test_backward_accumulates_across_calls():
    w = leaf(np.ones((2, 2)))
    ad.backward(ad.sum(w))
    ad.backward(ad.sum(w))
    assert np.array_equal(w.grad, np.full((2, 2), 2.0))


def test_backward_rejects_non_scalar():
    w = leaf(np.ones((2, 2)))
    with pytest.raises(InputError):
        ad.backward(ad.relu(w))


def test_backward_is_linear():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(4, 3))

    def grad_of(fn):
        x = leaf(x0)
        ad.backward(fn(x))
        return x.grad

    f = lambda x: ad.sum(ad.elementwise_mul(x, x))
    g = lambda x: ad.sum(ad.relu(x))
    combined = lambda x: ad.add(ad.scale(f(x), 2.5), ad.scale(g(x), -1.5))
    lhs = grad_of(combined)
    rhs = 2.5 * grad_of(f) - 1.5 * grad_of(g)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_spmm_backward_matches_transpose_rule():
    a_hat = normalized(random_graph(12, 0.3, seed=4))
    b = leaf(np.random.default_rng(6).normal(size=(12, 3)))
    ad.backward(ad.sum(ad.spmm(a_hat, b)))
    assert np.allclose(b.grad, dense(a_hat).T @ np.ones((12, 3)))


# --------------------------------------------- constants take no gradient

def test_constant_operand_is_not_a_parent():
    rng = np.random.default_rng(7)
    w = leaf(rng.normal(size=(3, 2)))
    out = ad.matmul(Tensor(rng.normal(size=(4, 3))), w)
    assert out.requires_grad and out._parents == (w,)
    assert len(out._vjp(np.ones((4, 2)))) == 1
    z = leaf(rng.normal(size=(4, 2)))
    assert ad.elementwise_mul(Tensor(rng.normal(size=(4, 2))), z)._parents == (z,)


def test_values_that_no_vjp_reads_are_freed_with_their_tensor():
    rng = np.random.default_rng(8)
    x, w, b = Tensor(rng.normal(size=(6, 4))), leaf(rng.normal(size=(4, 3))), leaf(np.ones((1, 3)))
    mid = ad.matmul(x, w)
    out = ad.add(mid, b)  # the bias add's VJP reads no values
    values = weakref.ref(mid.values)
    del mid
    assert values() is None
    ad.backward(ad.sum(out))
    assert np.allclose(w.grad, x.values.T @ np.ones((6, 3)))


def test_backward_runs_once_per_graph():
    rng = np.random.default_rng(9)
    w = leaf(rng.normal(size=(3, 2)))
    h = ad.relu(ad.matmul(Tensor(rng.normal(size=(5, 3))), w))
    loss = ad.sum(h)
    ad.backward(loss)
    first = w.grad.copy()
    assert loss._parents == () and loss._vjp is None
    with pytest.raises(InputError, match="already ran over this graph"):
        ad.backward(loss)
    with pytest.raises(InputError, match="already ran over this graph"):
        ad.backward(ad.sum(ad.scale(h, 2.0)))  # a new root over the walked part
    assert np.array_equal(w.grad, first)


def test_op_on_constants_records_no_graph():
    out = ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    assert not out.requires_grad and out._vjp is None and out._parents == ()


# ------------------------------------------------- finite-difference suite

def test_fd_check_of_sum_is_tiny():
    x = leaf(np.random.default_rng(2).normal(size=(3, 3)))
    assert finite_difference_check(ad.sum, x) < 1e-10


def fd_cases():
    rng = np.random.default_rng(42)
    a_hat = normalized(random_graph(5, 0.5, seed=0))
    g_sl = add_self_loops(random_graph(5, 0.5, seed=0))
    rows = g_sl.row_index_per_entry()
    const = Tensor(rng.normal(size=(5, 7)))
    row_vec = Tensor(rng.normal(size=(1, 7)))
    other = Tensor(rng.normal(size=(7, 5)))
    alpha_like = rng.uniform(0.2, 1.0, size=(g_sl.nnz, 1))
    rect = sp.csr_matrix(rng.normal(size=(4, 5)) * (rng.random((4, 5)) < 0.6))  # not square
    const_4x7 = Tensor(rng.normal(size=(4, 7)))
    return {
        "matmul_left": (lambda x: ad.sum(ad.matmul(x, other)), (5, 7), {}),
        "matmul_right": (lambda x: ad.sum(ad.matmul(const, ad.matmul(x, const))), (7, 5), {}),
        "add": (lambda x: ad.sum(ad.add(x, const)), (5, 7), {}),
        "add_bias": (lambda x: ad.sum(ad.elementwise_mul(ad.add(const, x), const)), (1, 7), {}),
        "sub": (lambda x: ad.sum(ad.elementwise_mul(ad.sub(x, const), ad.sub(x, const))), (5, 7), {}),
        "scale": (lambda x: ad.sum(ad.scale(x, -2.5)), (5, 7), {}),
        "elementwise_mul": (lambda x: ad.sum(ad.elementwise_mul(x, ad.elementwise_mul(x, const))), (5, 7), {}),
        "elementwise_mul_self": (lambda x: ad.sum(ad.elementwise_mul(x, x)), (5, 7), {}),
        "row_softmax": (lambda x: ad.sum(ad.elementwise_mul(const, ad.row_softmax(x))), (5, 7), {}),
        "log_clamped": (lambda x: ad.sum(ad.log_clamped(x)), (5, 7), {"low": 0.1, "high": 2.0}),
        "relu": (lambda x: ad.sum(ad.relu(x)), (5, 7), {"away_from_zero": True}),
        "leaky_relu": (lambda x: ad.sum(ad.leaky_relu(x, 0.2)), (5, 7), {"away_from_zero": True}),
        "concat_cols_left": (lambda x: ad.sum(ad.elementwise_mul(ad.concat_cols(x, const), ad.concat_cols(const, x))), (5, 7), {}),
        "spmm": (lambda x: ad.sum(ad.elementwise_mul(ad.spmm(a_hat, x), ad.spmm(a_hat, x))), (5, 7), {}),
        "propagate": (lambda x: ad.sum(ad.elementwise_mul(const, ad.propagate(a_hat, x, 0.1, 3))), (5, 7), {}),
        "spmm_rectangular": (lambda x: ad.sum(ad.elementwise_mul(const_4x7, ad.spmm(rect, x))), (5, 7), {}),
        "gather_rows": (lambda x: ad.sum(ad.elementwise_mul(ad.gather_rows(x, rows), ad.gather_rows(x, rows))), (5, 7), {}),
        "edge_softmax": (lambda x: ad.sum(ad.elementwise_mul(Tensor(alpha_like), ad.edge_softmax(x, g_sl))), (g_sl.nnz, 1), {}),
        "edge_aggregate_alpha": (lambda x: ad.sum(ad.elementwise_mul(const, ad.edge_aggregate(x, const, g_sl))), (g_sl.nnz, 1), {}),
        "edge_aggregate_h": (lambda x: ad.sum(ad.elementwise_mul(const, ad.edge_aggregate(Tensor(alpha_like), x, g_sl))), (5, 7), {}),
        "dropout_fixed_seed": (lambda x: ad.sum(ad.dropout(x, mask(9, (5, 7), 0.3), 0.3)), (5, 7), {}),
    }


@pytest.mark.parametrize("name", sorted(fd_cases().keys()))
def test_primitive_gradients_match_finite_differences(name):
    fn, shape, opts = fd_cases()[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # the same inputs in every run
    x = rand_leaf(rng, *shape, **opts)
    assert finite_difference_check(fn, x) < FD_TOL, name


def test_composite_graph_matches_finite_differences():
    rng = np.random.default_rng(11)
    a_hat = normalized(random_graph(6, 0.4, seed=1))
    w1 = Tensor(rng.normal(size=(4, 5)))
    w2 = Tensor(rng.normal(size=(5, 3)))

    def f(x):
        h = ad.relu(ad.matmul(ad.spmm(a_hat, x), w1))
        z = ad.row_softmax(ad.matmul(h, w2))
        return ad.scale(ad.sum(ad.log_clamped(z)), -1.0)

    x = rand_leaf(rng, 6, 4)
    assert finite_difference_check(f, x, step=1e-5) < FD_TOL


# ------------------------------- edge_aggregate's weight gradient in blocks

def aggregate_loss(a_hat, d, seed):
    """sum(g * edge_aggregate(alpha, h, a_hat)) with random constants g and h,
    so the gradient reaching the aggregate is g itself; returns it with alpha,
    g and h."""
    rng = np.random.default_rng(seed)
    alpha = leaf(rng.uniform(size=(a_hat.nnz, 1)))
    g, h = rng.normal(size=(a_hat.n_nodes, d)), rng.normal(size=(a_hat.n_nodes, d))
    loss = ad.sum(ad.elementwise_mul(Tensor(g), ad.edge_aggregate(alpha, Tensor(h), a_hat)))
    return loss, alpha, g, h


# block size: (whole blocks, remainder) of the 480 stored entries
BLOCK_CASES = {"nnz-below-block": (481, (0, 480)),
               "exact-multiple": (96, (5, 0)),
               "multiple-plus-remainder": (100, (4, 80))}


@pytest.mark.parametrize("d", [1, 3, 64])
@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_blocked_alpha_vjp_is_byte_identical_to_one_shot(monkeypatch, case, d):
    a_hat = normalized(random_graph(40, 0.3, seed=0))
    block, split = BLOCK_CASES[case]
    assert divmod(a_hat.nnz, block) == split
    monkeypatch.setattr(ad, "_ENTRY_BLOCK", block)
    loss, alpha, g, h = aggregate_loss(a_hat, d, seed=d)
    ad.backward(loss)
    expected = one_shot_alpha_vjp(g, h, a_hat)
    assert alpha.grad.shape == expected.shape
    assert alpha.grad.tobytes() == expected.tobytes()


def test_alpha_vjp_transient_memory_is_bounded_by_the_block():
    n, d = 300, 64
    a_hat = normalized(random_graph(n, 0.9, seed=0))
    assert a_hat.nnz >= 16 * ad._ENTRY_BLOCK
    loss, alpha, _, _ = aggregate_loss(a_hat, d, seed=0)
    tracemalloc.start()
    try:
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alpha.grad.shape == (a_hat.nnz, 1)
    # the nnz x 1 gradient and row index, two block x d gathers with their
    # product, and the n x d gradients above the aggregate; gathering all
    # entries at once would take 2 nnz x d x 8 bytes (83 MB here)
    bound = 2 * a_hat.nnz * 8 + 4 * ad._ENTRY_BLOCK * d * 8 + 4 * n * d * 8
    assert peak < bound, f"backward peaked at {peak} bytes, bound {bound}"


# ------------------------------------------------ gather_rows' scatter-add

@pytest.mark.parametrize("idx", [[0, 0, 1, 3, 3, 3], [3, 0, 2, 0, 3, 1], [2, 2, 2, 2, 2, 2]],
                         ids=["sorted", "unsorted", "one-row-repeated"])
def test_gather_rows_vjp_has_the_bits_of_add_at(idx):
    idx = np.array(idx)
    rng = np.random.default_rng(len(set(idx.tolist())))
    g = rng.normal(size=(idx.size, 3))
    g[::2, 0] = -0.0  # signed zeros: rows whose terms are all -0.0, and -0.0 among others
    g[:, 1] = -0.0
    out = ad.gather_rows(leaf(np.ones((5, 3))), idx)
    (got,) = out._vjp(g)
    expected = np.zeros((5, 3))
    np.add.at(expected, idx, g)
    assert got.tobytes() == expected.tobytes()


# --------------------------------------------------- APPNP's propagation op

@pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("k", [0, 1, 10])
def test_propagate_has_the_bits_of_the_op_chain(k, alpha):
    mat = normalized(random_graph(30, 0.15, seed=k))
    rng = np.random.default_rng(k)
    h_values, g = rng.normal(size=(30, 4)), rng.normal(size=(30, 4))
    results = []
    for form in (ad.propagate, appnp_chain):
        h = leaf(h_values)
        z = form(mat, h, alpha, k)
        ad.backward(ad.sum(ad.elementwise_mul(z, Tensor(g))))
        results.append((z.values.tobytes(), h.grad.tobytes()))
    assert results[0] == results[1]


def test_propagate_at_zero_steps_is_the_input():
    h = leaf(np.ones((3, 2)))
    assert ad.propagate(normalized(random_graph(3, 1.0, seed=0)), h, 0.1, 0) is h


def test_propagate_over_many_steps_is_the_diffusion_solution():
    # APPNP's K steps converge to the closed-form label diffusion (I - (1 - alpha)
    # A_hat)^-1 alpha H: the "infinite layers" its propagation stands for
    a_hat = normalized(random_connected_graph(60, seed=3))
    h = np.random.default_rng(3).uniform(-1.0, 1.0, size=(60, 3))
    z = ad.propagate(a_hat, Tensor(h), 0.1, 200).values
    assert np.abs(z - diffuse_direct(a_hat, h, 0.1)).max() < 1e-8


def test_propagate_rejects_bad_arguments():
    mat = normalized(random_graph(4, 1.0, seed=0))
    with pytest.raises(InputError):
        ad.propagate(mat, Tensor(np.ones((3, 2))), 0.1, 2)
    with pytest.raises(InputError):
        ad.propagate(mat.toarray(), Tensor(np.ones((4, 2))), 0.1, 2)
    with pytest.raises(InputError):
        ad.propagate(mat, Tensor(np.ones((4, 2))), 0.1, -1)


# ------------------------------------------------------------------ errors

def test_shape_mismatch_raises_input_error():
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)))
    with pytest.raises(InputError):
        ad.matmul(a, b)
    with pytest.raises(InputError):
        ad.add(a, Tensor(np.ones((3, 3))))
    with pytest.raises(InputError):
        ad.sub(a, Tensor(np.ones((1, 3))))
    with pytest.raises(InputError):
        ad.elementwise_mul(a, Tensor(np.ones((3, 2))))


def test_nan_inputs_rejected_at_construction():
    with pytest.raises(NumericError):
        Tensor([[np.nan]])


def test_edge_softmax_rejects_empty_rows():
    g = from_edge_list([(0, 1)], 3)  # node 2 has no incident entries
    with pytest.raises(InputError):
        ad.edge_softmax(Tensor(np.zeros((g.nnz, 1))), g)
