import numpy as np
import pytest

import gssl.autodiff as ad
from gssl.autodiff import Tensor
from gssl.errors import InputError, NumericError
from gssl.graph import add_self_loops, from_edge_list

from conftest import dense, finite_difference_check, normalized, random_graph

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


def test_dropout_rate_zero_is_identity():
    x = leaf(np.ones((3, 3)))
    assert ad.dropout(x, 0.0, rng=0) is x


def test_dropout_seed_determinism_and_scaling():
    x = leaf(np.ones((50, 50)))
    a = ad.dropout(x, 0.4, rng=123).values
    b = ad.dropout(x, 0.4, rng=123).values
    assert np.array_equal(a, b)
    surviving = a[a != 0]
    assert np.allclose(surviving, 1.0 / 0.6)


def test_dropout_needs_rng_when_training():
    with pytest.raises(InputError):
        ad.dropout(leaf(np.ones((2, 2))), 0.5)


def test_spmm_identity_graph():
    a_hat = normalized(from_edge_list([], 4))
    x = leaf(np.arange(8.0).reshape(4, 2))
    assert np.array_equal(ad.spmm(a_hat, x).values, x.values)


def test_spmm_matches_dense():
    rng = np.random.default_rng(1)
    a_hat = normalized(random_graph(50, 0.1, seed=2))
    x = Tensor(rng.normal(size=(50, 7)))
    assert np.abs(ad.spmm(a_hat, x).values - dense(a_hat) @ x.values).max() < 1e-12


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
        "gather_rows": (lambda x: ad.sum(ad.elementwise_mul(ad.gather_rows(x, rows), ad.gather_rows(x, rows))), (5, 7), {}),
        "edge_softmax": (lambda x: ad.sum(ad.elementwise_mul(Tensor(alpha_like), ad.edge_softmax(x, g_sl))), (g_sl.nnz, 1), {}),
        "edge_aggregate_alpha": (lambda x: ad.sum(ad.elementwise_mul(const, ad.edge_aggregate(x, const, g_sl))), (g_sl.nnz, 1), {}),
        "edge_aggregate_h": (lambda x: ad.sum(ad.elementwise_mul(const, ad.edge_aggregate(Tensor(alpha_like), x, g_sl))), (5, 7), {}),
        "dropout_fixed_seed": (lambda x: ad.sum(ad.dropout(x, 0.3, rng=9)), (5, 7), {}),
    }


@pytest.mark.parametrize("name", sorted(fd_cases().keys()))
def test_primitive_gradients_match_finite_differences(name):
    fn, shape, opts = fd_cases()[name]
    rng = np.random.default_rng(abs(hash(name)) % 2**31)
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


def test_overflow_names_the_op():
    big = Tensor(np.full((2, 2), 1e200))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="matmul"):
        ad.matmul(big, big)


def test_edge_softmax_rejects_empty_rows():
    g = from_edge_list([(0, 1)], 3)  # node 2 has no incident entries
    with pytest.raises(InputError):
        ad.edge_softmax(Tensor(np.zeros((g.nnz, 1))), g)
