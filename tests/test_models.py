from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import gssl.autodiff as ad
from gssl import models
from gssl.autodiff import Tensor
from gssl.errors import InputError, NumericError
from gssl.graph import NormalizedAdjacency, from_edge_list
from gssl.models import (LayerParams, Model, ModelConfig, gat_attention, glorot_init,
                         hidden_embedding, init_params, load_checkpoint, save_checkpoint)

from conftest import (concat_gat_attention, dense, entry_positions, explicit_zero_dropout,
                      finite_difference_check, normalized, random_connected_graph, random_graph)

FD_TOL = 1e-4


def test_config_validation():
    with pytest.raises(InputError):
        ModelConfig(kind="sage", n_layers=2)
    with pytest.raises(InputError):
        ModelConfig(kind="mlp", n_layers=0)
    with pytest.raises(InputError):
        ModelConfig(kind="mlp", n_layers=1, dropout=1.0)
    with pytest.raises(InputError):
        ModelConfig(kind="appnp", n_layers=2, appnp_alpha=1.5)


# ------------------------------------------------------------------ glorot

def test_glorot_bound_square():
    w = glorot_init(3, 3, seed=0)  # bound sqrt(6/6) = 1
    assert w.values.min() >= -1.0 and w.values.max() <= 1.0
    assert w.requires_grad


def test_glorot_deterministic():
    assert np.array_equal(glorot_init(4, 6, seed=7).values, glorot_init(4, 6, seed=7).values)


def test_glorot_statistical_mean():
    # 12500 draws of 2x4 (bound = 1) -> 1e5 uniform samples; se ~ 0.0018
    samples = np.concatenate([
        glorot_init(2, 4, seed=s).values.ravel()
        for s in np.random.SeedSequence(0).spawn(12500)
    ])
    assert samples.shape[0] == 100_000
    assert abs(samples.mean()) < 0.01
    assert samples.min() >= -1.0 and samples.max() <= 1.0


# --------------------------------------------------------------------- mlp

def identity_params(d):
    return [LayerParams(Tensor(np.eye(d), requires_grad=True),
                        Tensor(np.zeros((1, d)), requires_grad=True))]


def test_mlp_single_layer_identity_weights():
    cfg = ModelConfig(kind="mlp", n_layers=1)
    x = Tensor(np.random.default_rng(0).normal(size=(5, 3)))
    out = Model(cfg, identity_params(3)).forward(x)
    assert np.array_equal(out.values, x.values)


def test_mlp_zero_input_zero_bias_gives_zero_logits():
    cfg = ModelConfig(kind="mlp", n_layers=2, hidden_dim=4)
    params = init_params(cfg, 3, 2, seed=1)
    out = Model(cfg, params).forward(Tensor(np.zeros((6, 3))))
    assert np.array_equal(out.values, np.zeros((6, 2)))


# --------------------------------------------------------------------- gcn

def test_gcn_with_identity_adjacency_equals_mlp():
    cfg = ModelConfig(kind="gcn", n_layers=2, hidden_dim=8)
    params = init_params(cfg, 5, 3, seed=2)
    a_hat = normalized(from_edge_list([], 7))  # A_hat = I
    x = Tensor(np.random.default_rng(1).normal(size=(7, 5)))
    gcn_out = Model(cfg, params).forward(x, a_hat)
    mlp_out = Model(ModelConfig(kind="mlp", n_layers=2, hidden_dim=8), params).forward(x)
    assert np.array_equal(gcn_out.values, mlp_out.values)


def test_gcn_single_isolated_node_is_linear_chain():
    cfg = ModelConfig(kind="gcn", n_layers=2, hidden_dim=4)
    params = init_params(cfg, 3, 2, seed=3)
    a_hat = normalized(from_edge_list([], 1))
    x_vals = np.random.default_rng(2).normal(size=(1, 3))
    out = Model(cfg, params).forward(Tensor(x_vals), a_hat)
    h = np.maximum(x_vals @ params[0].weight.values + params[0].bias.values, 0.0)
    expected = h @ params[1].weight.values + params[1].bias.values
    assert np.allclose(out.values, expected, atol=1e-12)


# --------------------------------------------------------------------- gat

def test_gat_requires_self_loops():
    cfg = ModelConfig(kind="gat", n_layers=1)
    params = init_params(cfg, 3, 2, seed=4)
    # the normalized edge (0, 1) alone, without the diagonal entries
    a_hat = NormalizedAdjacency((np.array([1.0, 1.0]), np.array([1, 0]), np.array([0, 1, 2])),
                                shape=(2, 2))
    with pytest.raises(InputError, match="self-loop"):
        Model(cfg, params).forward(Tensor(np.zeros((2, 3))), a_hat)


@pytest.mark.parametrize("kind", ["gcn", "gat", "appnp"])
def test_graph_kinds_need_a_hat(kind):
    model = Model.init(ModelConfig(kind=kind, n_layers=2), 3, 2, seed=4)
    with pytest.raises(InputError, match=f"{kind} forward needs .*a_hat"):
        model.forward(Tensor(np.zeros((2, 3))))


def test_gat_zero_attention_reduces_to_mean_aggregation():
    a_hat = normalized(random_graph(9, 0.4, seed=5))
    cfg = ModelConfig(kind="gat", n_layers=1)
    params = init_params(cfg, 4, 3, seed=6)
    params[0].attn.values[:] = 0.0
    x_vals = np.random.default_rng(3).normal(size=(9, 4))
    out = Model(cfg, params).forward(Tensor(x_vals), a_hat)
    wh = x_vals @ params[0].weight.values + params[0].bias.values
    edges = (dense(a_hat) != 0).astype(float)  # the self-looped edge set
    mean_agg = (edges / edges.sum(axis=1, keepdims=True)) @ wh
    assert np.allclose(out.values, mean_agg, atol=1e-12)


def test_gat_attention_rows_sum_to_one():
    a_hat = normalized(random_graph(12, 0.3, seed=7))
    cfg = ModelConfig(kind="gat", n_layers=2, hidden_dim=6)
    model = Model.init(cfg, 5, 3, seed=8)
    x = Tensor(np.random.default_rng(4).normal(size=(12, 5)))
    # each layer's input: the features, then the first layer's activations
    for h, p in zip([x, hidden_embedding(model, x, a_hat)], model.params):
        alpha = gat_attention(ad.add(ad.matmul(h, p.weight), p.bias), p.attn, a_hat, cfg)
        sums = np.add.reduceat(alpha.values[:, 0], a_hat.indptr[:-1])
        assert np.abs(sums - 1.0).max() < 1e-10


@pytest.mark.parametrize("seed", [40, 41, 42])
def test_gat_attention_matches_the_concat_form(seed):
    n = 12 + 5 * (seed - 40)
    a_hat = normalized(random_graph(n, 0.35, seed=seed))
    cfg = ModelConfig(kind="gat", n_layers=2, hidden_dim=6)
    model = Model.init(cfg, 5, 3, seed=seed + 10)
    x = Tensor(np.random.default_rng(seed).normal(size=(n, 5)))
    for h, p in zip([x, hidden_embedding(model, x, a_hat)], model.params):
        wh = ad.add(ad.matmul(h, p.weight), p.bias)
        per_node = gat_attention(wh, p.attn, a_hat, cfg).values
        concat = concat_gat_attention(wh, p.attn, a_hat, cfg.leaky_slope).values
        assert np.abs(per_node - concat).max() < 1e-12


def test_gat_checkpoint_of_the_concat_form_gives_the_same_logits():
    """``data/gat_2layer.npz`` and its logits were written when GAT scored
    entries in the concat form; the 2d x 1 ``attn`` loads unchanged."""
    data = Path(__file__).parent / "data"
    model = load_checkpoint(data / "gat_2layer.npz")
    assert [p.attn.shape for p in model.params] == [(12, 1), (6, 1)]
    a_hat = normalized(random_graph(15, 0.3, seed=32))
    x = Tensor(np.random.default_rng(33).normal(size=(15, 5)))
    logits = model.forward(x, a_hat).values
    assert np.abs(logits - np.load(data / "gat_2layer_logits.npy")).max() < 1e-12


# ------------------------------------------------------------------- appnp

def test_appnp_alpha_one_returns_trunk_output():
    cfg = ModelConfig(kind="appnp", n_layers=2, hidden_dim=4, appnp_alpha=1.0, appnp_k=7)
    params = init_params(cfg, 3, 2, seed=9)
    a_hat = normalized(random_graph(8, 0.3, seed=10))
    x = Tensor(np.random.default_rng(5).normal(size=(8, 3)))
    out = Model(cfg, params).forward(x, a_hat)
    trunk = Model(ModelConfig(kind="mlp", n_layers=2, hidden_dim=4), params).forward(x)
    assert np.array_equal(out.values, trunk.values)


def test_appnp_k_zero_returns_trunk_output():
    cfg = ModelConfig(kind="appnp", n_layers=2, hidden_dim=4, appnp_k=0)
    params = init_params(cfg, 3, 2, seed=11)
    a_hat = normalized(random_graph(8, 0.3, seed=12))
    x = Tensor(np.random.default_rng(6).normal(size=(8, 3)))
    out = Model(cfg, params).forward(x, a_hat)
    trunk = Model(ModelConfig(kind="mlp", n_layers=2, hidden_dim=4), params).forward(x)
    assert np.array_equal(out.values, trunk.values)


def test_appnp_iteration_contracts():
    a_hat = normalized(random_connected_graph(60, seed=13))
    x = Tensor(np.random.default_rng(7).normal(size=(60, 5)))
    params = init_params(ModelConfig(kind="appnp", n_layers=2, hidden_dim=8), 5, 3, seed=14)
    outs = []
    for k in range(12):
        cfg = ModelConfig(kind="appnp", n_layers=2, hidden_dim=8, appnp_alpha=0.1, appnp_k=k)
        outs.append(Model(cfg, params).forward(x, a_hat).values)
    diffs = [np.abs(b - a).max() for a, b in zip(outs, outs[1:])]
    tail = diffs[2:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


def test_appnp_training_graph_does_not_grow_with_k():
    # the K propagation steps are one graph vertex, whatever K is
    a_hat = normalized(random_connected_graph(20, seed=15))
    x = Tensor(np.random.default_rng(8).normal(size=(20, 5)))
    counts = []
    for k in (1, 10):
        cfg = ModelConfig(kind="appnp", n_layers=2, hidden_dim=8, appnp_k=k)
        model = Model(cfg, init_params(cfg, 5, 3, seed=16))
        logits = model.forward(x, a_hat, training=True, rng=np.random.default_rng(0))
        counts.append(len(ad._topo_order(ad.sum(logits)._vertex)))
    assert counts[0] == counts[1]


# ------------------------------------------------------ shared properties

def permute_inputs(g_pairs, n, x_vals, perm):
    pairs = [(int(perm[u]), int(perm[v])) for u, v in g_pairs]
    x_new = np.empty_like(x_vals)
    x_new[perm] = x_vals
    return pairs, x_new


@pytest.mark.parametrize("kind", ["mlp", "gcn", "gat", "appnp"])
def test_forward_is_permutation_equivariant(kind):
    rng = np.random.default_rng(8)
    n, d, c = 15, 4, 3
    pairs = [(int(u), int(v)) for u, v in zip(rng.integers(0, n, 25), rng.integers(0, n, 25))]
    x_vals = rng.normal(size=(n, d))
    perm = rng.permutation(n)
    cfg = ModelConfig(kind=kind, n_layers=2, hidden_dim=6)
    model = Model.init(cfg, d, c, seed=15)

    def run(p, xv):
        return model.forward(Tensor(xv), normalized(from_edge_list(p, n))).values

    base = run(pairs, x_vals)
    permuted_pairs, permuted_x = permute_inputs(pairs, n, x_vals, perm)
    permuted = run(permuted_pairs, permuted_x)
    expected = np.empty_like(base)
    expected[perm] = base
    assert np.abs(permuted - expected).max() < 1e-12


@pytest.mark.parametrize("kind", ["mlp", "gcn", "gat", "appnp"])
def test_layer_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(9)
    n, d, c = 7, 4, 3
    a_hat = normalized(random_graph(n, 0.4, seed=16))
    cfg = ModelConfig(kind=kind, n_layers=2, hidden_dim=5)
    model = Model.init(cfg, d, c, seed=17)
    x = Tensor(rng.normal(size=(n, d)))
    probe = Tensor(rng.normal(size=(n, c)))

    def loss_through(_):
        out = model.forward(x, a_hat)
        return ad.sum(ad.elementwise_mul(probe, out))

    for target in model.parameters():
        assert finite_difference_check(loss_through, target) < FD_TOL


def test_model_init_deterministic():
    cfg = ModelConfig(kind="gat", n_layers=2, hidden_dim=6)
    m1 = Model.init(cfg, 5, 3, seed=21)
    m2 = Model.init(cfg, 5, 3, seed=21)
    for a, b in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a.values, b.values)


def test_gat_param_shapes():
    cfg = ModelConfig(kind="gat", n_layers=2, hidden_dim=6)
    params = init_params(cfg, 5, 3, seed=22)
    assert params[0].weight.shape == (5, 6)
    assert params[0].attn.shape == (12, 1)
    assert params[1].attn.shape == (6, 1)


def test_dropout_only_in_training_and_before_hidden_layers():
    cfg = ModelConfig(kind="mlp", n_layers=2, hidden_dim=4, dropout=0.5)
    model = Model.init(cfg, 3, 2, seed=23)
    x = Tensor(np.random.default_rng(10).normal(size=(20, 3)))
    eval_out = model.forward(x, training=False)
    eval_out2 = model.forward(x, training=False)
    assert np.array_equal(eval_out.values, eval_out2.values)
    w1, b1, w2, b2 = (t.values for t in model.parameters())
    no_dropout = np.maximum(x.values @ w1 + b1, 0.0) @ w2 + b2
    assert np.allclose(eval_out.values, no_dropout, atol=1e-12)
    train_out = model.forward(x, training=True, rng=np.random.default_rng(0))
    assert not np.array_equal(train_out.values, eval_out.values)
    # a single layer is the output layer, so training drops nothing
    single = Model.init(ModelConfig(kind="mlp", n_layers=1, dropout=0.5), 3, 2, seed=23)
    assert np.array_equal(single.forward(x, training=True, rng=np.random.default_rng(0)).values,
                          single.forward(x).values)


def test_dropout_needs_rng_when_training():
    # an int seed once made a fresh generator per layer, so that layers of one
    # shape drew one mask
    model = Model.init(ModelConfig(kind="mlp", n_layers=2, hidden_dim=4), 3, 2, seed=0)
    for rng in (None, 0):
        with pytest.raises(InputError, match="Generator"):
            model.forward(Tensor(np.ones((5, 3))), training=True, rng=rng)


def test_each_dropout_layer_draws_its_own_mask(monkeypatch):
    model = Model.init(ModelConfig(kind="mlp", n_layers=3, hidden_dim=8, dropout=0.5), 8, 2,
                       seed=0)
    masks, dropout = [], ad.dropout

    def spy(a, keep, rate):
        masks.append(keep)
        return dropout(a, keep, rate)

    monkeypatch.setattr(ad, "dropout", spy)
    model.forward(Tensor(np.random.default_rng(1).normal(size=(20, 8))), training=True,
                  rng=np.random.default_rng(0))
    assert [m.shape for m in masks] == [(20, 8), (20, 8)]
    assert not np.array_equal(masks[0], masks[1])


def test_dropout_of_some_rows_keeps_their_draws_of_the_whole_input():
    x = Tensor(np.random.default_rng(6).normal(size=(30, 4)), requires_grad=True)
    idx = np.array([2, 3, 11, 29])
    whole_rng, part_rng = np.random.default_rng(7), np.random.default_rng(7)
    whole = models._dropout(x, 0.5, whole_rng)
    part = models._dropout(Tensor(x.values[idx], requires_grad=True), 0.5, part_rng, (x, idx))
    assert part.values.tobytes() == whole.values[idx].tobytes()
    assert whole_rng.bit_generator.state == part_rng.bit_generator.state
    with pytest.raises(InputError, match="boolean array of its shape"):  # ad.dropout's check
        models._dropout(Tensor(x.values[idx], requires_grad=True), 0.5,
                        np.random.default_rng(0), (x, idx[:3]))


def test_a_field_sparse_x_mask_is_the_whole_x_mask_at_its_rows_entries():
    x = sp.csr_matrix((np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),  # a stored zero in row 0
                       np.array([0, 2, 1, 0, 3, 2, 3]), np.array([0, 2, 3, 3, 5, 7])), shape=(5, 4))
    rows = np.array([0, 2, 4])  # row 2 is empty
    whole_rng, part_rng = np.random.default_rng(3), np.random.default_rng(3)
    whole = models._keep(x, 0.5, whole_rng)
    part = models._keep(x, 0.5, part_rng, rows)
    assert whole.shape == (7, 1) and 0 < whole.sum() < 7
    assert part.tobytes() == whole[entry_positions(x, rows)].tobytes() and part.shape == (4, 1)
    assert whole_rng.bit_generator.state == part_rng.bit_generator.state


def sparse_features(n=30, d=8, seed=12):
    rng = np.random.default_rng(seed)
    return sp.csr_matrix((rng.random((n, d)) + 0.1) * (rng.random((n, d)) < 0.3))


@pytest.mark.parametrize("kind", ["mlp", "gcn", "gat", "appnp"])
def test_sparse_and_dense_inputs_give_the_same_logits(kind):
    x = sparse_features()
    a_hat = normalized(random_connected_graph(30, seed=14))
    model = Model.init(ModelConfig(kind=kind, n_layers=2, hidden_dim=5), 8, 3, seed=15)
    out = model.forward(x, a_hat).values
    assert np.allclose(out, model.forward(Tensor(x.toarray()), a_hat).values, atol=1e-12)


def spy_products(monkeypatch):
    """Record the left operand of every ``spmm`` and the shape of every
    ``dropout`` input while a test runs."""
    left, dropout_shapes = [], []
    spmm, dropout = ad.spmm, ad.dropout

    def spy_spmm(mat, b):
        left.append(mat)
        return spmm(mat, b)

    def spy_dropout(a, keep, rate):
        dropout_shapes.append(a.shape)
        return dropout(a, keep, rate)

    monkeypatch.setattr(ad, "spmm", spy_spmm)
    monkeypatch.setattr(ad, "dropout", spy_dropout)
    return left, dropout_shapes


def test_sparse_input_dropout_acts_on_stored_values_only(monkeypatch):
    x = sparse_features()
    model = Model.init(ModelConfig(kind="mlp", n_layers=2, hidden_dim=4, dropout=0.4), 8, 3,
                       seed=13)
    left, dropout_shapes = spy_products(monkeypatch)

    def dropped(seed):
        left.clear()
        model.forward(x, training=True, rng=np.random.default_rng(seed))
        return left[0]

    first, again, other = dropped(0), dropped(0), dropped(1)
    assert dropout_shapes[0] == (x.nnz, 1)  # one draw per stored value
    for seed, m in ((0, first), (0, again), (1, other)):
        # the copy owns x's pattern
        oracle = explicit_zero_dropout(x, 0.4, np.random.default_rng(seed)).copy()
        survivors = np.count_nonzero(oracle.data)
        assert 0 < survivors < x.nnz and m.nnz == survivors  # the dropped entries are gone
        oracle.eliminate_zeros()
        for field in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(m, field), getattr(oracle, field))
        assert m.indices.dtype == x.indices.dtype and m.indptr.dtype == x.indptr.dtype
        assert np.allclose(m.data, x[m.nonzero()].A1 / (1 - 0.4), rtol=1e-15, atol=0)
    assert np.array_equal(first.indices, again.indices)  # a fixed seed gives a fixed mask
    assert np.array_equal(first.data, again.data)
    assert not np.array_equal(first.indptr, other.indptr)
    left.clear()
    model.forward(x)
    assert len(left) == 1 and left[0] is x  # no dropout with training off


def test_sparse_input_dropout_at_rate_zero_is_the_input(monkeypatch):
    x = sparse_features()
    model = Model.init(ModelConfig(kind="mlp", n_layers=2, hidden_dim=4, dropout=0.0), 8, 3,
                       seed=13)
    left, dropout_shapes = spy_products(monkeypatch)
    model.forward(x, training=True, rng=np.random.default_rng(0))
    assert left[0] is x and dropout_shapes == []  # no draw and no copy


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_products_with_dropped_entries_removed_are_byte_identical(seed):
    """X W and X^T G give the bits of the explicit-zero form's products:
    each skipped term is 0 * w with w finite, and scipy keeps the order of
    the others."""
    rng = np.random.default_rng(seed)
    x = sp.random(300, 40, density=0.2, random_state=rng, format="csr")
    x.data = rng.normal(size=x.nnz)
    x.data[::11] = 0.0  # stored zeros of X survive or drop like any value
    w = rng.normal(size=(40, 7)) * (rng.random((40, 7)) < 0.7)
    w[0, :3] = -0.0
    g = rng.normal(size=(300, 7)) * (rng.random((300, 7)) < 0.7)
    g[:5] *= -0.0
    m = models._dropout(x, 0.5, np.random.default_rng(seed))
    oracle = explicit_zero_dropout(x, 0.5, np.random.default_rng(seed))
    assert m.nnz < oracle.nnz
    assert (m @ w).tobytes() == (oracle @ w).tobytes()
    assert (m.T @ g).tobytes() == (oracle.T @ g).tobytes()


# -------------------------------------------------------- hidden embedding

def test_hidden_embedding_shape_and_determinism():
    cfg = ModelConfig(kind="gcn", n_layers=2, hidden_dim=6)
    model = Model.init(cfg, 4, 3, seed=24)
    a_hat = normalized(random_graph(9, 0.3, seed=25))
    x = Tensor(np.random.default_rng(11).normal(size=(9, 4)))
    emb1 = hidden_embedding(model, x, a_hat=a_hat)
    emb2 = hidden_embedding(model, x, a_hat=a_hat)
    assert emb1.shape == (9, 6)
    assert np.array_equal(emb1.values, emb2.values)


def test_hidden_embedding_rejects_single_layer():
    model = Model.init(ModelConfig(kind="mlp", n_layers=1), 4, 2, seed=26)
    with pytest.raises(InputError):
        hidden_embedding(model, Tensor(np.zeros((3, 4))))


def test_checkpoint_round_trip(tmp_path):
    cfg = ModelConfig(kind="gat", n_layers=2, hidden_dim=5)
    model = Model.init(cfg, 4, 3, seed=27)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.cfg == model.cfg
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(a.values, b.values)


def test_checkpoint_whose_shapes_contradict_its_config_is_input_error(tmp_path):
    model = Model.init(ModelConfig(kind="mlp", n_layers=2, hidden_dim=6), 4, 3, seed=29)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    with np.load(path) as data:
        entries = {name: data[name] for name in data.files}
    # a hidden layer of 5 units where the config says 6
    np.savez(path, **dict(entries, bias_0=entries["bias_0"][:, :5],
                          weight_1=entries["weight_1"][:5]))
    with pytest.raises(InputError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: entry bias_0 has shape (1, 5), its config gives (1, 6)"
    np.savez(path, **dict(entries, weight_1=entries["weight_1"].ravel()))
    with pytest.raises(InputError, match="not a checkpoint"):
        load_checkpoint(path)


def test_checkpoint_with_non_finite_parameter_is_numeric_error(tmp_path):
    model = Model.init(ModelConfig(kind="mlp", n_layers=2, hidden_dim=5), 4, 3, seed=28)
    model.params[1].weight.values[0, 0] = np.inf
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    with pytest.raises(NumericError):
        load_checkpoint(path)
