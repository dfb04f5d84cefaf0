import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gssl.data import read_edge_list
from gssl.errors import InputError
from gssl.graph import add_self_loops, degrees, from_edge_list, sym_normalize

from conftest import dense, normalized, random_graph, random_pairs


def test_from_edge_list_path_graph():
    g = from_edge_list([(0, 1), (1, 2)], 3)
    assert g.nnz == 4  # symmetrization forced
    assert degrees(g).tolist() == [1.0, 2.0, 1.0]


def test_from_edge_list_dedups_and_binarizes():
    g = from_edge_list([(0, 1), (1, 0), (0, 1)], 2)
    assert g.nnz == 2
    assert np.all(g.values == 1.0)


def test_from_edge_list_empty_is_valid():
    g = from_edge_list([], 3)
    assert g.nnz == 0
    assert degrees(g).tolist() == [0.0, 0.0, 0.0]


def test_from_edge_list_keeps_one_self_loop():
    g = from_edge_list([(1, 1), (1, 1), (0, 1)], 2)
    assert g.nnz == 3  # (0,1), (1,0), (1,1)
    assert g.n_undirected_edges == 2


def test_from_edge_list_rejects_bad_ids():
    with pytest.raises(InputError):
        from_edge_list([(0, 3)], 3)
    with pytest.raises(InputError):
        from_edge_list([(-1, 0)], 3)


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
    order_seed=st.integers(0, 2**31),
)
def test_from_edge_list_order_invariant(pairs, order_seed):
    g1 = from_edge_list(pairs, 10)
    shuffled = list(pairs)
    np.random.default_rng(order_seed).shuffle(shuffled)
    g2 = from_edge_list(shuffled, 10)
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.indices, g2.indices)
    assert np.array_equal(g1.values, g2.values)


def test_structure_is_symmetric_and_sorted():
    g = random_graph(40, 0.15, seed=3)
    mat = dense(g)
    assert np.array_equal(mat, mat.T)
    for v in range(g.n_nodes):
        row = g.indices[g.indptr[v]:g.indptr[v + 1]]
        assert np.all(np.diff(row) > 0)


def test_add_self_loops_on_empty_graph_gives_identity():
    g = add_self_loops(from_edge_list([], 3))
    assert np.array_equal(dense(g), np.eye(3))


def test_add_self_loops_path_degrees():
    g = add_self_loops(from_edge_list([(0, 1), (1, 2)], 3))
    assert degrees(g).tolist() == [2.0, 3.0, 2.0]


def test_add_self_loops_idempotent():
    g = from_edge_list([(0, 0), (0, 1)], 2)
    once = add_self_loops(g)
    twice = add_self_loops(once)
    assert dense(once)[0, 0] == 1.0
    assert np.array_equal(dense(once), dense(twice))
    assert once.has_all_self_loops


def test_sym_normalize_identity_case():
    a_hat = sym_normalize(add_self_loops(from_edge_list([], 3)))
    assert np.allclose(dense(a_hat), np.eye(3))


def test_sym_normalize_two_node_hand_value():
    # single edge + self-loops: D = diag(2, 2), every entry 1/sqrt(2*2)
    a_hat = normalized(from_edge_list([(0, 1)], 2))
    assert np.allclose(dense(a_hat), np.full((2, 2), 0.5))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sym_normalize_spectral_radius_at_most_one(seed):
    n = 20 + 17 * seed
    a_hat = normalized(random_graph(n, 0.1, seed))
    eig = np.linalg.eigvalsh(dense(a_hat))
    rho = np.abs(eig).max()
    assert 0.0 < rho <= 1.0 + 1e-10


def test_sym_normalize_rejects_zero_degree_rows():
    with pytest.raises(InputError):
        sym_normalize(from_edge_list([(0, 1)], 3))  # node 2 isolated


def test_degrees_triangle():
    g = from_edge_list([(0, 1), (1, 2), (0, 2)], 3)
    assert degrees(g).tolist() == [2.0, 2.0, 2.0]


def test_sparse_matvec_matches_dense():
    rng = np.random.default_rng(7)
    for seed in range(3):
        a_hat = normalized(random_graph(60, 0.08, seed))
        mat = dense(a_hat)
        vec = rng.normal(size=(60, 3))
        assert np.abs(a_hat.scipy @ vec - mat @ vec).max() < 1e-12


def test_normalized_row_sums_match_dense():
    a_hat = normalized(random_graph(30, 0.2, seed=5))
    mat = dense(a_hat)
    assert np.allclose(degrees(a_hat), mat.sum(axis=1))
    assert np.allclose(a_hat.laplacian.toarray(), np.diag(mat.sum(axis=1)) - mat)


def test_read_edge_list(tmp_path):
    p = tmp_path / "graph.edges"
    p.write_text("# comment\n0 1\n\n 1 2 \n", encoding="ascii")
    assert read_edge_list(p).tolist() == [[0, 1], [1, 2]]


def test_read_edge_list_reports_line_numbers(tmp_path):
    p = tmp_path / "graph.edges"
    p.write_text("0 1\n0 1 2\n", encoding="ascii")
    with pytest.raises(InputError, match=":2"):
        read_edge_list(p)
    p.write_text("0 x\n", encoding="ascii")
    with pytest.raises(InputError, match=":1"):
        read_edge_list(p)


@pytest.mark.parametrize("kind", ["graph", "normalized"])
def test_row_index_per_entry_is_one_cached_read_only_array(kind):
    g = random_graph(30, 0.2, seed=4)
    adj = g if kind == "graph" else normalized(g)
    rows = adj.row_index_per_entry()
    assert adj.row_index_per_entry() is rows
    assert rows.dtype == np.int64
    assert np.array_equal(rows, np.repeat(np.arange(adj.n_nodes), np.diff(adj.indptr)))
    with pytest.raises(ValueError):
        rows[0] = 1


def test_row_index_users_match_the_dense_graph():
    # two of the 30 nodes carry a self-loop, so the graph has some but not all
    g = from_edge_list(random_pairs(30, 0.2, np.random.default_rng(4)) + [(0, 0), (3, 3)], 30)
    a = dense(g)
    g_sl = add_self_loops(g)
    assert np.array_equal(dense(g_sl), np.maximum(a, np.eye(30)))
    assert np.array_equal(degrees(g), a.sum(axis=1))
    assert g.n_undirected_edges == int(np.triu(a).sum())
    assert (g.has_all_self_loops, g_sl.has_all_self_loops) == (False, True)
    inv_sqrt = 1.0 / np.sqrt(dense(g_sl).sum(axis=1))
    rows = np.repeat(np.arange(30), np.diff(g_sl.indptr))
    per_entry = g_sl.values * inv_sqrt[rows] * inv_sqrt[g_sl.indices]
    assert sym_normalize(g_sl).values.tobytes() == per_entry.tobytes()


def test_graph_arrays_immutable():
    g = from_edge_list([(0, 1)], 2)
    with pytest.raises(ValueError):
        g.values[0] = 2.0
