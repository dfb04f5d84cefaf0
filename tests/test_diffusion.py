import numpy as np
import pytest

from gssl.diffusion import (DiffusionConfig, diffuse_direct, diffuse_iterative,
                            gamma_from_mu, label_matrix, propagate_labels)
from gssl.errors import InputError
from gssl.graph import from_edge_list

from conftest import (barbell_graph, dense, dense_diffusion, forbid_densifying, minimize_objective,
                      normalized, random_connected_graph, random_graph)


def test_label_matrix_shape_and_rows():
    labels = np.array([0, 2, 1, 2])
    y = label_matrix(labels, [0, 3])
    assert y.shape == (4, 3)
    assert y.sum(axis=1).tolist() == [1.0, 0.0, 0.0, 1.0]
    assert y[3, 2] == 1.0


def test_label_matrix_rejects_out_of_range_index():
    labels = np.array([0, 1, 0])
    for bad in ([3], [-1]):
        with pytest.raises(InputError, match="out of range"):
            label_matrix(labels, bad, 2)


def test_gamma_from_mu():
    assert gamma_from_mu(0.0) == 1.0
    assert gamma_from_mu(1.0) == 0.5
    for mu in (-1.0, float("nan"), float("inf")):  # inf once gave gamma 0.0
        with pytest.raises(InputError, match="mu must be >= 0 and finite"):
            gamma_from_mu(mu)


def test_config_validation():
    with pytest.raises(InputError):
        DiffusionConfig(gamma=0.0)
    with pytest.raises(InputError):
        DiffusionConfig(gamma=1.5)
    for tol in (0.0, -1e-8, float("nan"), float("inf")):
        with pytest.raises(InputError, match="tol"):
            DiffusionConfig(gamma=0.5, tol=tol)


def test_gamma_one_is_identity_kernel():
    a_hat = normalized(random_graph(12, 0.3, seed=0))
    y = label_matrix(np.arange(12) % 3, [0, 1, 2, 5])
    assert np.allclose(diffuse_direct(a_hat, y, 1.0), y)
    res = diffuse_iterative(a_hat, y, DiffusionConfig(gamma=1.0))
    assert res.iters == 1
    assert np.array_equal(res.z, y)


def test_identity_adjacency_returns_labels():
    a_hat = normalized(from_edge_list([], 5))  # A_hat = I
    y = label_matrix(np.array([0, 1, 0, 1, 0]), [0, 1])
    for gamma in (0.2, 0.7):
        assert np.allclose(diffuse_direct(a_hat, y, gamma), y)


def test_solvers_agree_on_random_graph():
    a_hat = normalized(random_graph(30, 0.2, seed=1))
    y = label_matrix(np.arange(30) % 4, [0, 1, 2, 3, 10, 20])
    direct = diffuse_direct(a_hat, y, 0.15)
    iterative = diffuse_iterative(a_hat, y, DiffusionConfig(gamma=0.15, tol=1e-12))
    assert np.abs(direct - iterative.z).max() < 1e-8


@pytest.mark.parametrize("gamma", [0.05, 0.1, 0.3, 0.5, 0.9])
def test_solver_equivalence_across_gammas(gamma):
    for seed in range(3):
        n = 40 + 30 * seed
        a_hat = normalized(random_graph(n, 0.1, seed=seed))
        y = label_matrix(np.arange(n) % 3, np.arange(0, n, 7))
        direct = diffuse_direct(a_hat, y, gamma)
        res = diffuse_iterative(a_hat, y, DiffusionConfig(gamma=gamma, tol=1e-11))
        assert np.abs(direct - res.z).max() < 1e-7


@pytest.mark.parametrize("gamma", [0.05, 0.3, 0.9, 1.0])
def test_cg_solve_matches_dense_cholesky(gamma):
    graphs = [random_graph(n, p, seed=seed)
              for seed, (n, p) in enumerate([(30, 0.2), (60, 0.05), (90, 0.1)])]
    for g in graphs + [from_edge_list([], 25)]:
        a_hat = normalized(g)
        y = label_matrix(np.arange(g.n_nodes) % 4, np.arange(0, g.n_nodes, 6))
        err = np.abs(diffuse_direct(a_hat, y, gamma) - dense_diffusion(a_hat, y, gamma)).max()
        assert err <= 1e-10


def test_direct_solve_at_pubmed_size_never_densifies(monkeypatch):
    n = 19_717  # Pubmed's node count; the dense system would take 3.1 GB

    forbid_densifying(monkeypatch, "diffuse_direct")
    a_hat = normalized(from_edge_list([(i, (i + 1) % n) for i in range(n)], n))
    y = label_matrix(np.arange(n) % 3, np.arange(0, n, 500))
    gamma, tol = 0.2, 1e-8
    direct = diffuse_direct(a_hat, y, gamma)
    res = diffuse_iterative(a_hat, y, DiffusionConfig(gamma=gamma, tol=tol))
    assert np.abs(direct - res.z).max() <= tol * (1 - gamma) / gamma


def test_non_convergence_warns_with_residual():
    a_hat = normalized(random_connected_graph(40, seed=4))
    y = label_matrix(np.arange(40) % 2, [0, 1])
    with pytest.warns(RuntimeWarning, match="did not converge"):
        res = diffuse_iterative(a_hat, y, DiffusionConfig(gamma=0.05, tol=1e-14, max_iter=3))
    assert res.iters == 3
    assert res.residual > 1e-14


def test_contraction_rate_bound():
    a_hat = normalized(random_connected_graph(30, seed=5))
    rho = np.abs(np.linalg.eigvalsh(dense(a_hat))).max()
    y = label_matrix(np.arange(30) % 3, [0, 10, 20])
    gamma = 0.2
    mat = a_hat
    z = y.copy()
    residuals = []
    for _ in range(60):
        z_next = (1 - gamma) * (mat @ z) + gamma * y
        residuals.append(np.abs(z_next - z).max())
        z = z_next
    ratios = [b / a for a, b in zip(residuals[20:-1], residuals[21:]) if a > 1e-14]
    assert max(ratios) <= (1 - gamma) * rho + 1e-9


def test_solution_bounded_and_finite():
    for seed in range(3):
        a_hat = normalized(random_graph(35, 0.15, seed=seed))
        y = label_matrix(np.arange(35) % 3, np.arange(0, 35, 5))
        for gamma in (0.1, 0.5, 0.9):
            z = diffuse_direct(a_hat, y, gamma)
            assert np.isfinite(z).all()
            assert np.abs(z).max() <= np.abs(y).max() / gamma + 1e-12


def test_objective_minimum_matches_diffusion():
    # independent route: gradient descent on the quadratic objective
    for seed in range(3):
        a_hat = normalized(random_connected_graph(15, seed=seed))
        labels = np.arange(15) % 3
        y = label_matrix(labels, [0, 5, 10])
        mu = 2.0
        by_gd = minimize_objective(a_hat, y, mu, max_steps=4000, tol=1e-12)
        by_kernel = diffuse_direct(a_hat, y, gamma_from_mu(mu))
        assert np.abs(by_gd - by_kernel).max() < 1e-4


def test_barbell_two_cliques_recovered():
    g = barbell_graph(5)
    a_hat = normalized(g)
    labels = np.array([0] * 5 + [1] * 5)
    y = label_matrix(labels, [0, 9])  # one labeled node per clique
    assert np.array_equal(diffuse_direct(a_hat, y, 0.2).argmax(axis=1), labels)
    assert np.array_equal(propagate_labels(a_hat, y, DiffusionConfig(gamma=0.2)), labels)


def test_propagate_all_labeled_is_identity():
    a_hat = normalized(random_connected_graph(12, seed=6))
    labels = np.arange(12) % 4
    y = label_matrix(labels, np.arange(12))
    pred = propagate_labels(a_hat, y, DiffusionConfig(gamma=0.5))
    assert np.array_equal(pred, labels)


def test_propagate_single_label_floods_connected_graph():
    a_hat = normalized(random_connected_graph(20, seed=7))
    labels = np.ones(20, dtype=np.int64)
    labels[3] = 1
    y = label_matrix(labels, [3], n_classes=2)
    with pytest.warns(RuntimeWarning, match="no labeled nodes"):
        pred = propagate_labels(a_hat, y, DiffusionConfig(gamma=0.2))
    assert np.all(pred == 1)


def test_propagate_cora_baseline_regression():
    # regression anchor: frozen from the first verified run on real data;
    # until then the gate asserts the sane range the anchor must fall in
    from gssl.data import load_dataset, make_splits

    from conftest import require_dataset

    ds = load_dataset(require_dataset("cora"))
    from gssl.graph import add_self_loops, sym_normalize

    a_hat = sym_normalize(add_self_loops(ds.graph))
    split = make_splits(ds, 20, 1, 0)[0]
    y = label_matrix(ds.labels, split.train, ds.n_classes)
    best = max(
        float(np.mean(
            propagate_labels(a_hat, y, DiffusionConfig(gamma=g))[split.test]
            == ds.labels[split.test]))
        for g in (0.05, 0.1, 0.2, 0.3)
    )
    print(f"cora propagation baseline (best over gamma grid): {best * 100:.2f}%")
    assert 0.5 < best < 1.0


def test_propagate_keeps_given_labels():
    a_hat = normalized(barbell_graph(5))
    labels = np.array([0] * 5 + [1] * 5)
    # label node 4 (bridge endpoint in clique A) with the *other* class:
    # reporting must keep the given class even if diffusion disagrees
    y = label_matrix(1 - labels, [4, 9])
    pred = propagate_labels(a_hat, y, DiffusionConfig(gamma=0.9))
    assert pred[4] == 1
    assert pred[9] == 0
