"""Shared helpers: random graphs, a Pubmed-sized graph, the barbell
graph, toy datasets, a ring graph many hops across, the dense dataset
writer, a Cora-shaped dataset directory, the per-token oracle of the
``#sparse`` feature format, training with every pass over the whole
graph, the accuracy of a fresh whole-graph pass, the gate for optional
real-dataset directories, the dense matrix of a small graph and a guard
that forbids densifying, the finite-difference gradient check, the
per-entry concat form of GAT attention, the one-shot form of
edge_aggregate's weight gradient, APPNP's propagation as a chain of
autodiff ops, the textbook Adam step, and
independent routes to the diffusion solution (dense Cholesky solve,
gradient descent on the quadratic objective) that the library's solvers
are checked against."""

import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from gssl import autodiff as ad
from gssl.autodiff import Tensor
from gssl.data import LabeledDataset
from gssl.errors import InputError
from gssl.graph import Graph, NormalizedAdjacency, add_self_loops, from_edge_list, sym_normalize
from gssl.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, DataContext, accuracy, train


def random_pairs(n, p, rng):
    """Erdos-Renyi style pair list (upper triangle, probability p)."""
    upper = np.triu_indices(n, k=1)
    mask = rng.random(upper[0].shape[0]) < p
    return list(zip(upper[0][mask].tolist(), upper[1][mask].tolist()))


def random_graph(n, p, seed) -> Graph:
    return from_edge_list(random_pairs(n, p, np.random.default_rng(seed)), n)


def random_connected_graph(n, seed, extra_p=0.1) -> Graph:
    """Random spanning tree plus extra random edges."""
    rng = np.random.default_rng(seed)
    pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    pairs += random_pairs(n, extra_p, rng)
    return from_edge_list(pairs, n)


def pubmed_shaped_graph(seed=0, n=19_717, m=44_338) -> Graph:
    """A random spanning tree plus uniformly drawn pairs: Pubmed's node count
    and about its undirected edge count, with no pair list of all n^2 pairs."""
    rng = np.random.default_rng(seed)
    children = np.arange(1, n)
    tree = np.column_stack([rng.integers(0, children), children])
    extra = rng.integers(0, n, size=(m - (n - 1), 2))
    return from_edge_list(np.concatenate([tree, extra[extra[:, 0] != extra[:, 1]]]), n)


def normalized(g: Graph):
    return sym_normalize(add_self_loops(g))


def dense(adj) -> np.ndarray:
    """The n x n matrix of a graph or operator, for checks on small graphs."""
    return adj.toarray()


def forbid_densifying(monkeypatch, what: str) -> None:
    """Make densifying a scipy CSR matrix, the form of every library graph, raise."""
    def no_dense(*args, **kwargs):
        raise AssertionError(f"{what} built a dense n x n matrix")

    for name in ("toarray", "todense"):
        monkeypatch.setattr(scipy.sparse.csr_matrix, name, no_dense)


def barbell_pairs(k=5):
    """Two k-cliques joined by a single bridge edge (k-1, k)."""
    pairs = []
    for base in (0, k):
        pairs += [(base + i, base + j) for i in range(k) for j in range(i + 1, k)]
    pairs.append((k - 1, k))
    return pairs, 2 * k


def barbell_graph(k=5) -> Graph:
    pairs, n = barbell_pairs(k)
    return from_edge_list(pairs, n)


def two_blob_dataset(n_per=16, d=4, seed=0, edge_p=0.35) -> LabeledDataset:
    """Two linearly separable feature blobs with mostly intra-class edges."""
    rng = np.random.default_rng(seed)
    n = 2 * n_per
    labels = np.repeat([0, 1], n_per)
    centers = np.where(labels[:, None] == 0, 2.0, -2.0) * np.ones((n, d))
    features = centers + rng.normal(scale=0.5, size=(n, d))
    pairs = []
    for c in (0, 1):
        members = np.flatnonzero(labels == c)
        for a in range(len(members)):
            pairs.append((int(members[a]), int(members[(a + 1) % len(members)])))
            for b in range(a + 1, len(members)):
                if rng.random() < edge_p:
                    pairs.append((int(members[a]), int(members[b])))
    pairs.append((0, n - 1))  # one cross edge keeps it connected
    graph = from_edge_list(pairs, n)
    return LabeledDataset(graph, features, labels, name="two_blobs")


def ring_dataset(n=300, d=30, seed=0) -> LabeledDataset:
    """A cycle with a few chords, many hops across, sparse features and
    three classes on three arcs: a few labeled rows have a field far
    smaller than the graph."""
    rng = np.random.default_rng(seed)
    pairs = [(i, (i + 1) % n) for i in range(n)] + rng.integers(0, n, size=(n // 30, 2)).tolist()
    features = scipy.sparse.random(n, d, density=0.1, random_state=rng, format="csr")
    return LabeledDataset(from_edge_list(pairs, n), features, np.arange(n) * 3 // n, name="ring")


def whole_graph_train(model, ctx: DataContext, split, cfg):
    """Oracle: ``train`` with every pass over the whole graph, as each pass
    ran before it computed its field: the field of any rows is every node."""
    with mock.patch.object(DataContext, "field_of", lambda self, rows, hops: self):
        return train(model, ctx, split, cfg)


def evaluate(model, ctx: DataContext, indices) -> float:
    """Oracle: the accuracy at ``indices`` of a fresh pass over the whole
    graph with dropout off, independent of the validation logits ``train``
    reads its test accuracy from."""
    return accuracy(ctx.forward(model, training=False).values, ctx.labels, indices)


def planted_partition(n_per=50, k=3, p_in=0.10, p_out=0.008, d=8, sep=1.2,
                      seed=0) -> LabeledDataset:
    """Community graph with weakly informative features: structure carries
    most of the class signal, the regime where smoothness pays off."""
    rng = np.random.default_rng(seed)
    n = n_per * k
    labels = np.repeat(np.arange(k), n_per)
    centers = rng.normal(size=(k, d))
    centers = centers / np.linalg.norm(centers, axis=1, keepdims=True) * sep
    features = centers[labels] + rng.normal(size=(n, d))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < (p_in if labels[i] == labels[j] else p_out):
                pairs.append((i, j))
    return LabeledDataset(from_edge_list(pairs, n), features, labels, name="planted")


def save_dataset(ds: LabeledDataset, directory) -> None:
    """Write a dataset out in the dense plain-text format.

    Round-trips bit-exactly: floats are written with shortest-repr.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = ds.graph.row_index_per_entry()
    with open(directory / "graph.edges", "w", encoding="ascii") as fh:
        for u, v in zip(rows, ds.graph.indices):
            if u <= v:
                fh.write(f"{u} {v}\n")
    with open(directory / "features.csv", "w", encoding="ascii") as fh:
        for row in ds.features.toarray():
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    with open(directory / "labels.txt", "w", encoding="ascii") as fh:
        for label in ds.labels:
            fh.write(f"{label}\n")


def write_cora_shaped(directory, seed=0, n=2708, m=5429, c=7, d=1433, words=18) -> Path:
    """A random dataset with Cora's counts and its 1.3% dense binary
    features, in the ``#sparse`` format."""
    rng = np.random.default_rng(seed)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    labels = rng.permutation(np.arange(n) % c)
    pairs = rng.integers(0, n, size=(m, 2))
    (directory / "graph.edges").write_text(
        "".join(f"{u} {v}\n" for u, v in pairs.tolist()), encoding="ascii")
    rows = [" ".join(f"{j}:1" for j in np.sort(rng.choice(d, words, replace=False)).tolist())
            for _ in range(n)]
    (directory / "features.csv").write_text(f"#sparse d={d}\n" + "\n".join(rows) + "\n",
                                            encoding="ascii")
    (directory / "labels.txt").write_text("".join(f"{y}\n" for y in labels.tolist()),
                                          encoding="ascii")
    return directory


def reference_parse(path, d):
    """The per-token loop of a ``#sparse`` file, one dense row per line."""
    lines = path.read_text(encoding="ascii").splitlines()[1:]
    out = np.zeros((len(lines), d))
    for i, line in enumerate(lines):
        for tok in line.split():
            idx, val = tok.split(":")
            out[i, int(idx)] = float(val)
    return out


def dataset_root() -> Path:
    return Path(os.environ.get("GSSL_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))


def dataset_present(name: str) -> bool:
    d = dataset_root() / name
    return all((d / f).is_file() for f in ("graph.edges", "features.csv", "labels.txt"))


def require_dataset(name: str) -> Path:
    """Skip (module-level example tests) when a benchmark dir is absent."""
    if not dataset_present(name):
        pytest.skip(f"{name} dataset not provisioned under {dataset_root()} "
                    f"(see README: Datasets)")
    return dataset_root() / name


def finite_difference_check(f, x: Tensor, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a deterministic scalar-valued function of ``x`` (run
    models with ``training=False``, dropout with a fixed seed).  Error per entry is
    |analytic - numeric| / (|numeric| + 1e-8).
    """
    if not x.requires_grad:
        raise InputError("finite_difference_check needs x.requires_grad=True")
    x.grad = None
    ad.backward(f(x))
    analytic = x.grad if x.grad is not None else np.zeros(x.shape)
    analytic = analytic.copy()
    numeric = np.zeros(x.shape)
    base = x.values.copy()
    for i, j in np.ndindex(*x.shape):
        x.values[i, j] = base[i, j] + step
        up = f(x).values[0, 0]
        x.values[i, j] = base[i, j] - step
        down = f(x).values[0, 0]
        x.values[i, j] = base[i, j]
        numeric[i, j] = (up - down) / (2.0 * step)
    x.grad = None
    rel = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)
    return float(rel.max())


def concat_gat_attention(wh: Tensor, attn: Tensor, a_hat: NormalizedAdjacency,
                         leaky_slope: float) -> Tensor:
    """Oracle: GAT attention in the per-entry concat form, LeakyReLU([wh_v || wh_u]
    @ attn) from two gathered nnz x d matrices, softmax over v's entries."""
    per_edge = ad.concat_cols(ad.gather_rows(wh, a_hat.row_index_per_entry()),
                              ad.gather_rows(wh, a_hat.indices))
    return ad.edge_softmax(ad.leaky_relu(ad.matmul(per_edge, attn), leaky_slope), a_hat)


def appnp_chain(mat, h: Tensor, alpha: float, k: int) -> Tensor:
    """Oracle: K steps of Z <- (1 - alpha) mat Z + alpha H from Z = H, built
    from spmm, scale and add as APPNP's forward once did, 4K ops in all."""
    z = h
    for _ in range(k):
        z = ad.add(ad.scale(ad.spmm(mat, z), 1.0 - alpha), ad.scale(h, alpha))
    return z


def one_shot_alpha_vjp(g: np.ndarray, h: np.ndarray, adj) -> np.ndarray:
    """Oracle: edge_aggregate's weight gradient g[v] . h[u] for every stored
    entry (v, u), from two gathered nnz x d matrices at once."""
    return np.einsum("ec,ec->e", g[adj.row_index_per_entry()], h[adj.indices])[:, None]


def entry_positions(x, rows) -> np.ndarray:
    """Oracle: the positions of the stored entries of CSR ``x``'s rows
    ``rows`` among all of its entries, row by row."""
    return np.concatenate([np.arange(x.indptr[v], x.indptr[v + 1]) for v in rows])


def explicit_zero_dropout(h, rate: float, rng, field=None):
    """Oracle: sparse input dropout that keeps X's pattern and stores each
    dropped value as an explicit zero.  It draws one uniform of the Generator
    ``rng`` per stored value, or with ``field`` = (X, rows) one per stored
    value of X and keeps those of ``rows``' entries, and scales the values
    that drew at least ``rate`` by 1/(1-rate)."""
    h = h.tocsr()
    if field is None:
        draws = rng.random(h.nnz)
    else:
        x, rows = field
        draws = rng.random(x.nnz)[entry_positions(x, rows)]
    dropped = h.data * ((draws >= rate) * (1.0 / (1.0 - rate)))
    return scipy.sparse.csr_matrix((dropped, h.indices, h.indptr), shape=h.shape)


def textbook_adam_step(params, state, lr, weight_decay, decay_mask) -> None:
    """Oracle: one Adam step written as the formula, one temporary per operation."""
    state.t += 1
    bc1, bc2 = 1.0 - ADAM_BETA1 ** state.t, 1.0 - ADAM_BETA2 ** state.t
    for p, m, v, decayed in zip(params, state.m, state.v, decay_mask, strict=True):
        g = p.grad if p.grad is not None else np.zeros(p.shape)
        if decayed and weight_decay:
            g = g + weight_decay * p.values
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.values = p.values - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def dense_diffusion(a_hat: NormalizedAdjacency, y, gamma: float) -> np.ndarray:
    """Oracle: dense Cholesky solve of (I - (1-gamma) A_hat) Z = gamma Y."""
    system = np.eye(a_hat.n_nodes) - (1.0 - gamma) * dense(a_hat)
    return gamma * scipy.linalg.cho_solve(scipy.linalg.cho_factor(system), y)


def regularization_objective(z: Tensor, y, a_hat: NormalizedAdjacency, mu: float) -> Tensor:
    """||Z - Y||_F^2 + mu * tr(Z^T (I - A_hat) Z) on the autodiff engine.

    The minimizer over free Z equals diffuse_direct(a_hat, y, 1/(mu+1)).
    """
    diff = ad.sub(z, Tensor(np.asarray(y, dtype=np.float64)))
    fit = ad.sum(ad.elementwise_mul(diff, diff))
    quad = ad.sub(ad.sum(ad.elementwise_mul(z, z)),
                  ad.sum(ad.elementwise_mul(z, ad.spmm(a_hat, z))))
    return ad.add(fit, ad.scale(quad, mu))


def minimize_objective(a_hat: NormalizedAdjacency, y, mu: float,
                       lr: float | None = None, max_steps: int = 5000,
                       tol: float = 1e-10) -> np.ndarray:
    """Gradient-descent minimization of :func:`regularization_objective`.

    An independent route to the diffusion solution.  The objective's
    Hessian is 2(I + mu (I - A_hat)) with eigenvalues in [2, 2 + 4 mu], so
    the default step 1/(2 + 2 mu) sits inside the stable region.
    """
    y = np.asarray(y, dtype=np.float64)
    step = 1.0 / (2.0 + 2.0 * mu) if lr is None else lr
    z = Tensor(np.zeros_like(y), requires_grad=True)
    for _ in range(max_steps):
        z.grad = None
        ad.backward(regularization_objective(z, y, a_hat, mu))
        z.values = z.values - step * z.grad
        if float(np.abs(z.grad).max()) < tol:
            break
    return z.values
