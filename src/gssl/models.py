"""The graph models MLP, GCN, single-head GAT and APPNP, and their checkpoints.

Every kind runs the same forward pass, :meth:`Model.forward`: per layer,
dropout on the input of every hidden layer when training, then the
kind's layer from one table (dense, GCN or GAT aggregation), then ReLU
after every layer but the last; APPNP then propagates K steps, as the
one op :func:`gssl.autodiff.propagate`.  The final layer emits raw
logits; the trainer applies the row softmax.  The forward pass does not
check its values for NaN/Inf: the trainer checks each step, and
:func:`hidden_embedding` checks the activations it returns.
Every graph model takes the normalized adjacency A_hat: GCN and APPNP
aggregate through its values, GAT computes its own attention weights
over its stored entries, which are the self-looped edge structure.

The output has one row per row of X.  A row of the logits depends only
on the nodes within :attr:`Model.hops` steps of it, so a pass over some
rows of X and the block of A_hat on them gives the whole graph's logits
at every row whose neighbourhood lies in those rows.  Every dropout mask
is drawn here, by :func:`_keep`, from a training pass's Generator (the
autodiff op only applies it), and always for the whole graph's input of a
layer: a pass over some rows, given the whole X and those rows as its
``field``, keeps their draws, so the random stream and each row's mask do
not depend on which rows a pass computes.

The input X is a dense Tensor or a scipy sparse matrix (the CSR features
of :class:`gssl.trainer.DataContext`).  A sparse X enters the first layer
through ``spmm`` as a constant, so no dense n x d array is built.  Its
dropout draws one number per stored value and removes the dropped entries
from the CSR, as ``tf.sparse_retain`` does in Kipf & Welling's reference
GCN, so the training products ``X W`` and ``X^T G`` skip them.  A skipped
term is ``0 * w`` with ``w`` finite: adding +-0 to a partial sum changes no
nonzero sum and never makes a +0 sum -0, and scipy's CSR row loop and
CSC column scatter keep the order of the remaining terms, so both products
have the same bits as with the dropped entries stored as zeros.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InputError
from .graph import NormalizedAdjacency

__all__ = [
    "KINDS",
    "ModelConfig",
    "LayerParams",
    "Model",
    "glorot_init",
    "init_params",
    "gat_attention",
    "hidden_embedding",
    "save_checkpoint",
    "load_checkpoint",
    "load_preprocessing",
]

KINDS = ("mlp", "gcn", "gat", "appnp")


@dataclass
class ModelConfig:
    kind: str
    n_layers: int
    hidden_dim: int = 64
    dropout: float = 0.5
    appnp_alpha: float = 0.1
    appnp_k: int = 10
    leaky_slope: float = 0.2

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown model kind {self.kind!r}, expected one of {KINDS}")
        if self.n_layers < 1:
            raise InputError("n_layers must be >= 1")
        if self.hidden_dim < 1:
            raise InputError("hidden_dim must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise InputError("dropout must be in [0, 1)")
        if not 0.0 <= self.appnp_alpha <= 1.0:
            raise InputError("appnp_alpha must be in [0, 1]")
        if self.appnp_k < 0:
            raise InputError("appnp_k must be >= 0")


@dataclass
class LayerParams:
    weight: Tensor
    bias: Tensor
    attn: Tensor | None = None

    def named(self) -> list[tuple[str, Tensor]]:
        """The layer's (name, tensor) pairs in field order, ``attn`` only for GAT:
        the parameter layout that training, weight decay and checkpoints share."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)
                if getattr(self, f.name) is not None]


def glorot_init(d_in: int, d_out: int, seed) -> Tensor:
    """Uniform samples in +-sqrt(6 / (d_in + d_out)), requires_grad on."""
    if d_in < 1 or d_out < 1:
        raise InputError("glorot_init dims must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    bound = np.sqrt(6.0 / (d_in + d_out))
    return Tensor(rng.uniform(-bound, bound, size=(d_in, d_out)), requires_grad=True)


def layer_dims(cfg: ModelConfig, d_in: int, n_classes: int) -> list[tuple[int, int]]:
    dims = [d_in] + [cfg.hidden_dim] * (cfg.n_layers - 1) + [n_classes]
    return list(zip(dims[:-1], dims[1:]))


def init_params(cfg: ModelConfig, d_in: int, n_classes: int, seed) -> list[LayerParams]:
    """Glorot weights, zero biases; GAT layers also get an attention vector."""
    ss = np.random.SeedSequence(seed)
    params = []
    for (a, b), child in zip(layer_dims(cfg, d_in, n_classes), ss.spawn(cfg.n_layers)):
        w_seed, a_seed = child.spawn(2)
        weight = glorot_init(a, b, np.random.default_rng(w_seed))
        bias = Tensor(np.zeros((1, b)), requires_grad=True)
        attn = None
        if cfg.kind == "gat":
            attn = glorot_init(2 * b, 1, np.random.default_rng(a_seed))
        params.append(LayerParams(weight, bias, attn))
    return params


def _linear(h, weight: Tensor) -> Tensor:
    """H W, through spmm when H is the sparse feature matrix."""
    return ad.spmm(h, weight) if sp.issparse(h) else ad.matmul(h, weight)


def _keep(whole, rate: float, rng, rows=None) -> np.ndarray:
    """The dropout mask of a layer input: where a uniform draw from the
    Generator ``rng`` is >= ``rate``.  The draws are for the ``whole`` input, a
    shape or a sparse X (one per stored value); with ``rows`` the input is
    those rows of it and keeps their draws, in the order ``X[rows]`` stores them."""
    if not isinstance(rng, np.random.Generator):
        raise InputError(f"dropout needs a numpy.random.Generator, got {type(rng).__name__}")
    if not sp.issparse(whole):
        u = rng.random(whole)
        return (u if rows is None else u[rows]) >= rate
    u = rng.random(whole.nnz)
    if rows is not None:
        u = sp.csr_matrix((u, whole.indices, whole.indptr), shape=whole.shape)[rows].data
    return u[:, None] >= rate


def _dropout(h, rate: float, rng, field=None):
    """``ad.dropout`` of a layer input with a :func:`_keep` mask; at rate 0 the
    input itself, with no draw; ``field`` is :meth:`Model.forward`'s.  A sparse
    input draws once per stored value (``ad.dropout`` of an nnz x 1 column)
    and keeps only the entries that survive, as ``sparse_dropout`` does in
    Kipf & Welling's reference GCN."""
    if rate == 0.0:
        return h
    h = h.tocsr() if sp.issparse(h) else h
    x, rows = field or (h, None)
    if not sp.issparse(h):
        return ad.dropout(h, _keep((x.shape[0], h.shape[1]), rate, rng, rows), rate)
    values = Tensor(h.data[:, None])
    dropped = ad.dropout(values, _keep(x, rate, rng, rows), rate).values[:, 0]
    kept = np.flatnonzero(dropped != 0.0)
    indptr = np.searchsorted(kept, h.indptr).astype(h.indptr.dtype, copy=False)
    return sp.csr_matrix((dropped.take(kept), h.indices.take(kept), indptr), shape=h.shape)


def _dense(h, p, a_hat, cfg):
    """H W + b."""
    return ad.add(_linear(h, p.weight), p.bias)


def _gcn(h, p, a_hat, cfg):
    """A_hat (H W) + b."""
    return ad.add(ad.spmm(a_hat, _linear(h, p.weight)), p.bias)


def gat_attention(wh: Tensor, attn: Tensor, a_hat: NormalizedAdjacency, cfg: ModelConfig) -> Tensor:
    """Attention weight of every stored entry (v, u) of A_hat, as an nnz x 1 column.

    Only the pattern of A_hat is read, not its values:
    score = LeakyReLU(attn . [wh_v || wh_u]), normalized by softmax over
    v's entries, which must include (v, v).  With attn split into its
    halves a_src and a_dst, attn . [wh_v || wh_u] = (wh a_src)_v +
    (wh a_dst)_u, as in the GAT paper: two n x 1 columns per layer and one
    scalar of each gathered per entry, so no per-entry feature matrix is built.
    """
    if not a_hat.has_all_self_loops:
        raise InputError("GAT needs a self-looped adjacency (apply add_self_loops)")
    d = wh.shape[1]
    src = ad.matmul(wh, ad.gather_rows(attn, np.arange(d)))
    dst = ad.matmul(wh, ad.gather_rows(attn, np.arange(d, 2 * d)))
    scores = ad.leaky_relu(ad.add(ad.gather_rows(src, a_hat.row_index_per_entry()),
                                  ad.gather_rows(dst, a_hat.indices)), cfg.leaky_slope)
    return ad.edge_softmax(scores, a_hat)


def _gat(h, p, a_hat, cfg):
    """h'_v = sum_u alpha_vu (W h_u + b).  Attention rows sum to 1, so folding
    the bias into the aggregated term equals adding it afterwards."""
    wh = _dense(h, p, a_hat, cfg)
    return ad.edge_aggregate(gat_attention(wh, p.attn, a_hat, cfg), wh, a_hat)


# How one layer of each kind aggregates; APPNP propagates after the last layer.
_LAYERS = {"mlp": _dense, "gcn": _gcn, "gat": _gat, "appnp": _dense}


@dataclass
class Model:
    """A model kind plus its trainable parameters."""

    cfg: ModelConfig
    params: list[LayerParams] = field(default_factory=list)

    @classmethod
    def init(cls, cfg: ModelConfig, d_in: int, n_classes: int, seed) -> "Model":
        return cls(cfg, init_params(cfg, d_in, n_classes, seed))

    def forward(self, x, a_hat: NormalizedAdjacency | None = None, training=False, rng=None,
                return_hidden=False, field=None):
        """Logits (one row per row of ``x``, n_classes columns), and with
        ``return_hidden`` also the penultimate activations; every kind but
        MLP needs ``a_hat``.  ``x`` is a Tensor or a scipy sparse matrix;
        training draws dropout masks from the Generator ``rng``.
        ``field`` = (X, rows), when given, says that ``x`` and ``a_hat`` are
        the rows ``rows`` (ascending node ids) of a larger graph's features
        X and the block of its adjacency on them: each layer then keeps
        those rows' dropout draws of the larger graph's, and a row of the
        output equals the larger graph's when every node within
        :attr:`hops` steps of it is among those rows."""
        cfg, layer = self.cfg, _LAYERS[self.cfg.kind]
        if a_hat is None and cfg.kind != "mlp":
            raise InputError(f"{cfg.kind} forward needs the normalized adjacency a_hat")
        h, hidden = x, None
        last = len(self.params) - 1
        for l, p in enumerate(self.params):
            if training and l < last:
                h = _dropout(h, cfg.dropout, rng, field)
            h = layer(h, p, a_hat, cfg)
            if l < last:
                h = hidden = ad.relu(h)
        if cfg.kind == "appnp":  # K steps of Z <- (1 - alpha) A_hat Z + alpha H from Z = H
            h = ad.propagate(a_hat, h, cfg.appnp_alpha, cfg.appnp_k)
        return (h, hidden) if return_hidden else h

    @property
    def hops(self) -> int:
        """How far the forward reads: a row of the logits depends only on
        the nodes within this many steps of it along A_hat's entries.  Dense
        layers read their own row, GCN and GAT layers one step further, and
        APPNP's propagation one step per iteration."""
        if self.cfg.kind == "mlp":
            return 0
        return self.cfg.appnp_k if self.cfg.kind == "appnp" else self.cfg.n_layers

    def parameters(self) -> list[Tensor]:
        return [t for p in self.params for _, t in p.named()]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """``<name>_<layer>`` and the tensor of every parameter, in parameter
        order: the checkpoint's entry names, and those of training errors."""
        return [(f"{name}_{i}", t) for i, p in enumerate(self.params) for name, t in p.named()]

    def decay_mask(self) -> list[bool]:
        """True for tensors subject to L2 weight decay (weights and
        attention vectors, not biases)."""
        return [name != "bias" for p in self.params for name, _ in p.named()]

    def state_values(self) -> list[np.ndarray]:
        return [t.values.copy() for t in self.parameters()]

    def load_state_values(self, values) -> None:
        """Copy ``values`` into the parameters and drop their gradients, which
        belonged to the values replaced."""
        for t, v in zip(self.parameters(), values, strict=True):
            t.values, t.grad = v.copy(), None


def hidden_embedding(model: Model, x, a_hat: NormalizedAdjacency | None = None) -> Tensor:
    """Penultimate-layer activations (n x hidden_dim), dropout disabled.
    Raises NumericError if any of them is not finite."""
    if model.cfg.n_layers < 2:
        raise InputError("hidden_embedding needs a model with >= 2 layers")
    with np.errstate(all="ignore"):
        _, hidden = model.forward(x, a_hat, training=False, return_hidden=True)
    ad.check_finite(hidden.values, "hidden embedding")
    return hidden


def save_checkpoint(model: Model, path, preprocessing: dict | None = None) -> None:
    """Write the model config, its parameters and, when given, the feature
    preprocessing it was trained with as an ``.npz`` archive.

    Entries carry a fixed timestamp, so equal parameters give equal bytes.
    """
    entries = {"config": _json_bytes(asdict(model.cfg))}
    if preprocessing is not None:
        entries["preprocessing"] = _json_bytes(preprocessing)
    entries.update((name, t.values) for name, t in model.named_parameters())
    with zipfile.ZipFile(path, "w") as zf:
        for name, values in entries.items():
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with zf.open(info, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asanyarray(values))


def _json_bytes(obj) -> np.ndarray:
    return np.frombuffer(json.dumps(obj).encode(), dtype=np.uint8)


def load_checkpoint(path) -> Model:
    """The model :func:`save_checkpoint` wrote.  A file that is not such an
    archive, or an entry whose shape is not the one its config gives, raises
    InputError; non-finite parameters raise NumericError."""
    try:
        with np.load(path) as data:
            cfg = ModelConfig(**json.loads(bytes(data["config"]).decode()))
            d_in, n_classes = data["weight_0"].shape[0], data[f"weight_{cfg.n_layers - 1}"].shape[1]
            model = Model.init(cfg, d_in, n_classes, seed=0)
            entries = {name: data[name] for name, _ in model.named_parameters()}
    except (EOFError, IndexError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as err:
        raise InputError(f"{path}: not a checkpoint ({err})") from None
    for name, t in model.named_parameters():
        if entries[name].shape != t.shape:
            raise InputError(f"{path}: entry {name} has shape {entries[name].shape}, "
                             f"its config gives {t.shape}")
        t.values = Tensor(entries[name]).values
    return model


def load_preprocessing(path) -> dict:
    """The preprocessing recorded by :func:`save_checkpoint`, ``{}`` if none.
    An entry that is not a JSON object, or whose ``normalize_features`` is
    not a bool, raises InputError."""
    with np.load(path) as data:
        if "preprocessing" not in data:
            return {}
        try:
            prep = json.loads(bytes(data["preprocessing"]).decode())
        except ValueError:
            prep = None
    if not isinstance(prep, dict) or not isinstance(prep.get("normalize_features", True), bool):
        raise InputError(f"{path}: preprocessing entry is not a JSON object "
                         "with a bool normalize_features")
    return prep
