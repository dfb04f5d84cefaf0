"""Forward definitions of the graph models: MLP, GCN, single-head GAT, APPNP.

All models share the same stacked-layer skeleton: dropout is applied to
the input of every hidden layer when training, ReLU sits between layers
and never after the last one, and the final layer emits raw logits
(softmax lives in :mod:`gssl.losses`).  Every graph model takes the
normalized adjacency A_hat: GCN and APPNP aggregate through its values,
GAT computes its own attention weights over its stored entries, which are
the self-looped edge structure.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field

import numpy as np

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
    "mlp_forward",
    "gcn_forward",
    "gat_forward",
    "appnp_forward",
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

    def tensors(self) -> list[Tensor]:
        out = [self.weight, self.bias]
        if self.attn is not None:
            out.append(self.attn)
        return out


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


def _stack_forward(x, params, cfg, layer_fn, training, rng, return_hidden):
    h = x
    hidden = None
    last = len(params) - 1
    for l, p in enumerate(params):
        if training and l < last:
            h = ad.dropout(h, cfg.dropout, training, rng)
        h = layer_fn(h, p)
        if l < last:
            h = ad.relu(h)
            hidden = h
    return (h, hidden) if return_hidden else h


def mlp_forward(x, params, cfg, training=False, rng=None, return_hidden=False):
    """Plain fully-connected stack; returns n x n_classes logits."""
    def layer(h, p):
        return ad.add(ad.matmul(h, p.weight), p.bias)

    return _stack_forward(x, params, cfg, layer, training, rng, return_hidden)


def gcn_forward(x, a_hat, params, cfg, training=False, rng=None, return_hidden=False):
    """Per layer: A_hat @ (H W) + b, ReLU between layers."""
    def layer(h, p):
        return ad.add(ad.spmm(a_hat, ad.matmul(h, p.weight)), p.bias)

    return _stack_forward(x, params, cfg, layer, training, rng, return_hidden)


def gat_forward(x, a_hat: NormalizedAdjacency, params, cfg, training=False, rng=None,
                return_hidden=False, return_attention=False):
    """Single-head attention aggregation over A_hat's stored entries.

    Only the pattern of A_hat is read, not its values.  Per stored entry
    (v, u): score = LeakyReLU(attn . [W h_v || W h_u]), normalized by
    softmax over v's entries, then h'_v = sum_u alpha_vu (W h_u + bias).
    Since attention rows sum to 1, folding the bias into the aggregated
    term equals adding it afterwards.
    """
    if not a_hat.has_all_self_loops:
        raise InputError("gat_forward needs a self-looped adjacency (apply add_self_loops)")
    rows = a_hat.row_index_per_entry()
    attentions = []

    def layer(h, p):
        wh = ad.add(ad.matmul(h, p.weight), p.bias)
        per_edge = ad.concat_cols(ad.gather_rows(wh, rows), ad.gather_rows(wh, a_hat.indices))
        scores = ad.leaky_relu(ad.matmul(per_edge, p.attn), cfg.leaky_slope)
        alpha = ad.edge_softmax(scores, a_hat)
        attentions.append(alpha)
        return ad.edge_aggregate(alpha, wh, a_hat)

    out = _stack_forward(x, params, cfg, layer, training, rng, return_hidden)
    if return_attention:
        return (*out, attentions) if return_hidden else (out, attentions)
    return out


def appnp_forward(x, a_hat, params, cfg, training=False, rng=None, return_hidden=False):
    """MLP trunk followed by K propagation steps
    Z <- (1 - alpha) A_hat Z + alpha H, starting from Z = H."""
    res = mlp_forward(x, params, cfg, training, rng, return_hidden=True)
    h, hidden = res
    z = h
    for _ in range(cfg.appnp_k):
        z = ad.add(ad.scale(ad.spmm(a_hat, z), 1.0 - cfg.appnp_alpha),
                   ad.scale(h, cfg.appnp_alpha))
    return (z, hidden) if return_hidden else z


@dataclass
class Model:
    """A model kind plus its trainable parameters."""

    cfg: ModelConfig
    params: list[LayerParams] = field(default_factory=list)

    @classmethod
    def init(cls, cfg: ModelConfig, d_in: int, n_classes: int, seed) -> "Model":
        return cls(cfg, init_params(cfg, d_in, n_classes, seed))

    def forward(self, x, a_hat: NormalizedAdjacency | None = None, training=False, rng=None,
                return_hidden=False):
        """Logits; every kind but MLP needs ``a_hat``."""
        if self.cfg.kind == "mlp":
            return mlp_forward(x, self.params, self.cfg, training, rng, return_hidden)
        graph_forward = {"gcn": gcn_forward, "gat": gat_forward, "appnp": appnp_forward}
        return graph_forward[self.cfg.kind](x, a_hat, self.params, self.cfg, training, rng,
                                            return_hidden)

    def parameters(self) -> list[Tensor]:
        return [t for p in self.params for t in p.tensors()]

    def decay_mask(self) -> list[bool]:
        """True for tensors subject to L2 weight decay (weights and
        attention vectors, not biases)."""
        out = []
        for p in self.params:
            out.extend([True, False] + ([True] if p.attn is not None else []))
        return out

    def state_values(self) -> list[np.ndarray]:
        return [t.values.copy() for t in self.parameters()]

    def load_state_values(self, values) -> None:
        for t, v in zip(self.parameters(), values, strict=True):
            t.values = v.copy()


def hidden_embedding(model: Model, x, a_hat: NormalizedAdjacency | None = None) -> Tensor:
    """Penultimate-layer activations (n x hidden_dim), dropout disabled."""
    if model.cfg.n_layers < 2:
        raise InputError("hidden_embedding needs a model with >= 2 layers")
    _, hidden = model.forward(x, a_hat, training=False, return_hidden=True)
    return hidden


def save_checkpoint(model: Model, path, preprocessing: dict | None = None) -> None:
    """Write the model config, its parameters and, when given, the feature
    preprocessing it was trained with as an ``.npz`` archive.

    Entries carry a fixed timestamp, so equal parameters give equal bytes.
    """
    cfg = model.cfg
    meta = {
        "kind": cfg.kind, "n_layers": cfg.n_layers, "hidden_dim": cfg.hidden_dim,
        "dropout": cfg.dropout, "appnp_alpha": cfg.appnp_alpha,
        "appnp_k": cfg.appnp_k, "leaky_slope": cfg.leaky_slope,
    }
    entries = {"config": _json_bytes(meta)}
    if preprocessing is not None:
        entries["preprocessing"] = _json_bytes(preprocessing)
    for i, p in enumerate(model.params):
        entries[f"weight_{i}"] = p.weight.values
        entries[f"bias_{i}"] = p.bias.values
        if p.attn is not None:
            entries[f"attn_{i}"] = p.attn.values
    with zipfile.ZipFile(path, "w") as zf:
        for name, values in entries.items():
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with zf.open(info, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asanyarray(values))


def _json_bytes(obj) -> np.ndarray:
    return np.frombuffer(json.dumps(obj).encode(), dtype=np.uint8)


def load_checkpoint(path) -> Model:
    with np.load(path) as data:
        meta = json.loads(bytes(data["config"]).decode())
        cfg = ModelConfig(**meta)
        params = []
        for i in range(cfg.n_layers):
            weight = Tensor(data[f"weight_{i}"], requires_grad=True)
            bias = Tensor(data[f"bias_{i}"], requires_grad=True)
            attn = None
            if f"attn_{i}" in data:
                attn = Tensor(data[f"attn_{i}"], requires_grad=True)
            params.append(LayerParams(weight, bias, attn))
    return Model(cfg, params)


def load_preprocessing(path) -> dict:
    """The preprocessing recorded by :func:`save_checkpoint`, ``{}`` if none."""
    with np.load(path) as data:
        if "preprocessing" not in data:
            return {}
        return json.loads(bytes(data["preprocessing"]).decode())
