"""Deterministic offline generator of citation-shaped datasets.

Writes the plain-text dataset format gssl loads (``graph.edges``,
``#sparse`` ``features.csv``, ``labels.txt``) with exactly the node,
undirected-edge, class and feature counts of a named profile.  Classes
are planted as homophilous communities; features are bag-of-words rows
whose words lean only slightly towards a per-class topic, so a model that
ignores the graph stays well below a model that uses it.

Usage: python3 perfbench/gen.py --profile cora --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Profile:
    n_nodes: int
    n_edges: int
    n_classes: int
    n_features: int
    words_per_node: int   # stored feature entries per row (density * d)
    binary: bool          # 0/1 bag of words, else TF-IDF-like reals
    homophily: float      # share of edges drawn inside one class
    topic_boost: float    # weight multiplier of a class's topic words
    class_weights: tuple[float, ...]


# Counts match gssl.cli.KNOWN_DATASETS; class shares follow the real sets.
PROFILES = {
    "cora": Profile(2708, 5429, 7, 1433, 18, True, 0.72, 5.0,
                    (351, 217, 418, 818, 426, 298, 180)),
    "pubmed": Profile(19717, 44338, 3, 500, 50, False, 0.80, 3.0,
                      (4103, 7739, 7875)),
}


def _labels(p: Profile, rng) -> np.ndarray:
    shares = np.asarray(p.class_weights, dtype=np.float64)
    sizes = np.floor(shares / shares.sum() * p.n_nodes).astype(np.int64)
    sizes[np.argmax(sizes)] += p.n_nodes - sizes.sum()
    return rng.permutation(np.repeat(np.arange(p.n_classes), sizes))


def _tree(p: Profile, labels: np.ndarray, rng) -> np.ndarray:
    """Keys u * n + v of a random spanning tree, as in a citation graph
    where every paper cites one earlier paper (of its own class with
    probability ``homophily``).  A connected graph keeps the diffusion
    workload's iteration counts from hinging on a few tiny components."""
    n = p.n_nodes
    order = rng.permutation(n)
    seen: list[list[int]] = [[] for _ in range(p.n_classes)]
    seen[labels[order[0]]].append(int(order[0]))
    same = rng.random(n) < p.homophily
    draws = rng.random(n)
    keys = np.empty(n - 1, dtype=np.int64)
    for i in range(1, n):
        v = int(order[i])
        pool = seen[labels[v]]
        if same[i] and pool:
            u = pool[int(draws[i] * len(pool))]
        else:
            u = int(order[int(draws[i] * i)])
        keys[i - 1] = min(u, v) * n + max(u, v)
        pool.append(v)
    return keys


def _edges(p: Profile, labels: np.ndarray, rng) -> np.ndarray:
    """Exactly ``n_edges`` distinct undirected pairs u < v, no self-loops.

    A spanning tree first, then endpoints drawn with heavy-tailed
    activity weights; a share ``homophily`` of candidate pairs picks its
    second endpoint from the first endpoint's class.
    """
    n = p.n_nodes
    activity = rng.pareto(2.5, size=n) + 1.0
    prob = activity / activity.sum()
    members = [np.flatnonzero(labels == c) for c in range(p.n_classes)]
    member_prob = [prob[m] / prob[m].sum() for m in members]
    keys = _tree(p, labels, rng)
    while keys.size < p.n_edges:
        batch = 2 * (p.n_edges - keys.size) + 64
        u = rng.choice(n, size=batch, p=prob)
        v = rng.choice(n, size=batch, p=prob)
        inside = rng.random(batch) < p.homophily
        for c in range(p.n_classes):
            sel = np.flatnonzero(inside & (labels[u] == c))
            v[sel] = rng.choice(members[c], size=sel.size, p=member_prob[c])
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        cand = (lo * n + hi)[lo != hi]
        merged = np.concatenate([keys, cand])
        _, first = np.unique(merged, return_index=True)
        keys = merged[np.sort(first)]
    keys = keys[:p.n_edges]
    return np.stack([keys // n, keys % n], axis=1)


def _features(p: Profile, labels: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Per row, ``words_per_node`` distinct word ids and their values.

    Words are drawn without replacement (Gumbel top-k) from a Zipf-like
    background whose weights are multiplied by ``topic_boost`` on the
    node's class topic (a tenth of the vocabulary, disjoint between classes).
    """
    d, k, c = p.n_features, p.words_per_node, p.n_classes
    size = d // 10
    # Topic words interleave over the frequency ranks, so every class's
    # topic has the same frequency profile whatever the seed.
    ranks = np.arange(size * c).reshape(size, c).T * (d // (size * c))
    topics = np.zeros((c, d), dtype=bool)
    np.put_along_axis(topics, ranks, True, axis=1)
    logw = -0.6 * np.log(np.arange(1, d + 1)) + np.log(p.topic_boost) * topics[labels]
    logw = logw[:, rng.permutation(d)]  # word ids carry no frequency order
    scores = logw + rng.gumbel(size=logw.shape)
    idx = np.sort(np.argpartition(-scores, k - 1, axis=1)[:, :k], axis=1)
    if p.binary:
        vals = np.ones(idx.shape)
    else:
        vals = np.round(rng.gamma(2.0, 0.05, size=idx.shape) + 0.001, 4)
    return idx, vals


def generate(profile: str, seed: int, out_dir) -> Path:
    """Write one dataset directory; the same (profile, seed) gives the same bytes."""
    p = PROFILES[profile]
    ss = np.random.SeedSequence([seed, sorted(PROFILES).index(profile)])
    r_lab, r_edge, r_feat = (np.random.default_rng(s) for s in ss.spawn(3))
    labels = _labels(p, r_lab)
    edges = _edges(p, labels, r_edge)
    idx, vals = _features(p, labels, r_feat)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "graph.edges", "w", encoding="ascii") as fh:
        fh.write("".join(f"{u} {v}\n" for u, v in edges.tolist()))
    fmt = (lambda i, v: f"{i}:1") if p.binary else (lambda i, v: f"{i}:{v:g}")
    with open(out / "features.csv", "w", encoding="ascii") as fh:
        fh.write(f"#sparse d={p.n_features}\n")
        fh.write("".join(" ".join(fmt(i, v) for i, v in zip(ri, rv)) + "\n"
                         for ri, rv in zip(idx.tolist(), vals.tolist())))
    with open(out / "labels.txt", "w", encoding="ascii") as fh:
        fh.write("".join(f"{y}\n" for y in labels.tolist()))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--profile", choices=sorted(PROFILES), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.profile, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
