"""Tests of the benchmark itself: generator, tracer transparency, metric names.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import measure  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

from gssl import cli, data  # noqa: E402
from gssl.losses import LossConfig  # noqa: E402
from gssl.models import Model, ModelConfig  # noqa: E402
from gssl.trainer import DataContext, TrainConfig  # noqa: E402


def _digest(directory: Path) -> dict:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(directory.iterdir())}


@pytest.mark.parametrize("profile", sorted(gen.PROFILES))
def test_generator_counts_and_bytes(profile, tmp_path):
    a = gen.generate(profile, 7, tmp_path / "a")
    b = gen.generate(profile, 7, tmp_path / "b")
    assert _digest(a) == _digest(b)
    assert _digest(gen.generate(profile, 8, tmp_path / "c")) != _digest(a)
    ds = data.load_dataset(a)
    counts = (ds.n_nodes, ds.graph.n_undirected_edges, ds.n_classes, ds.n_features)
    assert counts == cli.KNOWN_DATASETS[profile]
    density = float(np.mean(ds.features != 0))
    assert density == pytest.approx(gen.PROFILES[profile].words_per_node / ds.n_features)


@pytest.fixture(scope="module")
def cora_ctx(tmp_path_factory):
    ds = data.load_dataset(gen.generate("cora", 3, tmp_path_factory.mktemp("cora")))
    ds = data.row_normalize_features(ds)
    return DataContext.from_dataset(ds), data.make_splits(ds, 20, 1, 0)[0]


def _train_all(ctx, split):
    out = []
    for kind, mu in (("mlp", 0.0), ("gcn", 0.5), ("gat", 0.0), ("appnp", 0.1)):
        model = Model.init(ModelConfig(kind=kind, n_layers=2), ctx.x.shape[1],
                           ctx.n_classes, seed=1)
        cfg = TrainConfig(max_epochs=3, patience=3, loss=LossConfig(mu=mu), seed=1)
        report = cli.train(model, ctx, split, cfg)  # looked up at call time
        out.append((report.history, report.test_acc, model.state_values()))
    return out


def test_full_tracer_is_transparent(cora_ctx, tmp_path):
    ctx, split = cora_ctx
    plain = _train_all(ctx, split)
    snapshot = [(m, k, v) for m in tracer_mod.MODULES for k, v in vars(m).items()]
    forward = DataContext.forward
    t = tracer_mod.Tracer("full", tmp_path)
    with t:
        traced = _train_all(ctx, split)
    assert DataContext.forward is forward
    assert all(getattr(m, k) is v for m, k, v in snapshot)
    for (h0, acc0, w0), (h1, acc1, w1) in zip(plain, traced, strict=True):
        assert h0 == h1 and acc0 == acc1  # bit-identical floats
        assert all(np.array_equal(a, b) for a, b in zip(w0, w1, strict=True))
    state = t.collect()
    assert [r["kind"] for r in state["runs"]] == ["mlp", "gcn", "gat", "appnp"]
    assert all(len(r["epochs"]) == 3 for r in state["runs"])
    assert {"dropout", "matmul", "spmm", "gather_rows", "edge_softmax"} <= set(state["ops"])


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}

    state = tracer_mod.empty_state()
    state["runs"] = [{"id": "0-0", "kind": "gcn", "mu": 0.0, "ell": 20, "n_layers": 2,
                      "seed": 0, "start": 0.0, "end": 12.0,
                      "epochs": [{"start": float(i), "end": i + 0.9 + i / 100, "evals": 1,
                                  "phases": {"adam": [[i + 0.5, i + 0.51]]}}
                                 for i in range(12)]}]
    passes = [{"wall": 12.5, "table_s": 12.3, "start": 0.0, "end": 12.5, "accs": [0.5],
               "csv": ""}]
    for w in WORKLOADS.values():
        e2e = measure.end_to_end([1.0, 1.1, 0.9], passes, state)
        assert list(e2e) == [name for name, _ in END_TO_END]
        assert all(v > 0 for v in e2e.values())
        layers = measure.per_layer(w, state, passes, [12.0, 12.4])
        assert list(layers) == [name for name, _ in PER_LAYER]
