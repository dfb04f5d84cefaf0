import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gssl.cli
from gssl.cli import (ExperimentSpec, ModelSpec, aggregate_runs, cmd_propagate,
                      cmd_export_embeddings, cmd_validate_dataset, main,
                      run_experiment)
from gssl.data import LabeledDataset, load_dataset, load_splits
from gssl.diffusion import DiffusionConfig
from gssl.errors import InputError
from gssl.models import Model, ModelConfig, hidden_embedding, load_checkpoint, save_checkpoint
from gssl.trainer import DataContext

from conftest import barbell_graph, forbid_densifying, save_dataset, two_blob_dataset


def write_blobs(tmp_path, n_per=16, seed=0):
    ds = two_blob_dataset(n_per=n_per, seed=seed)
    out = tmp_path / "two_blobs"
    save_dataset(ds, out)
    return out, ds


def write_barbell(tmp_path):
    labels = np.array([0] * 5 + [1] * 5)
    features = np.ones((10, 2))
    ds = LabeledDataset(barbell_graph(5), features, labels, name="barbell")
    out = tmp_path / "barbell"
    save_dataset(ds, out)
    return out


def tiny_spec(dataset_dir, out_dir, **overrides) -> ExperimentSpec:
    base = dict(
        dataset=str(dataset_dir),
        models=[ModelSpec("mlp", False), ModelSpec("mlp", True)],
        ell=[3],
        n_splits=2,
        layer_counts=[2],
        mu_grid=[0.5, 1.0],
        base_seed=0,
        output_dir=str(out_dir),
        hidden_dim=4,
        max_epochs=5,
        patience=5,
        val_size=8,
        test_size=8,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def quiet(*args, **kwargs):
    pass


def assert_csv_is_aggregate(out_dir):
    assert ((out_dir / "results.csv").read_bytes()
            == aggregate_runs(out_dir / "runs").to_csv().encode("ascii"))


def output_bytes(out_dir):
    return {p.relative_to(out_dir): p.read_bytes() for p in sorted(out_dir.rglob("*"))
            if p.is_file()}


def test_validate_dataset_ok(tmp_path, capsys):
    d, ds = write_blobs(tmp_path)
    assert cmd_validate_dataset(d)
    out = capsys.readouterr().out
    assert out.strip().endswith("OK")
    assert f"{ds.n_nodes} nodes" in out


def test_validate_dataset_checks_symmetry_without_densifying(tmp_path, monkeypatch, capsys):
    d, _ = write_blobs(tmp_path)

    forbid_densifying(monkeypatch, "validate-dataset")
    assert cmd_validate_dataset(d)
    assert capsys.readouterr().out.strip().endswith("OK")


def test_validate_dataset_reports_line_numbered_corruption(tmp_path, capsys):
    d, _ = write_blobs(tmp_path)
    (d / "labels.txt").write_text("0\nbogus\n" + "1\n" * 30, encoding="ascii")
    assert not cmd_validate_dataset(d)
    assert "labels.txt:2" in capsys.readouterr().out


def test_main_validate_exit_codes(tmp_path):
    d, _ = write_blobs(tmp_path)
    assert main(["validate-dataset", str(d)]) == 0
    (d / "labels.txt").write_text("0\n", encoding="ascii")
    assert main(["validate-dataset", str(d)]) == 1


def test_a_class_id_beyond_the_node_count_is_one_short_error(tmp_path, capsys):
    d, ds = write_blobs(tmp_path)
    labels = ds.labels.tolist()[:-1] + [1_000_000]
    (d / "labels.txt").write_text("".join(f"{c}\n" for c in labels), encoding="ascii")
    assert main(["validate-dataset", str(d)]) == 1
    out = capsys.readouterr().out
    assert f"class id 1000000 needs 1000001 classes, more than {ds.n_nodes} nodes can hold" in out
    assert len(out) < 500


def test_main_make_splits(tmp_path):
    d, _ = write_blobs(tmp_path, n_per=20)
    out = tmp_path / "splits.json"
    rc = main(["make-splits", "--dataset", str(d), "--ell", "3", "--n-splits", "2",
               "--val-size", "8", "--test-size", "8", "--out", str(out)])
    assert rc == 0
    splits = load_splits(out)
    assert len(splits) == 2
    assert all(len(s.train) == 6 for s in splits)


def test_negative_seed_is_input_error_exit_2(tmp_path, capsys):
    d, _ = write_blobs(tmp_path, n_per=20)
    sizes = ["--ell", "3", "--val-size", "8", "--test-size", "8", "--seed", "-1"]
    assert main(["make-splits", "--dataset", str(d), "--out", str(tmp_path / "s.json")]
                + sizes) == 2
    assert main(["propagate", "--dataset", str(d)] + sizes) == 2
    # a dataset that does not exist still reports the seed: nothing was read
    assert main(["propagate", "--dataset", str(tmp_path / "missing")] + sizes) == 2
    err = capsys.readouterr().err
    assert err.count("error: --seed must be >= 0, got -1") == 3


@pytest.mark.parametrize("command", ["make-splits", "propagate"])
@pytest.mark.parametrize("flag", ["--val-size", "--test-size"])
def test_negative_split_size_is_input_error_exit_2(tmp_path, capsys, command, flag):
    # size 0 stays legal: propagate then scores the unlabeled nodes
    d, _ = write_blobs(tmp_path, n_per=20)
    argv = [command, "--dataset", str(d), "--ell", "3", "--val-size", "8", "--test-size", "8",
            flag, "-5"] + (["--out", str(tmp_path / "s.json")] if command == "make-splits" else [])
    assert main(argv) == 2
    name = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: {name} must be >= 0, got -5\n"


def test_propagate_barbell_is_perfect(tmp_path, capsys):
    d = write_barbell(tmp_path)
    acc = cmd_propagate(d, ell=1, gamma=0.2, seed=0, val_size=0, test_size=0)
    assert acc == 1.0
    out = capsys.readouterr().out
    iters, residual = re.search(r"100\.00% \(n=\d+\), (\d+) iterations, residual (\S+)$", out).groups()
    assert int(iters) > 1 and 0 <= float(residual) < DiffusionConfig(gamma=0.2).tol


def test_propagate_gamma_one_degenerates_to_tie_breaks(tmp_path):
    # gamma = 1: unlabeled rows stay zero, argmax ties resolve to class 0
    d = write_barbell(tmp_path)
    acc = cmd_propagate(d, ell=1, gamma=1.0, seed=0, val_size=0, test_size=0)
    assert acc < 1.0


def test_run_experiment_outputs_and_determinism(tmp_path):
    data_dir, _ = write_blobs(tmp_path, n_per=16, seed=3)
    spec1 = tiny_spec(data_dir, tmp_path / "out1")
    table1 = run_experiment(spec1, log=lambda *a, **k: None)
    spec2 = tiny_spec(data_dir, tmp_path / "out2")
    run_experiment(spec2, log=lambda *a, **k: None)

    csv1 = (tmp_path / "out1" / "results.csv").read_bytes()
    csv2 = (tmp_path / "out2" / "results.csv").read_bytes()
    assert csv1 == csv2

    rows = {(r.model, r.regularized): r for r in table1.rows}
    assert set(rows) == {("mlp", False), ("mlp", True)}
    vanilla = rows[("mlp", False)]
    assert vanilla.n_splits == 2
    assert vanilla.mu == 0.0
    assert 0.0 <= vanilla.mean_acc <= 100.0
    assert vanilla.std_acc >= 0.0
    reg = rows[("mlp", True)]
    assert reg.mu in (0.5, 1.0)

    run_files = sorted((tmp_path / "out1" / "runs").glob("*.json"))
    # vanilla: 2 splits; regularized: 2 mu values x 2 splits
    assert len(run_files) == 2 + 4
    record = json.loads(run_files[0].read_text())
    for key in ("model", "dataset", "seed", "ell", "mu", "best_epoch", "test_acc", "history"):
        assert key in record


def test_aggregate_runs_regenerates_table(tmp_path):
    data_dir, _ = write_blobs(tmp_path, n_per=16, seed=4)
    spec = tiny_spec(data_dir, tmp_path / "out")
    table = run_experiment(spec, log=lambda *a, **k: None)
    rebuilt = aggregate_runs(tmp_path / "out" / "runs")
    assert rebuilt.to_csv() == table.to_csv()


def test_run_single_split_reports_zero_std(tmp_path):
    data_dir, _ = write_blobs(tmp_path, n_per=16, seed=5)
    spec = tiny_spec(data_dir, tmp_path / "out", n_splits=1,
                     models=[ModelSpec("gcn", False)], mu_grid=[1.0])
    table = run_experiment(spec, log=lambda *a, **k: None)
    assert table.rows[0].std_acc == 0.0
    assert table.rows[0].n_splits == 1


def test_failed_cell_isolated(tmp_path, monkeypatch):
    # a bad layer count is rejected with the spec, so the failure is injected
    data_dir, _ = write_blobs(tmp_path, n_per=16, seed=6)
    real_train = gssl.cli.train

    def train_failing_at_one_layer(model, ctx, split, cfg):
        if model.cfg.n_layers == 1:
            raise RuntimeError("injected")
        return real_train(model, ctx, split, cfg)

    monkeypatch.setattr(gssl.cli, "train", train_failing_at_one_layer)
    spec = tiny_spec(data_dir, tmp_path / "out", layer_counts=[1, 2],
                     models=[ModelSpec("mlp", False)])
    table = run_experiment(spec, log=lambda *a, **k: None)
    by_layers = {r.n_layers: r for r in table.rows}
    assert by_layers[1].status.startswith("failed")
    assert by_layers[2].status == "ok"
    csv_text = (tmp_path / "out" / "results.csv").read_text()
    assert "failed" in csv_text
    assert_csv_is_aggregate(tmp_path / "out")


def test_cell_failing_after_first_mu_is_failed_everywhere(tmp_path, monkeypatch):
    data_dir, _ = write_blobs(tmp_path, n_per=16, seed=6)
    real_train = gssl.cli.train

    def train_failing_at_mu_one(model, ctx, split, cfg):
        if cfg.loss.mu == 1.0:
            raise RuntimeError("injected")
        return real_train(model, ctx, split, cfg)

    monkeypatch.setattr(gssl.cli, "train", train_failing_at_mu_one)
    spec = tiny_spec(data_dir, tmp_path / "out", mu_grid=[0.5, 1.0])
    table = run_experiment(spec, log=quiet)
    rows = {r.label: r for r in table.rows}
    assert rows["MLP"].status == "ok"
    assert rows["R-MLP"].status == "failed: RuntimeError: injected"
    assert_csv_is_aggregate(tmp_path / "out")


def test_inline_runs_go_through_module_train(tmp_path, monkeypatch):
    # profilers and tests substitute gssl.cli.train; inline runs must look it up per call
    data_dir, _ = write_blobs(tmp_path, n_per=16, seed=6)
    real_train = gssl.cli.train
    seen = []

    def spy(model, ctx, split, cfg):
        seen.append((model.cfg.kind, cfg.loss.mu, split.seed))
        return real_train(model, ctx, split, cfg)

    monkeypatch.setattr(gssl.cli, "train", spy)
    run_experiment(tiny_spec(data_dir, tmp_path / "out"), log=quiet)
    assert sorted(seen) == [("mlp", mu, seed) for mu in (0.0, 0.5, 1.0) for seed in (0, 1)]


def test_export_embeddings_cli(tmp_path, capsys):
    data_dir, ds = write_blobs(tmp_path, n_per=16, seed=7)
    model = Model.init(ModelConfig(kind="gcn", n_layers=2, hidden_dim=6),
                       ds.n_features, ds.n_classes, seed=1)
    ckpt = tmp_path / "gcn.npz"
    save_checkpoint(model, ckpt)
    out = tmp_path / "emb.csv"
    rc = main(["export-embeddings", "--checkpoint", str(ckpt),
               "--dataset", str(data_dir), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "node," + ",".join(f"dim{i}" for i in range(6))
    assert len(lines) == 1 + ds.n_nodes
    first = np.array([float(v) for v in lines[1].split(",")[1:]])
    assert np.isfinite(first).all()
    rc = main(["export-embeddings", "--checkpoint", str(ckpt),
               "--dataset", str(data_dir), "--out", str(tmp_path / "emb2.csv")])
    assert rc == 0
    assert out.read_text() == (tmp_path / "emb2.csv").read_text()


def test_export_of_an_overflowing_model_fails_and_writes_nothing(tmp_path, capsys):
    # finite weights whose forward overflows: the embedding would hold inf/nan
    data_dir, ds = write_blobs(tmp_path, n_per=16, seed=7)
    model = Model.init(ModelConfig(kind="gcn", n_layers=3, hidden_dim=6),
                       ds.n_features, ds.n_classes, seed=1)
    for p in model.params:
        p.weight.values = np.where(p.weight.values > 0, 1e200, -1e200)
    ckpt = tmp_path / "gcn.npz"
    save_checkpoint(model, ckpt)
    out = tmp_path / "emb.csv"
    rc = main(["export-embeddings", "--checkpoint", str(ckpt),
               "--dataset", str(data_dir), "--out", str(out)])
    assert rc == 2
    assert "non-finite hidden embedding" in capsys.readouterr().err
    assert not out.exists()


def test_export_applies_the_checkpoint_preprocessing(tmp_path):
    data_dir, _ = write_blobs(tmp_path, n_per=16, seed=13)
    spec = tiny_spec(data_dir, tmp_path / "out", models=[ModelSpec("gcn", False)], n_splits=1,
                     normalize_features=False, save_checkpoints=True)
    run_experiment(spec, log=quiet)
    ckpt = tmp_path / "out" / "GCN_ell3_L2.npz"
    cmd_export_embeddings(ckpt, data_dir, tmp_path / "emb.csv", log=quiet)
    exported = np.loadtxt(tmp_path / "emb.csv", delimiter=",", skiprows=1)[:, 1:]
    ctx = DataContext.from_dataset(load_dataset(data_dir))
    expected = hidden_embedding(load_checkpoint(ckpt), ctx.x, ctx.a_hat).values
    assert np.array_equal(exported, expected)


def test_missing_checkpoint_is_error(tmp_path):
    data_dir, _ = write_blobs(tmp_path, n_per=16, seed=8)
    with pytest.raises(InputError, match="checkpoint"):
        cmd_export_embeddings(tmp_path / "nope.npz", data_dir, tmp_path / "x.csv")


def test_run_via_main_and_spec_file(tmp_path):
    data_dir, _ = write_blobs(tmp_path, n_per=16, seed=9)
    spec = tiny_spec(data_dir, tmp_path / "out", models=[ModelSpec("mlp", False)],
                     n_splits=1)
    spec_path = tmp_path / "spec.json"
    payload = dict(spec.__dict__)
    payload["models"] = [{"kind": "mlp", "regularized": False}]
    spec_path.write_text(json.dumps(payload), encoding="utf-8")
    rc = main(["run", "--spec", str(spec_path)])
    assert rc == 0
    assert (tmp_path / "out" / "results.csv").is_file()
    assert (tmp_path / "out" / "results.txt").is_file()
    # command-line overrides pass the spec's own checks
    assert main(["run", "--spec", str(spec_path), "--workers", "0"]) == 2


def test_truncated_run_record_is_input_error_exit_2(tmp_path, capsys):
    data_dir, _ = write_blobs(tmp_path, n_per=16, seed=9)
    spec = tiny_spec(data_dir, tmp_path / "out", models=[ModelSpec("mlp", False)],
                     n_splits=1)
    run_experiment(spec, log=quiet)
    runs = tmp_path / "out" / "runs"
    assert [p.suffix for p in runs.iterdir()] == [".json"]  # no temporary left behind
    record = next(runs.iterdir())
    record.write_bytes(record.read_bytes()[:20])
    with pytest.raises(InputError, match=re.escape(record.name)):
        aggregate_runs(runs)
    spec_path = tmp_path / "spec.json"
    payload = dict(spec.__dict__, models=[{"kind": "mlp"}])
    spec_path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["run", "--spec", str(spec_path)]) == 2
    assert record.name in capsys.readouterr().err


def spec_file(spec, path):
    path.write_text(json.dumps(dict(spec.__dict__, models=[m.__dict__ for m in spec.models])),
                    encoding="utf-8")
    return str(path)


def test_a_failed_rerun_leaves_no_earlier_output(tmp_path, capsys):
    data_dir, _ = write_blobs(tmp_path, n_per=16, seed=9)
    out = tmp_path / "out"
    spec = spec_file(tiny_spec(data_dir, out, n_splits=1, save_checkpoints=True),
                     tmp_path / "spec.json")
    assert main(["run", "--spec", spec]) == 0
    assert {"results.csv", "results.txt", "MLP_ell3_L2.npz", "R-MLP_ell3_L2.npz"} <= {
        p.name for p in out.iterdir()}
    for left in ("results.csv.tmp", "MLP_ell3_L2.npz.tmp", "runs/MLP_seed9.json.tmp"):
        (out / left).write_text("a killed run's", encoding="ascii")
    (out / "notes.txt").write_text("not the spec's", encoding="ascii")
    (data_dir / "labels.txt").unlink()
    assert main(["run", "--spec", spec]) == 2
    assert "missing labels.txt" in capsys.readouterr().err
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == ["notes.txt", "runs"]


@pytest.mark.parametrize("edit, named", [
    (lambda r: [], "is not a JSON object"),
    (lambda r: {}, "lacks dataset, kind, regularized, ell, n_layers, mu, seed, test_acc"),
    (lambda r: {k: v for k, v in r.items() if k != "mu"}, "lacks mu"),
    (lambda r: {k: v for k, v in r.items() if k != "val_acc_best"}, "lacks val_acc_best"),
    (lambda r: dict(r, test_acc=None), "test_acc must be float, got None"),
    (lambda r: dict(r, mu="x"), "mu must be float, got 'x'"),
    (lambda r: dict(r, seed="0"), "seed must be int, got '0'"),
    (lambda r: dict(r, regularized="no"), "regularized must be bool, got 'no'"),
    (lambda r: dict(r, val_acc_best=[1]), "val_acc_best must be float, got [1]"),
    (lambda r: dict(r, n_layers=2.5), "n_layers must be int, got 2.5"),
    (lambda r: dict(r, status=5), "status must be str, got 5"),
    (lambda r: dict(r, status=None), "status must be str, got None"),
    (lambda r: dict(r, spec_hash=["x"]), "spec_hash must be str, got ['x']"),
], ids=["list", "empty-object", "no-mu", "ok-without-val-acc", "null-test-acc", "str-mu",
        "str-seed", "str-regularized", "list-val-acc", "float-n-layers", "int-status",
        "null-status", "list-spec-hash"])
def test_a_run_record_that_is_not_one_is_input_error_exit_2(tmp_path, capsys, edit, named):
    data_dir, _ = write_blobs(tmp_path, n_per=16, seed=9)
    spec = tiny_spec(data_dir, tmp_path / "out", models=[ModelSpec("mlp", False)], n_splits=2)
    run_experiment(spec, log=quiet)
    record = next((tmp_path / "out" / "runs").iterdir())
    record.write_text(json.dumps(edit(json.loads(record.read_text(encoding="utf-8")))),
                      encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{record.name} {named}")):
        aggregate_runs(record.parent)
    assert main(["run", "--spec", spec_file(spec, tmp_path / "spec.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and record.name in err and named in err


@pytest.mark.parametrize("command", ["make-splits", "export-embeddings", "run"])
def test_an_output_path_that_cannot_be_written_is_error_exit_2(tmp_path, capsys, command):
    data_dir, ds = write_blobs(tmp_path, n_per=16, seed=9)
    ckpt = tmp_path / "model.npz"
    save_checkpoint(Model.init(ModelConfig(kind="mlp", n_layers=2, hidden_dim=4),
                               ds.n_features, ds.n_classes, seed=0), ckpt)
    (tmp_path / "file").write_text("a regular file", encoding="ascii")
    spec = tiny_spec(data_dir, tmp_path / "out", n_splits=1)
    argv = {"make-splits": ["make-splits", "--dataset", str(data_dir), "--ell", "3",
                            "--val-size", "8", "--test-size", "8",
                            "--out", str(tmp_path / "missing" / "s.json")],
            "export-embeddings": ["export-embeddings", "--checkpoint", str(ckpt),
                                  "--dataset", str(data_dir),
                                  "--out", str(tmp_path / "missing" / "emb.csv")],
            "run": ["run", "--spec", spec_file(spec, tmp_path / "spec.json"),
                    "--output-dir", str(tmp_path / "file" / "out")]}[command]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["make-splits", "export-embeddings"])
def test_an_interrupted_write_leaves_no_file(tmp_path, capsys, monkeypatch, command):
    data_dir, ds = write_blobs(tmp_path, n_per=16, seed=9)
    ckpt = tmp_path / "model.npz"
    save_checkpoint(Model.init(ModelConfig(kind="mlp", n_layers=2, hidden_dim=4),
                               ds.n_features, ds.n_classes, seed=0), ckpt)

    def full_disk():
        raise OSError(errno.ENOSPC, "No space left on device")

    def save_splits(splits, path):  # writes a part of the file, then fails
        Path(path).write_text("[", encoding="ascii")
        full_disk()

    class Embedding:  # its rows fail after the first has been written
        shape = (ds.n_nodes, 4)

        def __iter__(self):
            yield np.zeros(4)
            full_disk()

    monkeypatch.setattr(gssl.cli, "save_splits", save_splits)
    embedding = SimpleNamespace(values=Embedding())
    monkeypatch.setattr(gssl.cli, "hidden_embedding", lambda *_: embedding)
    out = str(tmp_path / "out.txt")
    argv = {"make-splits": ["make-splits", "--dataset", str(data_dir), "--ell", "3",
                            "--val-size", "8", "--test-size", "8", "--out", out],
            "export-embeddings": ["export-embeddings", "--checkpoint", str(ckpt),
                                  "--dataset", str(data_dir), "--out", out]}[command]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_python_dash_m_gssl_runs_the_cli(tmp_path):
    data_dir, _ = write_blobs(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(gssl.cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "gssl", "validate-dataset", str(data_dir)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.endswith("OK\n")


@pytest.mark.parametrize("text, named", [
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "n_split": 3}', "'n_split'"),
    ('{"dataset": "d"}', "'models'"),
    ('{"dataset": "d", "models": [{"kind": "mlp", "layers": 2}]}', "'layers'"),
    ('{"dataset": "d", "models": [{"regularized": true}]}', "'kind'"),
    ('{"dataset": "d", "models": ["mlp"]}', "must be a mapping, not str"),
    ('{"dataset": "d", "models": 3}', "'models' must be list[ModelSpec], got 3"),
    ('["d"]', "must be a mapping, not list"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "n_splits": "3"}',
     "'n_splits' must be int, got '3'"),
    ('{"dataset": "d", "models": [', "cannot read spec"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "ell": 20}', "'ell' must be list[int], got 20"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "n_splits": true}',
     "'n_splits' must be int, got True"),
    ('{"dataset": "d", "models": [{"kind": "mlp", "regularized": 1}]}',
     "'regularized' must be bool, got 1"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "layer_counts": []}',
     "layer_counts must not be empty"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "lr": 0}', "lr must be positive"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "lr": NaN}', "lr must be positive"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "lr": Infinity}',
     "lr must be positive and finite, got inf"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "weight_decay": -1}',
     "weight_decay must be >= 0"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "weight_decay": Infinity}',
     "weight_decay must be >= 0 and finite, got inf"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "dropout": 1.5}', "dropout must be in [0, 1)"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "layer_counts": [0]}', "n_layers must be >= 1"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "mu_grid": [-1]}', "mu must be >= 0"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "mu_grid": [NaN]}', "mu must be >= 0"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "mu_grid": [0.1, Infinity]}',
     "mu must be >= 0 and finite, got inf"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "val_size": 0}',
     "val_size and test_size must be >= 1"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "test_size": 0}',
     "val_size and test_size must be >= 1"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "ell": [0]}', "ell must be >= 1"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "ell": [20, -1]}', "ell must be >= 1"),
    ('{"dataset": "d", "models": [{"kind": "sage"}]}', "unknown model kind 'sage'"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "workers": 0}', "workers must be >= 1"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "base_seed": -1}', "seed must be >= 0"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "mu_grid": [0.1, 0.1000001]}',
     "mu_grid repeats 0.1"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "mu_grid": [0.5, 0.5]}',
     "mu_grid repeats 0.5"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "ell": [5, 5]}', "ell repeats 5"),
    ('{"dataset": "d", "models": [{"kind": "mlp"}], "layer_counts": [2, 2]}',
     "layer_counts repeats 2"),
    ('{"dataset": "d", "models": [{"kind": "gcn", "regularized": true}, {"kind": "mlp"}, '
     '{"kind": "gcn", "regularized": true}]}', "models repeats R-GCN"),
], ids=["unknown-key", "missing-models", "unknown-model-key", "missing-kind",
        "model-not-object", "models-not-list", "spec-not-object", "wrong-type",
        "malformed-json", "ell-not-list", "bool-as-int", "int-as-bool", "empty-layer-counts",
        "lr-zero", "lr-nan", "lr-infinite", "negative-weight-decay", "weight-decay-infinite",
        "dropout-above-1", "zero-layers", "negative-mu", "nan-mu", "mu-infinite", "val-size-zero",
        "test-size-zero", "ell-zero", "ell-negative", "unknown-kind", "workers-zero",
        "base-seed-negative", "mu-alike-in-records", "mu-repeated", "ell-repeated",
        "layer-counts-repeated", "model-repeated"])
def test_bad_spec_file_is_input_error_exit_2(tmp_path, monkeypatch, capsys, text, named):
    def no_load(*args):
        raise AssertionError("a bad spec reached the dataset loader")

    monkeypatch.setattr(gssl.cli, "_load_context", no_load)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(named)):
        ExperimentSpec.from_json(spec_path)
    assert main(["run", "--spec", str(spec_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def nan_in_dense_features(data_dir, ds, ckpt):
    rows = (data_dir / "features.csv").read_text(encoding="ascii").splitlines()
    rows[4] = "nan" + rows[4][rows[4].index(","):]
    (data_dir / "features.csv").write_text("\n".join(rows) + "\n", encoding="ascii")
    return "features.csv:5"


def inf_in_sparse_features(data_dir, ds, ckpt):
    rows = [f"#sparse d={ds.n_features}"]
    rows += [" ".join(f"{j}:{float(v)!r}" for j, v in enumerate(row))
             for row in ds.features.toarray()]
    rows[5] = "3:inf"
    (data_dir / "features.csv").write_text("\n".join(rows) + "\n", encoding="ascii")
    return "features.csv:6"


def negative_sparse_dimension(data_dir, ds, ckpt):
    (data_dir / "features.csv").write_text("#sparse d=-1\n" + "0:1.0\n" * ds.n_nodes,
                                           encoding="ascii")
    return "features.csv:1: sparse dimension must be >= 1"


def header_only_sparse_features(data_dir, ds, ckpt):
    (data_dir / "features.csv").write_text(f"#sparse d={ds.n_features}\n", encoding="ascii")
    return "features.csv: no feature rows"


def non_ascii_byte_in_labels(data_dir, ds, ckpt):
    (data_dir / "labels.txt").write_bytes(b"0\n1\xff\n" + b"1\n" * (ds.n_nodes - 2))
    return "labels.txt:2: byte 0xff is not printable ASCII"


def edge_beyond_the_nodes(data_dir, ds, ckpt):
    edges = data_dir / "graph.edges"
    lines = edges.read_text(encoding="ascii").splitlines(keepends=True)
    edges.write_text("".join(lines[:2]) + f"0 {ds.n_nodes}\n" + "".join(lines[2:]),
                     encoding="ascii")
    return f"graph.edges:3: node id {ds.n_nodes} out of range [0, {ds.n_nodes})"


def negative_label(data_dir, ds, ckpt):
    labels = data_dir / "labels.txt"
    lines = labels.read_text(encoding="ascii").splitlines(keepends=True)
    labels.write_text("".join(lines[:2]) + "-1\n" + "".join(lines[3:]), encoding="ascii")
    return "labels.txt:3: negative class id '-1'"


def text_checkpoint(data_dir, ds, ckpt):
    ckpt.write_text("not a checkpoint\n", encoding="ascii")
    return str(ckpt)


def checkpoint_of_a_narrower_layer(data_dir, ds, ckpt):
    # the config's hidden_dim is 4, the entries hold a hidden layer of 3
    with np.load(ckpt) as data:
        entries = {name: data[name] for name in data.files}
    np.savez(ckpt, **dict(entries, bias_0=entries["bias_0"][:, :3],
                          weight_1=entries["weight_1"][:3]))
    return f"{ckpt}: entry bias_0 has shape (1, 3), its config gives (1, 4)"


def checkpoint_of_another_width(data_dir, ds, ckpt):
    save_checkpoint(Model.init(ModelConfig(kind="mlp", n_layers=2, hidden_dim=4),
                               ds.n_features + 3, ds.n_classes, seed=0), ckpt)
    return f"{ckpt}: the model takes {ds.n_features + 3} features, {data_dir} has {ds.n_features}"


def checkpoint_with_preprocessing(text):
    def corrupt(data_dir, ds, ckpt):
        with np.load(ckpt) as data:
            entries = {name: data[name] for name in data.files}
        np.savez(ckpt, **entries, preprocessing=np.frombuffer(text.encode(), dtype=np.uint8))
        return f"{ckpt}: preprocessing entry is not a JSON object with a bool normalize_features"
    return corrupt


def checkpoint_without(entry):
    def corrupt(data_dir, ds, ckpt):
        with np.load(ckpt) as data:
            kept = {name: data[name] for name in data.files if name != entry}
        np.savez(ckpt, **kept)
        return str(ckpt)
    return corrupt


@pytest.mark.parametrize("corrupt, command", [
    (nan_in_dense_features, "propagate"),
    (inf_in_sparse_features, "propagate"),
    (negative_sparse_dimension, "propagate"),
    (header_only_sparse_features, "propagate"),
    (non_ascii_byte_in_labels, "propagate"),
    (edge_beyond_the_nodes, "propagate"),
    (negative_label, "propagate"),
    (text_checkpoint, "export-embeddings"),
    (checkpoint_without("config"), "export-embeddings"),
    (checkpoint_without("weight_1"), "export-embeddings"),
    (checkpoint_of_a_narrower_layer, "export-embeddings"),
    (checkpoint_of_another_width, "export-embeddings"),
    (checkpoint_with_preprocessing('{"normalize_features": '), "export-embeddings"),
    (checkpoint_with_preprocessing("[true]"), "export-embeddings"),
    (checkpoint_with_preprocessing('{"normalize_features": "no"}'), "export-embeddings"),
], ids=["nan-dense-feature", "inf-sparse-feature", "negative-sparse-dimension",
        "header-only-sparse-features", "non-ascii-label", "edge-beyond-the-nodes",
        "negative-label", "text-checkpoint",
        "npz-without-config", "npz-without-last-weight", "npz-of-a-narrower-layer",
        "npz-of-another-input-width", "preprocessing-not-json", "preprocessing-a-list",
        "preprocessing-str-normalize"])
def test_bad_input_file_is_input_error_exit_2(tmp_path, capsys, corrupt, command):
    data_dir, ds = write_blobs(tmp_path)
    ckpt = tmp_path / "model.npz"
    save_checkpoint(Model.init(ModelConfig(kind="mlp", n_layers=2, hidden_dim=4),
                               ds.n_features, ds.n_classes, seed=0), ckpt)
    named = corrupt(data_dir, ds, ckpt)
    argv = {"propagate": ["propagate", "--dataset", str(data_dir), "--ell", "2",
                          "--val-size", "8", "--test-size", "8"],
            "export-embeddings": ["export-embeddings", "--checkpoint", str(ckpt), "--dataset",
                                  str(data_dir), "--out", str(tmp_path / "emb.csv")]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    bad_dataset = command == "propagate"
    assert main(["validate-dataset", str(data_dir)]) == (1 if bad_dataset else 0)
    out = capsys.readouterr().out
    assert ("INVALID: " in out and named in out) if bad_dataset else out.endswith("OK\n")


def test_known_dataset_profile_mismatch_flagged(tmp_path, capsys):
    # a directory named like a benchmark must match its published counts
    ds = two_blob_dataset(n_per=16, seed=12)
    fake = tmp_path / "cora"
    save_dataset(ds, fake)
    assert not cmd_validate_dataset(fake)
    out = capsys.readouterr().out
    assert "INVALID" in out and "expected" in out


def write_protocol_scale_dataset(tmp_path, n=1700, d=120, c=7, m=3000, seed=0):
    # big enough for the standard 500-validation/1000-test protocol
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, c, n)
    labels[:c] = np.arange(c)
    feats = (rng.random((n, d)) < 0.05).astype(float)
    pairs = set()
    while len(pairs) < m:
        u, v = rng.integers(0, n, 2)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    from gssl.graph import from_edge_list

    ds = LabeledDataset(from_edge_list(sorted(pairs), n), feats, labels, name="synth")
    out = tmp_path / "synth"
    save_dataset(ds, out)
    return out


def test_full_protocol_dry_run(tmp_path):
    # exercises the exact benchmark-gate mechanics (ell=20, 500 val,
    # 1000 test, mu grid, per-run records) on synthetic data
    data_dir = write_protocol_scale_dataset(tmp_path)
    spec = ExperimentSpec(
        dataset=str(data_dir),
        models=[ModelSpec("mlp", False), ModelSpec("mlp", True), ModelSpec("gat", False)],
        ell=[20], n_splits=2, layer_counts=[2], mu_grid=[0.1, 1.0],
        base_seed=0, output_dir=str(tmp_path / "out"), hidden_dim=16,
        max_epochs=12, patience=12,
    )
    table = run_experiment(spec, log=lambda *a, **k: None)
    assert all(r.status == "ok" for r in table.rows)
    assert {(r.model, r.regularized) for r in table.rows} == {
        ("mlp", False), ("mlp", True), ("gat", False)}
    runs = list((tmp_path / "out" / "runs").glob("*.json"))
    # vanilla mlp 2 + regularized mlp 2 mu x 2 + gat 2
    assert len(runs) == 2 + 4 + 2
    record = json.loads(runs[0].read_text())
    assert record["ell"] == 20
    splits = load_splits_from_record(tmp_path, data_dir)
    assert len(splits[0].train) == 140
    assert len(splits[0].val) == 500
    assert len(splits[0].test) == 1000


def load_splits_from_record(tmp_path, data_dir):
    from gssl.data import load_dataset, make_splits

    ds = load_dataset(data_dir)
    return make_splits(ds, 20, 1, 0)


def test_worker_pool_matches_inline_execution(tmp_path):
    data_dir, _ = write_blobs(tmp_path, n_per=16, seed=11)
    inline = tiny_spec(data_dir, tmp_path / "inline", n_splits=2, mu_grid=[0.5],
                       save_checkpoints=True)
    run_experiment(inline, log=lambda *a, **k: None)
    pooled = tiny_spec(data_dir, tmp_path / "pooled", n_splits=2, mu_grid=[0.5],
                       workers=2, save_checkpoints=True)
    run_experiment(pooled, log=lambda *a, **k: None)
    inline_out, pooled_out = output_bytes(tmp_path / "inline"), output_bytes(tmp_path / "pooled")
    assert inline_out == pooled_out
    assert {p.name for p in inline_out if p.suffix == ".npz"} == {"MLP_ell3_L2.npz",
                                                                  "R-MLP_ell3_L2.npz"}
    assert_csv_is_aggregate(tmp_path / "inline")
    assert_csv_is_aggregate(tmp_path / "pooled")


def test_pool_is_no_larger_than_the_task_list(tmp_path, monkeypatch):
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(gssl.cli, "ProcessPoolExecutor", InlinePool)
    data_dir, _ = write_blobs(tmp_path, n_per=16, seed=11)
    spec = tiny_spec(data_dir, tmp_path / "out", models=[ModelSpec("mlp", False)],
                     n_splits=2, workers=4)
    run_experiment(spec, log=quiet)
    assert sizes == [2]
    assert len(list((tmp_path / "out" / "runs").glob("*.json"))) == 2


def test_output_dir_belongs_to_one_spec(tmp_path):
    data_dir, _ = write_blobs(tmp_path, n_per=16, seed=14)
    out = tmp_path / "out"
    spec = tiny_spec(data_dir, out)
    run_experiment(spec, log=quiet)
    first = output_bytes(out)
    run_experiment(spec, log=quiet)
    assert output_bytes(out) == first

    other = tiny_spec(data_dir, out, models=[ModelSpec("gcn", False)])
    with pytest.raises(InputError, match="more than one spec"):
        run_experiment(other, log=quiet)
    assert output_bytes(out) == first

    run_experiment(tiny_spec(data_dir, tmp_path / "other", models=[ModelSpec("gcn", False)]),
                   log=quiet)
    stray = next((tmp_path / "other" / "runs").glob("*.json"))
    (out / "runs" / stray.name).write_bytes(stray.read_bytes())
    with pytest.raises(InputError, match="more than one spec"):
        aggregate_runs(out / "runs")


def test_spec_validation():
    with pytest.raises(InputError):
        ExperimentSpec(dataset="x", models=[])
    with pytest.raises(InputError):
        ExperimentSpec(dataset="x", models=[ModelSpec("mlp")], n_splits=0)
    with pytest.raises(InputError):
        ExperimentSpec(dataset="x", models=[ModelSpec("transformer")])


def test_dataset_env_var_resolution(tmp_path, monkeypatch):
    data_dir, _ = write_blobs(tmp_path, n_per=16, seed=10)
    monkeypatch.setenv("GSSL_DATA_DIR", str(tmp_path))
    assert cmd_validate_dataset("two_blobs")
    monkeypatch.delenv("GSSL_DATA_DIR")
    with pytest.raises(InputError, match="not found"):
        cmd_propagate("definitely_missing", 1, 0.5)
