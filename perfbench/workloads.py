"""The benchmark workloads: set-up, one measured pass, output checks.

Every workload is a closed loop with one caller: the next operation
starts only after the previous one returned.  A *pass* is one full
workload operation: one experiment table, then one label-diffusion sweep
over gamma x the table's splits on the same graph.  The run repeats
passes until its time is spent.  The program only ever sees the
generated dataset directory.
"""

from __future__ import annotations

import shutil
import statistics
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gssl import cli, data, diffusion
from gssl.trainer import DataContext

from spec import Workload

clock = time.perf_counter


DIFFUSION_TOL = 1e-8


@dataclass
class Outcome:
    """Counts of attempted and failed operations plus the failure reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


# -- set-up ------------------------------------------------------------------

def setup(w: Workload, data_dir: Path) -> dict:
    """Files on disk -> DataContext, splits and the sweep's label matrices.

    This repeats what ``run_experiment`` does before its first run; the
    label matrices feed the diffusion sweep of every pass.
    """
    ds = data.load_dataset(data_dir)
    ctx = DataContext.from_dataset(data.row_normalize_features(ds))
    splits = data.make_splits(ds, w.spec["ell"][0], w.spec["n_splits"], 0)
    ys = [diffusion.label_matrix(ds.labels, s.train, ds.n_classes) for s in splits]
    return {"ctx": ctx, "labels": ds.labels, "splits": splits, "ys": ys}


# -- passes ------------------------------------------------------------------

def table_pass(w: Workload, data_dir: Path, out_dir: Path, outcome: Outcome) -> dict:
    """One ``run_experiment`` call into a fresh directory, then its checks."""
    shutil.rmtree(out_dir, ignore_errors=True)
    raw = dict(w.spec, dataset=str(data_dir), output_dir=str(out_dir), workers=w.workers)
    spec = cli.ExperimentSpec(models=[cli.ModelSpec(**m) for m in raw.pop("models")], **raw)
    t0 = clock()
    try:
        table = cli.run_experiment(spec, log=lambda *_: None)
    except Exception as err:  # a raising pass is a counted failure
        outcome.check(False, f"run_experiment raised {type(err).__name__}: {err}")
        return {"table_s": clock() - t0, "csv": None, "accs": []}
    table_s = clock() - t0
    csv = (out_dir / "results.csv").read_text(encoding="ascii")
    for row in table.rows:
        outcome.check(row.status == "ok", f"cell {row.label}: {row.status}")
    outcome.check(cli.aggregate_runs(out_dir / "runs").to_csv() == csv,
                  "results.csv differs from aggregate_runs(runs/)")
    shutil.rmtree(out_dir)
    return {"table_s": table_s, "csv": csv, "accs": [r.mean_acc / 100.0 for r in table.rows]}


def sweep_solves(w: Workload, ctx: dict):
    for gamma in w.gammas:
        for k in range(len(ctx["ys"])):
            yield gamma, k


def sweep_pass(w: Workload, ctx: dict, outcome: Outcome) -> dict:
    """Every (gamma, split) iterative solve through ``propagate_labels``."""
    accs, preds = [], {}
    t0 = clock()
    for gamma, k in sweep_solves(w, ctx):
        cfg = diffusion.DiffusionConfig(gamma=gamma, tol=DIFFUSION_TOL)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pred = diffusion.propagate_labels(ctx["ctx"].a_hat, ctx["ys"][k], cfg)
        outcome.check(not caught, f"gamma={gamma} split={k}: "
                      + "; ".join(str(x.message) for x in caught))
        test = ctx["splits"][k].test
        accs.append(float(np.mean(pred[test] == ctx["labels"][test])))
        preds[(gamma, k)] = pred
    return {"sweep_s": clock() - t0, "accs": accs, "preds": preds}


def check_sweep(w: Workload, ctx: dict, outcome: Outcome) -> dict:
    """Residual below tol for every solve; direct and iterative agree at Cora.

    Returns the prediction every pass must reproduce, per solve.
    """
    expected = {}
    for gamma, k in sweep_solves(w, ctx):
        y = ctx["ys"][k]
        cfg = diffusion.DiffusionConfig(gamma=gamma, tol=DIFFUSION_TOL)
        res = diffusion.diffuse_iterative(ctx["ctx"].a_hat, y, cfg)
        outcome.check(res.residual < DIFFUSION_TOL,
                      f"gamma={gamma} split={k}: residual {res.residual:.3e}")
        pred = res.z.argmax(axis=1)
        labeled = y.sum(axis=1) > 0
        pred[labeled] = y[labeled].argmax(axis=1)
        expected[(gamma, k)] = pred
        if w.profile != "cora" or k != 0:
            continue  # the dense direct solve is small-n only
        z_direct = diffusion.diffuse_direct(ctx["ctx"].a_hat, y, gamma)
        # The fixed-point error after a step of size r is at most r (1-gamma)/gamma.
        bound = DIFFUSION_TOL * (1.0 - gamma) / gamma
        err = float(np.abs(z_direct - res.z).max())
        outcome.check(err <= bound, f"cora gamma={gamma}: direct vs iterative "
                      f"max error {err:.3e} > {bound:.3e}")
        top2 = np.sort(z_direct, axis=1)[:, -2:]
        decided = (top2[:, 1] - top2[:, 0]) > 2 * bound
        outcome.check(np.array_equal(z_direct.argmax(1)[decided], res.z.argmax(1)[decided]),
                      f"cora gamma={gamma}: direct and iterative argmax differ")
    return expected


# -- statistics --------------------------------------------------------------

def tail(samples) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    That is the 11th largest sample; with fewer than 11 samples, the largest.
    """
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def union_length(spans) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(spans):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
