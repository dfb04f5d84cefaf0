"""Measuring one run: passes, checks, metrics, provenance and spans.

Imported by run.py only after it has pinned the BLAS thread count, since
importing this module imports numpy.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import gen
import workloads as wl
from spec import END_TO_END, KINDS, OPS, PER_LAYER
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 4   # so that wall_s is a median that one odd pass cannot move
MIN_PAIRS = 2    # traced runs: pairs of one untraced and one traced pass


# -- provenance ----------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(w, args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": w.workers, "blas_threads": w.blas_threads,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
        "commit": git_commit(),
    }


# -- running -------------------------------------------------------------------

def one_pass(w, ctx, data_dir, work, outcome, reference):
    """One workload pass: the table, then the diffusion sweep.  It must
    reproduce ``reference`` exactly: the same results.csv bytes when one is
    given, and always the checked sweep predictions."""
    start = wl.clock()
    res = wl.table_pass(w, data_dir, work / "pass", outcome)
    sweep = wl.sweep_pass(w, ctx, outcome)
    res["start"], res["end"] = start, wl.clock()
    res["wall"] = res["end"] - start
    res["accs"] += sweep["accs"]
    outcome.check(all((p == reference["preds"][k]).all() for k, p in sweep["preds"].items()),
                  "a pass did not reproduce the checked diffusion predictions")
    if "csv" in reference:
        outcome.check(res["csv"] == reference["csv"],
                      "a pass did not reproduce the reference results.csv")
    return res


def closed_epochs(runs, kind=None):
    return [ep for r in runs if kind in (None, r["kind"]) for ep in r["epochs"]
            if ep["end"] is not None]


def end_to_end(setup_times, passes, state) -> dict:
    samples = [ep["end"] - ep["start"] for ep in closed_epochs(state["runs"])]
    busy = wl.union_length([r["start"], r["end"]] for r in state["runs"])
    tail_s, tail_q = wl.tail(samples)
    # Pool workers report their own peak; the generator child is left out.
    rss_kb = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
                 + state["worker_maxrss_kb"])
    accs = [a for p in passes for a in p["accs"]]
    print(f"# op samples: {len(samples)}; op_ms.tail is p{tail_q:.1f}; "
          f"passes: {len(passes)}; setups: {len(setup_times)}")
    return {
        "setup_s": wl.median(setup_times),
        "wall_s": wl.median([p["wall"] for p in passes]),
        "ops_per_s": len(samples) / busy if busy else 0.0,
        "op_ms.p50": 1e3 * wl.median(samples),
        "op_ms.tail": 1e3 * tail_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "test_acc": sum(accs) / len(accs) if accs else 0.0,
    }


def per_layer(w, state, passes, ref_walls) -> dict:
    def mean(xs):
        xs = list(xs)
        return sum(xs) / len(xs) if xs else 0.0

    def call_s(key):
        return mean(c[3] - c[2] for c in state["calls"] if c[0] == key)

    def span_s(spans):
        return sum(end - start for start, end in spans)

    m = {}
    n_ep = len(closed_epochs(state["runs"]))
    for op in OPS:
        fwd, bwd, calls, nbytes = state["ops"].get(op, (0.0, 0.0, 0, 0))
        scale = 1.0 / n_ep if n_ep else 0.0
        m[f"autodiff.{op}.fwd_ms"] = 1e3 * fwd * scale
        m[f"autodiff.{op}.bwd_ms"] = 1e3 * bwd * scale
        m[f"autodiff.{op}.calls"] = calls * scale
        m[f"autodiff.{op}.out_mb"] = nbytes / 2**20 * scale
    phase_metrics = (("models.forward_train_ms", "forward_train"),
                     ("models.forward_eval_ms", "forward_eval"),
                     ("losses.train_ms", "loss_train"), ("losses.eval_ms", "loss_eval"),
                     ("autodiff.backward_ms", "backward"), ("trainer.adam_ms", "adam"))
    for name, phase in phase_metrics:
        for kind in KINDS:
            eps = closed_epochs(state["runs"], kind)
            m[f"{name}.{kind}"] = 1e3 * mean(span_s(ep["phases"].get(phase, ())) for ep in eps)
    for kind in KINDS:
        eps = closed_epochs(state["runs"], kind)
        m[f"trainer.self_ms.{kind}"] = 1e3 * mean(
            ep["end"] - ep["start"] - sum(span_s(s) for s in ep["phases"].values()) for ep in eps)
    for kind in KINDS:
        durs = [1e3 * (ep["end"] - ep["start"]) for ep in closed_epochs(state["runs"], kind)]
        m[f"trainer.epoch_ms.{kind}.p50"] = wl.median(durs)
        m[f"trainer.epoch_ms.{kind}.tail"] = wl.tail(durs)[0] if durs else 0.0
    m["data.load_s"] = call_s("data.load_dataset")
    m["data.normalize_s"] = call_s("data.row_normalize_features")
    m["data.splits_s"] = call_s("data.make_splits")
    m["data.feature_mb"] = max(state["feature_bytes"], default=0) / 2**20
    m["graph.context_s"] = call_s("graph.add_self_loops") + call_s("graph.sym_normalize")
    m["graph.a_hat_nnz"] = max(state["a_hat_nnz"], default=0)
    m["cli.runs"] = len(state["runs"]) / len(passes)
    setup_keys = {"data.load_dataset", "data.row_normalize_features", "data.make_splits",
                  "graph.add_self_loops", "graph.sym_normalize"}
    overheads = []
    for p in passes:
        inside = [c for c in state["calls"] if c[1] == os.getpid() and c[0] in setup_keys
                  and p["start"] <= c[2] <= p["end"]]
        runs = [[r["start"], r["end"]] for r in state["runs"] if p["start"] <= r["start"] <= p["end"]]
        overheads.append(p["table_s"] - sum(c[3] - c[2] for c in inside) - wl.union_length(runs))
    m["cli.overhead_s"] = mean(overheads)
    m["cli.worker_setup_s"] = mean(state["worker_setup_s"])
    iters = [d[1] for d in state["diffusion"]]
    m["diffusion.iters.p50"] = wl.median(iters)
    m["diffusion.iters.max"] = max(iters, default=0)
    m["diffusion.iter_ms"] = 1e3 * sum(d[0] for d in state["diffusion"]) / sum(iters) if iters else 0.0
    m["diffusion.direct_s"] = call_s("diffusion.diffuse_direct")
    directs = any(c[0] == "diffusion.diffuse_direct" for c in state["calls"])
    # eye(n), the dense A_hat and the system matrix, all n x n float64.
    m["diffusion.direct_mb"] = 3 * gen.PROFILES[w.profile].n_nodes ** 2 * 8 / 2**20 if directs else 0.0
    m["diffusion.residual.max"] = max((d[2] for d in state["diffusion"]), default=0.0)
    m["trace.overhead_s"] = wl.median([p["wall"] for p in passes]) - wl.median(ref_walls)
    return m


def write_spans(path: Path, w, passes, state) -> None:
    """Workload -> pass -> cell -> run -> epoch -> phase spans, one JSON per line."""
    lines = [{"span": "workload", "id": w.name, "start": passes[0]["start"],
              "end": passes[-1]["end"]}]
    for i, p in enumerate(passes):
        lines.append({"span": "pass", "id": f"pass{i}", "parent": w.name,
                      "start": p["start"], "end": p["end"]})
        cells: dict[str, list] = {}
        for r in state["runs"]:
            if p["start"] <= r["start"] <= p["end"]:
                key = f"pass{i}/{'R-' if r['mu'] else ''}{r['kind']}/ell{r['ell']}/L{r['n_layers']}"
                cells.setdefault(key, []).append(r)
        for cell, runs in cells.items():
            lines.append({"span": "cell", "id": cell, "parent": f"pass{i}",
                          "start": min(r["start"] for r in runs),
                          "end": max(r["end"] for r in runs)})
            for r in runs:
                lines.append({"span": "run", "id": r["id"], "parent": cell, "mu": r["mu"],
                              "seed": r["seed"], "start": r["start"], "end": r["end"]})
                for k, ep in enumerate(r["epochs"]):
                    lines.append({"span": "epoch", "id": r["id"], "epoch": k,
                                  "start": ep["start"], "end": ep["end"]})
                    for phase, spans in ep["phases"].items():
                        lines.extend({"span": phase, "id": r["id"], "epoch": k,
                                      "start": s, "end": e} for s, e in spans)
    for key, pid, start, end in state["calls"]:
        lines.append({"span": key, "pid": pid, "start": start, "end": end})
    path.write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="ascii")


def execute(w, args) -> int:
    """Run workload ``w`` as ``args`` asks; print and record the result."""
    prov = provenance(w, args)
    print("# provenance " + json.dumps(prov), flush=True)
    out_dir = HERE / "out"
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"{tag}-{os.getpid()}"
    try:
        # In a child process, so that its memory stays out of peak_rss_mb.
        data_dir = work / w.profile
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--profile", w.profile,
                        "--seed", str(args.seed), "--out", str(data_dir)], check=True)
        outcome = wl.Outcome()
        setup_times = []

        def set_up():
            t0 = wl.clock()
            fresh = wl.setup(w, data_dir)
            setup_times.append(wl.clock() - t0)
            return fresh

        ctx = set_up()

        # Closed loop of whole passes: at least MIN_PASSES (MIN_PAIRS), then
        # until time is up.  A traced run alternates untraced and traced
        # passes.  Every pass must reproduce the reference: the checked
        # solutions of the sweep and the first (untraced) table.
        min_passes = MIN_PAIRS if args.trace else MIN_PASSES
        tracer = Tracer("full" if args.trace else "clock", work / "spill")
        plain = Tracer("clock", work / "spill-plain")
        with tracer:
            if args.trace:
                wl.setup(w, data_dir)  # traced once, for the data and graph layers
            # Before the passes, so the direct solve's memory peak does not hinge on them.
            ref = {"preds": wl.check_sweep(w, ctx, outcome)}
        passes, ref_walls = [], []
        t0 = wl.clock()
        while len(passes) < min_passes or wl.clock() - t0 < args.seconds:
            if args.trace:
                with plain:
                    res = one_pass(w, ctx, data_dir, work, outcome, ref)
                plain.collect()
                ref.setdefault("csv", res["csv"])
                ref_walls.append(res["wall"])
            else:
                # One more set-up before every pass: setup_s is the median over
                # the whole run, not over one moment of a drifting machine.
                ctx = set_up()
            with tracer:
                passes.append(one_pass(w, ctx, data_dir, work, outcome, ref))
            ref.setdefault("csv", passes[-1]["csv"])
        state = tracer.collect()
        for run in state["runs"]:
            outcome.check(len(run["epochs"]) == w.spec["max_epochs"],
                          f"run {run['id']} ran {len(run['epochs'])} epochs")

        if args.trace:
            print(f"# pass walls untraced: {[round(x, 3) for x in ref_walls]}; "
                  f"traced: {[round(p['wall'], 3) for p in passes]}")
            metrics = per_layer(w, state, passes, ref_walls)
            units = dict(PER_LAYER)
            write_spans(out_dir / f"{tag}-spans.jsonl", w, passes, state)
        else:
            metrics = end_to_end(setup_times, passes, state)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in outcome.problems:
        print(f"# FAILED: {problem}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    (out_dir / f"{tag}.json").write_text(
        json.dumps({"provenance": prov, "result": result}, indent=1) + "\n", encoding="ascii")
    print(json.dumps(result))
    return 0 if result["correct"] else 1

