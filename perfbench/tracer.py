"""Span and counter recording around gssl's public functions.

The tracer replaces module attributes that gssl looks up at call time
(``gssl.autodiff.<op>``, ``gssl.trainer.adam_step``, ``gssl.cli.train``,
``DataContext.forward`` ...) with timing wrappers and puts the originals
back on :meth:`Tracer.uninstall`.  Nothing inside ``src/`` changes.

Two levels:

* ``clock`` wraps only the run and epoch boundaries (``cli.train``,
  ``DataContext.forward``) and the pool entry points.  It adds a few
  microseconds per epoch and gives the untraced run its epoch latencies.
* ``full`` also wraps every autodiff op (forward call and the VJP closure
  on its output), the training phases and the public functions of
  ``data``, ``graph`` and ``diffusion``.

Op-level work is aggregated into counters; runs, epochs and phases are
kept as spans.  Pool workers are forked after the wrappers are installed,
so they inherit them: each worker writes its state to ``spill_dir``
after its initializer and after every task, and the parent merges those
files once the pool has shut down.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import time
from pathlib import Path

import gssl
from gssl import autodiff, cli, data, diffusion, graph, trainer
from gssl.trainer import DataContext

from spec import OPS

clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes

LAYER_MODULES = (data, graph, diffusion)  # every public function is wrapped
MODULES = (autodiff, cli, data, diffusion, graph, gssl.losses, gssl.models, trainer)


def empty_state() -> dict:
    return {
        "ops": {},        # op -> [fwd_s, bwd_s, calls, out_bytes]
        "calls": [],      # [module.fn, pid, start, end] per data/graph/diffusion call
        "runs": [],       # one dict per train() call, epochs and phases inside
        "diffusion": [],  # [seconds, iters, residual] per iterative solve
        "a_hat_nnz": [],
        "feature_bytes": [],
        "worker_setup_s": [],
        "worker_maxrss_kb": [],
    }


class Tracer:
    def __init__(self, level: str, spill_dir: Path):
        if level not in ("clock", "full"):
            raise ValueError(f"unknown trace level {level!r}")
        self.level = level
        self.spill_dir = Path(spill_dir)
        self.state = empty_state()
        self._saved: list[tuple[object, str, object]] = []
        self._run = None     # the open run dict
        self._epoch = None   # the open epoch dict
        self._spills = 0

    # -- installation -----------------------------------------------------
    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _patch_everywhere(self, fn, wrapper):
        """Replace ``fn`` in every gssl module that holds a reference to it."""
        for mod in MODULES:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, name, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self._patch(DataContext, "forward", self._wrap_forward(DataContext.forward))
        self._patch(cli, "train", self._wrap_train(cli.train))
        self._patch(cli, "_pool_init", self._wrap_pool(cli._pool_init, init=True))
        self._patch(cli, "_pool_run", self._wrap_pool(cli._pool_run, init=False))
        if self.level == "clock":
            return
        for op in OPS:
            self._patch(autodiff, op, self._wrap_op(op, getattr(autodiff, op)))
        self._patch(autodiff, "backward", self._wrap_phase("backward", autodiff.backward))
        self._patch(trainer, "combined_loss", self._wrap_phase("loss", trainer.combined_loss))
        self._patch(trainer, "adam_step", self._wrap_phase("adam", trainer.adam_step))
        self._patch(trainer, "accuracy", self._wrap_phase("accuracy", trainer.accuracy))
        for mod in LAYER_MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn):
                    self._patch_everywhere(fn, self._wrap_func(f"{short}.{name}", fn))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers ---------------------------------------------------------
    def _wrap_op(self, op, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            rec = self.state["ops"].setdefault(op, [0.0, 0.0, 0, 0])
            rec[0] += clock() - t0
            rec[2] += 1
            if any(out is a for a in args):  # identity dropout: no new tensor
                return out
            rec[3] += out.values.nbytes
            vjp = out._vjp
            if vjp is not None:
                def timed_vjp(g):
                    t = clock()
                    res = vjp(g)
                    rec[1] += clock() - t
                    return res
                out._vjp = timed_vjp
            return out

        return wrapper

    def _open_epoch(self, now):
        self._epoch = {"start": now, "end": None, "evals": 0, "phases": {}}
        self._run["epochs"].append(self._epoch)

    def _close_epoch(self, now):
        if self._epoch is not None:
            self._epoch["end"] = now
            self._epoch = None

    def _wrap_forward(self, fn):
        @functools.wraps(fn)
        def forward(ctx, model, training=False, rng=None, return_hidden=False):
            t0 = clock()
            if self._run is not None:
                if training:
                    self._close_epoch(t0)
                    self._open_epoch(t0)
                elif self._epoch is not None:
                    self._epoch["evals"] += 1
                    if self._epoch["evals"] > 1:  # the final test evaluation
                        self._close_epoch(t0)
            out = fn(ctx, model, training, rng, return_hidden)
            if self._epoch is not None and self.level == "full":
                self._add_phase("forward_train" if training else "forward_eval", t0, clock())
            return out
        return forward

    def _add_phase(self, phase, start, end):
        self._epoch["phases"].setdefault(phase, []).append([start, end])

    def _wrap_phase(self, phase, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            if self._epoch is not None:
                name = phase
                if phase == "loss":
                    name = "loss_eval" if "adam" in self._epoch["phases"] else "loss_train"
                self._add_phase(name, t0, clock())
            return out
        return wrapper

    def _wrap_train(self, fn):
        @functools.wraps(fn)
        def train(model, ctx, split, cfg):
            t0 = clock()
            self._run = {
                "id": f"{os.getpid()}-{len(self.state['runs'])}",
                "kind": model.cfg.kind, "mu": cfg.loss.mu, "ell": split.ell,
                "n_layers": model.cfg.n_layers, "seed": split.seed,
                "start": t0, "end": None, "epochs": [],
            }
            self.state["runs"].append(self._run)
            try:
                return fn(model, ctx, split, cfg)
            finally:
                now = clock()
                self._close_epoch(now)
                self._run["end"] = now
                self._run = None
        return train

    def _wrap_func(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            end = clock()
            self.state["calls"].append([key, os.getpid(), t0, end])
            if key == "graph.sym_normalize":
                self.state["a_hat_nnz"].append(out.nnz)
            elif key == "data.load_dataset":
                self.state["feature_bytes"].append(out.features.nbytes)
            elif key == "diffusion.diffuse_iterative":
                self.state["diffusion"].append([end - t0, out.iters, out.residual])
            return out
        return wrapper

    def _wrap_pool(self, fn, init: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if init:  # first code in a fresh worker: drop the parent's copy
                self.state = empty_state()
                t0 = clock()
                fn(*args, **kwargs)
                self.state["worker_setup_s"].append(clock() - t0)
                self._spill()
                return None
            out = fn(*args, **kwargs)
            self._spill()
            return out
        return wrapper

    # -- collection -------------------------------------------------------
    def _spill(self) -> None:
        self.state["worker_maxrss_kb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        path = self.spill_dir / f"{os.getpid()}-{self._spills}.json"
        self._spills += 1
        path.write_text(json.dumps(self.state), encoding="ascii")
        self.state = empty_state()

    def collect(self) -> dict:
        """Take this process's state merged with every worker spill file."""
        merged, self.state = self.state, empty_state()
        for path in sorted(self.spill_dir.glob("*.json")):
            part = json.loads(path.read_text(encoding="ascii"))
            path.unlink()
            for key, value in part.items():
                if isinstance(value, list):
                    merged[key].extend(value)
                    continue
                for name, rec in value.items():
                    acc = merged[key].setdefault(name, [0] * len(rec))
                    for i, v in enumerate(rec):
                        acc[i] += v
        return merged
