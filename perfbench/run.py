"""gssl benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload cora-table --seed 0 --seconds 30 --trace 0

Generates the workload's dataset from ``--seed`` (perfbench/gen.py), sets
them up several times, then repeats whole passes of the workload (at
least four) until ``--seconds`` have elapsed, and checks every output.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes in which every gssl layer is wrapped
(perfbench/tracer.py) and prints the per-layer metrics, the tracing
overhead among them.  The last line of standard output is the
result JSON; a provenance record is printed before it and written with
the result under perfbench/out/.  Exits 1 when an output check fails and
2 when the program or BENCHMARK.json cannot be used.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no caches in the checkout

ROOT = Path(__file__).resolve().parents[1]

from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import gssl from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "gssl" / "__init__.py").is_file():
        fail(f"no gssl sources under {src}")
    sys.path.insert(0, str(src))
    import gssl
    if Path(gssl.__file__).resolve().parent != (src / "gssl").resolve():
        fail(f"imported gssl from {gssl.__file__}, not from {src}")


def check_declared_metrics() -> None:
    path = ROOT / "BENCHMARK.json"
    try:
        declared = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")
    pairs = {k: [(m["name"], m["unit"]) for m in declared[k]] for k in ("end_to_end", "per_layer")}
    if pairs["end_to_end"] != list(END_TO_END) or pairs["per_layer"] != list(PER_LAYER):
        fail("metric names or units in BENCHMARK.json differ from perfbench/spec.py")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        fail("workloads in BENCHMARK.json differ from perfbench/spec.py")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(w.blas_threads)  # before numpy's first import
    load_program()
    check_declared_metrics()

    import measure
    return measure.execute(w, args)


if __name__ == "__main__":
    sys.exit(main())
