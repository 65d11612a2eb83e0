"""Per-call timing of the linear truncated-CG step on directions captured from desk-linear.

Runs unit 0 of the ``desk-linear`` benchmark workload (seed 1 by default: 5,000 flows,
load 1, eps 1.0), keeps the app-opt solve's CG calls whose unblocked share of the grid lies
nearest each requested fraction, and times ``_newton_cg_direction`` on them.  With
``--against DIR`` it also loads the ``ranshare`` package under ``DIR`` (another checkout's
``src``) and times that tree's step on the same calls, alternating the two trees batch by
batch, after checking that both return the same bits.

    python3 tools/cg_microbench.py --against ../parent/src

Prints one JSON object: per captured call its mask share and cell count, and per tree the
median and quartiles of the per-call time in microseconds over ``--repeats`` batches of
``--number`` calls each.
"""

import argparse
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as perfbench/run.py sets it

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]  # this checkout's ranshare, and perfbench

from ranshare import solver  # noqa: E402
from perfbench.workloads import make_workloads  # noqa: E402


def load_tree(src: Path, name: str):
    """The ``ranshare`` package under ``src``, imported as ``name``; returns its solver."""
    spec = importlib.util.spec_from_file_location(
        name, src / "ranshare" / "__init__.py", submodule_search_locations=[str(src / "ranshare")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.solver")


def capture(seed: int, fractions):
    """The CG calls of desk-linear unit 0 whose mask share lies nearest each fraction."""
    work = make_workloads()["desk-linear"]
    inputs = work.setup(work.network(), seed, 0)
    nearest = {f: (np.inf, None) for f in fractions}
    direction = solver._newton_cg_direction

    def recorded(terms, g, mask):
        share = float(mask.mean())
        for f, (gap, _) in nearest.items():
            if abs(share - f) < gap:
                nearest[f] = (abs(share - f), (tuple(a.copy() for a in terms), g.copy(),
                                               mask.copy()))
        return direction(terms, g, mask)

    solver._newton_cg_direction = recorded
    try:
        work.run(inputs)
    finally:
        solver._newton_cg_direction = direction
    return {f: args for f, (_, args) in nearest.items()}


def per_call_us(step, args, number):
    start = time.perf_counter()
    for _ in range(number):
        step(*args)
    return (time.perf_counter() - start) / number * 1e6


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--fractions", type=float, nargs="+", default=[0.08, 0.28])
    ap.add_argument("--against", type=Path, help="another checkout's src directory")
    ap.add_argument("--number", type=int, default=200)
    ap.add_argument("--repeats", type=int, default=15)
    args = ap.parse_args(argv)
    trees = {"this": solver._newton_cg_direction}
    if args.against is not None:
        trees["against"] = load_tree(args.against.resolve(), "ranshare_against")._newton_cg_direction
    out = {"seed": args.seed, "number": args.number, "repeats": args.repeats, "calls": []}
    for fraction, call in capture(args.seed, args.fractions).items():
        terms, g, mask = call
        results = [step(terms, g, mask) for step in trees.values()]
        same = all(np.array_equal(r.view(np.int64), results[0].view(np.int64))
                   for r in results)
        times = {name: [] for name in trees}
        for rep in range(args.repeats):
            order = list(trees.items())
            for name, step in (order if rep % 2 == 0 else order[::-1]):
                times[name].append(per_call_us(step, call, args.number))
        row = {"fraction": fraction, "mask_share": float(mask.mean()),
               "cells": int(mask.sum()), "same_bits": same}
        for name, ts in times.items():
            q1, med, q3 = statistics.quantiles(ts, n=4)
            row[name] = {"median_us": round(med, 2), "q1_us": round(q1, 2),
                         "q3_us": round(q3, 2)}
        if "against" in times:
            row["this_over_against"] = round(row["this"]["median_us"]
                                             / row["against"]["median_us"], 3)
        out["calls"].append(row)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
