"""Spread of each end-to-end metric over seeds, and repeatability of the counters.

    python3 perfbench/stability.py --seeds 1-10                # every workload
    python3 perfbench/stability.py --workloads desk-linear --seeds 1-5
    python3 perfbench/stability.py --counters 3                # traced twice, seed 3

Runs ``run.py`` once per (workload, seed), one process at a time, with
``--seconds`` from BENCHMARK.json, and prints for every end-to-end metric
its median and its spread: the distance between the first and third
quartile (``statistics.quantiles(n=4)``) as a share of the median, next to
the metric's bound.  With ``--counters SEED`` it runs each workload traced
twice on that seed and asserts that every count metric is identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        print(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}", flush=True)
    return json.loads(proc.stdout.splitlines()[-1])


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spreads(workload, seeds):
    values = {m["name"]: [] for m in SPEC["end_to_end"]}
    for seed in seeds:
        result = run_once(workload, seed, 0)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"  {workload} seed {seed}: " + "  ".join(
            f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    if len(seeds) < 2:
        return True
    ok = True
    for m in SPEC["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if m["name"] == "setup_s" or spread <= m["bound"] / 3 else "  <-- above bound/3"
        ok &= not flag or spread <= m["bound"]
        print(f"{workload:14s} {m['name']:13s} median {med:12.6g} {m['unit']:5s} "
              f"spread {spread:7.4f}  bound {m['bound']}{flag}", flush=True)
    return ok


def counters_repeat(workload, seed):
    runs = [run_once(workload, seed, 1)["metrics"] for _ in range(2)]
    counts = {k: v["value"] for k, v in runs[0].items() if v["unit"] == "count"}
    again = {k: v["value"] for k, v in runs[1].items() if v["unit"] == "count"}
    assert counts == again, (workload, counts, again)
    print(f"{workload:14s} {len(counts)} counters identical on seed {seed}: {counts}", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", default="1-10", help="inclusive range A-B")
    ap.add_argument("--counters", type=int, default=None, metavar="SEED")
    args = ap.parse_args()
    if args.counters is not None:
        for workload in args.workloads:
            counters_repeat(workload, args.counters)
        return 0
    ok = all([spreads(w, seed_list(args.seeds)) for w in args.workloads])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
