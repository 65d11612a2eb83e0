"""Run one ranshare benchmark workload and print its metrics.

    python3 perfbench/run.py --workload full-log --seed 1 --seconds 34 --trace 0

Run it from the repository root; it imports ``ranshare`` from ``src/`` of
the same checkout.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it records the run environment.  Spans and per-unit results are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads.  On a 2-vCPU host the full-scale
# log solve of seed 42 took 15.3 s and 302 inner iterations at the default
# two threads, 12.3 s and 282 at one: the thread count moves the counters too.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_ranshare():
    """Import ranshare from this checkout's src/, never from elsewhere."""
    if not (SRC / "ranshare" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no ranshare sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ranshare

    if Path(ranshare.__file__).resolve().parent != SRC / "ranshare":
        raise SystemExit(f"benchmark: ranshare imported from {ranshare.__file__}")


def fresh_import_s(repeats=3):
    """Median time to import ranshare, numpy included, in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import ranshare; print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def unit_count(workload, seconds):
    """Units in a run: about ``seconds`` of work at the workload's nominal unit cost."""
    return max(1, round(seconds / workload.nominal_unit_s))


def load_reference(path, name, seed):
    if path is None or not path.is_file():
        return []
    return json.loads(path.read_text()).get(name, {}).get(str(seed), [])


def end_to_end(workload, tally, run_s, setup_s, attempted, failed):
    return {
        "wall_s": (sum(run_s), "s"),
        "period_s.p50": (statistics.median(tally.period_s), "s"),
        "setup_s": (fresh_import_s() + setup_s[0] + statistics.median(setup_s[1:]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "utility": (workload.utility(tally), "util"),
        "qoe_frac": (tally.qoe / tally.flows, "frac"),
    }


def per_layer(tracer, run_s, overhead_frac, flow_layers):
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inc(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    solves = tracer.solve_results
    inner = sum(r.inner_iters_total for r in solves)
    exits = [tr.inner_status for r in solves for tr in r.trace]
    wall = sum(run_s)
    setup_spans = ("sim.generate_scenario", "sim.add_hotspot")
    flow_self = sum(own(n) for n in totals
                    if n.split(".")[0] in flow_layers and n not in setup_spans)
    m = {
        "solver.solve.s": (inc("solver.solve"), "s"),
        "solver.solve.calls": (calls("solver.solve"), "count"),
        "solver.inner_iters": (inner, "count"),
        "solver.outer_iters": (sum(r.outer_iters for r in solves), "count"),
        "solver.s_per_inner_iter": (inc("solver.solve") / max(inner, 1), "s"),
    }
    for status in ("converged", "plateau", "stalled", "max_iters"):
        m[f"solver.inner_exit.{status}"] = (exits.count(status), "count")
    m["solver.gap_bound.max"] = (max((r.trace[-1].gap_bound for r in solves if r.trace),
                                     default=0.0), "util")
    for name in ("sim.scale_load", "sim.second_phase_allocate", "fairshare.water_fill"):
        m[f"{name}.s"] = (inc(name), "s")
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("sim.qoe_satisfied_count", "sim.flow_utility", "utility.estimate_demand",
                 "model.expand_bounds", "sim.generate_scenario", "sim.add_hotspot"):
        m[f"{name}.s"] = (inc(name), "s")
    for name in ("sim.allocate_app_opt", "sim.run_experiment", "sim.build_instance",
                 "baselines.net_rsv_allocate", "baselines.per_bs_rsv_allocate"):
        m[f"{name}.self_s"] = (own(name), "s")
    m["solver.self_share"] = (own("solver.solve") / wall, "frac")
    m["flow_layers.self_share"] = (flow_self / wall, "frac")
    m["trace.overhead_frac"] = (overhead_frac, "frac")
    return m


def bench(args, workloads, out_dir=OUT, reference=REFERENCE):
    """Run one workload; writes its details under ``out_dir``; returns the exit code.

    ``reference`` is the file of stored per-unit results to check against.
    """
    import tracing
    import workloads as wl

    if args.workload not in workloads:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads)}")
    name, workload = args.workload, workloads[args.workload]
    refs = load_reference(reference, name, args.seed)
    n_units = unit_count(workload, args.seconds)

    tracer = overhead_frac = None
    t0 = time.perf_counter()
    network = workload.network()
    setup_s = [time.perf_counter() - t0]
    if args.trace:
        # Untraced time of unit 0, the base of trace.overhead_frac.
        inputs = workload.setup(network, args.seed, 0)
        t0 = time.perf_counter()
        workload.run(inputs)
        untraced_s = time.perf_counter() - t0
        del inputs
        tracer = tracing.Tracer(name)

    tally = wl.Tally()
    run_s, cpu_s, records, problems = [], [], [], []
    attempted = failed = 0
    for j in range(n_units):
        scope = tracer.installed(wl.MODULES) if tracer else nullcontext()
        with scope:
            if tracer:
                tracer.unit = j
            t0 = time.perf_counter()
            inputs = workload.setup(network, args.seed, j)
            setup_s.append(time.perf_counter() - t0)
            with tracer.span("bench.unit") if tracer else nullcontext():
                t0, c0 = time.perf_counter(), time.process_time()
                out = workload.run(inputs)
                run_s.append(time.perf_counter() - t0)
                cpu_s.append(time.process_time() - c0)
        # Outside the timed part, with the original functions back in place.
        cells = workload.check(inputs, out, refs[j] if j < len(refs) else None)
        attempted += len(cells)
        failed += sum(1 for fails in cells if fails)
        problems += [f"unit {j}: {msg}" for fails in cells for msg in fails]
        workload.tally(tally, inputs, out, run_s[-1])
        records.append(workload.record(out))
        del inputs, out

    if tracer:
        overhead_frac = run_s[0] / untraced_s - 1.0
        metrics = per_layer(tracer, run_s, overhead_frac, tracing.FLOW_LAYERS)
    else:
        metrics = end_to_end(workload, tally, run_s, setup_s, attempted, failed)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    detail = {
        "metrics": metrics,
        "workload": name, "seed": args.seed, "seconds": args.seconds, "units": n_units,
        "period_samples": len(tally.period_s),
        "setup_s": setup_s, "run_s": run_s, "cpu_s": cpu_s, "period_s": tally.period_s,
        "problems": problems, "environment": environment(), "records": records,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.write(out_dir / f"{stem}.spans.jsonl")
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    print(json.dumps({k: detail[k] for k in
                      ("workload", "seed", "units", "period_samples", "environment")}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


def main(argv=None):
    args = parse_args(argv)
    import_ranshare()
    sys.path.insert(0, str(HERE))
    import workloads

    return bench(args, workloads.make_workloads())


if __name__ == "__main__":
    sys.exit(main())
