"""Store per-unit results of finished runs as the benchmark's reference values.

    python3 perfbench/run.py --workload full-log --seed 0 --seconds 34 --trace 0
    python3 perfbench/make_reference.py

Collects ``records`` from every untraced run under ``perfbench/out/`` whose
checks passed and merges them into ``perfbench/reference.json``, keyed by
workload and seed, with floats cut to 10 significant digits (the checks'
tolerances are 1e-2 relative or wider).  An entry already stored is
replaced only by a run with more units; a run that disagrees with it is
reported and not stored.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"


def rounded(value):
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, list):
        return [rounded(v) for v in value]
    return value


def write(ref):
    """One line per (workload, seed), so a diff shows which seeds changed."""
    blocks = []
    for workload in sorted(ref):
        seeds = sorted(ref[workload], key=int)
        lines = [f'  "{seed}": {json.dumps(ref[workload][seed], separators=(",", ":"))}'
                 for seed in seeds]
        blocks.append(f' "{workload}": {{\n' + ",\n".join(lines) + "\n }")
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def main():
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    added = 0
    for path in sorted(OUT.glob("*-trace0.json")):
        run = json.loads(path.read_text())
        if run["problems"]:
            print(f"skip {path.name}: its checks failed")
            continue
        stored = ref.setdefault(run["workload"], {})
        seed, records = str(run["seed"]), rounded(run["records"])
        old = stored.get(seed, [])
        common = min(len(old), len(records))
        if old[:common] != records[:common]:
            print(f"skip {path.name}: differs from the stored reference")
            continue
        if len(records) > len(old):
            stored[seed] = records
            added += 1
    write(ref)
    print(f"{added} entries stored in {REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
