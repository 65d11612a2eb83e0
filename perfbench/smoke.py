"""Smoke test: every workload's code path at tiny sizes, in seconds.

    python3 perfbench/smoke.py

Runs each workload untraced and traced and asserts that every metric named
in BENCHMARK.json is emitted with its unit and that all checks pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload, trace, tiny):
    args = run.parse_args(["--workload", workload, "--seed", "7", "--seconds", "0.2",
                           "--trace", str(trace)])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.bench(args, tiny, run.OUT / "smoke", reference=None)
    return code, json.loads(buf.getvalue().splitlines()[-1])


def main():
    run.import_ranshare()
    import workloads

    tiny = workloads.make_workloads(tiny=True)
    assert sorted(tiny) == sorted(w["name"] for w in SPEC["workloads"])
    for workload in tiny:
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            code, result = run_tiny(workload, trace, tiny)
            assert code == 0 and result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            got = result["metrics"]
            assert sorted(got) == sorted(m["name"] for m in wanted), (workload, trace)
            for m in wanted:
                assert got[m["name"]]["unit"] == m["unit"], (workload, m["name"])
                assert isinstance(got[m["name"]]["value"], (int, float))
            print(f"ok  {workload:14s} trace={trace}  {len(got)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
