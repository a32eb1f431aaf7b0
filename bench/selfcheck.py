#!/usr/bin/env python3
"""Self-check of the benchmark at a tiny size; takes about a minute.

    python3 bench/selfcheck.py

Runs every workload of BENCHMARK.json through run.py with ``--tiny``, once
untraced and twice traced, and confirms that
- the printed metric names and units are exactly those BENCHMARK.json
  declares, and design.json names only declared metrics and workloads;
- the result line has its four keys, every cell passed, and ``correct`` holds;
- no span in the written span files outlasts its parent;
- convex_core.newton_steps is identical across the two traced runs.
Exits 0 when all of these hold, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3

problems = []


def expect(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        problems.append(message)


def run(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        expect(False, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(workload, trace, result, declared):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload} trace={trace}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace={trace}: correct={result['correct']} "
           f"failed={result['failed']}/{result['attempted']}")
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(printed == declared, f"{workload} trace={trace}: metric names and units match "
           f"BENCHMARK.json (extra {sorted(set(printed) - set(declared))}, "
           f"missing {sorted(set(declared) - set(printed))})")


def check_spans(workload):
    path = BENCH / "out" / f"spans-{workload}-tiny-seed{SEED}.json"
    spans = json.loads(path.read_text())["spans"]
    bad = [i for i, (_, parent, start, end) in enumerate(spans)
           if parent >= 0 and not (parent < i and spans[parent][2] <= start
                                   and end <= spans[parent][3])]
    expect(spans and not bad, f"{workload}: {len(spans)} spans, none outlasts its parent "
           f"({len(bad)} do)")


def check_design(bench):
    design = json.loads((BENCH / "design.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    expect(set(design["workloads"]) == workloads, "design.json workloads match BENCHMARK.json")
    expect(set(design["end_to_end"]) == end_to_end, "design.json end-to-end metrics match")
    named = [(set(p["layer_metrics"]) - per_layer) | (set(p["moves"]) - end_to_end)
             | (set(p["on"]) | set(p["unchanged_on"])) - workloads
             for p in design["predictions"]]
    expect(not any(named), f"design.json predictions name only declared metrics ({named})")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check_design(bench)
    for workload in (w["name"] for w in bench["workloads"]):
        result = run(workload, 0)
        if result:
            check_result(workload, 0, result, end_to_end)
        steps = []
        for _ in range(2):
            result = run(workload, 1)
            if result:
                check_result(workload, 1, result, per_layer)
                steps.append(result["metrics"]["convex_core.newton_steps"]["value"])
                check_spans(workload)
        expect(len(steps) == 2 and steps[0] == steps[1],
               f"{workload}: convex_core.newton_steps repeats across runs ({steps})")
    print("selfcheck:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
