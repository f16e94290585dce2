#!/usr/bin/env python3
"""Quick self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at tiny size, untraced and traced, and
checks that the result line has exactly the contract's keys, that every
metric BENCHMARK.json names is printed with its unit (and, end to end, is
above zero), and that the verdicts checked out. Then it runs every workload
with a deliberately wrong expected verdict and checks that the run counts
failed operations and reports correct=false. Exits 1 on any problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--tiny", *extra]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=900)
    if r.returncode != 0:
        raise SystemExit(f"selfcheck: {' '.join(cmd)} exited "
                         f"{r.returncode}:\n{r.stderr}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in (x["name"] for x in bench["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            res = run(w, trace)
            where = f"{w} --trace {trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: correct={res['correct']} "
                                f"attempted={res['attempted']} "
                                f"failed={res['failed']}")
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics/units differ: missing "
                                f"{sorted(set(want) - set(got))}, extra "
                                f"{sorted(set(got) - set(want))}, units "
                                f"{[k for k in want if got.get(k, want[k]) != want[k]]}")
            for k, v in res["metrics"].items():
                ok = isinstance(v["value"], (int, float))
                if ok and trace == 0:
                    ok = v["value"] > 0
                if not ok:
                    problems.append(f"{where}: {k} = {v['value']!r}")
            print(f"selfcheck: {where}: {len(got)} metrics, "
                  f"{res['attempted']} operations checked", flush=True)
        res = run(w, 0, "--wrong-expected")
        if res["correct"] or res["failed"] == 0:
            problems.append(f"{w}: a wrong expected verdict went unnoticed "
                            f"(correct={res['correct']}, "
                            f"failed={res['failed']})")
        else:
            print(f"selfcheck: {w}: wrong expected verdict caught "
                  f"({res['failed']} of {res['attempted']} failed)",
                  flush=True)
    for p in problems:
        print(f"selfcheck: PROBLEM: {p}", flush=True)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
