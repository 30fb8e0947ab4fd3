"""Stability check: do two independent sets of runs agree?

    python3 perfbench/stability.py [--workloads scan,algebra]

For each workload, runs ``run.py`` ten times per set, each run with its own
seed (1 to 20), for two sets in a row. For every end-to-end metric it prints
each set's median and quartiles, the spread (q3 - q1) / median, and whether
the sets agree within BENCHMARK.json's bounds: each set's spread is within
the bound, and the two medians differ by no more than the bound, as a share
of the first.

It then makes two traced runs of seed 1 per workload and requires the
per-layer count metrics that must repeat exactly to be equal. Exit status is
0 only if everything agrees and every run was correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETS = 2
RUNS = 10
EXACT_COUNTS = ["ff.tables_built", "ff.elems_created", "convolution.calls",
                "convolution.cells", "hypergeom.naive_calls",
                "linalg.solve_calls", "unitary.pairings"]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args()

    ok = True
    report = {}
    for w in args.workloads.split(","):
        sets = []
        for k in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = 1 + k * RUNS + i
                res = run_once(w, seed, bench["run_seconds"], 0)
                ok &= res["correct"]
                runs.append(res)
                print(f"{w} set {k + 1} seed {seed}: " + " ".join(
                    f"{m}={v['value']:.4f}" for m, v in res["metrics"].items()),
                    file=sys.stderr, flush=True)
            sets.append(runs)
        report[w] = {}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            change = abs(stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
            agree = all(s["spread"] <= bound for s in stats) and change <= bound
            ok &= agree
            report[w][name] = {"sets": stats, "change": change, "bound": bound,
                               "agree": agree}
            print(f"{w:9s} {name:12s} bound {bound:.3f} " + " | ".join(
                f"median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} "
                f"spread {s['spread']:.3f}" for s in stats)
                + f"  change {change:.3f} agree={agree}")
        a, b = (run_once(w, 1, bench["run_seconds"], 1) for _ in range(2))
        same = {c: a["metrics"][c]["value"] == b["metrics"][c]["value"]
                for c in EXACT_COUNTS}
        ok &= all(same.values()) and a["correct"] and b["correct"]
        report[w]["exact_counts"] = {c: a["metrics"][c]["value"] for c in EXACT_COUNTS}
        print(f"{w:9s} counts repeat exactly: {all(same.values())} "
              f"{report[w]['exact_counts']}")
    print(json.dumps({"ok": ok, "workloads": report}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
