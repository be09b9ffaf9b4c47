#!/usr/bin/env python3
"""Records a perfbench baseline: every workload (or those named) run in
one or more sets of N seeds, and per end-to-end metric and set the
median and the spread (interquartile range over the median, as
statistics.quantiles(n=4) gives the quartiles). Wall-clock metrics also
get the spread of their raw figures, before the CPU-steal correction,
and with two or more sets each metric's drift: how much worse its
median is in the later set than in the first, as a share of the first.

    python3 perfbench/baseline.py --runs 10 --sets 2 --out perfbench/baseline.json [workload ...]

Set k runs seeds first-seed + k*runs onwards. Run it from the
repository root. Runs are sequential; a run that fails or prints
correct=false is recorded and makes the script exit 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Result-file notes holding each wall metric's figure before the steal
# correction.
RAW = {"ops_per_s": ("raw_wall", "ops_per_s"), "op_ms_p50": ("raw_wall", "op_ms_p50"),
       "op_ms_p90": ("raw_wall", "op_ms_p90"), "setup_s": ("setup_s_raw_wall", None)}


def spread(xs):
    med = statistics.median(xs)
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
    return med, q, (q[2] - q[0]) / med if med else None


def run_set(bench, name, seeds, out):
    seconds = str(bench["run_seconds"])
    values, raw, runs, ok = {}, {}, [], True
    for seed in seeds:
        cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                  "--seconds", seconds, "--trace", "0"]
        t0 = time.time()
        p = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.time() - t0
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
        run = {"seed": seed, "exit": p.returncode, "wall_s": round(wall, 1)}
        path = os.path.join(".bench_build", "perfbench-out", f"{name}-seed{seed}-e2e.json")
        if result is not None and os.path.exists(path):
            with open(path) as f:
                doc = json.load(f)
            notes = doc["notes"]
            run["host_steal_s"] = round(notes.get("host_steal_s", 0), 2)
            out["host"] = doc["host"]
            for k, (note, key) in RAW.items():
                v = notes.get(note)
                if v is not None:
                    raw.setdefault(k, []).append(v[key] if key else statistics.median(v))
        if result is None or not result["correct"]:
            ok = False
            run["error"] = p.stderr[-500:]
        else:
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        runs.append(run)
        print(name, run, file=sys.stderr, flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for k, xs in values.items():
        med, q, s = spread(xs)
        summary[k] = {"median": med, "q1": q[0], "q3": q[2], "spread": s,
                      "bound": bounds.get(k), "values": xs}
        if len(raw.get(k, [])) == len(xs):
            summary[k]["raw_spread"] = spread(raw[k])[2]
            summary[k]["raw_values"] = raw[k]
    return {"seeds": list(seeds), "runs": runs, "metrics": summary}, ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="perfbench/baseline.json")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    out = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        for name in names:
            s, good = run_set(bench, name, range(first, first + args.runs), out)
            ok = ok and good
            out["workloads"].setdefault(name, {"sets": []})["sets"].append(s)
    for name, w in out["workloads"].items():
        sets = w["sets"]
        for k, m in sorted(sets[0]["metrics"].items()):
            line = f"{name:8s} {k:14s} bound {m['bound']}"
            for s in sets:
                mm = s["metrics"].get(k)
                if mm:
                    raw = f" raw {mm['raw_spread']:.3f}" if "raw_spread" in mm else ""
                    line += f" | median {mm['median']:<10.5g} spread {mm['spread']:.3f}{raw}"
            for s in sets[1:]:
                mm = s["metrics"].get(k)
                if mm and m["median"]:
                    d = (mm["median"] - m["median"]) / m["median"]
                    d = d if better[k] == "lower" else -d
                    line += f" | drift {d:+.3f}"
                    w.setdefault("drift", {}).setdefault(k, []).append(d)
            print(line, file=sys.stderr, flush=True)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
