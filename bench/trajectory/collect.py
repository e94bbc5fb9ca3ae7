#!/usr/bin/env python3
"""Collects and summarizes benchmark runs for the committed trajectory.

Run from the root of the repository:

    python3 bench/trajectory/collect.py run SET SEED...   # one run per workload and seed
    python3 bench/trajectory/collect.py summary           # rewrite summary.json

`run` runs every workload of BENCHMARK.json once per seed, untraced,
with the workloads interleaved so a slow spell of the machine spreads
over all of them, and writes each run's record to
bench/trajectory/SET/<workload>-seed<SEED>.json (the canonical result is
kept as its SHA-256).

`summary` reads every set and writes bench/trajectory/summary.json:
per set and workload, the quartiles of each end-to-end metric and their
spread (distance between the first and third quartile as a share of the
median, from statistics.quantiles(values, n=4)); for each later set,
how much worse each median is than the first set's, against the
metric's bound; and whether the simulated counts of a seed repeat
exactly in every set that ran it.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
COUNTS = ("spice.steps", "spice.iterations", "golden.events")


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(set_name, seeds):
    b = bench()
    out = os.path.join(HERE, set_name)
    os.makedirs(out, exist_ok=True)
    for seed in seeds:
        for w in b["workloads"]:
            path = os.path.join(out, "%s-seed%s.json" % (w["name"], seed))
            cmd = b["command"] + ["--workload", w["name"], "--seed", str(seed),
                                  "--seconds", str(b["run_seconds"]), "--trace", "0", "--out", path]
            print(" ".join(cmd), flush=True)
            subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            with open(path) as f:
                recs = json.load(f)
            for r in recs:
                if r.get("result"):
                    r["result_sha256"] = hashlib.sha256(r.pop("result").encode()).hexdigest()
            with open(path, "w") as f:
                json.dump(recs, f, indent=1, sort_keys=True)
                f.write("\n")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def summary():
    b = bench()
    metrics = {m["name"]: m for m in b["end_to_end"]}
    sets = sorted(d for d in os.listdir(HERE) if os.path.isdir(os.path.join(HERE, d)))
    runs = {}  # set -> workload -> [record]
    for s in sets:
        for name in sorted(os.listdir(os.path.join(HERE, s))):
            with open(os.path.join(HERE, s, name)) as f:
                for rec in json.load(f):
                    runs.setdefault(s, {}).setdefault(rec["workload"], []).append(rec)
    out = {"sets": {}, "worse_than_first": {}, "counts_repeat": True}
    for s in sets:
        for w, recs in sorted(runs[s].items()):
            for m in metrics:
                q1, q2, q3 = quartiles([r["metrics"][m]["value"] for r in recs])
                out["sets"].setdefault(s, {}).setdefault(w, {})[m] = {
                    "n": len(recs), "q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2,
                    "bound": metrics[m]["bound"]}
    first = sets[0]
    for s in sets[1:]:
        for w in sorted(runs[s]):
            for m, d in metrics.items():
                a, c = out["sets"][first][w][m]["median"], out["sets"][s][w][m]["median"]
                worse = (c - a) / a if d["better"] == "lower" else (a - c) / a
                out["worse_than_first"].setdefault(s, {}).setdefault(w, {})[m] = {
                    "worse": worse, "bound": d["bound"], "within": worse <= d["bound"]}
    seen = {}
    for s in sets:
        for w, recs in runs[s].items():
            for r in recs:
                got = {c: r["counts"][c] for c in COUNTS if c in (r.get("counts") or {})}
                key = (w, r["seed"])
                if key in seen and seen[key] != got:
                    out["counts_repeat"] = False
                seen.setdefault(key, got)
    with open(os.path.join(HERE, "summary.json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    for s in sets:
        for w, ms in sorted(out["sets"][s].items()):
            for m, v in sorted(ms.items()):
                flag = "" if m == "setup_s" or v["spread"] <= v["bound"] / 3 else \
                    "  above a third of the bound" if v["spread"] <= v["bound"] else "  OVER THE BOUND"
                print("%-3s %-13s %-15s median %12.6g  spread %.3f  bound %.2f%s" % (
                    s, w, m, v["median"], v["spread"], v["bound"], flag))
    for s, ws in sorted(out["worse_than_first"].items()):
        for w, ms in sorted(ws.items()):
            for m, v in sorted(ms.items()):
                print("%s vs %s %-13s %-15s worse by %+.3f  bound %.2f%s" % (
                    s, first, w, m, v["worse"], v["bound"], "" if v["within"] else "  OVER"))
    print("simulated counts repeat:", out["counts_repeat"])


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3:])
    elif sys.argv[1:] == ["summary"]:
        summary()
    else:
        sys.exit(__doc__)
