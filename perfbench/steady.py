#!/usr/bin/env python3
"""Steadiness check for the benchmark described by BENCHMARK.json.

Runs every workload once per seed, then prints for each metric its median,
quartiles and spread (q3 - q1, as a share of the median) against the bound
BENCHMARK.json fixes. With --sets 2 it runs the whole sweep twice and also
prints how far the second median moved from the first in the worse
direction. Runs from different kernel tiers or thread counts are never
compared.

Run from the checkout root:

    python3 perfbench/steady.py --seeds 1,2,3,4,5 --workloads serve-churn
    python3 perfbench/steady.py --runs 10 --sets 2 --out target/perfbench/steady.json
    python3 perfbench/steady.py --runs 10 --compare target/perfbench/steady.json

Exits 1 when a run fails, a spread exceeds its bound,
or a median moved past its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

CONTEXT_PREFIX = "perfbench-context "
# Runs are only comparable when these match.
CONTEXT_KEYS = ("kernel", "workers", "nproc")


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    context = next((json.loads(l[len(CONTEXT_PREFIX):]) for l in lines
                    if l.startswith(CONTEXT_PREFIX)), None)
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "context": context, "result": result}


def check_contexts(runs):
    seen = {tuple(r["context"].get(k) for k in CONTEXT_KEYS) for r in runs}
    if len(seen) > 1:
        raise SystemExit(f"refusing to compare runs from different contexts "
                         f"{CONTEXT_KEYS}: {sorted(seen)}")


def values(runs, workload, metric):
    return [r["result"]["metrics"][metric]["value"]
            for r in runs if r["workload"] == workload]


def summarize(runs, metrics):
    bad = False
    for name in dict.fromkeys(r["workload"] for r in runs):
        walls = [r["wall_s"] for r in runs if r["workload"] == name]
        print(f"== {name}: {len(walls)} runs, wall median {statistics.median(walls):.1f} s")
        for m in metrics:
            vs = values(runs, name, m["name"])
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            if bound is None:
                verdict = ""
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                bad = True
            bound_s = "" if bound is None else f"{bound:.3f}"
            print(f"  {m['name']:28s} median {med:12.4f} q1 {q1:12.4f} q3 {q3:12.4f} "
                  f"spread {spread:7.4f} bound {bound_s:5s} {verdict}")
    return bad


def drift(first, second, metrics):
    """Worse-direction move of the second set's median from the first's."""
    bad = False
    for name in dict.fromkeys(r["workload"] for r in second):
        print(f"== {name}: second set vs first")
        for m in metrics:
            m1 = statistics.median(values(first, name, m["name"]))
            m2 = statistics.median(values(second, name, m["name"]))
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            over = worse > m["bound"]
            bad |= over
            print(f"  {m['name']:28s} {m1:12.4f} -> {m2:12.4f} worse by {worse:+.4f} "
                  f"(bound {m['bound']:.3f}){'  OVER BOUND' if over else ''}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds 1..N (default 10)")
    ap.add_argument("--seeds", help="comma-separated seeds (overrides --runs)")
    ap.add_argument("--workloads", help="comma-separated names (default: all)")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--trace", action="store_true", help="traced runs: per-layer metrics")
    ap.add_argument("--out", help="save the raw runs as JSON")
    ap.add_argument("--compare", help="raw runs saved earlier, to compare medians against")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.runs + 1)))
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    sets = []
    for s in range(args.sets):
        runs = []
        for name in names:
            for seed in seeds:
                r = run_once(bench, name, seed, args.trace)
                res = r["result"]
                print(f"set {s + 1} {name} seed {seed}: {r['wall_s']:.1f} s, "
                      f"correct {res['correct']}, {res['failed']}/{res['attempted']} failed",
                      flush=True)
                if not res["correct"]:
                    raise SystemExit(f"{name} seed {seed}: output check failed")
                runs.append(r)
                if args.out:
                    with open(args.out, "w") as f:
                        json.dump([r for done in sets + [runs] for r in done], f, indent=1)
        sets.append(runs)
    everything = [r for runs in sets for r in runs]
    baseline = None
    if args.compare:
        with open(args.compare) as f:
            baseline = json.load(f)
        everything += baseline
    check_contexts(everything)

    bad = False
    for i, runs in enumerate(sets):
        print(f"\n### set {i + 1}")
        bad |= summarize(runs, metrics)
    if not args.trace:
        if len(sets) == 2:
            print("\n### drift")
            bad |= drift(sets[0], sets[1], metrics)
        if baseline is not None:
            print("\n### current vs --compare")
            bad |= drift(baseline, sets[-1], metrics)
    n_workloads = len(bench["workloads"])
    per_workload = [statistics.mean([r["wall_s"] for r in sets[0] if r["workload"] == w["name"]])
                    for w in bench["workloads"] if w["name"] in names]
    if len(per_workload) == n_workloads:
        # A full acceptance sweep: 4 runs plus 22 per workload.
        total = 22 * sum(per_workload) + 4 * max(per_workload)
        print(f"\nprojected wall of 4 + 22 x {n_workloads} runs: {total:.0f} s")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
