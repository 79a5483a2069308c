#!/usr/bin/env python3
"""A/B and steadiness tool for the end-to-end benchmark.

Collect runs of one checkout, or of two checkouts in alternating order:

    python3 perfbench/abtest.py collect <checkout> <out.jsonl> [--seeds 1-10]
    python3 perfbench/abtest.py ab <checkout-a> <checkout-b> \\
        <a.jsonl> <b.jsonl> [--seeds 1-10] [--workloads w1,w2]

and compare two sets of runs (parent and change, or the same code twice):

    python3 perfbench/abtest.py compare <a.jsonl> <b.jsonl>

Each line of a runs file is {"workload", "seed", "result"}, where result
is the last line run.py printed.  For every workload and end-to-end metric
of BENCHMARK.json, compare prints each side's median and quartiles, the
share of same-seed pairs B won (ties count for neither), each side's
spread (quartile distance over median) and a verdict:

  improved    B wins at least 9 in 10 pairs and the medians differ by
              more than A's quartile distance
  regressed   B's median is worse than A's by more than the metric's bound
  unresolved  neither, and a side's spread is wider than the bound, unless
              every B run is better than every A run
  unchanged   otherwise

It exits 1 when a run was incorrect, a metric regressed or a side's
spread exceeds its bound, so two sets of the same code double as the
steadiness check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if proc.returncode:
        result["correct"] = False
    return {"workload": workload, "seed": seed, "result": result}


def append(path, record):
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")
    r = record["result"]
    print("%s seed %d: %s" % (record["workload"], record["seed"],
                              "ok" if r.get("correct") else "INCORRECT"),
          file=sys.stderr, flush=True)


def collect(args, bench):
    for w in args.workloads:
        for seed in args.seeds:
            append(args.out, run_once(args.checkout, w, seed,
                                      bench["run_seconds"]))


def ab(args, bench):
    sides = [(args.checkout_a, args.out_a), (args.checkout_b, args.out_b)]
    for w in args.workloads:
        for i, seed in enumerate(args.seeds):
            for checkout, out in (sides if i % 2 == 0 else sides[::-1]):
                append(out, run_once(checkout, w, seed,
                                     bench["run_seconds"]))


def read_runs(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def spread(v):
    q1, q3 = quartiles(v)
    return (q3 - q1) / statistics.median(v)


def verdict(a, b, pairs, lower_better, bound):
    med_a, med_b = statistics.median(a), statistics.median(b)
    better = (lambda x, y: x < y) if lower_better else (lambda x, y: x > y)
    won = sum(1 for x, y in pairs if better(y, x))
    share = won / len(pairs) if pairs else 0.0
    q1, q3 = quartiles(a)
    worse_by = (med_b - med_a if lower_better else med_a - med_b) / med_a
    if pairs and share >= 0.9 and abs(med_b - med_a) > q3 - q1 \
            and better(med_b, med_a):
        v = "improved"
    elif worse_by > bound:
        v = "regressed"
    elif max(spread(a), spread(b)) > bound and not all(
            better(y, x) for x in a for y in b):
        v = "unresolved"
    else:
        v = "unchanged"
    return v, share


def compare(args, bench):
    runs_a, runs_b = read_runs(args.a), read_runs(args.b)
    bad = [r for r in runs_a + runs_b if not r["result"].get("correct")]
    for r in bad:
        print("incorrect run: %s seed %d" % (r["workload"], r["seed"]))
    status = 1 if bad else 0
    print("%-14s %-16s %-7s %-30s %-30s %6s %6s %6s %6s  %s"
          % ("workload", "metric", "unit", "A median [q1, q3]",
             "B median [q1, q3]", "B won", "sprA", "sprB", "bound",
             "verdict"))
    for w in [x["name"] for x in bench["workloads"]]:
        a_by = {r["seed"]: r["result"]["metrics"] for r in runs_a
                if r["workload"] == w and r["result"].get("metrics")}
        b_by = {r["seed"]: r["result"]["metrics"] for r in runs_b
                if r["workload"] == w and r["result"].get("metrics")}
        if not a_by or not b_by:
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            a = [x[name]["value"] for x in a_by.values() if name in x]
            b = [x[name]["value"] for x in b_by.values() if name in x]
            if not a or not b:
                continue
            pairs = [(a_by[s][name]["value"], b_by[s][name]["value"])
                     for s in sorted(set(a_by) & set(b_by))]
            v, share = verdict(a, b, pairs, m["better"] == "lower",
                               m["bound"])
            qa, qb = quartiles(a), quartiles(b)
            sa, sb = spread(a), spread(b)
            # set-up time is exempt from the spread requirement
            too_wide = name != "setup_s" and max(sa, sb) > m["bound"]
            if v == "regressed" or too_wide:
                status = 1
            print("%-14s %-16s %-7s %-30s %-30s %5.0f%% %6.3f %6.3f %6.2f"
                  "  %s%s"
                  % (w, name, m["unit"],
                     "%.4g [%.4g, %.4g]" % (statistics.median(a), *qa),
                     "%.4g [%.4g, %.4g]" % (statistics.median(b), *qb),
                     100 * share, sa, sb, m["bound"], v,
                     " (spread above bound)" if too_wide else ""))
    return status


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 1)[1])
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd, pos in (("collect", ["checkout", "out"]),
                     ("ab", ["checkout_a", "checkout_b", "out_a", "out_b"])):
        p = sub.add_parser(cmd)
        for name in pos:
            p.add_argument(name)
        p.add_argument("--seeds", type=parse_seeds,
                       default=parse_seeds("1-10"))
        p.add_argument("--workloads", type=lambda s: s.split(","),
                       default=names)
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = ap.parse_args()
    if args.cmd == "compare":
        return compare(args, bench)
    (collect if args.cmd == "collect" else ab)(args, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
