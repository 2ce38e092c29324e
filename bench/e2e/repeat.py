#!/usr/bin/env python3
"""Repeats the benchmark over seeds and summarises its spread.

    python3 bench/e2e/repeat.py --seeds 1-10 --seconds 20 \\
        [--workloads ea_bus,mixed_rail] [--trace 0] [--out bench/e2e/baseline.json]

Runs bench/e2e/run.py once per (seed, workload), seed-major so slow drift of
the machine spreads over every workload. For each metric of the result line
it prints the median, the quartiles (Python's statistics.quantiles(n=4)),
the spread (Q3 - Q1) / median, and the medians of the first and second half
of the seeds, which two independent sets of runs of the same code must agree
on. --out writes those numbers with the machine header of the first run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    half = len(values) // 2
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "first_half_median": statistics.median(values[:half] or values),
        "second_half_median": statistics.median(values[half:]),
        "n": len(values),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in manifest["workloads"]])

    values = {w: {} for w in workloads}
    header = None
    for seed in seeds_of(args.seeds):
        for w in workloads:
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", "%g" % args.seconds,
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if run.returncode != 0:
                sys.exit("run failed: %s seed %d" % (w, seed))
            lines = run.stdout.strip().split("\n")
            if header is None:
                header = json.loads(lines[0])["provenance"]
            metrics = json.loads(lines[-1])["metrics"]
            for name, m in metrics.items():
                values[w].setdefault(name, []).append((m["value"], m["unit"]))
            if not args.trace:
                print("%s seed %d: %s" % (w, seed, " ".join(
                    "%s=%.6g" % (n, m["value"]) for n, m in metrics.items())),
                    flush=True)

    out = {"seconds": args.seconds, "seeds": args.seeds, "traced": bool(args.trace),
           "machine": {k: header[k] for k in
                       ("git_sha", "nproc", "cpu", "compiler", "build_type")},
           "workloads": {}}
    for w in workloads:
        out["workloads"][w] = {}
        print("\n" + w)
        for name, vals in values[w].items():
            s = summary([v for v, _ in vals])
            s["unit"] = vals[0][1]
            out["workloads"][w][name] = s
            print("  %-34s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f"
                  "  halves %12.6g / %12.6g" % (
                      name, s["median"], s["q1"], s["q3"], s["spread"],
                      s["first_half_median"], s["second_half_median"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
